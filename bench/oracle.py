"""Independent invariants of Gauss-code text, used to check the program.

Nothing here imports the package.  The diagram is read straight from the
text format in the project README, and every value is computed by a method
other than the program's:

* ``psc`` by prefix sums.  Give each passage of a self-chord of component i
  the weight +sign (over) or -sign (under).  The chord's index is, up to
  sign, the weight sum strictly between its two passages (on a long
  component the rest of the strand carries the negated sum, since the
  weights of a component add up to 0).
* ``vlk(i, j)`` by a direct count of the chords with the over passage on i
  and the under passage on j; wriggle is vlk(i, j) - vlk(j, i).
* ``plk`` and ``plkL`` assembled from those two.

Polynomials are dicts mapping exponent tuples to nonzero Fractions.  The
module also resolves singular chords, stacks string links, rotates closed
components and flips one sign, all on the text, and reads the program's
text and JSON output back into the same form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

Poly = dict[tuple[int, ...], Fraction]


@dataclass
class Comp:
    header: str          # "component NAME closed" or "component NAME long P Q"
    closed: bool
    tokens: list[str]    # visit tokens such as "O12+", "S3-"


@dataclass
class Diagram:
    top: int
    bottom: int
    comps: list[Comp]

    def text(self) -> str:
        lines = [f"tangle {self.top} {self.bottom}"]
        for comp in self.comps:
            lines.append(comp.header)
            if comp.tokens:
                lines.append(" ".join(comp.tokens))
        return "\n".join(lines) + "\n"


def read(text: str) -> Diagram:
    words: list[list[str]] = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].split()
        if line:
            words.append(line)
    head = words[0]
    if head[0] != "tangle" or len(head) != 3:
        raise ValueError("expected the header 'tangle TOP BOTTOM'")
    comps: list[Comp] = []
    for line in words[1:]:
        if line[0] == "component":
            comps.append(Comp(" ".join(line), line[2] == "closed", []))
        else:
            comps[-1].tokens.extend(line)
    return Diagram(int(head[1]), int(head[2]), comps)


def _split(token: str) -> tuple[str, str, int]:
    return token[0], token[1:-1], (1 if token[-1] == "+" else -1)


def _add(poly: Poly, exps: tuple[int, ...], coeff) -> None:
    total = poly.get(exps, Fraction(0)) + coeff
    if total:
        poly[exps] = total
    else:
        poly.pop(exps, None)


def plus(left: Poly, right: Poly) -> Poly:
    total = dict(left)
    for exps, coeff in right.items():
        _add(total, exps, coeff)
    return total


def _mono(n: int, powers: dict[int, int]) -> tuple[int, ...]:
    """Exponent vector of n variables with the given 0-based powers."""
    return tuple(powers.get(k, 0) for k in range(n))


def psc(diagram: Diagram) -> Poly:
    n = len(diagram.comps)
    poly: Poly = {}
    for i, comp in enumerate(diagram.comps):
        places: dict[str, list[int]] = {}
        for pos, token in enumerate(comp.tokens):
            places.setdefault(token[1:-1], []).append(pos)
        weights = [0] * len(comp.tokens)
        selfs = [label for label, spots in places.items()
                 if len(spots) == 2 and comp.tokens[spots[0]][0] != "S"]
        for label in selfs:
            for pos in places[label]:
                role, _label, sign = _split(comp.tokens[pos])
                weights[pos] = sign if role == "O" else -sign
        prefix = list(itertools.accumulate(weights, initial=0))
        for label in selfs:
            first, second = places[label]
            index = abs(prefix[second] - prefix[first + 1])
            sign = _split(comp.tokens[first])[2]
            _add(poly, _mono(n, {i: index}), sign)
            _add(poly, (0,) * n, -sign)
    return poly


def vlk(diagram: Diagram) -> list[list[int]]:
    n = len(diagram.comps)
    over: dict[str, tuple[int, int]] = {}
    under: dict[str, int] = {}
    for i, comp in enumerate(diagram.comps):
        for token in comp.tokens:
            role, label, sign = _split(token)
            if role == "O":
                over[label] = (i, sign)
            elif role == "U":
                under[label] = i
    matrix = [[0] * n for _ in range(n)]
    for label, (i, sign) in over.items():
        j = under[label]
        if i != j:
            matrix[i][j] += sign
    return matrix


def invariants(diagram: Diagram, a: Fraction, b: Fraction) -> dict:
    n = len(diagram.comps)
    self_poly = psc(diagram)
    links = vlk(diagram)
    plk = dict(self_poly)
    plk_l = dict(self_poly)
    for i in range(n):
        for j in range(i + 1, n):
            _add(plk, _mono(n, {i: 1, j: 1}), a * links[i][j] + b * links[j][i])
            _add(plk_l, _mono(n, {i: 1, j: -1}), a * links[i][j])
            _add(plk_l, _mono(n, {i: -1, j: 1}), b * links[j][i])
    wriggle = [[links[i][j] - links[j][i] for j in range(n)] for i in range(n)]
    return {"components": n, "a": a, "b": b, "psc": self_poly, "plk": plk,
            "plkL": plk_l, "vlk": links, "wriggle": wriggle}


# ── Text-level transformations ───────────────────────────────────────────


def resolutions(diagram: Diagram):
    """Yield (weight, resolved diagram) for every resolution of the S chords.

    The frame is the sign obtained with the first-listed passage over; the
    positive resolution has sign +1, the negative one the opposite
    over-choice with sign -1, and the weight is (-1)^(negative choices).
    """
    first_seen: dict[str, tuple[int, int]] = {}
    for i, comp in enumerate(diagram.comps):
        for pos, token in enumerate(comp.tokens):
            if token[0] == "S":
                first_seen.setdefault(token[1:-1], (i, pos))
    labels = list(first_seen)
    for choices in itertools.product((1, -1), repeat=len(labels)):
        choice_of = dict(zip(labels, choices))
        comps = []
        for i, comp in enumerate(diagram.comps):
            tokens = []
            for pos, token in enumerate(comp.tokens):
                role, label, frame = _split(token)
                if role == "S":
                    choice = choice_of[label]
                    first_over = (frame == 1) == (choice == 1)
                    is_first = first_seen[label] == (i, pos)
                    role = "O" if first_over == is_first else "U"
                    token = f"{role}{label}{'+' if choice == 1 else '-'}"
                tokens.append(token)
            comps.append(Comp(comp.header, comp.closed, tokens))
        weight = -1 if choices.count(-1) % 2 else 1
        yield weight, Diagram(diagram.top, diagram.bottom, comps)


def derivative(diagram: Diagram, a: Fraction, b: Fraction) -> dict[str, Poly]:
    """Alternating sums of psc, plk and plkL over all resolutions."""
    total: dict[str, Poly] = {"psc": {}, "plk": {}, "plkL": {}}
    for weight, resolved in resolutions(diagram):
        values = invariants(resolved, a, b)
        for key, poly in total.items():
            for exps, coeff in values[key].items():
                _add(poly, exps, weight * coeff)
    return total


def stack(upper: Diagram, lower: Diagram) -> Diagram:
    """Connected sum of two string links on the same number of strands:
    strand i of the result is strand i of ``upper`` followed by strand i of
    ``lower``, whose chord labels are shifted past the upper ones."""
    shift = max((int(t[1:-1]) for c in upper.comps for t in c.tokens), default=0)
    comps = []
    for up, low in zip(upper.comps, lower.comps):
        moved = [f"{t[0]}{int(t[1:-1]) + shift}{t[-1]}" for t in low.tokens]
        comps.append(Comp(up.header, False, up.tokens + moved))
    return Diagram(upper.top, lower.bottom, comps)


def rotated(diagram: Diagram, shifts: list[int]) -> Diagram:
    """Rotate closed component k's cyclic visit order by shifts[k]."""
    comps = []
    for comp, shift in zip(diagram.comps, shifts):
        tokens = comp.tokens
        if comp.closed and tokens:
            shift %= len(tokens)
            tokens = tokens[shift:] + tokens[:shift]
        comps.append(Comp(comp.header, comp.closed, list(tokens)))
    return Diagram(diagram.top, diagram.bottom, comps)


def sign_flipped(diagram: Diagram, label: str) -> Diagram:
    """Negate the sign of one chord at both of its passages."""
    comps = []
    for comp in diagram.comps:
        tokens = [
            (t[:-1] + ("-" if t[-1] == "+" else "+")) if t[1:-1] == label else t
            for t in comp.tokens
        ]
        comps.append(Comp(comp.header, comp.closed, tokens))
    return Diagram(diagram.top, diagram.bottom, comps)


def from_model(diagram) -> Diagram:
    """Gauss code of an in-memory diagram, read from its public fields
    (components, visits, chords with end_a/end_b and kind) without calling
    any of the package's functions."""
    tokens: dict[tuple[str, int], str] = {}
    for chord in diagram.chords:
        kind = chord.kind
        for tag, end in (("a", chord.end_a), ("b", chord.end_b)):
            if hasattr(kind, "frame"):
                role, sign = "S", kind.frame
            else:
                role, sign = ("O" if kind.over == tag else "U"), kind.sign
            tokens[(end.component, end.position)] = (
                f"{role}{chord.label}{'+' if sign > 0 else '-'}")
    comps = []
    for comp in diagram.components:
        if comp.start is None:
            header = f"component {comp.cid} closed"
        else:
            header = (f"component {comp.cid} long "
                      f"{comp.start.side.value}{comp.start.index}:in "
                      f"{comp.end.side.value}{comp.end.index}:out")
        row = [tokens[(comp.cid, pos)] for pos in range(len(comp.visits))]
        comps.append(Comp(header, comp.start is None, row))
    return Diagram(diagram.top, diagram.bottom, comps)


# ── Reading the program's output ─────────────────────────────────────────


def poly_from_text(text: str, n: int) -> Poly:
    poly: Poly = {}
    if text == "0":
        return poly
    for term in text.split(" + "):
        factors = term.split(" ")
        exps = [0] * n
        for factor in factors[1:]:
            name, _, power = factor.partition("^")
            exps[int(name[1:]) - 1] += int(power) if power else 1
        _add(poly, tuple(exps), Fraction(factors[0]))
    return poly


def poly_from_json(terms: list[dict], n: int) -> Poly:
    poly: Poly = {}
    for term in terms:
        exps = tuple(int(e) for e in term["exps"])
        if len(exps) != n:
            raise ValueError("exponent vector of the wrong length")
        _add(poly, exps, Fraction(term["coeff"]))
    return poly


def report_from_text(lines: list[str]) -> dict:
    """Read the block written by ``compute``/``sum`` for one diagram."""
    fields = {}
    matrices: dict[str, list[list[int]]] = {}
    current = None
    for line in lines:
        if line.startswith("  "):
            matrices[current].append(
                [0 if cell == "." else int(cell) for cell in line.split()])
            continue
        key, _, value = line.partition(":")
        if key in ("vlk", "wriggle"):
            current = key
            matrices[key] = []
        else:
            fields[key] = value.strip()
    n = int(fields["components"])
    return {"components": n, "a": Fraction(fields["a"]), "b": Fraction(fields["b"]),
            "psc": poly_from_text(fields["psc"], n),
            "plk": poly_from_text(fields["plk"], n),
            "plkL": poly_from_text(fields["plkL"], n),
            "vlk": matrices["vlk"], "wriggle": matrices["wriggle"]}


def report_from_json(obj: dict) -> dict:
    n = len(obj["vlk"])
    return {"components": n, "a": Fraction(obj["plk"]["a"]), "b": Fraction(obj["plk"]["b"]),
            "psc": poly_from_json(obj["psc"], n),
            "plk": poly_from_json(obj["plk"]["value"], n),
            "plkL": poly_from_json(obj["plkL"]["value"], n),
            "vlk": obj["vlk"], "wriggle": obj["wriggle"]}


def self_check(samples: dict[str, str]) -> None:
    """Hand values from the sample files; raises when the oracle disagrees."""
    one = Fraction(1)
    checks = [
        (psc(read(samples["virtual_trefoil"])), {(0,): Fraction(-2), (1,): Fraction(2)}),
        (psc(read(samples["clasp"])), {}),
        (invariants(read(samples["clasp"]), one, Fraction(2))["plk"],
         {(1, 1): Fraction(3)}),
        (derivative(read(samples["singular_trefoil"]), one, one)["psc"],
         {(0,): Fraction(-2), (1,): Fraction(2)}),
    ]
    for number, (got, want) in enumerate(checks, start=1):
        if got != want:
            raise AssertionError(f"oracle hand check {number} failed: {got} != {want}")
