"""Textual Gauss-code format for tangle diagrams.

Grammar (whitespace-separated tokens, ``#`` starts a comment to end of line):

    file      := "tangle" INT INT component*          top count, bottom count
    component := "component" NAME kind NEWLINE visit*
    kind      := "closed" | "long" BPOINT BPOINT      first=start (in), second=end (out)
    BPOINT    := ("T"|"B") INT ":" ("in"|"out")       1-based index on that side
    INT       := 1 to 9 ASCII digits
    visit     := ("O"|"U") LABEL ("+"|"-")            classical passage
               | "S" LABEL ("+"|"-")                  singular passage (sign = frame)

Component file order defines the variable order t1..tn.  Every label appears
exactly twice; a classical label once as O and once as U, a singular label
twice as S.  The sign character is repeated at both passages and must match;
for singular chords it is the frame.  File order is traversal order, so the
parser builds each chord straight from its two passages, the first being
end_a, in the order the labels first appear.  Every check raises ParseError
with a source span; a text that passes them all is a diagram ``validate``
accepts, so it is not run again.

The serializer emits exactly this grammar, with chord labels as stored and
closed components written from their stored basepoint, so parse(serialize(d))
reproduces d up to closed-component rotation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .diagram import (
    BoundaryPoint,
    Chord,
    ChordKind,
    Classical,
    Component,
    Direction,
    Endpoint,
    Side,
    Singular,
    TangleDiagram,
    TangleError,
    component_tokens,
)
# Unused here, but bench/spans.py wraps from_tokens and validate in this
# module, so they stay bound.
from .diagram import from_tokens, validate  # noqa: F401


@dataclass(frozen=True)
class SourceSpan:
    line: int
    col_start: int
    col_end: int

    def __str__(self) -> str:
        return f"line {self.line}, cols {self.col_start}-{self.col_end}"


class ParseError(TangleError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} ({span})")
        self.message = message
        self.span = span


@dataclass(frozen=True)
class _Token:
    text: str
    span: SourceSpan


_VISIT_RE = re.compile(r"^([OUS])(.+)([+-])$")
_BPOINT_RE = re.compile(r"^([TB])([0-9]+):(in|out)$")


def _tokenize(lines: list[str]) -> list[_Token]:
    tokens: list[_Token] = []
    for lineno, line in enumerate(lines, start=1):
        comment = line.find("#")
        if comment >= 0:
            line = line[:comment]
        col = 0
        length = len(line)
        while col < length:
            if line[col].isspace():
                col += 1
                continue
            start = col
            while col < length and not line[col].isspace():
                col += 1
            tokens.append(_Token(line[start:col], SourceSpan(lineno, start + 1, col)))
    return tokens


class _Stream:
    def __init__(self, text: str):
        lines = text.splitlines() or [""]
        self._tokens = _tokenize(lines)
        self._pos = 0
        self._eof = SourceSpan(len(lines), max(len(lines[-1]), 1), max(len(lines[-1]), 1))

    def peek(self) -> _Token | None:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def next(self, expected: str) -> _Token:
        token = self.peek()
        if token is None:
            raise ParseError(f"unexpected end of input; expected {expected}", self._eof)
        self._pos += 1
        return token


# Counts and boundary indices: ASCII digits only, and few enough of them that
# int() stays cheap and the number fits any diagram that fits in memory.
_MAX_DIGITS = 9


def _parse_int(text: str, what: str, span: SourceSpan) -> int:
    if not (text.isascii() and text.isdigit()):
        raise ParseError(f"expected {what}, got {text!r}", span)
    if len(text) > _MAX_DIGITS:
        raise ParseError(f"{what} has more than {_MAX_DIGITS} digits", span)
    return int(text)


def _parse_bpoint(token: _Token) -> tuple[BoundaryPoint, _Token]:
    match = _BPOINT_RE.match(token.text)
    if not match:
        raise ParseError(f"bad boundary point {token.text!r}", token.span)
    side = Side.TOP if match.group(1) == "T" else Side.BOTTOM
    index = _parse_int(match.group(2), "boundary index", token.span)
    direction = Direction.IN if match.group(3) == "in" else Direction.OUT
    return BoundaryPoint(side, index, direction), token


@dataclass
class _Passage:
    role: str  # "O" | "U" | "S"
    sign: int
    end: Endpoint
    span: SourceSpan


def parse(text: str) -> TangleDiagram:
    """Parse the format above into a well-formed diagram.

    Raises ParseError carrying the SourceSpan of the offending token on the
    first problem found: lexical errors, label arity violations, O/U or sign
    mismatches, boundary misuse, or long-component direction violations.
    """
    stream = _Stream(text)

    header = stream.next("'tangle'")
    if header.text != "tangle":
        raise ParseError(f"expected 'tangle', got {header.text!r}", header.span)
    token = stream.next("top point count")
    top = _parse_int(token.text, "top point count", token.span)
    token = stream.next("bottom point count")
    bottom = _parse_int(token.text, "bottom point count", token.span)

    components: list[Component] = []
    seen_names: set[str] = set()
    passages: dict[str, list[_Passage]] = {}
    boundary_seen: dict[tuple[Side, int], _Token] = {}

    while True:
        token = stream.peek()
        if token is None:
            break
        if token.text != "component":
            raise ParseError(f"expected 'component', got {token.text!r}", token.span)
        stream.next("'component'")
        name_token = stream.next("component name")
        cid = name_token.text
        if cid in seen_names:
            raise ParseError(f"component {cid!r} declared twice", name_token.span)
        seen_names.add(cid)
        kind_token = stream.next("'closed' or 'long'")
        start = end = None
        header_end = kind_token
        if kind_token.text == "long":
            start, start_token = _parse_bpoint(stream.next("boundary point"))
            if start.direction is not Direction.IN:
                raise ParseError("long component must start at an 'in' point",
                                 start_token.span)
            end, end_token = _parse_bpoint(stream.next("boundary point"))
            if end.direction is not Direction.OUT:
                raise ParseError("long component must end at an 'out' point",
                                 end_token.span)
            header_end = end_token
            for point, ptoken in ((start, start_token), (end, end_token)):
                limit = top if point.side is Side.TOP else bottom
                if not 1 <= point.index <= limit:
                    raise ParseError(
                        f"boundary point {point.side.value}{point.index} out of range",
                        ptoken.span)
                key = (point.side, point.index)
                if key in boundary_seen:
                    raise ParseError(
                        f"boundary point {point.side.value}{point.index} used twice",
                        ptoken.span)
                boundary_seen[key] = ptoken
        elif kind_token.text != "closed":
            raise ParseError(f"expected 'closed' or 'long', got {kind_token.text!r}",
                             kind_token.span)

        follower = stream.peek()
        if follower is not None and follower.span.line == header_end.span.line:
            raise ParseError("expected end of line after component header", follower.span)

        visits: list[str] = []
        while True:
            token = stream.peek()
            if token is None or token.text == "component":
                break
            stream.next("visit")
            match = _VISIT_RE.match(token.text)
            if not match:
                raise ParseError(f"bad visit token {token.text!r}", token.span)
            role, label, sign_char = match.groups()
            sign = 1 if sign_char == "+" else -1
            passages.setdefault(label, []).append(
                _Passage(role, sign, Endpoint(cid, len(visits)), token.span))
            visits.append(label)
        components.append(Component(cid, tuple(visits), start, end))

    for side, limit in ((Side.TOP, top), (Side.BOTTOM, bottom)):
        for index in range(1, limit + 1):
            if (side, index) not in boundary_seen:
                raise ParseError(
                    f"boundary point {side.value}{index} is not used by any component",
                    header.span)

    chords: list[Chord] = []
    for label, uses in passages.items():
        if len(uses) == 1:
            raise ParseError(f"dangling chord {label!r}: label appears only once",
                             uses[0].span)
        if len(uses) > 2:
            raise ParseError(f"chord {label!r} appears more than twice", uses[2].span)
        first, second = uses
        if first.sign != second.sign:
            raise ParseError(f"sign mismatch between the passages of chord {label!r}",
                             second.span)
        roles = (first.role, second.role)
        if "S" in roles:
            if roles != ("S", "S"):
                raise ParseError(
                    f"chord {label!r} mixes singular and classical passages", second.span)
            kind: ChordKind = Singular(first.sign)
        elif set(roles) != {"O", "U"}:
            raise ParseError(
                f"chord {label!r} must appear once as O and once as U", second.span)
        else:
            kind = Classical(first.sign, "a" if first.role == "O" else "b")
        chords.append(Chord(label, first.end, second.end, kind))
    return TangleDiagram(top, bottom, tuple(components), tuple(chords))


def serialize(diagram: TangleDiagram) -> str:
    """Emit the canonical text form of a valid diagram."""
    lines = [f"tangle {diagram.top} {diagram.bottom}"]
    tokens = component_tokens(diagram)
    chord_by_label = {c.label: c for c in diagram.chords}
    for comp in diagram.components:
        if comp.is_closed:
            lines.append(f"component {comp.cid} closed")
        else:
            assert comp.start is not None and comp.end is not None
            lines.append(
                f"component {comp.cid} long "
                f"{comp.start.side.value}{comp.start.index}:{comp.start.direction.value} "
                f"{comp.end.side.value}{comp.end.index}:{comp.end.direction.value}")
        row = []
        for label, tag in tokens[comp.cid]:
            chord = chord_by_label[label]
            kind = chord.kind
            if isinstance(kind, Classical):
                role = "O" if kind.over == tag else "U"
                sign = kind.sign
            else:
                role = "S"
                sign = kind.frame
            row.append(f"{role}{label}{'+' if sign > 0 else '-'}")
        if row:
            lines.append(" ".join(row))
    return "\n".join(lines) + "\n"
