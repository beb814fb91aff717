"""Seeded generators of Gauss-code text for the benchmark's inputs.

Everything here is written against the file format in the project README,
not against the package: the program only ever receives the generated text.
Chord labels are 1..C; every chord's two passages land on components chosen
uniformly at random, and each component's visit order is then shuffled, so
any output is a valid virtual tangle.
"""

from __future__ import annotations

import random

SHAPES = ("strand", "cup", "cap", "through")


def _boundary(rng: random.Random, n_long: int) -> tuple[int, int, list[tuple[str, str]]]:
    """Random shapes for the long components; returns the top and bottom
    point counts and each long component's (start, end) boundary points."""
    tops: list[tuple[int, str]] = []
    bottoms: list[tuple[int, str]] = []
    for idx in range(n_long):
        shape = rng.choice(SHAPES)
        if shape == "strand":
            tops.append((idx, "in"))
            bottoms.append((idx, "out"))
        elif shape == "cup":
            bottoms.append((idx, "in"))
            bottoms.append((idx, "out"))
        elif shape == "cap":
            tops.append((idx, "in"))
            tops.append((idx, "out"))
        else:
            bottoms.append((idx, "in"))
            tops.append((idx, "out"))
    ends: list[dict[str, str]] = [{} for _ in range(n_long)]
    for side, points in (("T", tops), ("B", bottoms)):
        for number, (idx, direction) in enumerate(points, start=1):
            ends[idx][direction] = f"{side}{number}:{direction}"
    return len(tops), len(bottoms), [(e["in"], e["out"]) for e in ends]


def _rows(rng: random.Random, n_comp: int, chords: int, singular: int) -> list[list[str]]:
    rows: list[list[str]] = [[] for _ in range(n_comp)]
    for label in range(1, chords + 1):
        sign = rng.choice("+-")
        for role in ("O", "U"):
            rows[rng.randrange(n_comp)].append(f"{role}{label}{sign}")
    for label in range(chords + 1, chords + singular + 1):
        frame = rng.choice("+-")
        for _ in range(2):
            rows[rng.randrange(n_comp)].append(f"S{label}{frame}")
    for row in rows:
        rng.shuffle(row)
    return rows


def _emit(top: int, bottom: int, headers: list[str], rows: list[list[str]]) -> str:
    lines = [f"tangle {top} {bottom}"]
    for header, row in zip(headers, rows):
        lines.append(header)
        if row:
            lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def tangle(rng: random.Random, chords: int, n_comp: int, n_long: int,
           singular: int = 0) -> str:
    """A tangle with ``n_long`` long components of random shape followed by
    closed ones, ``chords`` classical chords and ``singular`` double points."""
    top, bottom, ends = _boundary(rng, n_long)
    headers = [f"component c{i + 1} long {start} {end}"
               for i, (start, end) in enumerate(ends)]
    headers += [f"component c{i + 1} closed" for i in range(n_long, n_comp)]
    return _emit(top, bottom, headers, _rows(rng, n_comp, chords, singular))


def string_link(rng: random.Random, strands: int, chords: int) -> str:
    """Strand i runs from top point i to bottom point i."""
    headers = [f"component S{i} long T{i}:in B{i}:out" for i in range(1, strands + 1)]
    return _emit(strands, strands, headers, _rows(rng, strands, chords, 0))


def rational(rng: random.Random) -> str:
    """A nonzero exact rational p/q written as the CLI accepts it."""
    return f"{rng.choice((-1, 1)) * rng.randint(1, 9)}/{rng.randint(1, 7)}"
