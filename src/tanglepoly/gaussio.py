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

The tokenizer cuts each line at ``#`` and splits the rest with
``str.split()``, keeping one flat list of tokens, the line number of each
and only the lines that hold tokens, so that comment and blank lines cost
no memory.  A valid parse builds no span: a ParseError finds its token's
columns by scanning that one line again.  A file may hold at most MAX_CHORDS chord
labels (``tanglepoly gen`` builds no more, so its output always parses back),
MAX_COMPONENTS components (the vlk matrix a report holds has one entry per
pair of them) and no token longer than MAX_TOKEN_CHARS characters; each
excess is a ParseError at the offending token.

The serializer emits exactly this grammar, with chord labels as stored and
closed components written from their stored basepoint, so parse(serialize(d))
reproduces d up to closed-component rotation.  It writes each visit from its
chord, and raises DiagramError on a kind the grammar cannot express.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from itertools import islice
from typing import Iterator

from .diagram import (
    BoundaryPoint,
    Chord,
    ChordKind,
    Classical,
    Component,
    DiagramError,
    Endpoint,
    Side,
    Singular,
    TangleDiagram,
    TangleError,
    _Value,
    _rows,
)
# Unused here, but bench/spans.py wraps component_tokens, from_tokens and
# validate in this module, so they stay bound.
from .diagram import component_tokens, from_tokens, validate  # noqa: F401

MAX_CHORDS = 1_000_000
MAX_COMPONENTS = 1_000
MAX_TOKEN_CHARS = 1_000


class SourceSpan(_Value):
    """Where a parse error is: a 1-based line and its columns."""

    __slots__ = _fields = ("line", "col_start", "col_end")

    def __str__(self) -> str:
        return f"line {self.line}, cols {self.col_start}-{self.col_end}"


class ParseError(TangleError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} ({span})")
        self.message = message
        self.span = span


# str.split(), str.isspace and \s agree on what whitespace is.
_TOKEN_RE = re.compile(r"\S+")
_BPOINT_RE = re.compile(r"^([TB])([0-9]+):(in|out)$")
_CHUNK = 8192  # characters the tokenizer splits into lines at a time


def _code(line: str) -> str:
    comment = line.find("#")
    return line if comment < 0 else line[:comment]


def _lines(text: str) -> Iterator[str]:
    """``text.splitlines()`` in chunks, each cut just after a newline."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start + _CHUNK) + 1 or len(text)
        yield from text[start:stop].splitlines()
        start = stop


class _Tokens:
    """Every token of a text in order, with the line it is on, and a cursor."""

    def __init__(self, text: str):
        self.code_of: dict[int, str] = {}  # line number -> its code, for spans
        self.words: list[str] = []
        self.line_of: list[int] = []
        self.pos = 0
        lineno, line = 1, ""
        for lineno, line in enumerate(_lines(text), start=1):
            code = _code(line)
            words = code.split()
            if not words:
                continue
            self.code_of[lineno] = code
            self.words += words
            self.line_of += [lineno] * len(words)
            if len(code) > MAX_TOKEN_CHARS and max(map(len, words)) > MAX_TOKEN_CHARS:
                first = len(self.words) - len(words)
                over = next(i for i, word in enumerate(words) if len(word) > MAX_TOKEN_CHARS)
                raise ParseError(f"token longer than {MAX_TOKEN_CHARS} characters",
                                 self.span(first + over))
        self.line_count, self.last_length = lineno, len(line)

    def span(self, index: int) -> SourceSpan:
        """Where token ``index`` is: the n-th token of its line."""
        lineno = self.line_of[index]
        nth = index - bisect_left(self.line_of, lineno)
        match = next(islice(_TOKEN_RE.finditer(self.code_of[lineno]), nth, None))
        return SourceSpan(lineno, match.start() + 1, match.end())

    def next(self, expected: str) -> int:
        """The index of the next token, which the cursor then passes."""
        if self.pos == len(self.words):
            last = max(self.last_length, 1)
            raise ParseError(f"unexpected end of input; expected {expected}",
                             SourceSpan(self.line_count, last, last))
        self.pos += 1
        return self.pos - 1


# Counts and boundary indices: ASCII digits only, and few enough of them that
# int() stays cheap and the number fits any diagram that fits in memory.
_MAX_DIGITS = 9


def _parse_int(text: str, what: str, tokens: _Tokens, index: int) -> int:
    if not (text.isascii() and text.isdigit()):
        raise ParseError(f"expected {what}, got {text!r}", tokens.span(index))
    if len(text) > _MAX_DIGITS:
        raise ParseError(f"{what} has more than {_MAX_DIGITS} digits", tokens.span(index))
    return int(text)


def _parse_bpoint(tokens: _Tokens, index: int, role: str) -> BoundaryPoint:
    """The boundary point at token ``index``, which starts a long component
    (``role`` "start", an 'in' point) or ends it ("end", an 'out' point)."""
    text = tokens.words[index]
    match = _BPOINT_RE.match(text)
    if not match:
        raise ParseError(f"bad boundary point {text!r}", tokens.span(index))
    side = Side.TOP if match.group(1) == "T" else Side.BOTTOM
    number = _parse_int(match.group(2), "boundary index", tokens, index)
    direction = "in" if role == "start" else "out"
    if match.group(3) != direction:
        raise ParseError(f"long component must {role} at an '{direction}' point",
                         tokens.span(index))
    return BoundaryPoint(side, number)


# The six chord kinds, keyed by the first passage's role and sign character.
_KINDS: dict[tuple[str, str], ChordKind] = {
    ("O", "+"): Classical(1, "a"), ("O", "-"): Classical(-1, "a"),
    ("U", "+"): Classical(1, "b"), ("U", "-"): Classical(-1, "b"),
    ("S", "+"): Singular(1), ("S", "-"): Singular(-1),
}


def parse(text: str) -> TangleDiagram:
    """Parse the format above into a well-formed diagram.

    Raises ParseError carrying the SourceSpan of the offending token on the
    first problem found: lexical errors, label arity violations, O/U or sign
    mismatches, boundary misuse, long-component direction violations, or
    a file over MAX_CHORDS labels, MAX_COMPONENTS components or
    MAX_TOKEN_CHARS per token.
    """
    tokens = _Tokens(text)
    words = tokens.words

    header = tokens.next("'tangle'")
    if words[header] != "tangle":
        raise ParseError(f"expected 'tangle', got {words[header]!r}", tokens.span(header))
    at = tokens.next("top point count")
    top = _parse_int(words[at], "top point count", tokens, at)
    at = tokens.next("bottom point count")
    bottom = _parse_int(words[at], "bottom point count", tokens, at)

    components: list[Component] = []
    seen_names: set[str] = set()
    # label -> its passages, flat: visit token, endpoint, token index, ...
    passages: dict[str, list] = {}
    boundary_seen: set[tuple[Side, int]] = set()

    while tokens.pos < len(words):
        if words[tokens.pos] != "component":
            raise ParseError(f"expected 'component', got {words[tokens.pos]!r}",
                             tokens.span(tokens.pos))
        if len(components) == MAX_COMPONENTS:
            raise ParseError(f"more than {MAX_COMPONENTS} components", tokens.span(tokens.pos))
        tokens.pos += 1
        name = tokens.next("component name")
        cid = words[name]
        if cid in seen_names:
            raise ParseError(f"component {cid!r} declared twice", tokens.span(name))
        seen_names.add(cid)
        kind = tokens.next("'closed' or 'long'")
        start = end = None
        header_end = kind
        if words[kind] == "long":
            start_at = tokens.next("boundary point")
            start = _parse_bpoint(tokens, start_at, "start")
            end_at = header_end = tokens.next("boundary point")
            end = _parse_bpoint(tokens, end_at, "end")
            for point, at in ((start, start_at), (end, end_at)):
                limit = top if point.side is Side.TOP else bottom
                if not 1 <= point.index <= limit:
                    raise ParseError(
                        f"boundary point {point.side.value}{point.index} out of range",
                        tokens.span(at))
                key = (point.side, point.index)
                if key in boundary_seen:
                    raise ParseError(
                        f"boundary point {point.side.value}{point.index} used twice",
                        tokens.span(at))
                boundary_seen.add(key)
        elif words[kind] != "closed":
            raise ParseError(f"expected 'closed' or 'long', got {words[kind]!r}",
                             tokens.span(kind))

        first = tokens.pos
        if first < len(words) and tokens.line_of[first] == tokens.line_of[header_end]:
            raise ParseError("expected end of line after component header",
                             tokens.span(first))
        try:
            tokens.pos = words.index("component", first)
        except ValueError:
            tokens.pos = len(words)
        visits: list[str] = []
        for position, word in enumerate(words[first:tokens.pos]):
            if len(word) < 3 or word[0] not in "OUS" or word[-1] not in "+-":
                raise ParseError(f"bad visit token {word!r}", tokens.span(first + position))
            label = word[1:-1]
            visits.append(label)
            uses = passages.get(label)
            if uses is None:
                if len(passages) == MAX_CHORDS:
                    raise ParseError(f"more than {MAX_CHORDS} chord labels",
                                     tokens.span(first + position))
                passages[label] = [word, Endpoint(cid, position), first + position]
            else:
                uses += (word, Endpoint(cid, position), first + position)
        components.append(Component(cid, tuple(visits), start, end))

    for side, limit in ((Side.TOP, top), (Side.BOTTOM, bottom)):
        for index in range(1, limit + 1):
            if (side, index) not in boundary_seen:
                raise ParseError(
                    f"boundary point {side.value}{index} is not used by any component",
                    tokens.span(header))

    chords: list[Chord] = []
    for label, uses in passages.items():
        if len(uses) != 6:
            if len(uses) == 3:
                raise ParseError(f"dangling chord {label!r}: label appears only once",
                                 tokens.span(uses[2]))
            raise ParseError(f"chord {label!r} appears more than twice",
                             tokens.span(uses[8]))
        word_a, end_a, _, word_b, end_b, at = uses
        sign = word_a[-1]
        if sign != word_b[-1]:
            raise ParseError(f"sign mismatch between the passages of chord {label!r}",
                             tokens.span(at))
        role_a, role_b = word_a[0], word_b[0]
        if role_a == "S" or role_b == "S":
            if role_a != role_b:
                raise ParseError(
                    f"chord {label!r} mixes singular and classical passages", tokens.span(at))
        elif role_a == role_b:
            raise ParseError(
                f"chord {label!r} must appear once as O and once as U", tokens.span(at))
        chords.append(Chord(label, end_a, end_b, _KINDS[role_a, sign]))
    return TangleDiagram(top, bottom, tuple(components), tuple(chords))


# A passage's sign character, and the roles of end_a and end_b by ``over``.
_SIGNS = {1: "+", -1: "-"}
_ROLES = {"a": ("O", "U"), "b": ("U", "O")}


def _passages(chord: Chord) -> tuple[str, str]:
    """The visit tokens of a chord's end_a and end_b."""
    kind = chord.kind
    if isinstance(kind, Classical):
        sign, roles = _SIGNS.get(kind.sign), _ROLES.get(kind.over)
    else:
        sign, roles = _SIGNS.get(kind.frame), ("S", "S")
    if sign is None or roles is None:
        raise DiagramError(f"chord {chord.label!r}: the format cannot write {kind!r}")
    return f"{roles[0]}{chord.label}{sign}", f"{roles[1]}{chord.label}{sign}"


def serialize(diagram: TangleDiagram) -> str:
    """Emit the canonical text form of a valid diagram."""
    lines = [f"tangle {diagram.top} {diagram.bottom}"]
    rows = _rows(diagram, _passages)
    for comp in diagram.components:
        if comp.is_closed:
            lines.append(f"component {comp.cid} closed")
        else:
            assert comp.start is not None and comp.end is not None
            lines.append(
                f"component {comp.cid} long "
                f"{comp.start.side.value}{comp.start.index}:in "
                f"{comp.end.side.value}{comp.end.index}:out")
        if rows[comp.cid]:
            lines.append(" ".join(rows[comp.cid]))
    return "\n".join(lines) + "\n"
