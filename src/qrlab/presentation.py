"""Finite group presentations and free-group words.

A word is a tuple of letters (generator_index, sign) with sign in {+1, -1},
always stored freely reduced.  Presentations are immutable; the text format is

    gens: a,b; relators: a^4*b^-2, a*b*a*b^-1; prime: 2

with '#' comments, insignificant whitespace, and u=v relators normalized
to u*v^-1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ParseError

Letter = tuple[int, int]
Word = tuple[Letter, ...]


def free_reduce(letters: Iterable[Letter]) -> Word:
    """Cancel adjacent inverse pairs until none remain (stack pass)."""
    out: list[Letter] = []
    for g, s in letters:
        if s not in (1, -1):
            raise ValueError(f"letter sign must be +-1, got {s}")
        if out and out[-1][0] == g and out[-1][1] == -s:
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


def exponent_vector(w: Word, ngens: int) -> tuple[int, ...]:
    """Image of w in the free abelianization Z^ngens."""
    e = [0] * ngens
    for g, s in w:
        e[g] += s
    return tuple(e)


def word_text(w: Word, names: Sequence[str]) -> str:
    """Serialize with run-length exponents, inverse of the parser."""
    if not w:
        return ""
    runs: list[list] = []
    for g, s in w:
        if runs and runs[-1][0] == g and (runs[-1][1] > 0) == (s > 0):
            runs[-1][1] += s
        else:
            runs.append([g, s])
    parts = []
    for g, e in runs:
        parts.append(names[g] if e == 1 else f"{names[g]}^{e}")
    return "*".join(parts)


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Presentation:
    """A finite presentation plus the primes the analysis should sweep.

    generator_names must be distinct identifiers; relators are nonempty
    freely reduced words over those generators.  Both may be empty only
    when constructed in-process (the file grammar requires at least one
    of each); the empty presentation presents the trivial group.
    """

    generator_names: tuple[str, ...]
    relators: tuple[Word, ...]
    primes: tuple[int, ...]

    def __post_init__(self):
        seen = set()
        for nm in self.generator_names:
            if not _NAME_RE.fullmatch(nm):
                raise ValueError(f"bad generator identifier {nm!r}")
            if nm in seen:
                raise ValueError(f"duplicate generator {nm!r}")
            seen.add(nm)
        n = len(self.generator_names)
        for w in self.relators:
            if not w:
                raise ValueError("empty relator")
            if w != free_reduce(w):
                raise ValueError("relator not freely reduced")
            for g, s in w:
                if not 0 <= g < n:
                    raise ValueError(f"letter index {g} out of range")
        for p in self.primes:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")

    @property
    def ngens(self) -> int:
        return len(self.generator_names)

    def relator_exponent_matrix(self) -> list[list[int]]:
        """One row per relator, the images in Z^ngens (presents G_ab)."""
        return [list(exponent_vector(r, self.ngens)) for r in self.relators]

    def text(self) -> str:
        gens = ",".join(self.generator_names)
        rels = ", ".join(word_text(r, self.generator_names) for r in self.relators)
        primes = ",".join(str(p) for p in self.primes)
        return f"gens: {gens}; relators: {rels}; prime: {primes}"


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<int>-?\d+)|(?P<sym>[:;,*^=])|(?P<junk>\S)"
)


class _Tok:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for m in _TOKEN_RE.finditer(line):
            kind = m.lastgroup
            col = m.start() + 1
            if kind == "junk":
                raise ParseError(f"unexpected character {m.group()!r}", lineno, col)
            toks.append(_Tok(kind, m.group(), lineno, col))
    return toks


class _Cursor:
    def __init__(self, toks: list[_Tok], text: str):
        self.toks = toks
        self.i = 0
        nlines = max(1, len(text.splitlines()))
        self._eof = (nlines, len(text.splitlines()[-1]) + 1 if text.splitlines() else 1)

    def peek(self) -> _Tok | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def pos(self) -> tuple[int, int]:
        t = self.peek()
        return (t.line, t.col) if t else self._eof

    def take(self, kind=None, value=None, what=""):
        t = self.peek()
        if t is None:
            line, col = self._eof
            raise ParseError(f"unexpected end of input, expected {what or value or kind}", line, col)
        if (kind and t.kind != kind) or (value and t.value != value):
            raise ParseError(
                f"expected {what or value or kind}, found {t.value!r}", t.line, t.col
            )
        self.i += 1
        return t


def _parse_chain(cur: _Cursor, index: dict[str, int]) -> list[Letter]:
    letters: list[Letter] = []
    while True:
        t = cur.take("name", what="generator name")
        if t.value not in index:
            raise ParseError(f"unknown generator {t.value!r}", t.line, t.col)
        g = index[t.value]
        exp = 1
        nxt = cur.peek()
        if nxt and nxt.kind == "sym" and nxt.value == "^":
            cur.take("sym", "^")
            e = cur.take("int", what="exponent")
            exp = int(e.value)
        sign = 1 if exp >= 0 else -1
        letters.extend([(g, sign)] * abs(exp))
        nxt = cur.peek()
        if nxt and nxt.kind == "sym" and nxt.value == "*":
            cur.take("sym", "*")
            continue
        return letters


def parse_presentation(text: str) -> Presentation:
    """Parse the presentation file format; raises ParseError with position."""
    cur = _Cursor(_tokenize(text), text)

    cur.take("name", "gens", what="'gens'")
    cur.take("sym", ":")
    names: list[str] = []
    while True:
        t = cur.take("name", what="generator name")
        if t.value in names:
            raise ParseError(f"duplicate generator {t.value!r}", t.line, t.col)
        names.append(t.value)
        if cur.peek() and cur.peek().value == ",":
            cur.take("sym", ",")
            continue
        break
    cur.take("sym", ";")
    index = {nm: i for i, nm in enumerate(names)}

    cur.take("name", "relators", what="'relators'")
    cur.take("sym", ":")
    relators: list[Word] = []
    while True:
        line, col = cur.pos()
        lhs = _parse_chain(cur, index)
        nxt = cur.peek()
        if nxt and nxt.kind == "sym" and nxt.value == "=":
            cur.take("sym", "=")
            rhs = _parse_chain(cur, index)
            lhs = lhs + [(g, -s) for g, s in reversed(rhs)]
        w = free_reduce(lhs)
        if not w:
            raise ParseError("relator reduces to the empty word", line, col)
        relators.append(w)
        if cur.peek() and cur.peek().value == ",":
            cur.take("sym", ",")
            continue
        break
    cur.take("sym", ";")

    cur.take("name", "prime", what="'prime'")
    cur.take("sym", ":")
    primes: list[int] = []
    while True:
        t = cur.take("int", what="prime")
        p = int(t.value)
        if not is_prime(p):
            raise ParseError(f"{p} is not prime", t.line, t.col)
        if p not in primes:
            primes.append(p)
        if cur.peek() and cur.peek().value == ",":
            cur.take("sym", ",")
            continue
        break
    if cur.peek() and cur.peek().value == ";":
        cur.take("sym", ";")
    t = cur.peek()
    if t is not None:
        raise ParseError(f"trailing input {t.value!r}", t.line, t.col)

    return Presentation(tuple(names), tuple(relators), tuple(primes))
