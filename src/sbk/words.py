"""Signed words over the surface braid generator alphabets.

Four kinds of generators occur, all indexed by 1-based strand positions:

* ``A[i,j]`` -- band generators, defined for ``1 <= i < j``;
* ``rho[k]`` -- surface generators (the loop of the k-th basepoint
  through the crosscap), ``k >= 1``;
* ``tau[k]`` -- the alternative surface loops appearing in the other
  standard presentation, ``k >= 1``;
* ``s[i]``  -- elementary crossings of the full braid group, ``i >= 1``.

A :class:`Word` is a canonically stored product of generator powers:
adjacent letters with the same generator are merged, letters with
exponent zero are dropped, and merging is applied transitively, so
storage performs exactly the free cancellation that is valid in every
group.  Words carry no ambient-group tag; each operation that needs an
alphabet checks its own letters.

:func:`push_letter` is the one free-reduction step and :func:`substitute`
the one letterwise map ``gen -> images[gen]`` of letter tuples; only the
comber's hot loop (:func:`sbk.combing._split_top`, its closed-form powers
and the tower actions of :mod:`sbk.abelian`) reduces on its own, over
letters coded as signed ints, and decodes back through :func:`push_letter`.
Inverse and product of words are ``~w`` and ``u * v``.

The text grammar (exact) is::

    word := term (WS+ term)* | eps
    term := gen ("^" int)?
    gen  := "A[" int "," int "]" | "rho[" int "]" | "tau[" int "]" | "s[" int "]"

where the exponent must be a nonzero decimal integer.  Printing uses
single spaces and omits ``^1``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping

KIND_A = "A"
KIND_RHO = "rho"
KIND_TAU = "tau"
KIND_SIGMA = "s"

# A generator is a plain tuple: ("A", i, j), ("rho", k), ("tau", k) or
# ("s", i).  A letter is a pair (gen, exponent) with nonzero exponent.
Gen = tuple
Letter = tuple


class WordSyntaxError(ValueError):
    """Malformed word text; ``offset`` is the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class AlphabetError(ValueError):
    """A word contains a letter outside the alphabet of the operation."""


def gen_a(i: int, j: int) -> Gen:
    if not 1 <= i < j:
        raise ValueError(f"A[{i},{j}] requires 1 <= i < j")
    return (KIND_A, i, j)


def gen_rho(k: int) -> Gen:
    if k < 1:
        raise ValueError(f"rho[{k}] requires k >= 1")
    return (KIND_RHO, k)


def gen_tau(k: int) -> Gen:
    if k < 1:
        raise ValueError(f"tau[{k}] requires k >= 1")
    return (KIND_TAU, k)


def gen_sigma(i: int) -> Gen:
    if i < 1:
        raise ValueError(f"s[{i}] requires i >= 1")
    return (KIND_SIGMA, i)


def gen_level(gen: Gen) -> int:
    """The strand level a letter lives at: j for A[i,j], k for rho[k]."""
    return gen[2] if gen[0] == KIND_A else gen[1]


def format_gen(g: Gen) -> str:
    if g[0] == KIND_A:
        return f"A[{g[1]},{g[2]}]"
    return f"{g[0]}[{g[1]}]"


def reduce_letters(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """Merge adjacent equal generators, dropping zero exponents (stack pass)."""
    out: list[Letter] = []
    for gen, exp in letters:
        push_letter(out, gen, exp)
    return tuple(out)


def push_letter(out: list, gen: Gen, exp: int) -> None:
    """Append one letter to a reduced letter list, keeping it reduced: the
    one free-reduction step, which every merging loop goes through."""
    if exp == 0:
        return
    if out and out[-1][0] == gen:
        merged = out[-1][1] + exp
        if merged == 0:
            out.pop()
        else:
            out[-1] = (gen, merged)
    else:
        out.append((gen, exp))


def invert_letters(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    return tuple((gen, -exp) for gen, exp in reversed(tuple(letters)))


def concat_letters(*parts: Iterable[Letter]) -> tuple[Letter, ...]:
    out: list = []
    for part in parts:
        for gen, exp in part:
            push_letter(out, gen, exp)
    return tuple(out)


def pow_letters(letters: tuple[Letter, ...], e: int) -> tuple[Letter, ...]:
    """Reduced e-th power, by squaring so conjugate shapes collapse cheaply."""
    if e == 0 or not letters:
        return ()
    if e < 0:
        return pow_letters(invert_letters(letters), -e)
    result: tuple[Letter, ...] = ()
    base = tuple(letters)
    while e:
        if e & 1:
            result = concat_letters(result, base)
        e >>= 1
        if e:
            base = concat_letters(base, base)
    return result


def substitute(letters: Iterable[Letter],
               images: Mapping[Gen, tuple[Letter, ...]]) -> tuple[Letter, ...]:
    """The reduced image of a word under the letterwise map gen -> images[gen];
    a generator without an entry maps to itself."""
    out: list[Letter] = []
    for gen, exp in letters:
        image = images.get(gen)
        if image is None:
            push_letter(out, gen, exp)
        elif exp == 1:
            for g2, e2 in image:
                push_letter(out, g2, e2)
        elif exp == -1:
            for g2, e2 in reversed(image):
                push_letter(out, g2, -e2)
        elif len(image) == 1:
            push_letter(out, image[0][0], image[0][1] * exp)
        else:
            for g2, e2 in pow_letters(image, exp):
                push_letter(out, g2, e2)
    return tuple(out)


_TERM_RE = re.compile(
    r"""(?:A\[(?P<ai>\d+),(?P<aj>\d+)\]
        |rho\[(?P<rk>\d+)\]
        |tau\[(?P<tk>\d+)\]
        |s\[(?P<si>\d+)\])
        (?:\^(?P<exp>-?\d+))?""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class Word:
    """An immutable, canonically reduced word over the generator alphabet."""

    letters: tuple[Letter, ...] = ()

    @staticmethod
    def from_letters(letters: Iterable[Letter]) -> "Word":
        return Word(reduce_letters(letters))

    @staticmethod
    def of(gen: Gen, exp: int = 1) -> "Word":
        return Word(((gen, exp),)) if exp else Word()

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def length(self) -> int:
        return sum(abs(exp) for _, exp in self.letters)

    def __invert__(self) -> "Word":
        return Word(invert_letters(self.letters))

    def __mul__(self, other: "Word") -> "Word":
        return Word(concat_letters(self.letters, other.letters))

    def __pow__(self, e: int) -> "Word":
        return Word(pow_letters(self.letters, e))

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"


def parse_word(text: str) -> Word:
    """Parse the exact word grammar, reporting byte offsets on failure."""
    letters: list[Letter] = []
    pos = 0
    n = len(text)
    first = True
    while True:
        ws_start = pos
        while pos < n and text[pos].isspace():
            pos += 1
        if pos == n:
            break
        if not first and pos == ws_start:
            raise WordSyntaxError("expected whitespace between terms", pos)
        m = _TERM_RE.match(text, pos)
        if m is None:
            raise WordSyntaxError("expected a generator term", pos)
        try:
            if m.group("ai") is not None:
                gen = gen_a(int(m.group("ai")), int(m.group("aj")))
            elif m.group("rk") is not None:
                gen = gen_rho(int(m.group("rk")))
            elif m.group("tk") is not None:
                gen = gen_tau(int(m.group("tk")))
            else:
                gen = gen_sigma(int(m.group("si")))
            exp = 1 if m.group("exp") is None else int(m.group("exp"))
        except ValueError as err:  # also digit strings beyond int()'s limit
            raise WordSyntaxError(str(err), pos) from None
        if exp == 0:
            raise WordSyntaxError("exponent must be nonzero", m.start("exp"))
        letters.append((gen, exp))
        pos = m.end()
        first = False
    return Word.from_letters(letters)


def format_word(w: Word) -> str:
    return " ".join(
        format_gen(gen) + (f"^{exp}" if exp != 1 else "")
        for gen, exp in w.letters
    )


