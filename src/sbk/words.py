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
comber's hot loop (:func:`sbk.combing._split_top`, the steps of the
eliminated letters it compiles, its closed-form powers and the tower
actions of :mod:`sbk.abelian`) reduces on its own, over letters coded as
signed ints, and decodes its reduced words one letter per coded letter.
Inverse and product of words are ``~w`` and ``u * v``.

The text grammar (exact) is::

    word := term (WS+ term)* | eps
    term := gen ("^" int)?
    gen  := "A[" int "," int "]" | "rho[" int "]" | "tau[" int "]" | "s[" int "]"

where ``int`` is a run of the ASCII digits 0-9; an exponent may take a
leading ``-`` and must be nonzero.  Printing uses single spaces and omits ``^1``;
it formats each distinct letter once per call (:class:`_LetterTexts`, which
:meth:`sbk.presentations.Presentation.to_json` uses too).
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping

KIND_A = "A"
KIND_RHO = "rho"
KIND_TAU = "tau"
KIND_SIGMA = "s"

# A generator is a plain tuple: ("A", i, j), ("rho", k), ("tau", k) or
# ("s", i).  A letter is a pair (gen, exponent) with nonzero exponent.
Gen = tuple
Letter = tuple


class Frozen:
    """Base of the value classes with read-only fields: ``__init__`` sets
    each field once through ``object.__setattr__``, and assigning or
    deleting a field afterwards raises ``AttributeError``.

    ``_fields`` names a value's fields in order, and is the one statement
    of its identity: two values are equal when they are of the same class
    with equal field tuples, a value hashes as its field tuple, and its
    repr is ``Name(field=value, ...)``.  A class whose fields hold lists
    or dicts sets ``__hash__ = None``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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
    out = []
    for gen, exp in letters:
        out.append((gen, -exp))
    out.reverse()
    return tuple(out)


def concat_letters(*parts: Iterable[Letter]) -> tuple[Letter, ...]:
    out: list = []
    for part in parts:
        for gen, exp in part:
            push_letter(out, gen, exp)
    return tuple(out)


def pow_letters(letters: Iterable[Letter], e: int) -> tuple[Letter, ...]:
    """Reduced e-th power in closed form: the reduced word is w = P C P^-1, P
    the longest, and w^e = P C^e P^-1 (Lyndon and Schupp, I.2), C^e one letter
    when C is, c_0 (M c)^(e-1) M c_last when C's end letters merge to c, M its
    middle, else e copies of C.  The letters are reduced first."""
    letters = reduce_letters(letters)
    if e < 0:
        letters, e = invert_letters(letters), -e
    if not e or not letters:
        return ()
    last = len(letters) - 1
    k = 0
    while k < last - k and letters[k] == (letters[last - k][0], -letters[last - k][1]):
        k += 1
    core = letters[k:last + 1 - k]
    if len(core) == 1:
        core = ((core[0][0], core[0][1] * e),)
    elif core[0][0] == core[-1][0]:
        # c_last c_0 neither cancels (P is the longest) nor meets M's ends
        middle = core[1:-1]
        core = core[:1] + (middle + concat_letters(core[-1:], core[:1])) * (e - 1) \
            + middle + core[-1:]
    else:
        core *= e
    return letters[:k] + core + letters[last + 1 - k:]


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
    r"""(?:A\[(?P<ai>[0-9]+),(?P<aj>[0-9]+)\]
        |rho\[(?P<rk>[0-9]+)\]
        |tau\[(?P<tk>[0-9]+)\]
        |s\[(?P<si>[0-9]+)\])
        (?:\^(?P<exp>-?[0-9]+))?""",
    re.VERBOSE,
)


class Word(Frozen):
    """An immutable, canonically reduced word over the generator alphabet."""

    __slots__ = ("letters",)
    _fields = ("letters",)

    def __init__(self, letters: tuple[Letter, ...] = ()):
        object.__setattr__(self, "letters", letters)

    def __reduce__(self):
        # copy and pickle rebuild a word through __init__: its slot is read-only
        return Word, (self.letters,)

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


def format_letter(gen: Gen, exp: int) -> str:
    """The text of the letter ``gen^exp``, without ``^1``."""
    return format_gen(gen) + (f"^{exp}" if exp != 1 else "")


class _LetterTexts(dict):
    """The text of each letter looked up, made on its first lookup."""

    def __missing__(self, letter: Letter) -> str:
        text = self[letter] = format_letter(*letter)
        return text


def format_word(w: Word) -> str:
    # each distinct letter is formatted once and its text shared
    return " ".join(map(_LetterTexts().__getitem__, w.letters))


