"""Evaluation of the standard homomorphisms out of the surface braid groups.

* ``iota_sharp``  -- the mod-2 exponent map of the n-strand pure braid
  group of the projective plane onto (Z/2)^n (band generators die, each
  surface generator hits its own coordinate);
* ``iota_hat``    -- its restriction to the punctured subgroup, landing
  in (Z/2)^m with the two puncture coordinates dropped;
* ``q2_sharp``    -- strand forgetting down to two strands, evaluated in
  the quaternion group of order 8;
* ``forget_strands`` -- letterwise strand forgetting between pure braid
  groups;
* conversions between the ``tau``/``rho``/``s`` alphabets.

Crossing letters ``s[i]`` are admitted only where they can be converted
to a band generator, i.e. with even exponent (``s[i]^2 = A[i,i+1]``);
any odd-exponent crossing letter is rejected, because these maps are
only defined on pure words.
"""

from __future__ import annotations

from typing import Iterable

from .words import (
    KIND_A,
    KIND_RHO,
    KIND_SIGMA,
    KIND_TAU,
    AlphabetError,
    Frozen,
    Gen,
    Letter,
    Word,
    format_gen,
    gen_a,
    gen_level,
    gen_rho,
    gen_sigma,
    push_letter,
    substitute,
)

Z2Vector = tuple  # fixed-length tuple of 0/1 entries


class NonPureWordError(AlphabetError):
    """The word has odd crossing content, so it is not a pure braid word."""


def format_z2(bits: Z2Vector) -> str:
    return "(" + ",".join(str(b) for b in bits) + ")"


_AXIS_NAMES = ("1", "i", "j", "k")
# _AXIS_MUL[a][b] = (sign, axis) of the product of axes a and b.
_AXIS_MUL = (
    ((1, 0), (1, 1), (1, 2), (1, 3)),
    ((1, 1), (-1, 0), (1, 3), (-1, 2)),
    ((1, 2), (-1, 3), (-1, 0), (1, 1)),
    ((1, 3), (1, 2), (-1, 1), (-1, 0)),
)


class QuatElement(Frozen):
    """One of the eight elements {+-1, +-i, +-j, +-k} of the quaternion group."""

    _fields = ("sign", "axis")

    def __init__(self, sign: int = 1, axis: int = 0):
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "axis", axis)

    def __mul__(self, other: "QuatElement") -> "QuatElement":
        s, a = _AXIS_MUL[self.axis][other.axis]
        return QuatElement(self.sign * other.sign * s, a)

    def inverse(self) -> "QuatElement":
        if self.axis == 0:
            return self
        return QuatElement(-self.sign, self.axis)

    def __pow__(self, e: int) -> "QuatElement":
        result = Q_ONE
        base = self if e >= 0 else self.inverse()
        for _ in range(abs(e) % 4):
            result = result * base
        return result

    def __str__(self) -> str:
        return ("" if self.sign > 0 else "-") + _AXIS_NAMES[self.axis]


Q_ONE = QuatElement(1, 0)
Q_MINUS_ONE = QuatElement(-1, 0)
Q_I = QuatElement(1, 1)
Q_J = QuatElement(1, 2)
Q_K = QuatElement(1, 3)


def expand_even_crossings(w: Word) -> Word:
    """Replace each crossing letter s[i]^2e by A[i,i+1]^e.

    Raises :class:`NonPureWordError` on any odd-exponent crossing letter;
    this is the only crossing content the pure-group maps accept.
    """
    out: list[Letter] = []
    for gen, exp in w.letters:
        if gen[0] == KIND_SIGMA:
            if exp % 2:
                raise NonPureWordError(
                    f"crossing letter {format_gen(gen)}^{exp} has odd exponent; "
                    "the word is not visibly pure"
                )
            push_letter(out, gen_a(gen[1], gen[1] + 1), exp // 2)
        else:
            push_letter(out, gen, exp)
    return Word(tuple(out))


def check_letters(letters: tuple[Letter, ...], low: int, top: int,
                  surface_kinds: tuple[str, ...], outside: str) -> None:
    """The one alphabet rule: each letter is a band letter A[i,j] or a letter
    of one of the ``surface_kinds``, at a strand level from ``low`` to
    ``top``.  Raises ``unexpected letter X`` for a letter of another kind and
    ``X <outside>`` for one at another level."""
    for gen, _ in letters:
        if gen[0] == KIND_A:
            level = gen[2]
        elif gen[0] in surface_kinds:
            level = gen[1]
        else:
            raise AlphabetError(f"unexpected letter {format_gen(gen)}")
        if not low <= level <= top:
            raise AlphabetError(f"{format_gen(gen)} {outside}")


def _pn_letters(n: int, w: Word) -> tuple[Letter, ...]:
    """The letters of ``w`` with even crossings expanded, checked to lie in
    the n-strand alphabet of the projective plane."""
    letters = expand_even_crossings(w).letters
    check_letters(letters, 1, n, (KIND_RHO, KIND_TAU), f"needs strand count > {n}")
    return letters


def _checked_letters(m: int, letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """The letters, checked to lie in the m-strand, two-puncture alphabet."""
    letters = tuple(letters)
    check_letters(letters, 3, m + 2, (KIND_RHO,),
                  f"outside the {m}-strand, 2-puncture alphabet")
    return letters


def iota_sharp(n: int, w: Word) -> Z2Vector:
    """Image in (Z/2)^n: bands to 0, rho[k] and tau[k] to the k-th basis bit."""
    if n < 0:
        raise ValueError("n must be >= 0")
    bits = [0] * n
    for gen, exp in _pn_letters(n, w):
        if gen[0] != KIND_A:
            bits[gen[1] - 1] ^= exp & 1
    return tuple(bits)


def iota_hat(m: int, w: Word) -> Z2Vector:
    """Image in (Z/2)^m of a word over the two-puncture alphabet with
    strand labels 3 .. m+2: rho[j] hits position j-2, bands die."""
    if m < 1:
        raise ValueError("m must be >= 1")
    bits = [0] * m
    for gen, exp in _checked_letters(m, w.letters):
        if gen[0] == KIND_RHO:
            bits[gen[1] - 3] ^= exp & 1
    return tuple(bits)


def q2_sharp(n: int, w: Word) -> QuatElement:
    """Forget all strands beyond the first two and evaluate in the
    quaternion group, under the identification tau[1] -> i, tau[2] -> j.

    Letterwise images: A[1,2] -> -1, other bands -> 1, tau[1] -> i,
    tau[2] -> j, rho[1] -> i, rho[2] -> -j, higher surface letters -> 1.
    The identification is fixed by checking that the two-strand defining
    relations hold in the quaternion group for (i, j).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    result = Q_ONE
    for gen, exp in _pn_letters(n, w):
        kind = gen[0]
        if kind == KIND_A:
            image = Q_MINUS_ONE if (gen[1], gen[2]) == (1, 2) else Q_ONE
        elif kind == KIND_TAU:
            image = (Q_I, Q_J)[gen[1] - 1] if gen[1] <= 2 else Q_ONE
        else:  # rho
            image = (Q_I, QuatElement(-1, 2))[gen[1] - 1] if gen[1] <= 2 else Q_ONE
        result = result * image ** exp
    return result


def tau_from_rho(k: int, n: int) -> Word:
    """The tau[k] generator written in the rho/A alphabet of the n-strand
    group: rho[k]^-1 A[k,k+1] ... A[k,n]."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    letters = [(gen_rho(k), -1)] + [(gen_a(k, l), 1) for l in range(k + 1, n + 1)]
    return Word.from_letters(letters)


def forget_strands(w: Word, frm: int, to: int) -> Word:
    """The strand-forgetting homomorphism from the ``frm``-strand group to
    the ``to``-strand group, applied letterwise.

    Every generator mentioning a forgotten strand maps to the identity,
    and tau[k] with k <= ``to`` maps to its rho/A image in the source group
    with those letters already removed, which is the rho/A image of tau[k]
    in the target group.  So one substitution pass forgets each image
    before raising it to its exponent.  The result is a word over the
    rho/A alphabet.
    """
    if not 1 <= to < frm:
        raise ValueError(f"need 1 <= to < from, got from={frm}, to={to}")
    letters = _pn_letters(frm, w)
    images: dict[Gen, tuple[Letter, ...]] = {}
    for gen, _ in letters:
        if gen_level(gen) > to:
            images[gen] = ()
        elif gen[0] == KIND_TAU:
            images[gen] = tau_from_rho(gen[1], to).letters
    return Word(substitute(letters, images))


def aij_from_sigma(i: int, j: int) -> Word:
    """The band generator as a crossing word:
    s[j-1] ... s[i+1] s[i]^2 s[i+1]^-1 ... s[j-1]^-1."""
    if not 1 <= i < j:
        raise ValueError(f"A[{i},{j}] requires 1 <= i < j")
    head = [(gen_sigma(t), 1) for t in range(j - 1, i, -1)]
    tail = [(gen_sigma(t), -1) for t in range(i + 1, j)]
    return Word.from_letters(head + [(gen_sigma(i), 2)] + tail)


def full_twist_pure(n: int) -> Word:
    """The full twist written over the band generators:
    (A[1,2])(A[1,3] A[2,3]) ... (A[1,n] ... A[n-1,n]).

    This classical expansion of (s[1] ... s[n-1])^n is not trusted
    blindly: ``tests/test_homs.py`` checks its images (zero under
    iota_sharp, -1 in the quaternion group) and acceptance criterion 9
    the quaternion one; the verification suites do not check it yet.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    letters = [
        (gen_a(i, j), 1) for j in range(2, n + 1) for i in range(1, j)
    ]
    return Word.from_letters(letters)
