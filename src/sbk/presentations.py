"""Finite presentations of the three group families, built as data.

Families (parameters are strand counts ``>= 1`` throughout):

* ``pn-rp2``    -- the pure braid group of the projective plane on n
  strands, on the band generators ``A[i,j]`` and the surface generators
  ``tau[k]``;
* ``gamma-rp2`` -- the pure braid group of the projective plane with p
  punctures on m strands, on ``A[i,j]`` / ``rho[j]`` with strand labels
  ``p+1 .. m+p``;
* ``gamma-s2``  -- the pure braid group of the sphere with m punctures
  on n strands, on ``A[i,j]`` with strand labels ``m+1 .. m+n``.

A presentation holds its relations as a stream of ``(lhs, rhs)`` pairs of
reduced letter tuples, made anew on each pass and never held: its
relator count is known from the loop ranges of its stream, and both
:func:`sbk.abelian.exponent_matrix` and :meth:`Presentation.to_json`,
which writes each relator's text from its pair's letter texts, read the
pairs alone.  The relator word ``lhs * rhs^-1`` of a relation, which
equals the identity, is made by :func:`_relator` only where
:class:`Relators`, the presentation's read-only sequence of words, is
read.  Every band conjugation is stated once, as a row: :func:`artin_row`
writes the images of the level-j bands under one conjugator A[r,s]^sign
from the shared letters of that level.  Each level of a relation stream
makes one row per conjugator and reads it b by b, so the band relations of
all three families take its words as their right-hand sides; only one
level's rows are alive at a time, and none is kept.  :func:`conjugate`
adds the conjugations by and of the rho letters, which the rho relations
of ``gamma-rp2`` take, and :func:`conjugates` gives the images of one
level's letters under one actor, a band actor reading one row.  The
surface relation of both surfaces is stated once too
(:func:`surface_relation`); the relation streams and the action tables,
eliminated-letter expansions and kernel coinvariants of :mod:`sbk.combing`
and :mod:`sbk.abelian` share these statements.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator

from .words import (
    KIND_A,
    KIND_RHO,
    KIND_TAU,
    Frozen,
    Gen,
    Letter,
    Word,
    _LetterTexts,
    format_gen,
    format_letter,
    gen_a,
    gen_level,
    gen_rho,
    gen_tau,
    invert_letters,
)

FAMILY_PN_RP2 = "pn-rp2"
FAMILY_GAMMA_RP2 = "gamma-rp2"
FAMILY_GAMMA_S2 = "gamma-s2"
SURFACE_RP2 = "rp2"
SURFACE_S2 = "s2"


# a relation lhs = rhs, as its two reduced letter tuples
Relation = tuple


class Relators(Sequence):
    """The relator words of a presentation, as a read-only sequence over
    its relation stream: ``relations()`` returns a new iterator over the
    ``(lhs, rhs)`` pairs, and ``count`` is their number.  ``len`` makes no
    word; iterating makes each word as it goes; indexing, slicing, equality
    and hashing make the tuple of words once and keep it.  Neither the
    exponent matrix nor :meth:`Presentation.to_json` reads it: both read
    the pairs."""

    __slots__ = ("_relations", "_count", "_words")

    def __init__(self, relations: Callable[[], Iterator[Relation]], count: int):
        self._relations = relations
        self._count = count
        self._words: tuple[Word, ...] | None = None

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Word]:
        if self._words is not None:
            return iter(self._words)
        return (_relator(lhs, rhs) for lhs, rhs in self._relations())

    def _tuple(self) -> tuple[Word, ...]:
        if self._words is None:
            self._words = tuple(self)
        return self._words

    def __getitem__(self, index):
        return self._tuple()[index]

    def __eq__(self, other):
        if isinstance(other, Relators):
            return self._tuple() == other._tuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._tuple())


class Presentation(Frozen):
    """A finite presentation: ``relations()`` returns a new iterator over
    its relations as ``(lhs, rhs)`` pairs, ``count`` of them, and
    ``relators`` is their sequence of relator words."""

    _fields = ("family", "params", "generators", "relators")

    def __init__(self, family: str, params: tuple[tuple[str, int], ...],
                 generators: tuple[Gen, ...],
                 relations: Callable[[], Iterator[Relation]], count: int):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "relators", Relators(relations, count))

    def to_json(self) -> dict:
        # each relator's text is its pair's letter texts, those of lhs and
        # then the inverses of those of rhs backwards, as _relator joins
        # them; the texts of each distinct letter are made once per call
        texts, inverse_texts = _LetterTexts(), _InverseLetterTexts()
        return {
            "family": self.family,
            "params": dict(self.params),
            "generators": [format_gen(g) for g in self.generators],
            "relators": [
                " ".join([*map(texts.__getitem__, lhs),
                          *map(inverse_texts.__getitem__, reversed(rhs))])
                for lhs, rhs in self.relations()
            ],
        }


class _InverseLetterTexts(dict):
    """The text of the inverse of each letter looked up, made on its first
    lookup."""

    def __missing__(self, letter: Letter) -> str:
        text = self[letter] = format_letter(letter[0], -letter[1])
        return text


@lru_cache(maxsize=None)
def _band_letters(j: int) -> tuple[tuple[Letter, ...], tuple[Letter, ...],
                                   tuple[tuple[Letter, ...], ...]]:
    """``(A[t,j]^-1 ..., A[t,j] ..., (A[t,j],) ...)`` for t = 1 .. j-1, the
    letters and one-letter words of level j, made once per level: every
    C[i,j], its inverse and every band conjugation at level j are written
    from them."""
    # j is checked by the callers, so the generators are built as plain tuples
    plus = tuple([((KIND_A, t, j), 1) for t in range(1, j)])
    return (tuple([((KIND_A, t, j), -1) for t in range(1, j)]), plus,
            tuple([(letter,) for letter in plus]))


def artin_row(r: int, s: int, j: int, sign: int = 1) -> list[tuple[Letter, ...]]:
    """The words equal to ``A[r,s]^sign A[i,j] A[r,s]^-sign`` over the band
    generators A[.,j], for i = 1 .. j-1 in order, written out for both signs.

    The words are laid out by case: disjoint (A[i,j] itself) for i < r,
    lower at i = r, linked for r < i < s, upper at i = s, then disjoint
    again.  They are written from the shared letters of :func:`_band_letters`
    ``(j)``, the disjoint ones as its shared one-letter words, and a call
    neither reduces nor inverts: this is the one statement of the band
    conjugation, read once per conjugator and level."""
    if not 1 <= r < s < j:
        raise ValueError(f"invalid band conjugation of level {j} by A[{r},{s}]")
    minus, plus, singles = _band_letters(j)
    u, v, u_inv, v_inv = plus[r - 1], plus[s - 1], minus[r - 1], minus[s - 1]
    if sign > 0:
        lower = (v_inv, u, v)
        linked = [(v_inv, u_inv, v, u, b, u_inv, v_inv, u, v) for b in plus[r:s - 1]]
        upper = (v_inv, u_inv, v, u, v)
    else:
        lower = (u, v, u, v_inv, u_inv)
        linked = [(u, v, u_inv, v_inv, b, v, u, v_inv, u_inv) for b in plus[r:s - 1]]
        upper = (u, v, u_inv)
    return [*singles[:r - 1], lower, *linked, upper, *singles[s:]]


def cln_letters(i: int, j: int) -> tuple[Letter, ...]:
    """The reflected band element C[i,j] = H A[i,j] H^-1 over the generators
    A[.,j], H = A[j-1,j]^-1 ... A[i+1,j]^-1."""
    if not 1 <= i < j:
        raise ValueError(f"C[{i},{j}] requires 1 <= i < j")
    minus, plus, _ = _band_letters(j)
    return minus[:i - 1:-1] + plus[i - 1:]


def _cln_inverse(i: int, j: int) -> tuple[Letter, ...]:
    """C[i,j]^-1 = H A[i,j]^-1 H^-1, cut from the same letters as C[i,j]."""
    minus, plus, _ = _band_letters(j)
    return minus[:i - 1:-1] + minus[i - 1:i] + plus[i:]


def conjugate(x: Gen, sign: int, b: Gen) -> tuple[Letter, ...]:
    """A reduced word equal to ``x^sign b x^-sign`` by the defining
    relations, for a band or surface letter ``x`` below the level of the
    letter ``b``.  Every letter of the result lives at the level of ``b``.

    A band on a band is the word of :func:`artin_row`; the rho formulas
    are written here.  The ``sign == -1`` forms are the ``sign == 1``
    relations solved for the inverse conjugation; the pairing is certified
    by the action-table round-trip checks.
    """
    j = gen_level(b)
    if x[0] not in (KIND_A, KIND_RHO) or gen_level(x) >= j:
        raise ValueError(f"cannot conjugate {format_gen(b)} by {format_gen(x)}")
    if x[0] == KIND_A:
        if b[0] == KIND_RHO:
            return ((b, 1),)
        return artin_row(x[1], x[2], j, sign)[b[1] - 1]
    # x = rho[k] with k < j, so rho[j] and A[k,j] are built as plain tuples
    k = x[1]
    rj = (KIND_RHO, j)
    if b[0] == KIND_RHO:
        # rho_k rho_j rho_k^-1 = C[k,j] rho_j
        if sign > 0:
            return cln_letters(k, j) + ((rj, 1),)
        return ((rj, 1), ((KIND_A, k, j), 1))
    i = b[1]
    if sign > 0:
        if k < i:
            return ((b, 1),)
        if k == i:
            return ((rj, -1),) + _cln_inverse(i, j) + ((rj, 1),)
        return ((rj, -1),) + _cln_inverse(k, j) + ((rj, 1), (b, 1), (rj, -1)) \
            + cln_letters(k, j) + ((rj, 1),)
    if i < k:
        a = (KIND_A, k, j)
        return ((a, -1), (b, 1), (a, 1))
    if i == k:
        w = tuple(((KIND_A, t, j), 1) for t in range(k + 1, j))
        return w + ((rj, 1), (b, -1), (rj, -1)) + invert_letters(w)
    return ((b, 1),)


def conjugates(x: Gen, sign: int, letters: Iterable[Gen]) -> list[tuple[Letter, ...]]:
    """``conjugate(x, sign, b)`` for the letters b of one level, in order:
    for a band ``x`` the band letters read one :func:`artin_row`, made when
    the first of them is asked for, and every other letter goes through
    :func:`conjugate`."""
    if x[0] != KIND_A:
        return [conjugate(x, sign, b) for b in letters]
    images = []
    row = None
    for b in letters:
        if b[0] != KIND_A:
            images.append(conjugate(x, sign, b))
            continue
        if row is None:
            j = b[2]
            row = artin_row(x[1], x[2], j, sign)
        elif b[2] != j:
            raise ValueError(f"{format_gen(b)} is not at level {j}")
        images.append(row[b[1] - 1])
    return images


def surface_relation(j: int, top: int, surface: str = SURFACE_RP2
                     ) -> tuple[tuple[Letter, ...], tuple[Letter, ...]]:
    """The surface relation at level j as ``(lhs, rhs)``, on the projective
    plane rho[j] A[1,j] ... A[j-1,j] rho[j] = A[j,j+1] ... A[j,top], on the
    sphere A[1,j] ... A[j-1,j] = (A[j,j+1] ... A[j,top])^-1."""
    lhs = tuple((gen_a(i, j), 1) for i in range(1, j))
    rhs = tuple((gen_a(j, l), 1) for l in range(j + 1, top + 1))
    if surface == SURFACE_S2:
        return lhs, invert_letters(rhs)
    rj = gen_rho(j)
    return ((rj, 1),) + lhs + ((rj, 1),), rhs


def _relator(lhs: tuple[Letter, ...], rhs: tuple[Letter, ...]) -> Word:
    """The relator ``lhs rhs^-1`` of the relation ``lhs = rhs``, joined as it
    stands: every relation has reduced sides whose letters do not merge at
    the join, since the last letter of ``lhs`` and the last letter of ``rhs``
    are different generators."""
    return Word(lhs + invert_letters(rhs))


def _conjugation(x: Gen, b: Gen) -> Relation:
    """The relation ``x b x^-1 = conjugate(x, 1, b)``."""
    # x lies below the level of b and of every letter of the reduced image
    return ((x, 1), (b, 1), (x, -1)), conjugate(x, 1, b)


def _bands(low: int, top: int) -> list[tuple[int, int]]:
    """The index pairs (i, j) of the band generators at levels low..top."""
    return [(i, j) for j in range(low, top + 1) for i in range(1, j)]


def _artin_relations(low: int, top: int) -> Iterator[Relation]:
    """One band conjugation relation ``x b x^-1 = artin_row(r, s, j)[i - 1]``
    per ordered pair x = A[r,s], b = A[i,j] of the bands at levels low..top
    with s < j, b by b and x by x in band order: each level makes one row
    per conjugator x and reads it b by b."""
    # the letters x and x^-1 of every conjugator below the current level
    below: list[tuple[int, int, Letter, Letter]] = []
    for j in range(low, top + 1):
        rows = [(x, x_inv, artin_row(r, s, j)) for r, s, x, x_inv in below]
        minus, plus, _ = _band_letters(j)
        for i, b in enumerate(plus):
            for x, x_inv, row in rows:
                yield (x, b, x_inv), row[i]
        del rows  # before the next level's rows are made
        below += [(i, j, letter, minus[i - 1]) for i, letter in enumerate(plus, 1)]


def _artin_count(low: int, top: int) -> int:
    """The number of :func:`_artin_relations`: the j - 1 bands at level j,
    each by the C(j-1,2) - C(low-1,2) bands below it."""
    return sum((j - 1) * (math.comb(j - 1, 2) - math.comb(low - 1, 2))
               for j in range(low, top + 1))


def _pn_rp2_relations(n: int) -> Iterator[Relation]:
    yield from _artin_relations(2, n)
    # the letters tau_k^e, e = 1, -1, 2, and A[i,j]^e, e = +-1, made once per
    # call: the tau loops below read them and build no generator
    tau = [((KIND_TAU, k), 1) for k in range(n + 1)]
    tau_inv = [((KIND_TAU, k), -1) for k in range(n + 1)]
    tau_sq = [((KIND_TAU, k), 2) for k in range(n + 1)]
    bands = [_band_letters(j) for j in range(n + 1)]
    # tau_i tau_j tau_i^-1 = tau_j^-1 A[i,j]^-1 tau_j^2
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            yield (tau[i], tau[j], tau_inv[i]), (tau_inv[j], bands[j][0][i - 1], tau_sq[j])
    # tau_i^2 = A[1,i] ... A[i-1,i] A[i,i+1] ... A[i,n]
    for i in range(1, n + 1):
        yield (tau_sq[i],), bands[i][1] + tuple([bands[k][1][i - 1] for k in range(i + 1, n + 1)])
    # tau_k A[i,j] tau_k^-1, k != j
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            minus, plus, singles = bands[j]
            a, tj, tj_inv = plus[i - 1], tau[j], tau_inv[j]
            for k in range(1, n + 1):
                if k == j:
                    continue
                if k < i or k > j:
                    rhs = singles[i - 1]
                elif k == i:
                    rhs = (tj_inv, minus[i - 1], tj)
                else:  # i < k < j
                    akj, akj_inv = plus[k - 1], minus[k - 1]
                    rhs = (tj_inv, akj_inv, tj, akj_inv, a, akj, tj_inv, akj, tj)
                yield (tau[k], a, tau_inv[k]), rhs


def build_pn_rp2(n: int) -> Presentation:
    """Presentation of the n-strand pure braid group of the projective plane."""
    if n < 1:
        raise ValueError("n must be >= 1")
    generators = tuple(gen_a(i, j) for (i, j) in sorted(_bands(2, n))) + tuple(
        gen_tau(k) for k in range(1, n + 1)
    )
    # one term per loop of _pn_rp2_relations
    pairs = math.comb(n, 2)
    count = _artin_count(2, n) + pairs + n + pairs * (n - 1)
    return Presentation(FAMILY_PN_RP2, (("n", n),), generators,
                        partial(_pn_rp2_relations, n), count)


def _gamma_rp2_relations(m: int, p: int) -> Iterator[Relation]:
    top = m + p
    yield from _artin_relations(p + 1, top)
    bands = _bands(p + 1, top)
    # A[i,j] rho_k A[i,j]^-1 = rho_k for j < k
    for (i, j) in bands:
        for k in range(j + 1, top + 1):
            yield _conjugation(gen_a(i, j), gen_rho(k))
    # rho_k A[i,j] rho_k^-1 for p+1 <= k < j, with C expanded eagerly
    for (i, j) in bands:
        for k in range(p + 1, j):
            yield _conjugation(gen_rho(k), gen_a(i, j))
    # rho_k rho_j rho_k^-1 = C[k,j] rho_j for p+1 <= k < j
    for j in range(p + 1, top + 1):
        for k in range(p + 1, j):
            yield _conjugation(gen_rho(k), gen_rho(j))
    for j in range(p + 1, top + 1):
        yield surface_relation(j, top)


def build_gamma_rp2(m: int, p: int) -> Presentation:
    """Presentation of the m-strand pure braid group of the projective
    plane with p punctures, strand labels p+1 .. m+p."""
    if m < 1 or p < 1:
        raise ValueError("m and p must be >= 1")
    generators: list[Gen] = []
    for j in range(p + 1, m + p + 1):
        generators += [gen_a(i, j) for i in range(1, j)]
        generators.append(gen_rho(j))
    # one term per loop of _gamma_rp2_relations, whose two band-by-rho loops
    # together pair each band A[i,j] with the m - 1 letters rho[k], k != j
    bands = math.comb(m + p, 2) - math.comb(p, 2)
    count = _artin_count(p + 1, m + p) + bands * (m - 1) + math.comb(m, 2) + m
    return Presentation(FAMILY_GAMMA_RP2, (("m", m), ("p", p)), tuple(generators),
                        partial(_gamma_rp2_relations, m, p), count)


def _gamma_s2_relations(n: int, m: int) -> Iterator[Relation]:
    top = m + n
    yield from _artin_relations(m + 1, top)
    for j in range(m + 1, top + 1):
        yield surface_relation(j, top, SURFACE_S2)


def build_gamma_s2(n: int, m: int) -> Presentation:
    """Presentation of the n-strand pure braid group of the sphere with
    m punctures, strand labels m+1 .. m+n."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    generators = tuple(gen_a(i, j) for (i, j) in _bands(m + 1, m + n))
    # one term per loop of _gamma_s2_relations
    count = _artin_count(m + 1, m + n) + n
    return Presentation(FAMILY_GAMMA_S2, (("n", n), ("m", m)), generators,
                        partial(_gamma_s2_relations, n, m), count)
