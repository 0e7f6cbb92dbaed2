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

Relations with right-hand sides are stored as single relator words
``lhs * rhs^-1``, canonically reduced, with the convention that a
relator equals the identity.  Every conjugation relation (the band
relations of all three families and the rho relations of ``gamma-rp2``)
is stated once, in :func:`conjugate`, and so is the surface relation of
both surfaces (:func:`surface_relation`); the relator builders and the
action tables and eliminated-letter expansions of :mod:`sbk.combing` share both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .words import (
    KIND_A,
    KIND_RHO,
    Gen,
    Letter,
    Word,
    concat_letters,
    format_gen,
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


@dataclass(frozen=True)
class Presentation:
    family: str
    params: tuple[tuple[str, int], ...]
    generators: tuple[Gen, ...]
    relators: tuple[Word, ...]

    def param(self, name: str) -> int:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "params": dict(self.params),
            "generators": [format_gen(g) for g in self.generators],
            "relators": [str(r) for r in self.relators],
        }


def artin_case(r: int, s: int, i: int, j: int) -> str:
    """Classify the conjugation of A[i,j] by A[r,s]; requires s < j.

    The four shapes: "disjoint" (the index pairs do not interleave),
    "lower" (i = r), "upper" (i = s) and "linked" (r < i < s).
    """
    if not (1 <= r < s and 1 <= i < j and s < j):
        raise ValueError(f"invalid band conjugation indices ({r},{s}),({i},{j})")
    if i < r or i > s:
        return "disjoint"
    if i == r:
        return "lower"
    if i == s:
        return "upper"
    return "linked"


def artin_conjugate(r: int, s: int, i: int, j: int) -> tuple[Letter, ...]:
    """The word equal to ``A[r,s] A[i,j] A[r,s]^-1`` over band generators."""
    case = artin_case(r, s, i, j)
    b = gen_a(i, j)
    if case == "disjoint":
        return ((b, 1),)
    u = gen_a(r, j)
    v = gen_a(s, j)
    if case == "lower":
        return ((v, -1), (b, 1), (v, 1))
    if case == "upper":
        return ((v, -1), (u, -1), (v, 1), (u, 1), (v, 1))
    return (
        (v, -1), (u, -1), (v, 1), (u, 1),
        (b, 1),
        (u, -1), (v, -1), (u, 1), (v, 1),
    )


def artin_conjugate_inv(r: int, s: int, i: int, j: int) -> tuple[Letter, ...]:
    """The word equal to ``A[r,s]^-1 A[i,j] A[r,s]``.

    These closed forms are the inverses of :func:`artin_conjugate`; the
    pairing is certified by the action-table round-trip checks.
    """
    case = artin_case(r, s, i, j)
    b = gen_a(i, j)
    if case == "disjoint":
        return ((b, 1),)
    u = gen_a(r, j)
    v = gen_a(s, j)
    if case == "lower":
        return ((u, 1), (v, 1), (u, 1), (v, -1), (u, -1))
    if case == "upper":
        return ((u, 1), (v, 1), (u, -1))
    return (
        (u, 1), (v, 1), (u, -1), (v, -1),
        (b, 1),
        (v, 1), (u, 1), (v, -1), (u, -1),
    )


def cln_letters(i: int, j: int) -> tuple[Letter, ...]:
    """The reflected band element C[i,j] over the generators A[.,j]."""
    if not 1 <= i < j:
        raise ValueError(f"C[{i},{j}] requires 1 <= i < j")
    head = [(gen_a(t, j), -1) for t in range(j - 1, i, -1)]
    tail = [(gen_a(t, j), 1) for t in range(i + 1, j)]
    return tuple(head + [(gen_a(i, j), 1)] + tail)


def conjugate(x: Gen, sign: int, b: Gen) -> tuple[Letter, ...]:
    """A word equal to ``x^sign b x^-sign`` by the defining relations, for a
    band or surface letter ``x`` below the level of the letter ``b``.

    The ``sign == -1`` forms are the ``sign == 1`` relations solved for
    the inverse conjugation; the pairing is certified by the action-table
    round-trip checks.  The result is an unreduced concatenation.
    """
    j = gen_level(b)
    if x[0] not in (KIND_A, KIND_RHO) or gen_level(x) >= j:
        raise ValueError(f"cannot conjugate {format_gen(b)} by {format_gen(x)}")
    if x[0] == KIND_A:
        if b[0] == KIND_RHO:
            return ((b, 1),)
        if sign > 0:
            return artin_conjugate(x[1], x[2], b[1], j)
        return artin_conjugate_inv(x[1], x[2], b[1], j)
    k = x[1]
    rj = gen_rho(j)
    if b[0] == KIND_RHO:
        # rho_k rho_j rho_k^-1 = C[k,j] rho_j
        if sign > 0:
            return cln_letters(k, j) + ((rj, 1),)
        return ((rj, 1), (gen_a(k, j), 1))
    i = b[1]
    if sign > 0:
        if k < i:
            return ((b, 1),)
        if k == i:
            return ((rj, -1),) + invert_letters(cln_letters(i, j)) + ((rj, 1),)
        c = cln_letters(k, j)
        return ((rj, -1),) + invert_letters(c) + ((rj, 1), (b, 1), (rj, -1)) + c + ((rj, 1),)
    if i < k:
        a = gen_a(k, j)
        return ((a, -1), (b, 1), (a, 1))
    if i == k:
        w = tuple((gen_a(t, j), 1) for t in range(k + 1, j))
        return w + ((rj, 1), (b, -1), (rj, -1)) + invert_letters(w)
    return ((b, 1),)


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


def _relator(*parts: Sequence[Letter]) -> Word:
    return Word(concat_letters(*parts))


def _conjugation_relator(x: Gen, b: Gen) -> Word:
    return _relator(((x, 1), (b, 1), (x, -1)), invert_letters(conjugate(x, 1, b)))


def _artin_relators(bands: Sequence[tuple[int, int]]) -> list[Word]:
    """One band conjugation relator per ordered pair (r,s), (i,j) with s < j."""
    return [_conjugation_relator(gen_a(r, s), gen_a(i, j))
            for (i, j) in bands for (r, s) in bands if s < j]


def build_pn_rp2(n: int) -> Presentation:
    """Presentation of the n-strand pure braid group of the projective plane."""
    if n < 1:
        raise ValueError("n must be >= 1")
    bands = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
    generators = tuple(gen_a(i, j) for (i, j) in sorted(bands)) + tuple(
        gen_tau(k) for k in range(1, n + 1)
    )
    relators: list[Word] = []
    relators += _artin_relators(bands)
    # tau_i tau_j tau_i^-1 = tau_j^-1 A[i,j]^-1 tau_j^2
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            ti, tj, a = gen_tau(i), gen_tau(j), gen_a(i, j)
            relators.append(_relator(
                ((ti, 1), (tj, 1), (ti, -1)),
                ((tj, -2), (a, 1), (tj, 1)),
            ))
    # tau_i^2 = A[1,i] ... A[i-1,i] A[i,i+1] ... A[i,n]
    for i in range(1, n + 1):
        rhs = [(gen_a(k, i), 1) for k in range(1, i)]
        rhs += [(gen_a(i, k), 1) for k in range(i + 1, n + 1)]
        relators.append(_relator(((gen_tau(i), 2),), invert_letters(rhs)))
    # tau_k A[i,j] tau_k^-1, k != j
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            a, tj = gen_a(i, j), gen_tau(j)
            for k in range(1, n + 1):
                if k == j:
                    continue
                if k < i or k > j:
                    rhs = ((a, 1),)
                elif k == i:
                    rhs = ((tj, -1), (a, -1), (tj, 1))
                else:  # i < k < j
                    akj = gen_a(k, j)
                    rhs = (
                        (tj, -1), (akj, -1), (tj, 1), (akj, -1),
                        (a, 1),
                        (akj, 1), (tj, -1), (akj, 1), (tj, 1),
                    )
                relators.append(_relator(
                    ((gen_tau(k), 1), (a, 1), (gen_tau(k), -1)),
                    invert_letters(rhs),
                ))
    return Presentation(
        family=FAMILY_PN_RP2,
        params=(("n", n),),
        generators=generators,
        relators=tuple(relators),
    )


def build_gamma_rp2(m: int, p: int) -> Presentation:
    """Presentation of the m-strand pure braid group of the projective
    plane with p punctures, strand labels p+1 .. m+p."""
    if m < 1 or p < 1:
        raise ValueError("m and p must be >= 1")
    top = m + p
    bands = [(i, j) for j in range(p + 1, top + 1) for i in range(1, j)]
    generators: list[Gen] = []
    for j in range(p + 1, top + 1):
        generators += [gen_a(i, j) for i in range(1, j)]
        generators.append(gen_rho(j))
    relators: list[Word] = []
    relators += _artin_relators(bands)
    # A[i,j] rho_k A[i,j]^-1 = rho_k for j < k
    relators += [_conjugation_relator(gen_a(i, j), gen_rho(k))
                 for (i, j) in bands for k in range(j + 1, top + 1)]
    # rho_k A[i,j] rho_k^-1 for p+1 <= k < j, with C expanded eagerly
    relators += [_conjugation_relator(gen_rho(k), gen_a(i, j))
                 for (i, j) in bands for k in range(p + 1, j)]
    # rho_k rho_j rho_k^-1 = C[k,j] rho_j for p+1 <= k < j
    relators += [_conjugation_relator(gen_rho(k), gen_rho(j))
                 for j in range(p + 1, top + 1) for k in range(p + 1, j)]
    for j in range(p + 1, top + 1):
        lhs, rhs = surface_relation(j, top)
        relators.append(_relator(lhs, invert_letters(rhs)))
    return Presentation(
        family=FAMILY_GAMMA_RP2,
        params=(("m", m), ("p", p)),
        generators=tuple(generators),
        relators=tuple(relators),
    )


def build_gamma_s2(n: int, m: int) -> Presentation:
    """Presentation of the n-strand pure braid group of the sphere with
    m punctures, strand labels m+1 .. m+n."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    top = m + n
    bands = [(i, j) for j in range(m + 1, top + 1) for i in range(1, j)]
    generators = tuple(gen_a(i, j) for (i, j) in bands)
    relators: list[Word] = []
    relators += _artin_relators(bands)
    for j in range(m + 1, top + 1):
        lhs, rhs = surface_relation(j, top, SURFACE_S2)
        relators.append(_relator(lhs, invert_letters(rhs)))
    return Presentation(
        family=FAMILY_GAMMA_S2,
        params=(("n", n), ("m", m)),
        generators=generators,
        relators=tuple(relators),
    )


@dataclass(frozen=True)
class HomSpec:
    """A homomorphism out of a presented group, for relator checking."""

    name: str
    apply: Callable[[Word], Any]
    is_identity: Callable[[Any], bool]
    render: Callable[[Any], str] = field(default=str)


@dataclass(frozen=True)
class RelatorReport:
    presentation: Presentation
    hom_name: str
    cases: tuple[tuple[str, str, bool], ...]  # (relator, image, passed)

    @property
    def passed(self) -> bool:
        return all(ok for _, _, ok in self.cases)


def verify_relators(pres: Presentation, hom: HomSpec) -> RelatorReport:
    """Evaluate the homomorphism on every relator; passes iff all images
    are the identity of the target."""
    gens = set(pres.generators)
    cases = []
    for rel in pres.relators:
        for gen, _ in rel.letters:
            if gen not in gens:
                raise AlphabetMismatch(
                    f"relator letter {format_gen(gen)} outside the generator list"
                )
        image = hom.apply(rel)
        cases.append((str(rel), hom.render(image), hom.is_identity(image)))
    return RelatorReport(pres, hom.name, tuple(cases))


class AlphabetMismatch(ValueError):
    pass
