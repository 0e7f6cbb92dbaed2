"""Artin combing for the two-puncture projective-plane braid groups.

The m-strand group with two punctures (strand labels 3 .. m+2) is an
iterated split extension by free groups: forgetting the last strand has
a free kernel of rank m+1 whose basis consists of the top-level letters

    A[1,m+2], ..., A[m,m+2], rho[m+2]

(the remaining top-level band generator ``A[m+1,m+2]`` is eliminated by
the surface relation), and the extension splits via an explicit section.
Iterating gives each element a unique *combed form*: a tuple of freely
reduced words (omega_{m+1}, ..., omega_2), one per kernel level, with

    w = omega_{m+1} * s(omega_m * s( ... s(omega_2) ... )).

The conjugation action of the lower-level generators on each kernel
basis is the defining conjugation relations read as automorphisms: one
:class:`ActionTable` per level, stored as ``maps[(x, sign)][b] -> image``,
whose rows are :func:`sbk.presentations.conjugate` with the eliminated
letter expanded, certified by :meth:`ActionTable.round_trip_failures`.
The table also derives, on first use, the kernel part of every
lower-level letter from the section (:func:`_section_parts`); it is the
only store of per-level combing data, and :func:`build_action_table`
caches one table per m.  The eliminated letters are expanded by solving
the surface relation (:func:`sbk.presentations.surface_relation`) for
them.  Every letterwise rewrite here (rows, kernel parts, eliminated
letters, the section, the per-level split) is :func:`sbk.words.substitute`.

:func:`comb` peels one kernel level at a time with a single right-to-left
pass per level.  The private :func:`_comb_letters` takes the table
factory as a plain argument, so the verification suite can comb against
a deliberately corrupted table.  Combed-form equality is the canonical
equality of this library; it depends on the chosen section, which is
fixed once and for all here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Mapping, Sequence

from .homs import (Q_ONE, check_gamma_letter, expand_even_crossings, iota_hat,
                   iota_sharp, q2_sharp)
from .presentations import (SURFACE_RP2, SURFACE_S2, cln_letters, conjugate,
                            surface_relation)
from .words import (
    KIND_A,
    KIND_RHO,
    AlphabetError,
    Gen,
    Letter,
    Word,
    concat_letters,
    format_gen,
    gen_a,
    gen_level,
    gen_rho,
    invert_letters,
    push_letter,
    reduce_letters,
    substitute,
)


def _solved_surface_relation(j: int, top: int, surface: str) -> tuple[Letter, ...]:
    """The surface relation at level j solved for A[j-1,j], reduced."""
    lhs, rhs = surface_relation(j, top, surface)
    cut = lhs.index((gen_a(j - 1, j), 1))
    return concat_letters(invert_letters(lhs[:cut]), rhs, invert_letters(lhs[cut + 1:]))


@lru_cache(maxsize=None)
def _top_band_images(top: int, surface: str) -> dict[Gen, tuple[Letter, ...]]:
    return {gen_a(top - 1, top): _solved_surface_relation(top, top, surface)}


def _expand_top_band(letters: Iterable[Letter], top: int,
                     surface: str = SURFACE_RP2) -> tuple[Letter, ...]:
    """Expand the eliminated top band generator A[top-1,top] by the surface
    relation at level top, solved for it."""
    return substitute(letters, _top_band_images(top, surface))


def expand_C(i: int, j: int, top: int) -> Word:
    """The reflected band element C[i,j], with the eliminated generator
    A[top-1,top] surface-expanded when j is the top level."""
    if not 1 <= i < j <= top:
        raise ValueError(f"expand_C requires 1 <= i < j <= top, got ({i},{j},{top})")
    letters = cln_letters(i, j)
    if j == top:
        letters = _expand_top_band(letters, top)
    return Word.from_letters(letters)


def conjugation_row(x: Gen, sign: int, b: Gen, top: int, punctures: int = 2,
                    surface: str = SURFACE_RP2) -> tuple[Letter, ...]:
    """The word over the top-level kernel basis equal to x^sign b x^-sign.

    ``x`` is a generator at a level below ``top`` (a band generator
    A[r,s] with s < top, or on the projective plane a surface generator
    rho[k] with punctures < k < top); ``b`` is a kernel basis letter
    (A[i,top] with i <= top-2, or rho[top]).  The row is the defining
    relation :func:`sbk.presentations.conjugate` with the eliminated
    letter A[top-1,top] expanded, freely reduced.
    """
    if x[0] == KIND_RHO and surface != SURFACE_RP2:
        raise AlphabetError("surface generators only exist on the projective plane")
    if x[0] not in (KIND_A, KIND_RHO):
        raise AlphabetError(f"unexpected conjugator {format_gen(x)}")
    if not punctures + 1 <= gen_level(x) < top:
        raise AlphabetError(f"conjugator {format_gen(x)} outside level range")
    return _expand_top_band(conjugate(x, sign, b), top, surface)


@dataclass(frozen=True)
class OmegaBasis:
    """Basis of the level-l free kernel: A[1,l+1], ..., A[l-1,l+1], rho[l+1]."""

    level: int
    elements: tuple[Gen, ...]


def kernel_basis(top: int, surface: str = SURFACE_RP2) -> tuple[Gen, ...]:
    """Free basis of the kernel of forgetting strand ``top``: A[1,top], ...,
    A[top-2,top], then rho[top] on the projective plane (the band letter
    A[top-1,top] is eliminated by the surface relation)."""
    gens = tuple(gen_a(i, top) for i in range(1, top - 1))
    if surface == SURFACE_RP2:
        gens += (gen_rho(top),)
    return gens


def omega_basis(level: int) -> OmegaBasis:
    if level < 2:
        raise ValueError("kernel levels start at 2")
    return OmegaBasis(level, kernel_basis(level + 1))


@dataclass(frozen=True)
class ActionTable:
    """Conjugation rows of the lower-level generating letters on the rank
    m+1 kernel basis at strand level m+2.

    ``maps[(x, sign)][b]`` is the reduced word x^sign b x^-sign over the
    basis, for every combing letter x below the top level and both signs.
    Basis letters themselves act by free conjugation and are not stored.
    """

    m: int
    level: int
    top: int
    basis: tuple[Gen, ...]
    maps: Mapping[tuple[Gen, int], Mapping[Gen, tuple[Letter, ...]]]

    def row(self, x: Gen, sign: int, b: Gen) -> tuple[Letter, ...]:
        return self.maps[(x, sign)][b]

    def round_trip_failures(self) -> list[tuple[Gen, int, Gen]]:
        """The rows (x, sign, b) that the opposite-sign row of x does not map
        back to b; empty when every pair x, x^-1 composes to the identity."""
        return [
            (x, sign, b)
            for (x, sign), row_map in self.maps.items()
            for b in self.basis
            if substitute(row_map[b], self.maps[(x, -sign)]) != ((b, 1),)
        ]

    @cached_property
    def kappa(self) -> dict[tuple[Gen, int], tuple[Letter, ...]]:
        """The kernel part g * s(r(g))^-1 of each lower-level letter g^sign,
        derived on first use from the section s(g) = left * g * right:
        phi_g(right^-1) * left^-1 for g, phi_{g^-1}(left) * right for g^-1."""
        kappa: dict[tuple[Gen, int], tuple[Letter, ...]] = {}
        for (g, sign), row_map in self.maps.items():
            left, right = (_expand_top_band(part, self.top)
                           for part in _section_parts(g, self.top))
            if sign > 0:
                kappa[(g, sign)] = concat_letters(
                    substitute(invert_letters(right), row_map), invert_letters(left))
            else:
                kappa[(g, sign)] = concat_letters(substitute(left, row_map), right)
        return kappa


def x_alphabet(m: int) -> tuple[Gen, ...]:
    """The combing generating set: A[i,j] with i <= j-2 and rho[j],
    for levels 3 <= j <= m+2."""
    gens: list[Gen] = []
    for j in range(3, m + 3):
        gens += [gen_a(i, j) for i in range(1, j - 1)]
        gens.append(gen_rho(j))
    return tuple(gens)


@lru_cache(maxsize=None)
def build_action_table(m: int) -> ActionTable:
    """Rows for every combing letter of levels 3 .. m+1, both signs, on
    the level-(m+1) kernel basis."""
    if m < 1:
        raise ValueError("m must be >= 1")
    top = m + 2
    basis = omega_basis(m + 1).elements
    maps: dict[tuple[Gen, int], dict[Gen, tuple[Letter, ...]]] = {}
    for x in x_alphabet(m):
        if gen_level(x) == top:
            continue
        for sign in (1, -1):
            maps[(x, sign)] = {
                b: conjugation_row(x, sign, b, top) for b in basis
            }
    return ActionTable(m=m, level=m + 1, top=top, basis=basis, maps=maps)


@lru_cache(maxsize=None)
def _x_images(m: int) -> dict[Gen, tuple[Letter, ...]]:
    """Every eliminated A[j-1,j] over the combing alphabet: the surface
    relation at level j solved for it, built from the top level down, so
    the eliminated A[j,j+1] it contains is already expanded."""
    images: dict[Gen, tuple[Letter, ...]] = {}
    for j in range(m + 2, 2, -1):
        images[gen_a(j - 1, j)] = substitute(
            _solved_surface_relation(j, m + 2, SURFACE_RP2), images)
    return images


def to_x_letters(m: int, letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """Rewrite a word over the full two-puncture alphabet into the combing
    alphabet (eliminated band generators A[j-1,j] are expanded)."""
    letters = tuple(letters)
    for gen, _ in letters:
        check_gamma_letter(gen, m, 2)
    return substitute(letters, _x_images(m))


def _section_parts(gen: Gen, top: int) -> tuple[tuple[Letter, ...], tuple[Letter, ...]]:
    """``(left, right)`` with s(gen) = left * gen * right, for a letter
    below the strand level ``top``; the one statement of the section:

        A[1,j] -> A[j,top] A[1,j] A[j,top]^-1
        A[2,j] -> A[j,top] A[2,j]
        A[i,j] -> A[i,j]            (3 <= i < j)
        rho[j] -> rho[j] A[j,top]^-1
    """
    a = gen_a(gen_level(gen), top)
    if gen[0] == KIND_RHO:
        return (), ((a, -1),)
    if gen[1] == 1:
        return ((a, 1),), ((a, -1),)
    if gen[1] == 2:
        return ((a, 1),), ()
    return (), ()


def section_s(m: int, w: Word) -> Word:
    """The explicit splitting of strand forgetting, applied letterwise
    (:func:`_section_parts`) to a word over the (m-1)-strand alphabet
    (levels 3 .. m+1)."""
    if m < 2:
        raise ValueError("the section needs m >= 2")
    images: dict[Gen, tuple[Letter, ...]] = {}
    for gen, _ in w.letters:
        if gen[0] not in (KIND_A, KIND_RHO) or not 3 <= gen_level(gen) <= m + 1:
            raise AlphabetError(
                f"{format_gen(gen)} outside the section domain (levels 3..{m + 1})")
        left, right = _section_parts(gen, m + 2)
        images[gen] = left + ((gen, 1),) + right
    return Word(substitute(w.letters, images))


def strip_last(m: int, w: Word) -> Word:
    """Forget the last strand: delete every letter at level m+2."""
    top = m + 2
    return Word.from_letters(
        (gen, exp) for gen, exp in w.letters if gen_level(gen) < top
    )


@dataclass(frozen=True)
class CombedForm:
    """The combed normal form: components (omega_{m+1}, ..., omega_2),
    top kernel level first.  All components empty means the identity."""

    m: int
    components: tuple[Word, ...]

    @property
    def is_identity(self) -> bool:
        return all(c.is_identity for c in self.components)

    def to_json(self) -> list[str]:
        return [str(c) for c in self.components]

    def __str__(self) -> str:
        return "(" + ", ".join(repr(str(c)) for c in self.components) + ")"


def _split_top(table: ActionTable, letters: Sequence[Letter]) -> tuple[Letter, ...]:
    """Kernel component of the word at the table's top level, by one
    right-to-left pass: kernel(g . q) = conj_g(kernel(q)) . kernel_g."""
    top = table.top
    maps = table.maps
    kappa_table = table.kappa
    kappa: tuple[Letter, ...] = ()
    for gen, exp in reversed(letters):
        if gen_level(gen) == top:
            # r(g) is trivial, so the letter just multiplies in on the left
            kappa = concat_letters(((gen, exp),), kappa)
        else:
            sign = 1 if exp > 0 else -1
            row_map = maps[(gen, sign)]
            tail = kappa_table[(gen, sign)]
            for _ in range(abs(exp)):
                kappa = concat_letters(substitute(kappa, row_map), tail)
    return kappa


def _comb_letters(m: int, letters: Sequence[Letter],
                  table_factory: Callable[[int], ActionTable]) -> CombedForm:
    """Comb a letter sequence with the action tables ``table_factory(k)``
    for k = m, ..., 2 (one per kernel level above the base)."""
    current = to_x_letters(m, letters)
    components: list[Word] = []
    for top in range(m + 2, 3, -1):
        components.append(Word(_split_top(table_factory(top - 2), current)))
        current = reduce_letters(
            (gen, exp) for gen, exp in current if gen_level(gen) < top
        )
    components.append(Word(current))
    return CombedForm(m, tuple(components))


def comb(m: int, w: Word) -> CombedForm:
    """The combed normal form of a word over the m-strand, two-puncture
    alphabet (eliminated band generators are accepted and expanded)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _comb_letters(m, w.letters, build_action_table)


def is_trivial_gamma(m: int, w: Word) -> bool:
    """Word problem for the m-strand, two-puncture group."""
    return comb(m, w).is_identity


def ln_membership(n: int, w: Word) -> bool:
    """Membership of a two-puncture word in the torsion-free complement:
    the mod-2 image on the last n-2 coordinates must vanish."""
    if n < 3:
        raise ValueError("n must be >= 3")
    return not any(iota_hat(n - 2, w))


def ln_word_problem(n: int, w: Word) -> bool:
    """Word problem restricted to members of the torsion-free complement."""
    if not ln_membership(n, w):
        raise ValueError("word is not a member (nonzero mod-2 image)")
    return is_trivial_gamma(n - 2, w)


def kn_membership(n: int, w: Word) -> bool:
    """Membership in the commutator subgroup of the n-strand group, i.e.
    the kernel of the mod-2 exponent map."""
    return not any(iota_sharp(n, w))


def kn_decompose(n: int, u: Word, eps: int) -> tuple[CombedForm, int]:
    """Decompose an element of the commutator subgroup presented as a pair
    (u, eps) encoding u * (full twist)^(2 eps): the combed form of u plus
    the central mod-2 exponent.  Requires u in the torsion-free part."""
    if eps not in (0, 1):
        raise ValueError("eps must be 0 or 1")
    if not ln_membership(n, u):
        raise ValueError("u is not in the torsion-free part")
    return comb(n - 2, u), eps


class Verdict(enum.Enum):
    TRIVIAL = "trivial"
    NONTRIVIAL = "nontrivial"
    UNKNOWN = "unknown"


def pn_triviality(n: int, w: Word) -> Verdict:
    """Three-valued triviality test for pure words of the n-strand group.

    Nontrivial if a computed invariant (mod-2 image, quaternion image) is
    nontrivial; decided exactly for n <= 2 and for words over the
    two-puncture alphabet (via the combed form); otherwise unknown.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    w = expand_even_crossings(w)
    if w.is_identity:
        return Verdict.TRIVIAL
    if any(iota_sharp(n, w)):
        return Verdict.NONTRIVIAL
    if n == 1:
        return Verdict.TRIVIAL
    if q2_sharp(n, w) != Q_ONE:
        return Verdict.NONTRIVIAL
    if n == 2:
        return Verdict.TRIVIAL
    if all(
        gen[0] in (KIND_A, KIND_RHO) and 3 <= gen_level(gen) <= n
        for gen, _ in w.letters
    ):
        # words over the two-puncture alphabet: the combed form decides
        return Verdict.TRIVIAL if comb(n - 2, w).is_identity else Verdict.NONTRIVIAL
    return Verdict.UNKNOWN


def ln_generators(n: int) -> tuple[Word, ...]:
    """Generators of the torsion-free complement inside the (n-2)-strand
    two-puncture group: A[i,j], rho[j] A[i,j] rho[j]^-1 and rho[j]^2."""
    if n < 3:
        raise ValueError("n must be >= 3")
    out: list[Word] = []
    for j in range(3, n + 1):
        rj = gen_rho(j)
        for i in range(1, j - 1):
            a = gen_a(i, j)
            out.append(Word.of(a))
            out.append(Word.from_letters(((rj, 1), (a, 1), (rj, -1))))
        out.append(Word.of(rj, 2))
    return tuple(out)


def keromega_basis(l: int) -> tuple[Word, ...]:
    """Basis of the index-2 kernel of the level-l free factor: for each
    band letter A[k,l+1] both it and its rho-conjugate, then rho[l+1]^2;
    a free basis of rank 2l-1."""
    if l < 2:
        raise ValueError("kernel levels start at 2")
    top = l + 1
    r = gen_rho(top)
    out: list[Word] = []
    for k in range(1, l):
        a = gen_a(k, top)
        out.append(Word.of(a))
        out.append(Word.from_letters(((r, 1), (a, 1), (r, -1))))
    out.append(Word.of(r, 2))
    return tuple(out)


def rewrite_kernel_letters(l: int, letters: Iterable[Letter]) -> tuple[tuple[int, int], ...]:
    """Rewrite a word over the level-l kernel basis with even rho-exponent
    into the rank 2l-1 basis of :func:`keromega_basis`, returned as
    (basis index, exponent) pairs.

    Index layout: A[k,l+1] -> 2(k-1), its rho-conjugate -> 2(k-1)+1, and
    rho[l+1]^2 -> 2l-2.  Standard coset rewriting over the transversal
    {1, rho}.
    """
    top = l + 1
    rho_top = gen_rho(top)
    square_idx = 2 * l - 2
    out: list[tuple[int, int]] = []
    state = 0
    for gen, exp in letters:
        if gen == rho_top:
            sign = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                if sign > 0:
                    if state == 0:
                        state = 1
                    else:
                        push_letter(out, square_idx, 1)
                        state = 0
                else:
                    if state == 0:
                        push_letter(out, square_idx, -1)
                        state = 1
                    else:
                        state = 0
        elif gen[0] == KIND_A and gen[2] == top and gen[1] <= l - 1:
            push_letter(out, 2 * (gen[1] - 1) + state, exp)
        else:
            raise AlphabetError(f"{format_gen(gen)} is not a level-{l} kernel letter")
    if state:
        raise ValueError("word has odd rho-exponent, not in the kernel")
    return tuple(out)


def gamma_tower_ranks(n: int) -> list[int]:
    """Free-kernel ranks of the combing tower of the (n-2)-strand
    two-puncture group, counted from the level bases: [n-1, n-2, ..., 2]."""
    if n < 3:
        raise ValueError("n must be >= 3")
    return [len(omega_basis(l).elements) for l in range(n - 1, 1, -1)]


def ln_tower_ranks(n: int) -> list[int]:
    """Free-kernel ranks of the tower of the torsion-free complement,
    counted from the index-2 kernel bases: [2n-3, 2n-5, ..., 3]."""
    if n < 3:
        raise ValueError("n must be >= 3")
    return [len(keromega_basis(l)) for l in range(n - 1, 1, -1)]


def sphere_tower_ranks(n: int) -> list[int]:
    """Free-kernel ranks of the tower of the (n-3)-strand three-puncture
    sphere group, counted from the kernel bases at strand levels n .. 4:
    [n-2, ..., 2]."""
    if n < 4:
        raise ValueError("n must be >= 4")
    return [len(kernel_basis(top, SURFACE_S2)) for top in range(n, 3, -1)]
