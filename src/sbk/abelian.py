"""Exact integer linear algebra for abelianization and coinvariants.

Everything runs over Python's arbitrary-precision integers; there is no
floating point anywhere.  The one convention, fixed here once: relation
matrices have generators indexing rows and relators indexing columns,
and :func:`snf` reports the invariants of the cokernel Z^rows / colspace.

On top of Smith normal form this module computes presentation
abelianizations, the coinvariant quotient Delta(K) of a free group K
under a generating action (the K-contribution to the abelianization of
a split extension K x| H), iterated-tower abelianizations, coinvariants
of the strand-forgetting kernels, and the derived counting/dimension
reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import combing
from .combing import (
    SURFACE_RP2,
    SURFACE_S2,
    build_action_table,
    conjugation_row,
    kernel_basis,
    keromega_basis,
    omega_basis,
    rewrite_kernel_letters,
    x_alphabet,
)
from .presentations import Presentation
from .words import Gen, Letter, Word, gen_a, gen_rho, substitute

IndexedWord = tuple  # ((basis index, exponent), ...)


@dataclass
class IntMatrix:
    """Dense integer matrix; rows x cols, exact entries."""

    rows: int
    cols: int
    entries: list[list[int]]

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, [[0] * cols for _ in range(rows)])

    @staticmethod
    def from_columns(rows: int, columns: Sequence[Sequence[int]]) -> "IntMatrix":
        m = IntMatrix.zeros(rows, len(columns))
        for c, col in enumerate(columns):
            if len(col) != rows:
                raise ValueError("column length mismatch")
            for r, v in enumerate(col):
                m.entries[r][c] = v
        return m


@dataclass(frozen=True)
class AbelianInvariants:
    """A finitely generated abelian group: free rank plus the invariant
    factors d1 | d2 | ... (each >= 2, no units kept)."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion coefficients must form a divisor chain")
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion coefficients must be >= 2")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def mod2_rank(self) -> int:
        """Rank of the tensor product with Z/2."""
        return self.free_rank + sum(1 for d in self.torsion if d % 2 == 0)

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts += [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def smith_diagonal(matrix: IntMatrix) -> list[int]:
    """Nonnegative diagonal of the Smith normal form, as a divisor chain.

    Classical elimination with minimal-absolute-value pivoting to keep
    entry growth in check; unimodular row and column operations only.
    """
    a = [row[:] for row in matrix.entries]
    rows, cols = matrix.rows, matrix.cols
    diag: list[int] = []
    t = 0
    while t < min(rows, cols):
        # locate the nonzero entry of least absolute value in the submatrix
        pr = pc = -1
        best = 0
        for r in range(t, rows):
            row = a[r]
            for c in range(t, cols):
                v = row[c]
                if v and (best == 0 or abs(v) < best):
                    best = abs(v)
                    pr, pc = r, c
                    if best == 1:
                        break
            if best == 1:
                break
        if pr < 0:
            break
        a[t], a[pr] = a[pr], a[t]
        if pc != t:
            for row in a:
                row[t], row[pc] = row[pc], row[t]
        while True:
            pivot = a[t][t]
            done = True
            for r in range(t + 1, rows):
                q = a[r][t] // pivot
                if q:
                    ar, at = a[r], a[t]
                    for c in range(t, cols):
                        ar[c] -= q * at[c]
                if a[r][t]:
                    a[t], a[r] = a[r], a[t]
                    done = False
                    break
            if not done:
                continue
            for c in range(t + 1, cols):
                q = a[t][c] // pivot
                if q:
                    for r in range(t, rows):
                        a[r][c] -= q * a[r][t]
                if a[t][c]:
                    for row in a:
                        row[t], row[c] = row[c], row[t]
                    done = False
                    break
            if done:
                break
        diag.append(abs(a[t][t]))
        t += 1
    # enforce the divisibility chain d1 | d2 | ...
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            if diag[j] % diag[i]:
                g = math.gcd(diag[i], diag[j])
                diag[j] = diag[i] * diag[j] // g
                diag[i] = g
    return diag


def snf(matrix: IntMatrix) -> AbelianInvariants:
    """Invariants of the cokernel Z^rows / column-space(matrix)."""
    diag = [d for d in smith_diagonal(matrix) if d]
    return AbelianInvariants(
        free_rank=matrix.rows - len(diag),
        torsion=tuple(d for d in diag if d >= 2),
    )


def exponent_matrix(pres: Presentation) -> IntMatrix:
    """Exponent sums of the relators: generators index rows, relators
    index columns."""
    index = {g: r for r, g in enumerate(pres.generators)}
    m = IntMatrix.zeros(len(pres.generators), len(pres.relators))
    for c, rel in enumerate(pres.relators):
        for gen, exp in rel.letters:
            m.entries[index[gen]][c] += exp
    return m


def abelianize_presentation(pres: Presentation) -> AbelianInvariants:
    return snf(exponent_matrix(pres))


def delta_coinvariants(rank: int,
                       images: Sequence[Sequence[IndexedWord]]) -> AbelianInvariants:
    """Coinvariants Delta(K) of a rank ``rank`` free group under a
    generating action, from the basis images of each acting generator.

    Image words use letters (basis index, exponent).  The result is the
    cokernel of the matrix with one column ab(phi(h)(b)) - e_b per acting
    generator h and basis element b.
    """
    columns: list[list[int]] = []
    for actor_images in images:
        if len(actor_images) != rank:
            raise ValueError("each actor must provide one image per basis element")
        for b, image in enumerate(actor_images):
            col = [0] * rank
            for idx, exp in image:
                if not 0 <= idx < rank:
                    raise ValueError(f"image letter index {idx} outside basis")
                col[idx] += exp
            col[b] -= 1
            columns.append(col)
    return snf(IntMatrix.from_columns(rank, columns))


def direct_sum(parts: Iterable[AbelianInvariants]) -> AbelianInvariants:
    """Direct sum, with the torsion recombined into a divisor chain."""
    free = 0
    torsion: list[int] = []
    for part in parts:
        free += part.free_rank
        torsion.extend(part.torsion)
    if not torsion:
        return AbelianInvariants(free, ())
    diag = IntMatrix.zeros(len(torsion), len(torsion))
    for i, d in enumerate(torsion):
        diag.entries[i][i] = d
    recombined = snf(diag)
    return AbelianInvariants(free + recombined.free_rank, recombined.torsion)


def tower_abelianization(levels: Sequence[tuple[int, Sequence[Sequence[IndexedWord]]]]
                         ) -> AbelianInvariants:
    """Abelianization of an iterated split extension of free groups, given
    top level first as (rank, basis images of the acting generators); the
    base level carries an empty action."""
    return direct_sum(delta_coinvariants(rank, images) for rank, images in levels)


def _indexed(letters: Iterable[Letter], index: dict[Gen, int]) -> IndexedWord:
    out = []
    for gen, exp in letters:
        out.append((index[gen], exp))
    return tuple(out)


def omega_action(l: int) -> tuple[int, list[list[IndexedWord]]]:
    """The conjugation action of the combing letters of levels 3..l on the
    level-l kernel basis, as indexed basis-image words."""
    if l < 2:
        raise ValueError("kernel levels start at 2")
    if l == 2:
        return 2, []
    basis = omega_basis(l).elements
    index = {g: i for i, g in enumerate(basis)}
    table = build_action_table(l - 1)
    images = []
    for x in x_alphabet(l - 2):
        images.append([_indexed(table.row(x, 1, b), index) for b in basis])
    return l, images


def omega_delta(l: int) -> AbelianInvariants:
    """Delta of the level-l free kernel under the lower-level action."""
    rank, images = omega_action(l)
    return delta_coinvariants(rank, images)


def keromega_action(l: int) -> tuple[int, list[list[IndexedWord]]]:
    """The action on the rank 2l-1 index-2 kernel basis at level l, by the
    generators of the lower torsion-free part, rewritten in that basis."""
    if l < 2:
        raise ValueError("kernel levels start at 2")
    if l == 2:
        return 3, []
    maps = build_action_table(l - 1).maps

    def conj(actor: Word, letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
        for gen, exp in reversed(actor.letters):
            sign = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                letters = substitute(letters, maps[(gen, sign)])
        return letters

    basis_words = keromega_basis(l)
    rank = 2 * l - 1
    images = []
    for actor in combing.ln_generators(l):
        actor_images = []
        for bw in basis_words:
            conjugated = conj(actor, bw.letters)
            actor_images.append(rewrite_kernel_letters(l, conjugated))
        images.append(actor_images)
    return rank, images


def keromega_delta(l: int) -> AbelianInvariants:
    """Delta of the rank 2l-1 kernel factor of the torsion-free tower."""
    rank, images = keromega_action(l)
    return delta_coinvariants(rank, images)


def gamma_tower_levels(m: int) -> list[tuple[int, list[list[IndexedWord]]]]:
    """Tower data for the m-strand two-puncture group, top level first."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return [omega_action(l) for l in range(m + 1, 1, -1)]


def ln_tower_levels(n: int) -> list[tuple[int, list[list[IndexedWord]]]]:
    """Tower data for the torsion-free complement at strand count n."""
    if n < 3:
        raise ValueError("n must be >= 3")
    return [keromega_action(l) for l in range(n - 1, 1, -1)]


def gamma_tower_abelianization(m: int) -> AbelianInvariants:
    return tower_abelianization(gamma_tower_levels(m))


def ln_tower_abelianization(n: int) -> AbelianInvariants:
    return tower_abelianization(ln_tower_levels(n))


def fn_kernel_coinvariants(surface: str, m: int, l: int) -> AbelianInvariants:
    """Coinvariants of the free kernel of forgetting the last strand,
    for the (m+1)-strand group with l punctures over the given surface.

    The kernel basis consists of the top-level letters (with the
    eliminated band generator removed by the surface relation); the
    quotient is by the subgroup generated by alpha(x) - x over all
    generators alpha of the m-strand group.
    """
    if surface not in (SURFACE_RP2, SURFACE_S2):
        raise ValueError("surface must be 'rp2' or 's2'")
    if m < 1:
        raise ValueError("m must be >= 1")
    if surface == SURFACE_RP2 and l < 2:
        raise ValueError("the projective plane case needs l >= 2")
    if surface == SURFACE_S2 and l < 3:
        raise ValueError("the sphere case needs l >= 3")
    top = m + l + 1
    basis = kernel_basis(top, surface)
    index = {g: i for i, g in enumerate(basis)}
    actors: list[Gen] = []
    for s in range(l + 1, top):
        actors += [gen_a(r, s) for r in range(1, s)]
        if surface == SURFACE_RP2:
            actors.append(gen_rho(s))
    columns: list[list[int]] = []
    for x in actors:
        for b in basis:
            image = conjugation_row(x, 1, b, top, l, surface)
            col = [0] * len(basis)
            for gen, exp in image:
                col[index[gen]] += exp
            col[index[b]] -= 1
            columns.append(col)
    return snf(IntMatrix.from_columns(len(basis), columns))


def subgroup_count_exponent(n: int) -> int:
    """log2 of the number of torsion-free complements in the commutator
    subgroup: the mod-2 rank of the tower abelianization of the
    torsion-free part (computed, not the closed formula)."""
    if n < 3:
        raise ValueError("n must be >= 3")
    return ln_tower_abelianization(n).mod2_rank()


def vcd_report(surface: str, n: int) -> int:
    """Virtual cohomological dimension of the n-strand braid groups of the
    surface, reported as the length of the corresponding free tower."""
    if surface == SURFACE_RP2:
        if n < 3:
            raise ValueError("the projective plane report needs n >= 3")
        return len(combing.gamma_tower_ranks(n))
    if surface == SURFACE_S2:
        if n < 4:
            raise ValueError("the sphere report needs n >= 4")
        return len(combing.sphere_tower_ranks(n))
    raise ValueError("surface must be 'rp2' or 's2'")
