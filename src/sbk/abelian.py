"""Exact integer linear algebra for abelianization and coinvariants.

Everything runs over Python's arbitrary-precision integers; there is no
floating point anywhere.  The one convention, fixed here once: relation
matrices have generators indexing rows and relators indexing columns,
and :func:`snf` reports the invariants of the cokernel Z^rows / colspace.
An :class:`IntMatrix` stores only its columns, each as the tuple of its
nonzero (row, value) pairs: :func:`exponent_matrix` builds one such column
per relation straight from its ``(lhs, rhs)`` pair, as ab(lhs) - ab(rhs),
and makes no relator word; the dense rows ``entries`` are derived on
demand.  The abelian path reads exponent sums only and reduces nothing:
ab(P c P^-1) = ab(c), so each side of a relation is read past its
conjugator P, and a relation whose sides have equal cores, as the band
conjugations do, gives the zero column without a sum; ab is linear, so
the strand-forgetting coinvariants add up the letters of the defining
relations, read once per generator as the images of the kernel basis
(:func:`~sbk.presentations.conjugates`), the eliminated letter by the sums
of its image, and build no row word.  :func:`snf` and
:func:`delta_coinvariants` feed one elimination, :func:`_diagonal`, sparse
columns in that format.  The column
space does not change when a column is negated, when a copy of another
column is dropped or when a zero column is dropped, so the elimination
runs on the distinct nonzero columns up to sign only: the exponent matrix
of pn-rp2 has n^2 of them, 484 among the 30,129 relators at n = 22.  These
columns are short and mostly units, so it first pivots on their unit
entries, sparse, and runs dense rounds only on the few rows and columns
that are left.

On top of Smith normal form this module computes presentation
abelianizations, the coinvariant quotient Delta(K) of a free group K
under a generating action (the K-contribution to the abelianization of
a split extension K x| H), iterated-tower abelianizations, coinvariants
of the strand-forgetting kernels, and the derived counting/dimension
reports.  The L_n tower data stay in the comber's int codes until the
coset rewrite turns them into (basis index, exponent) pairs: no letter is
decoded on the way.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

from . import combing
from .combing import (
    SURFACE_RP2,
    SURFACE_S2,
    _act,
    _inverse,
    _kernel_rows,
    _Row,
    _walk,
    _x_images,
    build_action_table,
    kernel_basis,
    kernel_rewrite,
    keromega_basis,
    x_alphabet,
)
from .homs import check_letters
from .presentations import Presentation, build_gamma_rp2, build_gamma_s2, conjugates
from .words import KIND_RHO, Frozen, Gen, gen_a

IndexedWord = tuple  # ((basis index, exponent), ...)
SparseColumn = tuple  # ((row, nonzero value), ...) in row order


class IntMatrix(Frozen):
    """Integer matrix, rows x cols, stored as its columns: ``columns[c]`` is
    the tuple of the nonzero ``(row, value)`` pairs of column c in row
    order.  ``entries``, the dense rows, is derived on each read."""

    _fields = ("rows", "cols", "columns")
    __hash__ = None

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence[int]]):
        if len(entries) != rows or any(len(row) != cols for row in entries):
            raise ValueError(f"entries are not a {rows} x {cols} matrix")
        self._set(rows, [_sparse(row[c] for row in entries) for c in range(cols)])

    def _set(self, rows: int, columns: list[SparseColumn]) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", len(columns))
        object.__setattr__(self, "columns", columns)

    @staticmethod
    def _of_sparse(rows: int, columns: list[SparseColumn]) -> "IntMatrix":
        """The matrix with these sparse ``columns``, taken as they are."""
        matrix = IntMatrix.__new__(IntMatrix)
        matrix._set(rows, columns)
        return matrix

    @property
    def entries(self) -> list[list[int]]:
        dense = [[0] * self.cols for _ in range(self.rows)]
        for c, col in enumerate(self.columns):
            for r, v in col:
                dense[r][c] = v
        return dense


def _sparse(column: Iterable[int]) -> SparseColumn:
    """The nonzero ``(row, value)`` pairs of a dense column, in row order."""
    return tuple((r, v) for r, v in enumerate(column) if v)


class AbelianInvariants(Frozen):
    """A finitely generated abelian group: free rank (>= 0) plus the
    invariant factors d1 | d2 | ... (each >= 2, no units kept)."""

    _fields = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: Iterable[int] = ()):
        torsion = tuple(torsion)
        if free_rank < 0:
            raise ValueError("the free rank must be >= 0")
        if any(d < 2 for d in torsion):
            raise ValueError("torsion coefficients must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError("torsion coefficients must form a divisor chain")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)

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


def _distinct_columns(columns: Iterable[SparseColumn]) -> list[SparseColumn]:
    """The distinct nonzero sparse ``columns`` up to sign, each with its
    first value positive, in first-seen order."""
    seen: dict[SparseColumn, None] = {}
    for col in dict.fromkeys(columns):
        if col:
            seen[col if col[0][1] > 0 else tuple([(r, -v) for r, v in col])] = None
    return list(seen)


def _diagonal(columns: Iterable[SparseColumn]) -> list[int]:
    """Nonzero diagonal of the Smith normal form of the matrix with these
    sparse ``columns``, as a divisor chain.

    Elimination runs on the distinct nonzero columns up to sign
    (:func:`_distinct_columns`), generators indexing rows: negating a
    column or subtracting it from a copy of it is a unimodular column
    operation, and a zero column adds nothing to the column space.  It has
    two phases.  The first, the unit pivoting of Havas, Holt and Rees
    ("Recognizing badly presented Z-modules", 1993), works on the sparse
    columns: a pivot is an entry s = +-1 of a short column c, in a row r
    that occurs in few columns, and ``c2 -= c2[r] * s * c`` clears row r
    from every other column c2; then row operations clear the rest of c
    without touching another column, so c and r leave with one unit on the
    diagonal.  The second phase runs dense rounds (:func:`_dense_rounds`)
    on the rows and columns that are left, none of which has a unit.
    """
    cols = dict(enumerate(map(dict, _distinct_columns(columns))))
    where: dict[int, set[int]] = {}  # row -> the columns it occurs in
    for j, col in cols.items():
        for r in col:
            where.setdefault(r, set()).add(j)
    units = 0
    pivoted = True
    while pivoted:
        pivoted = False
        for j in sorted(cols, key=lambda j: len(cols[j])):
            col = cols.get(j)
            if col is None:  # cleared to zero by an earlier pivot
                continue
            rows = [r for r, v in col.items() if v == 1 or v == -1]
            if rows:
                _unit_pivot(cols, where, j, min(rows, key=lambda r: len(where[r])))
                units += 1
                pivoted = True
    rest = _distinct_columns(tuple(sorted(col.items())) for col in cols.values())
    return [1] * units + _divisor_chain(_dense_rounds(rest))


def _unit_pivot(cols: dict[int, dict[int, int]], where: dict[int, set[int]],
                j: int, r: int) -> None:
    """Pivot on the unit ``cols[j][r]``: clear row r from every other column,
    keeping ``where`` right through the fill-in, then drop column j and row
    r.  A column cleared to zero is dropped too."""
    col = cols.pop(j)
    for row in col:
        where[row].discard(j)
    s = col.pop(r)  # s * s = 1, so c2 - c2[r] * s * col is 0 at row r
    for k in where.pop(r):
        c2 = cols[k]
        f = c2.pop(r) * s
        for row, v in col.items():
            value = c2.get(row, 0) - f * v
            if value:
                if row not in c2:
                    where[row].add(k)
                c2[row] = value
            else:
                del c2[row]
                where[row].discard(k)
        if not c2:
            del cols[k]


def _dense_rounds(columns: list[SparseColumn]) -> list[int]:
    """Nonzero diagonal of the Smith normal form of the matrix with these
    sparse ``columns``, before it is made a divisor chain, by rounds on its
    dense rows: the rows that occur in ``columns``, the others being zero.

    Each round moves a nonzero entry of least absolute value to (t, t) and
    clears column t below it with row operations.  If a remainder is left,
    the next round starts.  Otherwise column operations change only row t,
    so ``row[c] %= pivot`` clears it, and the pivot is kept once it is
    clear.  A round that keeps no pivot leaves a remainder smaller than the
    pivot, so the least nonzero |entry| falls and the rounds end.
    """
    index = {r: i for i, r in enumerate(sorted({r for col in columns for r, _ in col}))}
    rows, cols = len(index), len(columns)
    a = [[0] * cols for _ in range(rows)]
    for c, col in enumerate(columns):
        for r, v in col:
            a[index[r]][c] = v
    diag: list[int] = []
    t = 0
    while t < min(rows, cols):
        best = pr = pc = 0
        for r in range(t, rows):
            row = a[r]
            for c in range(t, cols):
                v = row[c]
                if v and (best == 0 or abs(v) < best):
                    best, pr, pc = abs(v), r, c
                    if best == 1:
                        break
            if best == 1:
                break
        if not best:
            break
        a[t], a[pr] = a[pr], a[t]
        if pc != t:
            for row in a:
                row[t], row[pc] = row[pc], row[t]
        at = a[t]
        pivot = at[t]
        for r in range(t + 1, rows):
            ar = a[r]
            q = ar[t] // pivot
            if q:
                for c in range(t, cols):
                    ar[c] -= q * at[c]
        if any(a[r][t] for r in range(t + 1, rows)):
            continue
        for c in range(t + 1, cols):
            at[c] %= pivot
        if not any(at[t + 1:]):
            diag.append(abs(pivot))
            t += 1
    return diag


def _divisor_chain(diag: list[int]) -> list[int]:
    """Turn ``diag`` in place into a divisor chain d1 | d2 | ... with the
    same cokernel, by replacing pairs with their gcd and lcm."""
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            if diag[j] % diag[i]:
                g = math.gcd(diag[i], diag[j])
                diag[j] = diag[i] * diag[j] // g
                diag[i] = g
    return diag


def _cokernel(rows: int, columns: Iterable[SparseColumn]) -> AbelianInvariants:
    """Invariants of Z^rows modulo the span of the sparse ``columns``."""
    diag = _diagonal(columns)
    return AbelianInvariants(rows - len(diag), tuple(d for d in diag if d >= 2))


def snf(matrix: IntMatrix) -> AbelianInvariants:
    """Invariants of the cokernel Z^rows / column-space(matrix)."""
    return _cokernel(matrix.rows, matrix.columns)


def _core(letters: tuple) -> tuple:
    """The word c of ``letters`` spelt P c P^-1 with P longest: letters k and
    last - k are stripped while they lie on one generator with opposite
    exponents.  ab(P c P^-1) = ab(c)."""
    k, last = 0, len(letters) - 1
    while k < last:
        (gen, exp), (end, end_exp) = letters[k], letters[last]
        if gen != end or exp != -end_exp:
            break
        k += 1
        last -= 1
    return letters[k:last + 1]


def exponent_matrix(pres: Presentation) -> IntMatrix:
    """Exponent sums of the relators, each relation's ab(lhs) - ab(rhs):
    generators index rows, relators index columns, one sparse column per
    relation.  It reads the relation pairs, makes no relator word and
    reduces nothing: each side is read past its conjugator (:func:`_core`),
    and sides with equal cores give the zero column without a sum."""
    index = {g: r for r, g in enumerate(pres.generators)}
    columns: list[SparseColumn] = []
    for lhs, rhs in pres.relations():
        # most relations have sides P c P^-1 and Q c Q^-1 of one core c, as
        # 29,645 of the 30,129 at pn-rp2 n = 22 do
        lhs, rhs = _core(lhs), _core(rhs)
        if lhs == rhs:
            columns.append(())
            continue
        sums: dict[Gen, int] = {}
        for gen, exp in lhs:
            sums[gen] = sums.get(gen, 0) + exp
        for gen, exp in rhs:
            sums[gen] = sums.get(gen, 0) - exp
        if any(sums.values()):
            columns.append(tuple(sorted([(index[gen], e) for gen, e in sums.items() if e])))
        else:
            columns.append(())
    return IntMatrix._of_sparse(len(pres.generators), columns)


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
    return _coinvariants({i: i for i in range(rank)}, images)


def _coinvariants(index: dict, images: Iterable[Sequence[Iterable[tuple]]]
                  ) -> AbelianInvariants:
    """:func:`delta_coinvariants` of images whose letters are (key,
    exponent) with ``index[key]`` the basis index: each letter's exponent
    goes straight into its dense column, and the nonzero columns go to the
    elimination sparse."""
    rank = len(index)
    columns: list[SparseColumn] = []
    for actor_images in images:
        if len(actor_images) != rank:
            raise ValueError("each actor must provide one image per basis element")
        for b, image in enumerate(actor_images):
            col = [0] * rank
            try:
                for key, exp in image:
                    col[index[key]] += exp
            except KeyError as err:
                raise ValueError(f"image letter index {err.args[0]!r} outside basis") from None
            col[b] -= 1
            if any(col):
                columns.append(_sparse(col))
    return _cokernel(rank, columns)


def direct_sum(parts: Iterable[AbelianInvariants]) -> AbelianInvariants:
    """Direct sum, with the torsion recombined into a divisor chain."""
    free = 0
    torsion: list[int] = []
    for part in parts:
        free += part.free_rank
        torsion.extend(part.torsion)
    return AbelianInvariants(free, tuple(d for d in _divisor_chain(torsion) if d >= 2))


def tower_abelianization(levels: Iterable[tuple[int, Sequence[Sequence[IndexedWord]]]]
                         ) -> AbelianInvariants:
    """Abelianization of an iterated split extension of free groups, given
    top level first as (rank, basis images of the acting generators); the
    base level carries an empty action."""
    return direct_sum(delta_coinvariants(rank, images) for rank, images in levels)


def omega_action(l: int) -> tuple[int, list[list[IndexedWord]]]:
    """The conjugation action of the combing letters of levels 3..l on the
    level-l kernel basis, as indexed basis-image words."""
    if l < 2:
        raise ValueError("kernel levels start at 2")
    index = {g: i for i, g in enumerate(kernel_basis(l + 1))}
    return len(index), [[tuple([(index[gen], exp) for gen, exp in image]) for image in row]
                        for row in _kernel_rows(x_alphabet(l - 2), 1, l + 1)]


def keromega_action(l: int) -> tuple[int, list[list[IndexedWord]]]:
    """The action on the rank 2l-1 index-2 kernel basis at level l, by the
    generators of the lower torsion-free part, rewritten in that basis.

    An automorphism of a free group is fixed by its images of a basis, so
    each actor u is walked once per letter b_i of the rank l level basis,
    without the kernel parts (:func:`~sbk.combing._walk`), to its images
    phi_u(b_i), kept with their inverses in a :class:`~sbk.combing._Row`
    (which makes the square of rho on lookup); each index-2 basis word is
    then mapped letterwise by the comber's one step
    :func:`~sbk.combing._act`, and its reduced coded image goes straight
    into the coset rewrite :func:`~sbk.combing.kernel_rewrite`, built once
    per level, without a decode to letters."""
    if l < 2:
        raise ValueError("kernel levels start at 2")
    if l == 2:
        return 3, []
    table = build_action_table(l - 1)
    rewrite = kernel_rewrite(l)
    basis_words = [table.encode(bw.letters) for bw in keromega_basis(l)]
    images = []
    for actor in combing.ln_generators(l):
        row = _Row()
        for i in table.index.values():
            row[i] = _walk(table, actor.letters, [i], False)
            row[-i] = _inverse(row[i])
        images.append([rewrite(_act(bw, ((), row, ()))) for bw in basis_words])
    return 2 * l - 1, images


def gamma_tower_levels(m: int) -> list[tuple[int, list[list[IndexedWord]]]]:
    """Tower data for the m-strand two-puncture group, top level first."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return [omega_action(l) for l in range(m + 1, 1, -1)]


def ln_tower_levels(n: int) -> list[tuple[int, list[list[IndexedWord]]]]:
    """Tower data for the torsion-free complement at strand count n."""
    return list(_ln_levels(n))


def _ln_levels(n: int) -> Iterator[tuple[int, list[list[IndexedWord]]]]:
    """:func:`ln_tower_levels` as a stream, one level made at a time."""
    if n < 3:
        raise ValueError("n must be >= 3")
    return map(keromega_action, range(n - 1, 1, -1))


def gamma_tower_abelianization(m: int) -> AbelianInvariants:
    return tower_abelianization(gamma_tower_levels(m))


def ln_tower_abelianization(n: int) -> AbelianInvariants:
    # streamed, so only one level's images are alive at a time
    return tower_abelianization(_ln_levels(n))


def fn_kernel_coinvariants(surface: str, m: int, l: int) -> AbelianInvariants:
    """Coinvariants of the free kernel of forgetting the last strand, for
    the (m+1)-strand group with l punctures over the given surface: its
    basis (:func:`~sbk.combing.kernel_basis`) modulo alpha(x) - x, alpha
    running over the generators of the m-strand group's presentation.

    Abelianization is linear and free reduction keeps exponent sums, so no
    row word is built: each generator x is checked once and its images of
    the basis are read once, as :func:`~sbk.presentations.conjugates` ``(x,
    1, basis)``; the column of x and b is ab(x b x^-1) - e_b, added up from
    the letters of b's image, a basis letter by its exponent and the
    eliminated A[top-1,top] by its exponent times the sums of its image
    (:func:`~sbk.combing._x_images`)."""
    if surface not in (SURFACE_RP2, SURFACE_S2):
        raise ValueError("surface must be 'rp2' or 's2'")
    if m < 1:
        raise ValueError("m must be >= 1")
    if surface == SURFACE_RP2 and l < 2:
        raise ValueError("the projective plane case needs l >= 2")
    if surface == SURFACE_S2 and l < 3:
        raise ValueError("the sphere case needs l >= 3")
    top = m + l + 1
    group = build_gamma_rp2(m, l) if surface == SURFACE_RP2 else build_gamma_s2(m, l)
    basis = kernel_basis(top, surface)
    index = {g: i for i, g in enumerate(basis)}
    rank = len(index)
    eliminated = gen_a(top - 1, top)
    eliminated_sums = [0] * rank
    for gen, exp in _x_images(top, surface)[eliminated]:
        eliminated_sums[index[gen]] += exp
    eliminated_column = _sparse(eliminated_sums)
    kinds = (KIND_RHO,) if surface == SURFACE_RP2 else ()
    columns: list[SparseColumn] = []
    for x in group.generators:
        check_letters(((x, 1),), l + 1, top - 1, kinds, "outside the conjugator levels")
        for i, image in enumerate(conjugates(x, 1, basis)):
            col = [0] * rank
            for gen, exp in image:
                if gen == eliminated:
                    for r, v in eliminated_column:
                        col[r] += exp * v
                else:
                    col[index[gen]] += exp
            col[i] -= 1
            if any(col):
                columns.append(_sparse(col))
    return _cokernel(rank, columns)


def subgroup_count_exponent(n: int) -> int:
    """log2 of the number of torsion-free complements in the commutator
    subgroup: the mod-2 rank of the tower abelianization of the
    torsion-free part (computed, not the closed formula)."""
    if n < 3:
        raise ValueError("n must be >= 3")
    return ln_tower_abelianization(n).mod2_rank()


def vcd_report(surface: str, n: int) -> int:
    """Virtual cohomological dimension of the n-strand braid groups of the
    surface: the number of levels of the corresponding free tower whose
    basis is nonempty.  A nontrivial free group has cohomological dimension
    1, and dimensions add along the tower."""
    if surface == SURFACE_RP2:
        if n < 3:
            raise ValueError("the projective plane report needs n >= 3")
        ranks = combing.gamma_tower_ranks(n)
    elif surface == SURFACE_S2:
        if n < 4:
            raise ValueError("the sphere report needs n >= 4")
        ranks = combing.sphere_tower_ranks(n)
    else:
        raise ValueError("surface must be 'rp2' or 's2'")
    return sum(1 for rank in ranks if rank)
