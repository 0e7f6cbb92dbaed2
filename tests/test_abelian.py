import hashlib
import itertools
import math
import random
import sys

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from sbk import abelian, combing, presentations, verify
from sbk.abelian import (
    AbelianInvariants,
    IntMatrix,
    abelianize_presentation,
    delta_coinvariants,
    direct_sum,
    exponent_matrix,
    fn_kernel_coinvariants,
    gamma_tower_abelianization,
    keromega_action,
    ln_tower_abelianization,
    omega_action,
    snf,
    subgroup_count_exponent,
    tower_abelianization,
    vcd_report,
)
from sbk.presentations import build_gamma_rp2, build_gamma_s2, build_pn_rp2
from sbk.words import gen_a, gen_rho
from test_combing import rewrite_kernel_letters

RNG_SEED = 70839


def determinant_divisor_invariants(rows, cols, entries):
    """Independent oracle: invariant factors via determinant divisors,
    d_k = gcd of all k x k minors; the k-th factor is d_k / d_{k-1}."""
    mat = sympy.Matrix(entries)
    factors = []
    previous = 1
    for k in range(1, min(rows, cols) + 1):
        minors = [
            mat[list(rsel), list(csel)].det()
            for rsel in itertools.combinations(range(rows), k)
            for csel in itertools.combinations(range(cols), k)
        ]
        dk = 0
        for value in minors:
            dk = math.gcd(dk, int(value))
        if dk == 0:
            break
        factors.append(dk // previous)
        previous = dk
    torsion = tuple(d for d in factors if d >= 2)
    return AbelianInvariants(rows - len(factors), torsion)


def sympy_cokernel(matrix):
    """Second oracle: the cokernel invariants read off sympy's Smith normal
    form of a sympy matrix."""
    diag = smith_normal_form(matrix)
    factors = sorted(abs(int(diag[i, i])) for i in range(min(diag.shape)) if diag[i, i])
    return AbelianInvariants(matrix.rows - len(factors), tuple(d for d in factors if d >= 2))


def test_snf_trivial_examples():
    assert snf(IntMatrix(2, 2, [[2, 0], [0, 0]])) == AbelianInvariants(1, (2,))
    assert snf(IntMatrix(3, 0, [[], [], []])) == AbelianInvariants(3, ())
    assert snf(IntMatrix(0, 4, [])) == AbelianInvariants(0, ())


def test_snf_derived_example():
    # frozen from the determinant-divisor oracle: d1 = 1, d2 = 2
    matrix = [[1, 2], [3, 4]]
    oracle = determinant_divisor_invariants(2, 2, matrix)
    assert oracle == AbelianInvariants(0, (2,))
    assert snf(IntMatrix(2, 2, matrix)) == AbelianInvariants(0, (2,))


def test_snf_against_oracles_random():
    rng = random.Random(RNG_SEED)
    for _ in range(60):
        rows = rng.randint(0, 4)
        cols = rng.randint(0, 4)
        entries = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        got = snf(IntMatrix(rows, cols, entries))
        if rows and cols:
            assert got == determinant_divisor_invariants(rows, cols, entries)
            assert got == sympy_cokernel(sympy.Matrix(entries))
        else:
            assert got == AbelianInvariants(rows, ())


def test_snf_ignores_repeated_negated_and_zero_columns():
    # small dense matrices, then sparse ones that take both elimination phases
    rng = random.Random(RNG_SEED + 2)
    for trial in range(100):
        if trial < 40:
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            entries = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        else:
            rows, cols = rng.randint(1, 10), rng.randint(1, 12)
            entries = _random_sparse(rng, rows, cols, (1, -1, 1, -1, 2, -2, 3), 0.3)
        columns = [list(col) for col in zip(*entries)]
        padded = []
        for col in columns:
            for _ in range(rng.randint(1, 3)):
                padded.append([-v for v in col] if rng.random() < 0.5 else col)
        padded += [[0] * rows for _ in range(rng.randint(0, 2))]
        rng.shuffle(padded)
        variant = IntMatrix(rows, len(padded), [list(row) for row in zip(*padded)])
        reference = _oracles(rows, cols, entries)
        assert snf(IntMatrix(rows, cols, entries)) == reference
        assert snf(variant) == reference


# matrices that take several rounds at one pivot, with their cokernels
MULTI_ROUND_CASES = [
    ([[832040, 1346269]], AbelianInvariants(0, ())),  # consecutive Fibonacci
    ([[832040], [1346269]], AbelianInvariants(1, ())),
    ([[4, 6], [6, 9]], AbelianInvariants(1, ())),
    ([[6, 10, 15]], AbelianInvariants(0, ())),
    ([[-4, 6], [0, 0]], AbelianInvariants(1, (2,))),  # negative first pivot
    ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], AbelianInvariants(0, (2, 6, 12))),
]


@pytest.mark.parametrize("entries, expected", MULTI_ROUND_CASES)
def test_snf_multi_round_pivots(entries, expected):
    rows, cols = len(entries), len(entries[0])
    assert sympy_cokernel(sympy.Matrix(entries)) == expected
    assert determinant_divisor_invariants(rows, cols, entries) == expected
    assert snf(IntMatrix(rows, cols, entries)) == expected


def test_snf_keeps_multiples_of_a_column():
    # (2) and (4) span 2Z, (2) and (3) span Z: no column is a copy of the other
    assert snf(IntMatrix(1, 2, [[2, 4]])) == AbelianInvariants(0, (2,))
    assert snf(IntMatrix(1, 2, [[2, 3]])) == AbelianInvariants(0, ())


def test_distinct_columns_up_to_sign():
    matrix = IntMatrix(2, 5, [[0, 1, -1, 0, 2], [0, -2, 2, 0, -4]])
    assert abelian._distinct_columns(matrix.columns) == [((0, 1), (1, -2)),
                                                         ((0, 2), (1, -4))]
    assert abelian._distinct_columns([]) == []


def test_distinct_exponent_columns_counts():
    # the exponent matrices repeat columns heavily: n^2 distinct ones for
    # pn-rp2 and m^2 for gamma-rp2 with two punctures
    for n in range(1, 11):
        matrix = exponent_matrix(build_pn_rp2(n))
        assert len(abelian._distinct_columns(matrix.columns)) == n * n
    for m in range(1, 7):
        matrix = exponent_matrix(build_gamma_rp2(m, 2))
        assert len(abelian._distinct_columns(matrix.columns)) == m * m


def _spy_on_phases(monkeypatch) -> dict:
    """Count the unit pivots of :func:`abelian._diagonal`, the entries its
    pivots fill in, and the columns left to its dense rounds, per call."""
    seen = {"pivots": 0, "fill": 0, "rest": []}
    unit_pivot, dense_rounds = abelian._unit_pivot, abelian._dense_rounds

    def pivot(cols, where, j, r):
        before = {k: set(cols[k]) for k in where[r] if k != j}
        unit_pivot(cols, where, j, r)
        seen["pivots"] += 1
        seen["fill"] += sum(len(set(cols[k]) - rows) for k, rows in before.items()
                            if k in cols)

    def rounds(columns):
        seen["rest"].append(len(columns))
        return dense_rounds(columns)

    monkeypatch.setattr(abelian, "_unit_pivot", pivot)
    monkeypatch.setattr(abelian, "_dense_rounds", rounds)
    return seen


def _random_sparse(rng, rows, cols, values, density):
    return [[rng.choice(values) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)]


def _oracles(rows, cols, entries):
    """The cokernel by sympy, and by determinant divisors where the minors
    are few enough to list."""
    expected = sympy_cokernel(sympy.Matrix(entries))
    if rows * cols <= 20:
        assert determinant_divisor_invariants(rows, cols, entries) == expected
    return expected


def test_unit_pivots_with_fill_in_and_a_dense_remainder(monkeypatch):
    # mostly unit entries with some 2s and 3s: the unit pivots fill in and
    # leave columns without a unit to the dense rounds
    seen = _spy_on_phases(monkeypatch)
    rng = random.Random(RNG_SEED + 4)
    filled = remainders = 0
    for trial in range(300):
        rows, cols = rng.randint(1, 12), rng.randint(1, 16)
        if trial < 60:
            rows, cols = min(rows, 4), min(cols, 5)
        entries = _random_sparse(rng, rows, cols, (1, -1, 1, -1, 2, -2, 3, -3),
                                 rng.choice((0.2, 0.3, 0.45)))
        fill, rests = seen["fill"], len(seen["rest"])
        got = snf(IntMatrix(rows, cols, entries))
        assert len(seen["rest"]) == rests + 1
        filled += seen["fill"] > fill
        remainders += seen["rest"][-1] > 0
        assert got == _oracles(rows, cols, entries), entries
    # the draws exercise both phases together, not just one of them
    assert filled >= 100 and remainders >= 60, (filled, remainders)


def test_no_unit_entry_takes_the_dense_rounds_only(monkeypatch):
    seen = _spy_on_phases(monkeypatch)
    rng = random.Random(RNG_SEED + 5)
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        entries = _random_sparse(rng, rows, cols, (2, -2, 3, -3, 4, 6, -9), 0.6)
        expected = _oracles(rows, cols, entries)
        assert snf(IntMatrix(rows, cols, entries)) == expected, entries
    assert seen["pivots"] == 0
    assert sum(seen["rest"]) > 0


def test_units_only_take_the_unit_pivots_only(monkeypatch):
    # a lower unitriangular matrix up to signs and the order of its rows and
    # columns: every pivot stays a unit, and nothing is left for the rounds
    seen = _spy_on_phases(monkeypatch)
    rng = random.Random(RNG_SEED + 6)
    for _ in range(60):
        cols = rng.randint(1, 10)
        rows = cols + rng.randint(0, 3)
        entries = [[rng.choice((1, -1)) if r == c else
                    rng.choice((0, 0, 1, -1)) if r > c else 0
                    for c in range(cols)] for r in range(rows)]
        rng.shuffle(entries)
        order = rng.sample(range(cols), cols)
        entries = [[row[c] for c in order] for row in entries]
        pivots = seen["pivots"]
        assert snf(IntMatrix(rows, cols, entries)) == AbelianInvariants(rows - cols, ())
        assert seen["pivots"] - pivots == cols
        assert _oracles(rows, cols, entries) == AbelianInvariants(rows - cols, ())
    assert set(seen["rest"]) == {0}


def test_unit_pivots_agree_with_the_dense_rounds_alone():
    # the two phases against the second phase on its own, on the same columns
    rng = random.Random(RNG_SEED + 8)
    for _ in range(1000):
        rows, cols = rng.randint(1, 12), rng.randint(1, 16)
        entries = _random_sparse(rng, rows, cols, (1, -1, 1, -1, 2, -2, 3, -5),
                                 rng.choice((0.15, 0.3, 0.5)))
        columns = IntMatrix(rows, cols, entries).columns
        dense = abelian._divisor_chain(
            abelian._dense_rounds(abelian._distinct_columns(columns)))
        # both are the invariant factors, in a divisor chain as long as the rank
        assert abelian._diagonal(columns) == dense, entries


def test_int_matrix_round_trip():
    # columns store the nonzero (row, value) pairs; entries derives the rows
    rng = random.Random(RNG_SEED + 3)
    for _ in range(200):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        entries = [[rng.choice((0, 0, 0, 1, -1, 3, -7, 10**20)) for _ in range(cols)]
                   for _ in range(rows)]
        if rows:
            entries[rng.randrange(rows)] = [0] * cols
        if cols:
            c = rng.randrange(cols)
            for row in entries:
                row[c] = 0
        dense_columns = [[row[c] for row in entries] for c in range(cols)]
        matrix = IntMatrix(rows, cols, entries)
        assert matrix.columns == [tuple((r, v) for r, v in enumerate(col) if v)
                                  for col in dense_columns]
        assert matrix.entries == entries
        assert IntMatrix(rows, cols, matrix.entries) == matrix
        transposed = IntMatrix(rows, cols, [[col[r] for col in dense_columns]
                                            for r in range(rows)])
        assert (transposed.rows, transposed.cols) == (rows, cols)
        assert transposed == matrix and transposed.entries == entries
        if rows and cols:
            matrix.entries[0][0] += 1  # a derived copy: writing to it changes nothing
            assert matrix.entries == entries
    with pytest.raises(AttributeError):
        IntMatrix(1, 1, [[1]]).entries = [[2]]


def test_int_matrix_checks_shape():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, [[2], [0, 3]])
    with pytest.raises(ValueError):
        IntMatrix(3, 2, [[2, 0], [0, 3]])


def test_snf_unimodular_invariance():
    rng = random.Random(RNG_SEED + 1)
    base = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    reference = snf(IntMatrix(3, 3, [row[:] for row in base]))
    for _ in range(25):
        m = [row[:] for row in base]
        for _ in range(12):
            kind = rng.randrange(4)
            i, j = rng.sample(range(3), 2)
            c = rng.randint(-3, 3)
            if kind == 0:
                for col in range(3):
                    m[i][col] += c * m[j][col]
            elif kind == 1:
                for row in m:
                    row[i] += c * row[j]
            elif kind == 2:
                m[i], m[j] = m[j], m[i]
            else:
                for row in m:
                    row[i], row[j] = row[j], row[i]
        assert snf(IntMatrix(3, 3, m)) == reference


def test_divisor_chain_enforced():
    # diag(2, 3) is equivalent to diag(1, 6)
    assert snf(IntMatrix(2, 2, [[2, 0], [0, 3]])) == AbelianInvariants(0, (6,))


def test_invariants_printing():
    assert str(AbelianInvariants(4, ())) == "Z^4"
    assert str(AbelianInvariants(2, (2, 2))) == "Z^2 + Z/2 + Z/2"
    assert str(AbelianInvariants(1, ())) == "Z"
    assert str(AbelianInvariants(0, ())) == "0"
    assert AbelianInvariants(1, (2, 4)).to_json() == {"free_rank": 1, "torsion": [2, 4]}
    with pytest.raises(ValueError):
        AbelianInvariants(0, (4, 2))
    with pytest.raises(ValueError):
        AbelianInvariants(0, (1,))


def test_invariants_reject_zero_factors_and_negative_rank():
    # the >= 2 rule comes before the divisor chain, so a zero factor is a
    # ValueError and not a ZeroDivisionError
    for free_rank, torsion in ((0, (0, 2)), (1, (0,)), (-1, ()), (-2, (2,))):
        with pytest.raises(ValueError):
            AbelianInvariants(free_rank, torsion)


def test_abelianize_pn():
    assert abelianize_presentation(build_pn_rp2(3)) == AbelianInvariants(0, (2, 2, 2))
    for n in range(1, 9):
        inv = abelianize_presentation(build_pn_rp2(n))
        assert inv == AbelianInvariants(0, tuple([2] * n))


def test_abelianize_gamma():
    assert abelianize_presentation(build_gamma_rp2(2, 2)) == AbelianInvariants(4, ())


def test_exponent_matrix_convention():
    pres = build_gamma_rp2(1, 2)
    m = exponent_matrix(pres)
    # one relator rho A[1,3] A[2,3] rho: column (1, 1, 2) in generator order
    assert m.rows == 3 and m.cols == 1
    assert [row[0] for row in m.entries] == [1, 1, 2]


def _exponent_counts(pres):
    """Dense exponent sums counted letter by letter, generators by rows."""
    counts = [[0] * len(pres.relators) for _ in pres.generators]
    for c, rel in enumerate(pres.relators):
        for gen, exp in rel.letters:
            counts[pres.generators.index(gen)][c] += exp
    return counts


def test_exponent_matrix_matches_letter_counts():
    # gamma-rp2 for p = 1, 2, 3, whose band relations start at levels 2, 3, 4
    presentations = [build_pn_rp2(n) for n in range(1, 11)]
    presentations += [build_gamma_rp2(m, 2) for m in range(1, 6)]
    presentations += [build_gamma_rp2(m, p) for p in (1, 3) for m in range(1, 5)]
    presentations += [build_gamma_s2(n, m) for n in range(1, 4) for m in (3, 4)]
    for pres in presentations:
        counts = _exponent_counts(pres)
        matrix = exponent_matrix(pres)
        assert matrix.entries == counts, (pres.family, pres.params)
        assert matrix == IntMatrix(len(pres.generators), len(pres.relators), counts)


def test_exponent_matrix_reads_past_conjugators_only():
    # a handmade presentation whose sides are conjugates, of one core under
    # different conjugators or not, reduced or not, next to near misses that
    # are no conjugates: every column is the letter count
    x, y, b, c = gen_a(1, 2), gen_a(1, 3), gen_a(2, 3), gen_rho(3)
    relations = [
        (((x, 1), (b, 1), (x, -1)), ((y, 1), (b, 1), (y, -1))),  # equal cores
        (((x, -1), (y, 2), (b, 1), (y, -2), (x, 1)), ((c, 1), (b, 1), (c, -1))),
        (((x, 2), (b, -1), (x, -2)), ((b, -1),)),  # +-2 in P
        (((x, 1), (x, -1), (b, 1)), ((b, 1),)),  # unreduced sides
        (((x, 1), (b, 1), (b, -1), (x, -1)), ()),
        (((y, 1), (x, 1), (x, -1), (y, -1)), ((c, 1), (c, -1))),
        (((x, 1), (b, 1), (x, 1)), ((b, 1),)),  # near misses keep their columns
        (((x, 2), (b, 1), (x, -1)), ((b, 1),)),
        (((x, 1), (b, 1), (x, -1)), ((y, 1), (b, 2), (y, -1))),  # different cores
        (((x, 1), (c, 1), (x, -1)), ((c, 1), (b, 1), (b, -1))),
        (((b, 1), (c, 1)), ((c, 1), (b, 1))),
    ]
    pres = presentations.Presentation("handmade", (), (x, y, b, c),
                                      lambda: iter(relations), len(relations))
    counts = _exponent_counts(pres)
    assert exponent_matrix(pres).entries == counts
    assert [counts[0][6], counts[0][7], counts[2][8]] == [2, 1, -1]


def test_exponent_matrix_and_relator_count_make_no_word(monkeypatch):
    def no_words(lhs, rhs):
        raise AssertionError("a relator word was made")

    monkeypatch.setattr(presentations, "_relator", no_words)
    for pres in (build_gamma_rp2(3, 2), build_gamma_s2(3, 3), build_pn_rp2(6)):
        matrix = exponent_matrix(pres)
        assert matrix.cols == len(pres.relators), (pres.family, pres.params)
    assert snf(matrix) == AbelianInvariants(0, (2,) * 6)
    with pytest.raises(AssertionError, match="relator word"):
        next(iter(build_pn_rp2(3).relators))


def _sympy_invariants(pres):
    """The abelianization of ``pres`` read off sympy's Smith normal form of
    the exponent counts."""
    return sympy_cokernel(sympy.Matrix(len(pres.generators), len(pres.relators),
                                       sum(_exponent_counts(pres), [])))


@pytest.mark.parametrize("n, m", [(n, m) for n in range(1, 4) for m in (3, 4)])
def test_abelianize_gamma_s2_matches_sympy(n, m):
    pres = build_gamma_s2(n, m)
    assert abelianize_presentation(pres) == _sympy_invariants(pres)


@pytest.mark.parametrize("m, p", [(m, p) for p in (1, 3) for m in range(1, 5)])
def test_abelianize_gamma_rp2_matches_sympy(m, p):
    pres = build_gamma_rp2(m, p)
    assert abelianize_presentation(pres) == _sympy_invariants(pres)


def test_snf_of_pn_exponent_matrix_matches_sympy():
    for n in range(1, 7):
        matrix = exponent_matrix(build_pn_rp2(n))
        sym = sympy_cokernel(sympy.Matrix(matrix.entries))
        assert snf(matrix) == sym
        assert sym.torsion == (2,) * n


def test_delta_trivial_action():
    assert delta_coinvariants(3, []) == AbelianInvariants(3, ())
    identity_images = [[((b, 1),) for b in range(3)]]
    assert delta_coinvariants(3, identity_images) == AbelianInvariants(3, ())
    with pytest.raises(ValueError):
        delta_coinvariants(2, [[((5, 1),), ((0, 1),)]])


def test_delta_omega_values():
    for l in range(3, 7):
        assert delta_coinvariants(*omega_action(l)) == AbelianInvariants(2, ())


def test_delta_keromega_values():
    for l in range(3, 7):
        assert delta_coinvariants(*keromega_action(l)) == AbelianInvariants(2 * l - 1, ())


def test_two_route_agreement():
    for m in range(1, 6):
        via_pres = abelianize_presentation(build_gamma_rp2(m, 2))
        via_tower = gamma_tower_abelianization(m)
        assert via_pres == via_tower == AbelianInvariants(2 * m, ())


def _keromega_by_combs(l):
    """The level-l tower action the slow way: each image is the comber's
    split of ``actor * basis word`` without the kernel parts, one comb per
    actor and basis word, rewritten by the letter-form coset rewrite."""
    table = combing.build_action_table(l - 1)
    return 2 * l - 1, [
        [rewrite_kernel_letters(
            l, combing._split_top(table, actor.letters + bw.letters, tails=False))
         for bw in combing.keromega_basis(l)]
        for actor in combing.ln_generators(l)]


def test_keromega_action_matches_the_per_word_combs():
    assert keromega_action(2) == (3, [])
    for l in range(3, 16):
        assert keromega_action(l) == _keromega_by_combs(l), l


def test_keromega_action_sees_a_corrupted_image_of_rho(monkeypatch):
    # negative control: one actor's image of rho[l+1] times A[1,l+1], which
    # keeps every basis word's image in the index-2 kernel, must show
    l = 5
    table = combing.build_action_table(l - 1)
    rho, a = (table.index[g] for g in (gen_rho(l + 1), gen_a(1, l + 1)))
    actor = combing.ln_generators(l)[-1]
    walk = abelian._walk

    def corrupted(table, letters, codes, tails):
        image = walk(table, letters, codes, tails)
        if letters == actor.letters and codes == [rho]:
            image = combing._reduce((image, [a]))
        return image

    monkeypatch.setattr(abelian, "_walk", corrupted)
    rank, images = keromega_action(l)
    expected_rank, expected = _keromega_by_combs(l)
    assert rank == expected_rank
    assert images[:-1] == expected[:-1]
    assert images[-1] != expected[-1]


def test_keromega_action_sees_a_corrupted_coset_pair(monkeypatch):
    # negative control: the pair of A[1,l+1] in coset rho given the index of
    # its coset-1 pair breaks the match with the letter-form rewrite
    l = 5
    coset_pairs = combing._coset_pairs
    code = combing.build_action_table(l - 1).index[gen_a(1, l + 1)]

    def corrupted(table):
        cosets = coset_pairs(table)
        cosets[1][code] = cosets[0][code]
        return cosets

    monkeypatch.setattr(combing, "_coset_pairs", corrupted)
    assert keromega_action(l) != _keromega_by_combs(l)
    monkeypatch.undo()
    assert keromega_action(l) == _keromega_by_combs(l)


def test_ln_tower_values():
    assert ln_tower_abelianization(4) == AbelianInvariants(8, ())
    for n in range(3, 7):
        assert ln_tower_abelianization(n) == AbelianInvariants(n * (n - 2), ())


def test_tower_two_level_decomposition():
    # a two-level tower is the top-level coinvariants plus the base
    rank, images = abelian.keromega_action(3)
    top = delta_coinvariants(rank, images)
    base = delta_coinvariants(3, [])
    two_level = tower_abelianization([(rank, images), (3, [])])
    assert two_level == direct_sum([top, base])


def test_tower_single_trivial_level():
    assert tower_abelianization([(3, [])]) == AbelianInvariants(3, ())


def test_direct_sum_recombines_torsion():
    total = direct_sum([AbelianInvariants(1, (2,)), AbelianInvariants(0, (3,))])
    assert total == AbelianInvariants(1, (6,))


def _random_invariants(rng):
    torsion = []
    d = rng.randint(2, 12)
    for _ in range(rng.randint(0, 3)):
        torsion.append(d)
        d *= rng.choice((1, 1, 2, 3, 5))
    return AbelianInvariants(rng.randint(0, 3), tuple(torsion))


def test_direct_sum_matches_snf_of_the_diagonal():
    # the torsion of a direct sum is the Smith normal form of the diagonal
    # matrix of all torsion coefficients
    rng = random.Random(RNG_SEED)
    for _ in range(200):
        parts = [_random_invariants(rng) for _ in range(rng.randint(0, 4))]
        torsion = [d for part in parts for d in part.torsion]
        k = len(torsion)
        diag = IntMatrix(k, k, [[d if j == i else 0 for j in range(k)]
                                for i, d in enumerate(torsion)])
        recombined = snf(diag)
        expected = AbelianInvariants(sum(part.free_rank for part in parts)
                                     + recombined.free_rank, recombined.torsion)
        assert direct_sum(parts) == expected, parts


def test_tower_data_pinned():
    # the exact basis-image words of both towers, pinned by digest: the
    # coinvariants alone would not see a change of basis or of action
    digest = hashlib.sha256()
    for m in range(1, 8):
        digest.update(repr(abelian.gamma_tower_levels(m)).encode())
    for n in range(3, 10):
        digest.update(repr(abelian.ln_tower_levels(n)).encode())
    assert digest.hexdigest()[:16] == "702c87678d21d61b"


def test_fn_kernel_coinvariants_rp2():
    for l in range(2, 5):
        for m in range(1, 4):
            assert fn_kernel_coinvariants("rp2", m, l) == AbelianInvariants(l, ())


def test_fn_kernel_coinvariants_s2():
    for l in range(3, 5):
        for m in range(1, 4):
            assert fn_kernel_coinvariants("s2", m, l) == AbelianInvariants(m + l - 1, ())


def test_fn_kernel_parameter_range():
    with pytest.raises(ValueError):
        fn_kernel_coinvariants("s2", 1, 2)
    with pytest.raises(ValueError):
        fn_kernel_coinvariants("rp2", 0, 2)
    with pytest.raises(ValueError):
        fn_kernel_coinvariants("torus", 1, 2)


def test_omega_action_levels():
    # the base level has no actors: the general path gives its rank only
    assert abelian.omega_action(2) == (2, [])
    with pytest.raises(ValueError):
        abelian.omega_action(1)


def _patch_everywhere(monkeypatch, owner, name, replacement):
    """Rebind ``name``, defined in the module ``owner``, in every sbk module
    that holds the original object."""
    original = getattr(owner, name)
    for module in [module for key, module in sys.modules.items()
                   if key == "sbk" or key.startswith("sbk.")]:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)


def _cokernel_columns(monkeypatch, compute):
    """The result of ``compute()`` and the sparse columns it hands to the
    elimination, caught by a spy on ``abelian._cokernel``."""
    caught = []
    cokernel = abelian._cokernel
    with monkeypatch.context() as patch:
        patch.setattr(abelian, "_cokernel",
                      lambda rows, columns: caught.append(list(columns)) or cokernel(rows, caught[-1]))
        result = compute()
    (columns,) = caught
    return result, columns


def _fn_columns(monkeypatch, surface, m, l):
    return _cokernel_columns(monkeypatch, lambda: fn_kernel_coinvariants(surface, m, l))[1]


def test_one_kernel_row_source_feeds_every_consumer(monkeypatch):
    # one corrupted forward rho-on-rho image of the one statement of the
    # defining relations, presentations.conjugate, reaches all three readers:
    # a fresh action table, the gamma tower data and the strand-forgetting
    # kernel coinvariants
    def consumers():
        return abelian.gamma_tower_levels(2), _fn_columns(monkeypatch, "rp2", 1, 2)

    honest = consumers()
    conjugate = presentations.conjugate
    target = (gen_rho(3), 1, gen_rho(4))
    assert len(conjugate(*target)) > 1

    def corrupted(x, sign, b):
        image = conjugate(x, sign, b)
        return image[-1:] if (x, sign, b) == target else image

    _patch_everywhere(monkeypatch, presentations, "conjugate", corrupted)
    assert combing.ActionTable(2).round_trip_failures()
    levels, columns = consumers()
    assert levels != honest[0]
    assert columns != honest[1]


def test_one_band_row_statement_feeds_every_band_consumer(monkeypatch):
    # dropping the first letter of one linked word of one artin_row, the
    # word of A[2,j] in the forward row of A[1,3] at every level j, reaches
    # every reader of the band conjugations: the relation streams, a fresh
    # action table, the gamma tower data and the strand-forgetting kernel
    # coinvariants
    from test_presentations import RELATOR_DIGEST, _relator_digest

    def consumers():
        return abelian.gamma_tower_levels(2), _fn_columns(monkeypatch, "rp2", 1, 2)

    honest = consumers()
    artin_row = presentations.artin_row
    assert len(artin_row(1, 3, 4)[1]) == 9  # r < i < s: the linked case

    def corrupted(r, s, j, sign=1):
        row = artin_row(r, s, j, sign)
        if (r, s, sign) == (1, 3, 1):
            row[1] = row[1][1:]
        return row

    _patch_everywhere(monkeypatch, presentations, "artin_row", corrupted)
    assert _relator_digest(lambda pres: map(str, pres.relators)) != RELATOR_DIGEST
    assert combing.ActionTable(3).round_trip_failures()
    levels, columns = consumers()
    assert levels != honest[0]
    assert columns != honest[1]


def test_one_eliminated_letter_table_feeds_the_kernel_coinvariants(monkeypatch):
    # dropping one letter of the eliminated A[3,4]'s entry in the one
    # eliminated-letter table changes the strand-forgetting kernel's columns
    honest = _fn_columns(monkeypatch, "rp2", 1, 2)
    x_images = combing._x_images
    eliminated = gen_a(3, 4)
    assert len(x_images(4)[eliminated]) > 1

    def corrupted(top, surface="rp2"):
        images = x_images(top, surface)
        if top == 4:
            images = {**images, eliminated: images[eliminated][1:]}
        return images

    _patch_everywhere(monkeypatch, combing, "_x_images", corrupted)
    assert _fn_columns(monkeypatch, "rp2", 1, 2) != honest


@pytest.mark.parametrize("surface, l", [("rp2", l) for l in range(2, 8)]
                         + [("s2", l) for l in range(3, 8)])
def test_fn_kernel_columns_match_the_row_words(monkeypatch, surface, l):
    # oracle: the letterwise route, every row word x b x^-1 built by
    # conjugation_row (the eliminated letter substituted, freely reduced) and
    # summed by _coinvariants; the exponent sums read past the row words
    # must give the same columns, in order, not only the same invariants
    for m in range(1, 7):
        top = m + l + 1
        group = build_gamma_rp2(m, l) if surface == "rp2" else build_gamma_s2(m, l)
        basis = combing.kernel_basis(top, surface)
        rows = [combing.conjugation_row(x, 1, top, l, surface) for x in group.generators]
        expected = _cokernel_columns(monkeypatch, lambda: abelian._coinvariants(
            {g: i for i, g in enumerate(basis)}, rows))
        got = _cokernel_columns(monkeypatch, lambda: fn_kernel_coinvariants(surface, m, l))
        assert got == expected, (m, l)


def test_subgroup_count_exponent():
    assert subgroup_count_exponent(3) == 3
    for n in range(3, 7):
        assert subgroup_count_exponent(n) == n * (n - 2)


def test_vcd_report():
    assert vcd_report("rp2", 3) == 1
    assert vcd_report("s2", 4) == 1
    for n in range(3, 8):
        assert vcd_report("rp2", n) == n - 2
    for n in range(4, 8):
        assert vcd_report("s2", n) == n - 3
    with pytest.raises(ValueError):
        vcd_report("s2", 3)


@pytest.mark.parametrize("surface, n, patched, level", [
    ("rp2", 6, "kernel_basis", 4),
    ("s2", 6, "kernel_basis", 5),
])
def test_vcd_counts_only_nonempty_levels(monkeypatch, surface, n, patched, level):
    # emptying one level's free basis drops the dimension by one
    before = vcd_report(surface, n)
    assert verify.holds(verify.vcd(surface, n))
    basis = getattr(combing, patched)

    def emptied(key, *args):
        return () if key == level else basis(key, *args)

    monkeypatch.setattr(combing, patched, emptied)
    assert vcd_report(surface, n) == before - 1
    assert not verify.holds(verify.vcd(surface, n))


def test_largest_abelianizations():
    # the benchmark's largest exponent matrix (pn-rp2 n = 22) and the
    # deepest two-route case, otherwise run only by the benchmark
    for n in (12, 16, 22):
        assert verify.holds(verify.pn_abelianization(n))
    assert verify.holds(verify.gamma_abelianization_two_routes(8))


def test_mod2_rank():
    assert AbelianInvariants(2, (2, 4, 12)).mod2_rank() == 5
    assert AbelianInvariants(0, (3, 9)).mod2_rank() == 0
