import random
import tracemalloc
from functools import lru_cache
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from sbk import combing, verify
from sbk.combing import (
    ActionTable,
    CombedForm,
    Verdict,
    build_action_table,
    comb,
    expand_C,
    gamma_tower_ranks,
    is_trivial_gamma,
    keromega_basis,
    kn_decompose,
    kn_membership,
    ln_generators,
    ln_membership,
    ln_tower_ranks,
    ln_word_problem,
    omega_basis,
    pn_triviality,
    rewrite_kernel_letters,
    section_s,
    sphere_tower_ranks,
    to_x_letters,
)
from sbk.presentations import build_gamma_rp2
from sbk.verify import random_x_word
from sbk.words import (
    AlphabetError,
    Word,
    concat_letters,
    gen_a,
    gen_rho,
    invert_letters,
    parse_word,
    push_letter,
    reduce_letters,
    substitute,
)

RNG_SEED = 70839


def test_expand_c_examples():
    assert str(expand_C(2, 3, 4)) == "A[2,3]"
    assert str(expand_C(1, 3, 4)) == "A[2,3]^-1 A[1,3] A[2,3]"
    assert str(expand_C(3, 4, 4)) == "A[2,4]^-1 A[1,4]^-1 rho[4]^-2"


def test_omega_basis():
    basis = omega_basis(3)
    assert basis == (gen_a(1, 4), gen_a(2, 4), gen_rho(4))
    with pytest.raises(ValueError):
        omega_basis(1)


def test_action_table_surface_row():
    # rho_k acting on the top surface letter gives C[k,top] rho[top]
    table = build_action_table(2)
    row = table.row(gen_rho(3), 1, gen_rho(4))
    assert Word(row) == expand_C(3, 4, 4) * Word.of(gen_rho(4))


def test_action_table_disjoint_band_row():
    # disjoint index pairs: conjugation leaves the basis letter alone
    table = build_action_table(3)
    assert table.row(gen_a(2, 4), 1, gen_a(1, 5)) == ((gen_a(1, 5), 1),)


def _kernel_part(table, x, sign):
    """The kernel part x^sign * s(x^sign)^-1 in letters, from the section
    s(x) = left * x * right: phi_x(right^-1) * left^-1 for x and
    phi_{x^-1}(left) * right for x^-1; the oracle for the compiled tails."""
    left, right = (combing._expand_top_band(part, table.top)
                   for part in combing._section_parts(x, table.top))
    row_map = table.maps[(x, sign)]
    if sign > 0:
        return concat_letters(substitute(invert_letters(right), row_map), invert_letters(left))
    return concat_letters(substitute(left, row_map), right)


def test_action_table_round_trip():
    for m in range(1, 7):
        table = build_action_table(m)
        assert table.round_trip_failures() == [], m
        # rows are stored as built, so conjugation_row must return reduced words
        for row_map in table.maps.values():
            assert all(reduce_letters(image) == image for image in row_map.values())
        # the compiled rows decode to the stored rows, the negative indices
        # to their inverses, and the tails to the kernel parts
        for i, b in enumerate(table.basis, 1):
            assert table.index[b] == i, (m, b)
        for (x, sign), (row, tail) in table.steps.items():
            for i, b in enumerate(table.basis, 1):
                image = table.maps[(x, sign)][b]
                assert table.decode_letters(row[i]) == image, (m, x, sign, b)
                assert table.decode_letters(row[-i]) == invert_letters(image), (m, x, sign, b)
            assert table.decode_letters(tail) == _kernel_part(table, x, sign), (m, x, sign)


def test_round_trip_certifies_compiled_rows():
    # the round trip reads the rows the comber runs on, not ``maps``
    table = build_action_table(3)
    fresh = ActionTable(table.m, table.maps)
    row, _ = next(iter(fresh.steps.values()))
    row[1] = row[2]
    assert fresh.round_trip_failures()
    assert table.round_trip_failures() == []


# words over the kernel basis at m = 1..4, not necessarily reduced; the
# larger exponents map a power through the power of its image, and words
# longer than a chunk of the step are mapped chunk by chunk
kernel_words = st.integers(1, 4).flatmap(lambda m: st.tuples(st.just(m), st.lists(
    st.tuples(st.sampled_from(build_action_table(m).basis),
              st.sampled_from([-40, -7, -3, -2, -1, 1, 2, 3, 7, 40])),
    max_size=80)))


@settings(deadline=None, max_examples=80)
@given(kernel_words)
def test_int_step_matches_substitute(case):
    m, letters = case
    table = build_action_table(m)
    for key, (row, tail) in table.steps.items():
        for codes_tail, letters_tail in (((), ()), (tail, _kernel_part(table, *key))):
            expected = concat_letters(substitute(letters, table.maps[key]), letters_tail)
            got = combing._act(table.encode(letters), row, codes_tail)
            # reduced coded words are unique, one coded letter per letter
            assert tuple(got) == table.encode(expected), (m, key, codes_tail)


def test_split_top_without_tails_is_the_action():
    # u . v with u below the top level and v at it splits, without the
    # kernel parts, to v mapped through the rows of u's letters, one unit
    # at a time from right to left
    rng = random.Random(RNG_SEED)
    for m in range(1, 5):
        table = build_action_table(m)
        lower = [x for x, sign in table.maps if sign > 0]  # none at m = 1
        for _ in range(30):
            u = tuple((rng.choice(lower), rng.choice((-2, -1, 1, 2)))
                      for _ in range(rng.randint(0, 4) if lower else 0))
            v = tuple((rng.choice(table.basis), rng.choice((-3, -1, 1, 2)))
                      for _ in range(rng.randint(0, 5)))
            expected = reduce_letters(v)
            for gen, exp in reversed(u):
                for _ in range(abs(exp)):
                    expected = substitute(expected, table.maps[(gen, 1 if exp > 0 else -1)])
            got = combing._split_top(table, u + v, tails=False)
            assert got == expected, (m, u, v)


def _plain_step(codes, row, tail=()):
    """row(codes) * tail with every letter of the whole word mapped through
    the row and reduced, nothing kept: the oracle for the chunked step."""
    return combing._reduce(chain(map(row.__getitem__, codes), (tail,)))


def _plain_split(table, lower, codes, tails):
    """The split of ``lower`` times the coded kernel word ``codes`` by the
    plain per-unit loop over :func:`_plain_step`; the oracle for the chunk
    memo of ``_split_top``."""
    for gen, exp in reversed(lower):
        row, tail = table.steps[(gen, 1 if exp > 0 else -1)]
        for _ in range(abs(exp)):
            codes = _plain_step(codes, row, tail if tails else ())
    return table.decode_letters(codes)


def _random_accumulator(rng, table, length):
    """A reduced coded word of the given length over the table's basis:
    no two adjacent letters on one generator, exponents +-1, +-2, +-3."""
    codes = []
    while len(codes) < length:
        i = rng.randint(1, len(table.basis))
        if not codes or abs(codes[-1]) & combing._MASK != i:
            codes.append(combing._code(i, rng.choice((-3, -2, -1, -1, 1, 1, 2, 3))))
    return codes


def test_chunk_memo_split_matches_plain_loop():
    # every row at m = 1..4 (none at m = 1), both tails values, on random
    # accumulators of length 0..300.  The row x^s runs before, after and
    # between other rows: x^s, then x^-s, which gives back the accumulator,
    # then another row y^t on those same chunks, then x^s twice on a grown
    # word; a memo that forgot its row would hand y the images of x
    rng = random.Random(RNG_SEED)
    for m in range(1, 5):
        table = build_action_table(m)
        keys = list(table.steps)
        for n, (x, sign) in enumerate(keys):
            y, other = keys[(n + 1) % len(keys)]
            for tails in (True, False):
                length = rng.choice((0, 31, 32, 33, 65, rng.randint(0, 300)))
                codes = _random_accumulator(rng, table, length)
                row, tail = table.steps[(x, sign)]
                assert combing._act(codes, row, tail) == _plain_step(codes, row, tail)
                lower = ((x, 2 * sign), (y, other), (x, -sign), (x, sign))
                letters = lower + table.decode_letters(codes)
                expected = _plain_split(table, lower, codes, tails)
                got = combing._split_top(table, letters, tails=tails)
                assert got == expected, (m, x, sign, y, other, tails, length)


def test_section_examples():
    assert str(section_s(2, parse_word("rho[3]"))) == "rho[3] A[3,4]^-1"
    assert str(section_s(4, parse_word("A[3,5]"))) == "A[3,5]"
    assert str(section_s(2, parse_word("A[1,3]"))) == "A[3,4] A[1,3] A[3,4]^-1"
    assert str(section_s(3, parse_word("A[2,4]"))) == "A[4,5] A[2,4]"


def test_section_alphabet():
    with pytest.raises(AlphabetError):
        section_s(2, parse_word("rho[4]"))  # top-level letter not in the domain


def test_section_strip_identity():
    for m in range(2, 7):
        assert verify.holds(verify.section_splits(m)), m


def test_section_is_homomorphism_up_to_comb():
    rng = random.Random(RNG_SEED)
    for m in (2, 3):
        for _ in range(25):
            u = random_x_word(rng, m - 1, 6)
            v = random_x_word(rng, m - 1, 6)
            lhs = comb(m, section_s(m, u) * section_s(m, v))
            rhs = comb(m, section_s(m, u * v))
            assert lhs == rhs


def test_comb_trivial_examples():
    assert comb(1, parse_word("A[1,3] rho[3] rho[3]^-1 A[1,3]^-1")).is_identity
    form = comb(2, parse_word("rho[4]"))
    assert form.to_json() == ["rho[4]", ""]
    assert not form.is_identity


def test_comb_component_alphabets():
    # each component only uses letters of its own kernel level
    form = comb(3, parse_word("rho[5] A[1,4] rho[3]^2 A[2,5]^-1"))
    assert len(form.components) == 3
    for level, component in zip((4, 3, 2), form.components):
        for gen, _ in component.letters:
            assert combing.gen_level(gen) == level + 1


def test_comb_relator_soundness():
    for m in range(1, 5):
        assert verify.holds(verify.relators_comb_to_identity(m)), m


def test_comb_eliminated_letters_accepted():
    # words may use the full presentation alphabet, including A[j-1,j]
    w = parse_word("A[2,3] A[3,4]")
    assert comb(2, w * ~w).is_identity
    assert not comb(2, w).is_identity


def test_comb_well_definedness():
    rng = random.Random(RNG_SEED)
    for m in (1, 2, 3):
        assert verify.holds(verify.relator_insertion(rng, m, 40, 8)), m


def _rebuild(form):
    """w = omega_{m+1} * s(omega_m * s( ... s(omega_2) ... )) from its combed form."""
    *upper, rebuilt = form.components
    for k, omega in enumerate(reversed(upper), start=2):
        rebuilt = omega * section_s(k, rebuilt)
    return rebuilt


def test_comb_inverse_consistency():
    # v is rebuilt from the combed form of ~w, so w * v is usually not freely
    # trivial and the comber has to decide it
    rng = random.Random(RNG_SEED)
    for m, max_len in {1: 10, 2: 10, 3: 8, 4: 6}.items():
        for _ in range(25):
            w = random_x_word(rng, m, max_len)
            v = _rebuild(comb(m, ~w))
            assert comb(m, w * v).is_identity, (m, str(w))


def test_comb_conjugated_relator():
    # w r w^-1 combs to the empty form for short w and every relator r
    rng = random.Random(RNG_SEED)
    for m in (1, 2, 3):
        relators = build_gamma_rp2(m, 2).relators
        for _ in range(30):
            w = random_x_word(rng, m, 6)
            r = rng.choice(relators)
            letters = w.letters + r.letters + invert_letters(w.letters)
            assert combing._comb_letters(m, letters, build_action_table).is_identity


@lru_cache(maxsize=None)
def _kernel_parts(m):
    """The kernel parts of the oracle, per letter and sign."""
    table = build_action_table(m)
    return {key: _kernel_part(table, *key) for key in table.maps}


@lru_cache(maxsize=None)
def _psi_maps(m):
    """Conjugation by the section image s(g) = kappa_g^-1 * g, per letter."""
    table = build_action_table(m)
    psi = {}
    for key, row_map in table.maps.items():
        k = _kernel_parts(m)[key]
        ik = invert_letters(k)
        psi[key] = {
            b: reduce_letters(concat_letters(ik, image, k))
            for b, image in row_map.items()
        }
    return psi


def _split_top_accumulate(m, letters):
    """Left-to-right accumulation: maintain (kappa, H) with prefix =
    kappa * s(H); per letter g, kappa *= psi(H)(kappa_g) and H *= r(g)."""
    top = m + 2
    psi = _psi_maps(m)
    kappa_table = _kernel_parts(m)
    kappa = ()
    quotient = []

    def conjugate_by_quotient(pieces):
        for g2, e2 in reversed(quotient):
            row_map = psi[(g2, 1 if e2 > 0 else -1)]
            for _ in range(abs(e2)):
                pieces = substitute(pieces, row_map)
        return pieces

    for gen, exp in letters:
        if combing.gen_level(gen) == top:
            kappa = concat_letters(kappa, conjugate_by_quotient(((gen, exp),)))
        else:
            sign = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                pieces = conjugate_by_quotient(kappa_table[(gen, sign)])
                kappa = concat_letters(kappa, pieces)
                push_letter(quotient, gen, sign)
    return kappa


def reference_comb(m, w):
    """The combed form by left-to-right accumulation at every level: an
    independent comber that ``comb`` is checked against."""
    current = to_x_letters(m, w.letters)
    components = []
    for top in range(m + 2, 3, -1):
        components.append(Word(_split_top_accumulate(top - 2, current)))
        current = reduce_letters(
            (gen, exp) for gen, exp in current if combing.gen_level(gen) < top
        )
    components.append(Word(reduce_letters(current)))
    return CombedForm(m, tuple(components))


def test_engines_agree():
    rng = random.Random(RNG_SEED)
    for m in (1, 2, 3):
        for _ in range(40):
            w = random_x_word(rng, m, 10)
            assert comb(m, w) == reference_comb(m, w)


def test_comb_top_level_powers_stay_compact():
    # a top-level power that lower letters act on stays one coded letter:
    # each step maps it through the power of its image, so neither time
    # nor memory grows with the exponent
    words = ("A[2,4] A[1,5]^{n}", "rho[4] A[1,5]^{n}",
             "A[1,3] A[2,5]^{n} A[1,4]^-1", "A[1,4] A[3,5]^-{n} rho[3]")
    comb(3, parse_word("A[1,3]"))  # builds the tables outside the trace
    tracemalloc.start()
    try:
        for text in words:
            comb(3, parse_word(text.format(n=10**6)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    for text in words:
        w = parse_word(text.format(n=10**9))
        assert comb(3, w) == reference_comb(3, w), text
    assert comb(3, parse_word("A[2,4] A[1,5]^1000000000")).to_json() == [
        "A[1,5]^1000000000 rho[5]^2 A[1,5] A[2,5] A[3,5]", "A[2,4]", ""]


def test_chunk_memo_split_matches_reference_comb():
    # powers long enough that the chunked steps reuse images many times
    for m, text in ((2, "A[2,3]^12"), (2, "A[2,3]^-7"), (2, "rho[3]^-40"),
                    (2, "rho[3]^33"), (3, "A[1,4]^33"), (3, "A[1,4]^-40")):
        w = parse_word(text)
        assert comb(m, w) == reference_comb(m, w), text


def test_chunk_memo_lives_only_for_the_call():
    # the chunk images are kept per split call: afterwards the rows hold
    # only their compiled entries, the tables only their fields and cached
    # views, and no dict of the module has grown
    def module_dicts():
        return {name: len(v) for name, v in vars(combing).items() if isinstance(v, dict)}

    before = module_dicts()
    comb(2, parse_word("A[1,3]^500"))
    assert module_dicts() == before
    for m in range(1, 5):
        table = build_action_table(m)
        assert set(vars(table)) <= {"m", "maps", "basis", "index", "steps"}, m
        compiled = {combing._code(i, exp) for i in table.index.values() for exp in (1, -1, 2, -2)}
        assert all(set(row) == compiled for row, _ in table.steps.values()), m
    w = parse_word("A[1,3]^2000")
    tracemalloc.start()
    try:
        comb(2, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured: a traced peak of 1.19-1.28 MB with the chunk memo (its nine
    # chunks hold about 7 kB) and 1.34 MB with the plain per-unit loop
    assert peak < 3 * 2**19, peak


def test_comb_known_value():
    # kernel component of A[1,3]^2 at two strands, frozen from the
    # by-hand conjugation through the section
    form = comb(2, parse_word("A[1,3]^2"))
    expected = (
        "rho[4]^2 A[1,4] A[2,4] A[1,4]^-1 rho[4]^2 A[1,4] A[2,4] A[1,4]^-1"
        " A[2,4]^-1 A[1,4]^-1 rho[4]^-2 A[1,4] A[2,4]^-1 A[1,4]^-1 rho[4]^-2 A[1,4]"
    )
    assert form.to_json() == [expected, "A[1,3]^2"]


def test_comb_reconstruction():
    # rebuild w = omega_{m+1} * s(omega_m * s( ... s(omega_2) ... )) from its
    # combed form and comb the quotient; unlike w * ~w, ~rebuilt * w is
    # usually not freely trivial, so the comber decides it
    rng = random.Random(RNG_SEED)
    for m, max_len in {1: 10, 2: 10, 3: 8, 4: 6}.items():
        for _ in range(25):
            w = random_x_word(rng, m, max_len)
            assert comb(m, ~_rebuild(comb(m, w)) * w).is_identity, (m, str(w))


def test_ln_membership_examples():
    assert ln_membership(4, parse_word("rho[3]^2"))
    assert not ln_membership(4, parse_word("rho[3]"))
    assert is_trivial_gamma(2, parse_word("rho[3]^2 rho[3]^-2"))


def test_ln_word_problem():
    assert ln_word_problem(4, parse_word("rho[3]^2 rho[3]^-2"))
    assert not ln_word_problem(4, parse_word("rho[3]^2"))
    with pytest.raises(ValueError):
        ln_word_problem(4, parse_word("rho[3]"))


def test_kn_membership_examples():
    assert kn_membership(3, parse_word("A[1,2]"))
    assert not kn_membership(3, parse_word("rho[1]"))
    assert kn_membership(3, parse_word("rho[1] rho[2] rho[1]^-1 rho[2]^-1"))


def test_kn_decompose():
    form, eps = kn_decompose(4, parse_word("A[1,3]"), 1)
    assert eps == 1 and not form.is_identity
    form, eps = kn_decompose(4, Word(), 1)
    assert eps == 1 and form.is_identity
    form, eps = kn_decompose(4, parse_word("rho[3]^2 rho[3]^-2"), 0)
    assert eps == 0 and form.is_identity
    with pytest.raises(ValueError):
        kn_decompose(4, parse_word("rho[3]"), 0)
    with pytest.raises(ValueError):
        kn_decompose(4, Word(), 2)


def test_pn_triviality_examples():
    assert pn_triviality(3, parse_word("rho[1]")) is Verdict.NONTRIVIAL
    assert pn_triviality(3, parse_word("A[1,2]")) is Verdict.NONTRIVIAL
    assert pn_triviality(3, parse_word("A[1,3] A[1,3]^-1")) is Verdict.TRIVIAL
    # decided via the combed form on two-puncture words
    assert pn_triviality(4, parse_word("A[1,3] rho[4]^2")) is Verdict.NONTRIVIAL
    # commutator of tau letters: all invariants vanish, no decision procedure
    assert pn_triviality(4, parse_word("tau[1] tau[3] tau[1]^-1 tau[3]^-1")) is Verdict.UNKNOWN
    # two strands: the quaternion image is faithful
    assert pn_triviality(2, parse_word("A[1,2]^2")) is Verdict.TRIVIAL
    assert pn_triviality(2, parse_word("A[1,2]")) is Verdict.NONTRIVIAL


def test_ln_generators_structure():
    gens = ln_generators(3)
    assert [str(g) for g in gens] == ["A[1,3]", "rho[3] A[1,3] rho[3]^-1", "rho[3]^2"]
    assert len(ln_generators(5)) == 3 + 5 + 7 == sum(
        2 * (j - 2) + 1 for j in range(3, 6)
    )


def test_keromega_basis_example():
    basis = keromega_basis(2)
    assert [str(b) for b in basis] == ["A[1,3]", "rho[3] A[1,3] rho[3]^-1", "rho[3]^2"]
    assert len(keromega_basis(5)) == 9


def test_tower_ranks():
    assert ln_tower_ranks(5) == [7, 5, 3]
    assert gamma_tower_ranks(5) == [4, 3, 2]
    assert gamma_tower_ranks(3) == [2]
    assert ln_tower_ranks(3) == [3]
    assert sphere_tower_ranks(4) == [2]
    assert sphere_tower_ranks(7) == [5, 4, 3, 2]
    for n in range(3, 9):
        assert gamma_tower_ranks(n) == list(range(n - 1, 1, -1))
        assert ln_tower_ranks(n) == [2 * l - 1 for l in range(n - 1, 1, -1)]


def test_rewrite_kernel_letters():
    rho4 = gen_rho(4)
    a14 = gen_a(1, 4)
    # rho^2 -> the square basis letter (index 2l-2 = 4 at level 3)
    assert rewrite_kernel_letters(3, ((rho4, 2),)) == ((4, 1),)
    # rho a rho^-1 -> the conjugated letter
    assert rewrite_kernel_letters(3, ((rho4, 1), (a14, 1), (rho4, -1))) == ((1, 1),)
    # rho a rho -> conjugated letter then a square
    assert rewrite_kernel_letters(3, ((rho4, 1), (a14, 1), (rho4, 1))) == ((1, 1), (4, 1))
    with pytest.raises(ValueError):
        rewrite_kernel_letters(3, ((rho4, 1),))


def _rewrite_kernel_letters_unit_steps(l, letters):
    """The coset rewrite one unit of rho-exponent at a time: the oracle for
    the closed form in :func:`rewrite_kernel_letters`."""
    top = l + 1
    rho_top = gen_rho(top)
    square_idx = 2 * l - 2
    out = []
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
        else:
            push_letter(out, 2 * (gen[1] - 1) + state, exp)
    if state:
        raise ValueError("word has odd rho-exponent, not in the kernel")
    return tuple(out)


# words over the level-l kernel basis, l = 2..5, heavy in rho[l+1]; both
# even and odd total rho-exponents occur
coset_words = st.integers(2, 5).flatmap(lambda l: st.tuples(st.just(l), st.lists(
    st.tuples(st.sampled_from(omega_basis(l) + (gen_rho(l + 1),) * l),
              st.sampled_from([-40, -7, -3, -2, -1, 1, 2, 3, 7, 40])),
    max_size=10)))


@settings(deadline=None, max_examples=200)
@given(coset_words)
def test_rewrite_kernel_letters_matches_unit_steps(case):
    l, letters = case
    try:
        expected = _rewrite_kernel_letters_unit_steps(l, letters)
    except ValueError:
        with pytest.raises(ValueError):
            rewrite_kernel_letters(l, letters)
    else:
        assert rewrite_kernel_letters(l, letters) == expected


def test_rewrite_kernel_letters_negative_exponents():
    rho4 = gen_rho(4)
    a14 = gen_a(1, 4)
    # rho^-3 a rho^-1 = (rho^2)^-2 . rho a rho^-1
    assert rewrite_kernel_letters(3, ((rho4, -3), (a14, 1), (rho4, -1))) == ((4, -2), (1, 1))
    assert rewrite_kernel_letters(3, ((rho4, -7), (rho4, 7))) == ()
    for letters in (((rho4, -3),), ((rho4, 40), (a14, 2), (rho4, -7))):
        with pytest.raises(ValueError):
            rewrite_kernel_letters(3, letters)


def test_comb_alphabet_validation():
    with pytest.raises(AlphabetError):
        comb(2, parse_word("rho[5]"))
    with pytest.raises(AlphabetError):
        comb(2, parse_word("tau[3]"))
