import hashlib
import itertools
import random

import pytest

from sbk import homs, presentations, verify
from sbk.combing import comb
from sbk.presentations import (
    artin_row,
    build_gamma_rp2,
    build_gamma_s2,
    build_pn_rp2,
    cln_letters,
    conjugate,
)
from sbk.words import (
    KIND_A,
    Word,
    format_gen,
    gen_a,
    gen_level,
    gen_rho,
    gen_tau,
    parse_word,
    reduce_letters,
    substitute,
)


def test_pn_generator_count():
    for n in range(1, 9):
        pres = build_pn_rp2(n)
        assert len(pres.generators) == n * (n - 1) // 2 + n


def test_pn_n1_degenerate():
    pres = build_pn_rp2(1)
    assert pres.generators == (gen_tau(1),)
    assert [str(r) for r in pres.relators] == ["tau[1]^2"]


def test_pn_n2_twist_relator():
    # tau_1 tau_2 tau_1^-1 = tau_2^-1 A[1,2]^-1 tau_2^2, moved to one side
    pres = build_pn_rp2(2)
    expected = parse_word("tau[1] tau[2] tau[1]^-1 tau[2]^-2 A[1,2] tau[2]")
    assert expected in pres.relators


def test_pn_n3_square_relator():
    # tau_2^2 = A[1,2] A[2,3] at three strands
    pres = build_pn_rp2(3)
    expected = parse_word("tau[2]^2 A[2,3]^-1 A[1,2]^-1")
    assert expected in pres.relators


def test_all_relators_nonempty():
    for pres in (build_pn_rp2(4), build_gamma_rp2(3, 2), build_gamma_s2(2, 3)):
        assert all(not r.is_identity for r in pres.relators)


def test_gamma_rp2_1_2():
    pres = build_gamma_rp2(1, 2)
    assert pres.generators == (gen_a(1, 3), gen_a(2, 3), gen_rho(3))
    assert [str(r) for r in pres.relators] == ["rho[3] A[1,3] A[2,3] rho[3]"]


def test_gamma_rp2_2_2_surface_conjugation():
    pres = build_gamma_rp2(2, 2)
    # rho_3 rho_4 rho_3^-1 = C[3,4] rho_4 with C[3,4] = A[3,4]
    assert parse_word("rho[3] rho[4] rho[3]^-1 rho[4]^-1 A[3,4]^-1") in pres.relators
    # bands commute with higher surface letters
    assert parse_word("A[1,3] rho[4] A[1,3]^-1 rho[4]^-1") in pres.relators


def test_gamma_s2_examples():
    pres = build_gamma_s2(1, 3)
    assert [format_gen(g) for g in pres.generators] == ["A[1,4]", "A[2,4]", "A[3,4]"]
    assert [str(r) for r in pres.relators] == ["A[1,4] A[2,4] A[3,4]"]

    trivial = build_gamma_s2(1, 1)
    assert [format_gen(g) for g in trivial.generators] == ["A[1,2]"]
    assert [str(r) for r in trivial.relators] == ["A[1,2]"]


def _independent_band_pair_count(bands):
    """Count conjugation relations among band generators by re-deriving the
    case analysis from scratch: one relation per ordered pair with the
    conjugator's top index strictly below the target's."""
    count = 0
    for (r, s), (i, j) in itertools.product(bands, repeat=2):
        if s >= j:
            continue
        disjoint = i < r or i > s
        shares_low = i == r
        tangent = i == s
        linked = r < i < s
        assert disjoint + shares_low + tangent + linked == 1
        count += 1
    return count


def test_gamma_s2_2_3_relator_count():
    # Frozen from the independent enumeration: 12 band relations + 2
    # surface relations for two strands and three punctures.
    pres = build_gamma_s2(2, 3)
    bands = [(i, j) for j in (4, 5) for i in range(1, j)]
    assert _independent_band_pair_count(bands) == 12
    assert len(pres.relators) == 12 + 2
    assert len(pres.generators) == 7


def artin_case(r, s, i, j):
    """Oracle: the case of the conjugation of A[i,j] by A[r,s], s < j: the
    index pairs do not interleave ("disjoint"), i = r ("lower"), i = s
    ("upper") or r < i < s ("linked")."""
    if not (1 <= r < s and 1 <= i < j and s < j):
        raise ValueError(f"invalid band conjugation indices ({r},{s}),({i},{j})")
    if i < r or i > s:
        return "disjoint"
    if i == r:
        return "lower"
    if i == s:
        return "upper"
    return "linked"


def artin_conjugate(r, s, i, j, sign=1):
    """Oracle: the word equal to A[r,s]^sign A[i,j] A[r,s]^-sign, written
    out literally for each case and sign."""
    case = artin_case(r, s, i, j)
    b = (KIND_A, i, j)
    if case == "disjoint":
        return ((b, 1),)
    u = (KIND_A, r, j)
    v = (KIND_A, s, j)
    if case == "lower":
        if sign > 0:
            return ((v, -1), (b, 1), (v, 1))
        return ((u, 1), (v, 1), (u, 1), (v, -1), (u, -1))
    if case == "upper":
        if sign > 0:
            return ((v, -1), (u, -1), (v, 1), (u, 1), (v, 1))
        return ((u, 1), (v, 1), (u, -1))
    if sign > 0:
        return (
            (v, -1), (u, -1), (v, 1), (u, 1),
            (b, 1),
            (u, -1), (v, -1), (u, 1), (v, 1),
        )
    return (
        (u, 1), (v, 1), (u, -1), (v, -1),
        (b, 1),
        (v, 1), (u, 1), (v, -1), (u, -1),
    )


# the length of the word of each case and sign
CASE_LENGTHS = {("disjoint", 1): 1, ("lower", 1): 3, ("upper", 1): 5, ("linked", 1): 9,
                ("disjoint", -1): 1, ("lower", -1): 5, ("upper", -1): 3, ("linked", -1): 9}


def test_artin_case_partition():
    # every admissible pair falls in exactly one case, and the word of
    # artin_row at that pair has the case's shape
    for j in range(3, 7):
        for (r, s) in itertools.combinations(range(1, 7), 2):
            for i in range(1, j):
                if s < j:
                    assert artin_case(r, s, i, j) in {"disjoint", "lower", "upper", "linked"}
                    for sign in (1, -1):
                        word = artin_row(r, s, j, sign)[i - 1]
                        assert len(word) == CASE_LENGTHS[artin_case(r, s, i, j), sign]


def test_artin_conjugate_cases():
    assert artin_conjugate(2, 3, 1, 4) == ((gen_a(1, 4), 1),)
    assert artin_conjugate(1, 2, 1, 3) == (
        (gen_a(2, 3), -1), (gen_a(1, 3), 1), (gen_a(2, 3), 1),
    )
    assert artin_row(2, 3, 4)[0] == ((gen_a(1, 4), 1),)
    assert artin_row(1, 2, 3)[0] == (
        (gen_a(2, 3), -1), (gen_a(1, 3), 1), (gen_a(2, 3), 1),
    )
    # the inverse formulas undo the forward ones inside the free group on
    # the A[.,j] letters, checked by substitution, on the oracle and on
    # artin_row alike
    for (r, s, i, j) in [(1, 2, 1, 3), (1, 2, 2, 3), (1, 3, 2, 4), (2, 3, 3, 4), (1, 3, 3, 4)]:
        row_fwd = {gen_a(t, j): artin_conjugate(r, s, t, j) for t in range(1, j)}
        image = artin_conjugate(r, s, i, j, -1)
        assert substitute(image, row_fwd) == ((gen_a(i, j), 1),)
        row_fwd = dict(zip((gen_a(t, j) for t in range(1, j)), artin_row(r, s, j)))
        image = artin_row(r, s, j, -1)[i - 1]
        assert substitute(image, row_fwd) == ((gen_a(i, j), 1),)


def test_artin_row_matches_the_literal_words():
    cases = 0
    for j in range(3, 11):
        for (r, s) in itertools.combinations(range(1, j), 2):
            for sign in (1, -1):
                row = artin_row(r, s, j, sign)
                assert len(row) == j - 1
                for i in range(1, j):
                    assert row[i - 1] == artin_conjugate(r, s, i, j, sign), (r, s, i, j, sign)
                    cases += 1
    assert cases == 2 * sum((j - 1) * (j - 1) * (j - 2) // 2 for j in range(3, 11))


@pytest.mark.parametrize("r, s, j", [(2, 2, 4), (3, 2, 4), (1, 4, 4), (1, 5, 4), (0, 2, 4),
                                     (-1, 2, 4)])
def test_artin_row_rejects_invalid_conjugations(r, s, j):
    with pytest.raises(ValueError):
        artin_row(r, s, j)


def test_cln_letters():
    assert cln_letters(2, 3) == ((gen_a(2, 3), 1),)
    assert Word(cln_letters(1, 3)) == parse_word("A[2,3]^-1 A[1,3] A[2,3]")


def test_conjugate_images_are_reduced_at_the_level_of_b():
    # each relator is joined as x b x^-1 image^-1 without a reduction pass:
    # that needs every image reduced and on b's level, where x is not
    cases = 0
    for j in range(2, 13):
        targets = [gen_a(i, j) for i in range(1, j)] + [gen_rho(j)]
        actors = [gen_a(r, s) for s in range(2, j) for r in range(1, s)]
        actors += [gen_rho(k) for k in range(1, j)]
        for b, x, sign in itertools.product(targets, actors, (1, -1)):
            image = conjugate(x, sign, b)
            assert image and reduce_letters(image) == image, (x, sign, b)
            assert all(gen_level(g) == j for g, _ in image), (x, sign, b)
            cases += 1
    assert cases == 5434


def test_conjugates_are_conjugate_letter_by_letter():
    # the images of one level's letters under one actor, a band actor
    # reading one row, are the images conjugate gives one at a time
    for j in range(3, 9):
        letters = [gen_rho(j)] + [gen_a(i, j) for i in range(1, j)] + [gen_rho(j)]
        actors = [gen_a(r, s) for s in range(2, j) for r in range(1, s)]
        actors += [gen_rho(k) for k in range(1, j)]
        for x, sign in itertools.product(actors, (1, -1)):
            assert presentations.conjugates(x, sign, letters) == \
                [conjugate(x, sign, b) for b in letters], (x, sign, j)
    with pytest.raises(ValueError):
        presentations.conjugates(gen_a(1, 2), 1, [gen_a(1, 3), gen_a(1, 4)])
    with pytest.raises(ValueError):
        presentations.conjugates(gen_a(1, 3), 1, [gen_a(1, 3)])


def _family_presentations(pn_ns, gamma_rp2_ms, gamma_rp2_ps, gamma_s2_ns, gamma_s2_ms):
    for n in pn_ns:
        yield build_pn_rp2(n)
    for m, p in itertools.product(gamma_rp2_ms, gamma_rp2_ps):
        yield build_gamma_rp2(m, p)
    for n, m in itertools.product(gamma_s2_ns, gamma_s2_ms):
        yield build_gamma_s2(n, m)


def test_relator_counts_match_the_relation_streams():
    # each family's count is a closed form of its loop ranges; it must equal
    # the number of relations its stream yields
    for pres in _family_presentations(range(1, 13), range(1, 7), range(1, 5),
                                      range(1, 7), range(1, 5)):
        assert len(pres.relators) == sum(1 for _ in pres.relators), \
            (pres.family, pres.params)


def test_relators_index_and_compare_as_their_word_tuple():
    pres = build_gamma_rp2(2, 2)
    words = tuple(pres.relators)
    assert pres.relators[0] == words[0] and pres.relators[-1] == words[-1]
    assert pres.relators[1:3] == words[1:3]
    assert pres.relators[3] is pres.relators[3]  # the words are kept once indexed
    assert pres.relators == build_gamma_rp2(2, 2).relators
    assert hash(pres.relators) == hash(words)
    assert pres.relators != build_gamma_rp2(2, 3).relators
    with pytest.raises(IndexError):
        pres.relators[len(words)]


def test_relators_are_stored_reduced():
    # every relator is a tuple join; free reduction must leave it as it is
    for pres in _family_presentations(range(1, 13), range(1, 7), range(1, 4),
                                      range(1, 7), range(1, 5)):
        for rel in pres.relators:
            assert Word.from_letters(rel.letters) == rel, (pres.family, pres.params, str(rel))


# SHA-256 of every relator's text, one per line, in order, over the family
# grid of _relator_digest; pinned from the relators as built by a
# free-reduction pass over their parts
RELATOR_DIGEST = "afa1ed772638a003551022e0b6d2b6b36e3a76d480f5de09396d4f42a60cc92c"


def _relator_digest(texts):
    digest = hashlib.sha256()
    for pres in _family_presentations(range(1, 23), range(1, 9), range(1, 4),
                                      range(1, 8), range(1, 5)):
        for text in texts(pres):
            digest.update(text.encode() + b"\n")
    return digest.hexdigest()


def test_relator_digest_is_pinned():
    assert _relator_digest(lambda pres: map(str, pres.relators)) == RELATOR_DIGEST


def test_json_relator_texts_make_the_pinned_digest_without_words(monkeypatch):
    # to_json writes each relator's text from its relation pair: with no
    # relator word to be had, its texts still make the word path's digest
    def no_words(lhs, rhs):
        raise AssertionError("a relator word was made")

    monkeypatch.setattr(presentations, "_relator", no_words)
    assert _relator_digest(lambda pres: pres.to_json()["relators"]) == RELATOR_DIGEST
    # negative control: an inverse letter written as the letter itself, its
    # sign dropped, changes the digest
    monkeypatch.setattr(presentations, "_InverseLetterTexts", presentations._LetterTexts)
    assert _relator_digest(lambda pres: pres.to_json()["relators"]) != RELATOR_DIGEST


def test_relator_letters_lie_in_the_generator_list():
    for pres in _family_presentations(range(1, 9), range(1, 6), range(1, 4),
                                      range(1, 5), range(1, 5)):
        gens = set(pres.generators)
        for rel in pres.relators:
            outside = [format_gen(g) for g, _ in rel.letters if g not in gens]
            assert not outside, (pres.family, pres.params, str(rel), outside)


def test_forget_strands_then_comb_kills_relators():
    # forgetting the last strand of a two-puncture relator leaves a word
    # that combs to the identity one level down
    for m in (2, 3):
        for rel in build_gamma_rp2(m, 2).relators:
            assert comb(m - 1, homs.forget_strands(rel, m + 2, m + 1)).is_identity, str(rel)


def test_presentations_suite_detects_non_killing_maps(monkeypatch):
    # maps that multiply by a surface letter first kill no relator: exactly
    # the relator-kill cases must fail, and every other case still passes
    for name, extra in (("iota_sharp", "rho[1]"), ("q2_sharp", "rho[1]"),
                        ("iota_hat", "rho[3]")):
        monkeypatch.setattr(homs, name, lambda k, w, f=getattr(homs, name),
                            x=parse_word(extra): f(k, w * x))
    report = verify.presentations_suite(4, random.Random(verify.DEFAULT_SEED))
    failed = {c.case_id for c in report.cases if not c.passed}
    assert failed == {"pn-iota-kills-n1", "pn-iota-kills-n2", "pn-iota-kills-n3",
                      "pn-iota-kills-n4", "pn-q2-kills-n2", "pn-q2-kills-n3",
                      "pn-q2-kills-n4", "gamma-iota-hat-kills-m1",
                      "gamma-iota-hat-kills-m2"}
    assert len(report.cases) == 21


def test_presentation_json_round_trip():
    pres = build_gamma_rp2(2, 2)
    data = pres.to_json()
    assert data["family"] == "gamma-rp2"
    assert data["params"] == {"m": 2, "p": 2}
    for text in data["relators"]:
        assert parse_word(text) in pres.relators


def test_param_validation():
    with pytest.raises(ValueError):
        build_pn_rp2(0)
    with pytest.raises(ValueError):
        build_gamma_rp2(0, 2)
    with pytest.raises(ValueError):
        build_gamma_s2(1, 0)
