import hashlib
import itertools

import pytest

from sbk import homs
from sbk.presentations import (
    HomSpec,
    artin_case,
    artin_conjugate,
    artin_conjugate_inv,
    build_gamma_rp2,
    build_gamma_s2,
    build_pn_rp2,
    cln_letters,
    conjugate,
    verify_relators,
)
from sbk.words import (
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


def test_artin_case_partition():
    # every admissible pair falls in exactly one case
    for j in range(3, 7):
        for (r, s) in itertools.combinations(range(1, 7), 2):
            for i in range(1, j):
                if s < j:
                    assert artin_case(r, s, i, j) in {"disjoint", "lower", "upper", "linked"}


def test_artin_conjugate_cases():
    assert artin_conjugate(2, 3, 1, 4) == ((gen_a(1, 4), 1),)
    assert artin_conjugate(1, 2, 1, 3) == (
        (gen_a(2, 3), -1), (gen_a(1, 3), 1), (gen_a(2, 3), 1),
    )
    # the inverse formulas undo the forward ones inside the free group on
    # the A[.,j] letters, checked by substitution
    for (r, s, i, j) in [(1, 2, 1, 3), (1, 2, 2, 3), (1, 3, 2, 4), (2, 3, 3, 4), (1, 3, 3, 4)]:
        row_fwd = {gen_a(t, j): artin_conjugate(r, s, t, j) for t in range(1, j)}
        image = artin_conjugate_inv(r, s, i, j)
        assert substitute(image, row_fwd) == ((gen_a(i, j), 1),)


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


def _family_presentations(pn_ns, gamma_rp2_ms, gamma_rp2_ps, gamma_s2_ns, gamma_s2_ms):
    for n in pn_ns:
        yield build_pn_rp2(n)
    for m, p in itertools.product(gamma_rp2_ms, gamma_rp2_ps):
        yield build_gamma_rp2(m, p)
    for n, m in itertools.product(gamma_s2_ns, gamma_s2_ms):
        yield build_gamma_s2(n, m)


def test_relators_are_stored_reduced():
    # every relator is a tuple join; free reduction must leave it as it is
    for pres in _family_presentations(range(1, 13), range(1, 7), range(1, 4),
                                      range(1, 7), range(1, 5)):
        for rel in pres.relators:
            assert Word.from_letters(rel.letters) == rel, (pres.family, pres.params, str(rel))


def test_relator_digest_is_pinned():
    # SHA-256 of every relator's text, one per line, in order; pinned from
    # the relators as built by a free-reduction pass over their parts
    digest = hashlib.sha256()
    for pres in _family_presentations(range(1, 23), range(1, 9), range(1, 4),
                                      range(1, 8), range(1, 5)):
        for rel in pres.relators:
            digest.update(str(rel).encode() + b"\n")
    assert digest.hexdigest() == \
        "afa1ed772638a003551022e0b6d2b6b36e3a76d480f5de09396d4f42a60cc92c"


def test_verify_relators_iota():
    pres = build_pn_rp2(3)
    hom = HomSpec(
        name="iota",
        apply=lambda w: homs.iota_sharp(3, w),
        is_identity=lambda bits: not any(bits),
        render=homs.format_z2,
    )
    report = verify_relators(pres, hom)
    assert report.passed
    assert all(image == "(0,0,0)" for _, image, _ in report.cases)


def test_verify_relators_combed_form():
    from sbk.combing import comb

    pres = build_gamma_rp2(3, 2)
    hom = HomSpec(
        name="combed-form",
        apply=lambda w: comb(3, w),
        is_identity=lambda form: form.is_identity,
    )
    assert verify_relators(pres, hom).passed


def test_verify_relators_strand_forgetting():
    from sbk.combing import comb, strip_last

    pres = build_gamma_rp2(2, 2)
    hom = HomSpec(
        name="forget-then-comb",
        apply=lambda w: comb(1, strip_last(2, w)),
        is_identity=lambda form: form.is_identity,
    )
    assert verify_relators(pres, hom).passed


def test_verify_relators_detects_failure():
    pres = build_pn_rp2(2)
    hom = HomSpec(
        name="broken",
        apply=lambda w: homs.iota_sharp(2, w * parse_word("rho[1]")),
        is_identity=lambda bits: not any(bits),
    )
    assert not verify_relators(pres, hom).passed


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
