"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  The
randomized criteria are seeded (override with the SBK_SEED environment
variable) so timings and outcomes are reproducible.
"""

import os
import random
import time

from sbk import abelian, combing, homs
from sbk.abelian import AbelianInvariants
from sbk.combing import comb, x_alphabet
from sbk.presentations import build_gamma_rp2, build_pn_rp2
from sbk.words import Word, gen_rho

SEED = int(os.environ.get("SBK_SEED", 70839))


def _report(num: int, description: str, ok: bool, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num:2d} [{elapsed:6.2f}s]: {description}")
    assert ok, f"criterion {num} failed: {description}"


def _rand_word(rng: random.Random, m: int, max_len: int) -> Word:
    alphabet = x_alphabet(m)
    return Word.from_letters(
        (rng.choice(alphabet), rng.choice((1, -1)))
        for _ in range(rng.randint(0, max_len))
    )


def test_criterion_01_pn_abelianization():
    t0 = time.perf_counter()
    ok = all(
        abelian.abelianize_presentation(build_pn_rp2(n))
        == AbelianInvariants(0, tuple([2] * n))
        for n in range(1, 9)
    )
    elapsed = time.perf_counter() - t0
    _report(1, "abelianization of the projective-plane groups is (Z/2)^n, n=1..8",
            ok and elapsed < 1.0, elapsed)


def test_criterion_02_gamma_abelianization_two_ways():
    t0 = time.perf_counter()
    ok = True
    for m in range(1, 6):
        expected = AbelianInvariants(2 * m, ())
        via_pres = abelian.abelianize_presentation(build_gamma_rp2(m, 2))
        via_tower = abelian.gamma_tower_abelianization(m)
        ok = ok and via_pres == via_tower == expected
    elapsed = time.perf_counter() - t0
    _report(2, "two-puncture abelianization Z^2m by both routes, m=1..5",
            ok and elapsed < 5.0, elapsed)


def test_criterion_03_ln_abelianization():
    t0 = time.perf_counter()
    ok = all(
        abelian.ln_tower_abelianization(n) == AbelianInvariants(n * (n - 2), ())
        for n in range(3, 7)
    )
    elapsed = time.perf_counter() - t0
    _report(3, "torsion-free complement abelianizes to Z^(n(n-2)), n=3..6",
            ok and elapsed < 5.0, elapsed)


def test_criterion_04_delta_computations():
    t0 = time.perf_counter()
    ok = all(
        abelian.omega_delta(n) == AbelianInvariants(2, ())
        and abelian.keromega_delta(n) == AbelianInvariants(2 * n - 1, ())
        for n in range(3, 7)
    )
    _report(4, "coinvariants: Delta(Omega_n) = Z^2 and Delta(ker) = Z^(2n-1), n=3..6",
            ok, time.perf_counter() - t0)


def test_criterion_05_combing_soundness():
    rng = random.Random(SEED)
    t0 = time.perf_counter()
    ok = True
    for m in range(1, 6):
        for rel in build_gamma_rp2(m, 2).relators:
            if not comb(m, rel).is_identity:
                ok = False
        for _ in range(1000):
            w = _rand_word(rng, m, 40)
            if not comb(m, w * ~w).is_identity:
                ok = False
    elapsed = time.perf_counter() - t0
    _report(5, "relators comb to empty (m=1..5) and 1000 w*w^-1 per m comb to empty",
            ok and elapsed < 60.0, elapsed)


def test_criterion_06_normal_form_well_definedness():
    rng = random.Random(SEED + 6)
    t0 = time.perf_counter()
    ok = True
    # the combed form of a random word grows exponentially with its
    # length, so the factors u, v are kept short at higher strand counts
    max_len = {1: 10, 2: 10, 3: 8, 4: 6}
    for m in range(1, 5):
        relators = build_gamma_rp2(m, 2).relators
        for _ in range(500):
            u = _rand_word(rng, m, max_len[m])
            v = _rand_word(rng, m, max_len[m])
            r = rng.choice(relators)
            if comb(m, u * r * v) != comb(m, u * v):
                ok = False
    _report(6, "combed form unchanged by relator insertion (500 triples per m<=4)",
            ok, time.perf_counter() - t0)


def test_criterion_07_section_and_action_certification():
    t0 = time.perf_counter()
    ok = True
    for m in range(2, 7):
        for g in build_gamma_rp2(m - 1, 2).generators:
            w = Word.of(g)
            if combing.strip_last(m, combing.section_s(m, w)) != w:
                ok = False
    for m in range(1, 7):
        if combing.build_action_table(m).round_trip_failures():
            ok = False
    _report(7, "section splits strand forgetting (m<=6); action rows invert exactly",
            ok, time.perf_counter() - t0)


def test_criterion_08_index_and_surjectivity():
    t0 = time.perf_counter()
    ok = True
    for n in range(3, 7):
        if not all(not any(homs.iota_hat(n - 2, g)) for g in combing.ln_generators(n)):
            ok = False
        images = {homs.iota_hat(n - 2, Word.of(gen_rho(j))) for j in range(3, n + 1)}
        basis = {tuple(1 if t == k else 0 for t in range(n - 2)) for k in range(n - 2)}
        if images != basis:
            ok = False
    _report(8, "mod-2 image spans (Z/2)^(n-2) and kills the complement generators",
            ok, time.perf_counter() - t0)


def test_criterion_09_torsion_images():
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 9):
        a_img = homs.iota_sharp(
            n, Word.from_letters([(gen_rho(k), 1) for k in range(n, 0, -1)])
        )
        b_img = homs.iota_sharp(
            n, Word.from_letters([(gen_rho(k), 1) for k in range(n - 1, 0, -1)])
        )
        if a_img != tuple([1] * n) or b_img != tuple([1] * (n - 1) + [0]):
            ok = False
    for n in range(2, 7):
        if homs.q2_sharp(n, homs.full_twist_pure(n)) != homs.Q_MINUS_ONE:
            ok = False
    _report(9, "torsion candidates hit (1,..,1) and (1,..,1,0); full twist to -1",
            ok, time.perf_counter() - t0)


def test_criterion_10_fn_kernel_coinvariants():
    t0 = time.perf_counter()
    ok = all(
        abelian.fn_kernel_coinvariants("rp2", m, l) == AbelianInvariants(l, ())
        for l in range(2, 5)
        for m in range(1, 4)
    ) and all(
        abelian.fn_kernel_coinvariants("s2", m, l) == AbelianInvariants(m + l - 1, ())
        for l in range(3, 5)
        for m in range(1, 4)
    )
    _report(10, "strand-forgetting kernel coinvariants: Z^l (RP2) and Z^(m+l-1) (S2)",
            ok, time.perf_counter() - t0)


def test_criterion_11_counts_and_vcd():
    t0 = time.perf_counter()
    ok = all(abelian.subgroup_count_exponent(n) == n * (n - 2) for n in range(3, 7))
    ok = ok and all(abelian.vcd_report("s2", n) == n - 3 for n in range(4, 8))
    ok = ok and all(abelian.vcd_report("rp2", n) == n - 2 for n in range(3, 8))
    _report(11, "complement count exponent n(n-2); vcd n-3 (S2) and n-2 (RP2)",
            ok, time.perf_counter() - t0)


def test_criterion_12_tower_shapes():
    t0 = time.perf_counter()
    ok = all(
        combing.gamma_tower_ranks(n) == list(range(n - 1, 1, -1))
        and combing.ln_tower_ranks(n) == [2 * l - 1 for l in range(n - 1, 1, -1)]
        for n in range(3, 9)
    )
    _report(12, "tower rank lists [n-1..2] and [2n-3, 2n-5, .., 3], n=3..8",
            ok, time.perf_counter() - t0)
