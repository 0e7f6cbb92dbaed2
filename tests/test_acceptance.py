"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  The
randomized criteria are seeded (override with the SBK_SEED environment
variable) so timings and outcomes are reproducible.  Every criterion but 9
runs the check functions of ``sbk.verify`` that the matching ``sbk verify``
suite cases run, over the criterion's own range.
"""

import os
import random
import time
from itertools import chain

from sbk import homs, verify
from sbk.combing import build_action_table
from sbk.words import Word, gen_rho

SEED = int(os.environ.get("SBK_SEED", 70839))


def _report(num: int, description: str, ok: bool, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num:2d} [{elapsed:6.2f}s]: {description}")
    assert ok, f"criterion {num} failed: {description}"


def _run(num: int, description: str, checks, gate: float | None = None) -> None:
    """Time the lazily computed checks, pass them by ``verify.holds`` and
    report; ``gate`` is the criterion's time limit in seconds, if any."""
    t0 = time.perf_counter()
    ok = all(verify.holds(check) for check in checks)
    elapsed = time.perf_counter() - t0
    _report(num, description, ok and (gate is None or elapsed < gate), elapsed)


def test_criterion_01_pn_abelianization():
    _run(1, "abelianization of the projective-plane groups is (Z/2)^n, n=1..8",
         (verify.pn_abelianization(n) for n in range(1, 9)), gate=1.0)


def test_criterion_02_gamma_abelianization_two_ways():
    _run(2, "two-puncture abelianization Z^2m by both routes, m=1..5",
         (verify.gamma_abelianization_two_routes(m) for m in range(1, 6)), gate=5.0)


def test_criterion_03_ln_abelianization():
    _run(3, "torsion-free complement abelianizes to Z^(n(n-2)), n=3..6",
         (verify.ln_tower(n) for n in range(3, 7)), gate=5.0)


def test_criterion_04_delta_computations():
    _run(4, "coinvariants: Delta(Omega_n) = Z^2 and Delta(ker) = Z^(2n-1), n=3..6",
         (check for n in range(3, 7)
          for check in (verify.omega_delta(n), verify.keromega_delta(n))))


def test_criterion_05_combing_soundness():
    rng = random.Random(SEED)
    _run(5, "relators comb to empty (m=1..5) and 1000 w*w^-1 per m comb to empty",
         (check for m in range(1, 6)
          for check in (verify.relators_comb_to_identity(m),
                        verify.inverse_products_comb_to_identity(rng, m, 1000, 40))),
         gate=60.0)


def test_criterion_06_normal_form_well_definedness():
    rng = random.Random(SEED + 6)
    # the combed form of a random word grows exponentially with its
    # length, so the factors u, v are kept short at higher strand counts
    max_len = {1: 10, 2: 10, 3: 8, 4: 6}
    _run(6, "combed form unchanged by relator insertion (500 triples per m<=4)",
         (verify.relator_insertion(rng, m, 500, max_len[m]) for m in range(1, 5)))


def test_criterion_07_section_and_action_certification():
    _run(7, "section splits strand forgetting (m<=6); action rows invert exactly",
         chain((verify.section_splits(m) for m in range(2, 7)),
               (verify.table_round_trip(m, build_action_table) for m in range(1, 7))))


def test_criterion_08_index_and_surjectivity():
    _run(8, "mod-2 image spans (Z/2)^(n-2) and kills the complement generators",
         (check for n in range(3, 7)
          for check in (verify.ln_generators_killed(n), verify.ln_index(n))))


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
    _run(10, "strand-forgetting kernel coinvariants: Z^l (RP2) and Z^(m+l-1) (S2)",
         chain((verify.fn_coinvariants("rp2", m, l)
                for l in range(2, 5) for m in range(1, 4)),
               (verify.fn_coinvariants("s2", m, l)
                for l in range(3, 5) for m in range(1, 4))))


def test_criterion_11_counts_and_vcd():
    _run(11, "complement count exponent n(n-2); vcd n-3 (S2) and n-2 (RP2)",
         chain((verify.count_exponent(n) for n in range(3, 7)),
               (verify.vcd("s2", n) for n in range(4, 8)),
               (verify.vcd("rp2", n) for n in range(3, 8))))


def test_criterion_12_tower_shapes():
    _run(12, "tower rank lists [n-1..2] and [2n-3, 2n-5, .., 3], n=3..8",
         (verify.tower_ranks(n) for n in range(3, 9)))
