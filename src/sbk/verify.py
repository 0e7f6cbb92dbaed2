"""Bundled verification suites with machine-readable reports.

Each suite enumerates the checkable identities of one slice of the
library, up to a desk-scale strand bound, and returns a
:class:`VerificationReport` whose overall flag is the conjunction of its
cases.

Every check the acceptance tests share with a suite has one home here: a
public function that computes the identity for one parameter value and
returns ``(expected, got)``.  A suite case and an acceptance criterion
call the same function, each over its own range, and both pass it by the
one rule :func:`holds`, ``str(expected) == str(got)``.  Randomized checks
take the ``random.Random`` they draw from, so each caller keeps its own
seed and draw order.

The combing suite takes an action-table factory (by default the
cached :func:`~sbk.combing.build_action_table`) and passes it straight to
the comber, so tests can run the suite against a deliberately corrupted
table as a negative control: the round-trip cases read the factory's
tables, and every combing case combs with them.
"""

from __future__ import annotations

import random
from typing import Callable

from . import abelian, combing, homs, presentations
from .abelian import AbelianInvariants
from .combing import ActionTable, build_action_table
from .words import Frozen, Word, gen_rho, invert_letters

DEFAULT_MAX_N = 6
DESK_SCALE_BOUND = 8
DEFAULT_SEED = 70839


Check = tuple  # (expected, got); see holds()
TableFactory = Callable[[int], ActionTable]


def holds(check: Check) -> bool:
    """The pass rule of every check: expected and got print the same."""
    expected, got = check
    return str(expected) == str(got)


class Case(Frozen):
    _fields = ("case_id", "description", "expected", "got")

    def __init__(self, case_id: str, description: str, expected: str, got: str):
        object.__setattr__(self, "case_id", case_id)
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "got", got)

    @property
    def passed(self) -> bool:
        return holds((self.expected, self.got))

    def to_json(self) -> dict:
        return {
            "id": self.case_id,
            "description": self.description,
            "expected": self.expected,
            "got": self.got,
            "pass": self.passed,
        }


class VerificationReport(Frozen):
    _fields = ("suite", "max_n", "cases")
    __hash__ = None

    def __init__(self, suite: str, max_n: int, cases: list[Case] | None = None):
        object.__setattr__(self, "suite", suite)
        object.__setattr__(self, "max_n", max_n)
        object.__setattr__(self, "cases", [] if cases is None else cases)

    def add(self, case_id: str, description: str, expected, got) -> None:
        self.cases.append(Case(case_id, description, str(expected), str(got)))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def to_json(self) -> dict:
        ordered = sorted(self.cases, key=lambda c: c.case_id)
        return {
            "suite": self.suite,
            "max_n": self.max_n,
            "cases": [c.to_json() for c in ordered],
            "pass": self.passed,
        }


def random_x_word(rng: random.Random, m: int, max_len: int) -> Word:
    """A random word over the combing alphabet of the m-strand group."""
    alphabet = combing.x_alphabet(m)
    length = rng.randint(0, max_len)
    letters = [
        (rng.choice(alphabet), rng.choice((1, -1))) for _ in range(length)
    ]
    return Word.from_letters(letters)


def _zero(bits) -> bool:
    return not any(bits)


# Checks: each returns (expected, got) for one parameter value.

def pn_abelianization(n: int) -> Check:
    return (AbelianInvariants(0, tuple([2] * n)),
            abelian.abelianize_presentation(presentations.build_pn_rp2(n)))


def gamma_abelianization_two_routes(m: int) -> Check:
    via_pres = abelian.abelianize_presentation(presentations.build_gamma_rp2(m, 2))
    via_tower = abelian.gamma_tower_abelianization(m)
    return (f"{AbelianInvariants(2 * m)} == {AbelianInvariants(2 * m)}",
            f"{via_pres} == {via_tower}")


def gamma_tower(m: int) -> Check:
    return AbelianInvariants(2 * m), abelian.gamma_tower_abelianization(m)


def ln_tower(n: int) -> Check:
    return AbelianInvariants(n * (n - 2)), abelian.ln_tower_abelianization(n)


def omega_delta(l: int) -> Check:
    return AbelianInvariants(2), abelian.delta_coinvariants(*abelian.omega_action(l))


def keromega_delta(l: int) -> Check:
    return AbelianInvariants(2 * l - 1), abelian.delta_coinvariants(*abelian.keromega_action(l))


def fn_coinvariants(surface: str, m: int, l: int) -> Check:
    rank = l if surface == "rp2" else m + l - 1
    return AbelianInvariants(rank), abelian.fn_kernel_coinvariants(surface, m, l)


def count_exponent(n: int) -> Check:
    return n * (n - 2), abelian.subgroup_count_exponent(n)


def vcd(surface: str, n: int) -> Check:
    return (n - 2 if surface == "rp2" else n - 3), abelian.vcd_report(surface, n)


def tower_ranks(n: int) -> Check:
    levels = range(n - 1, 1, -1)
    return ((list(levels), [2 * j - 1 for j in levels]),
            (combing.gamma_tower_ranks(n), combing.ln_tower_ranks(n)))


def table_round_trip(m: int, factory: TableFactory) -> Check:
    return True, not factory(m).round_trip_failures()


def section_splits(m: int) -> Check:
    """Strand forgetting after the section is the identity on generators."""
    gens = [Word.of(g) for g in presentations.build_gamma_rp2(m - 1, 2).generators]
    return True, all(homs.forget_strands(combing.section_s(m, w), m + 2, m + 1) == w
                     for w in gens)


def relators_comb_to_identity(m: int, factory: TableFactory = build_action_table) -> Check:
    return True, all(combing._comb_letters(m, r.letters, factory).is_identity
                     for r in presentations.build_gamma_rp2(m, 2).relators)


def inverse_products_comb_to_identity(rng: random.Random, m: int, samples: int,
                                      max_len: int,
                                      factory: TableFactory = build_action_table) -> Check:
    """Random words times their inverses comb to empty; stops drawing at the
    first failure."""
    words = (random_x_word(rng, m, max_len) for _ in range(samples))
    return True, all(
        combing._comb_letters(m, w.letters + invert_letters(w.letters), factory).is_identity
        for w in words
    )


def relator_insertion(rng: random.Random, m: int, samples: int, max_len: int,
                      factory: TableFactory = build_action_table) -> Check:
    """comb(u r v) == comb(u v) for random words u, v and a random relator r,
    drawn in that order; stops drawing at the first failure."""
    relators = presentations.build_gamma_rp2(m, 2).relators
    for _ in range(samples):
        u = random_x_word(rng, m, max_len)
        v = random_x_word(rng, m, max_len)
        r = rng.choice(relators)
        if combing._comb_letters(m, (u * r * v).letters, factory) != \
                combing._comb_letters(m, (u * v).letters, factory):
            return True, False
    return True, True


def ln_generators_killed(n: int) -> Check:
    return True, all(combing.ln_membership(n, g) for g in combing.ln_generators(n))


def ln_index(n: int) -> Check:
    """The surface letters hit every standard basis vector of (Z/2)^(n-2)."""
    images = {homs.iota_hat(n - 2, Word.of(gen_rho(j))) for j in range(3, n + 1)}
    basis = {tuple(1 if t == k else 0 for t in range(n - 2)) for k in range(n - 2)}
    return True, images == basis


def presentations_suite(max_n: int, rng: random.Random) -> VerificationReport:
    rep = VerificationReport("presentations", max_n)
    for n in range(1, max_n + 1):
        pres = presentations.build_pn_rp2(n)
        rep.add(
            f"pn-gencount-n{n}",
            f"generator count of the {n}-strand projective-plane group",
            n * (n - 1) // 2 + n,
            len(pres.generators),
        )
        rep.add(
            f"pn-relators-nonempty-n{n}",
            "all relators nonempty canonical words",
            True,
            all(not r.is_identity for r in pres.relators),
        )
        rep.add(
            f"pn-iota-kills-n{n}",
            "mod-2 exponent map kills every relator",
            True,
            all(_zero(homs.iota_sharp(n, r)) for r in pres.relators),
        )
        if n >= 2:
            rep.add(
                f"pn-q2-kills-n{n}",
                "quaternion evaluation kills every relator",
                True,
                all(homs.q2_sharp(n, r) == homs.Q_ONE for r in pres.relators),
            )
    for m in range(1, max(0, max_n - 2) + 1):
        pres = presentations.build_gamma_rp2(m, 2)
        rep.add(
            f"gamma-iota-hat-kills-m{m}",
            "restricted mod-2 map kills every two-puncture relator",
            True,
            all(_zero(homs.iota_hat(m, r)) for r in pres.relators),
        )
        if m <= 4:
            rep.add(f"gamma-comb-kills-m{m}",
                    "every two-puncture relator combs to the empty form",
                    *relators_comb_to_identity(m))
        if m >= 2 and m <= 4:
            rep.add(
                f"gamma-forget-hom-m{m}",
                "strand forgetting sends relators to trivial words",
                True,
                all(combing.comb(m - 1, homs.forget_strands(r, m + 2, m + 1)).is_identity
                    for r in pres.relators),
            )
    sphere = presentations.build_gamma_s2(1, 3)
    rep.add(
        "sphere-1-3-relator",
        "single-strand, three-puncture sphere group relator",
        "A[1,4] A[2,4] A[3,4]",
        " | ".join(str(r) for r in sphere.relators),
    )
    return rep


def combing_suite(max_n: int, rng: random.Random,
                  table_factory: Callable[[int], combing.ActionTable] = build_action_table,
                  samples: int = 100) -> VerificationReport:
    rep = VerificationReport("combing", max_n)
    for m in range(1, max_n + 1):
        rep.add(f"table-roundtrip-m{m}",
                "inverse row pairs compose to the identity on the kernel basis",
                *table_round_trip(m, table_factory))
    for m in range(2, max_n + 1):
        rep.add(f"section-id-m{m}",
                "strand forgetting after the section is the identity on generators",
                *section_splits(m))
    for m in range(1, min(max_n - 2, 4) + 1):
        rep.add(f"comb-relators-m{m}", "relators comb to the empty form",
                *relators_comb_to_identity(m, table_factory))
        rep.add(f"comb-inverse-m{m}",
                f"{samples} random words times their inverses comb to empty",
                *inverse_products_comb_to_identity(rng, m, samples, 40, table_factory))
        if m <= 3:
            # random-word normal forms grow exponentially with length, so
            # the insertion checks keep u and v short
            rep.add(f"comb-welldef-m{m}",
                    "inserting a relator does not change the combed form",
                    *relator_insertion(rng, m, samples // 2, 8, table_factory))
    for n in range(3, max_n + 1):
        rep.add(f"ln-gens-killed-n{n}",
                "restricted mod-2 map kills the torsion-free generators",
                *ln_generators_killed(n))
        rep.add(f"ln-index-n{n}",
                "surface letters hit every standard basis vector (index 2^(n-2))",
                *ln_index(n))
        rep.add(f"tower-ranks-n{n}", "tower rank lists match the closed forms",
                *tower_ranks(n))
    return rep


def abelianizations_suite(max_n: int, rng: random.Random) -> VerificationReport:
    rep = VerificationReport("abelianizations", max_n)
    for n in range(1, max_n + 1):
        rep.add(f"pn-ab-n{n}",
                f"abelianization of the {n}-strand projective-plane group",
                *pn_abelianization(n))
    for m in range(1, max(0, max_n - 2) + 1):
        rep.add(f"gamma-ab-two-routes-m{m}",
                "presentation and tower abelianizations agree",
                *gamma_abelianization_two_routes(m))
    for l in range(3, max_n + 1):
        rep.add(f"delta-omega-l{l}", "coinvariants of the level free kernel",
                *omega_delta(l))
        rep.add(f"delta-keromega-l{l}", "coinvariants of the index-2 kernel factor",
                *keromega_delta(l))
    for l in range(2, 5):
        for m in range(1, 4):
            rep.add(f"fn-coinv-rp2-m{m}-l{l}",
                    "strand-forgetting kernel coinvariants, projective plane",
                    *fn_coinvariants("rp2", m, l))
    for l in range(3, 5):
        for m in range(1, 4):
            rep.add(f"fn-coinv-s2-m{m}-l{l}",
                    "strand-forgetting kernel coinvariants, sphere",
                    *fn_coinvariants("s2", m, l))
    return rep


def towers_suite(max_n: int, rng: random.Random) -> VerificationReport:
    rep = VerificationReport("towers", max_n)
    for m in range(1, max(0, max_n - 2) + 1):
        rep.add(f"gamma-tower-m{m}", "tower abelianization of the two-puncture group",
                *gamma_tower(m))
    for n in range(3, max_n + 1):
        rep.add(f"ln-tower-n{n}",
                "tower abelianization of the torsion-free complement",
                *ln_tower(n))
    return rep


def counts_suite(max_n: int, rng: random.Random) -> VerificationReport:
    rep = VerificationReport("counts", max_n)
    for n in range(3, max_n + 1):
        expected, exponent = count_exponent(n)
        rep.add(f"count-exponent-n{n}",
                f"n={n}: exponent {exponent}, count {2 ** exponent}",
                expected, exponent)
    return rep


def vcd_suite(max_n: int, rng: random.Random) -> VerificationReport:
    rep = VerificationReport("vcd", max_n)
    for n in range(3, max_n + 1):
        rep.add(f"vcd-rp2-n{n}", f"RP2 n={n}", *vcd("rp2", n))
    for n in range(4, max_n + 1):
        rep.add(f"vcd-s2-n{n}", f"S2 n={n}", *vcd("s2", n))
    return rep


SUITES: dict[str, Callable[[int, random.Random], VerificationReport]] = {
    "presentations": presentations_suite,
    "combing": combing_suite,
    "abelianizations": abelianizations_suite,
    "towers": towers_suite,
    "counts": counts_suite,
    "vcd": vcd_suite,
}


def run_suite(name: str, max_n: int = DEFAULT_MAX_N,
              seed: int = DEFAULT_SEED) -> list[VerificationReport]:
    """Run one suite (or ``all``) and return its reports."""
    if not 1 <= max_n <= DESK_SCALE_BOUND:
        raise ValueError(f"max-n must be between 1 and {DESK_SCALE_BOUND}")
    rng = random.Random(seed)
    if name == "all":
        return [suite(max_n, rng) for suite in SUITES.values()]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return [SUITES[name](max_n, rng)]
