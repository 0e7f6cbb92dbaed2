"""The four benchmark workloads.

Each workload object provides

* ``setup(seed, tr)`` -- warms the library's caches and generates one
  pass of operations from the seed;
* ``run(op, tr)`` -- the timed library calls of one operation; returns
  ``(value, combs)`` where ``combs`` lists ``(m, word, combed form)`` for
  every ``comb`` call the operation made;
* ``check(op, value)`` -- compares the value with the expectation carried
  by the op.  Expectations are closed forms computed from the op's
  parameters, pairwise equalities, or digests recorded in
  ``expected.json``; none is computed by the code under test at run time;
* ``wrong(ops)`` -- for the negative control: per check, one op with a
  wrong expectation, which that check must reject.

``tr`` is a tracer (see ``run.py``): ``tr.span(name)`` wraps each call into
a library layer and ``tr.count(name, n)`` records work done there.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

from sbk import verify
from sbk.abelian import (
    exponent_matrix,
    fn_kernel_coinvariants,
    gamma_tower_levels,
    ln_tower_levels,
    snf,
    tower_abelianization,
)
from sbk.combing import build_action_table, comb, to_x_letters, x_alphabet
from sbk.homs import forget_strands, iota_hat, iota_sharp, q2_sharp
from sbk.presentations import build_gamma_rp2, build_pn_rp2
from sbk.words import Word, gen_a, gen_rho, gen_tau, parse_word

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


class Op(NamedTuple):
    kind: str
    args: tuple
    expect: object


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def form_digest(form) -> str:
    return digest(json.dumps(form.to_json()))


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def stratified(rng: random.Random, k: int, choices) -> list:
    """k draws that use every choice equally often (give or take one), in
    seeded order.  Drawing lengths and relators jointly this way keeps a
    pass's mix of input shapes the same for every seed, so seeds differ
    only in the letters drawn."""
    pool = list(choices)
    rng.shuffle(pool)
    values = [pool[i % len(pool)] for i in range(k)]
    rng.shuffle(values)
    return values


def random_x_word(rng: random.Random, alphabet, length: int) -> Word:
    return Word.from_letters(
        (rng.choice(alphabet), rng.choice((1, -1))) for _ in range(length)
    )


def warm(m: int, tr) -> None:
    """First comb at strand count m: builds the action tables and kernel
    parts of every level and the expansions of the eliminated band
    generators A[j-1,j]."""
    word = Word.from_letters((gen_a(j - 1, j), 1) for j in range(3, m + 3))
    with tr.span("combing.warm"):
        comb(m, word)


class Insertion:
    """Relator insertion (acceptance criterion 6) plus relator conjugates.

    A pair op checks comb(m, u*r*v) == comb(m, u*v); a conjugate op checks
    that u*r*u^-1 combs to the identity.  Conjugates replace w*w^-1, which
    Word multiplication cancels before comb runs.
    """

    name = "insertion"
    # criterion 6 uses lengths {1: 10, 2: 10, 3: 8, 4: 6}; at those lengths a
    # handful of inputs set a pass's wall time and peak RSS (see README.md)
    max_len = {1: 10, 2: 10, 3: 5, 4: 3}
    pairs = {1: 200, 2: 800, 3: 3000, 4: 2200}
    conj_every = 8

    def setup(self, seed: int, tr) -> list[Op]:
        rng = random.Random(seed)
        ops: list[Op] = []
        for m in range(1, 5):
            warm(m, tr)
            with tr.span("presentations.build"):
                relators = build_gamma_rp2(m, 2).relators
            tr.count("presentations.relators", len(relators))
            alphabet = x_alphabet(m)
            lengths = range(self.max_len[m] + 1)
            shapes = [(r, a, b) for r in relators for a in lengths for b in lengths]
            for i, (r, len_u, len_v) in enumerate(stratified(rng, self.pairs[m], shapes)):
                u = random_x_word(rng, alphabet, len_u)
                v = random_x_word(rng, alphabet, len_v)
                ops.append(Op("pair", (m, u, r, v), True))
                if i % self.conj_every == 0:
                    ops.append(Op("conj", (m, u, r), True))
        rng.shuffle(ops)
        return ops

    def run(self, op: Op, tr):
        if op.kind == "pair":
            m, u, r, v = op.args
            with tr.span("words.build"):
                x = u * r * v
                y = u * v
            with tr.span("combing.comb"):
                a = comb(m, x)
            with tr.span("combing.comb"):
                b = comb(m, y)
            return (a, b), ((m, x, a), (m, y, b))
        m, u, r = op.args
        with tr.span("words.build"):
            x = u * r * ~u
        with tr.span("combing.comb"):
            a = comb(m, x)
        return a, ((m, x, a),)

    def check(self, op: Op, value) -> bool:
        if op.kind == "pair":
            a, b = value
            return (a == b) == op.expect
        return value.is_identity == op.expect

    def wrong(self, ops: list[Op]) -> list[tuple[str, Op]]:
        """Claim that a generator is a relator: inserting it must change
        the combed form, and conjugating by it must not give the identity."""
        out = []
        for kind in ("pair", "conj"):
            op = next(o for o in ops if o.kind == kind and o.args[0] >= 2)
            m = op.args[0]
            fake = Word.of(gen_rho(m + 2))
            args = (m, op.args[1], fake) + op.args[3:]
            out.append((kind, Op(kind, args, True)))
        return out


class Powers:
    """Single-letter powers g^N; one long input from a single table row."""

    name = "powers"
    gens = {
        2: ("A[1,3]", "rho[3]", "A[2,3]"),
        3: ("A[1,4]", "rho[4]", "A[2,4]", "A[1,3]"),
    }
    max_n = 160
    strata = 30

    def setup(self, seed: int, tr) -> list[Op]:
        rng = random.Random(seed)
        table = load_expected()["powers"]
        ops: list[Op] = []
        for m, names in self.gens.items():
            warm(m, tr)
            for name in names:
                gen = parse_word(name).letters[0][0]
                # one N per stratum of 1..max_n, so every seed sweeps the range
                for s in range(self.strata):
                    n = rng.randint(s * self.max_n // self.strata + 1,
                                    (s + 1) * self.max_n // self.strata)
                    ops.append(Op("digest", (m, gen, n), table[power_key(m, name, n)]))
        rng.shuffle(ops)
        return ops

    def run(self, op: Op, tr):
        m, gen, n = op.args
        with tr.span("words.build"):
            w = Word.of(gen) ** n
        with tr.span("combing.comb"):
            form = comb(m, w)
        return form, ((m, w, form),)

    def check(self, op: Op, value) -> bool:
        return form_digest(value) == op.expect

    def wrong(self, ops: list[Op]) -> list[tuple[str, Op]]:
        op = ops[0]
        return [("digest", op._replace(expect=digest("not a normal form")))]


def power_key(m: int, name: str, n: int) -> str:
    return f"{m} {name} {n}"


class Abelian:
    """Smith normal form and presentation path on fixed grids.  The seed
    is not used: every input is a grid point, and a seeded order made the
    small ops' times depend on which large op ran just before them."""

    name = "abelian"
    pn_ns = range(4, 23)
    gamma_ms = range(1, 9)
    ln_ns = range(3, 11)
    fn_rp2 = [(m, l) for l in range(2, 8) for m in range(1, 7)]
    fn_s2 = [(m, l) for l in range(3, 8) for m in range(1, 7)]

    def setup(self, seed: int, tr) -> list[Op]:
        # the tower data reads the action tables of strand counts up to 8
        with tr.span("combing.warm"):
            for m in range(1, max(self.gamma_ms) + 1):
                build_action_table(m)
        ops = [Op("pn", (n,), (0, (2,) * n)) for n in self.pn_ns]
        ops += [Op("gamma-pres", (m,), (2 * m, ())) for m in self.gamma_ms]
        ops += [Op("gamma-tower", (m,), (2 * m, ())) for m in self.gamma_ms]
        ops += [Op("ln", (n,), (n * (n - 2), ())) for n in self.ln_ns]
        ops += [Op("fn-rp2", (m, l), (l, ())) for m, l in self.fn_rp2]
        ops += [Op("fn-s2", (m, l), (m + l - 1, ())) for m, l in self.fn_s2]
        return ops

    def run(self, op: Op, tr):
        kind, args = op.kind, op.args
        if kind in ("pn", "gamma-pres"):
            with tr.span("presentations.build"):
                pres = build_pn_rp2(args[0]) if kind == "pn" else build_gamma_rp2(args[0], 2)
            tr.count("presentations.relators", len(pres.relators))
            with tr.span("abelian.matrix"):
                matrix = exponent_matrix(pres)
            tr.count("abelian.matrix_entries", matrix.rows * matrix.cols)
            with tr.span("abelian.snf"):
                inv = snf(matrix)
        elif kind in ("gamma-tower", "ln"):
            with tr.span("abelian.tower_data"):
                levels = gamma_tower_levels(args[0]) if kind == "gamma-tower" \
                    else ln_tower_levels(args[0])
            with tr.span("abelian.delta"):
                inv = tower_abelianization(levels)
        else:
            with tr.span("abelian.delta"):
                inv = fn_kernel_coinvariants(kind[3:], *args)
        return (inv.free_rank, inv.torsion), ()

    def check(self, op: Op, value) -> bool:
        return value == op.expect

    def wrong(self, ops: list[Op]) -> list[tuple[str, Op]]:
        out = []
        for kind in ("pn", "gamma-pres", "gamma-tower", "ln", "fn-rp2", "fn-s2"):
            op = next(o for o in ops if o.kind == kind)
            free, torsion = op.expect
            bad = (free, torsion + (2,)) if kind == "pn" else (free + 1, torsion)
            out.append((kind, op._replace(expect=bad)))
        return out


VERIFY_ARGV = ("verify", "--suite", "all", "--max-n", "8")


def json_documents(text: str):
    """The JSON documents in text, or None if anything else is there."""
    decoder = json.JSONDecoder()
    docs = []
    i, n = 0, len(text)
    while True:
        while i < n and text[i].isspace():
            i += 1
        if i == n:
            return docs
        try:
            doc, i = decoder.raw_decode(text, i)
        except ValueError:
            return None
        docs.append(doc)


def cli_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("SBK_SEED", None)  # the verify suites use their default seed
    return env


def run_cli(argv, env) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "sbk.cli", *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=150,
    )
    return proc.returncode, proc.stdout


class Cli:
    """The sbk command run as a subprocess, one call at a time."""

    name = "cli"
    counts = {"nf": 30, "eval": 30, "abelianize": 12, "info": 12, "error": 16}
    startup_samples = 5

    def setup(self, seed: int, tr) -> list[Op]:
        rng = random.Random(seed)
        self.env = cli_env()
        by_category: dict[str, list] = {}
        for argv, rc, sha in load_expected()["cli"]:
            if tuple(argv) == VERIFY_ARGV:
                verify_op = Op("cli", VERIFY_ARGV, {"rc": rc, "docs": 1, "sha": sha, "pass": True})
            else:
                category = "error" if rc == 2 else argv[0]
                by_category.setdefault(category, []).append((argv, rc, sha))
        ops = [verify_op]
        for category, k in self.counts.items():
            for argv, rc, sha in rng.sample(by_category[category], k):
                ops.append(Op("cli", tuple(argv), {"rc": rc, "docs": 1, "sha": sha}))
        rng.shuffle(ops)
        return ops

    def run(self, op: Op, tr):
        with tr.span("cli.call"):
            rc, out = run_cli(op.args, self.env)
        if rc == 2:
            tr.count("cli.exit2_calls", 1)
        return (rc, out), ()

    def check(self, op: Op, value) -> bool:
        rc, out = value
        want = op.expect
        docs = json_documents(out)
        if rc != want["rc"] or docs is None or len(docs) != want["docs"]:
            return False
        if digest(out) != want["sha"]:
            return False
        if "pass" in want and docs[0].get("pass") is not want["pass"]:
            return False
        return True

    def wrong(self, ops: list[Op]) -> list[tuple[str, Op]]:
        verify_op = next(o for o in ops if o.args == VERIFY_ARGV)
        plain = next(o for o in ops if o.args != VERIFY_ARGV)
        return [
            ("exit code", plain._replace(expect={**plain.expect, "rc": 1})),
            ("one document", plain._replace(expect={**plain.expect, "docs": 2})),
            ("digest", plain._replace(expect={**plain.expect, "sha": digest("")})),
            ("verify pass", verify_op._replace(expect={**verify_op.expect, "pass": False})),
        ]

    def probe(self, ops: list[Op], tr) -> None:
        """Layer times the subprocess calls hide, taken in this process on
        the same inputs: parsing, homomorphism evaluation, the six verify
        suites, and the start-up of a bare interpreter importing sbk."""
        for op in ops:
            argv = op.args
            if "--word" not in argv:
                continue
            flags = dict(zip(argv[1::2], argv[2::2]))
            try:
                with tr.span("words.parse"):
                    word = parse_word(flags["--word"])
            except ValueError:
                continue
            if argv[0] == "eval" and op.expect["rc"] == 0:
                with tr.span("homs.eval"):
                    evaluate(flags, word)
        for name in verify.SUITES:
            with tr.span(f"verify.suite.{name}"):
                reports = verify.run_suite(name, 8, verify.DEFAULT_SEED)
            tr.count("verify.cases", sum(len(r.cases) for r in reports))
        for _ in range(self.startup_samples):
            with tr.span("cli.startup"):
                subprocess.run([sys.executable, "-c", "import sbk"], env=self.env,
                               cwd=ROOT, check=True, timeout=60)


def evaluate(flags: dict, word: Word):
    hom, n = flags["--hom"], int(flags["--n"])
    if hom in ("iota", "abelianize"):
        return iota_sharp(n, word)
    if hom == "iota-hat":
        return iota_hat(n, word)
    if hom == "q2":
        return q2_sharp(n, word)
    return forget_strands(word, n, int(flags["--to"]))


WORKLOADS = {w.name: w for w in (Insertion, Powers, Abelian, Cli)}


def cli_catalogue(rng: random.Random) -> list[list[str]]:
    """Every command the cli workload may draw.  Regenerate expected.json
    with make_expected.py after changing this."""
    cat: list[list[str]] = []
    for _ in range(90):
        m = rng.randint(1, 3)
        alphabet = x_alphabet(m) + tuple(gen_a(j - 1, j) for j in range(3, m + 3))
        w = random_x_word(rng, alphabet, rng.randint(1, 6))
        cat.append(["nf", "--m", str(m), "--word", str(w)])
    for m in range(1, 4):
        for r in build_gamma_rp2(m, 2).relators[:5]:
            cat.append(["nf", "--m", str(m), "--word", str(r)])
    for _ in range(90):
        hom = rng.choice(("iota", "iota-hat", "q2", "forget", "abelianize"))
        n = rng.randint(2, 6)
        if hom == "iota-hat":
            alphabet = x_alphabet(n) + tuple(gen_a(j - 1, j) for j in range(3, n + 3))
        else:
            alphabet = tuple(gen_a(i, j) for j in range(2, n + 1) for i in range(1, j))
            alphabet += tuple(gen_tau(k) for k in range(1, n + 1))
            alphabet += tuple(gen_rho(k) for k in range(1, n + 1))
        w = random_x_word(rng, alphabet, rng.randint(1, 8))
        argv = ["eval", "--hom", hom, "--n", str(n)]
        if hom == "forget":
            argv += ["--to", str(rng.randint(1, n - 1))]
        cat.append(argv + ["--word", str(w)])
    specs = [f"pn-rp2:n={n}" for n in range(1, 9)]
    specs += [f"gamma-rp2:m={m},p=2" for m in range(1, 6)]
    specs += [f"gamma-s2:n={n},m={m}" for n in range(1, 4) for m in (3, 4)]
    specs += [f"ln:n={n}" for n in range(3, 7)]
    for spec in specs:
        cat.append(["abelianize", "--group", spec])
        cat.append(["info", "--group", spec])
    bad_words = ["A[2,1]", "rho[0]", "A[1,3]^0", "A[1,3]A[1,4]", "foo[1]",
                 "A[1,3] ^2", "rho[3]^", "A[1,3],", "tau[3]", "A[1,99]"]
    for w in bad_words:
        cat.append(["nf", "--m", "2", "--word", w])
    cat += [
        ["nf", "--m", "0", "--word", "rho[3]"],
        ["nf", "--m", "1", "--word", "A[1,5]"],
        ["eval", "--hom", "forget", "--n", "4", "--word", "A[1,2]"],
        ["eval", "--hom", "iota", "--n", "3", "--word", "A[1,5]"],
        ["eval", "--hom", "q2", "--n", "1", "--word", "A[1,2]"],
        ["eval", "--hom", "iota", "--n", "4", "--word", "s[1]"],
        ["eval", "--hom", "iota-hat", "--n", "2", "--word", "rho[9]"],
        ["eval", "--hom", "forget", "--n", "3", "--to", "3", "--word", "A[1,2]"],
        ["abelianize", "--group", "pn-rp2"],
        ["abelianize", "--group", "gamma-rp2:m=2"],
        ["abelianize", "--group", "xx:n=3"],
        ["abelianize", "--group", "pn-rp2:n=x"],
        ["abelianize", "--group", "pn-rp2:n=0"],
        ["abelianize", "--group", "ln:n=2"],
        ["info", "--group", "gamma-s2:n=0,m=3"],
        ["info", "--group", "ln:n=2"],
        ["info", "--group", "bogus"],
        ["verify", "--suite", "towers", "--max-n", "9"],
        ["verify", "--suite", "vcd", "--max-n", "0"],
    ]
    cat.append(list(VERIFY_ARGV))
    return cat
