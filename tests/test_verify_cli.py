import contextlib
import hashlib
import importlib.machinery
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sbk
from sbk import combing, verify
from sbk.cli import (
    GAMMA_RP2_MAX_STRANDS,
    GAMMA_S2_MAX_STRANDS,
    LN_MAX_N,
    NF_MAX_M,
    PN_RP2_MAX_N,
    _parse_group_spec,
    main,
)
from sbk.combing import ActionTable, _Row
from sbk.words import gen_a, gen_rho

# child interpreters import sbk from this checkout, as the tests do
SRC = str(Path(__file__).resolve().parents[1] / "src")
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "sbk.cli", *argv],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_eval_iota_all_ones():
    rc, out, _ = run_cli(
        "eval", "--hom", "iota", "--n", "4", "--word", "rho[4] rho[3] rho[2] rho[1]"
    )
    assert rc == 0
    assert json.loads(out) == {"value": [1, 1, 1, 1], "display": "(1,1,1,1)"}


def test_nf_empty():
    rc, out, _ = run_cli("nf", "--m", "2", "--word", "rho[4] rho[4]^-1")
    assert rc == 0
    assert json.loads(out) == ["", ""]


def test_abelianize_gamma():
    rc, out, _ = run_cli("abelianize", "--group", "gamma-rp2:m=2,p=2")
    assert rc == 0
    assert json.loads(out)["display"] == "Z^4"


def test_abelianize_ln_tower_route():
    rc, out, _ = run_cli("abelianize", "--group", "ln:n=4")
    assert rc == 0
    assert json.loads(out)["free_rank"] == 8


def test_eval_forget():
    rc, out, _ = run_cli(
        "eval", "--hom", "forget", "--n", "4", "--to", "3",
        "--word", "rho[2] A[1,4] rho[3]",
    )
    assert rc == 0
    assert json.loads(out)["value"] == "rho[2] rho[3]"


def test_info_presentation():
    rc, out, _ = run_cli("info", "--group", "pn-rp2:n=2")
    assert rc == 0
    data = json.loads(out)
    assert data["generator_count"] == 3
    assert "tau[1]" in data["generators"]


def test_closed_stdout_ends_quietly():
    # the output (about 175 KB) is larger than a pipe buffer, so a reader
    # that stops after 150 bytes closes the pipe before the write ends
    with subprocess.Popen(
        [sys.executable, "-m", "sbk.cli", "info", "--group", "pn-rp2:n=12"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV,
    ) as proc:
        assert len(proc.stdout.read(150)) == 150
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait() == 0
    assert err == b""


def test_input_error_exit_code_2():
    rc, out, err = run_cli("eval", "--hom", "iota", "--n", "3", "--word", "A[3,2]")
    assert rc == 2
    assert "error" in json.loads(out)
    assert err.strip()


def test_usage_error_exit_code_2():
    # argparse usage errors keep the usage text on stderr and print one JSON
    # document on stdout, like every other exit-2 input
    for argv in (("nf", "--m", "1", "--word", "-x"),
                 ("eval", "--hom", "nonsense", "--n", "3", "--word", "A[1,2]")):
        rc, out, err = run_cli(*argv)
        assert rc == 2, argv
        assert out.count("\n") == 1 and out.endswith("\n"), argv
        assert "error" in json.loads(out), argv
        assert "usage:" in err, argv
    rc, out, _ = run_cli("verify", "--suite", "counts", "--max-n", "99")
    assert rc == 2
    assert "error" in json.loads(out)


VERIFY_USAGE = (
    "usage: sbk verify [-h] --suite\n"
    "                  {abelianizations,combing,counts,presentations,towers,vcd,all}\n"
    "                  [--max-n MAX_N]\n"
)
BOGUS_SUITE = ("argument --suite: invalid choice: 'bogus' (choose from 'abelianizations', "
               "'combing', 'counts', 'presentations', 'towers', 'vcd', 'all')")


def test_verify_help_and_bad_suite_are_pinned(capsys, monkeypatch):
    # the verify arguments are added only once that subcommand is parsed;
    # its help and usage errors keep their text byte for byte
    monkeypatch.setenv("COLUMNS", "80")
    capsys.readouterr()
    assert main(["verify", "--help"]) == 0
    assert capsys.readouterr() == (
        VERIFY_USAGE + "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --suite {abelianizations,combing,counts,presentations,towers,vcd,all}\n"
        "  --max-n MAX_N         strand bound, at most 8 (default 6)\n",
        "",
    )
    assert main(["verify", "--suite", "bogus"]) == 2
    assert capsys.readouterr() == (
        json.dumps({"error": BOGUS_SUITE}) + "\n",
        VERIFY_USAGE + f"sbk verify: error: {BOGUS_SUITE}\n",
    )


def test_nf_strand_count_is_capped():
    # every level's action table is built whatever the word, so m is capped
    # before the comber is imported; m = 0 keeps its own message
    rc, out, _ = run_cli("nf", "--m", str(NF_MAX_M), "--word", "rho[3]")
    assert rc == 0
    assert len(json.loads(out)) == NF_MAX_M
    rc, out, err = run_cli("nf", "--m", str(NF_MAX_M + 1), "--word", "rho[3]")
    assert rc == 2
    assert json.loads(out) == {"error": f"m must be between 1 and {NF_MAX_M}"}
    assert err == f"error: m must be between 1 and {NF_MAX_M}\n"
    rc, out, _ = run_cli("nf", "--m", "0", "--word", "rho[3]")
    assert rc == 2
    assert json.loads(out) == {"error": "m must be >= 1"}


def test_group_strand_counts_are_capped(capsys):
    # info and abelianize cap each family's strand count, punctures
    # included, before the module that builds the group is imported
    for family, names, cap in (("pn-rp2", ("n",), PN_RP2_MAX_N),
                               ("gamma-rp2", ("m", "p"), GAMMA_RP2_MAX_STRANDS),
                               ("gamma-s2", ("n", "m"), GAMMA_S2_MAX_STRANDS),
                               ("ln", ("n",), LN_MAX_N)):
        values = [cap - len(names) + 1] + [1] * (len(names) - 1)
        at_cap = ",".join(f"{k}={v}" for k, v in zip(names, values))
        _parse_group_spec(f"{family}:{at_cap}")
        values[0] += 1
        over = ",".join(f"{k}={v}" for k, v in zip(names, values))
        with pytest.raises(ValueError, match=f"^{' [+] '.join(names)} must be at most {cap}$"):
            _parse_group_spec(f"{family}:{over}")
    for argv in (("info", "--group", "pn-rp2:n=200"), ("abelianize", "--group", "ln:n=40")):
        rc, out, _ = run_cli(*argv)
        assert rc == 2 and out.count("\n") == 1, argv
        assert "must be at most" in json.loads(out)["error"], argv
        loaded = _modules_loaded_by(list(argv))
        assert not loaded & {"sbk.presentations", "sbk.abelian", "sbk.combing"}, argv
    # inputs below 1 and missing parameters keep their own messages
    capsys.readouterr()
    assert main(["abelianize", "--group", "gamma-rp2:m=50,p=-1"]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": "m and p must be >= 1"}
    with pytest.raises(KeyError, match="'p'"):
        _parse_group_spec("gamma-rp2:m=50")


def test_eval_strand_counts_are_capped():
    # eval caps --n and --to at the pn-rp2 cap before sbk.homs is imported
    cap = PN_RP2_MAX_N
    rc, out, _ = run_cli("eval", "--hom", "iota", "--n", str(cap), "--word", f"rho[{cap}]")
    assert rc == 0
    assert json.loads(out)["value"] == [0] * (cap - 1) + [1]
    rc, out, _ = run_cli("eval", "--hom", "forget", "--n", str(cap), "--to", str(cap - 1),
                         "--word", f"rho[{cap}] rho[1]")
    assert rc == 0 and json.loads(out) == {"value": "rho[1]"}
    for argv in (["eval", "--hom", "iota", "--n", "1000000", "--word", "rho[1]"],
                 ["eval", "--hom", "iota-hat", "--n", str(cap + 1), "--word", "rho[3]"],
                 ["eval", "--hom", "forget", "--n", "5", "--to", str(cap + 1),
                  "--word", "rho[1]"]):
        rc, out, err = run_cli(*argv)
        assert rc == 2 and out.count("\n") == 1, argv
        assert json.loads(out) == {"error": f"n must be at most {cap}"}, argv
        assert err == f"error: n must be at most {cap}\n", argv
        assert "sbk.homs" not in _modules_loaded_by(argv), argv


def _modules_loaded_by(argv):
    """The modules a fresh interpreter loads to import sbk.cli and run
    ``main(argv)``, or only to import sbk when argv is None."""
    code = (
        "import contextlib, io, json, sys\n"
        "argv = json.loads(sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "sink = io.StringIO()\n"
        "with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):\n"
        "    if argv is None:\n"
        "        import sbk\n"
        "    else:\n"
        "        import sbk.cli\n"
        "        sbk.cli.main(argv)\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argv)],
                          capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_each_command_loads_only_what_it_runs():
    def sbk_modules(argv):
        loaded = _modules_loaded_by(argv)
        assert "dataclasses" not in loaded, argv
        return {name for name in loaded if name.partition(".")[0] == "sbk"}

    assert sbk_modules(None) == {"sbk"}
    assert sbk_modules(["eval", "--hom", "q2", "--n", "3", "--word", "A[1,2] rho[3]"]) == \
        {"sbk", "sbk.cli", "sbk.words", "sbk.homs"}
    nf = sbk_modules(["nf", "--m", "2", "--word", "A[1,3]^3 rho[4]"])
    assert "sbk.combing" in nf and not nf & {"sbk.abelian", "sbk.verify"}
    for argv in (["nf", "--m", "2", "--word", "A[1,3]A[1,4]"],
                 ["nf", "--m", "2", "--word", "rho[3]", "--bogus"],
                 ["nf", "--m", str(NF_MAX_M + 1), "--word", "rho[3]"]):
        assert "sbk.combing" not in sbk_modules(argv), argv
    assert "sbk.combing" not in sbk_modules(["info", "--group", "pn-rp2:n=3"])
    assert "sbk.verify" in sbk_modules(["verify", "--suite", "counts", "--max-n", "3"])


def test_package_names_are_their_submodules_objects():
    # sbk reads each public name from its submodule on first use
    assert len(sbk.__all__) == 40
    listed = dir(sbk)
    for name in sbk.__all__:
        value = getattr(sbk, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"sbk.{name}"]
        else:
            assert value is getattr(sys.modules[value.__module__], name)
            assert value.__module__.startswith("sbk.")
        assert name in listed
    with pytest.raises(AttributeError):
        sbk.no_such_name


def test_out_of_memory_is_an_input_error(capsys, monkeypatch):
    # an input too large for memory exits 2 with one JSON document and no
    # traceback; comb is made to raise, so nothing large is allocated
    def exhausted(m, w):
        raise MemoryError

    monkeypatch.setattr(combing, "comb", exhausted)
    capsys.readouterr()
    assert main(["nf", "--m", "2", "--word", "A[1,3]^100000"]) == 2
    out, err = capsys.readouterr()
    assert out.count("\n") == 1 and json.loads(out) == {"error": "out of memory"}
    assert err == "error: out of memory\n"


def test_compile_failure_of_a_lazy_import_is_out_of_memory(capsys, monkeypatch):
    # short of memory, CPython's parser reports an AST node it could not
    # allocate as a missing field, or a rule it could not finish as a syntax
    # error; here the compile of sbk.abelian, which abelianize imports once
    # its input is read, is made to fail both ways
    get_code = importlib.machinery.SourceFileLoader.get_code
    error = None

    def compile_fails(loader, fullname):
        if fullname == "sbk.abelian":
            raise error
        return get_code(loader, fullname)

    monkeypatch.setattr(importlib.machinery.SourceFileLoader, "get_code", compile_fails)
    monkeypatch.delitem(sys.modules, "sbk.abelian")
    monkeypatch.delattr(sbk, "abelian")
    for error in (ValueError("field 'target' is required for AnnAssign"),
                  SyntaxError("expected ':'")):
        capsys.readouterr()
        assert main(["abelianize", "--group", "pn-rp2:n=3"]) == 2, error
        out, err = capsys.readouterr()
        assert out.count("\n") == 1 and json.loads(out) == {"error": "out of memory"}, error
        assert err == "error: out of memory\n", error
    # an input error keeps its own text
    assert main(["abelianize", "--group", "pn-rp2:k=3"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "unknown parameter 'k' for group family 'pn-rp2'"}


def _cli_under_memory_cap(limit, *argv, timeout=10):
    """``sbk`` on argv in a child whose address space alone is capped at
    ``limit`` bytes."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "sbk.cli", *argv],
        capture_output=True, text=True, env=CHILD_ENV, preexec_fn=cap, timeout=timeout,
    )


def _nf_under_memory_cap(word):
    """``sbk nf --m 2`` on the word in a child capped at 1 GiB."""
    return _cli_under_memory_cap(2**30, "nf", "--m", "2", "--word", word)


def test_oversized_power_exits_2_under_a_memory_cap():
    # A[1,3]^1000000000 has a closed form of 8e9 letters, and A[2,3]^1000000000
    # one whose blocks' end letters merge: under a capped address space
    # writing either out fails at once, and the child exits 2 with one JSON
    # document instead of stepping the power for hours
    for word in ("A[1,3]^1000000000", "A[2,3]^1000000000"):
        proc = _nf_under_memory_cap(word)
        assert proc.returncode == 2, word
        assert json.loads(proc.stdout) == {"error": "out of memory"}, word


@pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"), reason="no address-space limit")
def test_power_of_a_row_image_exits_2_within_2_s_in_300_mb():
    # rho[3]^-1 maps rho[5]^1000000000 through that power of a row image,
    # P C^1000000000 P^-1, written out in one allocation that fails at once
    start = time.perf_counter()
    proc = _cli_under_memory_cap(300 * 2**20, "nf", "--m", "3", "--word",
                                 "rho[3]^-1 rho[5]^1000000000 A[1,4]^2")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    assert proc.stdout.count("\n") == 1
    assert json.loads(proc.stdout) == {"error": "out of memory"}
    assert elapsed < 2, elapsed


def test_exponent_past_the_index_range_exits_2_at_once():
    # w^N for N >= 2^63 cannot even be asked of a list repetition: the
    # OverflowError is reported as the out-of-memory error it is
    for argv in (("nf", "--m", "2", "--word", "A[1,3]^99999999999999999999"),
                 ("eval", "--hom", "forget", "--n", "3", "--to", "2",
                  "--word", "tau[1]^99999999999999999999")):
        start = time.perf_counter()
        rc, out, _ = run_cli(*argv)
        elapsed = time.perf_counter() - start
        assert rc == 2, argv
        assert out.count("\n") == 1, argv
        assert json.loads(out) == {"error": "out of memory"}, argv
        assert elapsed < 5, (argv, elapsed)


def test_oversized_eliminated_power_exits_2_under_a_memory_cap():
    # at its own level A[3,4] multiplies in 10^9 copies of its top word, the
    # solved surface relation; they fail to fit at once in the same way
    proc = _nf_under_memory_cap("A[3,4]^1000000000")
    assert proc.returncode == 2
    assert proc.stdout.count("\n") == 1
    assert json.loads(proc.stdout) == {"error": "out of memory"}


@pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"), reason="no address-space limit")
def test_forget_large_tau_power_fits_in_300_mb():
    # the forgotten letters leave tau[2]'s image before it is raised to the
    # exponent, so the result is one letter and is never built long
    start = time.perf_counter()
    proc = _cli_under_memory_cap(300 * 2**20, "eval", "--hom", "forget", "--n", "3",
                                 "--to", "2", "--word", "tau[2]^1000000")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout
    assert json.loads(proc.stdout) == {"value": "rho[2]^-1000000"}
    assert elapsed < 2, elapsed


@pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"), reason="no address-space limit")
def test_forget_of_a_long_value_fits_in_300_mb_and_is_pinned():
    # tau[1]^1000000 forgets to a 2,000,000-letter value over two letters:
    # its text joins one shared string per distinct letter
    proc = _cli_under_memory_cap(300 * 2**20, "eval", "--hom", "forget", "--n", "3",
                                 "--to", "2", "--word", "tau[1]^1000000", timeout=60)
    assert proc.returncode == 0, proc.stdout[-300:]
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == \
        "0a4e80c1e381bf57e843f54c0b2ed58ed1a6f0d26a3ef0245e73422727225da8"


@pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"), reason="no address-space limit")
def test_abelianize_large_pn_fits_in_64_mb():
    # pn-rp2 at n = 30 has 103,415 relators: its exponent matrix is kept as
    # sparse columns, where dense rows and their transpose did not fit in
    # 400 MB, and the columns come from the relation pairs, so no relator
    # word is held (about 30 MB of address space, 22 MB max RSS)
    proc = _cli_under_memory_cap(64 * 2**20, "abelianize", "--group", "pn-rp2:n=30",
                                 timeout=120)
    assert proc.returncode == 0, proc.stdout
    out = json.loads(proc.stdout)
    assert (out["free_rank"], out["torsion"]) == (0, [2] * 30)


@pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"), reason="no address-space limit")
def test_abelianize_pn_at_its_cap_fits_in_100_mb():
    # pn-rp2 at n = 40, the cap, has 325,170 relations and 1,600 distinct
    # nonzero columns; read as a stream, one level's band rows alive at a
    # time, they need 20-24 MB of address space (CPython 3.10-3.13), so the
    # guard allows a third more
    proc = _cli_under_memory_cap(32 * 2**20, "abelianize", "--group", "pn-rp2:n=40",
                                 timeout=120)
    assert proc.returncode == 0, proc.stdout
    out = json.loads(proc.stdout)
    assert (out["free_rank"], out["torsion"]) == (0, [2] * 40)


@pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"), reason="no address-space limit")
def test_abelianize_gamma_rp2_at_its_cap_fits_in_100_mb():
    # gamma-rp2 at m = 39, p = 1, the cap, has 1,521 distinct nonzero exponent
    # columns, 3,042 entries in 819 rows; eliminated sparse, by unit pivots,
    # they need 20-24 MB of address space (CPython 3.10-3.13), so the guard
    # allows a third more
    proc = _cli_under_memory_cap(32 * 2**20, "abelianize", "--group", "gamma-rp2:m=39,p=1",
                                 timeout=120)
    assert proc.returncode == 0, proc.stdout
    out = json.loads(proc.stdout)
    assert (out["free_rank"], out["torsion"]) == (39, [])


@pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"), reason="no address-space limit")
@pytest.mark.parametrize("spec, sha256", [pytest.param(spec, sha256, id=spec) for spec, sha256 in (
    ("pn-rp2:n=40", "c4d163da163456597963174f40459bbc6e19cc7a6da851d87d3ef598c1ce255c"),
    ("gamma-rp2:m=39,p=1", "fae7ce46b4994485854974e86d4b101c209cb8d4d47a13eda9cc087cd70ba6d1"),
    ("gamma-s2:n=37,m=3", "4b9ae1ac480f253090ab5d3d411451a1f2a4fd6bbb24df5d639aaa153fc16a4a"),
)])
def test_info_at_its_caps_fits_in_100_mb_and_is_pinned(spec, sha256):
    # about 300,000 relator texts each, written from the relation pairs;
    # the digests are of the texts as written from the relator words
    proc = _cli_under_memory_cap(100 * 2**20, "info", "--group", spec, timeout=120)
    assert proc.returncode == 0, proc.stdout[-300:]
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == sha256


@pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"), reason="no address-space limit")
def test_abelianize_ln_at_its_cap_fits_in_64_mb_and_is_pinned():
    # the ln tower at n = 16, the cap, is made one level at a time, in 26-30
    # MB of address space (CPython 3.10-3.13), so the guard allows a third
    # more; holding all 14 levels' basis images at once needs 33-37 MB,
    # too close to tell apart here
    proc = _cli_under_memory_cap(40 * 2**20, "abelianize", "--group", "ln:n=16", timeout=120)
    assert proc.returncode == 0, proc.stdout[-300:]
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == \
        "e89de86b6251d3d26c8edacdac752543336d201eaf2b996512a8753a62fc3441"


@pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"), reason="no address-space limit")
def test_memory_caps_near_the_edge_exit_0_or_2():
    # Just below the smallest cap that fits, the job runs out of memory late.
    # The error must still reach stdout as one JSON document with exit 2, so
    # matching it must not allocate, and it is written only once its
    # traceback, which holds the job's memory, is dropped; otherwise the
    # child dies with exit 1, empty stdout and "lost sys.stderr".  The edge
    # moves with the Python version, so it is found here first; it is not
    # sharp, and a cap near it may fit in one run and not in the next.
    # pn-rp2 at n = 40 has its edge near 20-24 MB; at n = 22 the streamed job
    # fits in about 20 MB, next to the edge below which the interpreter
    # cannot import sbk at all and exits 1 before the command runs.
    mb = 2**20
    argv = ("abelianize", "--group", "pn-rp2:n=40")

    def one_document(limit):
        proc = _cli_under_memory_cap(limit * mb, *argv)
        assert proc.returncode in (0, 2), (limit, proc.returncode, proc.stderr[-300:])
        assert proc.stdout.count("\n") == 1, (limit, proc.stdout)
        json.loads(proc.stdout)

    fails, fits = 24, 88
    while fits - fails > 1:  # the smallest cap that fits, to 1 MB
        mid = (fails + fits) // 2
        if _cli_under_memory_cap(mid * mb, *argv).returncode == 0:
            fits = mid
        else:
            fails = mid
    for limit in range(fits - 7, fits + 1):
        one_document(limit)


def test_verify_counts_passes():
    rc, out, _ = run_cli("verify", "--suite", "counts", "--max-n", "4")
    assert rc == 0
    data = json.loads(out)
    assert data["pass"] is True
    ids = [c["id"] for c in data["suites"][0]["cases"]]
    assert ids == sorted(ids)
    exponents = {c["id"]: c["got"] for c in data["suites"][0]["cases"]}
    assert exponents["count-exponent-n4"] == "8"


def test_verify_vcd_passes():
    rc, out, _ = run_cli("verify", "--suite", "vcd", "--max-n", "5")
    assert rc == 0
    data = json.loads(out)["suites"][0]
    got = {c["id"]: c["got"] for c in data["cases"]}
    assert got["vcd-rp2-n5"] == "3"
    assert got["vcd-s2-n5"] == "2"


def test_verify_stdout_is_json_logs_on_stderr():
    rc, out, err = run_cli("verify", "--suite", "towers", "--max-n", "4")
    assert rc == 0
    json.loads(out)  # must not raise
    assert "suite towers" in err


def test_cli_main_in_process():
    # main() returns the exit code without raising
    assert main(["verify", "--suite", "counts", "--max-n", "3"]) == 0
    assert main(["eval", "--hom", "iota", "--n", "2", "--word", "A[9,2]"]) == 2


# grammar terms for `sbk nf`, in and out of the m-strand alphabet; combed
# forms grow exponentially with the letter count (at m = 2, 3 six terms of
# total |exponent| 20 took up to 11 s, of total 12 up to 0.3 s), hence the cap
nf_terms = st.lists(st.tuples(
    st.sampled_from(["A[{},{}]", "rho[{}]", "tau[{}]", "s[{}]"]),
    st.integers(0, 6), st.integers(0, 6), st.integers(-20, 20),
), max_size=6).filter(lambda terms: sum(abs(t[3]) for t in terms) <= 12)


def _nf_text(terms):
    return " ".join(form.format(i, j) + (f"^{e}" if e != 1 else "")
                    for form, i, j, e in terms)


def _nf_in_process(m, text):
    """Exit code of ``sbk nf`` run in process; stdout must be one JSON document."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["nf", "--m", str(m), "--word", text])
    assert out.getvalue().count("\n") == 1 and out.getvalue().endswith("\n")
    json.loads(out.getvalue())
    return rc


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 3), nf_terms)
def test_nf_fuzz_exit_code_and_one_json_document(m, terms):
    assert _nf_in_process(m, _nf_text(terms)) in (0, 2)


@settings(deadline=None, max_examples=20)
@given(st.integers(1, 3), st.sampled_from(["-", "--"]), nf_terms)
def test_nf_fuzz_leading_dash_is_a_usage_error(m, lead, terms):
    # a word starting with "-" may be read as an option: a usage error, which
    # must also exit 2 with one JSON document
    assert _nf_in_process(m, lead + _nf_text(terms)) == 2


def test_verify_all_report_matches_pinned_digest(capsys, monkeypatch):
    # the full report at the desk-scale bound is pinned byte for byte in the
    # benchmark's expected digests; this test only reads that file
    argv = ["verify", "--suite", "all", "--max-n", "8"]
    expected = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
    entries = json.loads(expected.read_text())["cli"]
    pinned = next((rc, sha) for args, rc, sha in entries if args == argv)
    monkeypatch.delenv("SBK_SEED", raising=False)
    capsys.readouterr()
    rc = main(argv)
    out = capsys.readouterr().out
    assert (rc, hashlib.sha256(out.encode()).hexdigest()[:16]) == pinned


def test_cli_catalogue_matches_pinned_digests(capsys, monkeypatch):
    # every command of the benchmark's cli catalogue, run in-process: exit
    # code and stdout digest as pinned; this test only reads that file
    expected = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
    entries = json.loads(expected.read_text())["cli"]
    monkeypatch.delenv("SBK_SEED", raising=False)
    mismatches = []
    for argv, rc, sha in entries:
        capsys.readouterr()
        got_rc = main(list(argv))
        out = capsys.readouterr().out
        got = (got_rc, hashlib.sha256(out.encode()).hexdigest()[:16])
        if got != (rc, sha):
            mismatches.append((argv, (rc, sha), got))
    assert len(entries) > 250
    assert mismatches == []


def _corrupted_table_factory(m: int) -> ActionTable:
    table = ActionTable(m)
    # swap one forward coded row for a wrong word: in the first rho step
    # with a nonempty head, whose row images are conjugated back by that
    # head, keep only the last letter of the image of rho[top]; the head and
    # the kernel part stay the honest ones
    rho_top = table.index[gen_rho(table.top)]
    for (x, sign), (head, row, tail) in table.steps.items():
        if sign == 1 and x[0] == "rho" and head:
            images = {i: row[i] for i in table.index.values()}
            images[rho_top] = row[rho_top][-1:]
            table.steps[(x, sign)] = head, _Row.of(images), tail
            break
    return table


def test_combing_suite_negative_control():
    rng = random.Random(1)
    report = verify.combing_suite(4, rng, table_factory=_corrupted_table_factory,
                                  samples=10)
    failed = {c.case_id for c in report.cases if not c.passed}
    # the corrupted row exists from m = 2 on; combing cases that use it fail
    # only because the injected tables reach the comber
    assert failed == {
        "table-roundtrip-m2", "table-roundtrip-m3", "table-roundtrip-m4",
        "comb-relators-m2", "comb-welldef-m2",
    }


def test_combing_suite_passes_with_real_table():
    rng = random.Random(1)
    report = verify.combing_suite(4, rng, samples=10)
    assert report.passed


def test_group_spec_rejects_unknown_and_repeated_parameters():
    rc, out, err = run_cli("abelianize", "--group", "pn-rp2:n=3,x=9")
    assert rc == 2
    assert "'x'" in json.loads(out)["error"]
    assert err.strip()
    rc, out, _ = run_cli("info", "--group", "gamma-rp2:m=2,p=2,m=3")
    assert rc == 2
    assert "'m'" in json.loads(out)["error"]
    # a missing parameter and an unknown family keep their messages
    rc, out, _ = run_cli("abelianize", "--group", "gamma-rp2:m=2")
    assert rc == 2
    assert json.loads(out) == {"error": "'p'"}
    rc, out, _ = run_cli("abelianize", "--group", "xx:n=3,x=9")
    assert rc == 2
    assert json.loads(out) == {"error": "unknown group family 'xx'"}


@pytest.mark.parametrize("value", ["--3", "\u00b2"])
def test_group_spec_accepts_ascii_integers_only(value):
    # both pass str.isdigit() once a leading "-" is stripped, but int() rejects them
    spec = f"pn-rp2:n={value}"
    rc, out, _ = run_cli("abelianize", "--group", spec)
    assert rc == 2
    assert json.loads(out) == {"error": f"bad group parameter {'n=' + value!r} in {spec!r}"}


def test_core_imports_only_stdlib():
    # importing the library, the CLI, the verify suites and the closed-form
    # powers pulls in no third-party module
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import sbk, sbk.cli, sbk.iterates, sbk.verify\n"
        "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(new - set(sys.stdlib_module_names) - {'sbk'}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_run_suite_validates_bounds():
    with pytest.raises(ValueError):
        verify.run_suite("counts", max_n=9)
    with pytest.raises(ValueError):
        verify.run_suite("unknown-suite")


def test_seed_env_respected(monkeypatch):
    monkeypatch.setenv("SBK_SEED", "12345")
    assert main(["verify", "--suite", "combing", "--max-n", "3"]) == 0
