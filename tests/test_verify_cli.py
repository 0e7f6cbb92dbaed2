import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sbk import combing, verify
from sbk.cli import main
from sbk.combing import ActionTable, build_action_table
from sbk.words import gen_a

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


def test_oversized_power_exits_2_under_a_memory_cap():
    # A[1,3]^1000000000 has a closed form of 8e9 letters: under a capped
    # address space writing it out fails at once, and the child exits 2 with
    # one JSON document instead of stepping the power for hours
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    proc = subprocess.run(
        [sys.executable, "-m", "sbk.cli", "nf", "--m", "2", "--word", "A[1,3]^1000000000"],
        capture_output=True, text=True, env=CHILD_ENV, preexec_fn=cap, timeout=10,
    )
    assert proc.returncode == 2
    assert json.loads(proc.stdout) == {"error": "out of memory"}


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
    table = build_action_table(m)
    maps = {key: dict(row_map) for key, row_map in table.maps.items()}
    # swap one forward row for a wrong word: drop the conjugator entirely
    target = next(
        ((key, b) for key, row_map in maps.items() for b, image in row_map.items()
         if key[1] == 1 and key[0][0] == "rho" and b[0] == "rho" and len(image) > 1),
        None,
    )
    if target is not None:
        key, b = target
        maps[key][b] = (maps[key][b][-1],)
    return ActionTable(table.m, maps)


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


def test_core_imports_only_stdlib():
    # importing the library, the CLI and the verify suites pulls in no
    # third-party module
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import sbk, sbk.cli, sbk.verify\n"
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
