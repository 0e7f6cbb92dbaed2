"""sbk benchmark.

One run measures one workload in one process, with one client issuing
operations in a closed loop (the next operation starts when the previous
one has returned).  End-to-end metrics come from untraced runs; per-layer
metrics come from a separate run with ``--trace 1``.

    python3 perfbench/run.py --workload insertion --seed 70839 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --workload all --negative-control
    python3 perfbench/run.py --compare OLD NEW         # result files or directories

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with a row of letter counts per operation and the environment, is written
to ``perfbench/results/``; perfbench/README.md describes its format.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
DEFAULT_SEED = 70839
WORKLOAD_NAMES = ("insertion", "powers", "abelian", "cli")
SETUP_SAMPLES = 5  # one in this process, the rest in fresh interpreters
REFERENCE_S = 0.00125  # reference_sample() on an idle 2-core x86-64 VM, Python 3.11
SAMPLE_EVERY_S = 0.25


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_workloads():
    """Import the benchmark's workloads against the sbk sources of this
    checkout, never an installed copy."""
    src = ROOT / "src"
    if not (src / "sbk" / "__init__.py").is_file():
        raise SystemExit(f"error: no sbk sources at {src / 'sbk'}")
    sys.path[:0] = [str(src), str(HERE)]
    import sbk
    import workloads

    if Path(sbk.__file__).resolve().parent != (src / "sbk").resolve():
        raise SystemExit(f"error: imported sbk from {sbk.__file__}, not from {src}")
    return workloads


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op_id = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, self.op_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def summary(self):
        """Per span name: total self time (duration minus the time its
        child spans cover), number of spans, and the list of durations."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        durations: defaultdict = defaultdict(list)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child_time[i]
            calls[name] += 1
            durations[name].append(end - start)
        return self_s, calls, durations


class NullTracer:
    """What untraced runs use: spans and counts cost one call each."""

    _null = contextlib.nullcontext()
    op_id = None

    def span(self, name: str):
        return self._null

    def count(self, name: str, n: int) -> None:
        pass


def reference_loop(n: int = 4000) -> int:
    """Fixed pure-Python work of the kind sbk does (stack free reduction of
    letter tuples, dict updates), using no sbk code."""
    out: list = []
    counts: dict = {}
    for i in range(n):
        g = (i * 7) % 11
        e = 1 if (i * 13) % 3 else -1
        if out and out[-1][0] == g:
            merged = out[-1][1] + e
            if merged:
                out[-1] = (g, merged)
            else:
                out.pop()
        else:
            out.append((g, e))
        key = (g, i % 13)
        counts[key] = counts.get(key, 0) + e
    return len(out) + len(counts)


def reference_sample() -> float:
    """Median time of five runs of the reference loop."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Clock:
    """Scales measured times to a reference machine speed.

    On a shared host the speed of the machine drifts, by up to a factor
    of two over tens of seconds, which swamps the differences between two
    commits.  The clock times the reference loop between operations, at
    most every SAMPLE_EVERY_S seconds, and an operation's time is scaled
    by REFERENCE_S over the mean of the last sample before the operation
    and the first sample after it.  A commit that changes sbk changes the
    operations and not the loop, so its effect stays in the scaled times
    while the machine's drift cancels.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._next = 0.0

    def mark(self) -> int:
        """Index of the latest sample, taking a new one when due."""
        if time.perf_counter() >= self._next:
            self.sample()
        return len(self.samples) - 1

    def sample(self) -> None:
        self.samples.append(reference_sample())
        self._next = time.perf_counter() + SAMPLE_EVERY_S

    def scaled(self, times: list[float], marks: list[int]) -> list[float]:
        """Scale each time by the samples around it; call after a final
        sample has been taken."""
        s = self.samples
        return [t * 2 * REFERENCE_S / (s[k] + s[k + 1]) for t, k in zip(times, marks)]

    def run_scale(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)


def n_letters(letters) -> int:
    return sum(abs(exp) for _, exp in letters)


def letter_counts(wl, combs) -> list:
    """[m, input x-letters, [normal-form letters per kernel level]] per comb."""
    return [
        [m, n_letters(wl.to_x_letters(m, word.letters)),
         [c.length() for c in form.components]]
        for m, word, form in combs
    ]


def run_pass(wl, workload, ops, tr, clock, traced: bool = False, first_id: int = 0,
             rows: list | None = None):
    """One pass over the ops, each checked right after it is timed and
    then dropped, so that peak RSS is the library's and not the harness's.
    Returns (latencies, clock marks, failures); see Clock for scaling the
    latencies.  With ``rows``, appends one timing row per op."""
    raw, marks, failures = [], [], []
    for i, op in enumerate(ops, first_id):
        marks.append(clock.mark())
        tr.op_id = i
        t0 = time.perf_counter()
        try:
            with tr.span("op"):
                value, combs = workload.run(op, tr)
                if traced:
                    for m, word, form in combs:
                        with tr.span("combing.to_x"):
                            x = n_letters(wl.to_x_letters(m, word.letters))
                        nf = [c.length() for c in form.components]
                        tr.count("combing.x_letters", x)
                        tr.count("combing.nf_letters", sum(nf))
                        tr.count("combing.nf_top_letters", nf[0])
        except Exception:  # an op that raises counts as failed; keep going
            raw.append(time.perf_counter() - t0)
            value, combs = None, ()
            failures.append(f"op {i} {op.kind} raised: {traceback.format_exc(limit=3)}")
        else:
            raw.append(time.perf_counter() - t0)
            try:
                ok = workload.check(op, value)
            except Exception:
                ok = False
            if not ok:
                failures.append(f"op {i} {op.kind} {label(op)} failed its check")
        if rows is not None:
            rows.append([i, op.kind, label(op), None, letter_counts(wl, combs)])
        del value, combs
    return raw, marks, failures


def label(op) -> list:
    """The op's parameters for a result row; words are given by length."""
    return [a.length() if hasattr(a, "length") else a for a in op.args]


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def fresh_setup_s(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up of {name} failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def environment() -> dict:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": h.hexdigest()[:16],
    }


def timed_setup(name: str, seed: int, tr):
    """Import sbk, warm its caches and generate the pass; returns the
    workload module, the workload, the ops and the scaled set-up time."""
    before = reference_sample()
    t0 = time.perf_counter()
    wl = import_workloads()
    workload = wl.WORKLOADS[name]()
    ops = workload.setup(seed, tr)
    elapsed = time.perf_counter() - t0
    after = reference_sample()
    return wl, workload, ops, elapsed * REFERENCE_S / ((before + after) / 2)


def measure(name: str, seed: int, seconds: float, traced: bool) -> dict:
    spec = load_spec()
    setup_samples = []
    if not traced:
        setup_samples = [fresh_setup_s(name, seed) for _ in range(SETUP_SAMPLES - 1)]
    tr = Tracer() if traced else NullTracer()
    wl, workload, ops, setup_s = timed_setup(name, seed, tr)
    setup_samples.append(setup_s)
    clock = Clock()

    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "env": environment(), "ops_per_pass": len(ops),
    }
    if traced:
        result.update(traced_run(wl, workload, ops, tr, clock, spec["per_layer"]))
        RESULTS.mkdir(exist_ok=True)
        spans_path = RESULTS / f"{name}-s{seed}-spans.json"
        with open(spans_path, "w") as fh:
            json.dump(tr.spans, fh)
        result["spans"] = spans_path.name
        result["reference_samples_s"] = clock.samples
        return result

    walls, raw_walls, latencies, failures, rows = [], [], [], [], []
    start = time.perf_counter()
    while True:
        raw, marks, pass_failures = run_pass(wl, workload, ops, NullTracer(), clock,
                                             rows=None if walls else rows)
        clock.sample()
        scaled = clock.scaled(raw, marks)
        walls.append(sum(scaled))
        raw_walls.append(sum(raw))
        latencies += scaled
        failures += pass_failures
        if len(walls) == 1:
            set_row_times(rows, scaled)
        if time.perf_counter() - start + statistics.median(raw_walls) > seconds:
            break
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(walls),
        "op_p50_ms": percentile(latencies, 50) * 1e3,
        "op_p90_ms": percentile(latencies, 90) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    result.update(pass_wall_s=walls, pass_raw_wall_s=raw_walls,
                  setup_samples_s=setup_samples, reference_samples_s=clock.samples)
    if len(latencies) >= 1000:
        result["op_p99_ms"] = percentile(latencies, 99) * 1e3
    result.update(correct=not failures, attempted=len(latencies), failed=len(failures),
                  failures=failures[:20], rows=rows,
                  metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()})
    return result


def set_row_times(rows: list, latencies: list) -> None:
    """Fill in the scaled milliseconds of each row."""
    for row, t in zip(rows, latencies):
        row[3] = round(t * 1e3, 4)


def traced_run(wl, workload, ops, tr, clock, per_layer) -> dict:
    """One untraced and one traced pass, interleaved op by op in
    alternating order, so that neither side gets the warmer state more
    often; then the workload's own layer probes."""
    null = NullTracer()
    untraced_wall = traced_wall = 0.0
    failures, latencies, marks, rows = [], [], [], []
    for i, op in enumerate(ops):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            raw, op_marks, op_failures = run_pass(
                wl, workload, [op], tr if traced else null, clock, traced, i,
                rows if traced else None)
            failures += op_failures
            if traced:
                traced_wall += raw[0]
                latencies += raw
                marks += op_marks
            else:
                untraced_wall += raw[0]
    clock.sample()
    set_row_times(rows, clock.scaled(latencies, marks))
    if hasattr(workload, "probe"):
        tr.op_id = None
        workload.probe(ops, tr)
    metrics = layer_metrics(tr, per_layer, traced_wall / untraced_wall, clock.run_scale())
    return {"correct": not failures, "attempted": 2 * len(ops), "failed": len(failures),
            "failures": failures[:20], "rows": rows,
            "metrics": metrics}


def layer_metrics(tr: Tracer, per_layer: list, trace_overhead: float, scale: float) -> dict:
    """Per-layer metrics from the spans and counts; times are scaled by
    the run's median clock scale."""
    self_s, calls, durations = tr.summary()
    counts = tr.counts
    out = {}
    for entry in per_layer:
        name = entry["name"]
        if name == "trace_overhead":
            value = trace_overhead
        elif name == "combing.growth":
            x = counts["combing.x_letters"]
            value = counts["combing.nf_letters"] / x if x else 0.0
        elif name == "cli.startup_s":
            startup = durations["cli.startup"]
            value = statistics.median(startup) * scale if startup else 0.0
        elif name == "cli.calls":
            value = calls["cli.call"]
        elif name in counts:
            value = counts[name]
        elif name.startswith("verify.suite_s."):
            value = self_s["verify.suite." + name.rsplit(".", 1)[1]] * scale
        elif name.endswith("_s"):
            value = self_s[name[:-2]] * scale
        elif name.endswith("_calls"):
            value = calls[name[:-6]]
        else:
            value = counts[name]
        out[name] = {"value": value, "unit": entry["unit"]}
    return out


def print_result(result: dict, out: Path) -> None:
    name = result["workload"]
    for metric, m in result["metrics"].items():
        print(f"{name:10s} {metric:32s} {m['value']:14.6g} {m['unit']}")
    print(f"{name:10s} {'failed_ops':32s} {result['failed']:14d} count "
          f"(of {result['attempted']} attempted)")
    if "op_p99_ms" in result:
        print(f"{name:10s} {'op_p99_ms':32s} {result['op_p99_ms']:14.6g} ms")
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"result written to {out}", file=sys.stderr)


def run_one(args) -> int:
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    out = Path(args.out) if args.out else \
        RESULTS / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(out, "w") as fh:
        json.dump(result, fh)
    print_result(result, out.resolve())
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS belongs to one workload."""
    combined, ok = {}, True
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.negative_control:
            argv.append("--negative-control")
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n" if proc.stdout else "")
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        combined[name] = json.loads(lines[-1]) if lines else None
        ok = ok and proc.returncode == 0
    print(json.dumps(combined))
    return 0 if ok else 1


def negative_control(args) -> int:
    """Feed each check of the workload one wrong expectation; every one
    must be reported as a failure, and the genuine ops beside them must
    pass."""
    wl = import_workloads()
    workload = wl.WORKLOADS[args.workload]()
    ops = workload.setup(args.seed, NullTracer())
    genuine = ops[:10]
    wrong = workload.wrong(ops)
    null, clock = NullTracer(), Clock()
    _, _, genuine_failures = run_pass(wl, workload, genuine, null, clock)
    rejected = {}
    for check, op in wrong:
        rejected[check] = bool(run_pass(wl, workload, [op], null, clock)[2])
        print(f"{args.workload:10s} check {check!r}: wrong expectation "
              f"{'rejected' if rejected[check] else 'NOT rejected'}")
    for failure in genuine_failures:
        print(f"FAILED genuine {failure}", file=sys.stderr)
    ok = all(rejected.values()) and not genuine_failures
    print(json.dumps({"workload": args.workload, "rejected": rejected,
                      "genuine_failed": len(genuine_failures), "ok": ok}))
    return 0 if ok else 1


def load_results(path: Path) -> list[dict]:
    files = sorted(path.glob("*-t[01].json")) if path.is_dir() else [path]
    out = []
    for f in files:
        with open(f) as fh:
            out.append(json.load(fh))
    return out


def spread(values: list[float]):
    """Distance between the first and third quartile, as a share of the
    median; None with fewer than two values."""
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else None


def format_spread(value) -> str:
    return "-" if value is None else f"{value:.3f}"


def compare(old_path: str, new_path: str) -> int:
    spec = load_spec()
    info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    old, new = load_results(Path(old_path)), load_results(Path(new_path))
    regressions = 0
    print(f"{'workload':10s} {'metric':30s} {'unit':6s} {'old median':>12s} {'n':>3s} "
          f"{'new median':>12s} {'n':>3s} {'new/old':>8s} {'spr old':>8s} "
          f"{'spr new':>8s}  verdict")
    for name in WORKLOAD_NAMES:
        metrics = sorted({k for r in old + new if r["workload"] == name for k in r["metrics"]},
                         key=lambda k: list(info).index(k) if k in info else len(info))
        for metric in metrics:
            a = [r["metrics"][metric]["value"] for r in old
                 if r["workload"] == name and metric in r["metrics"]]
            b = [r["metrics"][metric]["value"] for r in new
                 if r["workload"] == name and metric in r["metrics"]]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            ratio = mb / ma if ma else float("nan")
            sa, sb = spread(a), spread(b)
            entry = info.get(metric, {})
            verdict = "-"
            if "bound" in entry and ma:
                bound = entry["bound"]
                worse = (mb - ma) / ma if entry["better"] == "lower" else (ma - mb) / ma
                all_better = (max(b) < min(a)) if entry["better"] == "lower" else (min(b) > max(a))
                if sa is None or sb is None:
                    verdict = "unresolved (one run)"
                elif (sa > bound or sb > bound) and not all_better:
                    verdict = "unresolved (spread > bound)"
                elif worse > bound:
                    verdict = f"REGRESSION (bound {bound})"
                    regressions += 1
                elif worse < -bound:
                    verdict = "better"
                else:
                    verdict = "same"
            print(f"{name:10s} {metric:30s} {entry.get('unit', ''):6s} {ma:12.6g} {len(a):3d} "
                  f"{mb:12.6g} {len(b):3d} {ratio:8.3f} {format_spread(sa):>8s} "
                  f"{format_spread(sb):>8s}  {verdict}")
    print("ratios are new/old with the old median as base")
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file (default: perfbench/results/...)")
    parser.add_argument("--negative-control", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    if args.negative_control:
        return negative_control(args)
    if args.setup_only:
        print(timed_setup(args.workload, args.seed, NullTracer())[3])
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
