"""Benchmark of the trivext command line, end to end and per layer.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Workloads (inputs from `inputs.py`, seeded by --seed):

* certify      `trivext verdict FILE --extend` on 150 presentations.  The
               paper's main user path: build, validate, socles, T(A), the
               two criteria; never the homology oracle.
* corroborate  `trivext verdict FILE --extend --hh-check N` on 58 small
               inputs (dim T(A) <= 6, every N in 3..6 that fits the tuple
               budget).  Nearly all of its time is the bar-complex oracle
               and its sparse elimination.
* present      `trivext trivext FILE` on 104 presentations.  Relation
               extraction for T(A): dense echelon rows and many path
               products, the same linalg layer used differently.

Every input goes through `trivext.cli.main(argv)` in this process, one at a
time (a closed loop with one caller), with stdout and stderr captured, and
every report is checked (`checks.py`).  The loop runs whole passes over the
inputs until --seconds have elapsed.  On seed GOLDEN_SEED the reports must
also match the digests in `golden.json` (`make_golden.py` writes them).

--trace 0 prints the end-to-end metrics: set-up time (median of fresh
interpreters that import the CLI and write the inputs), inputs per second,
latency median and 90th percentile, peak RSS.  --trace 1 runs each input
untraced and then traced (`tracer.py`) and prints per-layer self times and
counts per pass over the inputs, plus the tracing overhead.

Times are wall times scaled to a reference speed of the host (`Speed`):
the host's cores are shared, and its speed drifts by tens of per cent
over minutes, far more than the bounds a benchmark can use.  The unscaled
wall figures are in the summary line.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it is a JSON summary
with sample counts, the failure fraction, the first problems found and
the run metadata.  Exit code 0 unless set-up fails.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import deque
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from checks import Reference, check
from inputs import HH_TUPLE_BUDGET, WORKLOADS
from prepare import ROOT, SRC, SetupError, prepare
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_build" / "trivext-bench"
GOLDEN = BENCH / "golden.json"
GOLDEN_SEED = 0
SETUP_REPEATS = 15

# The calibration loop of `Speed` and its wall time at reference speed:
# the median of 400 runs on the 2-core 2.0 GHz Xeon host the bounds in
# BENCHMARK.json were set on.
CALIBRATION_N = 20_000
REFERENCE_S = 0.0040
CALIBRATION_WINDOW = 7


def argv_for(workload: str, case, path: Path) -> list[str]:
    if workload == "certify":
        return ["verdict", str(path), "--extend"]
    if workload == "corroborate":
        return ["verdict", str(path), "--extend", "--hh-check", str(case.hh_degree)]
    return ["trivext", str(path)]


def call(cli, argv) -> tuple[int, str, float]:
    """One CLI call: exit code, captured stdout, seconds inside main."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:   # a crash is a failed input, not a failed run
            code = -1
            traceback.print_exc(file=sys.__stderr__)
        t1 = time.perf_counter()
    return code, out.getvalue(), t1 - t0


def _calibration_work(n: int) -> int:
    d: dict = {}
    s = 0
    for i in range(n):
        k = i % 97
        d[k] = d.get(k, 0) + i
        s += (i * i) % 7
    return s + len(d)


class Speed:
    """How fast the host runs Python now, relative to the reference.

    On a host whose cores are shared with other tenants, the speed of
    pure-Python code drifts by tens of per cent over seconds to minutes,
    and every call is affected alike.  A fixed loop timed just before each
    call tracks the drift; `scale()` turns a wall time into seconds at
    reference speed, using the median of the last few loop timings so that
    a single burst does not count.
    """

    def __init__(self):
        self.recent: deque = deque(maxlen=CALIBRATION_WINDOW)

    def sample(self) -> None:
        t0 = time.perf_counter()
        _calibration_work(CALIBRATION_N)
        self.recent.append(time.perf_counter() - t0)

    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self.recent)


# ---------------------------------------------------------------------------
# set-up and references


class SetupProbe:
    """Set-up time: the wall time of a fresh interpreter that imports the
    CLI and writes the inputs.  The probes are spread over the timed loop
    (between calls, outside their timing) so that their median samples
    the whole run rather than one moment of it."""

    def __init__(self, workload: str, seed: int):
        self.cmd = [sys.executable, str(BENCH / "prepare.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--out", str(WORK / f"probe-{workload}-{seed}")]
        self.times: list[float] = []        # at reference speed
        self.wall: list[float] = []

    def run(self) -> float:
        t0 = time.perf_counter()
        subprocess.run(self.cmd, check=True, stdout=subprocess.DEVNULL,
                       stderr=subprocess.PIPE, timeout=120, cwd=ROOT)
        return time.perf_counter() - t0

    def warm(self) -> None:
        """One untimed run: fills the bytecode and file caches."""
        self.run()

    def sample(self, speed: Speed) -> None:
        speed.sample()
        wall = self.run()
        self.wall.append(wall)
        self.times.append(wall * speed.scale())


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def references(workload: str, cases, golden: dict | None) -> list[Reference]:
    """Independent values for the checks, computed before timing, plus the
    golden digests and HH dims when `golden` is given."""
    refs = [Reference() for _ in cases]
    if workload == "corroborate":
        from trivext.algebra import build_algebra
        from trivext.dsl import parse_presentation
        from trivext.hochschild import commutator_rank
        from trivext.trivial_extension import trivial_extension
        for case, ref in zip(cases, refs):
            A = build_algebra(parse_presentation(case.text))
            ref.commutator_rank = commutator_rank(trivial_extension(A).T)
    if golden is not None:
        digests = golden["digests"][workload]
        for case, ref in zip(cases, refs):
            ref.digest = digests[case.id]
            ref.hh_dims = golden["hh_dims"].get(case.id)
    return refs


def metadata(seed: int) -> dict:
    commit = None   # the checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": seed, "commit": commit, "src_lines": src_lines}


# ---------------------------------------------------------------------------
# the loop


class Tally:
    """Attempts, failures and the first problems of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, workload, case, code, stdout, ref) -> bool:
        self.attempted += 1
        problems = check(workload, case, code, stdout, ref)
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{case.id}: {'; '.join(problems)}")
        return not problems


def run_passes(seconds: float, one_pass) -> int:
    """Whole passes until `seconds` have elapsed; returns the count."""
    passes = 0
    t0 = time.perf_counter()
    while passes == 0 or time.perf_counter() - t0 < seconds:
        one_pass()
        passes += 1
    return passes


def _latency_metrics(latencies: list[float], completed: int) -> dict:
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "inputs_per_s": (completed / sum(latencies), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_p90_s": (deciles[8], "s"),
    }


def end_to_end(cli, workload, cases, paths, refs, seconds, tally, probe=None):
    """Latency of every call, failed or not, at reference speed;
    throughput of the completed ones.  With a set-up probe, one probe is
    taken every seconds/SETUP_REPEATS.  Also returns the unscaled wall
    figures."""
    latencies: list[float] = []
    wall: list[float] = []
    completed = 0
    speed = Speed()
    t0 = time.perf_counter()
    every = seconds / SETUP_REPEATS

    def one_pass():
        nonlocal completed
        for case, path, ref in zip(cases, paths, refs):
            if (probe and len(probe.times) < SETUP_REPEATS
                    and len(probe.times) * every <= time.perf_counter() - t0):
                probe.sample(speed)
            gc.collect()
            speed.sample()
            code, out, dt = call(cli, argv_for(workload, case, path))
            completed += tally.record(workload, case, code, out, ref)
            wall.append(dt)
            latencies.append(dt * speed.scale())

    passes = run_passes(seconds, one_pass)
    if probe:
        while len(probe.times) < SETUP_REPEATS:
            probe.sample(speed)
    info = {"passes": passes, "samples": len(latencies),
            "wall": {k: v for k, (v, _u) in
                     _latency_metrics(wall, completed).items()}}
    return _latency_metrics(latencies, completed), info


def traced(cli, workload, cases, paths, refs, seconds, tally, tracer):
    """Each input untraced, then traced; layer times at reference speed."""
    plain = traced_t = 0.0
    speed = Speed()

    def one_pass():
        nonlocal plain, traced_t
        for k, (case, path, ref) in enumerate(zip(cases, paths, refs)):
            argv = argv_for(workload, case, path)
            gc.collect()
            speed.sample()
            code, out, dt = call(cli, argv)
            tally.record(workload, case, code, out, ref)
            plain += dt * speed.scale()
            gc.collect()
            speed.sample()
            tracer.current_input = k
            root = tracer.span_count
            with tracer:
                code, out, dt = call(cli, argv)
            tracer.scale[root] = speed.scale()
            tally.record(workload, case, code, out, ref)
            traced_t += dt * speed.scale()

    passes = run_passes(seconds, one_pass)
    metrics = layer_metrics(tracer, passes)
    metrics["trace.overhead_frac"] = (traced_t / plain - 1.0, "ratio")
    return metrics, {"passes": passes, "samples": passes * len(cases),
                     "spans": tracer.span_count}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer self times (s, at reference speed) and counts, each per
    pass over the inputs."""
    self_t, incl, calls = tracer.self_times()
    c = tracer.counts
    per = 1.0 / passes

    def s(*names):
        return (sum(self_t[n] for n in names) * per, "s")

    def n(value):
        return (value * per, "count")

    return {
        "dsl.parse_s": s("dsl.parse"),
        "algebra.build_s": s("algebra.build"),
        "algebra.validate_s": s("algebra.validate"),
        "algebra.validate_calls": n(calls["algebra.validate"]),
        "algebra.socles_s": s("algebra.socles"),
        "algebra.socles_calls": n(calls["algebra.socles"]),
        "algebra.radical_chain_s": s("algebra.radical_chain"),
        "algebra.radical_chain_calls": n(calls["algebra.radical_chain"]),
        "algebra.selfinjectivity_s": s("algebra.selfinjectivity"),
        "trivial_extension.build_s": s("trivial_extension.build"),
        "trivial_extension.relations_s": s("trivial_extension.relations"),
        "trivial_extension.relations_generators":
            n(c["trivial_extension.relations_generators"]),
        "criteria.verdict_s": s("criteria.verdict"),
        "criteria.cycle_s": s("criteria.cycle"),
        "criteria.cartan_s": s("criteria.cartan"),
        "criteria.verify_s": s("criteria.verify"),
        "criteria.certified_frac":
            (_ratio(c["criteria.certified"], c["criteria.verdicts"]), "ratio"),
        "hochschild.hh_s": s("hochschild.hh"),
        "hochschild.tuples_per_s":
            (_ratio(c["hochschild.chain_tuples"], incl["hochschild.hh"]), "1/s"),
        "hochschild.chain_tuples": n(c["hochschild.chain_tuples"]),
        "hochschild.cap_hits": n(c["hochschild.cap_hits"]),
        "linalg.sparse_rank_s": s("linalg.sparse_rank_add"),
        "linalg.sparse_rank_adds": n(calls["linalg.sparse_rank_add"]),
        "linalg.sparse_rank_useful_ratio":
            (_ratio(c["linalg.sparse_rank_useful"],
                    calls["linalg.sparse_rank_add"]), "ratio"),
        "linalg.echelon_s": s("linalg.echelon_add", "linalg.echelon_reduce"),
        "linalg.echelon_adds": n(calls["linalg.echelon_add"]),
        "linalg.echelon_useful_ratio":
            (_ratio(c["linalg.echelon_useful"], calls["linalg.echelon_add"]),
             "ratio"),
        "linalg.row_reduce_s": s("linalg.row_reduce"),
        "linalg.poly_det_s": s("linalg.poly_det"),
        "quiver.compose_calls": n(c["quiver.compose"]),
        "cli.self_s": s("cli.main"),
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="trivext benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        cli, cases, paths = prepare(args.workload, args.seed,
                                    WORK / f"{args.workload}-{args.seed}")
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    os.environ["TRIVEXT_DIM_CAP"] = str(HH_TUPLE_BUDGET)
    refs = references(args.workload, cases,
                      load_golden() if args.seed == GOLDEN_SEED else None)
    gc.collect()
    gc.freeze()

    tally = Tally()
    if args.trace:
        tracer = Tracer()
        metrics, info = traced(cli, args.workload, cases, paths, refs,
                               args.seconds, tally, tracer)
        tracer.write(WORK / f"spans-{args.workload}-{args.seed}")
    else:
        probe = SetupProbe(args.workload, args.seed)
        probe.warm()
        metrics, info = end_to_end(cli, args.workload, cases, paths, refs,
                                   args.seconds, tally, probe)
        metrics["setup_s"] = (statistics.median(probe.times), "s")
        info["wall"]["setup_s"] = statistics.median(probe.wall)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        info["setup_samples"] = len(probe.times)

    summary = {"workload": args.workload, "inputs": len(cases), **info,
               "fail_frac": tally.failed / tally.attempted,
               "problems": tally.problems, "meta": metadata(args.seed)}
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
