"""greenstat benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload ci-sweep --seed 0 --seconds 45 --trace 0

Run from anywhere; the benchmark works in the checkout that holds it and
imports greenstat from its ``src/`` directory.  See ``bench/README.md`` for
the workloads, the metrics and how they relate.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are its per-layer metrics.  The line before it, starting
with ``report:``, carries the workload's own named metrics, the output
digests and the host description.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from tracer import DETERMINISTIC_COUNTS, Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DEFAULT_SEED = 0
SETUP_RUNS = 3  # set-ups per end-to-end run: this process and two more


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=["ci-sweep", "power-study", "analyze-warm"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="data seed")
    p.add_argument("--seconds", type=float, default=45.0, help="measuring time of an end-to-end run")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs and B, for the benchmark's own tests")
    p.add_argument(
        "--setup-only",
        action="store_true",
        help="stop before the first timed operation and print this process's set-up time",
    )
    return p.parse_args(argv)


def import_greenstat():
    """Import greenstat from this checkout's sources, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import greenstat

    if os.path.dirname(os.path.dirname(os.path.abspath(greenstat.__file__))) != src:
        raise ImportError(f"greenstat was imported from {greenstat.__file__}, not from {src}")
    return greenstat


def ref_kernel_s() -> float:
    """The ``host.ref_s`` drift probe: a fixed numpy kernel, timed.

    2000 replicates of 300 symmetric 1.8-stable draws from the benchmark's
    own generator, each reduced to a Greenwood-type ratio: the kind of work
    greenstat's null simulation does, in code that does not change with
    greenstat.  One replicate at a time, so that the kernel adds nothing to
    the process's peak RSS.  It runs outside the measured window and
    adjusts no metric.
    """
    import numpy as np

    from workloads import sas

    gen = np.random.default_rng(12345)
    t0 = time.perf_counter()
    for _ in range(2000):
        x = sas(gen, 1.8, 300)
        float(np.sum(x * x) / np.sum(np.abs(x)) ** 2)
    return time.perf_counter() - t0


def process_age_s() -> float:
    """Seconds since this process started, from its start time in ``/proc/self/stat``."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])  # field 22, counted from the state field (3)
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def tail(latencies: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it, by nearest rank."""
    n = len(latencies)
    if n < 11:
        return {"value": None, "unit": "s", "percentile": None, "samples": n}
    k = n - 11  # 0-based rank with n - 1 - k = 10 samples above it
    return {"value": sorted(latencies)[k], "unit": "s", "percentile": 100.0 * (k + 1) / n, "samples": n}


def other_setups(args, count: int) -> list[float]:
    """Start this benchmark ``count`` more times with ``--setup-only``; their ``setup_s``."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", args.workload]
    cmd += ["--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(count):
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
        word, _, value = proc.stdout.strip().rpartition("\n")[2].partition(" ")
        if proc.returncode != 0 or word != "setup_s":
            raise RuntimeError(f"--setup-only exited with {proc.returncode}: {proc.stderr[-2000:]}")
        times.append(float(value))
    return times


class Outcome:
    """Attempted and failed operations, with the digest of each."""

    def __init__(self, workload, golden: list[str] | None):
        self.workload = workload
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, str] = {}

    def run_op(self, i: int) -> float:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = self.workload.op(i)
        except Exception as exc:  # an operation that raises counts as failed
            elapsed = time.perf_counter() - t0
            self.fail([f"op {i}: {type(exc).__name__}: {exc}"])
            return elapsed
        elapsed = time.perf_counter() - t0
        dig, problems = self.workload.check(i, result)
        index = self.workload.input_index(i)
        self.digests[index] = dig[:16]
        if self.golden is not None and index < len(self.golden) and self.golden[index] != dig:
            problems.append(f"digest {dig[:16]} differs from the golden {self.golden[index][:16]}")
        if problems:
            self.fail([f"op {i}: {p}" for p in problems])
        return elapsed

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        for p in problems:
            print(f"FAILED {p}", file=sys.stderr)


def run_unit(outcome: Outcome, ops: int) -> float:
    """Run ``ops`` operations on a fresh session; their wall time in seconds."""
    outcome.workload.start()
    t0 = time.perf_counter()
    for i in range(ops):
        outcome.run_op(i)
    return time.perf_counter() - t0


def end_to_end(args, workload, outcome: Outcome) -> tuple[dict, dict]:
    workload.start()
    latencies = []
    t0 = time.perf_counter()
    while len(latencies) < workload.min_ops or time.perf_counter() - t0 < args.seconds:
        latencies.append(outcome.run_op(len(latencies)))
    elapsed = time.perf_counter() - t0
    ops = len(latencies)
    metrics = {
        "work_per_s": workload.work_units(ops) / elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    cold, warm = latencies[: workload.cold_ops], latencies[workload.cold_ops :]
    if workload.name == "ci-sweep":
        named = {
            "ci.first_interval_s": {"value": cold[0], "unit": "s"},
            "ci.intervals_per_s": {"value": ops / elapsed, "unit": "1/s"},
        }
    elif workload.name == "power-study":
        # The largest pool worker: every worker has ended by now, and no
        # other child has started yet.
        workers_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        named = {
            "power.cells_per_s": {"value": metrics["work_per_s"], "unit": "1/s"},
            "power.workers_peak_rss_mb": {"value": workers_rss, "unit": "MB"},
        }
    else:
        named = {
            "analyze.cold_s": {"value": statistics.mean(cold), "unit": "s"},
            "analyze.warm_p50_s": {"value": statistics.median(warm), "unit": "s"},
            "analyze.warm_tail_s": tail(warm),
        }
    named["ops"] = ops
    return metrics, named


def traced(workload, outcome: Outcome) -> tuple[dict, dict]:
    ops = workload.trace_ops
    tracer = Tracer()
    untraced_s, passes = None, []
    # Traced, untraced, traced: the two traced passes bracket the untraced
    # one, so slow host drift cancels in the overhead; the one-off costs of
    # a process's first pass fall on tracing, so the overhead is not understated.
    for trace_on in (True, False, True):
        if not trace_on:
            untraced_s = run_unit(outcome, ops)
            continue
        tracer.reset()
        tracer.install()
        try:
            seconds = run_unit(outcome, ops)
        finally:
            tracer.uninstall()
        passes.append((seconds, tracer.layer_metrics()))
    (t1, m1), (t2, m2) = passes
    unsteady = {k: (m1[k], m2[k]) for k in DETERMINISTIC_COUNTS if m1[k] != m2[k]}
    if unsteady:
        outcome.fail([f"deterministic counts differ between two traced passes: {unsteady}"])
    traced_s = (t1 + t2) / 2
    metrics = {k: (m1[k] + m2[k]) / 2 if k.endswith("_s") else m1[k] for k in m1}
    metrics.update({"trace.untraced_s": untraced_s, "trace.traced_s": traced_s, "trace.overhead_s": traced_s - untraced_s})
    return metrics, {"unit_ops": ops, "deterministic_counts": {k: m1[k] for k in DETERMINISTIC_COUNTS}}


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    try:
        greenstat = import_greenstat()
        import workloads
    except ImportError as exc:
        print(f"error: cannot import greenstat from this checkout: {exc}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    scale = workloads.SMOKE if args.smoke else workloads.FULL
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, scale, workdir)
        golden = None
        if not args.smoke and args.seed == DEFAULT_SEED:
            with open(os.path.join(BENCH_DIR, "golden.json")) as fh:
                golden_doc = json.load(fh)
            if golden_doc["engine_version"] == greenstat.ENGINE_VERSION:
                golden = golden_doc[args.workload]
        outcome = Outcome(workload, golden)
        setup_s = process_age_s()
        if args.setup_only:
            print(f"setup_s {setup_s!r}")
            return 0
        refs = [ref_kernel_s()]
        if args.trace:
            metrics, named = traced(workload, outcome)
        else:
            metrics, named = end_to_end(args, workload, outcome)
        refs.append(ref_kernel_s())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics["host.ref_s"] = statistics.median(refs)
    else:
        setups = [setup_s] + other_setups(args, SETUP_RUNS - 1)
        metrics["setup_s"] = statistics.median(setups)
        named["setup_runs_s"] = setups
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    import numpy
    import scipy

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "failed_ratio": outcome.failed / outcome.attempted,
        "digests": outcome.digests,
        "golden_checked": golden is not None,
        "host": {
            "ref_s": refs,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "engine_version": greenstat.ENGINE_VERSION,
        },
        **named,
    }
    print("report: " + json.dumps(report, sort_keys=True))
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
