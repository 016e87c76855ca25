"""Compare two checkouts of greenstat in alternating runs and write one JSON file.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --out BENCH_22.json

Each checkout is a directory holding ``src/``, ``tests/`` and ``bench/``.
Every measurement runs in ``PAIRS`` pairs, one run of each side, and the
side that runs first alternates from pair to pair, so that both sides see
the same drift of a shared host.  Eleven kinds of row:

- ``bench``: ``bench/run.py --trace 0`` of each workload that the change
  checkout's ``BENCHMARK.json`` lists, run in the checkout itself at the
  benchmark's own run length; the end-to-end metrics and ``host.ref_s`` of
  each run, and the ``ci.first_interval_s``, ``analyze.cold_s`` and
  ``analyze.warm_p50_s`` of its report: the first two time the cold
  simulation that ``work_per_s`` cannot show, the last one warm invocation.
  Each run also keeps its report's ``digests`` (input index to the digest
  of that input's output), and the workload's ``digests_equal`` is true
  when every run of both sides printed the same digests: the outputs are
  unchanged.
- ``criterion_9`` and ``criterion_7``: wall time of ``pytest
  tests/test_acceptance.py -k criterion_9`` (or ``criterion_7``, the power
  study of S1 against the four baselines) against the checkout's ``src/``.
- ``table``: one ``greenwood`` null table at n = 300, B = 10 000 on a fresh
  ``QuantileCache`` (cold), then a second alpha on the same cache (warm).
  Both simulate all 10 000 replicates; the cache shares nothing between
  them but the process (under engine version 1, warm reused its stream
  table).  The cold table also records its minor page faults and its user
  and system CPU seconds (``getrusage(RUSAGE_SELF)`` across the call), which
  say how much of its time goes to fresh memory rather than arithmetic.
  Then an ``s1`` table under the sub-Gaussian null subgauss(1.9) at the
  same n and B on the same cache, with its seconds and minor page faults:
  the greenwood tables time the symmetric stable transform, this one the
  positive stable multiplier.  Last, cold greenwood tables under sas(0.5)
  and sas(0.01), each with its seconds and minor page faults: since engine
  version 3 the transform is slower than engine 2's product at alpha = 0.5,
  where numpy's ``**`` takes its fast paths for the powers 2 and 1, and
  faster at alpha = 0.01.
- ``standardize``: median time of one bivariate rolling standardization of
  standard normal pairs, at 335 rows with window 20 (the analyze-warm shape)
  and at 20 000 rows with window 250.
- ``lookup``: median time of one warm test per statistic, each served from a
  populated ``--cache-dir`` through a fresh ``QuantileCache`` (so from disk,
  as in a new process), at B = 10 000: greenwood (``test_alpha_right``) at
  n = 300, and s1, s2 and kurt (``gaussianity_test``) at n = 335, the
  analyze-warm shapes.  The directory is filled by an untimed first run.
- ``power``: the alternative loop of ``run_power_study`` alone, at
  ``workers=1``, on the configuration of the benchmark's power-study
  workload at full scale (s1, s2, kurt and hz; five alphas; n = 30 and 100;
  beta = 0.081; 10 000 null and 1 000 alternative replicates).  An untimed
  study with 100 alternative replicates first fills the cache with the null
  tables, so the timed study simulates no null replicate.
- ``baselines``: one cold null table of each baseline statistic (kurt, skew,
  jb and hz) at n = 10, 30 and 100, B = 10 000, under the Gaussian null
  subgauss(2, 0), each on a fresh ``QuantileCache``.
- ``hz_memory``: in a fresh process, the time of one ``henze_zirkler_stat``
  on 4,000 standard normal pairs, and the peak RSS it adds above the import
  and the sample (``ru_maxrss``).  Keep n well below 15,000 on a checkout
  whose Henze-Zirkler forms the whole ``(n, n)`` pair matrix: that takes about
  16 n**2 bytes.
- ``parse``: ``first_s``, the time of the process's first ``cli._parse``
  (of the bivariate analyze-warm argv), which builds the parser that the
  process then keeps; then the median time of one later ``cli._parse`` of
  the analyze-warm argv, bivariate and univariate, and of ``analyze
  --json``, which misses the required ``--in``, so argparse prints its
  usage error (``SystemExit`` caught, stderr discarded).
- ``cli_process``: wall time of a fresh ``python -m greenstat.cli analyze``
  process on a bivariate file, against a ``--cache-dir`` that an untimed
  first run of the same checkout filled, so it times import plus one warm
  invocation.  Each run records the SHA-256 of its stdout.

The output holds every run and, per row, the median of each side.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

PAIRS = 10  # alternating pairs per row

TABLE_SCRIPT = """
import json, resource, time
from greenstat import NullSpec, QuantileCache
cache = QuantileCache()
r0 = resource.getrusage(resource.RUSAGE_SELF)
t0 = time.perf_counter()
cache.replicates("greenwood", NullSpec.sas(1.8), 300, 10_000, 0)
t1 = time.perf_counter()
r1 = resource.getrusage(resource.RUSAGE_SELF)
cache.replicates("greenwood", NullSpec.sas(1.7), 300, 10_000, 0)
t2 = time.perf_counter()
r2 = resource.getrusage(resource.RUSAGE_SELF)
cache.replicates("s1", NullSpec.subgauss(1.9), 300, 10_000, 0)
t3 = time.perf_counter()
r3 = resource.getrusage(resource.RUSAGE_SELF)
cache.replicates("greenwood", NullSpec.sas(0.5), 300, 10_000, 0)
t4 = time.perf_counter()
r4 = resource.getrusage(resource.RUSAGE_SELF)
cache.replicates("greenwood", NullSpec.sas(0.01), 300, 10_000, 0)
t5 = time.perf_counter()
r5 = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({
    "cold_s": t1 - t0,
    "cold_minflt": r1.ru_minflt - r0.ru_minflt,
    "cold_utime_s": r1.ru_utime - r0.ru_utime,
    "cold_stime_s": r1.ru_stime - r0.ru_stime,
    "warm_s": t2 - t1,
    "s1_subgauss_cold_s": t3 - t2,
    "s1_subgauss_cold_minflt": r3.ru_minflt - r2.ru_minflt,
    "sas_0.5_cold_s": t4 - t3,
    "sas_0.5_cold_minflt": r4.ru_minflt - r3.ru_minflt,
    "sas_0.01_cold_s": t5 - t4,
    "sas_0.01_cold_minflt": r5.ru_minflt - r4.ru_minflt,
}))
"""

STANDARDIZE_SCRIPT = """
import json, statistics, time
import numpy as np
from greenstat import standardize
row = {}
for t_len, window, calls in ((335, 20, 200), (20_000, 250, 10)):
    x = np.random.default_rng(0).standard_normal((t_len, 2))
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        standardize(x, "rolling-conditional-std", window)
        times.append(time.perf_counter() - t0)
    row[f"t{t_len}_w{window}_s"] = statistics.median(times)
print(json.dumps(row))
"""

LOOKUP_SCRIPT = """
import json, statistics, tempfile, time
from greenstat import QuantileCache, RngStream, StableSpec, SubGaussianSpec, TestConfig, sample_sas, sample_sub_gaussian
from greenstat.testing import gaussianity_test, test_alpha_right
x = sample_sas(StableSpec(1.9), 300, RngStream(50))
xy = sample_sub_gaussian(SubGaussianSpec(1.9), 335, RngStream(51))
tests = {
    "greenwood": lambda cfg: test_alpha_right(x, 2.0, 0.05, cfg),
    **{name: (lambda cfg, name=name: gaussianity_test(name, xy, 0.05, cfg)) for name in ("s1", "s2", "kurt")},
}
row = {}
with tempfile.TemporaryDirectory() as cache_dir:
    for name, run in tests.items():
        run(TestConfig(cache=QuantileCache(cache_dir)))  # fills the directory
        times = []
        for _ in range(200):
            t0 = time.perf_counter()
            run(TestConfig(cache=QuantileCache(cache_dir)))
            times.append(time.perf_counter() - t0)
        row[f"{name}_s"] = statistics.median(times)
print(json.dumps(row))
"""

BASELINES_SCRIPT = """
import json, time
from greenstat import NullSpec, QuantileCache
row = {}
for kind in ("kurt", "skew", "jb", "hz"):
    for n in (10, 30, 100):
        t0 = time.perf_counter()
        QuantileCache().replicates(kind, NullSpec.subgauss(2.0, 0.0), n, 10_000, 0)
        row[f"{kind}_n{n}_s"] = time.perf_counter() - t0
print(json.dumps(row))
"""

POWER_SCRIPT = """
import dataclasses, json, time
from greenstat import PowerStudyConfig, QuantileCache, run_power_study
cfg = PowerStudyConfig(
    statistics=("s1", "s2", "kurt", "hz"), alphas=(1.8, 1.85, 1.9, 1.95, 2.0), sizes=(30, 100), betas=(0.081,),
    null_reps=10_000, alt_reps=1_000, seed=0,
)
cache = QuantileCache()
run_power_study(dataclasses.replace(cfg, alt_reps=100), cache=cache, workers=1)  # fills the null tables
t0 = time.perf_counter()
run_power_study(cfg, cache=cache, workers=1)
print(json.dumps({"alternatives_s": time.perf_counter() - t0}))
"""

HZ_MEMORY_SCRIPT = """
import json, resource, time
import numpy as np
from greenstat.baselines import henze_zirkler_stat
xy = np.random.default_rng(0).standard_normal((4000, 2))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
t0 = time.perf_counter()
henze_zirkler_stat(xy)
t1 = time.perf_counter()
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"n4000_s": t1 - t0, "n4000_peak_rss_above_import_mb": (after - before) / 1024}))
"""

PARSE_SCRIPT = """
import contextlib, io, json, statistics, time
from greenstat import cli
tail = ["--json", "--reps", "10000", "--cache-dir", "cache"]
bivariate = ["analyze", "--in", "biv.csv", "--m", "0.2927,0,0,0.21", "--standardize", "rolling:20", "--tests", "s1,s2,kurt"]
def usage_error():
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            cli._parse(["analyze", "--json"])
        except SystemExit:
            pass
t0 = time.perf_counter()
cli._parse(bivariate + tail)
row = {"first_s": time.perf_counter() - t0}
for name, parse, calls in (
    ("bivariate", lambda: cli._parse(bivariate + tail), 1000),
    ("univariate", lambda: cli._parse(["analyze", "--in", "uni.csv"] + tail), 1000),
    ("usage_error", usage_error, 200),
):
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        parse()
        times.append(time.perf_counter() - t0)
    row[f"{name}_s"] = statistics.median(times)
print(json.dumps(row))
"""


def _env(checkout: str) -> dict:
    return {**os.environ, "PYTHONPATH": os.path.join(checkout, "src")}


def bench_run(checkout: str, workload: str) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0"]
    proc = subprocess.run(cmd + ["--trace", "0"], cwd=checkout, capture_output=True, text=True)
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result, report = json.loads(result_line), json.loads(report_line.removeprefix("report: "))
    row = {name: m["value"] for name, m in result["metrics"].items()}
    row.update(failed=result["failed"], host_ref_s=report["host"]["ref_s"], golden_checked=report["golden_checked"])
    named = ("ci.first_interval_s", "analyze.cold_s", "analyze.warm_p50_s")
    row.update({name: report[name]["value"] for name in named if name in report})
    row["digests"] = report["digests"]
    return row


def criterion(name: str):
    """A measurement of the wall time of one acceptance criterion, ``name`` as in ``criterion_9``."""

    def measure(checkout: str) -> dict:
        t0 = time.perf_counter()
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_acceptance.py", "-k", name]
        proc = subprocess.run(cmd, cwd=checkout, env=_env(checkout), capture_output=True, text=True)
        return {"wall_s": time.perf_counter() - t0, "passed": proc.returncode == 0}

    return measure


def script_row(script: str):
    """A measurement that runs ``script`` against the checkout's ``src/`` and reads the JSON it prints."""

    def measure(checkout: str) -> dict:
        cmd = [sys.executable, "-c", script]
        proc = subprocess.run(cmd, env=_env(checkout), capture_output=True, text=True, check=True)
        return json.loads(proc.stdout)

    return measure


def cli_process(checkout: str, infile: str, cache_dir: str) -> dict:
    cmd = [sys.executable, "-m", "greenstat.cli", "analyze", "--in", infile, "--m", "0.2927,0,0,0.21"]
    cmd += ["--standardize", "rolling:20", "--tests", "s1,s2,kurt", "--json", "--cache-dir", cache_dir]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=_env(checkout), capture_output=True, check=True)
    return {"wall_s": time.perf_counter() - t0, "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest()}


def alternate(pairs: int, measure, parent: str, change: str) -> dict:
    runs = {"parent": [], "change": []}
    for k in range(pairs):
        sides = [("parent", parent), ("change", change)]
        for side, checkout in sides if k % 2 == 0 else sides[::-1]:
            runs[side].append(measure(checkout))
    medians = {}
    for side, rows in runs.items():
        keys = [k for k, v in rows[0].items() if isinstance(v, (int, float)) and not isinstance(v, bool)]
        medians[side] = {k: statistics.median(r[k] for r in rows) for k in keys}
    return {"runs": runs, "median": medians}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    with open(os.path.join(change, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    out = {"nproc": os.cpu_count(), "pairs": {}}
    for workload in workloads:
        row = alternate(PAIRS, lambda c: bench_run(c, workload), parent, change)
        digests = [run["digests"] for runs in row["runs"].values() for run in runs]
        row["digests_equal"] = all(d == digests[0] for d in digests)
        out["pairs"][workload] = row
    for name in ("criterion_9", "criterion_7"):
        out[name] = alternate(PAIRS, criterion(name), parent, change)
    out["table"] = alternate(PAIRS, script_row(TABLE_SCRIPT), parent, change)
    out["standardize"] = alternate(PAIRS, script_row(STANDARDIZE_SCRIPT), parent, change)
    out["lookup"] = alternate(PAIRS, script_row(LOOKUP_SCRIPT), parent, change)
    out["power"] = alternate(PAIRS, script_row(POWER_SCRIPT), parent, change)
    out["baselines"] = alternate(PAIRS, script_row(BASELINES_SCRIPT), parent, change)
    out["hz_memory"] = alternate(PAIRS, script_row(HZ_MEMORY_SCRIPT), parent, change)
    out["parse"] = alternate(PAIRS, script_row(PARSE_SCRIPT), parent, change)
    with tempfile.TemporaryDirectory() as tmp:
        infile = os.path.join(tmp, "pairs.csv")
        with open(infile, "w") as fh:
            fh.writelines(f"{a!r},{b!r}\n" for a, b in np.random.default_rng(0).standard_normal((336, 2)).tolist())
        caches = {checkout: os.path.join(tmp, f"cache-{side}") for side, checkout in (("parent", parent), ("change", change))}
        for checkout, cache_dir in caches.items():
            cli_process(checkout, infile, cache_dir)  # fills the cache
        out["cli_process"] = alternate(PAIRS, lambda c: cli_process(c, infile, caches[c]), parent, change)
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
