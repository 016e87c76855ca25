"""The benchmark's three workloads: inputs, operations and output checks.

Every workload is a closed loop with one caller.  Inputs come from the
benchmark's own generators, seeded by the data seed; greenstat receives
only the generated data.  The Monte Carlo seed stays 0 and the replicate
count ``B`` stays at the paper's 10 000 (except in the smoke scale that the
benchmark's own tests use).

Each workload offers ``start()`` (a fresh session: empty caches), ``op(i)``
(the timed operation on input ``i``) and ``check(i, result)`` (digest and
range checks, outside the timed region).  A run calls ``start()`` once and
then runs operations 0, 1, 2, ... on that session.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from greenstat import cli, harness, mc, testing

MC_SEED = 0
N_INPUTS = 16  # distinct inputs per run; operations cycle through them


@dataclass(frozen=True)
class Scale:
    reps: int
    ci_n: int
    ci_grid: float
    power_alphas: tuple[float, ...]
    power_sizes: tuple[int, ...]
    power_null_reps: int
    power_alt_reps: int
    analyze_t: int
    analyze_n: int


FULL = Scale(
    reps=10_000,
    ci_n=300,
    ci_grid=0.01,
    power_alphas=(1.8, 1.85, 1.9, 1.95, 2.0),
    power_sizes=(30, 100),
    power_null_reps=10_000,
    power_alt_reps=1_000,
    analyze_t=336,
    analyze_n=300,
)

# A few seconds per workload; for the benchmark's own tests.
SMOKE = Scale(
    reps=200,
    ci_n=60,
    ci_grid=0.05,
    power_alphas=(1.9, 2.0),
    power_sizes=(30,),
    power_null_reps=200,
    power_alt_reps=100,
    analyze_t=80,
    analyze_n=60,
)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- input generators (independent of greenstat's samplers) -----------------


def sas(rng: np.random.Generator, alpha: float, n: int) -> np.ndarray:
    """Symmetric alpha-stable draws, unit scale, by Chambers-Mallows-Stuck."""
    v = (rng.random(n) - 0.5) * np.pi
    w = rng.standard_exponential(n)
    return np.sin(alpha * v) / np.cos(v) ** (1 / alpha) * (np.cos((1 - alpha) * v) / w) ** ((1 - alpha) / alpha)


def sub_gaussian(rng: np.random.Generator, alpha: float, rho: float, n: int) -> np.ndarray:
    """Bivariate sub-Gaussian pairs sqrt(A) * G, E[exp(-sA)] = exp(-s**(alpha/2))."""
    a = alpha / 2
    v = (rng.random(n) - 0.5) * np.pi
    w = rng.standard_exponential(n)
    mult = np.sin(a * (v + np.pi / 2)) / np.cos(v) ** (1 / a) * (np.cos(v - a * (v + np.pi / 2)) / w) ** ((1 - a) / a)
    z = rng.standard_normal((n, 2))
    g = np.column_stack([z[:, 0], rho * z[:, 0] + math.sqrt(1 - rho * rho) * z[:, 1]])
    return np.sqrt(mult)[:, None] * g


def write_csv(path: str, arr: np.ndarray) -> None:
    with open(path, "w") as fh:
        for row in arr.reshape(len(arr), -1):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


# -- shared checks ------------------------------------------------------------


def _in_unit_range(value: float, n: int) -> bool:
    return 1.0 / n - 1e-12 <= value <= 1.0


# -- workloads ----------------------------------------------------------------


class Workload:
    n_inputs = N_INPUTS
    cold_ops = 1  # operations at the start of a session that fill its caches
    min_ops = 2  # a run makes at least this many operations, whatever its length
    trace_ops = 1  # operations in one traced unit, from empty caches

    def start(self) -> None:
        pass

    def input_index(self, i: int) -> int:
        return i % self.n_inputs


class CiSweep(Workload):
    """``ci_alpha`` on successive SAS(1.8) samples sharing one in-memory cache."""

    name = "ci-sweep"
    level = 0.95
    trace_ops = 2  # a cold interval and a warm one

    def __init__(self, seed: int, scale: Scale, workdir: str):
        self.scale = scale
        rng = np.random.default_rng([seed, 1])
        self.samples = [sas(rng, 1.8, scale.ci_n) for _ in range(N_INPUTS)]
        self.cache = None
        self.calibrated: set[float] = set()

    def start(self) -> None:
        self.cache = mc.QuantileCache()
        self.calibrated = set()

    def work_units(self, ops: int) -> int:
        # Grid points calibrated: how many intervals a run completes depends
        # on the data, but each distinct probed alpha costs one null table.
        return len(self.calibrated)

    def op(self, i: int):
        cfg = testing.TestConfig(reps=self.scale.reps, seed=MC_SEED, workers=1, cache=self.cache)
        return testing.ci_alpha(self.samples[self.input_index(i)], self.level, self.scale.ci_grid, cfg)

    def check(self, i: int, iv) -> tuple[str, list[str]]:
        payload = {"lower": iv.lower, "upper": iv.upper, "probes": [[a, bool(r)] for a, r in iv.probes]}
        self.calibrated.update(a for a, _ in iv.probes)
        problems = []
        if not 0.0 < iv.lower <= iv.upper <= 2.0:
            problems.append(f"interval [{iv.lower}, {iv.upper}] is not ordered inside (0, 2]")
        decisions = dict(iv.probes)
        for end in (iv.lower, iv.upper):
            if decisions.get(end) is not False:
                problems.append(f"endpoint {end} is not a retained probe")
        for a, rejected in iv.probes:
            if not 0.0 < a <= 2.0:
                problems.append(f"probe {a} outside (0, 2]")
            if iv.lower <= a <= iv.upper and rejected:
                problems.append(f"probe {a} inside the interval was rejected")
        return digest(json.dumps(payload, sort_keys=True).encode()), problems


class PowerStudy(Workload):
    """``run_power_study`` over S1, S2, Mardia kurtosis and Henze-Zirkler on two workers."""

    name = "power-study"
    statistics = ("s1", "s2", "kurt", "hz")
    beta = 0.081
    workers = 2
    n_inputs = 1

    def __init__(self, seed: int, scale: Scale, workdir: str):
        # The study has no data input: its configuration is fixed and its
        # draws come from the Monte Carlo seed, so the data seed is unused.
        self.cfg = harness.PowerStudyConfig(
            statistics=self.statistics,
            alphas=scale.power_alphas,
            sizes=scale.power_sizes,
            betas=(self.beta,),
            null_reps=scale.power_null_reps,
            alt_reps=scale.power_alt_reps,
            seed=MC_SEED,
        )
        self.csv_path = os.path.join(workdir, "power.csv")
        self.n_cells = len(self.statistics) * len(scale.power_alphas) * len(scale.power_sizes)

    def work_units(self, ops: int) -> int:
        return ops * self.n_cells  # cells

    def op(self, i: int):
        # Every study starts from an empty cache.
        cells = harness.run_power_study(self.cfg, cache=mc.QuantileCache(), workers=self.workers)
        harness.power_curve_to_csv(cells, self.csv_path)
        return cells

    def check(self, i: int, cells) -> tuple[str, list[str]]:
        with open(self.csv_path, "rb") as fh:
            data = fh.read()
        problems = []
        if len(cells) != self.n_cells:
            problems.append(f"{len(cells)} power cells, expected {self.n_cells}")
        for c in cells:
            if not 0.0 <= c.power <= 1.0 or not 0.0 <= c.se <= 0.5:
                problems.append(f"power {c.power} (se {c.se}) out of range for {c.statistic} n={c.n} alpha={c.alpha}")
            if c.degenerate:
                problems.append(f"{c.degenerate} degenerate replicates for {c.statistic} n={c.n} alpha={c.alpha}")
        return digest(data), problems


class AnalyzeWarm(Workload):
    """``greenstat analyze --json`` invocations on one cache directory.

    Operations alternate between a bivariate VAR(1) series and a univariate
    series; every invocation goes through ``cli.main`` and builds a fresh
    cache, as a new process would.  The first two write the tables; every
    later one reads them from the shared directory.
    """

    name = "analyze-warm"
    m = "0.2927,0,0,0.21"
    n_inputs = 2 * N_INPUTS  # a bivariate and a univariate series per input pair
    cold_ops = 2  # the first of each kind
    min_ops = cold_ops + 12  # enough warm invocations for a tail with ten beyond it
    trace_ops = 6  # a cold pair, then two warm pairs

    def __init__(self, seed: int, scale: Scale, workdir: str):
        self.scale = scale
        self.workdir = workdir
        rng = np.random.default_rng([seed, 3])
        m = np.array([float(v) for v in self.m.split(",")]).reshape(2, 2)
        self.inputs = []
        for k in range(N_INPUTS):
            xi = sub_gaussian(rng, 1.9, 0.3, scale.analyze_t)
            series = np.empty_like(xi)
            prev = np.zeros(2)
            for t in range(xi.shape[0]):
                prev = m @ prev + xi[t]
                series[t] = prev
            biv, uni = os.path.join(workdir, f"biv-{k:02d}.csv"), os.path.join(workdir, f"uni-{k:02d}.csv")
            write_csv(biv, series)
            write_csv(uni, sas(rng, 1.8, scale.analyze_n))
            self.inputs += [biv, uni]
        self.sessions = 0
        self.cache_dir = None

    def start(self) -> None:
        self.sessions += 1
        self.cache_dir = os.path.join(self.workdir, f"cache-{self.sessions}")

    def work_units(self, ops: int) -> int:
        return ops  # invocations

    def op(self, i: int):
        index = self.input_index(i)
        if index % 2 == 0:
            argv = ["--m", self.m, "--standardize", "rolling:20", "--tests", "s1,s2,kurt"]
        else:
            argv = []
        argv = ["analyze", "--in", self.inputs[index], *argv, "--json", "--reps", str(self.scale.reps)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv + ["--cache-dir", self.cache_dir])
        return code, out.getvalue()

    def check(self, i: int, output) -> tuple[str, list[str]]:
        code, text = output
        if code != 0:
            return digest(text.encode()), [f"analyze exited with {code}"]
        problems = []
        report = json.loads(text)
        # The input path names this run's work directory; keep its file name.
        report["input"] = os.path.basename(report["input"])
        tests = report["tests"]
        names = ("s1", "s2", "mardia-kurtosis") if self.input_index(i) % 2 == 0 else ("greenwood",)
        if tuple(t["statistic"] for t in tests) != names:
            problems.append(f"unexpected tests {[t['statistic'] for t in tests]}")
        for t in tests:
            n = t["n"]
            bounds = [v for iv in t["region"] for v in iv]
            if "p_value" in t:
                if not _in_unit_range(t["observed"], n) or not all(_in_unit_range(v, n) for v in bounds):
                    problems.append(f"{t['statistic']}: statistic or table outside [1/n, 1]")
                if not 0.0 < t["p_value"] <= 1.0:
                    problems.append(f"{t['statistic']}: p-value {t['p_value']} outside (0, 1]")
            elif not (math.isfinite(t["observed"]) and math.isfinite(t["critical"])):
                problems.append(f"{t['statistic']}: non-finite statistic or critical value")
        return digest(json.dumps(report, indent=2, sort_keys=True).encode()), problems


WORKLOADS = {w.name: w for w in (CiSweep, PowerStudy, AnalyzeWarm)}
