"""Seeded Monte Carlo estimation of null quantiles and p-values, with caching.

Replicate ``i`` of a simulation always uses the random stream
``RngStream(seed, i)``, so results are independent of chunking and worker
count, and two statistics simulated under the same null specification see
the same draws replicate-by-replicate.

Quantile tables are cached as one self-describing JSON document per table,
written atomically, and looked up by a hash of the full key
``(statistic kind, null spec, n, levels, B, seed)``; a stored table is only
served when every key field matches exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import statistics as stats_mod
from .exceptions import DegenerateCovarianceError, DegenerateSampleError, ParameterError
from .rng import RngStream
from .sampling import _stable_from, _sub_gaussian_from, StableSpec

__all__ = [
    "ENGINE_VERSION",
    "NullSpec",
    "QuantileTable",
    "QuantileCache",
    "register_statistic",
    "statistic_function",
    "statistic_kinds",
    "statistic_ndim",
    "simulate_statistic",
    "estimate_quantiles",
    "mc_pvalue",
]

ENGINE_VERSION = "1"

NULL_KINDS = ("sas", "subgauss", "chi2-1")


@dataclass(frozen=True)
class NullSpec:
    """A null hypothesis model for Monte Carlo calibration.

    ``kind`` is one of ``"sas"`` (univariate symmetric alpha-stable with
    unit scale), ``"subgauss"`` (bivariate sub-Gaussian with unit variances
    and correlation ``rho``) or ``"chi2-1"`` (univariate chi-square with one
    degree of freedom).
    """

    kind: str
    alpha_star: float | None = None
    rho: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in NULL_KINDS:
            raise ParameterError(f"unknown null kind {self.kind!r}; expected one of {NULL_KINDS}")
        if self.kind == "chi2-1":
            if self.alpha_star is not None or self.rho is not None:
                raise ParameterError("chi2-1 null takes no alpha_star or rho")
            return
        if self.alpha_star is None or not (0.0 < self.alpha_star <= 2.0):
            raise ParameterError(f"alpha_star must lie in (0, 2], got {self.alpha_star}")
        if self.kind == "sas":
            if self.rho is not None:
                raise ParameterError("univariate null takes no rho")
        elif self.rho is None or not -1.0 <= self.rho <= 1.0:
            raise ParameterError(f"rho must lie in [-1, 1], got {self.rho}")

    @classmethod
    def sas(cls, alpha_star: float) -> "NullSpec":
        return cls("sas", float(alpha_star))

    @classmethod
    def subgauss(cls, alpha_star: float, rho: float = 0.0) -> "NullSpec":
        return cls("subgauss", float(alpha_star), float(rho))

    @classmethod
    def chi2_one(cls) -> "NullSpec":
        return cls("chi2-1")

    @property
    def ndim(self) -> int:
        return 2 if self.kind == "subgauss" else 1

    def to_dict(self) -> dict:
        return {"kind": self.kind, "alpha_star": self.alpha_star, "rho": self.rho}

    @classmethod
    def from_dict(cls, d: dict) -> "NullSpec":
        return cls(d["kind"], d.get("alpha_star"), d.get("rho"))

    def draw(self, n: int, gen: np.random.Generator) -> np.ndarray:
        if self.kind == "sas":
            return _stable_from(gen, StableSpec(self.alpha_star), n)
        if self.kind == "chi2-1":
            return gen.standard_normal(n) ** 2
        return _sub_gaussian_from(gen, self.alpha_star, np.array([[1.0, self.rho], [self.rho, 1.0]]), n)


# Registry of statistic kinds the engine can simulate.  Other modules
# (baselines) register theirs on import.
_STATISTICS: dict[str, tuple[int, Callable[[np.ndarray], float]]] = {}


def register_statistic(kind: str, ndim: int, func: Callable[[np.ndarray], float]) -> None:
    """Make a statistic available to the Monte Carlo engine under ``kind``."""
    _STATISTICS[kind] = (ndim, func)


def statistic_function(kind: str) -> Callable[[np.ndarray], float]:
    try:
        return _STATISTICS[kind][1]
    except KeyError:
        raise ParameterError(f"unknown statistic kind {kind!r}; known: {sorted(_STATISTICS)}") from None


def statistic_kinds() -> tuple[str, ...]:
    """Names of the registered statistics, in registration order."""
    return tuple(_STATISTICS)


def statistic_ndim(kind: str) -> int:
    try:
        return _STATISTICS[kind][0]
    except KeyError:
        raise ParameterError(f"unknown statistic kind {kind!r}; known: {sorted(_STATISTICS)}") from None


register_statistic("greenwood", 1, lambda x: stats_mod.greenwood(x).value)
register_statistic("s1", 2, lambda x: stats_mod.s1(x).value)
register_statistic("s2", 2, lambda x: stats_mod.s2(x).value)


def _check_compatible(stat_kind: str, null: NullSpec) -> None:
    want = statistic_ndim(stat_kind)
    if want != null.ndim:
        raise ParameterError(
            f"statistic {stat_kind!r} expects {want}-dimensional data "
            f"but null kind {null.kind!r} produces {null.ndim}-dimensional draws"
        )


def _simulate_range(stat_kind: str, null: NullSpec, n: int, seed: int, lo: int, hi: int) -> np.ndarray:
    func = statistic_function(stat_kind)
    out = np.empty(hi - lo)
    for i in range(lo, hi):
        sample = null.draw(n, RngStream(seed, i).generator())
        try:
            out[i - lo] = func(sample)
        except (DegenerateSampleError, DegenerateCovarianceError):
            out[i - lo] = np.nan
    return out


def _simulate_range_star(args) -> np.ndarray:
    return _simulate_range(*args)


def simulate_statistic(
    stat_kind: str,
    null: NullSpec,
    n: int,
    B: int,
    seed: int,
    workers: int = 1,
) -> np.ndarray:
    """Simulate ``B`` replicate values of a statistic under a null model.

    Replicate ``i`` draws its sample of size ``n`` from the stream
    ``RngStream(seed, i)``; the returned vector is in replicate order and is
    bitwise independent of ``workers``.

    Raises :class:`DegenerateSampleError` if any replicate evaluation is
    degenerate, reporting the count; under the continuous nulls supported
    here that indicates a degenerate null specification.
    """
    _check_compatible(stat_kind, null)
    if B < 1:
        raise ParameterError(f"replicate count must be positive, got {B}")
    if n < 1:
        raise ParameterError(f"sample size must be positive, got {n}")
    if workers <= 1 or B < 64:
        values = _simulate_range(stat_kind, null, n, seed, 0, B)
    else:
        bounds = np.linspace(0, B, min(int(workers) * 4, B) + 1, dtype=int)
        tasks = [(stat_kind, null, n, seed, int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]
        values = np.empty(B)
        with ProcessPoolExecutor(max_workers=int(workers)) as pool:
            for (_, _, _, _, lo, hi), chunk in zip(tasks, pool.map(_simulate_range_star, tasks)):
                values[lo:hi] = chunk
    bad = int(np.isnan(values).sum())
    if bad:
        raise DegenerateSampleError(
            f"{bad} of {B} null replicates were degenerate for statistic {stat_kind!r} under {null}; "
            "the null specification admits no variation for this statistic"
        )
    return values


@dataclass(frozen=True)
class QuantileTable:
    """Monte Carlo quantiles of a statistic's null distribution."""

    stat_kind: str
    null: NullSpec
    n: int
    B: int
    seed: int
    levels: tuple[float, ...]
    values: tuple[float, ...]
    engine_version: str = ENGINE_VERSION

    def quantile(self, level: float) -> float:
        for lv, value in zip(self.levels, self.values):
            if lv == level or math.isclose(lv, level, rel_tol=0.0, abs_tol=1e-15):
                return value
        raise KeyError(f"level {level} not present in table (levels {self.levels})")

    def key_dict(self) -> dict:
        return {
            "stat_kind": self.stat_kind,
            "null": self.null.to_dict(),
            "n": self.n,
            "B": self.B,
            "seed": self.seed,
            "levels": list(self.levels),
            "engine_version": self.engine_version,
        }

    def to_payload(self) -> dict:
        payload = self.key_dict()
        payload["values"] = list(self.values)
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "QuantileTable":
        return cls(
            stat_kind=payload["stat_kind"],
            null=NullSpec.from_dict(payload["null"]),
            n=int(payload["n"]),
            B=int(payload["B"]),
            seed=int(payload["seed"]),
            levels=tuple(float(v) for v in payload["levels"]),
            values=tuple(float(v) for v in payload["values"]),
            engine_version=str(payload["engine_version"]),
        )


def _validate_levels(levels: Iterable[float]) -> tuple[float, ...]:
    lv = tuple(float(v) for v in levels)
    if not lv:
        raise ParameterError("at least one probability level is required")
    for v in lv:
        if not 0.0 < v < 1.0:
            raise ParameterError(f"levels must lie strictly inside (0, 1), got {v}")
    return lv


def _check_calibration_size(n: int, B: int) -> None:
    if B < 100:
        raise ParameterError(f"replicate count must be at least 100, got {B}")
    if n < 2:
        raise ParameterError(f"sample size must be at least 2, got {n}")


def estimate_quantiles(
    stat_kind: str,
    null: NullSpec,
    n: int,
    levels: Iterable[float],
    B: int = 10_000,
    seed: int = 0,
    workers: int = 1,
) -> QuantileTable:
    """Estimate null quantiles of a statistic by Monte Carlo.

    Draws ``B`` independent samples of size ``n`` under ``null``, evaluates
    the statistic on each, and returns empirical quantiles using linear
    interpolation of order statistics (numpy's default, the common
    "type 7" rule).  Deterministic in all inputs.
    """
    return QuantileCache().get_or_compute(stat_kind, null, n, levels, B, seed, workers=workers)


def _tail_counts(sorted_values: np.ndarray, observed: float) -> tuple[int, int]:
    le = int(np.searchsorted(sorted_values, observed, side="right"))
    ge = sorted_values.size - int(np.searchsorted(sorted_values, observed, side="left"))
    return le, ge


def pvalue_from_replicates(sorted_values: np.ndarray, observed: float, alternative: str) -> float:
    """Monte Carlo p-value ``(1 + #extreme) / (B + 1)`` against stored replicates."""
    B = sorted_values.size
    le, ge = _tail_counts(sorted_values, observed)
    if alternative == "greater":
        return (1 + ge) / (B + 1)
    if alternative == "less":
        return (1 + le) / (B + 1)
    if alternative == "two-sided":
        return min(1.0, 2.0 * min((1 + ge) / (B + 1), (1 + le) / (B + 1)))
    raise ParameterError(f"alternative must be 'less', 'greater' or 'two-sided', got {alternative!r}")


def mc_pvalue(
    stat_kind: str,
    observed,
    null: NullSpec,
    n: int,
    alternative: str = "greater",
    B: int = 10_000,
    seed: int = 0,
    workers: int = 1,
    replicates: np.ndarray | None = None,
) -> float:
    """Monte Carlo p-value of an observed statistic under a null model.

    ``observed`` may be a float or a :class:`~greenstat.statistics.GreenwoodValue`.
    ``replicates`` short-circuits the simulation when the replicate vector
    for the same key is already at hand.
    """
    if replicates is None:
        replicates = simulate_statistic(stat_kind, null, n, B, seed, workers=workers)
    return pvalue_from_replicates(np.sort(replicates), float(observed), alternative)


def table_key_digest(stat_kind: str, null: NullSpec, n: int, B: int, seed: int, levels: tuple[float, ...]) -> str:
    """Hex digest naming the cache file for a full quantile-table key."""
    key = {
        "stat_kind": stat_kind,
        "null": null.to_dict(),
        "n": int(n),
        "B": int(B),
        "seed": int(seed),
        "levels": list(levels),
        "engine_version": ENGINE_VERSION,
    }
    blob = json.dumps(key, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class QuantileCache:
    """Disk- and memory-backed store of quantile tables and replicate vectors.

    With ``cache_dir=None`` the cache is memory-only.  Disk entries are one
    JSON document per table, written with create-then-atomic-rename so that
    concurrent processes never observe a partial file.
    """

    def __init__(self, cache_dir: str | os.PathLike | None = None):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._tables: dict[str, QuantileTable] = {}
        self._replicates: dict[tuple, np.ndarray] = {}

    def replicates(self, stat_kind: str, null: NullSpec, n: int, B: int, seed: int, workers: int = 1) -> np.ndarray:
        """Sorted replicate vector for a simulation key, memoized in memory."""
        key = (stat_kind, null, int(n), int(B), int(seed))
        hit = self._replicates.get(key)
        if hit is None:
            hit = np.sort(simulate_statistic(stat_kind, null, n, B, seed, workers=workers))
            self._replicates[key] = hit
        return hit

    def get_or_compute(
        self,
        stat_kind: str,
        null: NullSpec,
        n: int,
        levels: Iterable[float],
        B: int = 10_000,
        seed: int = 0,
        workers: int = 1,
    ) -> QuantileTable:
        """Return the cached table for the exact key, computing and persisting on miss."""
        lv = _validate_levels(levels)
        _check_calibration_size(n, B)
        digest = table_key_digest(stat_kind, null, n, B, seed, lv)
        table = self._tables.get(digest)
        if table is not None:
            return table
        table = self._load(digest, stat_kind, null, n, B, seed, lv)
        if table is None:
            sorted_vals = self.replicates(stat_kind, null, n, B, seed, workers=workers)
            qs = np.quantile(sorted_vals, lv)
            table = QuantileTable(stat_kind, null, int(n), int(B), int(seed), lv, tuple(float(q) for q in qs))
            self._store(digest, table)
        self._tables[digest] = table
        return table

    def pvalue(
        self,
        stat_kind: str,
        observed,
        null: NullSpec,
        n: int,
        alternative: str,
        B: int,
        seed: int,
        workers: int = 1,
    ) -> float:
        _check_calibration_size(n, B)
        vals = self.replicates(stat_kind, null, n, B, seed, workers=workers)
        return pvalue_from_replicates(vals, float(observed), alternative)

    def _path(self, digest: str) -> Path:
        return self.cache_dir / f"{digest}.json"

    def _load(self, digest: str, stat_kind, null, n, B, seed, levels) -> QuantileTable | None:
        if self.cache_dir is None:
            return None
        path = self._path(digest)
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
            table = QuantileTable.from_payload(payload)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            warnings.warn(f"unreadable quantile-table cache file {path}: {exc}; recomputing")
            return None
        expected = QuantileTable(stat_kind, null, int(n), int(B), int(seed), levels, table.values)
        # Serve the entry only when every key field matches exactly.
        if table.key_dict() != expected.key_dict():
            warnings.warn(f"cache file {path} does not match the requested key; recomputing")
            return None
        return table

    def _store(self, digest: str, table: QuantileTable) -> None:
        if self.cache_dir is None:
            return
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self._path(digest)
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(table.to_payload(), fh, sort_keys=True, indent=1)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
