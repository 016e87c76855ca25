"""Seeded Monte Carlo estimation of null quantiles and p-values, with caching.

Replicate ``i`` of a simulation always uses the random stream
``RngStream(seed, i)``, so results are independent of chunking and worker
count, and two statistics simulated under the same null specification see
the same draws replicate-by-replicate.

The engine builds each stream's seeded state once per
:class:`~greenstat.rng.StreamTable` (a :class:`QuantileCache` keeps one per
seed, so every later table of that seed only repositions one generator).  It
draws a chunk of replicates at a time, each row from its own stream, turns
the chunk into variates with the null's :class:`~greenstat.sampling.Law`, and
reduces it with the statistic's row kernel.  Chunks are sized to a fixed
byte budget, so memory stays bounded at any ``n``.

A :class:`QuantileCache` stores one thing per simulation key
``(statistic kind, null spec, n, B, seed, engine version)``: the sorted
replicate vector.  Quantile tables and p-values are both read off it, so a
key is simulated at most once.  On disk each vector is one self-describing
``<digest>.f8`` file: one line of the key fields as JSON, then the ``B``
sorted values as little-endian float64.  A file is written atomically and
served only when every key field matches exactly.  The ``<digest>.json``
documents of older versions are never read and may be deleted.
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
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import statistics as stats_mod
from .exceptions import DegenerateCovarianceError, DegenerateSampleError, ParameterError
from .rng import StreamTable, replay
from .sampling import CHI2_ONE, Law, StableSpec, stable_law, sub_gaussian_law

__all__ = [
    "ENGINE_VERSION",
    "NullSpec",
    "QuantileTable",
    "QuantileCache",
    "Statistic",
    "TestConfig",
    "gaussianity_statistic",
    "gaussianity_statistics",
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

    def law(self) -> Law:
        """The sampling law of one draw under this null."""
        if self.kind == "sas":
            return stable_law(StableSpec(self.alpha_star))
        if self.kind == "chi2-1":
            return CHI2_ONE
        return sub_gaussian_law(self.alpha_star, np.array([[1.0, self.rho], [self.rho, 1.0]]))

    def draw(self, n: int, gen: np.random.Generator) -> np.ndarray:
        return self.law().sample(gen, n)


class Statistic(NamedTuple):
    """The engine's record of one statistic, and of its Gaussianity test if it has one.

    The test's function is looked up by its name in ``test`` when the test runs, so that
    a wrapper set on the module attribute applies.  Every such test rejects in the right tail.
    """

    kind: str
    ndim: int
    func: Callable[[np.ndarray], float]  # one sample to its value
    rows: Callable[[np.ndarray], np.ndarray]  # a block of samples to their values
    min_n: int = 2  # smallest sample size
    test: str | None = None  # public function running the Gaussianity test
    calibration: tuple[str, NullSpec] | None = None  # see gaussian_calibration
    whitens: bool = False  # fails on a singular covariance; alone takes asymptotic criticals

    def gaussian_calibration(self, rho: float = 0.0) -> tuple[str, NullSpec]:
        """The statistic and null simulated for the Gaussianity test at correlation ``rho``:
        ``calibration`` if set, else the statistic itself under the Gaussian null."""
        return self.calibration or (self.kind, NullSpec.subgauss(2.0, rho))


# Registry of statistic kinds the engine can simulate.  Other modules
# (baselines) register theirs on import.
_STATISTICS: dict[str, Statistic] = {}


def _row_loop(func: Callable[[np.ndarray], float]) -> Callable[[np.ndarray], np.ndarray]:
    def rows(block: np.ndarray) -> np.ndarray:
        out = np.empty(len(block))
        for j, sample in enumerate(block):
            try:
                out[j] = func(sample)
            except (DegenerateSampleError, DegenerateCovarianceError):
                out[j] = np.nan
        return out

    return rows


def register_statistic(
    kind: str,
    ndim: int,
    func: Callable[[np.ndarray], float],
    rows: Callable[[np.ndarray], np.ndarray] | None = None,
    **fields,
) -> None:
    """Make a statistic available to the Monte Carlo engine under ``kind``.

    ``func`` maps one sample to the statistic's value.  ``rows`` maps a
    block of samples, shape ``(b, n)`` or ``(b, n, 2)``, to the ``b`` values
    ``func`` gives each row, with NaN where the value is degenerate; by
    default it calls ``func`` row by row.  ``fields`` sets other fields of
    the :class:`Statistic` record.  Registering a kind again keeps every
    field but ``ndim``, ``func``, ``rows`` and ``fields``, so a wrapper
    registered over a statistic keeps its minimum size and Gaussianity test.
    """
    record = _STATISTICS.get(kind) or Statistic(kind, ndim, func, func)
    _STATISTICS[kind] = record._replace(ndim=ndim, func=func, rows=rows or _row_loop(func), **fields)


def _statistic(kind: str) -> Statistic:
    try:
        return _STATISTICS[kind]
    except KeyError:
        raise ParameterError(f"unknown statistic kind {kind!r}; known: {sorted(_STATISTICS)}") from None


def statistic_function(kind: str) -> Callable[[np.ndarray], float]:
    return _statistic(kind).func


def statistic_kinds() -> tuple[str, ...]:
    """Names of the registered statistics, in registration order."""
    return tuple(_STATISTICS)


def statistic_ndim(kind: str) -> int:
    return _statistic(kind).ndim


def gaussianity_statistics() -> tuple[str, ...]:
    """Names of the statistics with a Gaussianity test, in registration order."""
    return tuple(kind for kind, record in _STATISTICS.items() if record.test is not None)


def gaussianity_statistic(name: str) -> Statistic:
    """The record of a statistic with a Gaussianity test; raises :class:`ParameterError` for any other name."""
    record = _STATISTICS.get(name)
    if record is None or record.test is None:
        raise ParameterError(f"unknown Gaussianity statistic {name!r}; known: {list(gaussianity_statistics())}")
    return record


register_statistic("greenwood", 1, lambda x: stats_mod.greenwood(x).value, stats_mod.greenwood_rows)
register_statistic("s1", 2, lambda x: stats_mod.s1(x).value, stats_mod.s1_rows, test="test_bivariate_gaussian_s1")
# S2 calibrates on the most conservative Gaussian null (perfect correlation),
# where its law is the Greenwood statistic's on chi-square(1) samples.
register_statistic(
    "s2",
    2,
    lambda x: stats_mod.s2(x).value,
    stats_mod.s2_rows,
    test="test_bivariate_gaussian_s2",
    calibration=("greenwood", NullSpec.chi2_one()),
)


def _check_compatible(stat_kind: str, null: NullSpec) -> None:
    want = statistic_ndim(stat_kind)
    if want != null.ndim:
        raise ParameterError(
            f"statistic {stat_kind!r} expects {want}-dimensional data "
            f"but null kind {null.kind!r} produces {null.ndim}-dimensional draws"
        )


# Elements in one raw-draw buffer of a chunk (8 bytes each), about 0.25 MB.
# The transform's temporaries are a few times that, so a table's transient
# memory stays near 2 MB at any n; 1 MB buffers measured 6.7 MB at n = 300.
_CHUNK_ELEMENTS = 1 << 15


def _simulate_rows(stat_kind: str, null: NullSpec, n: int, states: np.ndarray) -> np.ndarray:
    """Statistic values of the replicates whose stream states are ``states``, in order."""
    rows = _statistic(stat_kind).rows
    law = null.law()
    chunk = max(1, _CHUNK_ELEMENTS // (n * null.ndim))
    gens = replay(states)
    out = np.empty(len(states))
    for lo in range(0, len(states), chunk):
        hi = min(lo + chunk, len(states))
        out[lo:hi] = rows(law.sample_rows(gens, hi - lo, n))
    return out


def _simulate_rows_star(args) -> np.ndarray:
    return _simulate_rows(*args)


def simulate_statistic(
    stat_kind: str,
    null: NullSpec,
    n: int,
    B: int,
    seed: int,
    workers: int = 1,
    *,
    streams: StreamTable | None = None,
) -> np.ndarray:
    """Simulate ``B`` replicate values of a statistic under a null model.

    Replicate ``i`` draws its sample of size ``n`` from the stream
    ``RngStream(seed, i)``; the returned vector is in replicate order and is
    bitwise independent of ``workers``.  ``streams`` is a stream table of
    ``seed`` to read the streams from and extend; without one, the call
    builds a table that lasts only for the call.

    Raises :class:`DegenerateSampleError` if any replicate evaluation is
    degenerate, reporting the count; under the continuous nulls supported
    here that indicates a degenerate null specification.
    """
    _check_compatible(stat_kind, null)
    if B < 1:
        raise ParameterError(f"replicate count must be positive, got {B}")
    if n < 1:
        raise ParameterError(f"sample size must be positive, got {n}")
    if streams is None:
        streams = StreamTable(seed)
    elif streams.seed != seed:
        raise ParameterError(f"stream table of seed {streams.seed} given for seed {seed}")
    states = streams.states(B)
    if workers <= 1 or B < 64:
        values = _simulate_rows(stat_kind, null, n, states)
    else:
        bounds = np.linspace(0, B, min(int(workers) * 4, B) + 1, dtype=int)
        tasks = [(stat_kind, null, n, states[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]
        values = np.empty(B)
        with ProcessPoolExecutor(max_workers=int(workers)) as pool:
            for lo, hi, chunk in zip(bounds[:-1], bounds[1:], pool.map(_simulate_rows_star, tasks)):
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
        key = _simulation_key(self.stat_kind, self.null, self.n, self.B, self.seed)
        return {**key, "levels": list(self.levels), "engine_version": self.engine_version}

    def key_digest(self) -> str:
        """Hex digest of the table's full key: the simulation key plus the levels."""
        return _key_digest(self.key_dict())

    def to_payload(self) -> dict:
        payload = self.key_dict()
        payload["values"] = list(self.values)
        return payload


def _validate_levels(levels: Iterable[float]) -> tuple[float, ...]:
    lv = tuple(float(v) for v in levels)
    if not lv:
        raise ParameterError("at least one probability level is required")
    for v in lv:
        if not 0.0 < v < 1.0:
            raise ParameterError(f"levels must lie strictly inside (0, 1), got {v}")
    return lv


def _check_calibration_size(stat_kind: str, n: int, B: int) -> None:
    if B < 100:
        raise ParameterError(f"replicate count must be at least 100, got {B}")
    min_n = _statistic(stat_kind).min_n
    if n < min_n:
        raise ParameterError(f"sample size must be at least {min_n} for statistic {stat_kind!r}, got {n}")


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
) -> float:
    """Monte Carlo p-value of an observed statistic under a null model.

    ``observed`` may be a float or a :class:`~greenstat.statistics.GreenwoodValue`.
    """
    return QuantileCache().pvalue(stat_kind, observed, null, n, alternative, B, seed, workers=workers)


def _simulation_key(stat_kind: str, null: NullSpec, n: int, B: int, seed: int) -> dict:
    return {
        "stat_kind": stat_kind,
        "null": null.to_dict(),
        "n": int(n),
        "B": int(B),
        "seed": int(seed),
        "engine_version": ENGINE_VERSION,
    }


def _key_digest(key: dict) -> str:
    blob = json.dumps(key, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class QuantileCache:
    """Memory- and disk-backed store of sorted null replicate vectors.

    Each simulation key ``(stat_kind, null, n, B, seed, ENGINE_VERSION)`` is
    simulated at most once per cache; quantile tables and p-values are read
    off its sorted replicates.  With ``cache_dir=None`` the cache is
    memory-only.  Otherwise each vector is also one ``<digest>.f8`` file: a
    line of the key fields as JSON (``json.dumps(key, sort_keys=True)``),
    ``\n``, then the ``B`` sorted values as little-endian float64.  It is
    written with create-then-atomic-rename so that concurrent processes never
    observe a partial file, and served only when every key field matches and
    it holds exactly ``B`` sorted values.  Older ``<digest>.json`` files are
    ignored.  Served vectors are read-only, so no caller can alter a key's
    replicates for later lookups.
    """

    def __init__(self, cache_dir: str | os.PathLike | None = None):
        self.cache_dir = Path(cache_dir).expanduser() if cache_dir is not None else None
        self._replicates: dict[str, np.ndarray] = {}
        self._streams: dict[int, StreamTable] = {}

    def replicates(self, stat_kind: str, null: NullSpec, n: int, B: int, seed: int, workers: int = 1) -> np.ndarray:
        """Sorted replicate vector for a simulation key: from memory, else disk, else simulated."""
        key = _simulation_key(stat_kind, null, n, B, seed)
        digest = _key_digest(key)
        values = self._replicates.get(digest)
        if values is None:
            values = self._load(digest, key)
            if values is None:
                streams = self._streams.get(seed)
                if streams is None:
                    streams = self._streams[seed] = StreamTable(seed)
                values = np.sort(simulate_statistic(stat_kind, null, n, B, seed, workers=workers, streams=streams))
                values.flags.writeable = False
                self._store(digest, key, values)
            self._replicates[digest] = values
        return values

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
        """Quantile table for the exact key, read off the key's sorted replicates."""
        lv = _validate_levels(levels)
        _check_calibration_size(stat_kind, n, B)
        qs = np.quantile(self.replicates(stat_kind, null, n, B, seed, workers=workers), lv)
        return QuantileTable(stat_kind, null, int(n), int(B), int(seed), lv, tuple(float(q) for q in qs))

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
        _check_calibration_size(stat_kind, n, B)
        vals = self.replicates(stat_kind, null, n, B, seed, workers=workers)
        return pvalue_from_replicates(vals, float(observed), alternative)

    def _path(self, digest: str) -> Path:
        return self.cache_dir / f"{digest}.f8"

    def _load(self, digest: str, key: dict) -> np.ndarray | None:
        if self.cache_dir is None:
            return None
        path = self._path(digest)
        if not path.exists():
            return None
        try:
            header, _, body = path.read_bytes().partition(b"\n")
            stored = json.loads(header)
            values = np.frombuffer(body, "<f8")
        except (ValueError, OSError) as exc:
            warnings.warn(f"unreadable replicate cache file {path}: {exc}; recomputing")
            return None
        # Serve the entry only when every key field matches exactly and it
        # holds B sorted values (a NaN fails the order check).
        if stored != key or values.shape != (key["B"],) or not np.all(values[1:] >= values[:-1]):
            warnings.warn(f"cache file {path} does not match the requested key; recomputing")
            return None
        return values

    def _store(self, digest: str, key: dict, values: np.ndarray) -> None:
        if self.cache_dir is None:
            return
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self._path(digest)
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(json.dumps(key, sort_keys=True).encode() + b"\n")
                fh.write(values.astype("<f8", copy=False).tobytes())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


# Shared by every test that does not bring its own cache, so repeated tests
# against the same null reuse one simulation.
_SHARED_CACHE = QuantileCache()


@dataclass
class TestConfig:
    """Monte Carlo settings shared by the tests.

    ``rho`` is the correlation used when simulating bivariate nulls; any
    value gives a valid S1 test because that statistic's law does not
    depend on the correlation.
    """

    reps: int = 10_000
    seed: int = 0
    rho: float = 0.0
    workers: int = 1
    cache: QuantileCache | None = None

    def cache_or_shared(self) -> QuantileCache:
        return self.cache if self.cache is not None else _SHARED_CACHE
