"""Seeded Monte Carlo estimation of null quantiles and p-values, with caching.

Replicates are simulated in blocks of ``K = max(1, 2**15 // (n * ndim))``
rows (109 at n = 300).  Block ``k`` reads one stream, ``RngStream(seed, (2,
0, k))``, in bulk: each raw draw of the null's
:class:`~greenstat.sampling.Law` over the whole ``(K, n, ...)`` block in turn,
then the law's transform and the statistic's row kernel run on the block.  So
replicate ``i`` depends only on the seed, the null, ``n`` and ``i``: not on
``B``, on ``workers`` or on how the work is split, and two statistics
simulated under the same null see the same draws replicate by replicate.  A
block's buffers are about 0.25 MB each, so memory stays bounded at any ``n``.

A :class:`QuantileCache` stores one thing per simulation key
``(statistic kind, null spec, n, B, seed, engine version)``: the sorted
replicate vector.  Quantile tables and p-values are both read off it, so a
key is simulated at most once.  On disk each vector is one self-describing
``<digest>.f8`` file: one line of the key fields as JSON, then the ``B``
sorted values as little-endian float64.  A file is written atomically and
served only when every key field matches exactly, so files of engine
version 1 (one stream per replicate) and 2 (the float64 product form of the
Chambers-Mallows-Stuck transform) are never served.  The
``<digest>.json`` documents of older versions are never read and may be
deleted.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import tempfile
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import statistics as stats_mod
from .exceptions import DegenerateCovarianceError, DegenerateSampleError, ParameterError
from .rng import RngStream, _check_seed, _typed
from .sampling import CHI2_ONE, Law, StableSpec, _check_count, stable_law, sub_gaussian_law

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
]

ENGINE_VERSION = "3"

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
        # Floats, so that 2 and 2.0 give one cache key.
        object.__setattr__(self, "alpha_star", float(self.alpha_star))
        if self.rho is not None:
            object.__setattr__(self, "rho", float(self.rho))

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

    def gaussian_calibration(self) -> tuple[str, NullSpec]:
        """The statistic and null simulated for the Gaussianity test: ``calibration`` if set,
        else the statistic itself under the uncorrelated Gaussian null subgauss(2, 0)."""
        return self.calibration or (self.kind, NullSpec.subgauss(2.0))


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

    ``func`` maps one sample to the statistic's value.  ``rows`` maps a block
    of samples, shape ``(b, n)`` or ``(b, n, 2)``, to the ``b`` values ``func``
    gives each row, NaN where degenerate; a built-in ``func`` runs its ``rows``
    on one row, and by default ``rows`` calls ``func`` row by row.  ``fields``
    sets other fields of the :class:`Statistic` record.  Registering a kind
    again keeps every field but ``ndim``, ``func``, ``rows`` and ``fields``, so a
    wrapper registered over a statistic keeps its minimum size and Gaussianity test.
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
    record = _STATISTICS.get(name) if isinstance(name, str) else None
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


# Elements in one raw-draw buffer of a block (8 bytes each), about 0.25 MB.
# Part of the engine-2 stream contract: it fixes the rows of a block, so
# changing it changes every replicate and needs a new ENGINE_VERSION.  The
# transform's temporaries are a few times a buffer, so a table's transient
# memory stays near 2 MB at any n.
_CHUNK_ELEMENTS = 1 << 15


def _block_rows(n: int, ndim: int) -> int:
    """Replicates per block: 109 at n = 300, and one once ``n * ndim > 2**15``."""
    return max(1, _CHUNK_ELEMENTS // (n * ndim))


def _simulate_blocks(stat_kind: str, null: NullSpec, n: int, B: int, seed: int, first: int, stop: int) -> np.ndarray:
    """Statistic values of the replicates in blocks ``first`` to ``stop - 1``, cut at replicate ``B``."""
    rows = _statistic(stat_kind).rows
    law = null.law()
    K = _block_rows(n, null.ndim)
    out = np.empty(min(stop * K, B) - first * K)
    for k in range(first, stop):
        lo = (k - first) * K
        block = law.sample_rows(RngStream(seed, (2, 0, k)).generator(), K, n)
        out[lo : lo + K] = rows(block[: len(out) - lo])
    return out


def simulate_statistic(
    stat_kind: str,
    null: NullSpec,
    n: int,
    B: int,
    seed: int,
    workers: int = 1,
) -> np.ndarray:
    """Simulate ``B`` replicate values of a statistic under a null model.

    Replicates come in blocks of ``K = max(1, 2**15 // (n * ndim))``, and
    block ``k`` (replicates ``kK`` to ``kK + K - 1``) is read in bulk from
    the stream ``RngStream(seed, (2, 0, k))``; the last block is drawn in full
    and cut to ``B``.  So replicate ``i`` depends only on the seed, the null,
    ``n`` and ``i``, and the returned vector, in replicate order, is bitwise
    independent of ``B`` beyond its length and of ``workers``.

    Raises :class:`DegenerateSampleError` if any replicate's value is
    undefined (NaN), reporting the count.  Under the continuous nulls
    supported here that means the null admits no variation for the
    statistic, or, at a very small ``alpha_star``, that its draws overflowed
    float64 (an overflowed draw is inf, and a row whose infinities cancel is NaN).
    """
    _check_calibration(stat_kind, null, n, B, seed, workers, min_B=1)
    blocks = math.ceil(B / _block_rows(n, null.ndim))
    if workers <= 1 or B < 64:
        values = _simulate_blocks(stat_kind, null, n, B, seed, 0, blocks)
    else:
        from concurrent.futures import ProcessPoolExecutor  # loaded only when a pool runs

        bounds = np.linspace(0, blocks, min(workers * 4, blocks) + 1, dtype=int).tolist()
        task = functools.partial(_simulate_blocks, stat_kind, null, n, B, seed)
        with ProcessPoolExecutor(max_workers=min(workers, len(bounds) - 1)) as pool:
            values = np.concatenate(list(pool.map(task, bounds[:-1], bounds[1:])))
    bad = int(np.isnan(values).sum())
    if bad:
        raise DegenerateSampleError(
            f"{bad} of {B} null replicates were degenerate for statistic {stat_kind!r} under {null}; "
            "the null admits no variation for this statistic, or its draws overflowed float64"
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

    def key_dict(self) -> dict:
        key = _simulation_key(self.stat_kind, self.null, self.n, self.B, self.seed)
        return {**key, "levels": list(self.levels)}

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


def _check_workers(workers: int) -> None:
    if not _typed(workers):
        raise ParameterError(f"workers must be an integer, got {workers!r}")
    if workers < 1:
        raise ParameterError(f"workers must be at least 1, got {workers}")


def _check_min_n(stat_kind: str, n: int) -> None:
    min_n = _statistic(stat_kind).min_n
    if n < min_n:
        raise ParameterError(f"sample size must be at least {min_n} for statistic {stat_kind!r}, got {n}")


def _check_calibration(stat_kind: str, null: NullSpec, n: int, B: int, seed: int, workers: int, min_B: int = 100) -> None:
    """The Monte Carlo settings of a simulation, table or p-value, checked in one order on every entry point."""
    _check_compatible(stat_kind, null)
    _check_count(B, "replicate count")
    _check_count(n)
    if B < min_B:
        raise ParameterError(f"replicate count must be at least {min_B}, got {B}")
    _check_min_n(stat_kind, n)
    _check_workers(workers)
    _check_seed(seed)


def quantiles_from_replicates(sorted_values: np.ndarray, levels: Iterable[float]) -> tuple[float, ...]:
    """Type-7 quantiles of a sorted vector, read by index with numpy's own "linear"
    rule and arithmetic, so each equals ``numpy.quantile(sorted_values, level)``."""
    last = sorted_values.size - 1
    out = []
    for q in levels:
        v = last * q  # virtual index
        i = min(math.floor(v), last)
        a, b = float(sorted_values[i]), float(sorted_values[min(i + 1, last)])
        g = v - i if v < last else v + 1  # at the end numpy's previous index is -1
        out.append(a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g))
    return tuple(out)


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


# Bytes of replicate vectors one cache keeps in memory: 838 keys at B = 10k.
_MEMORY_BYTES = 64 << 20


class QuantileCache:
    """Memory- and disk-backed store of sorted null replicate vectors.

    Each simulation key ``(stat_kind, null, n, B, seed, ENGINE_VERSION)`` is
    simulated at most once per cache while it stays in memory or on disk;
    quantile tables and p-values are read off its sorted replicates.  With ``cache_dir`` None or ``""`` the
    cache is memory-only.  Otherwise each vector is also one ``<digest>.f8`` file: a
    line of the key fields as JSON (``json.dumps(key, sort_keys=True)``),
    ``\n``, then the ``B`` sorted values as little-endian float64.  It is
    written with create-then-atomic-rename so that concurrent processes never
    observe a partial file, and served only when every key field matches and
    it holds exactly ``B`` sorted values.  Older ``<digest>.json`` files are
    ignored.  Served vectors are read-only, so no caller can alter a key's
    replicates for later lookups.  Memory holds at most ``_MEMORY_BYTES`` of
    vectors and drops the least recently used first; a dropped key is read
    from disk again, or simulated again to the same bytes.
    """

    def __init__(self, cache_dir: str | os.PathLike | None = None):
        self.cache_dir = Path(cache_dir).expanduser() if cache_dir not in (None, "") else None
        self._replicates: OrderedDict[str, np.ndarray] = OrderedDict()  # least recently used first
        self._memory_bytes = 0

    def replicates(self, stat_kind: str, null: NullSpec, n: int, B: int, seed: int, workers: int = 1) -> np.ndarray:
        """Sorted replicate vector for a simulation key: from memory, else disk, else simulated."""
        _check_calibration(stat_kind, null, n, B, seed, workers, min_B=1)
        key = _simulation_key(stat_kind, null, n, B, seed)
        digest = _key_digest(key)
        values = self._replicates.get(digest)
        if values is not None:
            self._replicates.move_to_end(digest)
            return values
        values = self._load(digest, key)
        if values is None:
            values = np.sort(simulate_statistic(stat_kind, null, n, B, seed, workers=workers))
            values.flags.writeable = False
            self._store(digest, key, values)
        self._replicates[digest] = values
        self._memory_bytes += values.nbytes
        while self._memory_bytes > _MEMORY_BYTES:
            self._memory_bytes -= self._replicates.popitem(last=False)[1].nbytes
        return values

    def get_or_compute(
        self,
        stat_kind: str,
        null: NullSpec,
        n: int,
        levels: Iterable[float],
        B: int,
        seed: int,
        workers: int = 1,
    ) -> QuantileTable:
        """Quantile table for the exact key, read by index off the key's sorted replicates
        with :func:`quantiles_from_replicates`, equal to ``numpy.quantile``'s type-7 rule."""
        lv = _validate_levels(levels)
        _check_calibration(stat_kind, null, n, B, seed, workers)
        qs = quantiles_from_replicates(self.replicates(stat_kind, null, n, B, seed, workers=workers), lv)
        return QuantileTable(stat_kind, null, int(n), int(B), int(seed), lv, qs)

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
        """Monte Carlo p-value ``(1 + #extreme) / (B + 1)`` of ``observed`` against the key's replicates."""
        observed = float(observed)
        if math.isnan(observed):
            raise ParameterError("observed value is NaN; it has no Monte Carlo p-value")
        if alternative not in ("less", "greater", "two-sided"):
            raise ParameterError(f"alternative must be 'less', 'greater' or 'two-sided', got {alternative!r}")
        _check_calibration(stat_kind, null, n, B, seed, workers)
        values = self.replicates(stat_kind, null, n, B, seed, workers=workers)
        greater = (1 + values.size - int(np.searchsorted(values, observed, side="left"))) / (values.size + 1)
        less = (1 + int(np.searchsorted(values, observed, side="right"))) / (values.size + 1)
        return {"greater": greater, "less": less, "two-sided": min(1.0, 2.0 * min(greater, less))}[alternative]

    def _path(self, digest: str) -> Path:
        return self.cache_dir / f"{digest}.f8"

    def _load(self, digest: str, key: dict) -> np.ndarray | None:
        if self.cache_dir is None:
            return None
        path = self._path(digest)
        try:
            with open(path, "rb") as fh:
                header, _, body = fh.read().partition(b"\n")
            stored = json.loads(header)
            values = np.frombuffer(body, "<f8")
        except (FileNotFoundError, NotADirectoryError):
            return None  # a miss: no such file, or no such directory
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

    Bivariate nulls are simulated uncorrelated: the S1 and baseline laws do
    not depend on the correlation, and S2 is calibrated at perfect correlation.
    """

    reps: int = 10_000
    seed: int = 0
    workers: int = 1
    cache: QuantileCache | None = None

    def cache_or_shared(self) -> QuantileCache:
        return self.cache if self.cache is not None else _SHARED_CACHE
