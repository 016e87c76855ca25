"""Reference bivariate normality tests: Mardia kurtosis/skewness, Jarque-Bera, Henze-Zirkler.

All four statistics are functions of the standardized sample (Mahalanobis
geometry), hence invariant under nonsingular affine maps of the data, and
all reject for large values against heavy-tailed alternatives.  Decisions
use Monte Carlo critical values under the bivariate Gaussian null by
default, with classical large-sample criticals available as an alternative.

Each statistic has one BLAS-free kernel, from a block's whitened ``(2, b, n)``
coordinates to its values (NaN for a singular row); public functions run one row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateCovarianceError, ParameterError
from .mc import _CHUNK_ELEMENTS, TestConfig, _check_calibration, _check_min_n, gaussianity_statistic, register_statistic
from .statistics import as_bivariate

__all__ = [
    "BaselineResult",
    "mardia_kurtosis",
    "mardia_skewness",
    "jarque_bera_multivariate",
    "henze_zirkler",
    "mardia_kurtosis_stat",
    "mardia_skewness_stat",
    "jarque_bera_stat",
    "henze_zirkler_stat",
]

_D = 2  # all tests here are bivariate


@dataclass(frozen=True)
class BaselineResult:
    """Outcome of one baseline normality test (right-tail convention)."""

    name: str
    statistic: float
    critical: float
    critical_source: str  # "monte-carlo" or "asymptotic"
    reject: bool
    level: float
    n: int
    details: dict
    cache_key: str | None = None

    @property
    def decision(self) -> str:
        return "reject" if self.reject else "retain"

    def to_dict(self) -> dict:
        return {
            "statistic": self.name,
            "observed": self.statistic,
            "n": self.n,
            "region": [[self.critical, float("inf")]],
            "critical": self.critical,
            "critical_source": self.critical_source,
            "decision": self.decision,
            "level": self.level,
            "details": self.details,
            "cache_key": self.cache_key,
        }


@np.errstate(invalid="ignore", over="ignore")  # a row holding inf or NaN is not scaled and centres to NaN: singular
def _whiten_rows(x: np.ndarray) -> np.ndarray:
    """Each row of a ``(b, n, 2)`` block whitened by its S = X'X/n, as ``(2, b, n)`` coordinates; NaN if singular or not finite."""
    z = np.ascontiguousarray(np.moveaxis(x, 2, 0))
    # Exact power-of-two scaling of each coordinate: no moment sum overflows, and z keeps its bits.
    z = np.ldexp(z, -np.frexp(np.max(np.abs(z), axis=2, keepdims=True))[1])
    z -= z.mean(axis=2, keepdims=True)
    c0, c1 = z
    s00, s01, s11 = np.mean(c0 * c0, axis=1), np.mean(c0 * c1, axis=1), np.mean(c1 * c1, axis=1)
    # An exactly collinear sample can round to a barely positive determinant.
    singular = ~((s00 > 0.0) & (s11 > 0.0) & (s00 * s11 - s01 * s01 > 1e-12 * s00 * s11))
    s00[singular], s01[singular], s11[singular] = 1.0, 0.0, 1.0
    l00 = np.sqrt(s00)
    l10 = s01 / l00
    l11 = np.sqrt(s11 - l10 * l10)
    c0 /= l00[:, None]
    c1 -= l10[:, None] * c0
    c1 /= l11[:, None]
    z[:, singular] = np.nan
    return z


def _whitened(sample, kind: str) -> np.ndarray:
    """One sample of at least ``kind``'s minimum size, whitened as a one-row block."""
    z = _whiten_rows(as_bivariate(sample)[None])
    _check_min_n(kind, z.shape[2])
    if np.isnan(z[0, 0, 0]):
        raise DegenerateCovarianceError("sample covariance matrix is singular")
    return z


def _mardia_b2(z: np.ndarray) -> np.ndarray:
    return np.mean(np.square(np.sum(z * z, axis=0)), axis=1)


def _mardia_b1(z: np.ndarray) -> np.ndarray:
    # sum_ij (z_i . z_j)^3 expands into squared joint moments, avoiding the
    # n x n Gram matrix.
    z1, z2 = z
    m30 = np.sum(z1 * z1 * z1, axis=1)
    m03 = np.sum(z2 * z2 * z2, axis=1)
    m21 = np.sum(z1 * z1 * z2, axis=1)
    m12 = np.sum(z1 * z2 * z2, axis=1)
    return (m30 * m30 + 3.0 * (m21 * m21) + 3.0 * (m12 * m12) + m03 * m03) / z.shape[2] ** 2


def _kurtosis(z: np.ndarray) -> np.ndarray:
    return (_mardia_b2(z) - _D * (_D + 2)) * np.sqrt(z.shape[2] / (8.0 * _D * (_D + 2)))


def _skewness(z: np.ndarray) -> np.ndarray:
    return z.shape[2] * _mardia_b1(z) / 6.0


def _jarque_bera(z: np.ndarray) -> np.ndarray:
    return _skewness(z) + np.square(_kurtosis(z))


def mardia_kurtosis_stat(sample) -> float:
    """Standardized Mardia kurtosis ``z = (b2 - d(d+2)) * sqrt(n / (8 d (d+2)))``."""
    return float(_kurtosis(_whitened(sample, "kurt"))[0])


def mardia_skewness_stat(sample) -> float:
    """Mardia skewness in its chi-square form ``n * b1 / 6``."""
    return float(_skewness(_whitened(sample, "skew"))[0])


def jarque_bera_stat(sample) -> float:
    """Multivariate Jarque-Bera: skewness chi-square plus squared kurtosis z."""
    return float(_jarque_bera(_whitened(sample, "jb"))[0])


def _hz_beta(n: int) -> float:
    return float((n * (2 * _D + 1) / 4.0) ** (1.0 / (_D + 4)) / np.sqrt(2.0))


def _henze_zirkler(z: np.ndarray) -> np.ndarray:
    n = z.shape[2]
    b = _hz_beta(n)
    # Tiles of at most _CHUNK_ELEMENTS distances; strips of pair-matrix rows set by n alone fix each row's sums.
    strip = min(n, max(1, _CHUNK_ELEMENTS // n))
    group = max(1, _CHUNK_ELEMENTS // (strip * n))
    term1 = np.zeros(z.shape[1])
    for lo in range(0, len(term1), group):
        a0, a1 = z[:, lo : lo + group]
        for i in range(0, n, strip):
            d, e = a0[:, i : i + strip, None] - a0[:, None, :], a1[:, i : i + strip, None] - a1[:, None, :]
            np.square(d, out=d)
            d += np.square(e, out=e)
            d *= -(b**2) / 2.0
            term1[lo : lo + group] += np.sum(np.exp(d, out=d), axis=(1, 2))
    sq = np.sum(z * z, axis=0)
    term2 = 2.0 * (1.0 + b**2) ** (-_D / 2.0) * np.sum(np.exp(-(b**2) / (2.0 * (1.0 + b**2)) * sq), axis=1)
    return term1 / n - term2 + n * (1.0 + 2.0 * b**2) ** (-_D / 2.0)


def henze_zirkler_stat(sample) -> float:
    """Henze-Zirkler statistic with the customary sample-size-dependent smoothing."""
    return float(_henze_zirkler(_whitened(sample, "hz"))[0])


def _hz_lognormal_params(n: int) -> tuple[float, float]:
    """Mean/sd of log(HZ) under the null, from the reference log-normal approximation."""
    b = _hz_beta(n)
    d = _D
    a = 1.0 + 2.0 * b**2
    wb = (1.0 + b**2) * (1.0 + 3.0 * b**2)
    mu = 1.0 - a ** (-d / 2.0) * (1.0 + d * b**2 / a + d * (d + 2) * b**4 / (2.0 * a**2))
    si2 = (
        2.0 * (1.0 + 4.0 * b**2) ** (-d / 2.0)
        + 2.0 * a ** (-d) * (1.0 + 2.0 * d * b**4 / a**2 + 3.0 * d * (d + 2) * b**8 / (4.0 * a**4))
        - 4.0 * wb ** (-d / 2.0) * (1.0 + 3.0 * d * b**4 / (2.0 * wb) + d * (d + 2) * b**8 / (2.0 * wb**2))
    )
    pmu = np.log(np.sqrt(mu**4 / (si2 + mu**2)))
    psi = np.sqrt(np.log((si2 + mu**2) / mu**2))
    return float(pmu), float(psi)


def _register(kind: str, func, kernel, test: str) -> None:
    register_statistic(kind, 2, func, lambda x: kernel(_whiten_rows(x)), min_n=4, test=test, whitens=True)


# At n = 3 a whitened bivariate sample is one fixed triangle up to an orthogonal
# map, so every baseline is constant there, up to rounding.
_register("kurt", mardia_kurtosis_stat, _kurtosis, "mardia_kurtosis")
_register("skew", mardia_skewness_stat, _skewness, "mardia_skewness")
_register("jb", jarque_bera_stat, _jarque_bera, "jarque_bera_multivariate")
_register("hz", henze_zirkler_stat, _henze_zirkler, "henze_zirkler")

_SKEW_DF = _D * (_D + 1) * (_D + 2) // 6


def _asymptotic_critical(kind: str, n: int, level: float) -> float:
    from scipy import stats as sps  # imported here only: it is most of the package's import time

    if kind == "kurt":
        return float(sps.norm.ppf(1.0 - level))
    if kind == "skew":
        return float(sps.chi2.ppf(1.0 - level, _SKEW_DF))
    if kind == "jb":
        return float(sps.chi2.ppf(1.0 - level, _SKEW_DF + 1))
    if kind == "hz":
        pmu, psi = _hz_lognormal_params(n)
        return float(np.exp(pmu + psi * sps.norm.ppf(1.0 - level)))
    raise ParameterError(f"unknown baseline kind {kind!r}")


def _baseline_test(
    kind: str, name: str, z: np.ndarray, observed: np.ndarray, level: float, cfg, critical: str, **details
) -> BaselineResult:
    """Decide the right-tail test of ``observed[0]`` = ``statistic_function(kind)(sample)``, the kernel's
    value on the whitened one-row block ``z``; ``details`` go into the result as they are."""
    if not 0.0 < level < 1.0:
        raise ParameterError(f"significance level must lie in (0, 1), got {level}")
    if critical not in ("mc", "asymptotic"):
        raise ParameterError(f"critical must be 'mc' or 'asymptotic', got {critical!r}")
    n = z.shape[2]
    cfg = cfg or TestConfig()
    table_stat, null = gaussianity_statistic(kind).gaussian_calibration()
    if critical == "mc":
        table = cfg.cache_or_shared().get_or_compute(
            table_stat, null, n, (1.0 - level,), cfg.reps, cfg.seed, workers=cfg.workers
        )
        crit = table.values[0]
        source = "monte-carlo"
        cache_key = table.key_digest()
    else:
        _check_calibration(table_stat, null, n, cfg.reps, cfg.seed, cfg.workers)  # rejects what mc would
        crit = _asymptotic_critical(kind, n, level)
        source = "asymptotic"
        cache_key = None
    return BaselineResult(
        name=name,
        statistic=float(observed[0]),
        critical=crit,
        critical_source=source,
        reject=bool(observed[0] >= crit),
        level=level,
        n=n,
        details=details,
        cache_key=cache_key,
    )


def mardia_kurtosis(sample, level: float = 0.05, cfg=None, critical: str = "mc") -> BaselineResult:
    """Mardia kurtosis test; reports both the raw ``b2`` and its standardized form."""
    z = _whitened(sample, "kurt")
    return _baseline_test("kurt", "mardia-kurtosis", z, _kurtosis(z), level, cfg, critical, b2=float(_mardia_b2(z)[0]))


def mardia_skewness(sample, level: float = 0.05, cfg=None, critical: str = "mc") -> BaselineResult:
    """Mardia skewness test on ``n * b1 / 6``."""
    z = _whitened(sample, "skew")
    return _baseline_test("skew", "mardia-skewness", z, _skewness(z), level, cfg, critical, b1=float(_mardia_b1(z)[0]))


def jarque_bera_multivariate(sample, level: float = 0.05, cfg=None, critical: str = "mc") -> BaselineResult:
    """Multivariate Jarque-Bera test combining Mardia's two measures."""
    z = _whitened(sample, "jb")
    return _baseline_test("jb", "jarque-bera", z, _jarque_bera(z), level, cfg, critical)


def henze_zirkler(sample, level: float = 0.05, cfg=None, critical: str = "mc") -> BaselineResult:
    """Henze-Zirkler test based on a weighted characteristic-function distance."""
    z = _whitened(sample, "hz")
    pmu, psi = _hz_lognormal_params(z.shape[2])
    return _baseline_test("hz", "henze-zirkler", z, _henze_zirkler(z), level, cfg, critical, log_mean=pmu, log_sd=psi)
