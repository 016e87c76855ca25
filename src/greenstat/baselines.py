"""Reference bivariate normality tests: Mardia kurtosis/skewness, Jarque-Bera, Henze-Zirkler.

All four statistics are functions of the standardized sample (Mahalanobis
geometry), hence invariant under nonsingular affine maps of the data, and
all reject for large values against heavy-tailed alternatives.  Decisions
use Monte Carlo critical values under the bivariate Gaussian null by
default, with classical large-sample criticals available as an alternative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateCovarianceError, ParameterError
from .mc import NullSpec, register_statistic, table_key_digest
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


def _whitened(sample) -> np.ndarray:
    """Center the sample and whiten it with the inverse Cholesky factor of S = X'X/n."""
    arr = as_bivariate(sample)
    n = arr.shape[0]
    if n < 3:
        raise ParameterError("baseline normality tests need at least 3 observations")
    centered = arr - arr.mean(axis=0)
    cov = centered.T @ centered / n
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    # An exactly collinear sample can round to a barely positive pivot, so
    # Cholesky alone is not a reliable singularity guard.
    if cov[0, 0] <= 0.0 or cov[1, 1] <= 0.0 or det <= 1e-12 * cov[0, 0] * cov[1, 1]:
        raise DegenerateCovarianceError("sample covariance matrix is singular")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:  # pragma: no cover - caught by the det check
        raise DegenerateCovarianceError("sample covariance matrix is singular") from None
    return np.linalg.solve(chol, centered.T).T


def _mardia_b2(z: np.ndarray) -> float:
    return float(np.mean(np.sum(z * z, axis=1) ** 2))


def _mardia_b1(z: np.ndarray) -> float:
    # sum_ij (z_i . z_j)^3 expands into squared joint moments, avoiding the
    # n x n Gram matrix.
    n = z.shape[0]
    z1, z2 = z[:, 0], z[:, 1]
    m30 = np.sum(z1**3)
    m03 = np.sum(z2**3)
    m21 = np.sum(z1**2 * z2)
    m12 = np.sum(z1 * z2**2)
    return float(m30**2 + 3.0 * m21**2 + 3.0 * m12**2 + m03**2) / n**2


def _kurtosis(z: np.ndarray) -> float:
    return (_mardia_b2(z) - _D * (_D + 2)) * np.sqrt(z.shape[0] / (8.0 * _D * (_D + 2)))


def _skewness(z: np.ndarray) -> float:
    return z.shape[0] * _mardia_b1(z) / 6.0


def _jarque_bera(z: np.ndarray) -> float:
    return _skewness(z) + _kurtosis(z) ** 2


def mardia_kurtosis_stat(sample) -> float:
    """Standardized Mardia kurtosis ``z = (b2 - d(d+2)) * sqrt(n / (8 d (d+2)))``."""
    return _kurtosis(_whitened(sample))


def mardia_skewness_stat(sample) -> float:
    """Mardia skewness in its chi-square form ``n * b1 / 6``."""
    return _skewness(_whitened(sample))


def jarque_bera_stat(sample) -> float:
    """Multivariate Jarque-Bera: skewness chi-square plus squared kurtosis z."""
    return _jarque_bera(_whitened(sample))


def _hz_beta(n: int) -> float:
    return float((n * (2 * _D + 1) / 4.0) ** (1.0 / (_D + 4)) / np.sqrt(2.0))


def _henze_zirkler(z: np.ndarray) -> float:
    n = z.shape[0]
    b = _hz_beta(n)
    sq = np.sum(z * z, axis=1)
    pair = sq[:, None] + sq[None, :] - 2.0 * (z @ z.T)
    term1 = np.sum(np.exp(-(b**2) / 2.0 * pair)) / n
    term2 = 2.0 * (1.0 + b**2) ** (-_D / 2.0) * np.sum(np.exp(-(b**2) / (2.0 * (1.0 + b**2)) * sq))
    return float(term1 - term2 + n * (1.0 + 2.0 * b**2) ** (-_D / 2.0))


def henze_zirkler_stat(sample) -> float:
    """Henze-Zirkler statistic with the customary sample-size-dependent smoothing."""
    return _henze_zirkler(_whitened(sample))


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


register_statistic("kurt", 2, mardia_kurtosis_stat)
register_statistic("skew", 2, mardia_skewness_stat)
register_statistic("jb", 2, jarque_bera_stat)
register_statistic("hz", 2, henze_zirkler_stat)

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
    kind: str, name: str, z: np.ndarray, observed: float, level: float, cfg, critical: str, **details
) -> BaselineResult:
    """Decide the right-tail test of ``observed`` = ``statistic_function(kind)(sample)``, computed
    by the caller from the whitened sample ``z``; ``details`` go into the result as they are."""
    from .testing import TestConfig, gaussian_null  # local import to avoid a cycle

    if not 0.0 < level < 1.0:
        raise ParameterError(f"significance level must lie in (0, 1), got {level}")
    if critical not in ("mc", "asymptotic"):
        raise ParameterError(f"critical must be 'mc' or 'asymptotic', got {critical!r}")
    n = z.shape[0]
    cfg = cfg or TestConfig()
    if critical == "mc":
        table_stat, null = gaussian_null(kind, cfg.rho)
        levels = (1.0 - level,)
        table = cfg.cache_or_shared().get_or_compute(
            table_stat, null, n, levels, cfg.reps, cfg.seed, workers=cfg.workers
        )
        crit = table.values[0]
        source = "monte-carlo"
        cache_key = table_key_digest(table_stat, null, n, cfg.reps, cfg.seed, levels)
    else:
        crit = _asymptotic_critical(kind, n, level)
        source = "asymptotic"
        cache_key = None
    return BaselineResult(
        name=name,
        statistic=float(observed),
        critical=crit,
        critical_source=source,
        reject=bool(observed >= crit),
        level=level,
        n=n,
        details=details,
        cache_key=cache_key,
    )


def mardia_kurtosis(sample, level: float = 0.05, cfg=None, critical: str = "mc") -> BaselineResult:
    """Mardia kurtosis test; reports both the raw ``b2`` and its standardized form."""
    z = _whitened(sample)
    if z.shape[0] < 4:
        raise ParameterError("the kurtosis test needs at least 4 observations")
    return _baseline_test("kurt", "mardia-kurtosis", z, _kurtosis(z), level, cfg, critical, b2=_mardia_b2(z))


def mardia_skewness(sample, level: float = 0.05, cfg=None, critical: str = "mc") -> BaselineResult:
    """Mardia skewness test on ``n * b1 / 6``."""
    z = _whitened(sample)
    return _baseline_test("skew", "mardia-skewness", z, _skewness(z), level, cfg, critical, b1=_mardia_b1(z))


def jarque_bera_multivariate(sample, level: float = 0.05, cfg=None, critical: str = "mc") -> BaselineResult:
    """Multivariate Jarque-Bera test combining Mardia's two measures."""
    z = _whitened(sample)
    return _baseline_test("jb", "jarque-bera", z, _jarque_bera(z), level, cfg, critical)


def henze_zirkler(sample, level: float = 0.05, cfg=None, critical: str = "mc") -> BaselineResult:
    """Henze-Zirkler test based on a weighted characteristic-function distance."""
    z = _whitened(sample)
    pmu, psi = _hz_lognormal_params(z.shape[0])
    return _baseline_test("hz", "henze-zirkler", z, _henze_zirkler(z), level, cfg, critical, log_mean=pmu, log_sd=psi)
