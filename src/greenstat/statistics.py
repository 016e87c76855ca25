"""The modified Greenwood statistic, its bivariate variants, and covariance geometry.

For a real sample ``x_1, ..., x_n`` the statistic is

    sum(|x_i|**2) / (sum(|x_i|))**2

a scale-invariant dispersion-of-magnitudes measure bounded in [1/n, 1].
The two bivariate variants apply it to coordinate sums ``W_i = x1_i + x2_i``
(:func:`s1`) and to squared norms ``Y_i = x1_i**2 + x2_i**2`` (:func:`s2`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateCovarianceError, DegenerateSampleError, ParameterError
from .rng import _NUMBER, _typed
from .sampling import _NORMAL_MIN, _sqrt_product, validate_cov2

__all__ = [
    "GreenwoodValue",
    "CovGeometry",
    "greenwood",
    "s1",
    "s2",
    "eigen_pair",
    "beta_ratio",
    "beta_from_variance_ratio",
    "beta_from_correlation",
    "cov_geometry",
    "as_bivariate",
]


@dataclass(frozen=True)
class GreenwoodValue:
    """A Greenwood statistic value together with the sample size behind it."""

    value: float
    n: int

    def __float__(self) -> float:
        return self.value


def greenwood(x) -> GreenwoodValue:
    """Modified Greenwood statistic of a real sample.

    Parameters
    ----------
    x : array_like
        Sample of at least one finite entry, not all zero.

    Returns
    -------
    GreenwoodValue
        ``sum(x**2) / sum(|x|)**2``, always in ``[1/n, 1]``.

    Raises
    ------
    DegenerateSampleError
        If every entry is zero (the statistic is 0/0).
    ParameterError
        If the sample is empty or contains NaN.
    """
    arr = np.asarray(x, dtype=float).ravel()
    if arr.size == 0:
        raise ParameterError("greenwood statistic needs at least one observation")
    if np.isnan(arr).any():
        raise ParameterError("sample contains NaN")
    return _one_row(greenwood_rows, arr, "all observations are zero; the statistic is undefined")


def _one_row(rows, sample: np.ndarray, degenerate: str) -> GreenwoodValue:
    """A block kernel's value on one sample, raising :class:`DegenerateSampleError` where it is NaN."""
    value = rows(sample[None])[0]
    if np.isnan(value):
        raise DegenerateSampleError(degenerate)
    return GreenwoodValue(float(value), len(sample))


def greenwood_rows(x: np.ndarray) -> np.ndarray:
    """Greenwood value of each row of a ``(b, n)`` block, NaN for an all-zero row or one holding NaN.

    A row with overflowed entries is ``1/#inf`` (they dominate; ties split
    equally).  Other rows are rescaled exactly by a power of two, so the sums
    neither overflow nor underflow, and pairwise summation keeps them accurate
    at n = 1e6.
    """
    m = np.abs(x).max(axis=1)  # NaN for a row holding NaN, inf for one holding inf
    _, exp = np.frexp(m)
    # Rows holding inf (or only zeros) overflow or divide 0/0 here; their
    # values are set below.
    with np.errstate(invalid="ignore", over="ignore"):
        y = np.ldexp(x, -exp[:, None])
        abs_sum = np.abs(y).sum(axis=1)
        out = (y * y).sum(axis=1) / (abs_sum * abs_sum)
    out[m == 0.0] = np.nan
    hit = m == np.inf
    out[hit] = 1.0 / np.isinf(x[hit]).sum(axis=1)
    return out


def as_bivariate(sample) -> np.ndarray:
    """Coerce to a finite ``(n, 2)`` float array of paired observations."""
    arr = np.asarray(sample, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
        raise ParameterError(f"bivariate sample must have shape (n, 2) with n >= 1, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ParameterError("bivariate sample entries must be finite")
    return arr


def s1(sample) -> GreenwoodValue:
    """Greenwood statistic of the coordinate sums ``W_i = x1_i + x2_i``.

    Raises :class:`DegenerateSampleError` when every sum is zero, which
    happens e.g. for perfectly anti-correlated equal-variance pairs.
    """
    return _one_row(s1_rows, as_bivariate(sample), "every coordinate sum W_i is zero; S1 is undefined")


def s2(sample) -> GreenwoodValue:
    """Greenwood statistic of the squared norms ``Y_i = x1_i**2 + x2_i**2``."""
    return _one_row(s2_rows, as_bivariate(sample), "every pair is (0, 0); S2 is undefined")


def s1_rows(x: np.ndarray) -> np.ndarray:
    """:func:`s1` of each ``(n, 2)`` row of a ``(b, n, 2)`` block, NaN where it is undefined."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed sum is inf (the 1/#inf rule), inf - inf NaN
        w = x[..., 0] + x[..., 1]
    return greenwood_rows(w)


def s2_rows(x: np.ndarray) -> np.ndarray:
    """:func:`s2` of each ``(n, 2)`` row of a ``(b, n, 2)`` block, NaN where it is undefined."""
    with np.errstate(over="ignore"):  # as in s1_rows
        y = x[..., 0] ** 2 + x[..., 1] ** 2
    return greenwood_rows(y)


def _eigen_floats(r11: float, r12: float, r22: float) -> tuple[float, float]:
    half_tr = 0.5 * r11 + 0.5 * r22
    half_disc = float(np.hypot(0.5 * (r11 - r22), r12))
    return half_tr + half_disc, max(half_tr - half_disc, 0.0)


def eigen_pair(cov) -> tuple[float, float]:
    """Eigenvalues of a symmetric PSD 2x2 matrix, largest first.

    The closed form ``tr/2 +/- hypot((R11 - R22)/2, R12)``, taken at half scale
    in Python floats, overflows only where the larger eigenvalue exceeds the floats.
    """
    (r11, r12), (_, r22) = validate_cov2(cov).tolist()
    return _eigen_floats(r11, r12, r22)


def beta_ratio(cov) -> float:
    """Smaller over larger eigenvalue of a covariance matrix, in [0, 1]."""
    hi, lo = eigen_pair(cov)
    if hi <= 0.0:
        raise DegenerateCovarianceError("zero covariance matrix has no eigenvalue ratio")
    return lo / hi


def beta_from_variance_ratio(gamma: float, r: float) -> float:
    """Eigenvalue ratio from the variance ratio ``gamma`` and squared correlation ``r``.

    Computes ``(1 + g - d) / (1 + g + d)`` with ``d = sqrt((1-g)**2 + 4*g*r)``;
    strictly increasing in ``gamma`` for fixed ``r < 1`` and strictly
    decreasing in ``r`` for fixed ``gamma > 0``.
    """
    if not (_typed(gamma, _NUMBER) and 0.0 <= gamma <= 1.0):
        raise ParameterError(f"variance ratio must lie in [0, 1], got {gamma}")
    if not (_typed(r, _NUMBER) and 0.0 <= r <= 1.0):
        raise ParameterError(f"squared correlation must lie in [0, 1], got {r}")
    d = np.sqrt((1.0 - gamma) ** 2 + 4.0 * gamma * r)
    return float((1.0 + gamma - d) / (1.0 + gamma + d))


def beta_from_correlation(rho: float) -> float:
    """Eigenvalue ratio for equal variances: ``(1 - |rho|) / (1 + |rho|)``."""
    if not (_typed(rho, _NUMBER) and -1.0 <= rho <= 1.0):
        raise ParameterError(f"correlation must lie in [-1, 1], got {rho}")
    a = abs(rho)
    return (1.0 - a) / (1.0 + a)


@dataclass(frozen=True)
class CovGeometry:
    """Eigenvalue and moment geometry of a 2x2 covariance matrix."""

    eig_hi: float
    eig_lo: float
    beta: float
    gamma: float
    r: float


def cov_geometry(cov) -> CovGeometry:
    """Summarize a covariance matrix: eigenvalues, their ratio, variance ratio, squared correlation."""
    (v1, c12), (_, v2) = validate_cov2(cov).tolist()
    hi, lo = _eigen_floats(v1, c12, v2)
    if hi <= 0.0:
        raise DegenerateCovarianceError("zero covariance matrix has no geometry")
    gamma = min(v1, v2) / max(v1, v2)  # a zero variance carries a zero covariance: gamma = r = 0
    p, rho = v1 * v2, (c12 / _sqrt_product(v1, v2) if v1 > 0.0 and v2 > 0.0 else 0.0)
    r = min(c12**2 / p if _NORMAL_MIN <= p < np.inf else rho * rho, 1.0)
    return CovGeometry(hi, lo, lo / hi, gamma, r)
