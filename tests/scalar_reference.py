"""One-sample forms of the statistics, the reference for the block kernels.

The package computes every statistic with one block kernel, and a public
function evaluates it on a one-row block.  Greenwood, S1 and S2 are the
scalar functions as first written, kept unedited.  The whitening and the
Mardia, Jarque-Bera and Henze-Zirkler arithmetic of the baselines are the
closed-form, elementwise formulas of their kernels, written for one sample.
Tests compare the kernels with them row by row, bit for bit.
"""

import numpy as np

from greenstat.exceptions import DegenerateCovarianceError, DegenerateSampleError, ParameterError
from greenstat.mc import _CHUNK_ELEMENTS, gaussianity_statistic
from greenstat.statistics import GreenwoodValue, as_bivariate

_D = 2


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
    n = arr.size
    infs = int(np.isinf(arr).sum())
    if infs:
        # Entries beyond float range dominate every finite one; ties split
        # equally, which is exact for a single overflowed entry.
        return GreenwoodValue(1.0 / infs, n)
    m = float(np.max(np.abs(arr)))
    if m == 0.0:
        raise DegenerateSampleError("all observations are zero; the statistic is undefined")
    # Rescale by a power of two (exact in floating point) so heavy-tailed
    # inputs can neither overflow nor underflow the sums.  numpy's pairwise
    # summation keeps both accumulations accurate at n = 1e6.
    _, exp = np.frexp(m)
    y = np.ldexp(arr, -exp)
    abs_sum = float(np.sum(np.abs(y)))
    sq_sum = float(np.sum(y * y))
    return GreenwoodValue(sq_sum / (abs_sum * abs_sum), n)


def s1(sample) -> GreenwoodValue:
    """Greenwood statistic of the coordinate sums ``W_i = x1_i + x2_i``.

    Raises :class:`DegenerateSampleError` when every sum is zero, which
    happens e.g. for perfectly anti-correlated equal-variance pairs.
    """
    arr = as_bivariate(sample)
    w = arr[:, 0] + arr[:, 1]
    try:
        return greenwood(w)
    except DegenerateSampleError:
        raise DegenerateSampleError("every coordinate sum W_i is zero; S1 is undefined") from None


def s2(sample) -> GreenwoodValue:
    """Greenwood statistic of the squared norms ``Y_i = x1_i**2 + x2_i**2``."""
    arr = as_bivariate(sample)
    y = arr[:, 0] ** 2 + arr[:, 1] ** 2
    try:
        return greenwood(y)
    except DegenerateSampleError:
        raise DegenerateSampleError("every pair is (0, 0); S2 is undefined") from None


def _whitened(sample, kind: str) -> np.ndarray:
    """Whiten a sample of at least ``kind``'s minimum size with the inverse Cholesky factor of S = X'X/n."""
    arr = as_bivariate(sample)
    n = arr.shape[0]
    min_n = gaussianity_statistic(kind).min_n
    if n < min_n:
        raise ParameterError(f"the {kind} statistic needs at least {min_n} observations, got {n}")
    _, exponent = np.frexp(np.max(np.abs(arr), axis=0))  # exact scaling: whitening is affine invariant
    y0, y1 = np.ldexp(arr[:, 0], -exponent[0]), np.ldexp(arr[:, 1], -exponent[1])
    c0, c1 = y0 - np.mean(y0), y1 - np.mean(y1)
    s00, s01, s11 = np.mean(c0 * c0), np.mean(c0 * c1), np.mean(c1 * c1)
    if s00 <= 0.0 or s11 <= 0.0 or s00 * s11 - s01 * s01 <= 1e-12 * s00 * s11:
        raise DegenerateCovarianceError("sample covariance matrix is singular")
    l00 = np.sqrt(s00)
    l10 = s01 / l00
    l11 = np.sqrt(s11 - l10 * l10)
    z0 = c0 / l00
    return np.column_stack((z0, (c1 - l10 * z0) / l11))


def _mardia_b2(z: np.ndarray) -> float:
    r = np.sum(z * z, axis=1)
    return float(np.mean(r * r))


def _mardia_b1(z: np.ndarray) -> float:
    # sum_ij (z_i . z_j)^3 expands into squared joint moments, avoiding the
    # n x n Gram matrix.
    n = z.shape[0]
    z1, z2 = z[:, 0], z[:, 1]
    m30 = np.sum(z1 * z1 * z1)
    m03 = np.sum(z2 * z2 * z2)
    m21 = np.sum(z1 * z1 * z2)
    m12 = np.sum(z1 * z2 * z2)
    return float(m30 * m30 + 3.0 * (m21 * m21) + 3.0 * (m12 * m12) + m03 * m03) / n**2


def _kurtosis(z: np.ndarray) -> float:
    return (_mardia_b2(z) - _D * (_D + 2)) * np.sqrt(z.shape[0] / (8.0 * _D * (_D + 2)))


def _skewness(z: np.ndarray) -> float:
    return z.shape[0] * _mardia_b1(z) / 6.0


def _jarque_bera(z: np.ndarray) -> float:
    k = _kurtosis(z)
    return _skewness(z) + k * k


def _hz_beta(n: int) -> float:
    return float((n * (2 * _D + 1) / 4.0) ** (1.0 / (_D + 4)) / np.sqrt(2.0))


def _henze_zirkler(z: np.ndarray) -> float:
    n = z.shape[0]
    b = _hz_beta(n)
    strip = min(n, max(1, _CHUNK_ELEMENTS // n))  # pair-matrix rows summed at a time, as in the kernel
    term1 = 0.0
    for i in range(0, n, strip):
        d0 = z[i : i + strip, None, 0] - z[None, :, 0]
        d1 = z[i : i + strip, None, 1] - z[None, :, 1]
        term1 += np.sum(np.exp(-(b**2) / 2.0 * (d0 * d0 + d1 * d1)))
    sq = np.sum(z * z, axis=1)
    term2 = 2.0 * (1.0 + b**2) ** (-_D / 2.0) * np.sum(np.exp(-(b**2) / (2.0 * (1.0 + b**2)) * sq))
    return float(term1 / n - term2 + n * (1.0 + 2.0 * b**2) ** (-_D / 2.0))
