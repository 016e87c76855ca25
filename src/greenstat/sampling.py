"""Random variate generation for stable laws and sub-Gaussian vectors.

Univariate stable draws use the Chambers-Mallows-Stuck transform of a
uniform angle on (-pi/2, pi/2) and a unit exponential, in the classical
"1-parameterization": a symmetric draw with scale ``sigma`` has
characteristic function ``exp(-sigma**alpha * |t|**alpha)``, and a totally
skewed draw with ``alpha < 1`` is supported on the positive half line.

A bivariate sub-Gaussian vector is ``sqrt(A) * G`` where ``G`` is a centered
Gaussian pair with the requested covariance and ``A`` is an independent
positive (alpha/2)-stable multiplier scaled so that each marginal is
symmetric alpha-stable with scale ``1/sqrt(2)`` (for standard ``G``);
equivalently ``E[exp(-s*A)] = exp(-s**(alpha/2))``.

Every sampler is a :class:`Law`: the raw draws it reads from a stream, and an
elementwise transform of them.  The public samplers draw ``n`` points from
one stream; the Monte Carlo engine draws a block of ``rows`` samples of ``n``
points from one stream, reading each raw draw over the whole block in turn,
so a block is one sample of ``rows * n`` points, reshaped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .exceptions import ParameterError
from .rng import _NUMBER, RngStream, _typed

__all__ = [
    "StableSpec",
    "SubGaussianSpec",
    "sample_sas",
    "sample_positive_stable",
    "sample_bivariate_gaussian",
    "sample_sub_gaussian",
    "sample_chi2_one",
]

# Below this distance from 2 the CMS transform loses all digits to
# cancellation, far below the statistical resolution of any test here.
GAUSSIAN_CUTOFF = 2.0 - 1e-12
_NORMAL_MIN = 2.0**-1022  # the smallest positive normal float64; a product below it lost digits


@dataclass(frozen=True)
class StableSpec:
    """Parameters of a symmetric stable law.

    ``alpha`` is the stability index in (0, 2] and ``sigma`` the scale.  At
    ``alpha == 2`` the law is Gaussian with standard deviation
    ``sigma * sqrt(2)``.  At a very small ``alpha`` a draw may lie beyond
    float64 range; it is still the float64 rounding of its value (``inf``,
    or a zero of its sign), never NaN.
    """

    alpha: float
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not (_typed(self.alpha, _NUMBER) and 0.0 < self.alpha <= 2.0):
            raise ParameterError(f"alpha must lie in (0, 2], got {self.alpha}")
        if not (_typed(self.sigma, _NUMBER) and 0.0 < self.sigma < np.inf):
            raise ParameterError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class SubGaussianSpec:
    """Stability index plus the 2x2 covariance of the Gaussian core.

    The covariance must be symmetric positive semidefinite; a singular
    matrix is allowed and represents perfectly correlated components.
    """

    alpha: float
    cov: np.ndarray = field(default_factory=lambda: np.eye(2))

    def __post_init__(self) -> None:
        StableSpec(self.alpha)  # the marginals' law checks alpha
        object.__setattr__(self, "cov", validate_cov2(self.cov))

    @classmethod
    def from_rho(cls, alpha: float, rho: float) -> "SubGaussianSpec":
        """Spec with unit variances and correlation ``rho``."""
        if not (_typed(rho, _NUMBER) and -1.0 <= rho <= 1.0):
            raise ParameterError(f"rho must lie in [-1, 1], got {rho}")
        return cls(alpha, np.array([[1.0, rho], [rho, 1.0]]))


def _sqrt_product(v1: float, v2: float) -> float:
    """``sqrt(v1 * v2)``, or ``sqrt(v1) * sqrt(v2)`` where the product over- or underflowed."""
    p = v1 * v2
    return math.sqrt(p) if _NORMAL_MIN <= p < math.inf else math.sqrt(v1) * math.sqrt(v2)


def validate_cov2(cov) -> np.ndarray:
    """Check that ``cov`` is a symmetric PSD 2x2 matrix, in Python floats; return it as float array."""
    c = np.asarray(cov, dtype=float)
    if c.shape != (2, 2):
        raise ParameterError(f"covariance must be 2x2, got shape {c.shape}")
    (v1, c12), (c21, v2) = c.tolist()
    if not all(map(math.isfinite, (v1, c12, c21, v2))):
        raise ParameterError("covariance entries must be finite")
    if abs(c12 - c21) > 1e-12 * max(abs(c12), abs(c21), 1.0):
        raise ParameterError("covariance must be symmetric")
    if v1 < 0.0 or v2 < 0.0:
        raise ParameterError("variances must be non-negative")
    det = v1 * v2 - c12 * c21  # NaN only when both products overflow; then the correlation decides
    if det < -1e-12 * max(v1 * v2, 1.0) or math.isnan(det) and abs(c12) > (1.0 + 5e-13) * _sqrt_product(v1, v2):
        raise ParameterError("covariance must be positive semidefinite")
    return c


def _cms(a: float, b: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Chambers-Mallows-Stuck transform of a uniform ``u`` on [0, 1) and a unit exponential ``w``.

    With the angle ``v = (u - 1/2) * pi``, a draw is
    ``sin a(v+b) / cos(v)**(1/a) * (cos(v - a(v+b)) / w)**((1-a)/a)``, taken
    in sign-and-log form: ``copysign(exp(log|sin a(v+b)| - log(cos v)/a +
    log(cos(v - a(v+b)) / w) * (1-a)/a), sin a(v+b))``.  ``b = 0`` gives the
    symmetric law at unit scale (``tan v`` at ``a = 1``), and ``b = pi/2``
    with ``a < 1`` the totally skewed law with Laplace transform
    ``exp(-s**a)``.  A draw beyond float64 range is its float64 rounding,
    ``inf`` or a signed zero, whatever the size of each factor, never NaN
    from ``inf * 0``; each statistic's kernel gives such a row the value it
    documents, or NaN.  Overwrites ``u`` and ``w``, and allocates two arrays
    of their shape.
    """
    v = np.multiply(np.subtract(u, 0.5, out=u), np.pi, out=u)
    if a == 1.0:
        return np.tan(v, out=v)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = v + b
        t *= a
        x = np.subtract(v, t)
        np.cos(x, out=x)
        x /= w
        np.log(x, out=x)
        x *= (1.0 - a) / a
        np.log(np.cos(v, out=v), out=v)
        v /= a
        x -= v
        np.sin(t, out=t)
        x += np.log(np.abs(t, out=w), out=w)
        np.exp(x, out=x)
    return np.copysign(x, t, out=x)


@dataclass(frozen=True)
class Law:
    """How a sampler reads its stream, and how it turns the raw draws into variates.

    ``draws`` lists the generator methods read, in stream order, each with
    the shape one sample point adds.  ``transform`` maps the raw arrays to
    variates elementwise on any leading shape, and may overwrite them.  The
    public samplers, :meth:`greenstat.mc.NullSpec.draw` and the Monte Carlo
    engine all sample through a law.
    """

    draws: tuple[tuple[str, tuple[int, ...]], ...]
    transform: Callable[..., np.ndarray]

    def sample_rows(self, gen: np.random.Generator, rows: int, n: int) -> np.ndarray:
        """Variates of shape ``(rows, n, ...)``, read from one generator.

        Each raw draw is read for the whole block before the next one, so
        the block is ``sample(gen, rows * n)`` reshaped.
        """
        return self.transform(*(getattr(gen, method)(size=(rows, n, *shape)) for method, shape in self.draws))

    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray:
        """``n`` variates read from one generator."""
        return self.sample_rows(gen, 1, n)[0]


_NORMAL = (("standard_normal", ()),)
_NORMAL_PAIR = (("standard_normal", (2,)),)
# A uniform read as the angle (u - 1/2) * pi, then a unit exponential.
_ANGLE_EXP = (("random", ()), ("standard_exponential", ()))


def stable_law(spec: StableSpec) -> Law:
    """CMS draws of a symmetric stable law; Gaussian draws at ``alpha >= GAUSSIAN_CUTOFF``."""
    if spec.alpha >= GAUSSIAN_CUTOFF:
        return Law(_NORMAL, lambda z: spec.sigma * np.sqrt(2.0) * z)
    return Law(_ANGLE_EXP, lambda u, w: spec.sigma * _cms(spec.alpha, 0.0, u, w))


def _correlate(cov: np.ndarray, z: np.ndarray) -> np.ndarray:
    # Build the second coordinate from the first plus an independent
    # innovation so that singular covariances (rho = +/-1) need no
    # pivoted factorization and equal-variance perfect correlation
    # reproduces the first coordinate draw-by-draw.
    (v1, c12), (_, v2) = cov.tolist()
    out = np.empty(z.shape)
    out[..., 0] = np.sqrt(v1) * z[..., 0]
    rho = min(max(c12 / _sqrt_product(v1, v2), -1.0), 1.0) if v1 > 0.0 and v2 > 0.0 else 0.0
    out[..., 1] = np.sqrt(v2) * (rho * z[..., 0] + np.sqrt(max(1.0 - rho * rho, 0.0)) * z[..., 1])
    return out


def positive_stable_law(alpha: float) -> Law:
    """The positive (alpha/2)-stable multiplier of a sub-Gaussian law.

    With ``a = alpha/2`` and ``zeta = tan(pi a/2)``, the totally skewed CMS
    transform shifts the angle by ``arctan(zeta)/a = pi/2`` and scales by
    ``(1 + zeta**2)**(1/(2a)) = cos(pi a/2)**(-1/a)``, which cancels the
    multiplier's scale ``cos(pi alpha/4)**(2/alpha)`` exactly.
    """
    return Law(_ANGLE_EXP, lambda u, w: _cms(alpha / 2.0, np.pi / 2.0, u, w))


def bivariate_gaussian_law(cov: np.ndarray) -> Law:
    """Centered Gaussian pairs with a validated 2x2 covariance."""
    return Law(_NORMAL_PAIR, lambda z: _correlate(cov, z))


def sub_gaussian_law(alpha: float, cov: np.ndarray) -> Law:
    """``sqrt(A) * G`` pairs; plain Gaussian pairs at ``alpha >= GAUSSIAN_CUTOFF``."""
    if alpha >= GAUSSIAN_CUTOFF:
        return bivariate_gaussian_law(cov)
    return Law(
        _ANGLE_EXP + _NORMAL_PAIR,
        lambda u, w, z: np.sqrt(_cms(alpha / 2.0, np.pi / 2.0, u, w))[..., None] * _correlate(cov, z),
    )


CHI2_ONE = Law(_NORMAL, lambda z: z**2)


def _sub_gaussian_from(gen: np.random.Generator, alpha: float, cov: np.ndarray, n: int) -> np.ndarray:
    return sub_gaussian_law(alpha, cov).sample(gen, n)


def sample_sas(spec: StableSpec, n: int, rng: RngStream) -> np.ndarray:
    """Draw ``n`` IID symmetric alpha-stable variates.

    The draws have characteristic function
    ``exp(-sigma**alpha * |t|**alpha)``; at ``alpha == 2`` they are
    Gaussian with standard deviation ``sigma * sqrt(2)``.

    Parameters
    ----------
    spec : StableSpec
        Distribution parameters.
    n : int
        Number of draws, at least 1.
    rng : RngStream
        Stream identifying the variate sequence.
    """
    _check_count(n)
    return stable_law(spec).sample(rng.generator(), n)


def sample_positive_stable(alpha: float, n: int, rng: RngStream) -> np.ndarray:
    """Draw the positive stable multiplier for a sub-Gaussian law with index ``alpha``.

    The draws are totally skewed (alpha/2)-stable with scale
    ``cos(pi*alpha/4)**(2/alpha)`` and location 0, hence strictly positive,
    with Laplace transform ``E[exp(-s*A)] = exp(-s**(alpha/2))``.
    """
    if not (_typed(alpha, _NUMBER) and 0.0 < alpha < 2.0):
        raise ParameterError(f"alpha must lie in (0, 2) for the positive stable multiplier, got {alpha}")
    _check_count(n)
    return positive_stable_law(alpha).sample(rng.generator(), n)


def sample_bivariate_gaussian(cov, n: int, rng: RngStream) -> np.ndarray:
    """Draw ``n`` IID centered Gaussian pairs with the given 2x2 covariance.

    Singular covariances are allowed; with equal variances and correlation 1
    the two coordinates are equal draw-by-draw.  Returns shape ``(n, 2)``.
    """
    c = validate_cov2(cov)
    _check_count(n)
    return bivariate_gaussian_law(c).sample(rng.generator(), n)


def sample_sub_gaussian(spec: SubGaussianSpec, n: int, rng: RngStream) -> np.ndarray:
    """Draw ``n`` IID bivariate sub-Gaussian vectors, shape ``(n, 2)``.

    For ``alpha < 2`` each pair is ``sqrt(A_i) * G_i`` with independent
    positive stable ``A_i`` and Gaussian ``G_i``; at ``alpha == 2`` the
    multiplier degenerates and the draw is plain bivariate Gaussian.
    """
    _check_count(n)
    return sub_gaussian_law(spec.alpha, spec.cov).sample(rng.generator(), n)


def sample_chi2_one(n: int, rng: RngStream) -> np.ndarray:
    """Draw ``n`` IID chi-square variates with one degree of freedom."""
    _check_count(n)
    return CHI2_ONE.sample(rng.generator(), n)


def _check_count(n: int, what: str = "sample size") -> None:
    if not _typed(n) or n < 1:
        raise ParameterError(f"{what} must be a positive integer, got {n!r}")
