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

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .exceptions import ParameterError
from .rng import RngStream

__all__ = [
    "StableSpec",
    "SubGaussianSpec",
    "positive_stable_scale",
    "sample_sas",
    "sample_positive_stable",
    "sample_bivariate_gaussian",
    "sample_sub_gaussian",
    "sample_chi2_one",
]

# Below this distance from 2 the CMS transform loses all digits to
# cancellation, far below the statistical resolution of any test here.
GAUSSIAN_CUTOFF = 2.0 - 1e-12


@dataclass(frozen=True)
class StableSpec:
    """Parameters of a univariate stable law.

    ``alpha`` is the stability index in (0, 2], ``sigma`` the scale,
    ``skew`` the skewness in [-1, 1] and ``mu`` the location.  At
    ``alpha == 2`` the law is Gaussian with standard deviation
    ``sigma * sqrt(2)`` and ``skew`` is ignored.
    """

    alpha: float
    sigma: float = 1.0
    skew: float = 0.0
    mu: float = 0.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.alpha) and 0.0 < self.alpha <= 2.0):
            raise ParameterError(f"alpha must lie in (0, 2], got {self.alpha}")
        if not (np.isfinite(self.sigma) and self.sigma > 0.0):
            raise ParameterError(f"sigma must be positive, got {self.sigma}")
        if not (np.isfinite(self.skew) and -1.0 <= self.skew <= 1.0):
            raise ParameterError(f"skew must lie in [-1, 1], got {self.skew}")
        if not np.isfinite(self.mu):
            raise ParameterError(f"mu must be finite, got {self.mu}")


@dataclass(frozen=True)
class SubGaussianSpec:
    """Stability index plus the 2x2 covariance of the Gaussian core.

    The covariance must be symmetric positive semidefinite; a singular
    matrix is allowed and represents perfectly correlated components.
    """

    alpha: float
    cov: np.ndarray = field(default_factory=lambda: np.eye(2))

    def __post_init__(self) -> None:
        if not (np.isfinite(self.alpha) and 0.0 < self.alpha <= 2.0):
            raise ParameterError(f"alpha must lie in (0, 2], got {self.alpha}")
        object.__setattr__(self, "cov", validate_cov2(self.cov))

    @classmethod
    def from_rho(cls, alpha: float, rho: float) -> "SubGaussianSpec":
        """Spec with unit variances and correlation ``rho``."""
        if not (np.isfinite(rho) and -1.0 <= rho <= 1.0):
            raise ParameterError(f"rho must lie in [-1, 1], got {rho}")
        return cls(alpha, np.array([[1.0, rho], [rho, 1.0]]))

    @property
    def rho(self) -> float:
        """Implied correlation of the Gaussian core (0 when a variance vanishes)."""
        v1, v2 = self.cov[0, 0], self.cov[1, 1]
        if v1 <= 0.0 or v2 <= 0.0:
            return 0.0
        return float(np.clip(self.cov[0, 1] / np.sqrt(v1 * v2), -1.0, 1.0))


def validate_cov2(cov) -> np.ndarray:
    """Check that ``cov`` is a symmetric PSD 2x2 matrix; return it as float array."""
    c = np.asarray(cov, dtype=float)
    if c.shape != (2, 2):
        raise ParameterError(f"covariance must be 2x2, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ParameterError("covariance entries must be finite")
    scale = max(abs(c[0, 1]), abs(c[1, 0]), 1.0)
    if abs(c[0, 1] - c[1, 0]) > 1e-12 * scale:
        raise ParameterError("covariance must be symmetric")
    if c[0, 0] < 0.0 or c[1, 1] < 0.0:
        raise ParameterError("variances must be non-negative")
    det = c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]
    if det < -1e-12 * max(c[0, 0] * c[1, 1], 1.0):
        raise ParameterError("covariance must be positive semidefinite")
    return c


def positive_stable_scale(alpha: float) -> float:
    """Scale of the positive (alpha/2)-stable multiplier, ``cos(pi*alpha/4)**(2/alpha)``."""
    return float(np.cos(np.pi * alpha / 4.0) ** (2.0 / alpha))


def _cms(alpha: float, skew: float, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Chambers-Mallows-Stuck transform at unit scale and zero location.

    ``alpha`` is below ``GAUSSIAN_CUTOFF`` (the laws draw Gaussian variates
    above it), ``v`` is uniform on (-pi/2, pi/2) and ``w`` unit exponential.
    ``skew`` must be 0 at ``alpha == 1``: no sampler draws a skewed law there.
    For very small ``alpha`` individual draws may legitimately exceed float
    range; they come back as ``inf``, or NaN where infinities meet, and each
    statistic's kernel gives such a row the value it documents, or NaN.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if alpha == 1.0:
            return np.tan(v)
        if skew == 0.0:
            return (
                np.sin(alpha * v)
                / np.cos(v) ** (1.0 / alpha)
                * (np.cos((1.0 - alpha) * v) / w) ** ((1.0 - alpha) / alpha)
            )
        zeta = skew * np.tan(np.pi * alpha / 2.0)
        b = np.arctan(zeta) / alpha
        s = (1.0 + zeta * zeta) ** (1.0 / (2.0 * alpha))
        return (
            s
            * np.sin(alpha * (v + b))
            / np.cos(v) ** (1.0 / alpha)
            * (np.cos(v - alpha * (v + b)) / w) ** ((1.0 - alpha) / alpha)
        )


@dataclass(frozen=True)
class Law:
    """How a sampler reads its stream, and how it turns the raw draws into variates.

    ``draws`` lists the generator methods read, in stream order, each with
    the shape one sample point adds.  ``transform`` maps the raw arrays to
    variates elementwise on any leading shape.  The public samplers,
    :meth:`greenstat.mc.NullSpec.draw` and the Monte Carlo engine all sample
    through a law.
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
    """CMS draws of a univariate stable law; Gaussian draws at ``alpha >= GAUSSIAN_CUTOFF``."""
    if spec.alpha >= GAUSSIAN_CUTOFF:
        return Law(_NORMAL, lambda z: spec.mu + spec.sigma * np.sqrt(2.0) * z)

    def transform(u: np.ndarray, w: np.ndarray) -> np.ndarray:
        return spec.mu + spec.sigma * _cms(spec.alpha, spec.skew, (u - 0.5) * np.pi, w)

    return Law(_ANGLE_EXP, transform)


def _positive_stable(alpha: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    return positive_stable_scale(alpha) * _cms(alpha / 2.0, 1.0, (u - 0.5) * np.pi, w)


def _correlate(cov: np.ndarray, z: np.ndarray) -> np.ndarray:
    # Build the second coordinate from the first plus an independent
    # innovation so that singular covariances (rho = +/-1) need no
    # pivoted factorization and equal-variance perfect correlation
    # reproduces the first coordinate draw-by-draw.
    v1, v2, c12 = cov[0, 0], cov[1, 1], cov[0, 1]
    out = np.empty(z.shape)
    out[..., 0] = np.sqrt(v1) * z[..., 0]
    if v1 > 0.0 and v2 > 0.0:
        rho = float(np.clip(c12 / np.sqrt(v1 * v2), -1.0, 1.0))
    else:
        rho = 0.0
    out[..., 1] = np.sqrt(v2) * (rho * z[..., 0] + np.sqrt(max(1.0 - rho * rho, 0.0)) * z[..., 1])
    return out


def positive_stable_law(alpha: float) -> Law:
    """The positive (alpha/2)-stable multiplier of a sub-Gaussian law."""
    return Law(_ANGLE_EXP, lambda u, w: _positive_stable(alpha, u, w))


def bivariate_gaussian_law(cov: np.ndarray) -> Law:
    """Centered Gaussian pairs with a validated 2x2 covariance."""
    return Law(_NORMAL_PAIR, lambda z: _correlate(cov, z))


def sub_gaussian_law(alpha: float, cov: np.ndarray) -> Law:
    """``sqrt(A) * G`` pairs; plain Gaussian pairs at ``alpha >= GAUSSIAN_CUTOFF``."""
    if alpha >= GAUSSIAN_CUTOFF:
        return bivariate_gaussian_law(cov)
    return Law(
        _ANGLE_EXP + _NORMAL_PAIR,
        lambda u, w, z: np.sqrt(_positive_stable(alpha, u, w))[..., None] * _correlate(cov, z),
    )


CHI2_ONE = Law(_NORMAL, lambda z: z**2)


def _sub_gaussian_from(gen: np.random.Generator, alpha: float, cov: np.ndarray, n: int) -> np.ndarray:
    return sub_gaussian_law(alpha, cov).sample(gen, n)


def sample_sas(spec: StableSpec, n: int, rng: RngStream) -> np.ndarray:
    """Draw ``n`` IID symmetric alpha-stable variates.

    The draws have characteristic function
    ``exp(i*mu*t - sigma**alpha * |t|**alpha)``; at ``alpha == 2`` they are
    Gaussian with standard deviation ``sigma * sqrt(2)``.

    Parameters
    ----------
    spec : StableSpec
        Distribution parameters; ``spec.skew`` must be 0.
    n : int
        Number of draws, at least 1.
    rng : RngStream
        Stream identifying the variate sequence.
    """
    if spec.skew != 0.0:
        raise ParameterError("sample_sas requires skew = 0")
    _check_count(n)
    return stable_law(spec).sample(rng.generator(), n)


def sample_positive_stable(alpha: float, n: int, rng: RngStream) -> np.ndarray:
    """Draw the positive stable multiplier for a sub-Gaussian law with index ``alpha``.

    The draws are totally skewed (alpha/2)-stable with scale
    ``cos(pi*alpha/4)**(2/alpha)`` and location 0, hence strictly positive,
    with Laplace transform ``E[exp(-s*A)] = exp(-s**(alpha/2))``.
    """
    if not (np.isfinite(alpha) and 0.0 < alpha < 2.0):
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
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterError(f"{what} must be a positive integer, got {n!r}")
