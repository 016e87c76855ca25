"""Hypothesis tests for the stability index and confidence intervals by test inversion.

All tests compare a Greenwood-type statistic against Monte Carlo quantiles
of its null distribution.  The statistic decreases stochastically as the
stability index grows, so a right-tail rejection region tests against
heavier-than-null tails (alternative ``alpha < alpha_star``), a left-tail
region against lighter tails, and a two-sided region against both.

Rejection regions are closed intervals inside ``[1/n, 1]``; the decision is
always recomputable from the observed value and the region alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from . import baselines
from .exceptions import EmptyConfidenceSetError, ParameterError
from .mc import NullSpec, TestConfig, gaussianity_statistic, statistic_function
from .statistics import GreenwoodValue, as_bivariate, greenwood

__all__ = [
    "TestConfig",
    "TestResult",
    "AlphaInterval",
    "gaussianity_test",
    "test_alpha",
    "test_alpha_right",
    "test_alpha_left",
    "test_alpha_two_sided",
    "test_bivariate_gaussian_s1",
    "test_bivariate_gaussian_s2",
    "test_bivariate_alpha_s1",
    "ci_alpha",
]

@dataclass(frozen=True)
class TestResult:
    """Outcome of one Monte Carlo test.  ``alternative`` records the side of the statistic's law
    that the region covers: ``test_alpha(..., alternative="less")`` reports ``"greater"``."""

    statistic: str
    observed: GreenwoodValue
    region: tuple[tuple[float, float], ...]
    reject: bool
    p_value: float
    level: float
    alternative: str
    null: NullSpec
    n: int
    cache_key: str

    @property
    def decision(self) -> str:
        return "reject" if self.reject else "retain"

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "observed": self.observed.value,
            "n": self.n,
            "region": [list(iv) for iv in self.region],
            "p_value": self.p_value,
            "decision": self.decision,
            "level": self.level,
            "alternative": self.alternative,
            "null": self.null.to_dict(),
            "cache_key": self.cache_key,
        }


def _in_region(value: float, region: tuple[tuple[float, float], ...]) -> bool:
    return any(lo <= value <= hi for lo, hi in region)


def gaussianity_test(name: str, sample, level: float = 0.05, cfg: TestConfig | None = None, critical: str = "mc"):
    """Run the Gaussianity test of statistic ``name``; only the baselines take ``critical="asymptotic"``."""
    record = gaussianity_statistic(name)
    if record.whitens:
        return getattr(baselines, record.test)(sample, level, cfg, critical=critical)
    if critical != "mc":
        raise ParameterError(f"critical={critical!r} applies only to the baseline tests, not to {name!r}")
    return globals()[record.test](sample, level, cfg)


def _region_levels(alternative: str, level: float) -> tuple[str, tuple[float, ...]]:
    """The side of the statistic's law (opposite, as it falls when alpha grows) that a test
    against ``alternative`` for alpha rejects on, and the null quantile levels bounding it."""
    if alternative == "less":
        return "greater", (1.0 - level,)
    if alternative == "greater":
        return "less", (level,)
    if alternative == "two-sided":
        return "two-sided", (level / 2.0, 1.0 - level / 2.0)
    raise ParameterError(f"alternative must be 'less', 'greater' or 'two-sided', got {alternative!r}")


def _tail_test(
    statistic: str,
    sample: np.ndarray,
    table_stat: str,
    null: NullSpec,
    alternative: str,
    level: float,
    cfg: TestConfig | None,
) -> TestResult:
    cfg = cfg or TestConfig()
    observed = GreenwoodValue(statistic_function(statistic)(sample), sample.shape[0])
    if not 0.0 < level < 1.0:
        raise ParameterError(f"significance level must lie in (0, 1), got {level}")
    side, levels = _region_levels(alternative, level)
    cache = cfg.cache_or_shared()
    n = observed.n
    table = cache.get_or_compute(table_stat, null, n, levels, cfg.reps, cfg.seed, workers=cfg.workers)
    region = []
    if side != "greater":
        region.append((1.0 / n, table.values[0]))
    if side != "less":
        region.append((table.values[-1], 1.0))
    p_value = cache.pvalue(table_stat, observed, null, n, side, cfg.reps, cfg.seed, workers=cfg.workers)
    return TestResult(
        statistic=statistic,
        observed=observed,
        region=tuple(region),
        reject=_in_region(observed.value, region),
        p_value=p_value,
        level=level,
        alternative=side,
        null=null,
        n=n,
        cache_key=table.key_digest(),
    )


def _as_vector(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float).ravel()
    if arr.size < 2:
        raise ParameterError("univariate tests need at least two observations")
    return arr


def test_alpha(
    x, alpha_star: float, level: float = 0.05, alternative: str = "less", cfg: TestConfig | None = None
) -> TestResult:
    """Test the stability index via the Greenwood statistic against ``alternative``
    for alpha (``"less"``, ``"greater"`` or ``"two-sided"``), the null being
    symmetric alpha-stable with index ``alpha_star``."""
    return _tail_test("greenwood", _as_vector(x), "greenwood", NullSpec.sas(alpha_star), alternative, level, cfg)


def test_alpha_right(x, alpha_star: float, level: float = 0.05, cfg: TestConfig | None = None) -> TestResult:
    """Test ``alpha >= alpha_star`` (or ``= alpha_star``) against ``alpha < alpha_star``.

    Rejects when the Greenwood statistic reaches the upper ``1 - level``
    null quantile, the null being symmetric alpha-stable with index
    ``alpha_star``.  With ``alpha_star = 2`` this is the Gaussianity test.
    """
    return test_alpha(x, alpha_star, level, "less", cfg)


def test_alpha_left(x, alpha_star: float, level: float = 0.05, cfg: TestConfig | None = None) -> TestResult:
    """Test ``alpha <= alpha_star`` (or ``= alpha_star``) against ``alpha > alpha_star``."""
    return test_alpha(x, alpha_star, level, "greater", cfg)


def test_alpha_two_sided(x, alpha_star: float, level: float = 0.05, cfg: TestConfig | None = None) -> TestResult:
    """Test ``alpha = alpha_star`` against ``alpha != alpha_star``."""
    return test_alpha(x, alpha_star, level, "two-sided", cfg)


def _gaussianity_tail_test(name: str, sample, level: float, cfg: TestConfig | None) -> TestResult:
    calibration = gaussianity_statistic(name).gaussian_calibration()
    return _tail_test(name, as_bivariate(sample), *calibration, "less", level, cfg)


def test_bivariate_gaussian_s1(sample, level: float = 0.05, cfg: TestConfig | None = None) -> TestResult:
    """Test bivariate Gaussianity with the S1 statistic.

    The null quantile comes from uncorrelated bivariate Gaussian
    simulation; the S1 law is insensitive to the correlation, so this
    calibrates the test at every correlation.
    """
    return _gaussianity_tail_test("s1", sample, level, cfg)


def test_bivariate_gaussian_s2(sample, level: float = 0.05, cfg: TestConfig | None = None) -> TestResult:
    """Test bivariate Gaussianity with the S2 statistic.

    Calibrates against the most conservative Gaussian null, perfect
    correlation, where the S2 law is the Greenwood statistic's on
    chi-square(1) samples.
    """
    return _gaussianity_tail_test("s2", sample, level, cfg)


def test_bivariate_alpha_s1(
    sample,
    alpha_star: float,
    level: float = 0.05,
    alternative: str = "less",
    cfg: TestConfig | None = None,
) -> TestResult:
    """Test the stability index of a bivariate sub-Gaussian sample via S1.

    ``alternative`` states the alternative for ``alpha``: ``"less"`` rejects
    for heavy tails (right tail of S1), ``"greater"`` for light tails,
    ``"two-sided"`` for both.  The null is sub-Gaussian with index
    ``alpha_star``, simulated uncorrelated: the S1 law ignores correlation.
    """
    return _tail_test("s1", as_bivariate(sample), "s1", NullSpec.subgauss(alpha_star), alternative, level, cfg)


@dataclass(frozen=True)
class AlphaInterval:
    """Confidence interval for the stability index from test inversion.

    ``probes`` records every grid point the search evaluated together with
    its two-sided rejection decision, for auditability.  The interval is the
    hull of the retained grid points only when both null quantiles are
    monotone in alpha (see :func:`ci_alpha`).
    """

    lower: float
    upper: float
    level: float
    grid_step: float
    probes: tuple[tuple[float, bool], ...] = field(default=())

    def __contains__(self, alpha: float) -> bool:
        return self.lower <= alpha <= self.upper

    def to_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "level": self.level,
            "grid_step": self.grid_step,
        }


def ci_alpha(x, level: float = 0.95, grid_step: float = 0.01, cfg: TestConfig | None = None) -> AlphaInterval:
    """Confidence interval for the stability index by inverting the two-sided test.

    Collects the grid points ``{grid_step, 2*grid_step, ..., 2}`` whose
    two-sided test retains at significance ``1 - level`` and returns their
    hull, bisecting for the endpoints from the first point that a coarse scan
    from the top retains.  That is the hull only when both null quantiles
    move monotonically with the tested index.  Otherwise, as at a small ``B``,
    it is the run around that point, which may miss retained points or span
    rejected ones: for ``[1.0] + [0.015] * 39`` at ``reps=100``, seed 0,
    level 0.05 and grid 0.004 it is [0.004, 0.004], while 0.524-0.532 also
    retain.  Every probed point shares its quantile table with
    :func:`test_alpha_two_sided`, so probed decisions and test decisions
    agree exactly.

    Raises :class:`EmptyConfidenceSetError` when no grid point is retained.
    """
    cfg = cfg or TestConfig()
    if not 0.0 < level < 1.0:
        raise ParameterError(f"confidence level must lie in (0, 1), got {level}")
    if not 0.0 < grid_step <= 2.0:
        raise ParameterError(f"grid step must lie in (0, 2], got {grid_step}")
    cache = cfg.cache_or_shared()
    obs = greenwood(_as_vector(x))
    n = obs.n
    _, levels = _region_levels("two-sided", 1.0 - level)
    k_max = max(int(np.ceil(2.0 / grid_step - 1e-9)), 1)

    def alpha_at(k: int) -> float:
        return min(round(k * grid_step, 12), 2.0)

    decisions: dict[int, tuple[bool, bool, bool]] = {}

    def evaluate(k: int) -> tuple[bool, bool, bool]:
        found = decisions.get(k)
        if found is None:
            null = NullSpec.sas(alpha_at(k))
            table = cache.get_or_compute("greenwood", null, n, levels, cfg.reps, cfg.seed, workers=cfg.workers)
            reject_low = obs.value <= table.values[0]
            reject_high = obs.value >= table.values[1]
            found = (reject_low or reject_high, reject_low, reject_high)
            decisions[k] = found
        return found

    # Find one retained grid point, scanning progressively finer subsets
    # from the top of the grid (data near the Gaussian boundary is the
    # common case).
    anchor = None
    count = 16
    while anchor is None:
        points = sorted({int(q) for q in np.linspace(1, k_max, min(count, k_max))}, reverse=True)
        anchor = next((k for k in points if not evaluate(k)[0]), None)
        if anchor is None and count >= k_max:
            raise EmptyConfidenceSetError(f"the two-sided test rejected every grid point at level {1 - level:g}")
        count *= 2

    def edge(tail: int, end: int) -> int:
        """Endpoint on the side of grid point ``end``: ``end`` itself when its ``tail``
        condition (1 lower, 2 upper) retains there, else the retained point next to a
        rejected one that a bisection between ``end`` and the anchor finds."""
        if not evaluate(end)[tail]:
            return end
        rejected, retained = end, anchor
        while abs(retained - rejected) > 1:
            mid = (rejected + retained) // 2
            if evaluate(mid)[tail]:
                rejected = mid
            else:
                retained = mid
        return retained

    lo, hi = edge(1, 1), edge(2, k_max)

    # Monte Carlo noise can leave isolated rejections near the endpoints;
    # shrink toward the anchor until every probed point inside the interval
    # is retained and both endpoints are themselves retained.
    while True:
        if evaluate(lo)[0] and lo < anchor:
            lo += 1
            continue
        if evaluate(hi)[0] and hi > anchor:
            hi -= 1
            continue
        offenders = [k for k, dec in decisions.items() if lo <= k <= hi and dec[0]]
        if not offenders:
            break
        for k in offenders:
            if k < anchor:
                lo = max(lo, k + 1)
            elif k > anchor:
                hi = min(hi, k - 1)

    probes = tuple((alpha_at(k), decisions[k][0]) for k in sorted(decisions))
    return AlphaInterval(alpha_at(lo), alpha_at(hi), level, grid_step, probes)
