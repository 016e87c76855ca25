"""Baseline normality tests: moments, asymptotics, invariance, calibration."""

import numpy as np
import pytest
from scipy import stats as sps

import greenstat as gs
from greenstat import (
    DegenerateCovarianceError,
    ParameterError,
    QuantileCache,
    RngStream,
    SubGaussianSpec,
    sample_bivariate_gaussian,
    sample_sub_gaussian,
)
from greenstat.baselines import (
    henze_zirkler_stat,
    jarque_bera_stat,
    mardia_kurtosis_stat,
    mardia_skewness_stat,
)


@pytest.fixture(scope="module")
def cfg():
    return gs.TestConfig(reps=2000, seed=77, cache=QuantileCache())


def test_gaussian_kurtosis_moment():
    # b2 -> d(d+2) = 8; SE of the mean of squared chi2_2 variables
    xy = sample_bivariate_gaussian(np.eye(2), 10**5, RngStream(301))
    res = gs.mardia_kurtosis(xy, cfg=gs.TestConfig(reps=200, seed=1), critical="asymptotic")
    assert abs(res.details["b2"] - 8.0) < 4.0 * np.sqrt(320.0 / 10**5)


def test_gaussian_skewness_moment():
    # n * b1 / 6 is asymptotically chi-square with 4 dof, so b1 ~ 6*chi2/n
    xy = sample_bivariate_gaussian(np.eye(2), 10**5, RngStream(302))
    res = gs.mardia_skewness(xy, cfg=gs.TestConfig(reps=200, seed=1), critical="asymptotic")
    assert 0.0 <= res.details["b1"] < 6.0 * sps.chi2.ppf(0.999, 4) / 10**5


def test_kurtosis_standardization_matches_normal_asymptotics():
    # 95th percentile of z under the null vs the asymptotic 1.645,
    # within 3 MC standard errors of an empirical order statistic
    reps, n = 2000, 1000
    vals = np.empty(reps)
    for i in range(reps):
        xy = sample_bivariate_gaussian(np.eye(2), n, RngStream(303, i))
        vals[i] = mardia_kurtosis_stat(xy)
    q95 = np.quantile(vals, 0.95)
    se = np.sqrt(0.05 * 0.95 / reps) / sps.norm.pdf(sps.norm.ppf(0.95))
    assert abs(q95 - sps.norm.ppf(0.95)) < 3.0 * se


def test_skewness_matches_chi2_asymptotics():
    reps, n = 2000, 1000
    vals = np.empty(reps)
    for i in range(reps):
        xy = sample_bivariate_gaussian(np.eye(2), n, RngStream(304, i))
        vals[i] = mardia_skewness_stat(xy)
    q95 = np.quantile(vals, 0.95)
    target = sps.chi2.ppf(0.95, 4)
    se = np.sqrt(0.05 * 0.95 / reps) / sps.chi2.pdf(target, 4)
    assert abs(q95 - target) < 3.0 * se


def test_jarque_bera_is_additive():
    xy = sample_bivariate_gaussian([[2.0, 0.4], [0.4, 1.0]], 500, RngStream(305))
    combined = jarque_bera_stat(xy)
    assert combined == pytest.approx(mardia_skewness_stat(xy) + mardia_kurtosis_stat(xy) ** 2, rel=1e-12)


@pytest.mark.parametrize("stat", [mardia_kurtosis_stat, mardia_skewness_stat, jarque_bera_stat, henze_zirkler_stat])
def test_affine_invariance(stat):
    xy = sample_sub_gaussian(SubGaussianSpec(1.7), 200, RngStream(306))
    base = stat(xy)
    gen = RngStream(307).generator()
    for _ in range(3):
        a = gen.standard_normal((2, 2)) + 2.0 * np.eye(2)  # well-conditioned, nonsingular
        shift = gen.standard_normal(2)
        assert stat(xy @ a.T + shift) == pytest.approx(base, rel=1e-9, abs=1e-9)


def test_jarque_bera_asymptotic_size():
    reps, n, rejections = 1000, 1000, 0
    crit = sps.chi2.ppf(0.95, 5)
    for i in range(reps):
        xy = sample_bivariate_gaussian(np.eye(2), n, RngStream(308, i))
        rejections += jarque_bera_stat(xy) >= crit
    assert abs(rejections / reps - 0.05) < 0.02


def test_henze_zirkler_lognormal_size():
    reps, n, rejections = 1000, 100, 0
    for i in range(reps):
        xy = sample_bivariate_gaussian(np.eye(2), n, RngStream(309, i))
        res = gs.henze_zirkler(xy, 0.05, critical="asymptotic")
        rejections += res.reject
    assert abs(rejections / reps - 0.05) < 0.02


def test_mc_calibrated_sizes(cfg):
    reps = 400
    for kind, runner in (("kurt", gs.mardia_kurtosis), ("hz", gs.henze_zirkler)):
        rejections = 0
        for i in range(reps):
            xy = sample_bivariate_gaussian(np.eye(2), 30, RngStream(310, i))
            rejections += runner(xy, 0.05, cfg).reject
        assert abs(rejections / reps - 0.05) < 0.03, kind


def test_kurtosis_outpowers_skewness_on_symmetric_heavy_tails(cfg):
    reps = 300
    wins = {"kurt": 0, "skew": 0}
    for i in range(reps):
        xy = sample_sub_gaussian(SubGaussianSpec(1.6), 100, RngStream(311, i))
        wins["kurt"] += gs.mardia_kurtosis(xy, 0.05, cfg).reject
        wins["skew"] += gs.mardia_skewness(xy, 0.05, cfg).reject
    assert wins["kurt"] > wins["skew"]
    assert wins["kurt"] / reps > 0.3  # far above the 5% size


def test_hz_power_below_s1_at_moderate_n(cfg):
    reps, n = 400, 30
    hz_rej = s1_rej = 0
    for i in range(reps):
        xy = sample_sub_gaussian(SubGaussianSpec(1.8), n, RngStream(312, i))
        hz_rej += gs.henze_zirkler(xy, 0.05, cfg).reject
        s1_rej += gs.test_bivariate_gaussian_s1(xy, 0.05, cfg).reject
    assert hz_rej <= s1_rej


# Values of the BLAS-based kernels (Cholesky, solve and a Gram matrix) that
# the closed-form, elementwise kernels replaced, on t(5) pairs mixed by a
# fixed matrix: (kurt, skew, jb, hz) at each n.
BLAS_KERNEL_VALUES = {
    4: (-0.9842088513281793, 0.1250638868050447, 1.0937309498377787, 0.1584673736329263),
    57: (1.096538144426442, 1.527188924822429, 2.7295848270046132, 0.5922518532742025),
    335: (10.41768525420307, 19.924933882051324, 128.4530999376914, 3.612638352078754),
}


@pytest.mark.parametrize("n", sorted(BLAS_KERNEL_VALUES))
def test_values_agree_with_the_blas_kernels(n):
    xy = RngStream(315, n).generator().standard_t(5, (n, 2)) @ np.array([[1.0, 0.6], [0.0, 0.8]])
    stats = (mardia_kurtosis_stat, mardia_skewness_stat, jarque_bera_stat, henze_zirkler_stat)
    assert [stat(xy) for stat in stats] == pytest.approx(BLAS_KERNEL_VALUES[n], rel=1e-10)


def test_henze_zirkler_memory_is_bounded():
    import tracemalloc

    xy = RngStream(316).generator().standard_normal((4000, 2))
    tracemalloc.start()
    try:
        henze_zirkler_stat(xy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000  # a 4000 x 4000 pair matrix alone is 128 MB


def test_singular_covariance_raises():
    xy = np.column_stack([np.arange(10.0), 2.0 * np.arange(10.0)])
    with pytest.raises(DegenerateCovarianceError):
        mardia_kurtosis_stat(xy)


def test_minimum_sample_sizes():
    tiny = sample_bivariate_gaussian(np.eye(2), 3, RngStream(313))
    with pytest.raises(ParameterError):
        gs.mardia_kurtosis(tiny, cfg=gs.TestConfig(reps=200, seed=1), critical="asymptotic")
    with pytest.raises(ParameterError):
        mardia_skewness_stat(tiny[:2])


def test_result_payload(cfg):
    xy = sample_bivariate_gaussian(np.eye(2), 50, RngStream(314))
    res = gs.mardia_kurtosis(xy, 0.05, cfg)
    d = res.to_dict()
    assert d["critical_source"] == "monte-carlo" and d["cache_key"]
    asym = gs.mardia_kurtosis(xy, 0.05, cfg, critical="asymptotic")
    assert asym.critical_source == "asymptotic" and asym.cache_key is None
    with pytest.raises(ParameterError):
        gs.mardia_kurtosis(xy, 0.05, cfg, critical="bootstrap")
