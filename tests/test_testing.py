"""Decision logic, rejection regions, scale invariance and test inversion."""

import hashlib
import json

import numpy as np
import pytest

import greenstat as gs
from greenstat import (
    EmptyConfidenceSetError,
    ParameterError,
    QuantileCache,
    RngStream,
    StableSpec,
    SubGaussianSpec,
    ci_alpha,
    sample_sas,
    sample_sub_gaussian,
)


@pytest.fixture(scope="module")
def cfg():
    return gs.TestConfig(reps=1000, seed=42, cache=QuantileCache())


def _in_region(value, region):
    return any(lo <= value <= hi for lo, hi in region)


class TestTailLogic:
    def test_minimum_cannot_reject_right_tail(self, cfg):
        x = np.tile([1.0, -1.0], 25)  # equal magnitudes force observed = 1/n
        result = gs.test_alpha_right(x, 2.0, 0.2, cfg)
        assert result.observed.value == pytest.approx(1.0 / 50.0)
        assert not result.reject

    def test_maximum_cannot_reject_left_tail(self, cfg):
        x = np.array([3.0] + [0.0] * 49)
        result = gs.test_alpha_left(x, 1.5, 0.2, cfg)
        assert result.observed.value == pytest.approx(1.0)
        assert not result.reject

    def test_mid_distribution_retains_two_sided(self, cfg):
        x = sample_sas(StableSpec(1.5), 100, RngStream(60))
        result = gs.test_alpha_two_sided(x, 1.5, 0.05, cfg)
        assert not result.reject
        assert result.p_value > 0.05

    def test_heavy_data_rejects_gaussianity(self, cfg):
        x = sample_sas(StableSpec(1.2), 100, RngStream(61))
        result = gs.test_alpha_right(x, 2.0, 0.05, cfg)
        assert result.reject
        assert result.p_value < 0.05

    def test_gaussian_data_rejects_low_alpha_star(self, cfg):
        x = sample_sas(StableSpec(2.0), 100, RngStream(62))
        result = gs.test_alpha_left(x, 1.5, 0.05, cfg)
        assert result.reject

    def test_decision_recomputable_from_region(self, cfg):
        for seed, alpha in ((63, 1.3), (64, 1.9), (65, 2.0)):
            x = sample_sas(StableSpec(alpha), 80, RngStream(seed))
            for runner in (gs.test_alpha_right, gs.test_alpha_left, gs.test_alpha_two_sided):
                result = runner(x, 1.8, 0.1, cfg)
                assert result.reject == _in_region(result.observed.value, result.region)
                for lo, hi in result.region:
                    assert 1.0 / result.n <= lo <= hi <= 1.0

    def test_level_validation(self, cfg):
        x = sample_sas(StableSpec(2.0), 50, RngStream(66))
        with pytest.raises(ParameterError):
            gs.test_alpha_right(x, 2.0, 0.0, cfg)
        with pytest.raises(ParameterError):
            gs.test_alpha_right(x, 2.0, 1.0, cfg)
        with pytest.raises(ParameterError, match="univariate tests need at least two observations"):
            gs.test_alpha_right([1.0], 2.0, 0.05, cfg)

    def test_result_provenance(self, cfg):
        x = sample_sas(StableSpec(2.0), 50, RngStream(67))
        result = gs.test_alpha_right(x, 2.0, 0.05, cfg)
        d = result.to_dict()
        assert d["cache_key"] and d["decision"] in ("reject", "retain")
        assert d["null"] == {"kind": "sas", "alpha_star": 2.0, "rho": None}


class TestScaleInvariance:
    @pytest.mark.parametrize("c", [1e-6, 1e6, 2.0**30])
    def test_observed_pvalue_and_decision_unchanged(self, cfg, c):
        x = sample_sas(StableSpec(1.8), 100, RngStream(68))
        base = gs.test_alpha_right(x, 2.0, 0.05, cfg)
        scaled = gs.test_alpha_right(c * x, 2.0, 0.05, cfg)
        assert scaled.observed.value == pytest.approx(base.observed.value, rel=1e-12)
        assert scaled.p_value == base.p_value
        assert scaled.reject == base.reject
        assert scaled.region == base.region


class TestBivariateTests:
    def test_s1_gaussian_null_retains(self, cfg):
        xy = sample_sub_gaussian(SubGaussianSpec(2.0), 150, RngStream(69))
        assert not gs.test_bivariate_gaussian_s1(xy, 0.05, cfg).reject

    def test_s1_heavy_alternative_rejects(self, cfg):
        xy = sample_sub_gaussian(SubGaussianSpec(1.4), 150, RngStream(70))
        assert gs.test_bivariate_gaussian_s1(xy, 0.05, cfg).reject

    def test_s2_uses_chi2_null(self, cfg):
        xy = sample_sub_gaussian(SubGaussianSpec(1.4), 150, RngStream(71))
        result = gs.test_bivariate_gaussian_s2(xy, 0.05, cfg)
        assert result.null.kind == "chi2-1"
        assert result.statistic == "s2"
        assert result.reject

    def test_alpha_star_test_detects_lower_index(self, cfg):
        # rejection frequency far above the 5% size (~0.8 at this distance)
        rejections = 0
        for i in range(50):
            xy = sample_sub_gaussian(SubGaussianSpec(1.2), 100, RngStream(72, i))
            rejections += gs.test_bivariate_alpha_s1(xy, 1.9, 0.05, "less", cfg).reject
        assert rejections / 50 >= 0.6

    def test_alpha_star_test_retains_at_truth(self, cfg):
        xy = sample_sub_gaussian(SubGaussianSpec(1.6), 100, RngStream(73))
        assert not gs.test_bivariate_alpha_s1(xy, 1.6, 0.05, "two-sided", cfg).reject

    def test_alternative_validation(self, cfg):
        xy = sample_sub_gaussian(SubGaussianSpec(2.0), 50, RngStream(74))
        with pytest.raises(ParameterError):
            gs.test_bivariate_alpha_s1(xy, 1.5, 0.05, "sideways", cfg)


class TestConfidenceIntervals:
    def test_covers_truth_and_matches_test_decisions(self, cfg):
        x = sample_sas(StableSpec(1.8), 100, RngStream(75))
        interval = ci_alpha(x, 0.95, 0.05, cfg)
        assert interval.lower <= 1.8 <= interval.upper
        for alpha_star, rejected in interval.probes:
            # same cache keys, hence exactly the same decision
            result = gs.test_alpha_two_sided(x, alpha_star, 0.05, cfg)
            assert result.reject == rejected
            assert (interval.lower <= alpha_star <= interval.upper) == (not rejected)

    def test_gaussian_data_upper_endpoint_is_two(self, cfg):
        x = sample_sas(StableSpec(2.0), 200, RngStream(76))
        interval = ci_alpha(x, 0.95, 0.1, cfg)
        assert interval.upper == 2.0

    def test_halving_the_grid_moves_endpoints_at_most_one_step(self, cfg):
        x = sample_sas(StableSpec(1.8), 100, RngStream(77))
        coarse = ci_alpha(x, 0.95, 0.04, cfg)
        fine = ci_alpha(x, 0.95, 0.02, cfg)
        assert abs(fine.lower - coarse.lower) <= 0.04 + 1e-9
        assert abs(fine.upper - coarse.upper) <= 0.04 + 1e-9

    def test_empty_confidence_set(self, cfg):
        x = np.array([7.0] + [0.0] * 19)  # observed = 1 rejects everywhere
        with pytest.raises(EmptyConfidenceSetError):
            ci_alpha(x, 0.95, 0.05, cfg)

    def test_parameter_validation(self, cfg):
        x = sample_sas(StableSpec(2.0), 50, RngStream(78))
        with pytest.raises(ParameterError):
            ci_alpha(x, 1.2, 0.05, cfg)
        with pytest.raises(ParameterError):
            ci_alpha(x, 0.95, 0.0, cfg)

    def test_contains_and_dict(self, cfg):
        x = sample_sas(StableSpec(1.8), 100, RngStream(79))
        interval = ci_alpha(x, 0.95, 0.1, cfg)
        assert (interval.lower in interval) and (2.5 not in interval)
        d = interval.to_dict()
        assert set(d) == {"lower", "upper", "level", "grid_step"}


# SHA-256 of json.dumps([lower, upper, probes]) of ci_alpha(x, level, grid_step) at
# TestConfig(reps, seed), taken at engine version 3.  Together the cases run every
# branch of the endpoint search: lower endpoint at k = 1 and by bisection, upper endpoint
# at k_max and by bisection, a second anchor scan, and all four shrink steps (the spike,
# whose observed value sits where the small-B quantiles are not monotone in alpha).
GOLDEN_INTERVALS = [
    ("sas1.8", lambda: sample_sas(StableSpec(1.8), 100, RngStream(75)), 0.95, 0.05, 200, 0,
     "00582b6a68f4d98c526d5008e5e7e462340c0f2572c259b236f32d10911460aa"),
    ("sas2", lambda: sample_sas(StableSpec(2.0), 200, RngStream(76)), 0.9, 0.1, 200, 0,
     "6a650f655ed286c52094aebc753f0deee824b43bc96db27bc739ef87c24bb16e"),
    ("sas1.2", lambda: sample_sas(StableSpec(1.2), 50, RngStream(81)), 0.5, 0.02, 100, 1,
     "42c5054f3319870b572506dde4eb267446122f3ab6bf1682a5b73d7543f2bee2"),
    ("spike", lambda: np.array([1.0] + [0.006] * 39), 0.05, 0.004, 100, 2,
     "c85f42e62de9be461cd97380f1954c25009a49061cb7facd31c6d5feb0f1a3b9"),
]


@pytest.mark.parametrize("sample,level,grid_step,reps,seed,digest", [c[1:] for c in GOLDEN_INTERVALS], ids=[c[0] for c in GOLDEN_INTERVALS])
def test_golden_interval_search(sample, level, grid_step, reps, seed, digest):
    interval = ci_alpha(sample(), level, grid_step, gs.TestConfig(reps=reps, seed=seed, cache=QuantileCache()))
    blob = json.dumps([interval.lower, interval.upper, interval.probes]).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_size_is_close_to_nominal_small_scale():
    # light version of the acceptance size check
    cfg = gs.TestConfig(reps=2000, seed=4242, cache=QuantileCache())
    rejections = 0
    reps = 400
    for i in range(reps):
        x = sample_sas(StableSpec(2.0), 100, RngStream(80, i))
        rejections += gs.test_alpha_right(x, 2.0, 0.05, cfg).reject
    assert abs(rejections / reps - 0.05) < 0.035
