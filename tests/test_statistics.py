"""Exact-arithmetic cases, invariants and geometry identities for the statistics."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from greenstat import (
    DegenerateCovarianceError,
    DegenerateSampleError,
    ParameterError,
    RngStream,
    beta_from_correlation,
    beta_from_variance_ratio,
    beta_ratio,
    cov_geometry,
    eigen_pair,
    greenwood,
    s1,
    s2,
    sample_bivariate_gaussian,
)
from greenstat import mc
from greenstat.baselines import henze_zirkler, jarque_bera_multivariate, mardia_kurtosis, mardia_skewness
from greenstat.statistics import greenwood_rows

import scalar_reference as ref

EXACT = 1e-12


class TestGreenwood:
    def test_equal_magnitudes_hit_lower_bound(self):
        assert greenwood([1.0, -1.0]).value == pytest.approx(0.5, abs=EXACT)

    def test_single_nonzero_hits_upper_bound(self):
        assert greenwood([3.0, 0.0, 0.0]).value == pytest.approx(1.0, abs=EXACT)

    def test_hand_arithmetic(self):
        assert greenwood([1.0, 2.0]).value == pytest.approx(5.0 / 9.0, abs=EXACT)

    def test_records_sample_size(self):
        gv = greenwood([1.0, 2.0, 3.0])
        assert gv.n == 3 and float(gv) == gv.value

    def test_all_zero_is_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            greenwood([0.0, 0.0, 0.0])

    def test_empty_and_nan_rejected(self):
        with pytest.raises(ParameterError):
            greenwood([])
        with pytest.raises(ParameterError):
            greenwood([1.0, np.nan])

    def test_huge_magnitudes_do_not_overflow(self):
        v = greenwood([1e300, 1e300, -1e300]).value
        assert v == pytest.approx(1.0 / 3.0, abs=EXACT)

    def test_overflowed_entry_dominates(self):
        assert greenwood([np.inf, 1.0, 2.0]).value == 1.0

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6, 2.0**40])
    def test_scale_invariance(self, c):
        gen = RngStream(21).generator()
        for _ in range(200):
            x = gen.standard_cauchy(40)
            base = greenwood(x).value
            scaled = greenwood(c * x).value
            assert scaled == pytest.approx(base, rel=EXACT)

    def test_power_of_two_scaling_is_bitwise_exact(self):
        x = RngStream(22).generator().standard_normal(100)
        assert greenwood(2.0**13 * x).value == greenwood(x).value

    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            np.float64,
            st.integers(min_value=1, max_value=50),
            elements=st.floats(-1e300, 1e300, allow_nan=False),
        ).filter(lambda a: np.any(a != 0.0))
    )
    def test_bounds_property(self, x):
        v = greenwood(x).value
        assert 1.0 / len(x) - EXACT <= v <= 1.0 + EXACT


def scalar_rows(func, block, error=DegenerateSampleError):
    """A one-sample function on each row, NaN where it raises ``error``."""
    out = []
    for row in block:
        try:
            out.append(float(func(row)))
        except error:
            out.append(np.nan)
    return np.array(out)


# Each statistic's reference: its one-sample arithmetic, and the error it
# raises on a degenerate sample.
REFERENCE = {
    "greenwood": (lambda x: ref.greenwood(x).value, DegenerateSampleError),
    "s1": (lambda x: ref.s1(x).value, DegenerateSampleError),
    "s2": (lambda x: ref.s2(x).value, DegenerateSampleError),
    "kurt": (lambda x: ref._kurtosis(ref._whitened(x, "kurt")), DegenerateCovarianceError),
    "skew": (lambda x: ref._skewness(ref._whitened(x, "skew")), DegenerateCovarianceError),
    "jb": (lambda x: ref._jarque_bera(ref._whitened(x, "jb")), DegenerateCovarianceError),
    "hz": (lambda x: ref._henze_zirkler(ref._whitened(x, "hz")), DegenerateCovarianceError),
}
BASELINES = ("kurt", "skew", "jb", "hz")


def assert_kernels_match_reference(kind, block):
    """The registered rows kernel and the one-sample function both equal the reference, row by row."""
    reference, error = REFERENCE[kind]
    want = scalar_rows(reference, block, error)
    np.testing.assert_array_equal(mc._statistic(kind).rows(block), want)
    np.testing.assert_array_equal(scalar_rows(mc.statistic_function(kind), block, error), want)


# Entries that hit every branch of the kernels: zeros (all-zero rows),
# overflowed draws, subnormals, huge finite values and cancelling pairs.
SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, 5e-324, -2.5e-310, 1e308, -1e308])
ANY_ENTRY = st.one_of(SPECIAL, st.floats(allow_nan=False))
FINITE_ENTRY = st.one_of(SPECIAL.filter(np.isfinite), st.floats(allow_nan=False, allow_infinity=False))


def blocks(entries, pairs=False):
    """``(b, n)`` blocks, or ``(b, n, 2)`` blocks of pairs."""
    rows = st.integers(min_value=1, max_value=6)
    n = st.integers(min_value=1, max_value=30)
    shapes = st.tuples(rows, n, *([st.just(2)] if pairs else []))
    return arrays(np.float64, shapes, elements=entries)


@st.composite
def baseline_blocks(draw, min_n):
    """``(b, n, 2)`` blocks from ``min_n`` rows up whose rows are Gaussian, free, collinear
    (``y = a x + c``, so the covariance is singular) or hold a constant coordinate."""
    n = draw(st.integers(min_value=min_n, max_value=30))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        shape = draw(st.sampled_from(["gaussian", "free", "collinear", "constant"]))
        if shape == "gaussian":
            rows.append(np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, 2)))
            continue
        x = draw(arrays(np.float64, n, elements=FINITE_ENTRY))
        if shape == "free":
            y = draw(arrays(np.float64, n, elements=FINITE_ENTRY))
        elif shape == "collinear":
            with np.errstate(over="ignore", invalid="ignore"):
                y = draw(FINITE_ENTRY) * x + draw(FINITE_ENTRY)
            assume(np.isfinite(y).all())
        else:
            y = np.full(n, draw(FINITE_ENTRY))
        rows.append(np.column_stack((x, y) if draw(st.booleans()) else (y, x)))
    return np.stack(rows)


class TestRowKernels:
    """Each statistic's block kernel, and its public function on one row, equal the reference bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(blocks(ANY_ENTRY))
    def test_greenwood_rows(self, block):
        assert_kernels_match_reference("greenwood", block)

    @settings(max_examples=300, deadline=None)
    @given(blocks(FINITE_ENTRY, pairs=True))
    def test_s1_s2_rows(self, block):
        assert_kernels_match_reference("s1", block)
        assert_kernels_match_reference("s2", block)

    @pytest.mark.parametrize("kind", BASELINES)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_baseline_rows(self, kind, data):
        assert_kernels_match_reference(kind, data.draw(baseline_blocks(mc._statistic(kind).min_n)))

    def test_singular_rows_are_nan_in_the_block_and_raise_alone(self):
        x = np.arange(12.0)
        gen = RngStream(26).generator()
        block = np.stack(
            [gen.standard_normal((12, 2)), np.column_stack((x, 3.0 * x - 1.0)), np.column_stack((x, np.full(12, 2.5)))]
        )
        for kind in BASELINES:
            values = mc._statistic(kind).rows(block)
            assert np.isfinite(values[0]) and np.isnan(values[1:]).all()
            for row in block[1:]:
                with pytest.raises(DegenerateCovarianceError):
                    mc.statistic_function(kind)(row)
            assert_kernels_match_reference(kind, block)

    def test_a_collinear_spike_with_subnormal_variances_is_singular(self):
        # The spike's two coordinates are collinear.  Unscaled, their subnormal moment
        # sums pass the determinant test; scaled by powers of two they fail it.
        spike = np.zeros((25, 2))
        spike[0] = (3012.0, 9.45685087e-161)
        block = np.stack([RngStream(29).generator().standard_normal((25, 2)), spike])
        for kind in BASELINES:
            values = mc._statistic(kind).rows(block)
            assert np.isfinite(values[0]) and np.isnan(values[1])
            with pytest.raises(DegenerateCovarianceError):
                mc.statistic_function(kind)(spike)
            assert_kernels_match_reference(kind, block)

    def test_henze_zirkler_sub_blocks(self):
        # at n = 100 a tile holds the whole pair matrices of 3 rows; row 4 is singular
        block = RngStream(27).generator().standard_cauchy((8, 100, 2))
        block[4, :, 1] = 2.0 * block[4, :, 0]
        assert_kernels_match_reference("hz", block)
        assert np.isnan(mc._statistic("hz").rows(block)[4])
        # at n = 200 a tile holds 163 of a row's 200 pair-matrix rows
        assert_kernels_match_reference("hz", RngStream(27).generator().standard_cauchy((3, 200, 2)))

    @pytest.mark.parametrize("k", [-1000, -500, 500, 900])
    def test_power_of_two_scaling_of_a_coordinate_is_bitwise_exact(self, k):
        block = RngStream(30).generator().standard_normal((3, 40, 2))
        for coordinate in (0, 1):
            scaled = block.copy()
            scaled[..., coordinate] *= 2.0**k
            for kind in BASELINES:
                assert mc._statistic(kind).rows(scaled).tobytes() == mc._statistic(kind).rows(block).tobytes()

    def test_test_details_match_the_reference(self):
        gen = RngStream(28).generator()
        for n in (4, 10, 57):
            xy = gen.standard_normal((n, 2)) @ np.array([[1.0, 0.6], [0.0, 0.8]])
            z = ref._whitened(xy, "kurt")
            kurt = mardia_kurtosis(xy, critical="asymptotic")
            skew = mardia_skewness(xy, critical="asymptotic")
            assert (kurt.statistic, kurt.details["b2"]) == (ref._kurtosis(z), ref._mardia_b2(z))
            assert (skew.statistic, skew.details["b1"]) == (ref._skewness(z), ref._mardia_b1(z))
            assert jarque_bera_multivariate(xy, critical="asymptotic").statistic == ref._jarque_bera(z)
            assert henze_zirkler(xy, critical="asymptotic").statistic == ref._henze_zirkler(z)

    def test_greenwood_of_a_million_draws(self):
        x = RngStream(29).generator().standard_cauchy(10**6)
        assert greenwood(x) == ref.greenwood(x)

    def test_branches_are_reached_without_warnings(self):
        block = np.array([[0.0, 0.0, 0.0], [np.inf, 1.0, -np.inf], [3.0, np.inf, 1e300], [1.0, -2.0, 5e-324]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = greenwood_rows(block)
            # A finite pair whose sum or squared norm overflows is a dominant inf entry.
            overflowed = s1([(1e308, 1e308), (1.0, 2.0)]), s2([(1e200, 1.0), (1.0, 2.0)])
        assert np.isnan(values[0]) and values[1] == 0.5 and values[2] == 1.0
        np.testing.assert_array_equal(values, scalar_rows(greenwood, block))
        assert [v.value for v in overflowed] == [1.0, 1.0]

    @settings(max_examples=100, deadline=None)
    @given(blocks(ANY_ENTRY), st.data())
    def test_nan_rows_are_nan_in_the_block_and_raise_alone(self, block, data):
        i = data.draw(st.integers(0, block.shape[0] - 1))
        j = data.draw(st.integers(0, block.shape[1] - 1))
        clean = greenwood_rows(block)
        block[i, j] = np.nan
        with pytest.raises(ParameterError, match="^sample contains NaN$"):
            greenwood(block[i])
        values, others = greenwood_rows(block), np.arange(len(block)) != i
        assert np.isnan(values[i]) and values[others].tobytes() == clean[others].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(blocks(FINITE_ENTRY, pairs=True), st.data(), st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_non_finite_pairs_are_nan_or_dominant_and_raise_alone(self, block, data, bad):
        i = data.draw(st.integers(0, block.shape[0] - 1))
        j = data.draw(st.integers(0, block.shape[1] - 1))
        kernels = {kind: mc._statistic(kind).rows for kind in ("s1", "s2", *BASELINES)}
        clean = {kind: rows(block) for kind, rows in kernels.items()}
        block[i, j, data.draw(st.integers(0, 1))] = bad
        others = np.arange(len(block)) != i
        for kind, rows in kernels.items():
            with pytest.raises(ParameterError, match="^bivariate sample entries must be finite$"):
                mc.statistic_function(kind)(block[i])
            values = rows(block)
            assert values[others].tobytes() == clean[kind][others].tobytes()
            if np.isnan(bad) or kind in BASELINES:
                assert np.isnan(values[i])
            else:  # an infinite W_i or Y_i dominates: the row is 1/#inf
                assert values[i] in {1.0 / k for k in range(1, block.shape[1] + 1)}


class TestBivariateStatistics:
    def test_s1_hand_arithmetic(self):
        assert s1([(1.0, 2.0), (-1.0, 0.0)]).value == pytest.approx(0.625, abs=EXACT)

    def test_s1_single_pair(self):
        assert s1([(1.0, 1.0)]).value == pytest.approx(1.0, abs=EXACT)

    def test_s1_degenerate_sums(self):
        with pytest.raises(DegenerateSampleError):
            s1([(2.0, -2.0), (-0.5, 0.5)])

    def test_s2_hand_arithmetic(self):
        assert s2([(1.0, 2.0), (-1.0, 0.0)]).value == pytest.approx(26.0 / 36.0, abs=EXACT)

    def test_s2_equal_norms_hit_lower_bound(self):
        assert s2([(1.0, 0.0), (0.0, 1.0)]).value == pytest.approx(0.5, abs=EXACT)

    def test_s2_single_pair(self):
        assert s2([(2.0, 2.0)]).value == pytest.approx(1.0, abs=EXACT)

    def test_s2_degenerate_pairs(self):
        with pytest.raises(DegenerateSampleError):
            s2([(0.0, 0.0), (0.0, 0.0)])

    def test_shape_validation(self):
        with pytest.raises(ParameterError):
            s1(np.zeros((3, 3)))
        with pytest.raises(ParameterError):
            s2([(1.0, np.inf)])

    @pytest.mark.parametrize("c", [1e-6, 1e6])
    def test_common_scaling_invariance(self, c):
        gen = RngStream(23).generator()
        for _ in range(100):
            xy = gen.standard_normal((30, 2))
            assert s1(c * xy).value == pytest.approx(s1(xy).value, rel=EXACT)
            assert s2(c * xy).value == pytest.approx(s2(xy).value, rel=EXACT)


class TestCovarianceGeometry:
    def test_eigen_pair_examples(self):
        assert eigen_pair([[2.0, 0.0], [0.0, 1.0]]) == pytest.approx((2.0, 1.0), abs=EXACT)
        assert eigen_pair(np.eye(2)) == pytest.approx((1.0, 1.0), abs=EXACT)
        assert eigen_pair([[1.0, 1.0], [1.0, 1.0]]) == pytest.approx((2.0, 0.0), abs=EXACT)

    def test_eigen_pair_matches_characteristic_polynomial(self):
        gen = RngStream(24).generator()
        for _ in range(100):
            a = gen.standard_normal((2, 2))
            cov = a.T @ a
            hi, lo = eigen_pair(cov)
            # independent oracle: the eigenvalues must annihilate det(cov - x I)
            for x in (hi, lo):
                residual = (cov[0, 0] - x) * (cov[1, 1] - x) - cov[0, 1] ** 2
                assert abs(residual) < 1e-9 * max(hi**2, 1.0)

    def test_eigen_pair_rejects_asymmetric(self):
        with pytest.raises(ParameterError):
            eigen_pair([[1.0, 0.2], [0.3, 1.0]])

    def test_beta_ratio_examples(self):
        assert beta_ratio(np.eye(2)) == pytest.approx(1.0, abs=EXACT)
        assert beta_ratio([[1.0, 1.0], [1.0, 1.0]]) == pytest.approx(0.0, abs=EXACT)
        assert beta_ratio([[2.0, 0.0], [0.0, 1.0]]) == pytest.approx(0.5, abs=EXACT)

    def test_beta_ratio_zero_matrix(self):
        with pytest.raises(DegenerateCovarianceError):
            beta_ratio(np.zeros((2, 2)))

    def test_ratio_function_anchors(self):
        assert beta_from_variance_ratio(1.0, 0.0) == pytest.approx(1.0, abs=EXACT)
        for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert beta_from_variance_ratio(gamma, 1.0) == pytest.approx(0.0, abs=EXACT)
        assert beta_from_variance_ratio(1.0, 0.25) == pytest.approx(1.0 / 3.0, abs=EXACT)

    def test_ratio_function_domain(self):
        with pytest.raises(ParameterError):
            beta_from_variance_ratio(-0.1, 0.5)
        with pytest.raises(ParameterError):
            beta_from_variance_ratio(0.5, 1.1)

    def test_beta_from_correlation(self):
        assert beta_from_correlation(0.0) == pytest.approx(1.0, abs=EXACT)
        assert beta_from_correlation(1.0) == pytest.approx(0.0, abs=EXACT)
        assert beta_from_correlation(-1.0) == pytest.approx(0.0, abs=EXACT)
        assert beta_from_correlation(0.5) == pytest.approx(1.0 / 3.0, abs=EXACT)
        assert beta_from_correlation(0.5) == pytest.approx(beta_from_variance_ratio(1.0, 0.25), abs=EXACT)
        with pytest.raises(ParameterError, match=r"correlation must lie in \[-1, 1\], got 2.0"):
            beta_from_correlation(2.0)

    def test_cov_geometry_of_degenerate_matrices(self):
        with pytest.raises(DegenerateCovarianceError, match="zero covariance matrix has no geometry"):
            cov_geometry(np.zeros((2, 2)))
        geom = cov_geometry([[2.0, 0.0], [0.0, 0.0]])
        assert (geom.eig_hi, geom.eig_lo, geom.beta, geom.gamma, geom.r) == (2.0, 0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("rho", [0.0, 0.5, -1.0])
    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200, 1e308], ids=["1e-200", "1", "1e200", "1e308"])
    def test_cov_geometry_at_an_extreme_scale(self, scale, rho):
        # the product of the variances over- or underflows beyond about 1e+-154; at
        # 1e308 the eigenvalues are taken at half scale, and with rho = -1 the larger
        # one, 2e308, is itself beyond the floats
        cov = scale * np.array([[1.0, rho], [rho, 1.0]])
        hi, lo = eigen_pair(cov)
        assert (hi, lo) == (pytest.approx(scale * (1.0 + abs(rho))), pytest.approx(scale * (1.0 - abs(rho))))
        assert beta_ratio(cov) == pytest.approx(beta_from_correlation(rho), abs=EXACT)
        geom = cov_geometry(cov)
        assert (geom.eig_hi, geom.eig_lo, geom.gamma, geom.r) == (hi, lo, 1.0, rho * rho)
        assert geom.beta == pytest.approx(beta_from_correlation(rho), abs=EXACT)

    def test_eigen_ratio_consistent_with_moment_form(self):
        # beta computed from eigenvalues equals h(variance ratio, squared
        # correlation) on random PSD matrices
        gen = RngStream(25).generator()
        for _ in range(1000):
            a = gen.standard_normal((2, 2)) * gen.uniform(0.1, 10.0)
            cov = a.T @ a
            geom = cov_geometry(cov)
            assert geom.beta == pytest.approx(
                beta_from_variance_ratio(geom.gamma, geom.r), abs=EXACT, rel=EXACT
            )
            assert geom.beta == pytest.approx(beta_ratio(cov), abs=EXACT)

    def test_monotonicity_grid(self):
        grid = np.linspace(0.0, 1.0, 101)
        values = np.array([[beta_from_variance_ratio(g, r) for r in grid] for g in grid])
        # strictly increasing in the variance ratio for each fixed r < 1
        assert np.all(np.diff(values[:, :-1], axis=0) > 0.0)
        # strictly decreasing in r for each fixed variance ratio > 0
        assert np.all(np.diff(values[1:, :], axis=1) < 0.0)


def test_s1_insensitive_to_correlation():
    # S1 samples at rho = 0 and rho = 0.9 share one law (two-sample KS)
    from scipy import stats as sps

    reps, n = 2000, 100
    vals = {}
    for seed, rho in ((26, 0.0), (27, 0.9)):
        cov = np.array([[1.0, rho], [rho, 1.0]])
        out = np.empty(reps)
        for i in range(reps):
            xy = sample_bivariate_gaussian(cov, n, RngStream(seed, i))
            out[i] = s1(xy).value
        vals[rho] = out
    assert sps.ks_2samp(vals[0.0], vals[0.9]).pvalue > 0.01
