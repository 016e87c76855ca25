"""Distributional checks for the samplers, against independent oracles.

Characteristic-function targets are computed from the closed forms the
distributions are defined by; empirical CFs of n IID draws match them to
within 4/sqrt(n).  The positive stable multiplier is checked through its
Laplace transform, exp(-s**(alpha/2)).
"""

import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps

from greenstat import (
    NullSpec,
    ParameterError,
    RngStream,
    StableSpec,
    SubGaussianSpec,
    sample_bivariate_gaussian,
    sample_chi2_one,
    sample_positive_stable,
    sample_sas,
    sample_sub_gaussian,
)
from greenstat.sampling import positive_stable_law, stable_law, validate_cov2

N = 10**5
TOL = 4.0 / np.sqrt(N)


def ecf(x, t):
    # the imaginary part vanishes for symmetric laws; the real part is the CF
    return np.cos(t * x).mean()


def test_sas_alpha2_is_standard_gaussian():
    x = sample_sas(StableSpec(2.0, 1.0 / np.sqrt(2.0)), N, RngStream(101))
    assert abs(x.mean()) < TOL
    assert abs(x.var() - 1.0) < 4.0 * np.sqrt(2.0 / N)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_sas_cauchy_ecf(t):
    x = sample_sas(StableSpec(1.0, 1.0), N, RngStream(102))
    assert abs(ecf(x, t) - np.exp(-t)) < TOL


@pytest.mark.parametrize("alpha,sigma,t", [(1.5, 2.0, 0.4), (1.7, 0.5, 1.0), (0.8, 1.0, 1.0)])
def test_sas_ecf_general(alpha, sigma, t):
    x = sample_sas(StableSpec(alpha, sigma), N, RngStream(103))
    assert abs(ecf(x, t) - np.exp(-(sigma**alpha) * t**alpha)) < TOL


def test_sas_scaling_property_ks():
    # 2 * draws(alpha, sigma=1) and draws(alpha, sigma=2) share one law
    a = 2.0 * sample_sas(StableSpec(1.5, 1.0), N, RngStream(104))
    b = sample_sas(StableSpec(1.5, 2.0), N, RngStream(105))
    assert sps.ks_2samp(a, b).pvalue > 0.01


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.9])
def test_positive_stable_laplace_transform(alpha):
    a = sample_positive_stable(alpha, N, RngStream(106))
    for s in (0.5, 1.0, 2.0):
        assert abs(np.exp(-s * a).mean() - np.exp(-(s ** (alpha / 2.0)))) < TOL


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.9])
def test_positive_stable_strictly_positive(alpha):
    a = sample_positive_stable(alpha, 10**6, RngStream(107))
    assert a.min() > 0.0


def test_positive_stable_rejects_alpha_2():
    with pytest.raises(ParameterError):
        sample_positive_stable(2.0, 10, RngStream(0))


@pytest.mark.parametrize("alpha", [1.5, 1.8, 1.9, 2.0])
def test_sub_gaussian_marginal_law(alpha):
    # each marginal is symmetric alpha-stable with scale 1/sqrt(2)
    xy = sample_sub_gaussian(SubGaussianSpec(alpha, np.eye(2)), N, RngStream(108))
    for t in (0.5, 1.0, 2.0):
        target = np.exp(-(t**alpha) / 2 ** (alpha / 2.0))
        assert abs(ecf(xy[:, 0], t) - target) < TOL
        assert abs(ecf(xy[:, 1], t) - target) < TOL


def test_sub_gaussian_coordinate_sum_scale():
    # W = X1 + X2 is alpha-stable with scale sqrt(1 + rho)
    alpha, rho = 1.8, 0.5
    xy = sample_sub_gaussian(SubGaussianSpec.from_rho(alpha, rho), N, RngStream(109))
    w = xy[:, 0] + xy[:, 1]
    for t in (0.5, 1.0):
        assert abs(ecf(w, t) - np.exp(-((1.0 + rho) ** (alpha / 2.0)) * t**alpha)) < TOL


def test_sub_gaussian_alpha2_equals_bivariate_gaussian():
    spec = SubGaussianSpec(2.0, np.array([[2.0, 0.3], [0.3, 1.0]]))
    a = sample_sub_gaussian(spec, 1000, RngStream(110))
    b = sample_bivariate_gaussian(spec.cov, 1000, RngStream(110))
    assert np.array_equal(a, b)


def test_bivariate_gaussian_identity():
    xy = sample_bivariate_gaussian(np.eye(2), N, RngStream(111))
    assert abs(np.corrcoef(xy.T)[0, 1]) < TOL


def test_bivariate_gaussian_perfect_correlation_is_exact():
    xy = sample_bivariate_gaussian([[1.0, 1.0], [1.0, 1.0]], 1000, RngStream(112))
    assert np.array_equal(xy[:, 0], xy[:, 1])


def test_bivariate_gaussian_anticorrelation():
    xy = sample_bivariate_gaussian([[1.0, -1.0], [-1.0, 1.0]], 1000, RngStream(113))
    assert np.array_equal(xy[:, 0], -xy[:, 1])


def test_bivariate_gaussian_variances():
    xy = sample_bivariate_gaussian([[2.0, 0.0], [0.0, 1.0]], N, RngStream(114))
    assert abs(xy[:, 0].var() - 2.0) < 2.0 * 4.0 * np.sqrt(2.0 / N)
    assert abs(xy[:, 1].var() - 1.0) < 4.0 * np.sqrt(2.0 / N)


def test_bivariate_gaussian_rejects_non_psd():
    with pytest.raises(ParameterError):
        sample_bivariate_gaussian([[1.0, 2.0], [2.0, 1.0]], 10, RngStream(0))
    with pytest.raises(ParameterError):
        sample_bivariate_gaussian([[1.0, 0.5], [0.4, 1.0]], 10, RngStream(0))


def test_chi2_one_moments():
    y = sample_chi2_one(N, RngStream(115))
    assert y.min() >= 0.0
    assert abs(y.mean() - 1.0) < 4.0 * np.sqrt(2.0 / N)
    assert abs(y.var() - 2.0) < 4.0 * np.sqrt(96.0 / N)  # Var(Y^2 - ...) via 8th Gaussian moment


def test_determinism_and_stream_independence():
    spec = StableSpec(1.7)
    a = sample_sas(spec, 100, RngStream(7, 3))
    b = sample_sas(spec, 100, RngStream(7, 3))
    c = sample_sas(spec, 100, RngStream(7, 4))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_stream_children():
    root = RngStream(9)
    assert root.child(2).path == (0, 2)
    assert RngStream(9, (1, 2)).path == (1, 2)
    with pytest.raises(ParameterError):
        RngStream(-1)
    with pytest.raises(ParameterError):
        RngStream(3, -2)
    for stream in (True, (1, True), (1, 1.5)):
        with pytest.raises(ParameterError, match="stream indices must be non-negative integers"):
            RngStream(3, stream)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"alpha": 0.0},
        {"alpha": 2.5},
        {"alpha": 1.5, "sigma": 0.0},
        {"alpha": 1.5, "sigma": -1.0},
    ],
)
def test_stable_spec_validation(kwargs):
    with pytest.raises(ParameterError):
        StableSpec(**kwargs)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SubGaussianSpec(3.0), "alpha must lie in (0, 2], got 3.0"),
        (lambda: SubGaussianSpec.from_rho(1.5, 2.0), "rho must lie in [-1, 1], got 2.0"),
        (lambda: validate_cov2(np.eye(3)), "covariance must be 2x2, got shape (3, 3)"),
        (lambda: validate_cov2([[1.0, np.nan], [np.nan, 1.0]]), "covariance entries must be finite"),
        (lambda: validate_cov2([[-1.0, 0.0], [0.0, 1.0]]), "variances must be non-negative"),
        (lambda: validate_cov2([[1e200, 2e200], [2e200, 1e200]]), "covariance must be positive semidefinite"),
        (lambda: validate_cov2([[1e200, 1e200], [-1e200, 1e200]]), "covariance must be symmetric"),
        (lambda: validate_cov2([[1e-7, 2e-7], [2e-7, 1e-7]]), "covariance must be positive semidefinite"),
        (lambda: validate_cov2([[1e-14, 1e-13], [-1e-13, 1e-14]]), "covariance must be symmetric"),
        (lambda: validate_cov2([[0.0, 1e-300], [1e-300, 1.0]]), "covariance must be positive semidefinite"),
    ],
    ids=[
        "alpha",
        "rho",
        "3x3",
        "nan",
        "negative-variance",
        "not-psd-1e200",
        "asymmetric-1e200",
        "not-psd-1e-7",
        "asymmetric-1e-14",
        "zero-variance-with-covariance",
    ],
)
def test_sub_gaussian_spec_validation(make, message):
    with pytest.raises(ParameterError, match=re.escape(message)):
        make()


SCALES = pytest.mark.parametrize("scale", [1e-200, 1e-7, 1.0, 1e7, 1e200], ids=["1e-200", "1e-7", "1", "1e7", "1e200"])


@pytest.mark.parametrize("rho", [0.0, 0.5, -1.0])
@SCALES
def test_an_extreme_covariance_scale_keeps_its_correlation(scale, rho):
    # Beyond about 1e+-154 the product of the variances over- or underflows.  Every
    # draw stays finite and is sqrt(scale) times the unit-scale draw, whose second
    # coordinate is rho z0 + sqrt(1 - rho**2) z1 of the Gaussian core z.
    cov = scale * np.array([[1.0, rho], [rho, 1.0]])
    assert np.array_equal(validate_cov2(cov), cov)
    z = RngStream(118).generator().standard_normal((200, 2))
    core = np.column_stack([z[:, 0], rho * z[:, 0] + np.sqrt(1.0 - rho * rho) * z[:, 1]])
    xy = sample_bivariate_gaussian(cov, 200, RngStream(118))
    assert np.all(np.isfinite(xy))
    np.testing.assert_allclose(xy / np.sqrt(scale), core, rtol=1e-12, atol=1e-12)
    unit = sample_sub_gaussian(SubGaussianSpec(1.5, cov / scale), 200, RngStream(119))
    xy = sample_sub_gaussian(SubGaussianSpec(1.5, cov), 200, RngStream(119))
    assert np.all(np.isfinite(xy))
    np.testing.assert_allclose(xy / np.sqrt(scale), unit, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "cov, message",
    [
        ([[1.0, 2.0], [2.0, 1.0]], "covariance must be positive semidefinite"),
        ([[1.0, 1.0 + 1e-11], [1.0 + 1e-11, 1.0]], "covariance must be positive semidefinite"),
        ([[0.0, 1.0], [1.0, 1.0]], "covariance must be positive semidefinite"),
        ([[1.0, 10.0], [-10.0, 1.0]], "covariance must be symmetric"),
        ([[1.0, 1.0], [1.0 + 1e-11, 1.0]], "covariance must be symmetric"),
        ([[-1.0, 0.0], [0.0, 1.0]], "variances must be non-negative"),
    ],
    ids=["rho-2", "rho-above-1", "zero-variance", "antisymmetric", "asymmetric", "negative-variance"],
)
@SCALES
def test_an_extreme_covariance_scale_keeps_its_refusal(scale, cov, message):
    # each matrix is judged at its own scale, so these factors keep its decision
    with pytest.raises(ParameterError, match=re.escape(message)):
        validate_cov2(scale * np.array(cov))


def test_bivariate_gaussian_with_a_zero_variance_is_uncorrelated():
    xy = sample_bivariate_gaussian([[0.0, 0.0], [0.0, 4.0]], 1000, RngStream(117))
    z = sample_bivariate_gaussian(np.eye(2), 1000, RngStream(117))
    assert np.all(xy[:, 0] == 0.0) and np.array_equal(xy[:, 1], 2.0 * z[:, 1])


def test_sample_size_validation():
    with pytest.raises(ParameterError):
        sample_chi2_one(0, RngStream(0))


def test_alpha_near_two_treated_as_gaussian():
    near = sample_sas(StableSpec(2.0 - 1e-13), 1000, RngStream(116))
    exact = sample_sas(StableSpec(2.0), 1000, RngStream(116))
    assert np.array_equal(near, exact)


# SHA-256 of the draws of each public sampler (n = 500), taken from the
# per-sampler implementation the shared law path replaced; those that run the
# CMS transform at an alpha other than 1 were retaken at engine version 3.
SAMPLER_DIGESTS = {
    "sas": (
        lambda: sample_sas(StableSpec(1.5, 2.0), 500, RngStream(7)),
        "2b5910a1823b6dee669a328adfb2a3c7c3738f781b2ebee69e50e791007334a5",
    ),
    "sas-cauchy": (
        lambda: sample_sas(StableSpec(1.0, 0.5), 500, RngStream(7, (1, 2))),
        "640df25210aca85d6d2004c50a3adb40c5d958b52ac358a7ef9ec0e25016ea24",
    ),
    "sas-gauss": (
        lambda: sample_sas(StableSpec(2.0, 0.5), 500, RngStream(7)),
        "1846bc6ac36d45f782ce6422bf245f6091a23d4a15f85f52d6668347e457963e",
    ),
    "positive": (
        lambda: sample_positive_stable(1.3, 500, RngStream(8)),
        "757ca77e3d3299186cb0521f1a356f372d68c8d3cc6deba4f43260b75309943d",
    ),
    "gauss-pair": (
        lambda: sample_bivariate_gaussian([[2.0, 0.5], [0.5, 1.0]], 500, RngStream(9)),
        "9029aa2e11f229831ca8ef64b0f59f61a377a0e4db09af3fead070c6db05138b",
    ),
    "sub-gauss": (
        lambda: sample_sub_gaussian(SubGaussianSpec.from_rho(1.4, -0.7), 500, RngStream(10)),
        "5e9be9dce81608a20bd4d91cd95a59f30a6459a8caf7b6464fe8b09b5e2b7115",
    ),
    "sub-gauss-2": (
        lambda: sample_sub_gaussian(SubGaussianSpec(2.0, [[1.0, 0.3], [0.3, 4.0]]), 500, RngStream(10)),
        "ee06af134a19f45793c11723de4633760f240ebb6d54b24e9b77760d5424daed",
    ),
    "chi2-1": (
        lambda: sample_chi2_one(500, RngStream(11)),
        "8d6c25ebbbe90295c484c0f409d7013719b05e5cf1a823847f1edaf757d3199d",
    ),
    "null-subgauss": (
        lambda: NullSpec.subgauss(0.7, 0.4).draw(500, RngStream(12).generator()),
        "ca08eb8d094a0f2a41782a6c44e0827742e406cf06bead409b53ed41425b2ac3",
    ),
}


@pytest.mark.parametrize("name", list(SAMPLER_DIGESTS))
def test_sampler_draws_are_unchanged(name):
    draw, digest = SAMPLER_DIGESTS[name]
    assert hashlib.sha256(np.ascontiguousarray(draw()).tobytes()).hexdigest() == digest


def _factor_by_factor(law, alpha, v, w):
    # The textbook CMS product of ``law`` (sigma 1, or the multiplier with its
    # skew, shift and scale spelled out) taken factor by factor, in the dtype
    # of ``v`` and ``w``.
    one = v.dtype.type(1)
    if law == "sas":
        a = one * alpha
        return np.sin(a * v) / np.cos(v) ** (1 / a) * (np.cos((1 - a) * v) / w) ** ((1 - a) / a)
    scale = np.cos(np.pi * (one * alpha) / 4) ** (2 / (one * alpha))
    a = one * alpha / 2
    zeta = np.tan(np.pi * a / 2)
    b = np.arctan(zeta) / a
    s = (1 + zeta * zeta) ** (1 / (2 * a))
    return scale * (s * np.sin(a * (v + b)) / np.cos(v) ** (1 / a) * (np.cos(v - a * (v + b)) / w) ** ((1 - a) / a))


@pytest.mark.skipif(
    np.finfo(np.longdouble).maxexp <= 1024,
    reason="long double has float64's exponent range on this platform, so the reference overflows too",
)
@pytest.mark.parametrize("law, alpha", [(law, alpha) for law in ("sas", "positive") for alpha in (0.005, 0.01, 0.02)])
def test_draws_whose_factors_overflow_and_underflow_at_once_are_not_nan(law, alpha):
    # At a very small alpha one CMS factor of many draws overflows while another
    # underflows.  Every draw is still the float64 rounding of its long-double
    # value: inf beyond float64 range, within rtol 1e-9 in the normal range, and
    # below it within rtol 1e-12 plus one subnormal ulp, with the sign of a zero
    # kept.  The log form's rounding is relative (3.6e-13 at worst on this
    # block, at the multiplier's alpha 0.005), so near the normal range a
    # subnormal draw may lie more than one ulp (2e-16 relative there) off.
    sampled = stable_law(StableSpec(alpha)) if law == "sas" else positive_stable_law(alpha)
    draws = sampled.sample_rows(RngStream(0).generator(), 1000, 50)
    gen = RngStream(0).generator()
    v, w = (gen.random((1000, 50)) - 0.5) * np.pi, gen.standard_exponential((1000, 50))
    with np.errstate(all="ignore"):
        exact = _factor_by_factor(law, alpha, v.astype(np.longdouble), w.astype(np.longdouble))
        reference = exact.astype(float)
    assert np.isfinite(exact).all() and not np.isnan(draws).any()
    finite = np.isfinite(reference)
    normal = finite & (np.abs(reference) >= np.finfo(float).tiny)
    np.testing.assert_allclose(draws[normal], reference[normal], rtol=1e-9)
    below = finite & ~normal
    np.testing.assert_allclose(draws[below], reference[below], rtol=1e-12, atol=np.spacing(0.0))
    assert np.array_equal(draws[~finite], reference[~finite])
    assert np.array_equal(np.signbit(draws), np.signbit(reference))


@pytest.mark.parametrize("law", [stable_law(StableSpec(1.8)), positive_stable_law(1.8)], ids=["sas", "positive"])
def test_a_block_of_stable_draws_holds_at_most_four_block_sized_arrays(law):
    # the uniform and exponential draws, and two temporaries of the transform,
    # which works in place: the engine's blocks stay near 1 MB at n = 300
    gen = RngStream(0, (2, 0, 0)).generator()
    tracemalloc.start()
    try:
        law.sample_rows(gen, 109, 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.05 * 109 * 300 * 8


@pytest.mark.parametrize(
    "null", [NullSpec.sas(0.6), NullSpec.sas(2.0), NullSpec.chi2_one(), NullSpec.subgauss(1.3, -0.4)], ids=str
)
def test_a_block_of_rows_equals_each_row_drawn_alone(null):
    # a block reads each raw draw over all its rows in turn, so it is one
    # sample of rows * n points; the transform is elementwise, so each row is
    # its own raw draws transformed alone
    law = null.law()
    block = law.sample_rows(RngStream(13, (2, 0, 4)).generator(), 5, 40)
    flat = null.draw(200, RngStream(13, (2, 0, 4)).generator())
    assert np.array_equal(block, flat.reshape(block.shape))
    gen = RngStream(13, (2, 0, 4)).generator()
    raw = [getattr(gen, method)(size=(5, 40, *shape)) for method, shape in law.draws]
    for i in range(5):
        assert np.array_equal(block[i], law.transform(*(r[i] for r in raw)))
