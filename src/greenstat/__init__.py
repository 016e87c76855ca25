"""Greenwood-statistic tests and stability-index estimation for stable laws.

The package provides samplers for symmetric alpha-stable and bivariate
sub-Gaussian distributions, the modified Greenwood statistic with its two
bivariate variants, a reproducible Monte Carlo engine with cached null
replicates, hypothesis tests for the stability index (including
bivariate Gaussianity tests), confidence intervals by test inversion,
classical multivariate-normality baselines, and a power-study harness.
"""

from .exceptions import (
    CsvFormatError,
    DegenerateCovarianceError,
    DegenerateSampleError,
    EmptyConfidenceSetError,
    GreenstatError,
    ParameterError,
)
from .rng import RngStream
from .sampling import (
    StableSpec,
    SubGaussianSpec,
    sample_bivariate_gaussian,
    sample_chi2_one,
    sample_positive_stable,
    sample_sas,
    sample_sub_gaussian,
)
from .statistics import (
    CovGeometry,
    GreenwoodValue,
    beta_from_correlation,
    beta_from_variance_ratio,
    beta_ratio,
    cov_geometry,
    eigen_pair,
    greenwood,
    s1,
    s2,
)
from .mc import (
    ENGINE_VERSION,
    NullSpec,
    QuantileCache,
    QuantileTable,
    TestConfig,
    simulate_statistic,
)
from .testing import (
    AlphaInterval,
    TestResult,
    ci_alpha,
    test_alpha_left,
    test_alpha_right,
    test_alpha_two_sided,
    test_bivariate_alpha_s1,
    test_bivariate_gaussian_s1,
    test_bivariate_gaussian_s2,
)
from .baselines import (
    BaselineResult,
    henze_zirkler,
    jarque_bera_multivariate,
    mardia_kurtosis,
    mardia_skewness,
)
from .harness import (
    AnalyzeConfig,
    PowerCell,
    PowerStudyConfig,
    Var1Model,
    analyze,
    ingest_csv,
    power_curve_to_csv,
    run_power_study,
    standardize,
    var1_residuals,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaInterval",
    "AnalyzeConfig",
    "BaselineResult",
    "CovGeometry",
    "CsvFormatError",
    "DegenerateCovarianceError",
    "DegenerateSampleError",
    "EmptyConfidenceSetError",
    "ENGINE_VERSION",
    "GreenstatError",
    "GreenwoodValue",
    "NullSpec",
    "ParameterError",
    "PowerCell",
    "PowerStudyConfig",
    "QuantileCache",
    "QuantileTable",
    "RngStream",
    "StableSpec",
    "SubGaussianSpec",
    "TestConfig",
    "TestResult",
    "Var1Model",
    "analyze",
    "beta_from_correlation",
    "beta_from_variance_ratio",
    "beta_ratio",
    "ci_alpha",
    "cov_geometry",
    "eigen_pair",
    "greenwood",
    "henze_zirkler",
    "ingest_csv",
    "jarque_bera_multivariate",
    "mardia_kurtosis",
    "mardia_skewness",
    "power_curve_to_csv",
    "run_power_study",
    "s1",
    "s2",
    "sample_bivariate_gaussian",
    "sample_chi2_one",
    "sample_positive_stable",
    "sample_sas",
    "sample_sub_gaussian",
    "simulate_statistic",
    "standardize",
    "test_alpha_left",
    "test_alpha_right",
    "test_alpha_two_sided",
    "test_bivariate_alpha_s1",
    "test_bivariate_gaussian_s1",
    "test_bivariate_gaussian_s2",
    "var1_residuals",
]
