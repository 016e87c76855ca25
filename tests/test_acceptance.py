"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
Every tolerance is pinned here; seeds are fixed so the whole suite is
deterministic.  Expected total runtime is a few minutes, dominated by the
confidence-interval coverage study.
"""

import json

import numpy as np
import pytest
from scipy import stats as sps

import greenstat as gs
from greenstat import (
    NullSpec,
    PowerStudyConfig,
    QuantileCache,
    RngStream,
    StableSpec,
    beta_from_correlation,
    beta_from_variance_ratio,
    eigen_pair,
    greenwood,
    run_power_study,
    s1,
    s2,
    sample_bivariate_gaussian,
    sample_sas,
    simulate_statistic,
)

SEED = 1806
EXACT = 1e-12


@pytest.fixture(scope="module")
def cache():
    return QuantileCache()


@pytest.fixture(scope="module")
def cfg(cache):
    return gs.TestConfig(reps=10_000, seed=SEED, cache=cache)


def _report(num: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_1_exact_arithmetic():
    checks = [
        (greenwood([1.0, 2.0]).value, 5.0 / 9.0),
        (greenwood([1.0, -1.0]).value, 0.5),
        (greenwood([3.0, 0.0, 0.0]).value, 1.0),
        (s1([(1.0, 2.0), (-1.0, 0.0)]).value, 0.625),
        (s2([(1.0, 2.0), (-1.0, 0.0)]).value, 26.0 / 36.0),
        (beta_from_variance_ratio(1.0, 0.0), 1.0),
        (beta_from_variance_ratio(0.0, 1.0), 0.0),
        (beta_from_variance_ratio(0.5, 1.0), 0.0),
        (beta_from_variance_ratio(1.0, 1.0), 0.0),
        (beta_from_variance_ratio(1.0, 0.25), 1.0 / 3.0),
        (beta_from_correlation(0.5), 1.0 / 3.0),
        (eigen_pair([[2.0, 0.0], [0.0, 1.0]])[0], 2.0),
        (eigen_pair([[2.0, 0.0], [0.0, 1.0]])[1], 1.0),
    ]
    worst = max(abs(got - want) for got, want in checks)
    _report(1, worst <= EXACT, f"hand-arithmetic and geometry identities, worst error {worst:.2e}")


def test_criterion_2_scale_invariance(cfg):
    scales = (1e-6, 1.0, 1e6)
    worst = 0.0
    decisions_equal = True
    for i in range(1000):
        alpha = (1.2, 1.7, 2.0)[i % 3]
        x = sample_sas(StableSpec(alpha), 50, RngStream(9300, i))
        base_stat = greenwood(x).value
        base_test = gs.test_alpha_right(x, 2.0, 0.05, cfg)
        for c in scales:
            scaled_stat = greenwood(c * x).value
            worst = max(worst, abs(scaled_stat - base_stat) / base_stat)
            res = gs.test_alpha_right(c * x, 2.0, 0.05, cfg)
            decisions_equal &= (res.reject == base_test.reject) and (res.p_value == base_test.p_value)
    gen = RngStream(9301).generator()
    for i in range(200):
        xy = gen.standard_normal((50, 2))
        for stat in (s1, s2):
            base = stat(xy).value
            for c in scales:
                worst = max(worst, abs(stat(c * xy).value - base) / base)
        base_biv = gs.test_bivariate_gaussian_s1(xy, 0.05, cfg)
        for c in scales:
            res = gs.test_bivariate_gaussian_s1(c * xy, 0.05, cfg)
            decisions_equal &= (res.reject == base_biv.reject) and (res.p_value == base_biv.p_value)
    _report(
        2,
        worst <= EXACT and decisions_equal,
        f"statistics scale-invariant (worst rel err {worst:.2e}), decisions and p-values unchanged",
    )


def test_criterion_3_table3_critical_values(cache):
    cases = [
        ("s1", NullSpec.subgauss(2.0, 0.0), 335, 0.0049),
        ("s1", NullSpec.subgauss(2.0, 0.0), 423, 0.0039),
        ("greenwood", NullSpec.chi2_one(), 335, 0.0103),
        ("greenwood", NullSpec.chi2_one(), 423, 0.0081),
    ]
    lines = []
    ok = True
    for stat, null, n, target in cases:
        q = cache.get_or_compute(stat, null, n, (0.95,), 10_000, SEED).values[0]
        good = abs(q - target) <= 0.05 * target
        ok &= good
        lines.append(f"{stat}@n={n}: {q:.6f} vs {target}")
    _report(3, ok, "95% critical values within 5%: " + "; ".join(lines))


def test_criterion_4_test_sizes(cfg):
    R = 1000
    window = 0.014

    def frequency(stream, sampler, runner):
        hits = 0
        for i in range(R):
            hits += runner(sampler(RngStream(stream, i))).reject
        return hits / R

    sizes = {
        "uni a*=2.0": frequency(
            9001,
            lambda r: sample_sas(StableSpec(2.0), 100, r),
            lambda x: gs.test_alpha_right(x, 2.0, 0.05, cfg),
        ),
        "uni a*=1.5": frequency(
            9002,
            lambda r: sample_sas(StableSpec(1.5), 100, r),
            lambda x: gs.test_alpha_right(x, 1.5, 0.05, cfg),
        ),
        "S1": frequency(
            9003,
            lambda r: sample_bivariate_gaussian([[1.0, 0.3], [0.3, 1.0]], 100, r),
            lambda xy: gs.test_bivariate_gaussian_s1(xy, 0.05, cfg),
        ),
        "S2 beta=0": frequency(
            9004,
            lambda r: sample_bivariate_gaussian([[1.0, 1.0], [1.0, 1.0]], 100, r),
            lambda xy: gs.test_bivariate_gaussian_s2(xy, 0.05, cfg),
        ),
    }
    ok = all(abs(v - 0.05) <= window for v in sizes.values())
    conservative = frequency(
        9005,
        lambda r: sample_bivariate_gaussian(np.eye(2), 100, r),
        lambda xy: gs.test_bivariate_gaussian_s2(xy, 0.05, cfg),
    )
    ok &= conservative <= 0.05 + window
    summary = ", ".join(f"{k}={v:.3f}" for k, v in sizes.items())
    _report(4, ok, f"sizes at 0.05 +/- 0.014: {summary}; S2 at beta=1 conservative ({conservative:.3f})")


def _ecdf_at(values, xs):
    values = np.sort(values)
    return np.searchsorted(values, xs, side="right") / values.size


def test_criterion_5_stochastic_ordering():
    B = 5000
    deciles = np.arange(1, 10) / 10
    ok = True
    for stat in ("s1", "s2"):
        sims = {
            a: simulate_statistic(stat, NullSpec.subgauss(a, 0.0), 100, B, SEED) for a in (1.2, 1.6, 2.0)
        }
        xs = np.quantile(sims[1.6], deciles)
        slack = 2.0 * np.sqrt(deciles * (1 - deciles) / B)
        f12, f16, f20 = (_ecdf_at(sims[a], xs) for a in (1.2, 1.6, 2.0))
        ok &= bool(np.all(f20 >= f16 - slack) and np.all(f16 >= f12 - slack))
    # S2 survival ordering in the eigenvalue ratio at alpha = 2
    sims_beta = {
        beta: simulate_statistic("s2", NullSpec.subgauss(2.0, rho), 100, B, SEED)
        for beta, rho in ((0.0, 1.0), (0.5, 1.0 / 3.0), (1.0, 0.0))
    }
    xs = np.quantile(sims_beta[0.5], deciles)
    slack = 2.0 * np.sqrt(0.25 / B)
    surv = {b: 1.0 - _ecdf_at(v, xs) for b, v in sims_beta.items()}
    ok &= bool(np.all(surv[0.0] >= surv[0.5] - slack) and np.all(surv[0.5] >= surv[1.0] - slack))
    _report(5, ok, "S1/S2 stochastically decrease in alpha; S2 survival ordered in beta (9 deciles, 2 SE slack)")


def test_criterion_6_ordering_in_beta_for_s2_power(cache):
    alphas = tuple(round(1.80 + 0.02 * k, 2) for k in range(6))  # 1.80 .. 1.90
    cells = run_power_study(
        PowerStudyConfig(
            statistics=("s2",),
            alphas=alphas,
            sizes=(30,),
            betas=(0.0, 0.081),
            null_reps=10_000,
            alt_reps=500,
            seed=SEED,
        ),
        cache=cache,
    )
    p0 = {c.alpha: c.power for c in cells if c.beta == 0.0}
    p81 = {c.alpha: c.power for c in cells if c.beta == 0.081}
    ok = all(p0[a] >= p81[a] for a in alphas)
    _report(6, ok, "S2 power at beta=0 >= beta=0.081 for every alpha <= 1.9 (n=30, 500 reps)")


def test_criterion_7_s1_vs_baselines_small_n(cache):
    alphas = tuple(round(1.86 + 0.02 * k, 2) for k in range(7))  # 1.86 .. 1.98
    cells = run_power_study(
        PowerStudyConfig(
            statistics=("s1", "kurt", "skew", "jb", "hz"),
            alphas=alphas,
            sizes=(10,),
            betas=(1.0,),
            null_reps=10_000,
            alt_reps=500,
            seed=SEED,
        ),
        cache=cache,
    )
    table = {}
    for cell in cells:
        table.setdefault(cell.alpha, {})[cell.statistic] = (cell.power, cell.se)
    ok = True
    for alpha in alphas:
        p_s1, se_s1 = table[alpha]["s1"]
        for name in ("kurt", "skew", "jb", "hz"):
            p, se = table[alpha][name]
            ok &= p_s1 >= p - 2.0 * np.sqrt(se_s1**2 + se**2)
    _report(7, ok, "S1 power >= each MC-calibrated baseline within 2 SE (n=10, alpha 1.86..1.98)")


def test_criterion_8_rho_insensitivity(cache):
    a = simulate_statistic("s1", NullSpec.subgauss(2.0, 0.0), 100, 5000, SEED)
    b = simulate_statistic("s1", NullSpec.subgauss(2.0, 0.9), 100, 5000, SEED + 1)
    p = sps.ks_2samp(a, b).pvalue
    ok = p > 0.01
    alphas = tuple(round(1.80 + 0.04 * k, 2) for k in range(6))
    cells = run_power_study(
        PowerStudyConfig(
            statistics=("s1",),
            alphas=alphas,
            sizes=(30,),
            betas=(1.0, 1.0 / 9.0),  # correlations 0 and 0.8
            null_reps=10_000,
            alt_reps=500,
            seed=SEED,
        ),
        cache=cache,
    )
    rho0 = {c.alpha: (c.power, c.se) for c in cells if c.beta == 1.0}
    rho8 = {c.alpha: (c.power, c.se) for c in cells if c.beta != 1.0}
    for alpha in alphas:
        (pa, sa), (pb, sb) = rho0[alpha], rho8[alpha]
        ok &= abs(pa - pb) <= 3.0 * np.sqrt(sa**2 + sb**2) + 1e-12
    _report(8, ok, f"S1 null law independent of correlation (KS p={p:.3f}); power curves agree within 3 SE")


def test_criterion_9_ci_coverage_and_duality(cfg):
    R = 500
    covered = 0
    duality = True
    for i in range(R):
        x = sample_sas(StableSpec(1.8), 300, RngStream(9200, i))
        interval = gs.ci_alpha(x, 0.95, 0.01, cfg)
        covered += interval.lower <= 1.8 <= interval.upper
        for alpha_star, rejected in interval.probes:
            inside = interval.lower <= alpha_star <= interval.upper
            duality &= inside == (not rejected)
            if i < 25:  # spot-check the exact test agreement on early replicates
                duality &= gs.test_alpha_two_sided(x, alpha_star, 0.05, cfg).reject == rejected
    coverage = covered / R
    _report(9, coverage >= 0.93 and duality, f"95% CI coverage {coverage:.3f} (>= 0.93); test/CI duality exact")


def test_criterion_10_reproducibility_across_workers(tmp_path):
    # quantile-table JSON document
    payloads = []
    for workers in (1, 2):
        cache_dir = tmp_path / f"cache_w{workers}"
        cache = QuantileCache(cache_dir)
        cache.get_or_compute("s1", NullSpec.subgauss(2.0, 0.0), 60, (0.9, 0.95), 2000, SEED, workers=workers)
        (path,) = cache_dir.glob("*.f8")
        payloads.append(path.read_bytes())
    tables_identical = payloads[0] == payloads[1]

    # power-study CSV
    csv_bytes = []
    pcfg = PowerStudyConfig(
        statistics=("s1", "s2"),
        alphas=(1.9, 2.0),
        sizes=(20,),
        betas=(0.0, 1.0),
        null_reps=500,
        alt_reps=200,
        seed=SEED,
    )
    for workers in (1, 2):
        out = tmp_path / f"power_w{workers}.csv"
        gs.power_curve_to_csv(run_power_study(pcfg, cache=QuantileCache(), workers=workers), out)
        csv_bytes.append(out.read_bytes())
    csvs_identical = csv_bytes[0] == csv_bytes[1]

    # JSON report of the analysis pipeline
    series = sample_sas(StableSpec(1.8), 120, RngStream(9400))
    data_path = tmp_path / "series.csv"
    data_path.write_text("\n".join(repr(float(v)) for v in series))
    reports = []
    for workers in (1, 2):
        acfg = gs.AnalyzeConfig(
            tests=(),
            with_ci=True,
            grid_step=0.25,
            mc=gs.TestConfig(reps=2000, seed=SEED, workers=workers, cache=QuantileCache()),
        )
        reports.append(json.dumps(gs.analyze(data_path, acfg), sort_keys=True))
    reports_identical = reports[0] == reports[1]

    _report(
        10,
        tables_identical and csvs_identical and reports_identical,
        "table JSON, power CSV and analyze report byte-identical for 1 vs 2 workers",
    )
