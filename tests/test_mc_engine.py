"""Determinism, quantile estimation, p-values and the table cache."""

import json

import numpy as np
import pytest

from greenstat import (
    DegenerateSampleError,
    NullSpec,
    ParameterError,
    QuantileCache,
    estimate_quantiles,
    mc_pvalue,
    simulate_statistic,
)
from greenstat.mc import table_key_digest


class TestNullSpec:
    def test_constructors(self):
        assert NullSpec.sas(1.5).ndim == 1
        assert NullSpec.subgauss(2.0, 0.5).ndim == 2
        assert NullSpec.chi2_one().ndim == 1

    @pytest.mark.parametrize(
        "args",
        [
            ("sas", None, None),
            ("sas", 2.5, None),
            ("sas", 1.5, 0.0),
            ("subgauss", 1.5, None),
            ("subgauss", 1.5, 1.5),
            ("chi2-1", 1.5, None),
            ("weibull", 1.5, None),
        ],
    )
    def test_validation(self, args):
        with pytest.raises(ParameterError):
            NullSpec(*args)

    def test_dict_round_trip(self):
        null = NullSpec.subgauss(1.7, 0.3)
        assert NullSpec.from_dict(null.to_dict()) == null


class TestSimulation:
    def test_worker_count_does_not_change_results(self):
        base = simulate_statistic("s1", NullSpec.subgauss(2.0, 0.0), 40, 400, seed=5, workers=1)
        par = simulate_statistic("s1", NullSpec.subgauss(2.0, 0.0), 40, 400, seed=5, workers=3)
        assert np.array_equal(base, par)

    def test_same_null_key_shares_draws_across_statistics(self):
        # the draw depends on (null, n, seed, replicate) only, so two
        # statistics simulated under one null see identical samples;
        # check via a functional relation: at rho=1 the S2 value equals
        # the S1 value's law evaluated on the same underlying draws
        null = NullSpec.subgauss(2.0, 1.0)
        v1 = simulate_statistic("s1", null, 30, 200, seed=9)
        v2 = simulate_statistic("s2", null, 30, 200, seed=9)
        # at rho=1, W = 2*X1 and Y = 2*X1**2, so S2 = greenwood(W**2)
        from greenstat import greenwood
        from greenstat.rng import RngStream

        for i in (0, 57, 123):
            xy = null.draw(30, RngStream(9, i).generator())
            assert v1[i] == greenwood(xy.sum(axis=1)).value
            assert v2[i] == greenwood((xy**2).sum(axis=1)).value

    def test_degenerate_null_raises_with_count(self):
        with pytest.raises(DegenerateSampleError, match="of 150"):
            simulate_statistic("s1", NullSpec.subgauss(2.0, -1.0), 20, 150, seed=1)

    def test_incompatible_statistic_and_null(self):
        with pytest.raises(ParameterError):
            simulate_statistic("s1", NullSpec.sas(1.5), 20, 100, seed=0)
        with pytest.raises(ParameterError):
            simulate_statistic("greenwood", NullSpec.subgauss(2.0, 0.0), 20, 100, seed=0)
        with pytest.raises(ParameterError):
            simulate_statistic("nope", NullSpec.sas(1.5), 20, 100, seed=0)


class TestQuantiles:
    def test_matches_numpy_quantile_oracle(self):
        levels = (0.9, 0.95, 0.99)
        table = estimate_quantiles("greenwood", NullSpec.sas(2.0), 50, levels, B=500, seed=3)
        values = simulate_statistic("greenwood", NullSpec.sas(2.0), 50, 500, seed=3)
        assert table.values == tuple(np.quantile(values, levels))

    def test_monotone_in_level(self):
        levels = (0.5, 0.05, 0.99, 0.9, 0.1)
        table = estimate_quantiles("greenwood", NullSpec.chi2_one(), 30, levels, B=400, seed=4)
        paired = sorted(zip(table.levels, table.values))
        vals = [v for _, v in paired]
        assert vals == sorted(vals)

    def test_lower_bound_at_n_2(self):
        table = estimate_quantiles("s1", NullSpec.subgauss(2.0, 0.0), 2, (0.001, 0.5), B=2000, seed=5)
        assert all(v >= 0.5 for v in table.values)

    def test_determinism_to_the_bit(self):
        a = estimate_quantiles("s2", NullSpec.subgauss(1.8, 0.2), 25, (0.95,), B=300, seed=6)
        b = estimate_quantiles("s2", NullSpec.subgauss(1.8, 0.2), 25, (0.95,), B=300, seed=6)
        assert a == b

    def test_validation(self):
        with pytest.raises(ParameterError):
            estimate_quantiles("s1", NullSpec.subgauss(2.0, 0.0), 20, (0.95,), B=50, seed=0)
        with pytest.raises(ParameterError):
            estimate_quantiles("s1", NullSpec.subgauss(2.0, 0.0), 1, (0.95,), B=200, seed=0)
        with pytest.raises(ParameterError):
            estimate_quantiles("s1", NullSpec.subgauss(2.0, 0.0), 20, (1.5,), B=200, seed=0)
        with pytest.raises(ParameterError):
            estimate_quantiles("s1", NullSpec.subgauss(2.0, 0.0), 20, (), B=200, seed=0)

    @pytest.mark.parametrize(
        "entry",
        [
            lambda n, B: estimate_quantiles("greenwood", NullSpec.sas(1.8), n, (0.95,), B=B, seed=0),
            lambda n, B: QuantileCache().get_or_compute("greenwood", NullSpec.sas(1.8), n, (0.95,), B, 0),
            lambda n, B: QuantileCache().pvalue("greenwood", 0.5, NullSpec.sas(1.8), n, "greater", B, 0),
        ],
        ids=["estimate_quantiles", "get_or_compute", "pvalue"],
    )
    def test_every_entry_point_checks_sizes(self, entry):
        with pytest.raises(ParameterError, match="at least 100"):
            entry(20, 99)
        with pytest.raises(ParameterError, match="at least 2"):
            entry(1, 200)

    def test_consistency_between_replicate_counts(self):
        # the 10k-replicate quantiles sit where the 40k-replicate empirical
        # CDF says they should, within 3 combined binomial standard errors
        null = NullSpec.subgauss(2.0, 0.0)
        small = estimate_quantiles("s1", null, 100, (0.5, 0.9, 0.95, 0.99), B=10_000, seed=7)
        big = simulate_statistic("s1", null, 100, 40_000, seed=8)
        big.sort()
        for level, q in zip(small.levels, small.values):
            p_hat = np.searchsorted(big, q, side="right") / big.size
            se = np.sqrt(level * (1.0 - level) * (1.0 / 10_000 + 1.0 / 40_000))
            assert abs(p_hat - level) < 3.0 * se


class TestPvalues:
    def test_maximum_observed(self):
        p = mc_pvalue("greenwood", 1.0, NullSpec.sas(2.0), 30, "greater", B=500, seed=9)
        assert p == 1.0 / 501.0

    def test_minimum_observed(self):
        p = mc_pvalue("greenwood", 1.0 / 30.0, NullSpec.sas(2.0), 30, "less", B=500, seed=9)
        assert p == 1.0 / 501.0

    def test_two_sided_at_median(self):
        values = simulate_statistic("greenwood", NullSpec.sas(2.0), 30, 501, seed=10)
        med = float(np.median(values))
        p = mc_pvalue("greenwood", med, NullSpec.sas(2.0), 30, "two-sided", B=501, seed=10)
        # order-statistics oracle on the stored replicate vector
        le = np.sum(values <= med)
        ge = np.sum(values >= med)
        expected = min(1.0, 2.0 * min((1 + le) / 502.0, (1 + ge) / 502.0))
        assert p == expected
        assert p > 0.95

    def test_replicates_shortcut_matches(self):
        values = simulate_statistic("greenwood", NullSpec.sas(1.5), 30, 300, seed=11)
        direct = mc_pvalue("greenwood", 0.2, NullSpec.sas(1.5), 30, "greater", B=300, seed=11)
        shortcut = mc_pvalue("greenwood", 0.2, NullSpec.sas(1.5), 30, "greater", B=300, seed=11, replicates=values)
        assert direct == shortcut

    def test_alternative_validation(self):
        with pytest.raises(ParameterError):
            mc_pvalue("greenwood", 0.2, NullSpec.sas(1.5), 30, "sideways", B=200, seed=0)


class TestCache:
    def test_miss_creates_file_then_hit_serves_it(self, tmp_path):
        cache = QuantileCache(tmp_path)
        null = NullSpec.subgauss(2.0, 0.0)
        table = cache.get_or_compute("s1", null, 40, (0.95,), 200, 13)
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 1
        fresh = QuantileCache(tmp_path)
        again = fresh.get_or_compute("s1", null, 40, (0.95,), 200, 13)
        assert again == table

    def test_different_seed_is_a_miss(self, tmp_path):
        cache = QuantileCache(tmp_path)
        null = NullSpec.chi2_one()
        cache.get_or_compute("greenwood", null, 40, (0.95,), 200, 13)
        cache.get_or_compute("greenwood", null, 40, (0.95,), 200, 14)
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_unreadable_file_recomputes_with_warning(self, tmp_path):
        cache = QuantileCache(tmp_path)
        null = NullSpec.sas(2.0)
        table = cache.get_or_compute("greenwood", null, 30, (0.9,), 150, 15)
        path = list(tmp_path.glob("*.json"))[0]
        path.write_text("{ not json")
        fresh = QuantileCache(tmp_path)
        with pytest.warns(UserWarning, match="unreadable"):
            again = fresh.get_or_compute("greenwood", null, 30, (0.9,), 150, 15)
        assert again == table

    def test_key_mismatch_is_never_served(self, tmp_path):
        cache = QuantileCache(tmp_path)
        null = NullSpec.sas(2.0)
        table = cache.get_or_compute("greenwood", null, 30, (0.9,), 150, 16)
        path = list(tmp_path.glob("*.json"))[0]
        payload = json.loads(path.read_text())
        payload["n"] = 31  # partial-key corruption at the right digest
        path.write_text(json.dumps(payload))
        fresh = QuantileCache(tmp_path)
        with pytest.warns(UserWarning, match="does not match"):
            again = fresh.get_or_compute("greenwood", null, 30, (0.9,), 150, 16)
        assert again == table

    def test_memory_only_cache(self):
        cache = QuantileCache()
        null = NullSpec.sas(1.5)
        a = cache.get_or_compute("greenwood", null, 20, (0.95,), 150, 17)
        b = cache.get_or_compute("greenwood", null, 20, (0.95,), 150, 17)
        assert a is b

    def test_digest_covers_levels(self):
        null = NullSpec.sas(1.5)
        d1 = table_key_digest("greenwood", null, 20, 100, 0, (0.95,))
        d2 = table_key_digest("greenwood", null, 20, 100, 0, (0.9,))
        assert d1 != d2
