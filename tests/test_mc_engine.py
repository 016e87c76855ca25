"""Determinism, quantile estimation, p-values and the replicate cache."""

import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenstat import (
    DegenerateSampleError,
    NullSpec,
    ParameterError,
    QuantileCache,
    QuantileTable,
    simulate_statistic,
)
from greenstat import RngStream, mc


def count_simulations(monkeypatch) -> list:
    """Record the (statistic, null) of every simulation the engine runs."""
    calls = []
    original = mc.simulate_statistic

    def counted(stat_kind, null, *args, **kwargs):
        calls.append((stat_kind, null))
        return original(stat_kind, null, *args, **kwargs)

    monkeypatch.setattr(mc, "simulate_statistic", counted)
    return calls


def read_cache_file(path) -> tuple[dict, np.ndarray]:
    """The key fields and the replicate values of one cache file."""
    header, _, body = path.read_bytes().partition(b"\n")
    return json.loads(header), np.frombuffer(body, "<f8")


def write_cache_file(path, header: dict, values) -> None:
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + np.asarray(values, "<f8").tobytes())


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

    def test_integer_and_float_spellings_are_one_key(self, tmp_path, monkeypatch):
        calls = count_simulations(monkeypatch)
        cache = QuantileCache(tmp_path)
        for null in (NullSpec("sas", 2), NullSpec.sas(2.0), NullSpec("subgauss", 2, 0), NullSpec.subgauss(2.0, 0.0)):
            cache.replicates("s1" if null.ndim == 2 else "greenwood", null, 10, 150, 0)
        assert len(calls) == 2 and len(list(tmp_path.glob("*.f8"))) == 2
        assert NullSpec("subgauss", 2, 0).to_dict() == {"kind": "subgauss", "alpha_star": 2.0, "rho": 0.0}


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
        n = 100
        K = mc._block_rows(n, 2)  # 163 rows, so replicates 200 and 321 sit in block 1
        v1 = simulate_statistic("s1", null, n, 400, seed=9)
        v2 = simulate_statistic("s2", null, n, 400, seed=9)
        # at rho=1, W = 2*X1 and Y = 2*X1**2, so S2 = greenwood(W**2)
        from greenstat import greenwood

        for i in (0, 57, 200, 321):
            k, row = divmod(i, K)
            xy = null.law().sample_rows(RngStream(9, (2, 0, k)).generator(), K, n)[row]
            assert v1[i] == greenwood(xy.sum(axis=1)).value
            assert v2[i] == greenwood((xy**2).sum(axis=1)).value

    def test_degenerate_null_raises_with_count(self):
        with pytest.raises(DegenerateSampleError, match="of 150"):
            simulate_statistic("s1", NullSpec.subgauss(2.0, -1.0), 20, 150, seed=1)

    def test_numerically_collinear_baseline_rows_are_degenerate_without_warnings(self):
        # At alpha = 0.05 one huge multiplier dominates many samples, which are then
        # collinear to working precision; no moment sum may overflow on the way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateSampleError, match="of 200"):
                simulate_statistic("kurt", NullSpec.subgauss(0.05, 0.0), 50, 200, 0)

    @pytest.mark.parametrize("alpha", [0.01, 0.03])
    @pytest.mark.parametrize("stat", ["s1", "s2", "kurt", "hz"])
    def test_overflowed_null_draws_are_degenerate_not_bad_input(self, stat, alpha):
        # At these alpha_star some multipliers exceed float64, so some draws are inf.
        null = NullSpec.subgauss(alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                values = simulate_statistic(stat, null, 50, 1000, 0)
            except DegenerateSampleError as exc:
                assert str(null) in str(exc) and "overflowed float64" in str(exc)
            else:
                assert values.shape == (1000,) and not np.isnan(values).any()

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
        table = QuantileCache().get_or_compute("greenwood", NullSpec.sas(2.0), 50, levels, 500, 3)
        values = simulate_statistic("greenwood", NullSpec.sas(2.0), 50, 500, seed=3)
        assert table.values == tuple(np.quantile(values, levels))

    def test_monotone_in_level(self):
        levels = (0.5, 0.05, 0.99, 0.9, 0.1)
        table = QuantileCache().get_or_compute("greenwood", NullSpec.chi2_one(), 30, levels, 400, 4)
        paired = sorted(zip(table.levels, table.values))
        vals = [v for _, v in paired]
        assert vals == sorted(vals)

    def test_lower_bound_at_n_2(self):
        table = QuantileCache().get_or_compute("s1", NullSpec.subgauss(2.0, 0.0), 2, (0.001, 0.5), 2000, 5)
        assert all(v >= 0.5 for v in table.values)

    def test_determinism_to_the_bit(self):
        a = QuantileCache().get_or_compute("s2", NullSpec.subgauss(1.8, 0.2), 25, (0.95,), 300, 6)
        b = QuantileCache().get_or_compute("s2", NullSpec.subgauss(1.8, 0.2), 25, (0.95,), 300, 6)
        assert a == b

    def test_validation(self):
        with pytest.raises(ParameterError):
            QuantileCache().get_or_compute("s1", NullSpec.subgauss(2.0, 0.0), 20, (0.95,), 50, 0)
        with pytest.raises(ParameterError):
            QuantileCache().get_or_compute("s1", NullSpec.subgauss(2.0, 0.0), 1, (0.95,), 200, 0)
        with pytest.raises(ParameterError):
            QuantileCache().get_or_compute("s1", NullSpec.subgauss(2.0, 0.0), 20, (1.5,), 200, 0)
        with pytest.raises(ParameterError):
            QuantileCache().get_or_compute("s1", NullSpec.subgauss(2.0, 0.0), 20, (), 200, 0)

    @pytest.mark.parametrize(
        "entry",
        [
            lambda n, B: QuantileCache().get_or_compute("greenwood", NullSpec.sas(1.8), n, (0.95,), B, 0),
            lambda n, B: QuantileCache().pvalue("greenwood", 0.5, NullSpec.sas(1.8), n, "greater", B, 0),
        ],
        ids=["get_or_compute", "pvalue"],
    )
    def test_every_entry_point_checks_sizes(self, entry):
        with pytest.raises(ParameterError, match="at least 100"):
            entry(20, 99)
        with pytest.raises(ParameterError, match="at least 2"):
            entry(1, 200)

    @pytest.mark.parametrize(
        "entry",
        [
            lambda stat, null: simulate_statistic(stat, null, 20, 200, 0),
            lambda stat, null: QuantileCache().replicates(stat, null, 20, 200, 0),
            lambda stat, null: QuantileCache().get_or_compute(stat, null, 20, (0.95,), 200, 0),
            lambda stat, null: QuantileCache().pvalue(stat, 0.5, null, 20, "greater", 200, 0),
        ],
        ids=["simulate_statistic", "replicates", "get_or_compute", "pvalue"],
    )
    def test_every_entry_point_rejects_an_incompatible_null_before_the_cache(self, entry, monkeypatch):
        def load(*args):
            raise AssertionError("the cache was read before the statistic and null were checked")

        monkeypatch.setattr(QuantileCache, "_load", load)
        message = "^statistic 's1' expects 2-dimensional data but null kind 'sas' produces 1-dimensional draws$"
        with pytest.raises(ParameterError, match=message):
            entry("s1", NullSpec.sas(1.5))

    @pytest.mark.parametrize("n,B", [(30.5, 200), (30, 200.5), (30.0, 200), (30, 200.0), ("30", 200), (30, "200")])
    def test_non_integer_sizes_and_counts_are_rejected(self, n, B):
        null, problem = NullSpec.sas(1.8), "must be a positive integer"
        with pytest.raises(ParameterError, match=problem):
            simulate_statistic("greenwood", null, n, B, 0)
        with pytest.raises(ParameterError, match=problem):
            QuantileCache().get_or_compute("greenwood", null, n, (0.5,), B, 0)
        # a cache holding the integer key must not serve it under the other spelling
        cache = QuantileCache()
        cache.get_or_compute("greenwood", null, 30, (0.5,), 200, 0)
        with pytest.raises(ParameterError, match=problem):
            cache.replicates("greenwood", null, n, B, 0)
        with pytest.raises(ParameterError, match=problem):
            cache.get_or_compute("greenwood", null, n, (0.5,), B, 0)

    def test_consistency_between_replicate_counts(self):
        # the 10k-replicate quantiles sit where the 40k-replicate empirical
        # CDF says they should, within 3 combined binomial standard errors
        null = NullSpec.subgauss(2.0, 0.0)
        small = QuantileCache().get_or_compute("s1", null, 100, (0.5, 0.9, 0.95, 0.99), 10_000, 7)
        big = simulate_statistic("s1", null, 100, 40_000, seed=8)
        big.sort()
        for level, q in zip(small.levels, small.values):
            p_hat = np.searchsorted(big, q, side="right") / big.size
            se = np.sqrt(level * (1.0 - level) * (1.0 / 10_000 + 1.0 / 40_000))
            assert abs(p_hat - level) < 3.0 * se


# Levels on both branches of numpy's linear rule (fraction below and at or above
# 1/2) and on exact indexes at B = 101 and B = 10 001.
GUARD_LEVELS = (1e-4, 0.025, 0.05, 0.5, 0.95, 0.975, 0.9999)
# SHA-256 of the float64 bytes of get_or_compute(stat, null, n, GUARD_LEVELS, B, 0).values,
# taken when the table was numpy.quantile of the sorted replicates.  The greenwood ones
# were retaken at engine version 3 (the sign-and-log CMS transform); the kurt ones draw no
# CMS variate under their Gaussian null, so they hold since the baselines' closed-form whitening.
GOLDEN_QUANTILES = [
    ("greenwood", NullSpec.sas(1.8), 50, 100, "5cb5081f8a905846e8090197014cb087b8db763578d7480f0ee5d39229243d47"),
    ("greenwood", NullSpec.sas(1.8), 50, 101, "1fa37be6fdb04125bdf23c2cc9035d569e900c2210db2c399d2335845a71b4e0"),
    ("greenwood", NullSpec.sas(1.8), 50, 10_000, "134173745a7885029ea6dad086e0df2e238712b30ee15bc1d6c9796bd67e6243"),
    ("greenwood", NullSpec.sas(1.8), 50, 10_001, "ff3e06ae25a96787bace644796f1ce751bdfc55fb6bd74ebc6719e0d0b9e4558"),
    ("kurt", NullSpec.subgauss(2.0, 0.9), 20, 100, "c72ec05167b7623f5dc91e8193295de87b3e7b04ae8154db9266c0448f644e5e"),
    ("kurt", NullSpec.subgauss(2.0, 0.9), 20, 101, "ab66d8678baef646163e30d5669e6c32e24001994e8583cd847c49603585af9b"),
    ("kurt", NullSpec.subgauss(2.0, 0.9), 20, 10_000, "88dd76ada1e3eceff701e5898a12d48097e3e01d6a598e35498fe17e1ce08f64"),
    ("kurt", NullSpec.subgauss(2.0, 0.9), 20, 10_001, "f30c580105beea9c7dfbf3be91c84a0d4c6feda099a4f4bdb411fd3e4160acf9"),
]


@pytest.mark.parametrize("stat_kind,null,n,B,digest", GOLDEN_QUANTILES, ids=[f"{k}-B{B}" for k, _, _, B, _ in GOLDEN_QUANTILES])
def test_golden_quantile_tables(stat_kind, null, n, B, digest):
    values = QuantileCache().get_or_compute(stat_kind, null, n, GUARD_LEVELS, B, 0).values
    assert hashlib.sha256(np.array(values, "<f8").tobytes()).hexdigest() == digest


@settings(max_examples=200, deadline=None)
@given(
    size=st.integers(1, 20_000),
    pool=st.lists(st.floats(allow_nan=False) | st.sampled_from([np.inf, -np.inf, 0.0, -0.0]), min_size=1, max_size=8),
    share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    levels=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=6),
)
def test_quantiles_from_replicates_equal_numpy_quantile(size, pool, share, seed, levels):
    """Sorted vectors whose entries are ties drawn from ``pool`` (±inf among them) in
    share ``share`` and standard normal draws otherwise."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(size)
    tied = rng.random(size) < share
    x[tied] = rng.choice(np.array(pool), int(tied.sum()))
    x.sort()
    levels = (*levels, *GUARD_LEVELS)
    got = np.array(mc.quantiles_from_replicates(x, levels))
    with np.errstate(invalid="ignore"):
        want = np.quantile(x, levels)
    # numpy's partition may swap tied +0.0 and -0.0; every other value agrees bit for bit
    assert np.all((got.view(np.uint64) == want.view(np.uint64)) | ((got == 0) & (want == 0)))


class TestPvalues:
    def test_maximum_observed(self):
        p = QuantileCache().pvalue("greenwood", 1.0, NullSpec.sas(2.0), 30, "greater", 500, 9)
        assert p == 1.0 / 501.0

    def test_minimum_observed(self):
        p = QuantileCache().pvalue("greenwood", 1.0 / 30.0, NullSpec.sas(2.0), 30, "less", 500, 9)
        assert p == 1.0 / 501.0

    def test_two_sided_at_median(self):
        values = simulate_statistic("greenwood", NullSpec.sas(2.0), 30, 501, seed=10)
        med = float(np.median(values))
        p = QuantileCache().pvalue("greenwood", med, NullSpec.sas(2.0), 30, "two-sided", 501, 10)
        # order-statistics oracle on the stored replicate vector
        le = np.sum(values <= med)
        ge = np.sum(values >= med)
        expected = min(1.0, 2.0 * min((1 + le) / 502.0, (1 + ge) / 502.0))
        assert p == expected
        assert p > 0.95

    def test_alternative_validation(self):
        with pytest.raises(ParameterError):
            QuantileCache().pvalue("greenwood", 0.2, NullSpec.sas(1.5), 30, "sideways", 200, 0)

    @pytest.mark.parametrize("alternative", ["less", "greater", "two-sided"])
    def test_nan_observed_is_rejected(self, alternative):
        with pytest.raises(ParameterError, match="observed value is NaN"):
            QuantileCache().pvalue("greenwood", float("nan"), NullSpec.sas(2.0), 30, alternative, 500, 9)


class TestCache:
    def test_miss_creates_file_then_hit_serves_it(self, tmp_path):
        cache = QuantileCache(tmp_path)
        null = NullSpec.subgauss(2.0, 0.0)
        table = cache.get_or_compute("s1", null, 40, (0.95,), 200, 13)
        files = list(tmp_path.glob("*.f8"))
        assert len(files) == 1
        fresh = QuantileCache(tmp_path)
        again = fresh.get_or_compute("s1", null, 40, (0.95,), 200, 13)
        assert again == table

    def test_different_seed_is_a_miss(self, tmp_path):
        cache = QuantileCache(tmp_path)
        null = NullSpec.chi2_one()
        cache.get_or_compute("greenwood", null, 40, (0.95,), 200, 13)
        cache.get_or_compute("greenwood", null, 40, (0.95,), 200, 14)
        assert len(list(tmp_path.glob("*.f8"))) == 2

    def test_unreadable_file_recomputes_with_warning(self, tmp_path):
        cache = QuantileCache(tmp_path)
        null = NullSpec.sas(2.0)
        table = cache.get_or_compute("greenwood", null, 30, (0.9,), 150, 15)
        path = list(tmp_path.glob("*.f8"))[0]
        path.write_bytes(b"{ not json\n" + path.read_bytes().partition(b"\n")[2])
        fresh = QuantileCache(tmp_path)
        with pytest.warns(UserWarning, match="unreadable"):
            again = fresh.get_or_compute("greenwood", null, 30, (0.9,), 150, 15)
        assert again == table

    def test_key_mismatch_is_never_served(self, tmp_path):
        cache = QuantileCache(tmp_path)
        null = NullSpec.sas(2.0)
        table = cache.get_or_compute("greenwood", null, 30, (0.9,), 150, 16)
        path = list(tmp_path.glob("*.f8"))[0]
        header, body = read_cache_file(path)
        header["n"] = 31  # partial-key corruption at the right digest
        write_cache_file(path, header, body)
        fresh = QuantileCache(tmp_path)
        with pytest.warns(UserWarning, match="does not match"):
            again = fresh.get_or_compute("greenwood", null, 30, (0.9,), 150, 16)
        assert again == table

    def test_memory_only_cache(self, monkeypatch):
        calls = count_simulations(monkeypatch)
        cache = QuantileCache()
        null = NullSpec.sas(1.5)
        a = cache.get_or_compute("greenwood", null, 20, (0.95,), 150, 17)
        b = cache.get_or_compute("greenwood", null, 20, (0.95,), 150, 17)
        assert a == b
        assert calls == [("greenwood", null)]

    def test_cache_dir_expands_home(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        cache = QuantileCache("~/greenstat-cache")
        assert cache.cache_dir == tmp_path / "greenstat-cache"
        cache.replicates("greenwood", NullSpec.sas(1.5), 20, 100, 0)
        assert len(list(cache.cache_dir.glob("*.f8"))) == 1

    def test_digest_covers_levels(self):
        null = NullSpec.sas(1.5)
        d1 = QuantileTable("greenwood", null, 20, 100, 0, (0.95,), (0.5,)).key_digest()
        d2 = QuantileTable("greenwood", null, 20, 100, 0, (0.9,), (0.5,)).key_digest()
        assert d1 != d2

    def test_populated_directory_serves_tests_without_simulating(self, tmp_path, monkeypatch):
        from greenstat import (
            RngStream,
            StableSpec,
            SubGaussianSpec,
            TestConfig,
            mardia_kurtosis,
            sample_sas,
            sample_sub_gaussian,
            test_alpha_right,
            test_bivariate_gaussian_s2,
        )

        x = sample_sas(StableSpec(1.7), 60, RngStream(40))
        xy = sample_sub_gaussian(SubGaussianSpec(1.8), 60, RngStream(41))

        def run_all(cfg):
            return (
                test_alpha_right(x, 1.9, 0.05, cfg),
                test_bivariate_gaussian_s2(xy, 0.05, cfg),
                mardia_kurtosis(xy, 0.05, cfg, critical="mc"),
            )

        first = run_all(TestConfig(reps=200, seed=3, cache=QuantileCache(tmp_path)))

        def no_simulation(*args, **kwargs):
            raise AssertionError("a populated cache directory must not simulate")

        monkeypatch.setattr(mc, "simulate_statistic", no_simulation)
        again = run_all(TestConfig(reps=200, seed=3, cache=QuantileCache(tmp_path)))
        assert again == first

    @pytest.mark.parametrize(
        "corrupt",
        [lambda r: r[:-1], lambda r: np.roll(r, -1), lambda r: np.append(r[:-1], np.nan)],
        ids=["short", "unsorted", "null"],
    )
    def test_bad_replicates_recompute_with_warning(self, tmp_path, corrupt):
        null = NullSpec.sas(1.9)
        p = QuantileCache(tmp_path).pvalue("greenwood", 0.1, null, 30, "greater", 150, 18)
        path = list(tmp_path.glob("*.f8"))[0]
        header, body = read_cache_file(path)
        write_cache_file(path, header, corrupt(body))
        with pytest.warns(UserWarning, match="does not match"):
            again = QuantileCache(tmp_path).pvalue("greenwood", 0.1, null, 30, "greater", 150, 18)
        assert again == p
        assert len(read_cache_file(path)[1]) == 150

    def test_missing_file_is_a_silent_miss(self, tmp_path, monkeypatch):
        calls = count_simulations(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            QuantileCache(tmp_path / "new").replicates("greenwood", NullSpec.sas(1.9), 30, 150, 22)
            QuantileCache(tmp_path / "new").replicates("greenwood", NullSpec.sas(1.9), 30, 150, 23)
        assert len(calls) == 2 and len(list((tmp_path / "new").glob("*.f8"))) == 2

    def test_cache_dir_under_a_regular_file_misses_then_fails_to_store(self, tmp_path, monkeypatch):
        (tmp_path / "afile").write_text("not a directory\n")
        calls = count_simulations(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotADirectoryError):
                QuantileCache(tmp_path / "afile" / "cache").replicates("greenwood", NullSpec.sas(1.9), 30, 150, 24)
        assert len(calls) == 1  # the load was a silent miss, so the key was simulated

    def test_a_failed_write_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(mc.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            QuantileCache(tmp_path).replicates("greenwood", NullSpec.sas(1.9), 30, 150, 25)
        assert list(tmp_path.iterdir()) == []

    def test_an_empty_path_names_no_directory(self):
        assert QuantileCache("").cache_dir is None and QuantileCache(None).cache_dir is None

    def test_truncated_file_recomputes_with_warning(self, tmp_path, monkeypatch):
        null = NullSpec.sas(1.9)
        table = QuantileCache(tmp_path).get_or_compute("greenwood", null, 30, (0.9,), 150, 19)
        path = list(tmp_path.glob("*.f8"))[0]
        data = path.read_bytes()
        header_len = data.index(b"\n") + 1
        path.write_bytes(data[: header_len + 8 * 75 + 3])  # mid-value
        calls = count_simulations(monkeypatch)
        with pytest.warns(UserWarning, match="unreadable"):
            again = QuantileCache(tmp_path).get_or_compute("greenwood", null, 30, (0.9,), 150, 19)
        assert again == table
        assert calls == [("greenwood", null)] and path.read_bytes() == data  # simulated again and rewritten

    def test_seed_format_json_file_is_ignored(self, tmp_path, monkeypatch):
        null = NullSpec.sas(1.9)
        key = {
            "stat_kind": "greenwood",
            "null": null.to_dict(),
            "n": 30,
            "B": 150,
            "seed": 21,
            "engine_version": mc.ENGINE_VERSION,
        }
        digest = mc._key_digest(key)
        legacy = tmp_path / f"{digest}.json"
        legacy.write_text(json.dumps({**key, "replicates": [0.5] * 150}, sort_keys=True))
        calls = count_simulations(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = QuantileCache(tmp_path).replicates("greenwood", null, 30, 150, 21)
        assert calls == [("greenwood", null)]
        assert values.tobytes() == np.sort(simulate_statistic("greenwood", null, 30, 150, seed=21)).tobytes()
        header, body = read_cache_file(tmp_path / f"{digest}.f8")
        assert header == key and body.tobytes() == values.tobytes()

    @pytest.mark.parametrize(
        "stat_kind,null,old_fields",
        [
            ("greenwood", NullSpec.sas(1.9), {"engine_version": "1"}),
            ("kurt", NullSpec.subgauss(2.0, 0.0), {"engine_version": "2", "kernel_version": "2"}),
        ],
        ids=["engine-1", "engine-2-kurt"],
    )
    def test_engine_1_file_is_never_served(self, stat_kind, null, old_fields, tmp_path, monkeypatch):
        # A well-formed file of an older engine, even one moved to this engine's file name, is
        # simulated again and overwritten, never served.
        key = mc._simulation_key(stat_kind, null, 30, 150, 23)
        old_key = {**key, **old_fields}
        old_path = tmp_path / f"{mc._key_digest(old_key)}.f8"
        write_cache_file(old_path, old_key, np.linspace(0.05, 0.5, 150))
        path = tmp_path / f"{mc._key_digest(key)}.f8"
        path.write_bytes(old_path.read_bytes())
        calls = count_simulations(monkeypatch)
        with pytest.warns(UserWarning, match="does not match"):
            values = QuantileCache(tmp_path).replicates(stat_kind, null, 30, 150, 23)
        assert calls == [(stat_kind, null)]
        assert values.tobytes() == np.sort(simulate_statistic(stat_kind, null, 30, 150, seed=23)).tobytes()
        header, body = read_cache_file(path)
        assert header == key and body.tobytes() == values.tobytes()
        assert read_cache_file(old_path)[0] == old_key  # the file under the old name is left as it is

    def test_memory_is_bounded_and_evicted_keys_come_back(self, monkeypatch):
        monkeypatch.setattr(mc, "_MEMORY_BYTES", 3 * 8 * 150)  # three keys of B = 150
        calls = count_simulations(monkeypatch)
        cache = QuantileCache()
        nulls = [NullSpec.sas(alpha) for alpha in (1.1, 1.2, 1.3, 1.4, 1.5)]
        first = [cache.replicates("greenwood", null, 30, 150, 24).tobytes() for null in nulls]
        assert cache._memory_bytes == sum(v.nbytes for v in cache._replicates.values()) <= mc._MEMORY_BYTES
        assert len(cache._replicates) == 3
        cache.replicates("greenwood", nulls[2], 30, 150, 24)  # used last, so 1.4 goes first
        assert cache.replicates("greenwood", nulls[0], 30, 150, 24).tobytes() == first[0]
        assert len(calls) == 6
        cache.replicates("greenwood", nulls[2], 30, 150, 24)
        assert len(calls) == 6 and len(cache._replicates) == 3
        assert cache.replicates("greenwood", nulls[3], 30, 150, 24).tobytes() == first[3]
        assert len(calls) == 7 and cache._memory_bytes <= mc._MEMORY_BYTES

    def test_served_replicates_are_read_only(self, tmp_path):
        null = NullSpec.sas(1.9)
        cache = QuantileCache(tmp_path)
        simulated = cache.replicates("greenwood", null, 30, 150, 22)
        table = cache.get_or_compute("greenwood", null, 30, (0.95,), 150, 22)
        from_memory = cache.replicates("greenwood", null, 30, 150, 22)
        from_disk = QuantileCache(tmp_path).replicates("greenwood", null, 30, 150, 22)
        for values in (simulated, from_memory, from_disk):
            with pytest.raises(ValueError):
                values[:] = 0.5
        assert cache.get_or_compute("greenwood", null, 30, (0.95,), 150, 22) == table
        assert QuantileCache(tmp_path).get_or_compute("greenwood", null, 30, (0.95,), 150, 22) == table

    def test_one_key_serves_every_level_and_the_pvalue(self, tmp_path, monkeypatch):
        calls = count_simulations(monkeypatch)
        cache = QuantileCache(tmp_path)
        null = NullSpec.chi2_one()
        upper = cache.get_or_compute("greenwood", null, 25, (0.9,), 150, 20)
        p = cache.pvalue("greenwood", upper.values[0], null, 25, "greater", 150, 20)
        both = cache.get_or_compute("greenwood", null, 25, (0.025, 0.975), 150, 20)
        assert len(calls) == 1
        assert len(list(tmp_path.iterdir())) == 1
        replicates = simulate_statistic("greenwood", null, 25, 150, seed=20)
        assert both.values == tuple(np.quantile(replicates, (0.025, 0.975)))
        assert p == (1 + np.sum(replicates >= upper.values[0])) / 151


# SHA-256 of the sorted replicate bytes of a fixed key set (n = 50, B = 200,
# seed 0, engine version 3).  A change here means the random streams or a kernel's arithmetic
# changed, which must come with a new ENGINE_VERSION.
GOLDEN_REPLICATES = [
    ("greenwood", NullSpec.sas(1.8), "bcf45513f899d6c891dae4100c390b7a3e298fb380880df22bd9deccab3dcc1b"),
    ("greenwood", NullSpec.sas(1.0), "ff1314cf90b40c48ba5f944c42b6df2c8d91233387fe823f4494510f9f4e88d4"),
    ("greenwood", NullSpec.sas(2.0), "5b702032c9a7cd9e2975a5387d36f57bec18ea5c0c50240a8af49cbffda34aac"),
    ("greenwood", NullSpec.chi2_one(), "b9231b17dfd2913b72f44b843d24a34a4246f123fe0e617650b6d1dfc81b8c53"),
    ("s1", NullSpec.subgauss(1.9, 0.3), "cfa4a7083eb04846f19d890f474039de67ea0457a975c5ff0da5ceb47054ba20"),
    ("s2", NullSpec.subgauss(1.9, 0.3), "45bb18ddb915f756317f72f81f8c2bbd3e94951aba8d28685778a61b705efc28"),
    ("kurt", NullSpec.subgauss(2.0, 0.0), "9ed83cf97576d7177a42dfc0eded0be8d3849459291dbcef667067aa3f1a9fd3"),
]


@pytest.mark.parametrize(
    "stat_kind,null,digest", GOLDEN_REPLICATES, ids=[f"{k}-{n.kind}-{n.alpha_star}" for k, n, _ in GOLDEN_REPLICATES]
)
def test_golden_replicate_digests(stat_kind, null, digest, tmp_path, monkeypatch):
    values = np.sort(simulate_statistic(stat_kind, null, 50, 200, 0))
    assert hashlib.sha256(values.tobytes()).hexdigest() == digest
    QuantileCache(tmp_path).replicates(stat_kind, null, 50, 200, 0)
    calls = count_simulations(monkeypatch)
    loaded = QuantileCache(tmp_path).replicates(stat_kind, null, 50, 200, 0)
    assert calls == []
    assert hashlib.sha256(loaded.tobytes()).hexdigest() == digest


# Keys where the engine takes another branch: overflowed draws (the 1/#inf
# rule), the alpha = 1 tangent path, a singular core (rho = 1), a negative
# correlation, the baselines' kernels (closed-form whitening, and
# Henze-Zirkler at n = 100 in tiles of 3 rows' pair matrices),
# the baselines' minimum sizes, and sample sizes whose blocks hold only a few
# rows.  B = 200, seed 0, engine version 3.
GOLDEN_BRANCHES = [
    ("greenwood", NullSpec.sas(0.05), 50, "65a00a83f1a4278048c0ba57a3492d554249fd37faf69177be011b738433d637"),
    ("greenwood", NullSpec.sas(1.0), 5000, "2bb443c2114fe30a134d1d6dc1706e5d81711ecae7b3fe324bcaf7b523de81b6"),
    ("s2", NullSpec.subgauss(1.5, 1.0), 50, "75910a655e3f10c0d19abacde4e62c43f3f00567cc5df3e48d7fdadf537cec31"),
    ("s2", NullSpec.subgauss(1.5, 1.0), 3000, "c1a92720c99e790a9c71ba9fc50ecd2ef1092379eaefd8ed47b55a1ebc745afe"),
    ("s1", NullSpec.subgauss(1.2, -0.5), 50, "19c8ed39cc5280b2ea4c76933beb17c52d571f7a67bb3b717717d7240e4af37a"),
    ("hz", NullSpec.subgauss(2.0, 0.0), 50, "6ee61d6a82df02f64ca6656570aecdc2c0e856be13ff74f87663a0f4800d8b9a"),
    ("skew", NullSpec.subgauss(2.0, 0.0), 50, "d39ac9061fb089627c69562379e8b4a501f949fd6a83d5a0635235ff9979daaa"),
    ("jb", NullSpec.subgauss(2.0, 0.0), 50, "dceef203d3567de0e12e35f1519edefe80d5f4cdefae08584568b6123b16ce1e"),
    ("skew", NullSpec.subgauss(2.0, 0.0), 4, "1b39160cae934855af329cce89078d331d1f0ed491201c7b59ff87935921145a"),
    ("kurt", NullSpec.subgauss(2.0, 0.0), 4, "deb1105e50d1017f4a5732180fd28e75d404a8611e09098805af513548817ec7"),
    ("hz", NullSpec.subgauss(2.0, 0.0), 100, "a34ef57edba5658bfb6577e4e02d845611e0a0d7da09934c5d2d3111220634ae"),
    ("jb", NullSpec.subgauss(1.8, -0.3), 30, "7776fbb8ed99b46abffb650fd851a315c9c024a8c870244b64e7c937763258e9"),
]


@pytest.mark.parametrize(
    "stat_kind,null,n,digest",
    GOLDEN_BRANCHES,
    ids=[f"{k}-{null.kind}-{null.alpha_star}-{null.rho}-n{n}" for k, null, n, _ in GOLDEN_BRANCHES],
)
def test_golden_digests_of_engine_branches(stat_kind, null, n, digest):
    values = np.sort(simulate_statistic(stat_kind, null, n, 200, 0))
    assert hashlib.sha256(values.tobytes()).hexdigest() == digest
    if null.alpha_star == 0.05:
        assert np.sum(values == 1.0) > 0  # the key holds rows with an overflowed draw


@pytest.mark.parametrize(
    "null,digest",
    [
        (NullSpec.sas(1.8), "4c0c7d9a8e7d6b058cc950425de96933eb5ab0d0c618ce2a0f76116cdc99da23"),
        (NullSpec.chi2_one(), "6993712aabcf46542bdbf4ee0c61e3deaf3fad1c49a1dd0acc6ae509f876ea40"),
    ],
    ids=["sas-1.8", "chi2-1"],
)
def test_two_workers_equal_one(null, digest):
    one = simulate_statistic("greenwood", null, 60, 300, 3, workers=1)
    two = simulate_statistic("greenwood", null, 60, 300, 3, workers=2)
    assert np.array_equal(one, two)
    assert hashlib.sha256(np.sort(one).tobytes()).hexdigest() == digest


@pytest.mark.parametrize("workers", [0, -4])
def test_workers_below_one_are_rejected(workers):
    null = NullSpec.sas(1.8)
    cache = QuantileCache()
    cache.replicates("greenwood", null, 30, 150, 0)
    with pytest.raises(ParameterError, match="workers must be at least 1"):
        simulate_statistic("greenwood", null, 30, 150, 0, workers=workers)
    with pytest.raises(ParameterError, match="workers must be at least 1"):
        cache.replicates("greenwood", null, 30, 150, 0, workers=workers)  # even for a key in memory


@pytest.mark.parametrize("workers", [1.5, 2.0, "2", True])
def test_workers_that_are_not_integers_are_rejected(workers):
    from greenstat import TestConfig, test_alpha_right

    null, problem = NullSpec.sas(1.8), rf"^workers must be an integer, got {workers!r}$"
    cache = QuantileCache()
    cache.replicates("greenwood", null, 30, 150, 0)
    with pytest.raises(ParameterError, match=problem):
        simulate_statistic("greenwood", null, 30, 150, 0, workers=workers)
    with pytest.raises(ParameterError, match=problem):
        QuantileCache().get_or_compute("greenwood", null, 30, (0.05, 0.95), 150, 0, workers=workers)
    with pytest.raises(ParameterError, match=problem):
        cache.replicates("greenwood", null, 30, 150, 0, workers=workers)  # even for a key in memory
    x = RngStream(31).generator().standard_cauchy(30)
    with pytest.raises(ParameterError, match=problem):
        test_alpha_right(x, 1.8, 0.05, TestConfig(reps=150, workers=workers, cache=cache))


@pytest.mark.parametrize("seed", [1.5, 1.0, "1", -1, 2**64, True])
def test_a_bad_seed_is_rejected_on_a_cold_and_a_warm_cache(seed):
    from greenstat import TestConfig, test_alpha_right

    null, problem = NullSpec.sas(1.8), "seed must be an integer"
    cache = QuantileCache()
    x = RngStream(30).generator().standard_cauchy(50)
    for _ in range(2):  # cold, then with seed 1 in memory
        with pytest.raises(ParameterError, match=problem):
            cache.replicates("greenwood", null, 50, 200, seed)
        with pytest.raises(ParameterError, match=problem):
            test_alpha_right(x, 1.8, 0.05, TestConfig(reps=200, seed=seed, cache=cache))
        cache.replicates("greenwood", null, 50, 200, 1)
    assert cache.replicates("greenwood", null, 50, 200, np.uint64(1)) is cache.replicates("greenwood", null, 50, 200, 1)


@pytest.mark.parametrize(
    "observed,alternative,problem",
    [(0.2, "sideways", "alternative must be"), (float("nan"), "greater", "observed value is NaN")],
    ids=["alternative", "nan"],
)
def test_pvalue_checks_its_inputs_before_simulating(observed, alternative, problem, tmp_path, monkeypatch):
    calls = count_simulations(monkeypatch)
    with pytest.raises(ParameterError, match=problem):
        QuantileCache(tmp_path).pvalue("greenwood", observed, NullSpec.sas(1.8), 300, alternative, 10_000, 0)
    assert calls == [] and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("stat_kind,n", [("kurt", 3), ("greenwood", 1)])
def test_simulate_statistic_checks_the_minimum_size(stat_kind, n):
    null = NullSpec.sas(1.8) if stat_kind == "greenwood" else NullSpec.subgauss(2.0, 0.0)
    with pytest.raises(ParameterError, match=f"sample size must be at least {n + 1} for statistic {stat_kind!r}"):
        simulate_statistic(stat_kind, null, n, 200, 0)


class SerialPool:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and maps in this process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize(
    "n,B,workers,tasks",
    [(30, 100, 64, 1), (300, 150, 3, 2), (300, 1000, 2, 8), (300, 1000, 64, 10)],
    ids=["one-block-64", "two-blocks-3", "ten-blocks-2", "ten-blocks-64"],
)
def test_pool_never_exceeds_the_task_count(monkeypatch, n, B, workers, tasks):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(SerialPool, "sizes", [])
    null = NullSpec.sas(1.6)
    assert min(4 * workers, math.ceil(B / mc._block_rows(n, 1))) == tasks
    values = simulate_statistic("greenwood", null, n, B, 9, workers=workers)
    assert SerialPool.sizes == [min(workers, tasks)]
    assert np.array_equal(values, simulate_statistic("greenwood", null, n, B, 9))


def count_streams(monkeypatch) -> list:
    """Record the path of every stream generator constructed."""
    built = []
    original = RngStream.generator

    def counted(self):
        built.append(self.path)
        return original(self)

    monkeypatch.setattr(RngStream, "generator", counted)
    return built


class TestStreamTable:
    """The block streams a null table reads."""

    def test_a_table_builds_one_generator_per_block(self, monkeypatch):
        built = count_streams(monkeypatch)
        assert mc._block_rows(30, 1) == 1092 and mc._block_rows(300, 1) == 109 and mc._block_rows(20_000, 2) == 1
        QuantileCache().replicates("greenwood", NullSpec.sas(1.5), 30, 2500, 4)
        assert built == [(2, 0, 0), (2, 0, 1), (2, 0, 2)]  # ceil(2500 / 1092)
        built.clear()
        simulate_statistic("s2", NullSpec.subgauss(1.7, 0.2), 300, 150, 4)  # K = 54
        assert built == [(2, 0, k) for k in range(3)]
        built.clear()
        simulate_statistic("greenwood", NullSpec.sas(1.6), 300, 10_000, 4)
        assert len(built) == 92  # ceil(10_000 / 109)

    @pytest.mark.parametrize(
        "stat_kind,null", [("greenwood", NullSpec.sas(1.7)), ("s1", NullSpec.subgauss(1.5, 0.3))], ids=["sas", "subgauss"]
    )
    def test_a_replicate_does_not_depend_on_B(self, stat_kind, null):
        n = 300  # 109 rows per block univariate, 54 bivariate: B = 150 ends inside a block
        assert 150 % mc._block_rows(n, null.ndim) != 0
        many = simulate_statistic(stat_kind, null, n, 1000, 8)
        assert np.array_equal(simulate_statistic(stat_kind, null, n, 150, 8), many[:150])

    def test_two_workers_equal_one_off_a_block_boundary(self):
        null = NullSpec.sas(1.3)
        assert 500 % mc._block_rows(300, 1) != 0
        one = simulate_statistic("greenwood", null, 300, 500, 12, workers=1)
        assert np.array_equal(simulate_statistic("greenwood", null, 300, 500, 12, workers=2), one)

    def test_chunk_size_does_not_change_results(self):
        # the work can be split into tasks of any whole number of blocks
        keys = [
            ("greenwood", NullSpec.sas(0.3)),
            ("s1", NullSpec.subgauss(1.4, 0.5)),
            ("skew", NullSpec.subgauss(2.0, 0.0)),
        ]
        n, B = 200, 700
        for k, null in keys:
            values = simulate_statistic(k, null, n, B, 6)
            blocks = math.ceil(B / mc._block_rows(n, null.ndim))
            for split in ([0, blocks], [0, 1, blocks], list(range(blocks + 1))):
                parts = [mc._simulate_blocks(k, null, n, B, 6, lo, hi) for lo, hi in zip(split[:-1], split[1:])]
                assert np.array_equal(np.concatenate(parts), values)

    def test_table_memory_is_bounded_by_the_chunk(self):
        import tracemalloc

        tracemalloc.start()
        try:
            simulate_statistic("greenwood", NullSpec.sas(1.8), 300, 10_000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5_000_000


def test_reregistered_baseline_keeps_its_gaussianity_test(monkeypatch):
    """A wrapper registered over a statistic, as an external tracer does, and the
    original registered back both keep the record's minimum size and Gaussianity test."""
    from greenstat import AnalyzeConfig, TestConfig, sample_bivariate_gaussian
    from greenstat.testing import gaussianity_test

    record = mc.gaussianity_statistic("kurt")
    monkeypatch.setitem(mc._STATISTICS, "kurt", record)  # restores the registry if an assertion fails
    calls = []

    def wrapped(sample):
        calls.append(len(sample))
        return record.func(sample)

    def run_test() -> dict:
        cfg = TestConfig(reps=200, seed=3, cache=QuantileCache())
        return gaussianity_test("kurt", sample_bivariate_gaussian(np.eye(2), 40, RngStream(8)), cfg=cfg).to_dict()

    before = run_test()
    mc.register_statistic("kurt", record.ndim, wrapped)
    during = run_test()
    assert calls == [40] * 200  # the null simulation called the wrapper once per replicate
    assert AnalyzeConfig(tests=("kurt",)).tests == ("kurt",)
    mc.register_statistic("kurt", record.ndim, record.func)
    after = run_test()
    assert len(calls) == 200 and before == during == after
    assert AnalyzeConfig(tests=("kurt",)).tests == ("kurt",)
    restored = mc.gaussianity_statistic("kurt")
    assert restored.func is record.func and restored._replace(rows=None) == record._replace(rows=None)


def test_each_gaussianity_test_calibrates_on_its_pinned_null():
    """S2 on the Greenwood statistic of chi-square(1) samples, every other test on itself at subgauss(2, 0)."""
    pinned = {name: (name, NullSpec.subgauss(2.0, 0.0)) for name in ("s1", "kurt", "skew", "jb", "hz")}
    pinned["s2"] = ("greenwood", NullSpec.chi2_one())
    assert {name: mc.gaussianity_statistic(name).gaussian_calibration() for name in mc.gaussianity_statistics()} == pinned
