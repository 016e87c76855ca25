"""Determinism, quantile estimation, p-values and the replicate cache."""

import hashlib
import json
import warnings

import numpy as np
import pytest

from greenstat import (
    DegenerateSampleError,
    NullSpec,
    ParameterError,
    QuantileCache,
    QuantileTable,
    estimate_quantiles,
    mc_pvalue,
    simulate_statistic,
)
from greenstat import RngStream, mc
from greenstat.rng import StreamTable, replay


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
            lambda n, B: mc_pvalue("greenwood", 0.5, NullSpec.sas(1.8), n, "greater", B=B, seed=0),
        ],
        ids=["estimate_quantiles", "get_or_compute", "pvalue", "mc_pvalue"],
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

    def test_alternative_validation(self):
        with pytest.raises(ParameterError):
            mc_pvalue("greenwood", 0.2, NullSpec.sas(1.5), 30, "sideways", B=200, seed=0)


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

    def test_truncated_file_recomputes_with_warning(self, tmp_path):
        null = NullSpec.sas(1.9)
        table = QuantileCache(tmp_path).get_or_compute("greenwood", null, 30, (0.9,), 150, 19)
        path = list(tmp_path.glob("*.f8"))[0]
        data = path.read_bytes()
        header_len = data.index(b"\n") + 1
        path.write_bytes(data[: header_len + 8 * 75 + 3])  # mid-value
        with pytest.warns(UserWarning, match="unreadable"):
            again = QuantileCache(tmp_path).get_or_compute("greenwood", null, 30, (0.9,), 150, 19)
        assert again == table

    def test_seed_format_json_file_is_ignored(self, tmp_path, monkeypatch):
        null = NullSpec.sas(1.9)
        key = {
            "stat_kind": "greenwood",
            "null": null.to_dict(),
            "n": 30,
            "B": 150,
            "seed": 21,
            "engine_version": "1",
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
# seed 0).  A change here means the random streams or a kernel changed, which
# must come with a new ENGINE_VERSION.
GOLDEN_REPLICATES = [
    ("greenwood", NullSpec.sas(1.8), "e70e798169d31b67589f9ff0e27af393294bfa01fe6dc179549ae89afd68362f"),
    ("greenwood", NullSpec.sas(1.0), "c03fb183bcf9c53222c293074bce0628a918cb211aeb42b0a95d9c7259efeb97"),
    ("greenwood", NullSpec.sas(2.0), "22db973af4058e988d939ade01196cb1d4032f11e609e9ecde22ff0a028122e8"),
    ("greenwood", NullSpec.chi2_one(), "1682687df1240519a890fee926ba3c0eb852f9925939965f59041fc24aac5556"),
    ("s1", NullSpec.subgauss(1.9, 0.3), "1b74b181a44fc7585ec0f1375d7ce51665b6fddd580bd1f577893999e6b276a5"),
    ("s2", NullSpec.subgauss(1.9, 0.3), "69f06ae28af5701dd2c58e380d89f1d1223cde8976367169ee243ad2684d7405"),
    ("kurt", NullSpec.subgauss(2.0, 0.0), "259d2200a234c7bdb923befbe9b752cc3e5b5a86eb9748c7200285957cd5c323"),
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


# Keys where the chunked engine takes another branch: overflowed draws (the
# 1/#inf rule), the alpha = 1 tangent path, a singular core (rho = 1), a
# negative correlation, the row-loop kernel of a baseline, and sample sizes
# that span several chunks.  B = 200, seed 0; taken from the per-replicate
# engine.
GOLDEN_BRANCHES = [
    ("greenwood", NullSpec.sas(0.05), 50, "f3581aaea21c34887e6d11a007891c9bb119e43dd69024a1ca14343feedd070c"),
    ("greenwood", NullSpec.sas(1.0), 5000, "bac24b2c82ffcbb5084c8c8093e1cf3dde8fc4a4f0f6da9b1d75b458820ec13e"),
    ("s2", NullSpec.subgauss(1.5, 1.0), 50, "d8dbd25fe43ec69e6dbc6efe1134aae24d9d4a8fb559b125175296768fefcb3b"),
    ("s2", NullSpec.subgauss(1.5, 1.0), 3000, "0c8135fcab2a65da5092f743a79b1dd78b3e4a572775013ba8b251eefb85e357"),
    ("s1", NullSpec.subgauss(1.2, -0.5), 50, "4bb67748a8c7b0630540d98bb292451d2592e8283d6e36581209d5077380b9c8"),
    ("hz", NullSpec.subgauss(2.0, 0.0), 50, "02d9aa085f36b75fc6931de4efdc57084d0a743a7c3911244ea84fa22b58f7ce"),
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
        (NullSpec.sas(1.8), "4f4a0b60229d3d108b950f3714f3e3ed13a420210ebc6e934f8492d4b2f6c503"),
        (NullSpec.chi2_one(), "c762453135464dbdde767e34538dbf212f27e9166f24fe54f1a3ddce50cfab76"),
    ],
    ids=["sas-1.8", "chi2-1"],
)
def test_two_workers_equal_one(null, digest):
    one = simulate_statistic("greenwood", null, 60, 300, 3, workers=1)
    two = simulate_statistic("greenwood", null, 60, 300, 3, workers=2)
    assert np.array_equal(one, two)
    assert hashlib.sha256(np.sort(one).tobytes()).hexdigest() == digest


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
    def test_rows_replay_each_stream(self):
        table = StreamTable(5)
        states = table.states(20).copy()
        for i, gen in enumerate(replay(states)):
            assert np.array_equal(gen.standard_normal(7), RngStream(5, i).generator().standard_normal(7))
        assert np.array_equal(table.states(50)[:20], states)
        assert np.array_equal(table.states(10), states[:10])

    def test_second_key_on_one_cache_builds_no_streams(self, monkeypatch):
        built = count_streams(monkeypatch)
        cache = QuantileCache()
        cache.replicates("greenwood", NullSpec.sas(1.5), 30, 150, 4)
        assert built == [(i,) for i in range(150)]
        s2 = cache.replicates("s2", NullSpec.subgauss(1.7, 0.2), 30, 150, 4)
        cache.replicates("greenwood", NullSpec.sas(1.6), 40, 120, 4)
        assert len(built) == 150
        cache.replicates("greenwood", NullSpec.sas(1.6), 40, 200, 4)  # only the 50 new rows
        assert built[150:] == [(i,) for i in range(150, 200)]
        QuantileCache().replicates("greenwood", NullSpec.sas(1.5), 30, 150, 4)  # a fresh cache
        assert len(built) == 350
        assert np.array_equal(s2, np.sort(simulate_statistic("s2", NullSpec.subgauss(1.7, 0.2), 30, 150, 4)))

    def test_table_of_another_seed_is_rejected(self):
        with pytest.raises(ParameterError, match="seed"):
            simulate_statistic("greenwood", NullSpec.sas(1.5), 20, 100, 1, streams=StreamTable(2))

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        keys = [
            ("greenwood", NullSpec.sas(0.3)),
            ("s1", NullSpec.subgauss(1.4, 0.5)),
            ("skew", NullSpec.subgauss(2.0, 0.0)),
        ]
        default = [simulate_statistic(k, null, 30, 120, 6) for k, null in keys]
        monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", 1)  # one row per chunk
        for (k, null), values in zip(keys, default):
            assert np.array_equal(simulate_statistic(k, null, 30, 120, 6), values)

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
