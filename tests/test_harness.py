"""CSV ingestion, VAR(1) filtering, standardization, power study and analyze."""

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import greenstat as gs
from greenstat import harness
from greenstat import (
    CsvFormatError,
    DegenerateSampleError,
    NullSpec,
    ParameterError,
    PowerStudyConfig,
    QuantileCache,
    RngStream,
    StableSpec,
    SubGaussianSpec,
    Var1Model,
    greenwood,
    ingest_csv,
    run_power_study,
    s1,
    s2,
    sample_sas,
    sample_sub_gaussian,
    standardize,
    var1_residuals,
)


class TestIngest:
    def test_two_columns(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text("1.0,2.0\n-3.5,0.25\n")
        data = ingest_csv(p)
        assert data.shape == (2, 2) and data[1, 0] == -3.5

    def test_one_column(self, tmp_path):
        p = tmp_path / "series.csv"
        p.write_text("1\n2\n3\n")
        assert ingest_csv(p).shape == (3,)

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "with_header.csv"
        p.write_text("usdpln,cu\n0.1,0.2\n0.3,0.4\n")
        assert ingest_csv(p).shape == (2, 2)

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("1,2\n3,4,5\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            ingest_csv(p)

    def test_non_numeric_cell_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n3,oops\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            ingest_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(CsvFormatError, match="no numeric data"):
            ingest_csv(p)

    def test_three_columns_rejected(self, tmp_path):
        p = tmp_path / "wide.csv"
        p.write_text("1,2,3\n4,5,6\n")
        with pytest.raises(CsvFormatError):
            ingest_csv(p)

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1.5,2.5\n3,4\n5,6\n", [[1.5, 2.5], [3.0, 4.0], [5.0, 6.0]]),
            ("x,y\n1.5,2.5\n3,4\n", [[1.5, 2.5], [3.0, 4.0]]),
            ("1.5\n3\n5\n", [1.5, 3.0, 5.0]),
            ("x\n1.5\n3\n", [1.5, 3.0]),
            ("1_0\n2\n3\n", [10.0, 2.0, 3.0]),  # numpy rejects 1_0, so the line parser reads it
        ],
        ids=["two-columns", "two-columns-header", "one-column", "one-column-header", "line-parser"],
    )
    def test_byte_order_mark_is_skipped(self, tmp_path, text, expected):
        # spreadsheet programs start UTF-8 CSV files with a BOM; it is not a header
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert ingest_csv(p).tolist() == expected
        p.write_text(text)
        assert ingest_csv(p).tolist() == expected


    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_the_line_parser(self, tmp_path_factory, data):
        width = data.draw(st.integers(1, 3), label="width")
        pad = st.sampled_from(["", " ", "  ", "\t", "\xa0", "\x0c", "\x1c"])
        number = st.one_of(
            st.floats().map(repr),  # subnormals, -0.0, inf and nan included
            st.integers(-(10**30), 10**30).map(str),
            st.sampled_from(["inf", "-inf", "+Infinity", "nan", "-nan", "NaN", "1e400", "-1e-400", ".5", "5.", "1E5"]),
        )
        odd = st.sampled_from(["", "x", "1_0", "0x10", "1e", "1 2", "\uff11", "--1", "nan(1)"])
        cell = st.tuples(pad, st.one_of(*[number] * 8, odd), pad).map("".join)
        row = st.lists(cell, min_size=width, max_size=width).map(",".join)
        other = st.one_of(row, st.lists(cell, min_size=1, max_size=4).map(",".join), st.sampled_from(["", "  "]))
        lines = data.draw(st.lists(st.one_of(*[row] * 5, other), max_size=6), label="lines")
        header = data.draw(st.sampled_from([None, "usdpln,cu", "x", "1,oops", " ", ""]), label="header")
        newline = data.draw(st.sampled_from(["\n", "\r\n", "\r"]), label="newline")
        text = newline.join(lines if header is None else [header, *lines])
        if data.draw(st.booleans(), label="final newline"):
            text += newline
        path = tmp_path_factory.getbasetemp() / "ingest.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            expected = ingest_csv_reference(path)
        except CsvFormatError as exc:
            with pytest.raises(CsvFormatError) as got:
                ingest_csv(path)
            assert str(got.value) == str(exc)
            return
        out = ingest_csv(path)
        assert out.shape == expected.shape and out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()

    def test_single_row(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("x,y\n1.5,-2\n")
        assert ingest_csv(p).tolist() == [[1.5, -2.0]]
        p.write_text("7\n")
        assert ingest_csv(p).tolist() == [7.0]


class TestVar1:
    def test_zero_matrix_shifts_by_one(self):
        series = RngStream(401).generator().standard_normal((10, 2))
        resid = var1_residuals(series, np.zeros((2, 2)))
        assert np.array_equal(resid, series[1:])

    def test_constant_series_arithmetic(self):
        m = np.array([[0.2927, 0.0], [0.0, 0.2100]])
        series = np.ones((5, 2))
        resid = var1_residuals(series, m)
        assert resid.shape == (4, 2)
        assert np.allclose(resid, [0.7073, 0.7900], atol=1e-12)

    def test_round_trip_recovers_innovations(self):
        gen_model = Var1Model(np.array([[0.3, 0.1], [-0.2, 0.4]]))
        innovations = np.column_stack(
            [
                sample_sas(StableSpec(1.7), 300, RngStream(402, 0)),
                sample_sas(StableSpec(1.7), 300, RngStream(402, 1)),
            ]
        )
        series = gen_model.simulate(innovations)
        resid = var1_residuals(series, gen_model)
        assert np.allclose(resid, innovations[1:], rtol=1e-10, atol=1e-10)

    def test_round_trip_alpha_test_retention(self):
        # filtering with the true matrix leaves alpha-stable residuals, so
        # the two-sided test at the true index retains at its nominal rate
        model = Var1Model(np.array([[0.5, 0.2], [0.1, 0.3]]))
        cfg = gs.TestConfig(reps=2000, seed=403, cache=QuantileCache())
        retained = 0
        reps = 300
        for i in range(reps):
            innovations = np.column_stack(
                [
                    sample_sas(StableSpec(1.7), 200, RngStream(404, (i, 0))),
                    sample_sas(StableSpec(1.7), 200, RngStream(404, (i, 1))),
                ]
            )
            series = model.simulate(innovations)
            resid = var1_residuals(series, model)
            retained += not gs.test_alpha_two_sided(resid[:, 0], 1.7, 0.05, cfg).reject
        assert retained / reps >= 0.93

    def test_validation(self):
        with pytest.raises(ParameterError):
            var1_residuals(np.ones((1, 2)), np.zeros((2, 2)))
        with pytest.raises(ParameterError):
            var1_residuals(np.ones((5, 3)), np.zeros((2, 2)))
        with pytest.raises(ParameterError):
            Var1Model(np.ones((2, 3)))


class TestStandardize:
    def test_none_is_identity(self):
        x = RngStream(405).generator().standard_normal((20, 2))
        assert np.array_equal(standardize(x, "none"), x)

    def test_global_scale_preserves_greenwood(self):
        x = sample_sas(StableSpec(1.6), 500, RngStream(406))
        assert greenwood(standardize(x, "global-scale")).value == pytest.approx(
            greenwood(x).value, rel=1e-12
        )

    def test_global_scale_preserves_s1_s2_with_shared_factor(self):
        # both columns hold the same magnitudes, so the per-component
        # scale factors coincide and S1/S2 are unchanged
        x = sample_sas(StableSpec(1.6), 400, RngStream(407))
        xy = np.column_stack([x, x[::-1]])
        scaled = standardize(xy, "global-scale")
        assert s1(scaled).value == pytest.approx(s1(xy).value, rel=1e-12)
        assert s2(scaled).value == pytest.approx(s2(xy).value, rel=1e-12)

    def test_full_window_rolling_equals_global_std(self):
        xy = RngStream(408).generator().standard_normal((50, 2))
        rolled = standardize(xy, "rolling-conditional-std", window=50)
        assert np.allclose(rolled, xy / np.std(xy, axis=0), rtol=1e-12)

    def test_rolling_univariate(self):
        x = RngStream(409).generator().standard_normal(30)
        out = standardize(x, "rolling-conditional-std", window=10)
        assert out.shape == (30,)
        assert out[29] == pytest.approx(x[29] / np.std(x[20:30]))
        # early positions borrow the first full window
        assert out[0] == pytest.approx(x[0] / np.std(x[:10]))

    def test_zero_scale_errors(self):
        with pytest.raises(ParameterError):
            standardize(np.zeros(10), "global-scale")
        flat = np.ones(20)
        with pytest.raises(ParameterError):
            standardize(flat, "rolling-conditional-std", window=5)

    def test_validation(self):
        x = np.ones(10)
        with pytest.raises(ParameterError):
            standardize(x, "rolling-conditional-std", window=1)
        with pytest.raises(ParameterError):
            standardize(x, "rolling-conditional-std", window=11)
        with pytest.raises(ParameterError):
            standardize(x, "winsorize")

    @pytest.mark.parametrize("window", [2.5, 20.0, "20", None])
    def test_rolling_window_must_be_an_integer(self, tmp_path, window):
        series = RngStream(410).generator().standard_normal((40, 2))
        p = tmp_path / "biv.csv"
        p.write_text("\n".join(f"{float(u)!r},{float(v)!r}" for u, v in series))
        problem = rf"rolling standardization needs an integer window of at least 2, got {window!r}$"
        with pytest.raises(ParameterError, match=problem):
            standardize(series, "rolling-conditional-std", window)
        with pytest.raises(ParameterError, match=problem):
            gs.analyze(p, gs.AnalyzeConfig(standardize_method="rolling-conditional-std", window=window))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), two_columns=st.booleans(), budget=st.sampled_from([None, 1, 7, 64]))
    def test_rolling_equals_the_row_loop(self, data, two_columns, budget):
        t_len = data.draw(st.integers(2, 60))
        shape = (t_len, 2) if two_columns else (t_len,)
        values = st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.0, 1.0, -1.0])
        x = data.draw(arrays(np.float64, shape, elements=values))
        window = data.draw(st.integers(2, t_len))
        with pytest.MonkeyPatch.context() as mp:
            if budget is not None:
                # blocks of a few windows, so that inputs cross block boundaries
                mp.setattr(harness, "_WINDOW_ELEMENTS", budget)
            try:
                expected = rolling_std_reference(x, window)
            except ParameterError as exc:
                with pytest.raises(ParameterError) as got:
                    standardize(x, "rolling-conditional-std", window)
                assert str(got.value) == str(exc)
                return
            out = standardize(x, "rolling-conditional-std", window)
        assert out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("t_len,window", [(335, 20), (5000, 250)])
    def test_rolling_equals_the_row_loop_on_long_pairs(self, t_len, window):
        x = RngStream(412).generator().standard_cauchy((t_len, 2))
        out = standardize(x, "rolling-conditional-std", window)
        assert out.tobytes() == rolling_std_reference(x, window).tobytes()

    def test_zero_window_error_names_its_position(self):
        x = RngStream(410).generator().standard_normal((40, 2))
        x[25:31, 1] = 3.0  # the window of 5 ending at 29 is flat in one column
        with pytest.raises(ParameterError, match="position 29$"):
            standardize(x, "rolling-conditional-std", window=5)
        x[:5, 0] = 0.0  # the first window, borrowed by positions 0-3
        with pytest.raises(ParameterError, match="position 0$"):
            standardize(x, "rolling-conditional-std", window=5)

    def test_rolling_memory_is_bounded(self):
        import tracemalloc

        x = RngStream(411).generator().standard_normal(1_000_000)
        tracemalloc.start()
        try:
            out = standardize(x, "rolling-conditional-std", window=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 8_000_000

    def test_two_column_rolling_memory_is_bounded(self):
        import tracemalloc

        x = RngStream(413).generator().standard_normal((200_000, 2))
        tracemalloc.start()
        try:
            out = standardize(x, "rolling-conditional-std", window=500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 8_000_000


def ingest_csv_reference(path) -> np.ndarray:
    """The original line-by-line CSV parser, kept as the reference."""
    rows: list[list[float]] = []
    width: int | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = [f.strip() for f in line.split(",")]
            try:
                values = [float(f) for f in fields]
            except ValueError:
                if not rows and lineno == 1:
                    continue  # header
                raise CsvFormatError(f"{path}: non-numeric value on line {lineno}: {line!r}") from None
            if width is None:
                width = len(values)
                if width not in (1, 2):
                    raise CsvFormatError(f"{path}: expected 1 or 2 columns, found {width} on line {lineno}")
            elif len(values) != width:
                raise CsvFormatError(
                    f"{path}: ragged row on line {lineno}: expected {width} fields, found {len(values)}"
                )
            rows.append(values)
    if not rows:
        raise CsvFormatError(f"{path}: no numeric data found")
    arr = np.asarray(rows, dtype=float)
    return arr[:, 0] if width == 1 else arr


def rolling_std_reference(series, window):
    """The original row-by-row rolling standardization, kept as the reference."""
    arr = np.asarray(series, dtype=float)
    squeeze = arr.ndim == 1
    cols = arr[:, None] if squeeze else arr
    out = np.empty_like(cols)
    for t in range(cols.shape[0]):
        seg = cols[:window] if t < window - 1 else cols[t - window + 1 : t + 1]
        sd = np.std(seg, axis=0)
        if np.any(sd == 0.0):
            raise ParameterError(f"zero standard deviation in the window ending at position {t}")
        out[t] = cols[t] / sd
    return out[:, 0] if squeeze else out


@pytest.fixture(scope="module")
def small_cells():
    cfg = PowerStudyConfig(
        statistics=("s1", "s2"),
        alphas=(1.5, 2.0),
        sizes=(30,),
        betas=(0.0, 1.0),
        null_reps=2000,
        alt_reps=200,
        seed=410,
    )
    return cfg, run_power_study(cfg, cache=QuantileCache())


class TestPowerStudy:
    def test_size_row_matches_level(self, small_cells):
        cfg, cells = small_cells
        slack = 3.0 * np.sqrt(cfg.level * 0.95 / cfg.alt_reps) + 1e-9
        for cell in cells:
            if cell.alpha != 2.0:
                continue
            if cell.statistic == "s2" and cell.beta > 0.0:
                # calibrated at the most conservative null (beta = 0)
                assert cell.power <= cfg.level + slack
            else:
                assert abs(cell.power - cfg.level) <= slack

    def test_power_rises_as_alpha_falls(self, small_cells):
        _, cells = small_cells
        for stat in ("s1", "s2"):
            for beta in (0.0, 1.0):
                at = {c.alpha: c.power for c in cells if c.statistic == stat and c.beta == beta}
                assert at[1.5] > at[2.0]

    def test_rows_carry_standard_errors(self, small_cells):
        _, cells = small_cells
        for c in cells:
            assert c.se == pytest.approx(np.sqrt(c.power * (1 - c.power) / c.alt_reps))
            assert 0.0 <= c.power <= 1.0

    def test_deterministic_and_worker_independent(self):
        cfg = PowerStudyConfig(
            statistics=("s1",), alphas=(1.8,), sizes=(20,), betas=(1.0,),
            null_reps=500, alt_reps=100, seed=411,
        )
        a = run_power_study(cfg, cache=QuantileCache(), workers=1)
        b = run_power_study(cfg, cache=QuantileCache(), workers=2)
        assert a == b

    def test_csv_round_trip(self, small_cells, tmp_path):
        _, cells = small_cells
        out = tmp_path / "power.csv"
        gs.power_curve_to_csv(cells, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "statistic,n,alpha,beta,power,se,B1,B0,seed"
        assert len(lines) == len(cells) + 1

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            PowerStudyConfig(statistics=())
        with pytest.raises(ParameterError):
            PowerStudyConfig(statistics=("s3",))
        with pytest.raises(ParameterError):
            PowerStudyConfig(alphas=(2.2,))
        with pytest.raises(ParameterError):
            PowerStudyConfig(alt_reps=50)

    def test_baselines_at_beta_zero_fail_before_simulating(self, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("a null table was simulated before the config was checked")

        monkeypatch.setattr(gs.mc, "simulate_statistic", no_simulation)
        for name in ("kurt", "skew", "jb", "hz"):
            with pytest.raises(ParameterError, match="beta = 0"):
                run_power_study(PowerStudyConfig(statistics=("s1", name), betas=(0.5, 0.0)))
        # S1 and S2 stay valid at beta = 0
        PowerStudyConfig(statistics=("s1", "s2"), betas=(0.0,))
        # each statistic's own minimum sample size holds before anything is simulated
        for name, smallest in (("kurt", 4), ("skew", 4), ("jb", 4), ("hz", 4), ("s1", 2), ("s2", 2)):
            with pytest.raises(ParameterError, match=f"'{name}': {smallest}"):
                run_power_study(PowerStudyConfig(statistics=("s1", name), sizes=(10, smallest - 1), betas=(0.5,)))
            PowerStudyConfig(statistics=(name,), sizes=(smallest,), betas=(0.5,))


@pytest.mark.parametrize(
    "config,digest",
    [
        # S1 and S2 at beta = 0 (a singular Gaussian core) and 0.5, each cell one chunk
        (
            dict(statistics=("s1", "s2"), alphas=(1.5, 2.0), sizes=(10, 30), betas=(0.0, 0.5), null_reps=500,
                 alt_reps=200, seed=7),
            "d79e4e8e32afe7470b5fcfc05cb2fb61d65331647b7136228455bcaf298d452b",
        ),
        # Mardia skewness and Jarque-Bera at their minimum size 4
        (
            dict(statistics=("skew", "jb", "s1"), alphas=(1.7, 2.0), sizes=(4, 40), betas=(0.3,), null_reps=300,
                 alt_reps=200, seed=8),
            "50422e5d8edb2d51f6ac0221eaadb4440b35e8955d739dc8acafeb93125dca79",
        ),
        # 400 replicates at n = 100 span chunks of 163, 163 and 74 rows
        (
            dict(statistics=("kurt", "hz", "s2"), alphas=(1.8,), sizes=(100,), betas=(0.5,), null_reps=200,
                 alt_reps=400, seed=9),
            "380a9c4ce55dbf321045f4935905dc31d1aacfb7df8dea337c2b2f109fb2744d",
        ),
    ],
    ids=["s1-s2-beta-0", "skew-jb-n-4", "n-100-three-chunks"],
)
def test_golden_power_csv(config, digest, tmp_path):
    """SHA-256 of the power CSV, taken with each replicate scored by the statistic's scalar function."""
    path = tmp_path / "power.csv"
    gs.power_curve_to_csv(run_power_study(PowerStudyConfig(**config), cache=QuantileCache()), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_degenerate_alternatives_are_counted_up_to_one_in_a_thousand(monkeypatch):
    seed, n, beta, reps = 21, 10, 0.5, 1000
    rho = (1.0 - beta) / (1.0 + beta)

    def first_values(ordinal, alpha):
        """The first coordinate of every alternative sample of one cell, drawn from the cell's streams."""
        spec = SubGaussianSpec.from_rho(alpha, rho)
        return np.array([sample_sub_gaussian(spec, n, RngStream(seed, (ordinal, j)))[0, 0] for j in range(reps)])

    # Exactly one Gaussian sample of cell 0 lies above the cut; many of the alpha = 1 cell do.
    cut = np.sort(first_values(0, 2.0))[-2]
    heavy = int(np.sum(first_values(1, 1.0) > cut))
    assert heavy > 1

    def flaky(sample):
        if sample[0, 0] > cut:
            raise DegenerateSampleError("flaky")
        return s1(sample).value

    monkeypatch.setattr(gs.mc, "_STATISTICS", dict(gs.mc._STATISTICS))
    gs.mc.register_statistic(
        "flaky", 2, flaky, test="test_bivariate_gaussian_s1", calibration=("s1", NullSpec.subgauss(2.0, 0.0))
    )
    common = dict(statistics=("s1", "flaky"), sizes=(n,), betas=(beta,), null_reps=200, alt_reps=reps, seed=seed)
    base, cell = run_power_study(PowerStudyConfig(alphas=(2.0,), **common), cache=QuantileCache())
    assert (base.degenerate, cell.degenerate) == (0, 1)
    # The other replicates score as S1 does; the degenerate one never rejects.
    assert round((base.power - cell.power) * reps) in (0, 1)
    message = rf"^{heavy} of {reps} alternative replicates were degenerate for statistic 'flaky' at \(n={n}, alpha=1.0,"
    with pytest.raises(DegenerateSampleError, match=message):
        run_power_study(PowerStudyConfig(alphas=(2.0, 1.0), **common), cache=QuantileCache())


@pytest.mark.parametrize("stat", ["s1", "kurt"])
def test_overflowed_alternative_draws_are_degenerate_replicates(stat):
    # an inf draw makes a row's S1 inf - inf and its whitening singular
    cfg = PowerStudyConfig(statistics=(stat,), alphas=(0.01,), sizes=(50,), betas=(0.5,), null_reps=200, alt_reps=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateSampleError, match=rf"for statistic '{stat}' at \(n=50, alpha=0\.01, beta=0\.5\)$"):
            run_power_study(cfg, cache=QuantileCache())


def test_overflowed_alternative_draws_are_dominant_entries_for_s2():
    # S2 takes an inf draw as a dominant entry, and no draw is NaN
    cfg = PowerStudyConfig(statistics=("s2",), alphas=(0.01,), sizes=(50,), betas=(0.5,), null_reps=200, alt_reps=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (cell,) = run_power_study(cfg, cache=QuantileCache())
    assert (cell.power, cell.degenerate) == (1.0, 0)


class TestAnalyze:
    def test_bivariate_pipeline(self, tmp_path):
        gen = RngStream(412).generator()
        series = gen.standard_normal((120, 2))
        p = tmp_path / "biv.csv"
        p.write_text("a,b\n" + "\n".join(f"{float(u)!r},{float(v)!r}" for u, v in series))
        cfg = gs.AnalyzeConfig(
            m=np.array([[0.2, 0.0], [0.0, 0.1]]),
            standardize_method="rolling-conditional-std",
            window=20,
            tests=("s1", "s2", "kurt"),
            mc=gs.TestConfig(reps=500, seed=413, cache=QuantileCache()),
        )
        report = gs.analyze(p, cfg)
        assert report["rows"] == 120
        assert report["var1"]["residual_rows"] == 119
        assert report["standardize"]["method"] == "rolling-conditional-std"
        assert [t["statistic"] for t in report["tests"]] == ["s1", "s2", "mardia-kurtosis"]
        import json

        json.dumps(report)  # must be serializable

    def test_univariate_pipeline_with_ci(self, tmp_path):
        x = sample_sas(StableSpec(1.8), 150, RngStream(414))
        p = tmp_path / "uni.csv"
        p.write_text("\n".join(repr(float(v)) for v in x))
        cfg = gs.AnalyzeConfig(
            tests=(),
            with_ci=True,
            grid_step=0.25,
            mc=gs.TestConfig(reps=500, seed=415, cache=QuantileCache()),
        )
        report = gs.analyze(p, cfg)
        assert report["tests"][0]["statistic"] == "greenwood"
        ci = report["ci"]["component1"]
        assert ci["lower"] <= ci["upper"] <= 2.0

    def test_unknown_test_rejected(self, tmp_path):
        p = tmp_path / "biv.csv"
        p.write_text("1.0,2.0\n2.0,1.0\n0.5,0.25\n")
        with pytest.raises(ParameterError):
            gs.analyze(p, gs.AnalyzeConfig(tests=("mystery",)))
