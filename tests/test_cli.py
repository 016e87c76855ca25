"""End-to-end runs of every CLI subcommand."""

import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from greenstat import ParameterError, RngStream, cli, mc
from greenstat.cli import build_parser, main
from greenstat.harness import DEFAULT_ALPHA_GRID, AnalyzeConfig, PowerStudyConfig, ingest_csv
from greenstat.mc import gaussianity_statistics, statistic_kinds


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize(
    "dist,extra,bivariate",
    [
        ("sas", ["--alpha", "1.5", "--sigma", "2.0"], False),
        ("pos-stable", ["--alpha", "1.2"], False),
        ("gauss2", ["--rho", "0.5"], True),
        ("subgauss", ["--alpha", "1.8", "--rho", "0.3"], True),
        ("chi2-1", [], False),
    ],
)
def test_sample_writes_csv(tmp_path, capsys, dist, extra, bivariate):
    out = tmp_path / "draws.csv"
    code, text, _ = run(
        capsys, "sample", "--dist", dist, *extra, "--n", "50", "--seed", "3", "--out", str(out)
    )
    assert code == 0 and "50" in text
    data = ingest_csv(out)
    assert data.shape == ((50, 2) if bivariate else (50,))
    if dist in ("pos-stable", "chi2-1"):
        assert data.min() > 0.0


def test_sample_round_trip_preserves_values(tmp_path, capsys):
    out = tmp_path / "draws.csv"
    run(capsys, "sample", "--dist", "sas", "--alpha", "1.5", "--n", "20", "--seed", "9", "--out", str(out))
    from greenstat import RngStream, StableSpec, sample_sas

    assert np.array_equal(ingest_csv(out), sample_sas(StableSpec(1.5), 20, RngStream(9)))


@pytest.mark.parametrize("dist,extra", [("gauss2", []), ("subgauss", ["--alpha", "1.8"])])
def test_sample_checks_the_variances_before_the_covariance(tmp_path, capsys, dist, extra):
    out = tmp_path / "draws.csv"
    code, text, err = run(capsys, "sample", "--dist", dist, *extra, "--var1", "-1", "--n", "3", "--out", str(out))
    assert (code, text, err) == (2, "", "error: variances must be non-negative\n") and not out.exists()


@pytest.mark.parametrize("rho", ["0.5", "0"])
@pytest.mark.parametrize("var", ["1e-200", "1e200"])
def test_sample_at_variances_whose_product_leaves_float64(tmp_path, capsys, var, rho):
    # var1 * var2 is 0 or inf; the draws are sqrt(var) times the Gaussian core, correlated by rho
    out = tmp_path / "draws.csv"
    argv = ["sample", "--dist", "gauss2", "--var1", var, "--var2", var, "--rho", rho, "--n", "50", "--seed", "3"]
    code, text, err = run(capsys, *argv, "--out", str(out))
    assert (code, err) == (0, "")
    r, z = float(rho), RngStream(3).generator().standard_normal((50, 2))
    core = np.column_stack([z[:, 0], r * z[:, 0] + np.sqrt(1.0 - r * r) * z[:, 1]])
    np.testing.assert_allclose(ingest_csv(out) / np.sqrt(float(var)), core, rtol=1e-12, atol=1e-12)


def test_beta_of_a_covariance_at_the_largest_floats(capsys):
    assert run(capsys, "stat", "--kind", "beta", "--cov", "1e308,0,1e308") == (0, "1\n", "")


def test_sample_below_unit_scale_refuses_a_correlation_above_one(tmp_path, capsys):
    out = tmp_path / "draws.csv"
    argv = ["sample", "--dist", "gauss2", "--var1", "1e-200", "--var2", "1e-200", "--rho", "2", "--n", "3"]
    code, text, err = run(capsys, *argv, "--out", str(out))
    assert (code, text, err) == (2, "", "error: covariance must be positive semidefinite\n") and not out.exists()


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6], ids=["1e-6", "1", "1e6"])
def test_beta_of_a_collinear_sample_at_any_scale(tmp_path, capsys, scale):
    # the sample covariance of y = -2.7 x is singular up to rounding, well inside the PSD
    # tolerance, so beta is 0 up to rounding (6.0e-17 at unit scale, as before)
    x = scale * RngStream(0).generator().standard_normal(1000)
    path = tmp_path / "collinear.csv"
    path.write_text("".join(f"{float(v)!r},{float(-2.7 * v)!r}\n" for v in x))
    code, text, err = run(capsys, "stat", "--kind", "beta", "--in", str(path))
    assert (code, err) == (0, "") and float(text) == pytest.approx(0.0, abs=1e-15)


def test_quantile_table_under_a_null_whose_draws_overflow(capsys):
    argv = ["quantile-table", "--stat", "s2", "--null", "subgauss", "--alpha", "0.03", "--n", "50"]
    code, text, err = run(capsys, *argv, "--levels", "0.95", "--reps", "1000")
    assert (code, err) == (0, "") and len(json.loads(text)["values"]) == 1


def test_stat_kinds(tmp_path, capsys):
    uni = tmp_path / "uni.csv"
    uni.write_text("1.0\n2.0\n")
    code, text, _ = run(capsys, "stat", "--kind", "greenwood", "--in", str(uni))
    assert code == 0
    assert float(text.strip()) == pytest.approx(5.0 / 9.0, abs=1e-12)

    biv = tmp_path / "biv.csv"
    biv.write_text("1.0,2.0\n-1.0,0.0\n")
    code, text, _ = run(capsys, "stat", "--kind", "s1", "--in", str(biv))
    assert float(text.strip()) == pytest.approx(0.625, abs=1e-12)
    code, text, _ = run(capsys, "stat", "--kind", "s2", "--in", str(biv))
    assert float(text.strip()) == pytest.approx(26.0 / 36.0, abs=1e-12)

    code, text, _ = run(capsys, "stat", "--kind", "beta", "--cov", "2,0,1")
    assert float(text.strip()) == pytest.approx(0.5, abs=1e-12)


def test_stat_prints_15_significant_digits(tmp_path, capsys):
    uni = tmp_path / "uni.csv"
    uni.write_text("1.0\n2.0\n3.0\n")
    bad_json = tmp_path / "bad.json"
    bad_json.write_text('{"alphas": [1.9,')
    latin1_json = tmp_path / "latin1.json"
    latin1_json.write_bytes('{"caf\xe9": 1}'.encode("latin-1"))
    csv = str(tmp_path / "power.csv")
    _, text, _ = run(capsys, "stat", "--kind", "greenwood", "--in", str(uni))
    assert text.strip() == f"{14.0 / 36.0:.15g}"


def test_quantile_table_cache_schema(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    code, text, _ = run(
        capsys,
        "quantile-table",
        "--stat", "s1", "--null", "gauss", "--n", "30",
        "--levels", "0.9,0.95,0.99", "--reps", "300", "--seed", "7",
        "--cache-dir", str(cache_dir),
    )
    assert code == 0
    payload = json.loads(text)
    assert set(payload) == {"stat_kind", "null", "n", "B", "seed", "levels", "values", "engine_version"}
    assert payload["null"] == {"kind": "subgauss", "alpha_star": 2.0, "rho": 0.0}
    assert payload["values"] == sorted(payload["values"])
    # the cache holds the sorted replicates of the simulation key, not the table
    files = list(cache_dir.iterdir())
    assert len(files) == 1
    header, _, body = files[0].read_bytes().partition(b"\n")
    stored = json.loads(header)
    key_fields = {"stat_kind", "null", "n", "B", "seed", "engine_version"}
    assert set(stored) == key_fields
    assert {k: stored[k] for k in key_fields} == {k: payload[k] for k in key_fields}
    replicates = list(np.frombuffer(body, "<f8"))
    assert len(replicates) == 300 and replicates == sorted(replicates)
    assert list(np.quantile(replicates, payload["levels"])) == payload["values"]


def test_test_uni_json(tmp_path, capsys):
    from greenstat import RngStream, StableSpec, sample_sas

    path = tmp_path / "x.csv"
    x = sample_sas(StableSpec(1.2), 100, RngStream(31))
    path.write_text("\n".join(repr(float(v)) for v in x))
    code, text, _ = run(
        capsys,
        "test-uni", "--in", str(path), "--alpha-star", "2", "--alt", "less",
        "--level", "0.05", "--reps", "500", "--seed", "5", "--json",
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["decision"] == "reject"
    assert payload["cache_key"]
    assert payload["region"][0][1] == 1.0


def test_test_biv_variants(tmp_path, capsys):
    from greenstat import RngStream, SubGaussianSpec, sample_sub_gaussian

    path = tmp_path / "xy.csv"
    xy = sample_sub_gaussian(SubGaussianSpec(1.5), 120, RngStream(32))
    path.write_text("\n".join(f"{float(a)!r},{float(b)!r}" for a, b in xy))

    for stat in ("s1", "s2"):
        code, text, _ = run(
            capsys,
            "test-biv", "--in", str(path), "--stat", stat,
            "--reps", "500", "--seed", "5", "--json",
        )
        assert code == 0 and json.loads(text)["statistic"] == stat

    code, text, _ = run(
        capsys,
        "test-biv", "--in", str(path), "--stat", "s1", "--alpha-star", "1.5",
        "--alt", "two-sided", "--reps", "500", "--seed", "5", "--json",
    )
    assert json.loads(text)["null"]["alpha_star"] == 1.5

    code, text, _ = run(
        capsys,
        "test-biv", "--in", str(path), "--stat", "kurt", "--critical", "asymptotic", "--json",
        "--reps", "500",
    )
    assert json.loads(text)["critical_source"] == "asymptotic"
    code, text, _ = run(capsys, "test-biv", "--in", str(path), "--stat", "kurt", "--critical", "asymptotic")
    assert code == 0 and "  critical    = 1.64485 (asymptotic)\n" in text

    code, _, err = run(capsys, "test-biv", "--in", str(path), "--stat", "s2", "--alpha-star", "1.5")
    assert code == 2 and "S2" in err


@pytest.mark.parametrize("stat", ["s1", "s2"])
def test_test_biv_rejects_asymptotic_critical_for_s1_s2(tmp_path, capsys, stat):
    path = tmp_path / "xy.csv"
    xy = np.random.default_rng(34).standard_normal((40, 2))
    path.write_text("\n".join(f"{float(a)!r},{float(b)!r}" for a, b in xy))
    code, text, err = run(capsys, "test-biv", "--in", str(path), "--stat", stat, "--critical", "asymptotic")
    assert code == 2 and text == "" and "asymptotic" in err


def test_test_biv_alt_needs_alpha_star(tmp_path, capsys):
    path = tmp_path / "xy.csv"
    xy = np.random.default_rng(36).standard_normal((40, 2))
    path.write_text("\n".join(f"{float(a)!r},{float(b)!r}" for a, b in xy))
    base = ("test-biv", "--in", str(path), "--stat", "s1", "--reps", "200", "--json")
    for alt in ("greater", "two-sided"):
        code, text, err = run(capsys, *base, "--alt", alt)
        assert code == 2 and text == "" and "--alt" in err and "--alpha-star" in err
    code, default, _ = run(capsys, *base)
    assert code == 0
    code, less, _ = run(capsys, *base, "--alt", "less")
    assert code == 0 and less == default and json.loads(less)["alternative"] == "greater"


def test_uni_rejects_too_few_replicates(tmp_path, capsys):
    path = tmp_path / "x.csv"
    path.write_text("\n".join(repr(float(v)) for v in np.random.default_rng(35).standard_normal(50)))
    code, text, err = run(capsys, "test-uni", "--in", str(path), "--alpha-star", "1.8", "--reps", "3")
    assert code == 2 and text == "" and "at least 100" in err


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_workers_below_one_exit_2_even_on_a_warm_cache(tmp_path, capsys, workers):
    path = tmp_path / "x.csv"
    path.write_text("\n".join(repr(float(v)) for v in np.random.default_rng(36).standard_normal(50)))
    argv = ["test-uni", "--in", str(path), "--alpha-star", "1.8", "--reps", "200", "--cache-dir", str(tmp_path / "c")]
    assert run(capsys, *argv)[0] == 0
    code, text, err = run(capsys, *argv, "--workers", workers)
    assert code == 2 and text == "" and err == f"error: workers must be at least 1, got {workers}\n"


def test_ci_alpha_json(tmp_path, capsys):
    from greenstat import RngStream, StableSpec, sample_sas

    path = tmp_path / "x.csv"
    x = sample_sas(StableSpec(1.8), 120, RngStream(33))
    path.write_text("\n".join(repr(float(v)) for v in x))
    code, text, _ = run(
        capsys,
        "ci-alpha", "--in", str(path), "--level", "0.95", "--grid", "0.2",
        "--reps", "300", "--seed", "5", "--json",
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["lower"] <= payload["upper"] <= 2.0


def test_power_flags_and_csv(tmp_path, capsys):
    out = tmp_path / "power.csv"
    code, text, _ = run(
        capsys,
        "power", "--stats", "s1", "--alphas", "1.8,2.0", "--sizes", "20",
        "--betas", "1.0", "--null-reps", "300", "--alt-reps", "100",
        "--seed", "11", "--out-csv", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("statistic,n,alpha")
    assert len(lines) == 3


def test_power_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "statistics": ["s2"],
                "alphas": [2.0],
                "sizes": [15],
                "betas": [0.0],
                "null_reps": 200,
                "alt_reps": 100,
                "seed": 12,
            }
        )
    )
    out = tmp_path / "power.csv"
    code, _, _ = run(capsys, "power", "--config", str(cfg_path), "--out-csv", str(out))
    assert code == 0
    assert len(out.read_text().strip().splitlines()) == 2


def test_power_config_file_with_a_byte_order_mark(tmp_path, capsys):
    settings = {"statistics": ["s2"], "alphas": [2.0], "sizes": [15], "betas": [0.0], "null_reps": 200, "alt_reps": 100}
    plain, bom = tmp_path / "plain.json", tmp_path / "bom.json"
    plain.write_text(json.dumps(settings))
    bom.write_bytes(b"\xef\xbb\xbf" + json.dumps(settings).encode())
    for cfg_path in (plain, bom):
        code, _, err = run(capsys, "power", "--config", str(cfg_path), "--out-csv", str(tmp_path / f"{cfg_path.stem}.csv"))
        assert (code, err) == (0, "")
    assert (tmp_path / "bom.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_power_config_keys_are_config_fields(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "power.csv"
    cfg_path.write_text(json.dumps({"statistics": ["s1"], "alpha": [1.9], "sizes": [15]}))
    code, _, err = run(capsys, "power", "--config", str(cfg_path), "--out-csv", str(out))
    assert code == 2 and "'alpha'" in err and not out.exists()

    # absent keys take the config defaults, the seed falls back to --seed
    settings = {"statistics": ["s1"], "alphas": [2.0], "sizes": [15], "betas": [1.0], "null_reps": 200, "alt_reps": 100}
    cfg_path.write_text(json.dumps(settings))
    code, _, _ = run(capsys, "power", "--config", str(cfg_path), "--seed", "9", "--level", "0.5", "--out-csv", str(out))
    assert code == 0
    header, row = out.read_text().strip().splitlines()
    assert row.startswith("s1,15,2.0,1.0,") and row.endswith(",100,200,9")
    assert float(row.split(",")[4]) <= 0.2  # level 0.05 from the defaults, not --level 0.5


def test_analyze_full_pipeline(tmp_path, capsys):
    gen = np.random.default_rng(13)
    series = gen.standard_normal((80, 2))
    path = tmp_path / "series.csv"
    path.write_text("u,v\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in series))
    code, text, _ = run(
        capsys,
        "analyze", "--in", str(path), "--m", "0.2,0,0,0.1",
        "--standardize", "rolling:20", "--tests", "s1,kurt",
        "--reps", "300", "--seed", "4", "--json",
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["var1"]["residual_rows"] == 79
    assert [t["statistic"] for t in payload["tests"]] == ["s1", "mardia-kurtosis"]


def analyze_inputs(path):
    """A VAR(1) series driven by sub-Gaussian innovations and a SaS(1.8) series, written as CSV."""
    from greenstat import RngStream, StableSpec, SubGaussianSpec, Var1Model, sample_sas, sample_sub_gaussian

    m = np.array([[0.2927, 0.0], [0.0, 0.21]])
    series = Var1Model(m).simulate(sample_sub_gaussian(SubGaussianSpec(1.9, np.array([[1.0, 0.3], [0.3, 1.0]])), 120, RngStream(51)))
    biv, uni = path / "biv.csv", path / "uni.csv"
    biv.write_text("\n".join(f"{float(a)!r},{float(b)!r}" for a, b in series))
    uni.write_text("\n".join(repr(float(v)) for v in sample_sas(StableSpec(1.8), 100, RngStream(52))))
    return biv, uni


# SHA-256 of the analyze --json report (the input path cut to its file name)
# of each input of ``analyze_inputs``, at --reps 300 --seed 0, engine version 3.
ANALYZE_REPORT_DIGESTS = {
    "biv.csv": "f8c4dbb72b8d136037a89586cc94a93e44a3fbb85d5a09c8f4fd164c58eb3063",
    "uni.csv": "214b51376f1d3e6c64fbbd46c2d6a7a7b5a93dbda84a501fa6cc7fd755a11d48",
}


@pytest.mark.parametrize("name", sorted(ANALYZE_REPORT_DIGESTS))
def test_analyze_report_digest(tmp_path, capsys, name):
    path = dict((p.name, p) for p in analyze_inputs(tmp_path))[name]
    extra = []
    if name == "biv.csv":
        extra = ["--m", "0.2927,0,0,0.21", "--standardize", "rolling:20", "--tests", "s1,s2,kurt"]
    digests = []
    for _ in range(2):  # cold, then served by the cache directory
        code, text, _ = run(
            capsys, "analyze", "--in", str(path), *extra, "--reps", "300", "--seed", "0", "--json",
            "--cache-dir", str(tmp_path / "cache"),
        )
        assert code == 0
        report = json.loads(text)
        report["input"] = os.path.basename(report["input"])
        digests.append(hashlib.sha256(json.dumps(report, indent=2, sort_keys=True).encode()).hexdigest())
    assert digests == [ANALYZE_REPORT_DIGESTS[name]] * 2


def test_analyze_human_output(tmp_path, capsys):
    path = tmp_path / "series.csv"
    path.write_text("\n".join(repr(float(v)) for v in np.random.default_rng(14).standard_normal(60)))
    code, text, _ = run(capsys, "analyze", "--in", str(path), "--reps", "300", "--seed", "4")
    assert code == 0 and "greenwood" in text
    pairs = tmp_path / "pairs.csv"
    series = np.random.default_rng(14).standard_normal((60, 2))
    pairs.write_text("\n".join(f"{float(a)!r},{float(b)!r}" for a, b in series))
    code, text, _ = run(capsys, "analyze", "--in", str(pairs), "--m", "0.2,0,0,0.1", "--tests", "s1", "--reps", "300")
    assert code == 0 and "  VAR(1) residuals: 59 rows\n" in text


def test_analyze_checks_test_names_on_univariate_input(tmp_path, capsys):
    path = tmp_path / "series.csv"
    path.write_text("\n".join(repr(float(v)) for v in np.random.default_rng(15).standard_normal(60)))
    code, text, err = run(capsys, "analyze", "--in", str(path), "--tests", "s1,bogus", "--reps", "300")
    assert code == 2 and text == "" and "bogus" in err


def test_statistic_names_come_from_one_registry():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))

    def choices(command, dest):
        return set(next(a for a in sub.choices[command]._actions if a.dest == dest).choices)

    def accepted(make):
        names = set()
        for name in (*statistic_kinds(), "bogus"):
            try:
                make(name)
            except ParameterError:
                continue
            names.add(name)
        return names

    registry = set(gaussianity_statistics())
    assert choices("test-biv", "stat") == registry
    assert accepted(lambda name: AnalyzeConfig(tests=(name,))) == registry
    assert accepted(lambda name: PowerStudyConfig(statistics=(name,), betas=(0.5,))) == registry
    assert choices("quantile-table", "stat") == set(statistic_kinds())
    assert choices("quantile-table", "stat") & registry == registry


def test_errors_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,nope\n")
    code, _, err = run(capsys, "stat", "--kind", "greenwood", "--in", str(bad))
    assert code == 2 and "line 2" in err
    code, _, err = run(capsys, "test-uni", "--in", str(bad), "--alpha-star", "2")
    assert code == 2


def test_input_errors_exit_2_with_a_message(tmp_path, capsys):
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes("caf\xe9\n1.0\n".encode("latin-1"))
    uni = tmp_path / "uni.csv"
    uni.write_text("1.0\n2.0\n3.0\n")
    biv = tmp_path / "biv.csv"
    biv.write_text("1.0,2.0\n3.0,5.0\n4.0,4.0\n")
    bad_json = tmp_path / "bad.json"
    bad_json.write_text('{"alphas": [1.9,')
    latin1_json = tmp_path / "latin1.json"
    latin1_json.write_bytes('{"caf\xe9": 1}'.encode("latin-1"))
    csv = str(tmp_path / "power.csv")
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    configs = {
        "sizes": ({"sizes": [30.5]}, "sample sizes must be integers, got (30.5,)"),
        "null_reps": ({"null_reps": 200.5}, "null_reps and alt_reps must be integers of at least 100, got 200.5 and 1000"),
        "alt_reps": ({"alt_reps": "100"}, "null_reps and alt_reps must be integers of at least 100, got 10000 and '100'"),
        "statistics": ({"statistics": "s1"}, "statistics, alphas, sizes and betas must all be non-empty lists"),
        "names": ({"statistics": [["s1"]]}, "unknown Gaussianity statistic ['s1']"),
        "alphas": ({"alphas": ["1.9"]}, "alpha values must lie in (0, 2], got '1.9'"),
        "level": ({"level": "0.05"}, "level must lie in (0, 1), got '0.05'"),
        "alphas-true": ({"alphas": [True]}, "alpha values must lie in (0, 2], got True"),
        "betas-false": ({"betas": [False]}, "beta values must lie in [0, 1], got False"),
        "seed-true": ({"seed": True}, "seed must be an integer in [0, 2**64), got True"),
        "sizes-true": ({"sizes": [True]}, "sample sizes must be integers, got (True,)"),
        "list": (["alphas", [1.9]], "must hold a JSON object of power-study settings"),
    }
    for name, (settings, _) in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(settings))
    cases = [
        (["stat", "--kind", "greenwood"], "stat --kind greenwood needs --in FILE"),
        (["stat", "--kind", "beta", "--cov", "1,2"], "--cov needs exactly three values R11,R12,R22, got 2"),
        (["stat", "--kind", "beta"], "stat --kind beta needs --cov a,b,c or --in FILE"),
        (["stat", "--kind", "s1", "--in", str(uni)], "the s1 statistic needs a 2-column input file"),
        (["analyze", "--in", str(uni), "--m", "0.2,0,0,0.2"], "VAR(1) filtering requires two-column input"),
        (["analyze", "--in", str(uni), "--standardize", "rolling:abc"], "'rolling:abc' must be an integer"),
        (["analyze", "--in", str(uni), "--standardize", "rollingx"], "unknown standardization 'rollingx'"),
        (["analyze", "--in", str(biv), "--m", "0.2,0,0"], "--m expects four comma-separated numbers a,b,c,d (row major)"),
        (["test-uni", "--in", str(biv), "--alpha-star", "2"], "test-uni expects a one-column input file"),
        (["ci-alpha", "--in", str(biv)], "ci-alpha expects a one-column input file"),
        (["test-biv", "--in", str(uni), "--stat", "s1"], "test-biv expects a two-column input file"),
        (["stat", "--kind", "beta", "--in", str(uni)], "beta from data needs a two-column input file"),
        (["stat", "--kind", "beta", "--cov", "1e-14,1e-13,1e-14"], "covariance must be positive semidefinite"),
        (["quantile-table", "--stat", "greenwood", "--null", "sas", "--n", "50", "--levels", "0.95"], "--null sas needs --alpha"),
        (["quantile-table", "--stat", "s1", "--null", "subgauss", "--n", "50", "--levels", "0.95"], "--null subgauss needs --alpha"),
        (["test-uni", "--in", str(latin1), "--alpha-star", "2"], f"{latin1}: not UTF-8 text"),
        (["stat", "--kind", "greenwood", "--in", str(latin1)], f"{latin1}: not UTF-8 text"),
        (["power", "--config", str(bad_json), "--out-csv", csv], f"{bad_json}: not UTF-8 JSON: Expecting value"),
        (["power", "--config", str(latin1_json), "--out-csv", csv], f"{latin1_json}: not UTF-8 JSON: 'utf-8' codec"),
        (
            ["test-uni", "--in", str(uni), "--alpha-star", "2", "--reps", "100", "--cache-dir", str(afile / "c")],
            f"[Errno 20] Not a directory: '{afile / 'c'}'",
        ),
        *(
            (["power", "--config", str(tmp_path / f"{name}.json"), "--out-csv", csv], message)
            for name, (_, message) in configs.items()
        ),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: ") and message in err, argv


def test_comma_floats_names_the_bad_list(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["quantile-table", "--stat", "greenwood", "--null", "gauss", "--n", "20", "--levels", "0.5,x"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --levels: expected comma-separated numbers, got '0.5,x'\n")


def test_comma_ints_names_the_bad_list(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["power", "--sizes", "1,x", "--out-csv", str(tmp_path / "p.csv")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --sizes: expected comma-separated integers, got '1,x'\n"
    )


def write_pairs(path, seed, rows):
    series = np.random.default_rng(seed).standard_normal((rows, 2))
    path.write_text("\n".join(f"{float(a)!r},{float(b)!r}" for a, b in series))


def test_mc_analyze_does_not_import_scipy_stats(tmp_path):
    path = tmp_path / "pairs.csv"
    write_pairs(path, 16, 60)
    script = (
        "import sys\n"
        "import greenstat.cli\n"
        f"code = greenstat.cli.main(['analyze', '--in', {str(path)!r}, '--tests', 's1,kurt', '--reps', '200'])\n"
        "print(code, 'scipy.stats' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.splitlines()[-1] == "0 False"


@pytest.mark.parametrize(
    "stat,critical",
    [("kurt", 1.6448536269514722), ("skew", 9.487729036781154), ("jb", 11.070497693516351), ("hz", 0.8622299342625451)],
)
def test_asymptotic_criticals_are_unchanged(tmp_path, capsys, stat, critical):
    path = tmp_path / "pairs.csv"
    write_pairs(path, 16, 45)
    code, text, _ = run(capsys, "test-biv", "--in", str(path), "--stat", stat, "--critical", "asymptotic", "--json")
    assert code == 0 and json.loads(text)["critical"] == critical


@pytest.mark.parametrize("settings", [["--workers", "0", "--reps", "1"], ["--seed", "-5"], ["--workers", "0"]])
def test_asymptotic_criticals_reject_the_monte_carlo_settings_mc_rejects(tmp_path, capsys, settings):
    path = tmp_path / "pairs.csv"
    write_pairs(path, 16, 45)
    argv = ["test-biv", "--in", str(path), "--stat", "kurt", *settings, "--critical"]
    code, out, err = run(capsys, *argv, "mc")
    assert (code, out) == (2, "") and err.startswith("error: ")
    assert run(capsys, *argv, "asymptotic") == (code, out, err)


# Help, usage and parse errors, pinned byte for byte in cli_usage.json.  Rewrite
# that file with ``PYTHONPATH=src python tests/test_cli.py`` only when a change to them is meant.
USAGE_FIXTURE = os.path.join(os.path.dirname(__file__), "cli_usage.json")
USAGE_ARGV = [
    [],
    ["--help"],
    *([command, "--help"] for command in ("sample", "stat", "quantile-table", "test-uni", "test-biv", "ci-alpha", "power", "analyze")),
    ["frobnicate"],
    ["analyze"],
    ["sample", "--n", "5"],
    ["stat", "--kind", "bogus"],
    ["analyze", "--in", "x.csv", "--bogus"],
    ["--bogus", "analyze", "--in", "x.csv"],
    ["--bogus", "analyze"],
    ["test-biv", "--in", "x.csv", "--stat", "s1", "--rho", "0.5"],
]


def parse_outcome(parse, argv):
    """Exit code, stdout and stderr of an argparse call that exits, as argparse prints them."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parse(argv)
            code = None
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def usage_outcomes():
    return [parse_outcome(main, argv) for argv in USAGE_ARGV]


def test_help_and_usage_errors_are_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with open(USAGE_FIXTURE) as fh:
        pinned = json.load(fh)
    if pinned["python"] != list(sys.version_info[:2]):
        pytest.skip(f"argparse formats help differently before and after Python {pinned['python']}")
    assert usage_outcomes() == pinned["outcomes"]


def test_usage_matches_the_full_parser(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for argv in USAGE_ARGV:
        assert parse_outcome(main, argv) == parse_outcome(build_parser().parse_args, argv)


# One valid argv per subcommand, then argv that argparse's subcommand handling must treat as the full parser does.
PARSE_ARGV = [
    ["sample", "--dist", "sas", "--n", "5", "--out", "o.csv"],
    ["stat", "--kind", "beta", "--cov", "1,0.5,2"],
    ["quantile-table", "--stat", "greenwood", "--null", "sas", "--alpha", "1.8", "--n", "50", "--levels", "0.05,0.95"],
    ["test-uni", "--in", "x.csv", "--alpha-star", "1.9", "--json"],
    ["test-biv", "--in", "x.csv", "--stat", "s1", "--critical", "asymptotic", "--reps", "200"],
    ["ci-alpha", "--in", "x.csv", "--grid", "0.05", "--cache-dir", "c"],
    ["power", "--stats", "s1", "--sizes", "10,30", "--out-csv", "p.csv"],
    ["analyze", "--in", "x.csv", "--m", "0.2,0,0,0.1", "--standardize", "rolling:20", "--tests", "s1,s2,kurt", "--json"],
]
VALID_ARGV = len(PARSE_ARGV)
PARSE_ARGV += [
    ["analyze", "--he"],
    ["analyze", "--in=x.csv"],
    ["analyze", "--i", "x.csv"],
    ["analyze", "--", "--in", "x.csv"],
    ["analyze", "--in", "x.csv", "--"],
    ["analyze", "--in", "a.csv", "--in", "b.csv"],
    ["analyze", "--in", "x.csv", "extra"],
    ["analyze", "--in", "x.csv", "stat"],
    ["analyze", "--in", "x.csv", "--m", "-1,0,0,1"],
    ["analyze", "--in", "x.csv", "-h", "--json"],
    ["stat", "--kind", "greenwood", "--help", "--in", "x.csv"],
    ["power", "--sizes", "1,x", "--out-csv", "p.csv"],
]


def parsed(parse, argv):
    """The outcome of a parse as :func:`parse_outcome` gives it, and the namespace it returned."""
    result = {}
    outcome = parse_outcome(lambda a: result.setdefault("namespace", parse(a)), argv)
    return outcome, result.get("namespace")


def test_parse_matches_the_full_parser(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for argv in PARSE_ARGV + USAGE_ARGV:
        assert parsed(cli._parse, argv) == parsed(build_parser().parse_args, argv), argv
    for argv in PARSE_ARGV[:VALID_ARGV]:
        assert parsed(cli._parse, argv)[1].command == argv[0]


def test_a_second_parse_builds_no_parser(monkeypatch):
    cli._parse(PARSE_ARGV[0])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in PARSE_ARGV[:VALID_ARGV]:
        cli._parse(argv)
        assert built == [], argv


def test_a_statistic_registered_later_is_a_valid_choice(monkeypatch):
    argv = ["stat", "--kind", "late", "--in", "x.csv"]
    cli._parse(PARSE_ARGV[0])  # keeps the parser of the registry as it stands
    monkeypatch.setattr(mc, "_STATISTICS", dict(mc._STATISTICS))
    greenwood = mc._statistic("greenwood")
    mc.register_statistic("late", 1, greenwood.func, greenwood.rows)
    args = cli._parse(argv)
    assert (args.kind, args.infile) == ("late", "x.csv")
    monkeypatch.undo()
    assert parse_outcome(cli._parse, argv)["code"] == 2


def test_commands_leave_the_shared_default_lists_alone(tmp_path, capsys, monkeypatch):
    """Every parse returns the one parser's default lists, so a command that changed one would change the next parse."""
    parse, snapshots = cli._parse, []

    def recording_parse(argv):
        args = parse(argv)
        snapshots.append(copy.deepcopy(vars(args)))
        return args

    monkeypatch.setattr(cli, "_parse", recording_parse)
    write_pairs(tmp_path / "pairs.csv", 17, 60)
    analyze = ["analyze", "--in", str(tmp_path / "pairs.csv"), "--reps", "200"]
    power = ["power", "--sizes", "10", "--null-reps", "200", "--alt-reps", "100", "--out-csv", str(tmp_path / "p.csv")]
    for argv in (analyze, power):
        assert run(capsys, *argv)[0] == run(capsys, *argv)[0] == 0
    assert snapshots[0] == snapshots[1] == vars(build_parser().parse_args(analyze))
    assert snapshots[2] == snapshots[3] == vars(build_parser().parse_args(power))
    assert snapshots[0]["tests"] == ["s1", "s2"] and snapshots[2]["alphas"] == list(DEFAULT_ALPHA_GRID)


def test_analyze_ci_on_a_two_column_file_is_one_interval_per_component(tmp_path, capsys):
    from greenstat import TestConfig, ci_alpha

    path = tmp_path / "biv.csv"
    write_pairs(path, 37, 60)
    xy = np.random.default_rng(37).standard_normal((60, 2))
    argv = ["analyze", "--in", str(path), "--tests", "s1", "--ci", "--grid", "0.25", "--reps", "200", "--seed", "2"]
    code, text, err = run(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    cfg = TestConfig(reps=200, seed=2)
    intervals = {f"component{i + 1}": ci_alpha(xy[:, i], 0.95, 0.25, cfg).to_dict() for i in range(2)}
    assert json.loads(text)["ci"] == json.loads(json.dumps(intervals))
    code, text, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert text.splitlines()[-2:] == [
        f"  {name}: 95% CI for alpha = [{ci['lower']:.2f}, {ci['upper']:.2f}]" for name, ci in intervals.items()
    ]


def test_analyze_standardize_global_divides_by_the_mean_absolute_value(tmp_path, capsys):
    from greenstat import greenwood

    x = np.random.default_rng(38).standard_normal(60)
    path = tmp_path / "uni.csv"
    path.write_text("\n".join(map(repr, x.tolist())))
    code, text, err = run(capsys, "analyze", "--in", str(path), "--standardize", "global", "--reps", "200", "--json")
    assert (code, err) == (0, "")
    report = json.loads(text)
    assert report["standardize"] == {"method": "global-scale", "window": None}
    assert report["tests"][0]["observed"] == greenwood(x / np.mean(np.abs(x))).value
    code, text, err = run(capsys, "analyze", "--in", str(path), "--standardize", "global", "--reps", "200")
    assert (code, err) == (0, "") and "  standardization: global-scale\n" in text


def test_stat_beta_from_a_two_column_file_is_the_ratio_of_its_covariance(tmp_path, capsys):
    from greenstat import beta_ratio

    path = tmp_path / "biv.csv"
    write_pairs(path, 40, 50)
    xy = np.random.default_rng(40).standard_normal((50, 2))
    centered = xy - xy.mean(axis=0)
    code, text, err = run(capsys, "stat", "--kind", "beta", "--in", str(path))
    assert (code, err) == (0, "")
    assert text == f"{beta_ratio(centered.T @ centered / 50):.15g}\n"


def test_quantile_table_under_the_chi2_1_null(capsys):
    from greenstat import NullSpec, QuantileCache

    argv = ["quantile-table", "--stat", "greenwood", "--null", "chi2-1", "--n", "50", "--levels", "0.05,0.95"]
    code, text, err = run(capsys, *argv, "--reps", "200")
    assert (code, err) == (0, "")
    table = QuantileCache().get_or_compute("greenwood", NullSpec.chi2_one(), 50, (0.05, 0.95), 200, 0)
    assert json.loads(text) == json.loads(json.dumps(table.to_payload()))


def test_quantile_table_with_an_empty_cache_dir_writes_no_file(tmp_path, capsys, monkeypatch):
    from greenstat import NullSpec, QuantileCache

    monkeypatch.chdir(tmp_path)
    argv = ["quantile-table", "--stat", "greenwood", "--null", "sas", "--alpha", "1.5", "--n", "20", "--levels", "0.5"]
    code, text, err = run(capsys, *argv, "--reps", "150", "--cache-dir", "")
    assert (code, err) == (0, "") and list(tmp_path.iterdir()) == []
    table = QuantileCache().get_or_compute("greenwood", NullSpec.sas(1.5), 20, (0.5,), 150, 0)
    assert json.loads(text) == json.loads(json.dumps(table.to_payload()))


def test_ci_alpha_text_output(tmp_path, capsys):
    from greenstat import RngStream, StableSpec, TestConfig, ci_alpha, sample_sas

    x = sample_sas(StableSpec(1.8), 80, RngStream(41))
    path = tmp_path / "uni.csv"
    path.write_text("\n".join(map(repr, x.tolist())))
    code, text, err = run(capsys, "ci-alpha", "--in", str(path), "--grid", "0.25", "--reps", "200", "--seed", "3")
    assert (code, err) == (0, "")
    interval = ci_alpha(x, 0.95, 0.25, TestConfig(reps=200, seed=3))
    assert text == (
        f"95% confidence interval for the stability index: [{interval.lower:.2f}, {interval.upper:.2f}] (grid step 0.25)\n"
    )


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    with open(USAGE_FIXTURE, "w") as fh:
        json.dump({"python": list(sys.version_info[:2]), "outcomes": usage_outcomes()}, fh, indent=1)
        fh.write("\n")
