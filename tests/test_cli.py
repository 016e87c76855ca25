"""End-to-end runs of every CLI subcommand."""

import argparse
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from greenstat import ParameterError
from greenstat.cli import build_parser, main
from greenstat.harness import AnalyzeConfig, PowerStudyConfig, ingest_csv
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
# of each input of ``analyze_inputs``, at --reps 300 --seed 0.
ANALYZE_REPORT_DIGESTS = {
    "biv.csv": "fc52f275838605b2c5d65d738bb1e8d7dcb0fd4c3cc06efaf59edb899cad30de",
    "uni.csv": "225b4f8991627229f21c69674ed532674db4174b980cba62ab10a70e77be9d7b",
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
