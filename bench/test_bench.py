"""Tests of the benchmark itself, in smoke mode: ``python3 -m pytest -q bench``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(workload: str, trace: int, cwd: str = ROOT, script: str = os.path.join(BENCH_DIR, "run.py")):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd + ["--smoke"], cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["ci-sweep", "power-study", "analyze-warm"])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    report = json.loads(report_line.removeprefix("report: "))
    assert report["failed_ratio"] == 0.0 and report["digests"]
    assert len(report["host"]["ref_s"]) == 2
    if trace:
        assert report["deterministic_counts"]["rng.streams"] > 0
    else:
        assert result["metrics"]["work_per_s"]["value"] > 0
        assert len(report["setup_runs_s"]) == run.SETUP_RUNS
        assert result["metrics"]["setup_s"]["value"] in report["setup_runs_s"]
        if workload == "analyze-warm":
            assert report["analyze.warm_tail_s"]["samples"] >= 11
            assert report["analyze.warm_tail_s"]["value"] is not None
        if workload == "power-study":
            assert report["power.workers_peak_rss_mb"]["value"] > 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("ci-sweep", 0, cwd=str(tmp_path), script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_process_age_counts_from_process_start():
    t0 = run.process_age_s()
    time.sleep(0.05)
    assert 0.04 < run.process_age_s() - t0 < 1.0
    assert 0.0 < t0 < time.clock_gettime(time.CLOCK_BOOTTIME)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail([1.0] * 10)["value"] is None
    t = run.tail([float(v) for v in range(1, 21)])
    assert t == {"value": 10.0, "unit": "s", "percentile": 50.0, "samples": 20}
    assert sum(v > t["value"] for v in range(1, 21)) == 10


def test_tracer_restores_every_name_and_fails_on_a_missing_one(monkeypatch):
    run.import_greenstat()
    from greenstat import mc, statistics

    import tracer

    before = (statistics.greenwood, mc.simulate_statistic, mc.statistic_function("hz"))
    t = tracer.Tracer()
    t.install()
    assert statistics.greenwood is not before[0] and mc.statistic_function("hz") is not before[2]
    t.uninstall()
    assert (statistics.greenwood, mc.simulate_statistic, mc.statistic_function("hz")) == before

    monkeypatch.delattr(statistics, "s2")
    t = tracer.Tracer()
    with pytest.raises(LookupError, match="s2"):
        t.install()
    t.uninstall()
    assert statistics.greenwood is before[0]
