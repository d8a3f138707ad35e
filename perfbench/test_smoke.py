"""Smoke test of the benchmark on its tiny `smoke` workload (12x96, 2 simulations)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
END_TO_END = {"wall_s", "setup_s", "attempts_per_ns", "peak_rss_mb", "pass_share"}
BENCHMARK = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())


def bench(*extra):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "smoke", "--seed", "5", "--seconds", "1", *extra],
        capture_output=True, text=True, timeout=120,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def test_untimed_checks_pass_and_metrics_are_reported():
    code, details, result = bench("--trace", "0")
    assert code == 0, details["failures"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert details["host"]["seed"] == 5 and details["host"]["effective_threads"] >= 1


def test_traced_run_reports_every_layer():
    code, details, result = bench("--trace", "1")
    assert code == 0, details["failures"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert metrics["trace.flip_closure"]["value"] == pytest.approx(1.0, abs=0.03)
    # 8 quarters per sweep, each 1 shift + 1 add4 + 4 compacts, on one engine per thread
    threads = details["host"]["effective_threads"]
    assert metrics["bitkernels.calls_per_sweep"]["value"] == 48 * threads


def test_corrupted_adder_is_caught():
    code, details, result = bench("--trace", "0", "--corrupt-add4")
    assert code == 1
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["pass_share"]["value"] < 1.0
    failed = {f.split(":")[0] for f in details["failures"]}
    assert {"replay", "neighbor"} <= failed
