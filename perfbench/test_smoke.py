"""Smoke test of the benchmark at tiny sizes: schema only, no timing gate.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "sweep": lambda seed: run.sweep(seed, experiments=3, v_est=(0.95, 0.96, 0.01)),
    "curves": lambda seed: run.curves(seed, width=0.01055),
    "ingest": lambda seed: run.ingest(seed, rows=4, v_est=(0.95, 1.0, 0.05)),
}


def test_benchmark_json_matches_the_runner():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_schema(name, trace):
    result = run.run(TINY[name](seed=7), seconds=0.01, trace=trace, setup_runs=1)
    assert result.correct, result.problems
    assert result.attempted >= (2 if trace else 1)
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert [(k, unit) for k, (_, unit) in result.metrics.items()] == list(expected)
    assert all(math.isfinite(value) for value, _ in result.metrics.values())
    if not trace:
        # items_per_s divides by wall_s - setup_s, which tiny inputs leave
        # within the timing noise, so only its finiteness is checked here
        assert all(result.metrics[k][0] > 0 for k in ("setup_s", "wall_s", "peak_rss_mb"))


def test_trace_separates_the_layers():
    sweep = run.run(TINY["sweep"](seed=1), seconds=0.01, trace=True, setup_runs=1).metrics
    curves = run.run(TINY["curves"](seed=1), seconds=0.01, trace=True, setup_runs=1).metrics
    assert sweep["montecarlo.experiments"][0] == 6
    assert sweep["bayes.logprob_cache_hit_frac"][0] > 0.5
    assert sweep["fisher.repeat_frac"][0] > 0.5
    assert curves["bayes.posterior.calls"][0] == curves["bayes.moment_set.calls"][0] == 0
    assert curves["cli.rows_emitted"][0] == 106 * 4


def test_command_line_prints_one_json_result():
    done = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "curves", "--seed", "3",
         "--seconds", "0.01", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}


def test_refuses_to_run_without_the_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in run.BENCH_DIR.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((run.ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
