"""Smoke test of the benchmark on a tiny config, so it cannot rot.

Run from the root of a checkout: python3 -m pytest perfbench/tests -q
"""
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402

# small enough that every workload iteration takes a few process start-ups;
# stagewise keeps 10 classes at gamma=100, so per_class must stay >= 50
TINY = {
    "data.per_class": "60",
    "data.test_per_class": "20",
    "pretrain.epochs": "2",
    "pretrain.batch_size": "16",
    "finetune.epochs": "2",
    "single_stage.epochs": "2",
    "eval.knn_k": "5",
}


@pytest.fixture(scope="module")
def spec():
    run.warm_up()
    return run.load_spec()


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_named_metric_is_emitted_with_its_unit(spec, name, trace):
    workload = run.WORKLOADS[name].with_settings(TINY)
    result = run.measure(workload, seed=3, seconds=0, trace=trace, spec=spec,
                         hard_deadline=time.monotonic() + run.RUN_LIMIT_S)
    assert result.correct, result.errors
    assert result.failed == 0 and result.attempted == 2 * sum(len(leg.commands) for leg in workload.legs)
    entries = spec["per_layer" if trace else "end_to_end"]
    assert list(result.metrics) == [e["name"] for e in entries]
    for entry in entries:
        metric = result.metrics[entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert math.isfinite(metric["value"])
    if trace:
        assert result.metrics["tensor.backward.calls"]["value"] > 0
    else:
        assert all(result.metrics[e["name"]]["value"] > 0 for e in entries)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "two_stage", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_compare_verdicts():
    assert compare.verdict([10, 10.1, 9.9, 10, 10.2], [8, 8.1, 7.9, 8, 8.2],
                           list(zip([10, 10.1, 9.9, 10, 10.2], [8, 8.1, 7.9, 8, 8.2])), "lower", 0.1)[0] == "improved"
    assert compare.verdict([10, 10.1, 9.9], [10.05, 10, 9.95], [(10, 10.05), (10.1, 10), (9.9, 9.95)],
                           "lower", 0.1)[0] == "unchanged"
    assert compare.verdict([10, 10.1, 9.9], [13, 13.1, 12.9], [(10, 13), (10.1, 13.1), (9.9, 12.9)],
                           "lower", 0.1)[0] == "regressed"
    noisy = [5, 15, 10, 20, 8]
    assert compare.verdict(noisy, noisy[::-1], list(zip(noisy, noisy[::-1])), "lower", 0.1)[0] == "unresolved"
    assert compare.verdict([7, 7], [7, 7], [(7, 7), (7, 7)], "lower", None)[0] == "unchanged"


def test_compare_pairs_runs_by_seed(spec):
    def record(seed, wall):
        return {"workload": "two_stage", "trace": 0, "seed": seed, "correct": True, "failed": 0,
                "metrics": {"wall_s": {"value": wall, "unit": "s"}}}

    parent = [record(s, 10.0 + 0.01 * s) for s in range(10)]
    change = [record(s, 9.0 + 0.01 * s) for s in reversed(range(10))]
    rows = compare.compare(parent, change, spec)
    assert [(r["metric"], r["pairs"], r["win_share"], r["verdict"]) for r in rows] == [("wall_s", 10, 1.0, "improved")]
    json.dumps(rows)
