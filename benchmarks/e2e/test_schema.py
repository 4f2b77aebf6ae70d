"""Schema checks on ``BENCHMARK.json`` and the metric tables (no benchmark runs)."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def load() -> dict:
    with open(HERE.parents[1] / "BENCHMARK.json", encoding="utf-8") as stream:
        return json.load(stream)


def test_top_level_contract():
    benchmark = load()
    assert set(benchmark) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert benchmark["paths"] == ["benchmarks/e2e"]
    assert benchmark["command"][-1] == "benchmarks/e2e/run.py"
    assert isinstance(benchmark["run_seconds"], int) and 1 <= benchmark["run_seconds"] <= 60


def test_workloads_match_the_harness():
    declared = load()["workloads"]
    assert 2 <= len(declared) <= 8
    assert [row["name"] for row in declared] == list(workloads.WORKLOADS) == list(metrics.ALL)
    for row in declared:
        assert set(row) == {"name", "why"}
        assert NAME.fullmatch(row["name"])
        assert 0 < len(row["why"]) <= 200 and "\n" not in row["why"]


def test_end_to_end_metrics():
    declared = load()["end_to_end"]
    assert 1 <= len(declared) <= 16
    table = {metric.name: metric for metric in metrics.END_TO_END}
    assert [row["name"] for row in declared] == [m.name for m in metrics.END_TO_END if m.in_contract]
    for row in declared:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert NAME.fullmatch(row["name"]) and UNIT.fullmatch(row["unit"])
        assert row["better"] in ("higher", "lower")
        assert 0 < row["bound"] <= 0.25
        ours = table[row["name"]]
        assert (row["unit"], row["better"], row["bound"]) == (ours.unit, ours.better, ours.bound)
    setup = next(row for row in declared if row["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(row["bound"] for row in declared)


def test_per_layer_metrics_and_their_interactions():
    declared = load()["per_layer"]
    assert 1 <= len(declared) <= 128
    assert [(row["name"], row["unit"], row["better"]) for row in declared] == [
        (metric.name, metric.unit, metric.better) for metric in metrics.PER_LAYER
    ]
    end_to_end = {metric.name for metric in metrics.END_TO_END}
    for row, metric in zip(declared, metrics.PER_LAYER):
        assert set(row) == {"name", "unit", "better"}
        assert NAME.fullmatch(row["name"]) and UNIT.fullmatch(row["unit"])
        assert row["better"] in ("higher", "lower")
        assert metric.on and set(metric.on) <= set(workloads.WORKLOADS)
        assert set(metric.moves) <= end_to_end
        # only the harness-health metrics move nothing
        assert metric.moves or metric.name.startswith(("round.", "trace."))


def test_names_are_used_once():
    benchmark = load()
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer") for row in benchmark[key]]
    assert len(names) == len(set(names))
