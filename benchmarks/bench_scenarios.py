"""Scenario sweep: system dynamics of every registered fleet scenario.

Runs AdaptiveFL for a few CI-scale rounds under every scenario in the
:mod:`repro.sim` registry (plus the no-scenario reference) and records the
system-level outcomes into ``BENCH_scenarios.json``: simulated wall-clock,
dispatched/dropped client slots, deadline behaviour and bytes moved.  The
point is not accuracy — it is that each scenario produces the dynamics it
advertises (drops in ``flaky_edge``, queueing stragglers in
``congested_network``, sit-outs in ``battery_constrained``) while staying
bit-deterministic at a fixed seed.

Run as a script (writes the JSON)::

    python benchmarks/bench_scenarios.py
    python benchmarks/bench_scenarios.py --rounds 8 --algorithm heterofl

or through pytest-benchmark (attaches the table to ``extra_info``)::

    PYTHONPATH=src python -m pytest benchmarks/bench_scenarios.py -q
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Sequence

from repro.experiments.runner import run_algorithm
from repro.experiments.settings import ExperimentSetting, prepare_experiment
from repro.sim.scenario import available_scenarios

BENCH_ROUNDS = 5
BENCH_OVERRIDES = {"num_rounds": BENCH_ROUNDS, "eval_every": BENCH_ROUNDS}


def scenario_setting(scenario: str | None, rounds: int) -> ExperimentSetting:
    overrides = dict(BENCH_OVERRIDES)
    overrides["num_rounds"] = rounds
    overrides["eval_every"] = rounds
    return ExperimentSetting(
        dataset="cifar10", model="simple_cnn", scale="ci", scenario=scenario, overrides=overrides
    )


def run_scenario(scenario: str | None, algorithm: str, rounds: int) -> dict:
    prepared = prepare_experiment(scenario_setting(scenario, rounds))
    result = run_algorithm(algorithm, prepared)
    history = result.history
    records = history.records
    dispatched = sum(len(r.selected_clients) for r in records)
    dropped = history.total_dropped()
    arrivals = [a for r in records for a in r.arrival_seconds if a is not None]
    return {
        "scenario": scenario or "(none)",
        "algorithm": algorithm,
        "rounds": len(records),
        "sim_seconds": round(history.elapsed_seconds(), 4),
        "dispatched_slots": dispatched,
        "dropped_slots": dropped,
        "drop_rate": round(dropped / dispatched, 4) if dispatched else 0.0,
        "deadline_rounds": sum(1 for r in records if r.deadline_seconds is not None),
        "mean_arrival_seconds": round(sum(arrivals) / len(arrivals), 4) if arrivals else None,
        "bytes_down_mb": round(sum(r.bytes_down or 0 for r in records) / 1e6, 3),
        "bytes_up_mb": round(sum(r.bytes_up or 0 for r in records) / 1e6, 3),
        "full_accuracy": round(result.full_accuracy, 4),
    }


def run_benchmark(algorithm: str, rounds: int) -> dict:
    rows = [run_scenario(None, algorithm, rounds)]
    for name in available_scenarios():
        rows.append(run_scenario(name, algorithm, rounds))
    return {
        "benchmark": "scenarios",
        "algorithm": algorithm,
        "rounds": rounds,
        "results": rows,
    }


def render(payload: dict) -> str:
    lines = [
        f"scenario sweep — {payload['algorithm']}, {payload['rounds']} rounds",
        f"{'scenario':<20} {'sim s':>10} {'slots':>6} {'dropped':>8} {'drop %':>7} "
        f"{'dl MB':>7} {'ul MB':>7} {'acc %':>6}",
    ]
    for row in payload["results"]:
        lines.append(
            f"{row['scenario']:<20} {row['sim_seconds']:>10.2f} {row['dispatched_slots']:>6} "
            f"{row['dropped_slots']:>8} {100 * row['drop_rate']:>6.1f}% "
            f"{row['bytes_down_mb']:>7.2f} {row['bytes_up_mb']:>7.2f} {100 * row['full_accuracy']:>5.1f}%"
        )
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--algorithm", default="adaptivefl")
    parser.add_argument("--rounds", type=int, default=BENCH_ROUNDS)
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_scenarios.json",
    )
    args = parser.parse_args(argv)
    payload = run_benchmark(args.algorithm, args.rounds)
    print(render(payload))
    args.output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.output}")
    return 0


def test_scenario_sweep(benchmark):
    """pytest-benchmark entry: one sweep, table attached to extra_info."""
    payload = benchmark.pedantic(lambda: run_benchmark("adaptivefl", BENCH_ROUNDS), rounds=1, iterations=1)
    print("\n" + render(payload))
    benchmark.extra_info["results"] = payload["results"]
    rows = {row["scenario"]: row for row in payload["results"]}
    # every scenario times its rounds; the no-scenario reference does not
    assert rows["(none)"]["sim_seconds"] == 0.0
    assert all(row["sim_seconds"] > 0 for name, row in rows.items() if name != "(none)")
    # flaky_edge advertises dropouts/deadline misses and over-selection
    assert rows["flaky_edge"]["dropped_slots"] > 0
    assert rows["flaky_edge"]["deadline_rounds"] == rows["flaky_edge"]["rounds"]
    # the static scenarios never drop anyone
    assert rows["paper_testbed"]["dropped_slots"] == 0
    assert rows["stable_lab"]["dropped_slots"] == 0


if __name__ == "__main__":
    raise SystemExit(main())
