#!/usr/bin/env python
"""Scenario showcase: the same algorithms under two fleet scenarios.

Runs each selected algorithm under two registered :mod:`repro.sim`
scenarios (default: the benign ``stable_lab`` vs the hostile
``flaky_edge``) on the *same* data/partition seed and prints, per
scenario, the accuracy next to the system-level outcomes the discrete-
event fleet simulator produced: simulated wall-clock, dispatched vs
dropped client slots and the bytes moved.  The point of the comparison:
deadline-aware over-selection keeps synchronous rounds moving when the
fleet churns, at the cost of extra dispatches.

Run:
    python examples/scenario_showcase.py
    python examples/scenario_showcase.py --scenarios congested_network battery_constrained
    python examples/scenario_showcase.py --algorithms heterofl adaptivefl --rounds 8
"""

from __future__ import annotations

import argparse

from repro import ExperimentSetting, available_scenarios, prepare_experiment, run_algorithm
from repro.store.report import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenarios", nargs=2, default=["stable_lab", "flaky_edge"],
                        metavar=("A", "B"), help=f"two of: {', '.join(available_scenarios())}")
    parser.add_argument("--algorithms", nargs="*", default=["heterofl", "adaptivefl"])
    parser.add_argument("--dataset", default="cifar10", choices=["cifar10", "cifar100", "femnist"])
    parser.add_argument("--model", default="simple_cnn")
    parser.add_argument("--scale", default="ci", choices=["ci", "small", "paper"])
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rows = []
    for scenario in args.scenarios:
        setting = ExperimentSetting(
            dataset=args.dataset, model=args.model, scale=args.scale, seed=args.seed,
            scenario=scenario, overrides={"num_rounds": args.rounds, "eval_every": args.rounds},
        )
        prepared = prepare_experiment(setting)
        for name in args.algorithms:
            result = run_algorithm(name, prepared)
            history = result.history
            dispatched = sum(len(r.selected_clients) for r in history.records)
            dropped = history.total_dropped()
            rows.append(
                [
                    scenario,
                    result.algorithm,
                    f"{100 * result.full_accuracy:.1f}%",
                    f"{history.elapsed_seconds():.2f}s",
                    str(dispatched),
                    f"{dropped} ({100 * dropped / dispatched:.0f}%)" if dispatched else "0",
                    f"{sum(r.bytes_down or 0 for r in history.records) / 1e6:.2f} MB",
                ]
            )

    print(f"\n=== Scenario showcase ({args.rounds} rounds, seed {args.seed}) ===")
    print(
        format_table(
            ["scenario", "algorithm", "full acc", "sim time", "dispatched", "dropped", "downlink"],
            rows,
        )
    )
    print(
        "\nDropped = dispatched client slots whose update missed aggregation\n"
        "(mid-round dropout, battery death or deadline miss); over-selection\n"
        "pads the dispatch count so rounds survive them."
    )


if __name__ == "__main__":
    main()
