"""Figure 5 — ablation of the RL-based client selection strategy.

Compares AdaptiveFL under Greedy / Random / RL-C / RL-S / RL-CS dispatch
and reports (a) the communication-waste rate and (b) the final accuracy,
mirroring both panels of the figure.  The headline claims: the RL variants
waste far less communication than Greedy, and RL-CS reaches the best
accuracy.
"""

from repro.experiments.runner import run_algorithm
from repro.experiments.settings import prepare_experiment
from repro.store.report import format_table

from common import bench_setting, once

STRATEGIES = ("greedy", "random", "rl-c", "rl-s", "rl-cs")


def test_fig5_selection_strategy_ablation(benchmark):
    setting = bench_setting(distribution="iid", overrides={"num_rounds": 10, "eval_every": 5})

    def run_all():
        # one prepared experiment shared by every strategy: the ablation is paired
        prepared = prepare_experiment(setting)
        return {
            strategy: run_algorithm("adaptivefl", prepared, selection_strategy=strategy)
            for strategy in STRATEGIES
        }

    results = once(benchmark, run_all)
    rows = [
        [strategy, f"{result.communication_waste * 100:.2f}", f"{result.full_accuracy * 100:.2f}"]
        for strategy, result in results.items()
    ]
    print("\nFigure 5 — RL client-selection ablation (CI scale)")
    print(format_table(["strategy", "comm. waste (%)", "full acc (%)"], rows))
    benchmark.extra_info["rows"] = rows

    # Figure 5a's shape: every RL-informed strategy wastes less than Greedy.
    assert results["rl-s"].communication_waste <= results["greedy"].communication_waste
    assert results["rl-cs"].communication_waste <= results["greedy"].communication_waste
