"""Figure 3 — per-level submodel accuracy (0.25x / 0.5x / 1.0x).

The paper slices the final global model of HeteroFL, ScaleFL and
AdaptiveFL at the three size levels and compares their test accuracy; the
qualitative claim is that AdaptiveFL's accuracy *increases* with model
size while the baselines' large models can fall below their small ones.
"""

from repro.store.report import format_table

from common import bench_setting, once, run_algorithms

ALGORITHMS = ("heterofl", "scalefl", "adaptivefl")


def test_fig3_submodel_levels(benchmark):
    setting = bench_setting(distribution="iid", overrides={"num_rounds": 8, "eval_every": 8})
    results = once(benchmark, lambda: run_algorithms(setting, ALGORITHMS))
    rows = []
    for name, result in results.items():
        final = result.history.evaluated_records()[-1]
        rows.append(
            [
                name,
                f"{final.level_accuracies.get('S', float('nan')) * 100:.2f}",
                f"{final.level_accuracies.get('M', float('nan')) * 100:.2f}",
                f"{final.level_accuracies.get('L', float('nan')) * 100:.2f}",
            ]
        )
    print("\nFigure 3 — submodel accuracy per level (CI scale)")
    print(format_table(["algorithm", "small (%)", "medium (%)", "large (%)"], rows))
    benchmark.extra_info["rows"] = rows
    for name, result in results.items():
        final = result.history.evaluated_records()[-1]
        assert set(final.level_accuracies) == {"S", "M", "L"}
