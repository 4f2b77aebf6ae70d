"""Figure 2 — learning curves (avg submodel accuracy vs round).

Reproduces the CIFAR-10-like IID panel at CI scale for the four
heterogeneous methods the figure plots (Decoupled, HeteroFL, ScaleFL,
AdaptiveFL) and prints each method's (round, accuracy) series.
"""

from repro.store.report import render_learning_curves

from common import bench_setting, once, run_algorithms

ALGORITHMS = ("decoupled", "heterofl", "scalefl", "adaptivefl")


def test_fig2_learning_curves_cifar10_iid(benchmark):
    setting = bench_setting(distribution="iid", overrides={"num_rounds": 8, "eval_every": 2})
    results = once(benchmark, lambda: run_algorithms(setting, ALGORITHMS))
    print("\nFigure 2(a) — CIFAR-10-like IID learning curves (avg accuracy %, CI scale)")
    print(render_learning_curves(results, kind="avg"))
    benchmark.extra_info["curves"] = {
        name: result.history.accuracy_curve("avg") for name, result in results.items()
    }
    for result in results.values():
        rounds, values = result.history.accuracy_curve("avg")
        assert len(rounds) >= 2
        assert all(0.0 <= value <= 1.0 for value in values)
