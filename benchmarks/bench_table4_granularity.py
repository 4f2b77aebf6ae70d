"""Table 4 — ablation of fine-grained (p=3) vs coarse-grained (p=1) pruning.

The coarse variant offers one submodel per level (the paper's p=1); the
fine variant adds the layer-adjusted intermediates (p=3).  The claim under
test is that the fine-grained pool transfers knowledge between sizes
better, improving the "full" accuracy.
"""

from repro.api.registry import get_algorithm
from repro.core.config import ModelPoolConfig
from repro.experiments.reporting import PAPER_TABLE4
from repro.experiments.settings import prepare_experiment
from repro.store.report import format_table

from common import bench_setting, once


def _run_with_pool(prepared, models_per_level):
    base = prepared.pool_config
    pool = ModelPoolConfig(
        models_per_level=models_per_level,
        level_width_ratios=base.level_width_ratios,
        start_layers=base.start_layers[:models_per_level],
        min_start_layer=min(base.start_layers[:models_per_level]),
    )
    # bind the granularity-ablated pool over the prepared default
    algorithm = get_algorithm("adaptivefl").with_kwargs(pool_config=pool).build(prepared)
    history = algorithm.run()
    return history.final_accuracy("full"), history.final_accuracy("avg")


def test_table4_pruning_granularity(benchmark):
    setting = bench_setting(distribution="iid", overrides={"num_rounds": 8, "eval_every": 4})

    def run_both():
        prepared = prepare_experiment(setting)
        coarse = _run_with_pool(prepared, models_per_level=1)
        fine = _run_with_pool(prepared, models_per_level=3)
        return coarse, fine

    (coarse_full, coarse_avg), (fine_full, fine_avg) = once(benchmark, run_both)
    paper = PAPER_TABLE4["cifar10"]["vgg16"]
    rows = [
        ["coarse (p=1)", f"{coarse_full * 100:.2f}", f"{paper['coarse-iid']:.2f}"],
        ["fine (p=3)", f"{fine_full * 100:.2f}", f"{paper['fine-iid']:.2f}"],
    ]
    print("\nTable 4 — pruning granularity ablation, CIFAR-10-like IID (CI scale, 'full' accuracy)")
    print(format_table(["granularity", "full (%)", "paper full"], rows))
    benchmark.extra_info["rows"] = rows
    assert 0.0 <= coarse_full <= 1.0 and 0.0 <= fine_full <= 1.0
