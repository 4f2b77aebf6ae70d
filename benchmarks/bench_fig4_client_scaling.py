"""Figure 4 — scalability over the number of participating clients.

The paper sweeps K = 50/100/200/500 clients (CIFAR-10, ResNet18, a=0.6);
the CI-scale sweep uses 8/16/32 clients with proportional participation
and compares AdaptiveFL with HeteroFL and ScaleFL at each population size.
"""

import pytest

from repro.store.report import format_table

from common import bench_setting, once, run_algorithms

ALGORITHMS = ("heterofl", "scalefl", "adaptivefl")
CLIENT_COUNTS = (8, 16, 32)


@pytest.mark.parametrize("num_clients", CLIENT_COUNTS)
def test_fig4_client_scaling(benchmark, num_clients):
    setting = bench_setting(
        distribution="dirichlet",
        alpha=0.6,
        overrides={
            "num_clients": num_clients,
            "clients_per_round": max(2, num_clients // 4),
            "train_samples": 80 * num_clients,
            "num_rounds": 6,
            "eval_every": 3,
        },
    )
    results = once(benchmark, lambda: run_algorithms(setting, ALGORITHMS))
    rows = [
        [name, f"{result.full_accuracy * 100:.2f}", f"{result.avg_accuracy * 100:.2f}"]
        for name, result in results.items()
    ]
    print(f"\nFigure 4 — K={num_clients} clients (CI scale)")
    print(format_table(["algorithm", "full (%)", "avg (%)"], rows))
    benchmark.extra_info["rows"] = rows
    for result in results.values():
        assert 0.0 <= result.full_accuracy <= 1.0
