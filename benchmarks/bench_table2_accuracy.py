"""Table 2 — accuracy (avg / full) of all five algorithms.

The paper's grid covers {CIFAR-10, CIFAR-100, FEMNIST} x {IID, a=0.6,
a=0.3} x {VGG16, ResNet18}.  At CI scale this bench reproduces two
representative cells (CIFAR-10-like IID and a=0.3) with all five
algorithms and prints measured next to published numbers.
"""

import pytest

from repro.experiments.reporting import PAPER_TABLE2
from repro.store.report import format_table

from common import bench_setting, once, run_algorithms

ALGORITHMS = ("all_large", "decoupled", "heterofl", "scalefl", "adaptivefl")


def _render(results, paper_cell, title):
    rows = []
    for name in ALGORITHMS:
        result = results[name]
        paper_avg, paper_full = paper_cell[name]
        rows.append(
            [
                name,
                f"{result.avg_accuracy * 100:.2f}",
                f"{paper_avg:.2f}" if paper_avg is not None else "-",
                f"{result.full_accuracy * 100:.2f}",
                f"{paper_full:.2f}",
            ]
        )
    print(f"\n{title}")
    print(format_table(["algorithm", "avg (%)", "paper avg", "full (%)", "paper full"], rows))
    return rows


@pytest.mark.parametrize(
    "distribution, alpha, paper_key",
    [("iid", None, "cifar10-iid"), ("dirichlet", 0.3, "cifar10-a0.3")],
    ids=["iid", "alpha0.3"],
)
def test_table2_cifar10_accuracy(benchmark, distribution, alpha, paper_key):
    setting = bench_setting(distribution=distribution, alpha=alpha)
    results = once(benchmark, lambda: run_algorithms(setting, ALGORITHMS))
    rows = _render(results, PAPER_TABLE2["vgg16"][paper_key], f"Table 2 — CIFAR-10-like, {paper_key} (CI scale)")
    benchmark.extra_info["rows"] = rows
    for result in results.values():
        assert 0.0 <= result.full_accuracy <= 1.0
