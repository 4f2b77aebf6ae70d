"""Table 3 — accuracy under different weak:medium:strong device proportions.

The paper sweeps 4:3:3, 8:1:1, 1:8:1 and 1:1:8 on CIFAR-10/VGG16.  The
qualitative claims: AdaptiveFL wins every column, and every method improves
as the share of strong devices grows.
"""

import pytest

from repro.experiments.reporting import PAPER_TABLE3
from repro.store.report import format_table

from common import bench_setting, once, run_algorithms

ALGORITHMS = ("heterofl", "scalefl", "adaptivefl")
PROPORTIONS = ("4:3:3", "8:1:1", "1:1:8")


@pytest.mark.parametrize("proportion", PROPORTIONS)
def test_table3_device_proportions(benchmark, proportion):
    setting = bench_setting(distribution="iid", proportion=proportion)
    results = once(benchmark, lambda: run_algorithms(setting, ALGORITHMS))
    rows = []
    for name, result in results.items():
        paper_avg, paper_full = PAPER_TABLE3[proportion][name]
        rows.append(
            [
                name,
                f"{result.avg_accuracy * 100:.2f}",
                f"{paper_avg:.2f}" if paper_avg is not None else "-",
                f"{result.full_accuracy * 100:.2f}",
                f"{paper_full:.2f}",
            ]
        )
    print(f"\nTable 3 — proportion {proportion} (CI scale)")
    print(format_table(["algorithm", "avg (%)", "paper avg", "full (%)", "paper full"], rows))
    benchmark.extra_info["rows"] = rows
    for result in results.values():
        assert 0.0 <= result.full_accuracy <= 1.0
