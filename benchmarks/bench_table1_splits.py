"""Table 1 — VGG16 split settings (#params, #FLOPs, size ratio).

This is a static reproduction at **full paper scale**: the numbers are
computed on the real 33.65M-parameter VGG16 and should match the paper to
within rounding.
"""

from repro.experiments.settings import vgg16_table1_settings
from repro.nn.models import SlimmableVGG
from repro.perf.flops import count_flops
from repro.store.report import format_table

from common import once


def _compute_rows():
    arch = SlimmableVGG(config="vgg16", num_classes=10, input_shape=(3, 32, 32))
    full_params = arch.parameter_count()
    rows = []
    for entry in vgg16_table1_settings():
        sizes = arch.group_sizes_for(entry["r_w"], entry["start_layer"])
        params = arch.parameter_count(sizes)
        flops = count_flops(arch.build(sizes), (3, 32, 32)).flops
        rows.append(
            [
                entry["level"],
                entry["r_w"],
                entry["start_layer"] if entry["start_layer"] is not None else "N/A",
                f"{params / 1e6:.2f}M",
                f"{entry['paper_params_m']:.2f}M",
                f"{flops / 1e6:.2f}M",
                f"{entry['paper_flops_m']:.2f}M",
                f"{params / full_params:.2f}",
                f"{entry['paper_ratio']:.2f}",
            ]
        )
    return rows


def test_table1_vgg16_split_settings(benchmark):
    rows = once(benchmark, _compute_rows)
    headers = ["level", "r_w", "I", "#PARAMS", "paper", "#FLOPS", "paper", "ratio", "paper"]
    print("\nTable 1 — VGG16 split settings (measured vs paper)")
    print(format_table(headers, rows))
    benchmark.extra_info["rows"] = rows
    # the reproduction must match the paper's parameter counts closely
    for row, entry in zip(rows, vgg16_table1_settings()):
        measured = float(row[3].rstrip("M"))
        assert abs(measured - entry["paper_params_m"]) < 0.06
