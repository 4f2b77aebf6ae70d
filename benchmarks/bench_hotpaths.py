"""Hot-path benchmark: op-level microbenchmarks + end-to-end rounds/sec.

This is the measurement harness behind the ``repro.perf`` optimisation
layer.  It writes ``BENCH_hotpaths.json`` with three sections:

* ``calibration`` — single-thread float32 GEMM throughput of the host.
  The regression gate compares *normalised* rounds/sec (rounds/sec per
  GEMM GFLOP/s), which damps machine-to-machine variance on CI runners.
* ``micro`` — per-op timings of the reworked kernels against their
  historical reference implementations (im2col gather, col2im scatter
  vs. the Python ``kh×kw`` loop, running-maximum maxpool forward, its
  per-position backward vs. 4-axis ``np.add.at``), at training- and
  evaluation-scale geometries.
* ``end_to_end`` — rounds/sec of **all five algorithms** on the CI
  setting, serial and process executors, raw mode (no emulated device
  latency), plus the per-round pickled transport payload of the
  slice/delta transport.

``pre_pr_reference`` embeds the seed-commit throughput measured with
this exact loop (best-of-3, same container class) so the JSON carries
the speedup claim next to its baseline.

Run::

    python benchmarks/bench_hotpaths.py                 # full sweep
    python benchmarks/bench_hotpaths.py --quick         # CI-sized sweep
    python benchmarks/bench_hotpaths.py --quick \
        --baseline benchmarks/hotpaths_baseline.json    # + regression gate

The regression gate exits non-zero when any algorithm's *normalised*
serial rounds/sec drops more than ``--tolerance`` (default 30%) below
the committed baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.api.registry import available_algorithms, get_algorithm
from repro.engine.base import Executor
from repro.engine.factory import create_executor
from repro.experiments.settings import ExperimentSetting, prepare_experiment
from repro.nn import functional as F
from repro.perf.workspace import Workspace

#: seed-commit (e57b009) serial rounds/sec on the identical harness
#: (CI setting, 4 rounds, eval_every=2, one untimed warm-up run then
#: best-of-5, same 1-CPU container class)
PRE_PR_REFERENCE = {
    "commit": "e57b009",
    "rounds": 4,
    "serial_rounds_per_second": {
        "all_large": 6.019,
        "decoupled": 5.844,
        "heterofl": 6.464,
        "scalefl": 6.474,
        "adaptivefl": 6.074,
    },
}

BENCH_SETTING_KWARGS = dict(
    dataset="cifar10",
    model="simple_cnn",
    scale="ci",
    overrides={"num_rounds": 4, "eval_every": 2},
)

#: (label, batch, channels, size, kernel, stride, padding) — training- and
#: eval-batch geometries of the CI setting's SimpleCNN
MICRO_GEOMETRIES = [
    ("train_conv1", 20, 3, 16, 5, 1, 2),
    ("train_conv2", 20, 8, 8, 5, 1, 2),
    ("eval_conv1", 200, 3, 16, 5, 1, 2),
]


def _best_of(func, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def _time_op(func, min_seconds: float = 0.05) -> float:
    """Seconds per call, measured over enough iterations to be stable."""
    func()  # warm up (allocates workspaces, builds index caches)
    iterations = 1
    while True:
        start = time.perf_counter()
        for _ in range(iterations):
            func()
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / iterations
        iterations *= 4


def measure_calibration() -> dict:
    """Single-thread float32 GEMM throughput (the normalisation anchor)."""
    size = 384
    rng = np.random.default_rng(0)
    a = rng.random((size, size), dtype=np.float32)
    b = rng.random((size, size), dtype=np.float32)
    seconds = _time_op(lambda: a @ b)
    gflops = 2 * size**3 / seconds / 1e9
    return {"gemm_size": size, "gemm_gflops": round(gflops, 3)}


def measure_micro() -> list[dict]:
    rows = []
    rng = np.random.default_rng(0)
    for label, n, c, size, k, stride, pad in MICRO_GEOMETRIES:
        x = rng.random((n, c, size, size), dtype=np.float32)
        ws = Workspace()
        cols, oh, ow = F.im2col(x, k, k, stride, pad, ws)
        grad_cols = rng.random(cols.shape, dtype=np.float32)

        im2col_s = _time_op(lambda: F.im2col(x, k, k, stride, pad, ws))
        col2im_s = _time_op(lambda: F.col2im(grad_cols, x.shape, k, k, stride, pad, ws))
        col2im_ref_s = _time_op(lambda: F.col2im_reference(grad_cols, x.shape, k, k, stride, pad))

        pooled, cache = F.maxpool2d_forward(x, 2, 2, ws)
        grad_pool = rng.random(pooled.shape, dtype=np.float32)
        maxpool_fwd_s = _time_op(lambda: F.maxpool2d_forward(x, 2, 2, ws))
        maxpool_bwd_s = _time_op(lambda: F.maxpool2d_backward(grad_pool, cache, ws))
        maxpool_ref_s = _time_op(lambda: F.maxpool2d_backward_reference(grad_pool, cache))

        rows.append(
            {
                "geometry": label,
                "shape": [n, c, size, size],
                "kernel": k,
                "im2col_us": round(im2col_s * 1e6, 2),
                "col2im_scatter_us": round(col2im_s * 1e6, 2),
                "col2im_loop_reference_us": round(col2im_ref_s * 1e6, 2),
                "col2im_speedup": round(col2im_ref_s / col2im_s, 2),
                "maxpool_fwd_us": round(maxpool_fwd_s * 1e6, 2),
                "maxpool_bwd_us": round(maxpool_bwd_s * 1e6, 2),
                "maxpool_bwd_reference_us": round(maxpool_ref_s * 1e6, 2),
                "maxpool_bwd_speedup": round(maxpool_ref_s / maxpool_bwd_s, 2),
            }
        )
    return rows


class _PayloadSpy(Executor):
    """Serial executor that pickles every task/result, counting bytes.

    ``is_interprocess`` is True so the transport layer takes the same
    spill path it would for a real process pool.
    """

    name = "payload-spy"
    is_interprocess = True

    def __init__(self):
        super().__init__(None)
        self.task_bytes = 0
        self.result_bytes = 0

    def map(self, tasks):
        results = []
        for task in tasks:
            self.task_bytes += len(pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL))
            result = pickle.loads(pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)).run()
            self.result_bytes += len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
            results.append(result)
        return results


def measure_transport(num_rounds: int) -> list[dict]:
    """Pickled bytes per round of the slice/delta transport."""
    prepared = prepare_experiment(ExperimentSetting(**BENCH_SETTING_KWARGS))
    algorithm = get_algorithm("adaptivefl").build(prepared)
    spy = _PayloadSpy()
    algorithm.set_executor(spy)
    algorithm.run(num_rounds=num_rounds)
    return [
        {
            "transport": "delta",
            "algorithm": "adaptivefl",
            "rounds": num_rounds,
            "task_payload_bytes_per_round": round(spy.task_bytes / num_rounds),
            "result_payload_bytes_per_round": round(spy.result_bytes / num_rounds),
        }
    ]


def measure_end_to_end(
    num_rounds: int, repeats: int, executors: Sequence[tuple[str, int | None]]
) -> list[dict]:
    setting = ExperimentSetting(
        **{**BENCH_SETTING_KWARGS, "overrides": {"num_rounds": num_rounds, "eval_every": 2}}
    )
    prepared = prepare_experiment(setting)
    rows = []
    reference_accuracy: dict[str, float] = {}
    for name in available_algorithms():
        for executor_name, workers in executors:
            def one_run():
                algorithm = get_algorithm(name).build(prepared)
                executor = create_executor(executor_name, workers)
                algorithm.set_executor(executor)
                try:
                    history = algorithm.run()
                finally:
                    executor.shutdown()
                one_run.accuracy = history.final_accuracy("full")

            one_run()  # untimed warm-up: workspaces, scatter indices, BLAS
            seconds = _best_of(one_run, repeats)
            accuracy = one_run.accuracy
            if executor_name == "serial":
                reference_accuracy[name] = accuracy
            row = {
                "algorithm": name,
                "executor": executor_name,
                "workers": workers,
                "rounds": num_rounds,
                "seconds": round(seconds, 4),
                "rounds_per_second": round(num_rounds / seconds, 4),
                # the engine's bit-parity guarantee, re-checked under timing
                "parity": accuracy == reference_accuracy[name],
            }
            pre = PRE_PR_REFERENCE["serial_rounds_per_second"].get(name)
            if executor_name == "serial" and pre and num_rounds == PRE_PR_REFERENCE["rounds"]:
                row["speedup_vs_pre_pr"] = round(row["rounds_per_second"] / pre, 2)
            rows.append(row)
    return rows


def run_benchmark(quick: bool) -> dict:
    num_rounds = 2 if quick else 4
    repeats = 2 if quick else 5
    executors: list[tuple[str, int | None]] = [("serial", None)]
    if not quick:
        executors.append(("process", 2))
    payload = {
        "benchmark": "hotpaths",
        "quick": quick,
        "cpu_count": os.cpu_count(),
        "setting": ExperimentSetting(**BENCH_SETTING_KWARGS).to_dict(),
        "pre_pr_reference": PRE_PR_REFERENCE,
        "calibration": measure_calibration(),
        "micro": measure_micro(),
        "transport": measure_transport(2 if quick else 3),
        "end_to_end": measure_end_to_end(num_rounds, repeats, executors),
    }
    gflops = payload["calibration"]["gemm_gflops"]
    for row in payload["end_to_end"]:
        row["normalized_rounds_per_gflop"] = round(row["rounds_per_second"] / gflops, 5)
    return payload


def check_regression(payload: dict, baseline_path: Path, tolerance: float) -> list[str]:
    """Compare normalised serial rounds/sec against the committed baseline."""
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    failures = []
    current = {
        row["algorithm"]: row["normalized_rounds_per_gflop"]
        for row in payload["end_to_end"]
        if row["executor"] == "serial"
    }
    for name, reference in baseline["normalized_serial_rounds_per_gflop"].items():
        measured = current.get(name)
        if measured is None:
            failures.append(f"{name}: missing from current run")
            continue
        floor = reference * (1.0 - tolerance)
        if measured < floor:
            failures.append(
                f"{name}: normalized serial throughput {measured:.5f} fell below "
                f"{floor:.5f} ({reference:.5f} committed, {tolerance:.0%} tolerance)"
            )
    return failures


def write_baseline(payload: dict, path: Path) -> None:
    baseline = {
        "source": "benchmarks/bench_hotpaths.py --write-baseline",
        "gemm_gflops": payload["calibration"]["gemm_gflops"],
        "normalized_serial_rounds_per_gflop": {
            row["algorithm"]: row["normalized_rounds_per_gflop"]
            for row in payload["end_to_end"]
            if row["executor"] == "serial"
        },
    }
    path.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")


def render(payload: dict) -> str:
    lines = [
        f"hot paths — {payload['cpu_count']} CPU(s), "
        f"{payload['calibration']['gemm_gflops']:.1f} GFLOP/s f32 GEMM",
        "",
        f"{'geometry':<12} {'im2col us':>10} {'col2im us':>10} {'(loop ref)':>11} "
        f"{'pool fwd us':>12} {'pool bwd us':>12} {'(ref)':>8}",
    ]
    for row in payload["micro"]:
        lines.append(
            f"{row['geometry']:<12} {row['im2col_us']:>10.1f} {row['col2im_scatter_us']:>10.1f} "
            f"{row['col2im_loop_reference_us']:>11.1f} {row['maxpool_fwd_us']:>12.1f} "
            f"{row['maxpool_bwd_us']:>12.1f} {row['maxpool_bwd_reference_us']:>8.1f}"
        )
    lines.append("")
    lines.append(f"{'transport':<10} {'task bytes/round':>17} {'result bytes/round':>19}")
    for row in payload["transport"]:
        lines.append(
            f"{row['transport']:<10} {row['task_payload_bytes_per_round']:>17,} "
            f"{row['result_payload_bytes_per_round']:>19,}"
        )
    lines.append("")
    lines.append(f"{'algorithm':<12} {'executor':<9} {'rounds/s':>9} {'vs pre-PR':>10}  parity")
    for row in payload["end_to_end"]:
        speedup = row.get("speedup_vs_pre_pr")
        lines.append(
            f"{row['algorithm']:<12} {row['executor']:<9} {row['rounds_per_second']:>9.3f} "
            f"{(f'{speedup:.2f}x' if speedup else '-'):>10}  {row['parity']}"
        )
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized sweep (fewer rounds/repeats, serial only)")
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_hotpaths.json",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="committed baseline JSON; when given, fail on >tolerance regression",
    )
    parser.add_argument("--tolerance", type=float, default=0.30)
    parser.add_argument(
        "--write-baseline",
        type=Path,
        default=None,
        help="write the normalised baseline JSON for the regression gate",
    )
    args = parser.parse_args(argv)

    payload = run_benchmark(args.quick)
    print(render(payload))
    args.output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.output}")

    if args.write_baseline is not None:
        write_baseline(payload, args.write_baseline)
        print(f"wrote baseline {args.write_baseline}")
    if args.baseline is not None:
        failures = check_regression(payload, args.baseline, args.tolerance)
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION: {failure}")
            return 1
        print(f"perf gate passed ({args.tolerance:.0%} tolerance)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
