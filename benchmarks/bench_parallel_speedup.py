"""Round-throughput speedup of the parallel client-execution engine.

Sweeps executor × worker count on a fixed CI-scale AdaptiveFL experiment
and records wall-clock per round, round throughput and speedup versus the
serial reference into ``BENCH_parallel_speedup.json``.

Two workload modes are measured:

* ``raw`` — the pure-numpy local training exactly as the test-suite runs
  it.  Thread workers only overlap the GIL-releasing numpy kernels and
  process workers pay pickling, so the raw speedup is bounded by the
  machine's core count.
* ``device`` — every client task additionally carries an emulated
  per-device latency (default 100 ms), standing in for the local-compute
  and up/down-link time of a real AIoT device (the paper's test-bed
  rounds take *seconds* per device).  This is the regime federated
  simulations actually live in, and where the executor fan-out shines:
  workers overlap the latency of the whole cohort.

Every configuration is also checked for parity: the final full-model
accuracy must equal the serial reference bit for bit.

Run as a script (writes the JSON)::

    python benchmarks/bench_parallel_speedup.py
    python benchmarks/bench_parallel_speedup.py --workers 1 2 4 8 --latency-ms 50

or through pytest-benchmark (attaches the table to ``extra_info``)::

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel_speedup.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.api.registry import get_algorithm
from repro.engine.base import Executor
from repro.engine.factory import create_executor
from repro.engine.rng import spawn_streams
from repro.engine.tasks import StackTask
from repro.experiments.settings import ExperimentSetting, prepare_experiment

#: the benchmark configuration (one shared prepared experiment, paired runs)
BENCH_SETTING_KWARGS = dict(
    dataset="cifar10",
    model="simple_cnn",
    scale="ci",
    overrides={
        "num_clients": 12,
        "clients_per_round": 8,
        "train_samples": 960,
        "num_rounds": 3,
        "eval_every": 3,
    },
)
DEFAULT_LATENCY_MS = 100.0
#: per-device latency spread (devices are heterogeneous, not metronomes)
DEFAULT_LATENCY_JITTER = 0.25
DEFAULT_WORKERS = (1, 2, 4)


@dataclass
class EmulatedDeviceTask:
    """Wraps a round's stack piece with the device/communication latency its
    clients would have on real hardware (the executor can overlap it, serial
    cannot).

    Every member of the piece is charged its own latency, jittered per
    device and round through a child of the member's own RNG stream
    (``spawn_streams``), so it is deterministic and identical for every
    executor/worker count while never perturbing the training randomness of
    the parent stream.
    """

    inner: StackTask
    seconds: float
    jitter: float = 0.0

    def latency(self, member) -> float:
        """One member's emulated device latency in seconds."""
        if self.jitter <= 0:
            return self.seconds
        latency_rng = np.random.default_rng(spawn_streams(member.rng_stream, 1)[0])
        return self.seconds * float(latency_rng.uniform(1 - self.jitter, 1 + self.jitter))

    def run(self):
        time.sleep(sum(self.latency(member) for member in self.inner.tasks))
        return self.inner.run()


class DeviceLatencyExecutor(Executor):
    """Decorator executor: adds emulated per-client device latency."""

    name = "device-latency"

    def __init__(self, inner: Executor, seconds: float, jitter: float = DEFAULT_LATENCY_JITTER):
        super().__init__(inner.max_workers)
        self.inner = inner
        # the transport spills published state only for interprocess executors
        self.is_interprocess = inner.is_interprocess
        self.seconds = seconds
        self.jitter = jitter

    @property
    def effective_workers(self) -> int:
        """The wrapped executor's: the round splits its stacks for that pool."""
        return self.inner.effective_workers

    def map(self, tasks):
        return self.inner.map([EmulatedDeviceTask(task, self.seconds, self.jitter) for task in tasks])

    def shutdown(self) -> None:
        self.inner.shutdown()


def timed_run(prepared, executor_name: str, workers: int | None, latency_s: float) -> tuple[float, float]:
    """(wall seconds, final full accuracy) of one AdaptiveFL run."""
    algorithm = get_algorithm("adaptivefl").build(prepared)
    executor = create_executor(executor_name, workers)
    if latency_s > 0:
        executor = DeviceLatencyExecutor(executor, latency_s)
    algorithm.set_executor(executor)
    try:
        start = time.perf_counter()
        history = algorithm.run()
        elapsed = time.perf_counter() - start
    finally:
        # injected executors stay caller-owned: run() does not shut them down
        executor.shutdown()
    return elapsed, history.final_accuracy("full")


def sweep(prepared, workers: Sequence[int], latency_s: float, mode: str) -> list[dict]:
    num_rounds = prepared.federated_config.num_rounds
    serial_seconds, serial_accuracy = timed_run(prepared, "serial", None, latency_s)
    rows = [
        {
            "mode": mode,
            "executor": "serial",
            "workers": 1,
            "seconds": round(serial_seconds, 4),
            "rounds_per_second": round(num_rounds / serial_seconds, 4),
            "speedup_vs_serial": 1.0,
            "parity": True,
        }
    ]
    for executor_name in ("thread", "process"):
        for count in workers:
            seconds, accuracy = timed_run(prepared, executor_name, count, latency_s)
            rows.append(
                {
                    "mode": mode,
                    "executor": executor_name,
                    "workers": count,
                    "seconds": round(seconds, 4),
                    "rounds_per_second": round(num_rounds / seconds, 4),
                    "speedup_vs_serial": round(serial_seconds / seconds, 3),
                    # the engine's core guarantee, re-checked under timing
                    "parity": accuracy == serial_accuracy,
                }
            )
    return rows


def run_benchmark(workers: Sequence[int], latency_ms: float) -> dict:
    setting = ExperimentSetting(**BENCH_SETTING_KWARGS)
    prepared = prepare_experiment(setting)
    results = sweep(prepared, workers, 0.0, "raw")
    results += sweep(prepared, workers, latency_ms / 1000.0, "device")
    return {
        "benchmark": "parallel_speedup",
        "setting": setting.to_dict(),
        "emulated_device_latency_ms": latency_ms,
        "cpu_count": os.cpu_count(),
        "results": results,
    }


def render(payload: dict) -> str:
    lines = [
        f"parallel speedup — {payload['cpu_count']} CPU(s), "
        f"device latency {payload['emulated_device_latency_ms']:.0f} ms",
        f"{'mode':<8} {'executor':<9} {'workers':>7} {'seconds':>9} {'rounds/s':>9} {'speedup':>8}  parity",
    ]
    for row in payload["results"]:
        lines.append(
            f"{row['mode']:<8} {row['executor']:<9} {row['workers']:>7} {row['seconds']:>9.3f} "
            f"{row['rounds_per_second']:>9.3f} {row['speedup_vs_serial']:>7.2f}x  {row['parity']}"
        )
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, nargs="+", default=list(DEFAULT_WORKERS))
    parser.add_argument("--latency-ms", type=float, default=DEFAULT_LATENCY_MS)
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_parallel_speedup.json",
    )
    args = parser.parse_args(argv)
    payload = run_benchmark(args.workers, args.latency_ms)
    print(render(payload))
    args.output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.output}")
    return 0


def test_parallel_speedup(benchmark):
    """pytest-benchmark entry: one sweep, table attached to extra_info."""
    payload = benchmark.pedantic(lambda: run_benchmark((4,), DEFAULT_LATENCY_MS), rounds=1, iterations=1)
    print("\n" + render(payload))
    benchmark.extra_info["results"] = payload["results"]
    assert all(row["parity"] for row in payload["results"])
    device_thread = [
        row
        for row in payload["results"]
        if row["mode"] == "device" and row["executor"] == "thread" and row["workers"] == 4
    ]
    # the acceptance bar: >1.5x round throughput at 4 workers in device mode
    assert device_thread and device_thread[0]["speedup_vs_serial"] > 1.5


if __name__ == "__main__":
    raise SystemExit(main())
