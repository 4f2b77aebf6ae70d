"""Fleet-scale benchmark: devices/sec and peak RSS from 10³ to 10⁶ devices.

Writes ``BENCH_fleet_scale.json``: per fleet size, the fleet engine's
round throughput in devices/sec and the subprocess's peak RSS.  Each size
runs in its own subprocess so ``ru_maxrss`` reports that fleet's peak RSS
in isolation.
The traces this engine produces are pinned by
``tests/sim/test_small_fleet_goldens.py``; the end-to-end regression gate
for the fleet-scale path is the ``fleet_20k`` workload of
``benchmarks/e2e``.

Run as a script::

    python benchmarks/bench_fleet_scale.py            # full sweep, 10³..10⁶
    python benchmarks/bench_fleet_scale.py --quick    # CI smoke: 10³/10⁴
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

FULL_SIZES = (1_000, 10_000, 100_000, 1_000_000)
QUICK_SIZES = (1_000, 10_000)
ROUNDS = 5
DISPATCH_PER_ROUND = 256


def scale_spec():
    """Every dynamic subsystem on at once: markov availability, batteries,
    compute/link jitter, mid-round dropouts and a relative deadline."""
    from repro.sim.scenario import AvailabilitySpec, BatterySpec, DeviceTemplate, ScenarioSpec

    return ScenarioSpec(
        name="fleet-scale-bench",
        devices=(
            DeviceTemplate(
                name="weak", device_class="weak", flops_per_second=5e5, bandwidth_mbps=4.0,
                fraction=0.5, compute_jitter=0.2, link_latency_s=0.05, link_jitter_s=0.02,
            ),
            DeviceTemplate(
                name="strong", device_class="strong", flops_per_second=2e6, bandwidth_mbps=20.0,
                fraction=0.5, compute_jitter=0.1, link_latency_s=0.01, link_jitter_s=0.01,
            ),
        ),
        availability=AvailabilitySpec(kind="markov", p_drop=0.1, p_join=0.8),
        battery=BatterySpec(capacity_joules=5000.0, compute_watts=2.0, recharge_watts=5.0),
        dropout_rate=0.05,
        deadline_factor=3.0,
    )


# -- throughput worker (one subprocess per measurement) ----------------------------------
def measure_throughput(size: int, rounds: int) -> dict:
    """The full round pipeline: availability over the whole fleet, dispatch
    simulation for a fixed cohort, population stats."""
    from repro.sim.fleet import DispatchBatch, FleetSimulator

    build_start = time.perf_counter()
    fleet = FleetSimulator(scale_spec(), num_clients=size, seed=7)
    build_seconds = time.perf_counter() - build_start

    def one_round(round_index: int) -> None:
        mask = fleet.available_mask(round_index)
        clients = np.flatnonzero(mask)[:DISPATCH_PER_ROUND]
        batch = DispatchBatch(
            client_ids=clients.astype(np.int64), params_down=40_000, params_up=20_000,
            flops_per_sample=20_000, num_samples=60, local_epochs=2,
        )
        fleet.simulate_round(round_index, batch)
        fleet.population_stats(round_index)

    one_round(0)  # warm caches outside the timed window
    start = time.perf_counter()
    for round_index in range(1, rounds + 1):
        one_round(round_index)
    elapsed = time.perf_counter() - start
    return {
        "num_clients": size,
        "rounds": rounds,
        "dispatch_per_round": DISPATCH_PER_ROUND,
        "build_seconds": round(build_seconds, 6),
        "elapsed_seconds": round(elapsed, 6),
        "seconds_per_round": round(elapsed / rounds, 6),
        "devices_per_sec": round(size * rounds / elapsed, 1),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def run_worker_subprocess(size: int, rounds: int) -> dict:
    """Isolate one measurement so ru_maxrss reflects only that fleet size."""
    command = [sys.executable, str(Path(__file__).resolve()), "--worker", str(size), str(rounds)]
    completed = subprocess.run(command, capture_output=True, text=True, check=True)
    return json.loads(completed.stdout)


# -- orchestration -----------------------------------------------------------------------
def run_benchmark(sizes, rounds: int) -> dict:
    results: dict[str, dict] = {}
    for size in sizes:
        print(f"measuring the fleet engine at {size:,} devices ...")
        results[str(size)] = run_worker_subprocess(size, rounds)
    return {
        "benchmark": "fleet_scale",
        "generated_by": "benchmarks/bench_fleet_scale.py",
        "rounds_per_measurement": rounds,
        "dispatch_per_round": DISPATCH_PER_ROUND,
        "scenario": scale_spec().to_dict(),
        "sizes": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke: 10^3/10^4 only")
    parser.add_argument("--rounds", type=int, default=ROUNDS, help="timed rounds per measurement")
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_fleet_scale.json",
        help="where to write the JSON report",
    )
    parser.add_argument("--worker", nargs=2, type=int, metavar=("SIZE", "ROUNDS"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker is not None:
        json.dump(measure_throughput(*args.worker), sys.stdout)
        return 0

    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    payload = run_benchmark(sizes, args.rounds)
    args.output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
