"""Compressed-transport benchmark: uplink bytes and accuracy per codec.

Runs the same CI-scale AdaptiveFL experiment once per registered update
codec (``none``/``fp16``/``int8``/``topk``) over delta transport and
writes ``BENCH_compression.json`` with:

* ``codecs`` — per codec, the true per-round uplink/downlink bytes taken
  from the round records (post-codec encoded sizes, not modeled ones),
  the final full accuracy, and the bytes-per-round compression ratio
  against the exact ``none`` baseline,
* ``acceptance`` — the PR's gates: ``int8`` and ``topk`` each cut mean
  uplink bytes per round by ≥ ``RATIO_GATE``× versus exact delta
  transport, while staying within ``ACCURACY_TOLERANCE`` absolute final
  accuracy of the baseline.

Every run shares one prepared experiment snapshot (same dataset,
partition, profiles, seed), so the comparison is paired: the only thing
that changes between runs is ``FederatedConfig.transport_codec``.

Run as a script::

    python benchmarks/bench_compression.py             # 8 rounds
    python benchmarks/bench_compression.py --quick     # CI smoke: 4 rounds
    python benchmarks/bench_compression.py --quick --check   # enforce gates
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

CODECS = ("none", "fp16", "int8", "topk")
#: codecs the acceptance gate requires to beat the byte-reduction ratio
GATED_CODECS = ("int8", "topk")
RATIO_GATE = 4.0
#: max absolute final-accuracy drift a lossy codec may show vs the exact run
ACCURACY_TOLERANCE = 0.10
FULL_ROUNDS = 8
QUICK_ROUNDS = 4


def run_codec(codec: str, rounds: int) -> dict:
    """One paired CI-scale AdaptiveFL run with the given transport codec."""
    from repro.experiments.runner import run_algorithm
    from repro.experiments.settings import ExperimentSetting, prepare_experiment

    setting = ExperimentSetting(
        dataset="cifar10",
        model="simple_cnn",
        scale="ci",
        seed=0,
        transport="delta",
        transport_codec=codec,
        overrides={"num_rounds": rounds, "eval_every": rounds},
    )
    prepared = prepare_experiment(setting)
    result = run_algorithm("adaptivefl", prepared)
    records = result.history.records
    total_up = sum(record.bytes_up for record in records)
    total_down = sum(record.bytes_down for record in records)
    return {
        "codec": codec,
        "rounds": len(records),
        "total_bytes_up": int(total_up),
        "total_bytes_down": int(total_down),
        "mean_bytes_up_per_round": round(total_up / len(records), 1),
        "mean_bytes_down_per_round": round(total_down / len(records), 1),
        "full_accuracy": result.full_accuracy,
    }


def run_benchmark(rounds: int) -> dict:
    results: dict[str, dict] = {}
    for codec in CODECS:
        print(f"running adaptivefl with transport codec {codec!r} ({rounds} rounds) ...")
        results[codec] = run_codec(codec, rounds)

    baseline = results["none"]
    for codec, entry in results.items():
        entry["uplink_ratio_vs_none"] = round(
            baseline["mean_bytes_up_per_round"] / entry["mean_bytes_up_per_round"], 2
        )
        entry["accuracy_delta_vs_none"] = round(
            entry["full_accuracy"] - baseline["full_accuracy"], 6
        )

    acceptance: dict[str, object] = {
        "ratio_gate": RATIO_GATE,
        "accuracy_tolerance": ACCURACY_TOLERANCE,
    }
    for codec in GATED_CODECS:
        entry = results[codec]
        acceptance[f"{codec}_uplink_ratio"] = entry["uplink_ratio_vs_none"]
        acceptance[f"{codec}_ratio_geq_gate"] = bool(entry["uplink_ratio_vs_none"] >= RATIO_GATE)
        acceptance[f"{codec}_accuracy_within_tolerance"] = bool(
            abs(entry["accuracy_delta_vs_none"]) <= ACCURACY_TOLERANCE
        )
    return {
        "benchmark": "compression",
        "generated_by": "benchmarks/bench_compression.py",
        "algorithm": "adaptivefl",
        "transport": "delta",
        "rounds": rounds,
        "codecs": results,
        "acceptance": acceptance,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help=f"CI smoke: {QUICK_ROUNDS} rounds")
    parser.add_argument("--rounds", type=int, default=None, help="override the round count")
    parser.add_argument("--check", action="store_true", help="exit non-zero if a gate fails")
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_compression.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    rounds = args.rounds if args.rounds is not None else (QUICK_ROUNDS if args.quick else FULL_ROUNDS)
    payload = run_benchmark(rounds)
    args.output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.output}")

    acceptance = payload["acceptance"]
    failures = []
    for codec in GATED_CODECS:
        if not acceptance[f"{codec}_ratio_geq_gate"]:
            failures.append(
                f"{codec} uplink ratio {acceptance[f'{codec}_uplink_ratio']}x is below the {RATIO_GATE}x gate"
            )
        if not acceptance[f"{codec}_accuracy_within_tolerance"]:
            failures.append(
                f"{codec} final accuracy drifted more than {ACCURACY_TOLERANCE} from the exact baseline"
            )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if args.check:
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
