"""The repo's end-to-end round benchmark: one command, four workloads.

    PYTHONPATH=src python benchmarks/e2e/run.py [--seed 0] [--workload NAME] [--out DIR]

runs every workload (or the named one) through both phases — timed legs
for the end-to-end metrics, then a traced leg for the per-layer metrics —
prints every metric by name with its unit, quartiles and sample count,
checks the outputs, writes ``results.json`` and ``trace_<workload>.json``
to ``--out`` and exits non-zero when a check fails.  ``--smoke`` cuts
every workload to 2 rounds × 1 leg per algorithm.

End-to-end wall-clock metrics are reported as on a reference host (see
``host.REFERENCE_GFLOPS``); the column ``as measured`` has the raw value.

With ``--workload NAME --trace 0|1`` it runs one phase of one workload
and ends its output with the one-line JSON object ``BENCHMARK.json``
describes (``--trace 0``: the end-to-end metrics; ``--trace 1``: the
per-layer metrics).

Each (workload, phase) runs in its own subprocess (``harness.py``) with
BLAS pinned to one thread, ``TMPDIR`` inside ``--out`` and ``src`` on
``PYTHONPATH``; this process imports nothing of the program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import host
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: the contract allows a run 180 s; leave room to report
CHILD_TIMEOUT_S = 170
PHASES = {None: ("timed", "traced"), 0: ("timed",), 1: ("traced",)}


def run_child(workload: str, phase: str, args: argparse.Namespace, env: dict) -> dict | None:
    """One ``harness.py`` subprocess; its result, or None when it failed."""
    result_file = Path(env["TMPDIR"]) / f"result_{workload}_{phase}.json"
    command = [
        sys.executable,
        str(HERE / "harness.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--phase", phase,
        "--out", str(args.out),
        "--result", str(result_file),
    ]  # fmt: skip
    if args.smoke:
        command.append("--smoke")
    # its own process group: a timeout must also reach the wire workers
    child = subprocess.Popen(command, env=env, start_new_session=True)
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    if code != 0:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    if code != 0 or not result_file.exists():
        print(f"[{workload}/{phase}] FAILED: harness exit code {code}", file=sys.stderr)
        return None
    with open(result_file, encoding="utf-8") as stream:
        return json.load(stream)


def print_report(result: dict) -> None:
    gflops = result["host"]["gemm_384_f32_gflops"]
    print(
        f"\n== {result['workload']} / {result['phase']} — seed {result['seed']}, "
        f"{result['rounds']} rounds per leg, host {gflops:.1f} GFLOP/s f32 GEMM =="
    )
    print(f"{'metric':<32}{'value':>16} {'unit':<9}{'q1':>14}{'q3':>14}{'n':>6}{'as measured':>14}")
    for name, metric in result["metrics"].items():
        raw = f"{metric['raw']:>14.6g}" if "raw" in metric else ""
        print(
            f"{name:<32}{metric['value']:>16.6g} {metric['unit']:<9}"
            f"{metric['q1']:>14.6g}{metric['q3']:>14.6g}{metric['n']:>6}{raw}"
        )
    if "round_ms_mean" in result:
        shares = sorted(
            ((metric["value"] / result["round_ms_mean"], name) for name, metric in result["metrics"].items() if name.endswith("_ms")),
            reverse=True,
        )
        top = ", ".join(f"{name[:-3]} {share:.1%}" for share, name in shares[:6])
        print(f"share of the mean round ({result['round_ms_mean']:.1f} ms): {top}")
    print(f"{'ops_total':<32}{result['ops_total']:>16} count")
    print(f"{'ops_failed':<32}{result['ops_failed']:>16} count")
    for check in result["checks"]:
        if not check["ok"]:
            print(f"CHECK FAILED: {check['name']} ({check['detail']})")


def contract_line(result: dict, declared: list[dict]) -> str:
    """The one-line JSON object of the driver's contract."""
    metrics = {
        metric["name"]: {
            "value": result["metrics"][metric["name"]]["value"],
            "unit": metric["unit"],
        }
        for metric in declared
    }
    return json.dumps(
        {
            "correct": all(check["ok"] for check in result["checks"]),
            "attempted": result["ops_total"],
            "failed": result["ops_failed"],
            "metrics": metrics,
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="the workload seed (ExperimentSetting.seed)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None, help="default: all four")
    parser.add_argument(
        "--seconds", type=float, default=35.0, help="timed legs run until this much time has passed"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None, help="run one phase, end with the contract JSON")
    parser.add_argument("--out", type=Path, default=HERE / "out", help="results, traces and scratch space")
    parser.add_argument("--smoke", action="store_true", help="2 rounds x 1 repeat per workload")
    args = parser.parse_args(argv)
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as stream:
        benchmark = json.load(stream)

    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)
    # the children's TMPDIR: spill files and the store directory stay in here
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=args.out)
    env = host.pinned_environment()
    env["TMPDIR"] = scratch
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    results = []
    failures = 0
    try:
        for workload in [args.workload] if args.workload else list(WORKLOADS):
            for phase in PHASES[args.trace]:
                result = run_child(workload, phase, args, env)
                if result is None:
                    failures += 1
                    continue
                results.append(result)
                print_report(result)
                failures += sum(not check["ok"] for check in result["checks"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(args.out / "results.json", "w", encoding="utf-8") as stream:
        json.dump({"seed": args.seed, "seconds": args.seconds, "results": results}, stream, indent=1)
    print(f"\n{len(results)} result(s) written to {args.out / 'results.json'}; {failures} failure(s)")
    if args.trace is not None and results:
        declared = benchmark["per_layer" if args.trace else "end_to_end"]
        print(contract_line(results[0], declared))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
