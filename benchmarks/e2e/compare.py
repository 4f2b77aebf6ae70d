"""Apply the benchmark's bounds to two result sets: ``compare.py A B``.

``A`` (the parent) and ``B`` (the change) are each a ``results.json``
written by ``run.py``, or a directory of them (one file per run; the
comparison protocol in ``README.md`` asks for ten alternating pairs).
One row per (end-to-end metric, workload):

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — not regressed, but the run-to-run spread (distance
  between the quartiles, as a share of the median) of either side is
  wider than the bound, and B's runs do not all beat A's;
* ``improved``   — B's median is better by more than A's own spread
  (or every run of B reads better than every run of A);
* ``unchanged``  — everything else.

Every ratio is printed with its base.  Exits non-zero on ``regressed``.
Where both sets ran a workload at the same seed, a last block says
whether the history and final-weights hashes are identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import stats
from metrics import END_TO_END, EndToEnd


def load(path: Path) -> tuple[dict[tuple[str, str], list[dict]], dict[tuple[str, int], dict]]:
    """A result set: ``(metric, workload) -> one reported metric per run``, and
    ``(workload, seed) -> history and weights hashes``."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    table: dict[tuple[str, str], list[dict]] = {}
    hashes: dict[tuple[str, int], dict] = {}
    for file in files:
        with open(file, encoding="utf-8") as stream:
            payload = json.load(stream)
        for result in payload.get("results", []):
            if result["phase"] != "timed":
                continue
            hashes[result["workload"], result["seed"]] = result["hashes"]
            for name, metric in result["metrics"].items():
                table.setdefault((name, result["workload"]), []).append(metric)
    return table, hashes


def centre_and_spread(runs: list[dict]) -> tuple[float, float, list[float]]:
    """Median, distance between the quartiles, and the values it was taken over.

    Several runs: taken across the runs' values.  One run: that run's own
    value with the quartiles of its repeats.
    """
    values = [run["value"] for run in runs]
    if len(values) == 1:
        return values[0], runs[0]["q3"] - runs[0]["q1"], values
    q1, median, q3 = stats.quartiles(values)
    return median, q3 - q1, values


def verdict(metric: EndToEnd, parent: list[dict], change: list[dict]) -> tuple[str, str]:
    base, base_spread, base_values = centre_and_spread(parent)
    new, new_spread, new_values = centre_and_spread(change)
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = (new - base) * sign
    scale = 1.0 if metric.absolute else abs(base)
    bound = metric.bound * scale
    if metric.better == "lower":
        all_better = max(new_values) < min(base_values)
    else:
        all_better = min(new_values) > max(base_values)
    if worse_by > bound:
        word = "regressed"
    elif max(base_spread, new_spread) > bound and not all_better:
        word = "unresolved"
    elif all_better or -worse_by > base_spread:
        word = "improved"
    else:
        word = "unchanged"
    ratio = f"{new / base:.4f}x of {base:.6g}" if base else f"{new:.6g} (base 0)"
    detail = (
        f"{new:.6g} {metric.unit} = {ratio}; spread A {base_spread:.3g} B {new_spread:.3g}, "
        f"bound {bound:.3g}, runs {len(base_values)}/{len(new_values)}"
    )
    return word, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="results.json of the parent, or a directory of them")
    parser.add_argument("change", type=Path, help="results.json of the change, or a directory of them")
    args = parser.parse_args(argv)
    (parent, parent_hashes), (change, change_hashes) = load(args.parent), load(args.change)
    regressed = 0
    for metric in END_TO_END:
        for name, workload in sorted(key for key in parent if key[0] == metric.name):
            if (name, workload) not in change:
                print(f"{name:<24}{workload:<14}missing from {args.change}")
                regressed += 1
                continue
            word, detail = verdict(metric, parent[name, workload], change[name, workload])
            regressed += word == "regressed"
            print(f"{name:<24}{workload:<14}{word:<11}{detail}")
    # informative only: a change to the arithmetic moves these legitimately
    for workload, seed in sorted(set(parent_hashes) & set(change_hashes)):
        same = parent_hashes[workload, seed] == change_hashes[workload, seed]
        print(f"{'history+weights sha256':<24}{workload:<14}{'identical' if same else 'differ':<11}seed {seed}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
