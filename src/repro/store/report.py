"""Report generation from stored runs — the paper's tables, from disk only.

:func:`generate_report` reads **nothing but the store**: every completed
run's key and final history become one cell of a
``(algorithm × scenario)`` accuracy table aggregated over seeds
(mean ± population std, matching how the paper reports repeated runs),
plus a per-cell appendix covering every ``(algorithm, scenario, seed)``
triple.  The output is a markdown document and a JSON mirror, written by
:func:`write_report` as ``report.md`` / ``report.json`` — regenerable at
any time, on any machine holding the store directory.

The fixed-width text tables the CLI, examples and benchmarks print for
in-memory results (:func:`format_table` and the ``render_*`` helpers,
each shaped like one of the paper's tables or figures) live here too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from repro.experiments.runner import AlgorithmResult
from repro.store.objects import write_atomic
from repro.store.runstore import RunEntry, RunStore

__all__ = [
    "ReportBundle",
    "format_table",
    "generate_report",
    "render_accuracy_table",
    "render_learning_curves",
    "render_waste_table",
    "write_report",
]


@dataclass
class ReportBundle:
    """A rendered report plus its machine-readable mirror."""

    markdown: str
    payload: dict

    def save(self, directory: str | Path) -> list[Path]:
        """Write ``report.md`` and ``report.json`` into ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        md_path = directory / "report.md"
        json_path = directory / "report.json"
        write_atomic(md_path, self.markdown)
        write_atomic(json_path, json.dumps(self.payload, indent=2) + "\n")
        return [md_path, json_path]


def _scenario_label(scenario: str | None) -> str:
    return scenario if scenario is not None else "(none)"


def _mean_std(values: list[float]) -> tuple[float, float]:
    mean = sum(values) / len(values)
    variance = sum((value - mean) ** 2 for value in values) / len(values)
    return mean, math.sqrt(variance)


def _format_cell(values: list[float | None]) -> str:
    present = [value for value in values if value is not None]
    if not present:
        return "—"
    mean, std = _mean_std(present)
    if len(present) == 1:
        return f"{mean * 100:.2f}"
    return f"{mean * 100:.2f} ± {std * 100:.2f}"


def generate_report(store: RunStore | str | Path, title: str = "Experiment report") -> ReportBundle:
    """Build the accuracy report from every completed run in the store.

    Incomplete runs (registered but never finished) are listed in a
    status section rather than silently dropped, so a report after a
    crashed sweep says exactly which cells still need work.  A path that
    holds no store raises instead of reporting emptily — a typo'd
    ``--store`` must not look like "no results".
    """
    if not isinstance(store, RunStore):
        store = RunStore(store, create=False)

    completed: list[dict] = []
    pending: list[RunEntry] = []
    for entry in store.runs():
        if not entry.completed:
            pending.append(entry)
            continue
        history = store.load_history(entry.run_id)
        setting = entry.key.get("setting", {})
        completed.append(
            {
                "run_id": entry.run_id,
                "algorithm": entry.key.get("algorithm", history.algorithm),
                "selection_strategy": entry.key.get("selection_strategy"),
                "scenario": entry.key.get("scenario_override") or setting.get("scenario"),
                "seed": setting.get("seed"),
                "num_rounds": entry.key.get("num_rounds"),
                "stop_reason": entry.stop_reason,
                **history.summary(),
            }
        )
    completed.sort(key=lambda row: (row["algorithm"], _scenario_label(row["scenario"]), row["seed"]))

    algorithms = sorted({row["algorithm"] for row in completed})
    scenarios = sorted({_scenario_label(row["scenario"]) for row in completed})

    def cell_values(algorithm: str, scenario: str, kind: str) -> list[float | None]:
        return [
            row[kind]
            for row in completed
            if row["algorithm"] == algorithm and _scenario_label(row["scenario"]) == scenario
        ]

    lines: list[str] = [f"# {title}", ""]
    lines.append(
        f"{len(completed)} completed run(s) across {len(algorithms)} algorithm(s), "
        f"{len(scenarios)} scenario(s)."
    )
    lines.append("")

    for kind, heading in (("full_accuracy", "Full-model accuracy (%)"), ("avg_accuracy", "Avg-head accuracy (%)")):
        if not completed:
            break
        lines.append(f"## {heading}")
        lines.append("")
        lines.append("Mean ± std over seeds; a single seed reports its value alone.")
        lines.append("")
        lines.append("| algorithm | " + " | ".join(scenarios) + " |")
        lines.append("|---" * (len(scenarios) + 1) + "|")
        for algorithm in algorithms:
            cells = [_format_cell(cell_values(algorithm, scenario, kind)) for scenario in scenarios]
            lines.append(f"| {algorithm} | " + " | ".join(cells) + " |")
        lines.append("")

    if completed:
        lines.append("## Per-run cells")
        lines.append("")
        lines.append("| algorithm | scenario | seed | rounds | full (%) | avg (%) | waste (%) | dropped |")
        lines.append("|---|---|---|---|---|---|---|---|")
        for row in completed:
            full = "—" if row["full_accuracy"] is None else f"{row['full_accuracy'] * 100:.2f}"
            avg = "—" if row["avg_accuracy"] is None else f"{row['avg_accuracy'] * 100:.2f}"
            waste = "—" if row["communication_waste"] is None else f"{row['communication_waste'] * 100:.2f}"
            lines.append(
                f"| {row['algorithm']} | {_scenario_label(row['scenario'])} | {row['seed']} "
                f"| {row['rounds']} | {full} | {avg} | {waste} | {row['total_dropped']} |"
            )
        lines.append("")

    if pending:
        lines.append("## Incomplete runs")
        lines.append("")
        for entry in pending:
            key = entry.key
            lines.append(
                f"- `{entry.run_id}` — {key.get('algorithm')} "
                f"(scenario {_scenario_label(key.get('setting', {}).get('scenario'))}, "
                f"seed {key.get('setting', {}).get('seed')}): status {entry.status}"
            )
        lines.append("")

    payload = {
        "title": title,
        "completed": completed,
        "incomplete": [
            {"run_id": entry.run_id, "key": entry.key, "status": entry.status} for entry in pending
        ],
        "algorithms": algorithms,
        "scenarios": scenarios,
    }
    return ReportBundle(markdown="\n".join(lines).rstrip() + "\n", payload=payload)


def write_report(
    store: RunStore | str | Path,
    directory: str | Path | None = None,
    title: str = "Experiment report",
) -> list[Path]:
    """Generate and write ``report.md``/``report.json`` (default: store root)."""
    if not isinstance(store, RunStore):
        store = RunStore(store, create=False)
    bundle = generate_report(store, title=title)
    return bundle.save(directory if directory is not None else store.root)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a fixed-width text table."""
    columns = [list(map(str, column)) for column in zip(headers, *rows)] if rows else [[h] for h in headers]
    widths = [max(len(value) for value in column) for column in columns]
    lines = []
    header_line = " | ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(str(value).ljust(w) for value, w in zip(row, widths)))
    return "\n".join(lines)


def render_accuracy_table(results: Mapping[str, AlgorithmResult], title: str = "") -> str:
    """Table-2-style rows: algorithm, avg accuracy, full accuracy."""
    rows = [
        [name, f"{result.avg_accuracy * 100:.2f}", f"{result.full_accuracy * 100:.2f}"]
        for name, result in results.items()
    ]
    table = format_table(["algorithm", "avg (%)", "full (%)"], rows)
    return f"{title}\n{table}" if title else table


def render_learning_curves(results: Mapping[str, AlgorithmResult], kind: str = "avg") -> str:
    """Figure-2-style series: per-algorithm (round, accuracy) points."""
    lines = []
    for name, result in results.items():
        rounds, values = result.history.accuracy_curve(kind)
        lines.append(f"{name}: " + ", ".join(f"({r}, {v * 100:.1f})" for r, v in zip(rounds, values)))
    return "\n".join(lines)


def render_waste_table(results: Mapping[str, AlgorithmResult]) -> str:
    """Figure-5a-style rows: algorithm and mean communication-waste rate."""
    rows = [[name, f"{result.communication_waste * 100:.2f}"] for name, result in results.items()]
    return format_table(["algorithm", "communication waste (%)"], rows)
