"""One timing seam for the round: named stages, counters, and the listener that hears them.

Code marks a phase with ``with stage("round.fold"):`` and adds to a counter
with ``count("transport.bytes_up", n)``.  Both report to the process's one
listener, a :class:`Profiler`; while none is attached a stage costs one check
of a module global.  ``FederatedAlgorithm.run(profile=True)`` (CLI
``--profile``) attaches the algorithm's profiler for the run and detaches it
in a ``finally``.  The round's stages — ``round`` and its direct children
``round.plan`` … ``round.checkpoint`` — are listed in the perf guide
(``docs/guides/perf.md``, "Profiling"); :meth:`Profiler.summary` adds
``round.unattributed``, ``round`` less the sum of its direct children.

The listener is process-wide: two runs profiled at the same time in one
process would share it, a ``ThreadExecutor``'s pool threads report their
``task.*`` stages to it at once, and a forked child starts with none.  A
round stage is not a model stage (``StagedModel.stages()``, slices of a
network's forward pass), and stages stay phase-grained: per-op timing would
cost more than the NumPy ops, whose story ``benchmarks/bench_hotpaths.py``
tells.
"""

from __future__ import annotations

import os
import threading
from contextlib import nullcontext

from repro.obs.clock import perf_counter

__all__ = ["Profiler", "Stage", "attach", "count", "render_summary", "stage"]

_listener: "Profiler | None" = None
_DORMANT = nullcontext()


def attach(listener: "Profiler | None") -> "Profiler | None":
    """Make ``listener`` the process's listener (None detaches); returns the one it replaces."""
    global _listener
    previous, _listener = _listener, listener
    return previous


os.register_at_fork(after_in_child=lambda: attach(None))


class Stage:
    """Time a ``with`` block: ``seconds`` holds its duration afterwards, and a listener hears it."""

    __slots__ = ("name", "seconds", "_start")

    def __init__(self, name: str):
        self.name = name
        self.seconds = 0.0

    def __enter__(self) -> "Stage":
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = perf_counter() - self._start
        listener = _listener
        if listener is not None:
            listener.observe(self.name, self.seconds)


def stage(name: str):
    """A timed :class:`Stage` while a listener is attached, else a shared no-op."""
    return _DORMANT if _listener is None else Stage(name)


def count(name: str, amount: float = 1.0) -> None:
    """Add ``amount`` to the listener's counter ``name`` (nothing while none listens)."""
    listener = _listener
    if listener is not None:
        listener.add(name, amount)


def render_summary(summary: dict, title: str | None = None) -> str:
    """Human-readable table of a ``Profiler.summary()`` dict.

    The CLI's ``--profile`` output renders summaries reloaded from
    ``<algorithm>_profile.json`` with it.
    """
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{'scope':<28} {'calls':>7} {'seconds':>10} {'avg ms':>9}")
    for scope in summary.get("scopes", []):
        avg_ms = 1000.0 * scope["seconds"] / scope["calls"] if scope["calls"] else 0.0
        lines.append(f"{scope['name']:<28} {scope['calls']:>7} {scope['seconds']:>10.4f} {avg_ms:>9.3f}")
    counters = summary.get("counters", {})
    if counters:
        lines.append("")
        lines.append(f"{'counter':<40} {'value':>14}")
        for name in sorted(counters):
            value = counters[name]
            rendered = f"{value:,.0f}" if float(value).is_integer() else f"{value:,.3f}"
            lines.append(f"{name:<40} {rendered:>14}")
    return "\n".join(lines)


class Profiler:
    """A listener: calls and seconds per stage, a total per counter, heard from any thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stages: dict[str, list] = {}
        self._counters: dict[str, float] = {}

    def observe(self, name: str, seconds: float) -> None:
        """One call of stage ``name`` that took ``seconds``."""
        with self._lock:
            totals = self._stages.setdefault(name, [0, 0.0])
            totals[0] += 1
            totals[1] += seconds

    def add(self, name: str, amount: float) -> None:
        """Add ``amount`` to the counter ``name``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + amount

    def reset(self) -> None:
        """Drop all accumulated stages and counters."""
        with self._lock:
            self._stages.clear()
            self._counters.clear()

    def summary(self) -> dict:
        """JSON-friendly summary: stages (``round.unattributed`` among them) by total time, then counters.

        Seconds are rounded to the µs, and ``round.unattributed`` is worked out
        from the rounded rows, so ``round``'s direct children plus it add up to
        ``round`` exactly.
        """
        with self._lock:
            rows = [
                {"name": name, "calls": calls, "seconds": round(seconds, 6)}
                for name, (calls, seconds) in self._stages.items()
            ]
            counters = {name: self._counters[name] for name in sorted(self._counters)}
        whole = next((row for row in rows if row["name"] == "round"), None)
        if whole is not None:
            children = [row for row in rows if row["name"].startswith("round.") and row["name"].count(".") == 1]
            attributed = sum(row["seconds"] for row in children)
            unattributed = round(whole["seconds"] - attributed, 6)
            rows.append({"name": "round.unattributed", "calls": whole["calls"], "seconds": unattributed})
        return {"scopes": sorted(rows, key=lambda row: row["seconds"], reverse=True), "counters": counters}
