"""The sanctioned wall-clock shim — the only module allowed to read it.

Telemetry needs wall-clock timestamps (operators correlate events with
the rest of their infrastructure), but the repository's determinism
contract bans wall-clock reads everywhere results are computed:
randomness and timing must be pure functions of ``(seed, round,
client)``, and a ``time.time()`` call that leaks into a run key,
checkpoint or history silently breaks resume parity.

The compromise is this shim.  Reprolint's RPL001 rule allows
``time.time`` only here (and entropy construction only in
:mod:`repro.engine.rng`), so every wall-clock read in the codebase is
greppable to one function — and code review only has to check that
:func:`wall_time` output flows into *event records and metrics*, never
into anything content-addressed or checkpointed.

The measurement clock (:func:`perf_counter`, the one
:mod:`repro.perf.profiler`'s stages read) is re-exported for symmetry; it
was always allowed (it times work, it never feeds results).
"""

from __future__ import annotations

import time
from datetime import datetime, timezone

__all__ = ["wall_time", "perf_counter", "iso_format"]


def wall_time() -> float:
    """Seconds since the Unix epoch (the one sanctioned wall-clock read).

    Use only for telemetry payloads — event timestamps, metric exposition
    — never for anything that feeds run keys, checkpoints, histories or
    randomness.
    """
    return time.time()


def perf_counter() -> float:
    """Highest-resolution monotonic clock, for short-interval timing."""
    return time.perf_counter()


def iso_format(timestamp: float) -> str:
    """Render a :func:`wall_time` value as a UTC ISO-8601 string."""
    return datetime.fromtimestamp(timestamp, tz=timezone.utc).isoformat(timespec="milliseconds")
