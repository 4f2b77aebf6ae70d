"""Counters, gauges and histograms with Prometheus text exposition.

One :class:`MetricsRegistry` is the process-wide source of truth for
operational numbers (:func:`registry`); a subsystem that needs an
isolated namespace — the per-fleet
:class:`~repro.serve.coordinator.Coordinator` — constructs its own and
hands it to :func:`render_prometheus` alongside the global one.  Phase
timings are not metrics: they are :mod:`repro.perf.profiler` stages, heard
only by a run's profiler (``--profile``), and no registry holds them.

All primitives are thread-safe (one lock per metric): they are updated
from the training thread, the serve coordinator's asyncio loop thread
and the status endpoint concurrently.  They are *operational* metrics —
cheap enough to update unconditionally a few times per round, but
deliberately kept out of the NumPy kernels, whose op-level story belongs
to ``benchmarks/bench_hotpaths.py``.

The catalogue of well-known metric names lives with their emit sites;
the ones the docs table documents are ``rounds_total``,
``round_duration_seconds``, ``tasks_inflight``, ``bytes_up_total``/
``bytes_down_total``, ``heartbeat_rtt_seconds``, ``reconnects_total``
and the ``serve_*_total`` churn counters.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "render_prometheus",
    "DEFAULT_BUCKETS",
]

#: default histogram buckets (seconds-flavoured, like Prometheus client libs)
DEFAULT_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)

_NAME_OK = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"


def _check_name(name: str) -> str:
    if not name or any(ch not in _NAME_OK for ch in name) or name[0].isdigit():
        raise ValueError(f"invalid metric name {name!r} (use [a-zA-Z_:][a-zA-Z0-9_:]*)")
    return name


class Metric:
    """Base class of every metric: a name, a help string, a lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        self.name = _check_name(name)
        self.help = help
        self._lock = threading.Lock()

    def expose(self) -> list[tuple[str, float]]:
        """The metric's sample lines as ``(suffixed_name, value)`` pairs."""
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing total (events seen, bytes moved)."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative: counters only go up)."""
        if amount < 0:
            raise ValueError("counters cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current total."""
        with self._lock:
            return self._value

    def expose(self) -> list[tuple[str, float]]:
        """One sample: the total itself."""
        return [(self.name, self.value)]


class Gauge(Metric):
    """A value that can go up and down (tasks in flight, connected clients)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._value = 0.0

    def set(self, value: float) -> None:
        """Replace the current value."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount``."""
        self.inc(-amount)

    @property
    def value(self) -> float:
        """The current value."""
        with self._lock:
            return self._value

    def expose(self) -> list[tuple[str, float]]:
        """One sample: the current value."""
        return [(self.name, self.value)]


class Histogram(Metric):
    """A distribution: cumulative buckets plus sum and count.

    ``observe`` is O(#buckets); buckets are fixed at construction.  The
    exposition follows Prometheus conventions (``_bucket{le=...}``,
    ``_sum``, ``_count``).
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "", buckets: Iterable[float] | None = None):
        super().__init__(name, help)
        bounds = tuple(sorted(buckets if buckets is not None else DEFAULT_BUCKETS))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self._bucket_counts = [0] * len(bounds)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            self._sum += value
            self._count += 1
            for index, bound in enumerate(self.bounds):
                if value <= bound:
                    self._bucket_counts[index] += 1
                    break

    def snapshot(self) -> tuple[list[int], float, int]:
        """A consistent ``(bucket_counts, sum, count)`` triple."""
        with self._lock:
            return list(self._bucket_counts), self._sum, self._count

    def expose(self) -> list[tuple[str, float]]:
        """Cumulative ``_bucket`` samples plus ``_sum`` and ``_count``."""
        counts, total, count = self.snapshot()
        samples: list[tuple[str, float]] = []
        cumulative = 0
        for bound, bucket in zip(self.bounds, counts):
            cumulative += bucket
            samples.append((f'{self.name}_bucket{{le="{_format_bound(bound)}"}}', float(cumulative)))
        samples.append((f'{self.name}_bucket{{le="+Inf"}}', float(count)))
        samples.append((f"{self.name}_sum", total))
        samples.append((f"{self.name}_count", float(count)))
        return samples


def _format_bound(bound: float) -> str:
    """Render a bucket bound the way Prometheus client libraries do."""
    if bound == math.inf:
        return "+Inf"
    text = repr(float(bound))
    return text[:-2] if text.endswith(".0") else text


class MetricsRegistry:
    """A namespace of metrics with get-or-create accessors.

    Accessors are idempotent: asking twice for the same name returns the
    same object, and asking for a name that exists under a different
    metric kind raises — one name, one meaning.
    """

    def __init__(self):
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls: type, name: str, help: str, **kwargs) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as a {existing.kind}, not a {cls.kind}"
                    )
                return existing
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter ``name``."""
        return self._get_or_create(Counter, name, help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get_or_create(Gauge, name, help)  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "", buckets: Iterable[float] | None = None) -> Histogram:
        """Get or create the histogram ``name`` (buckets fixed on first call)."""
        return self._get_or_create(Histogram, name, help, buckets=buckets)  # type: ignore[return-value]

    def get(self, name: str) -> Metric | None:
        """The metric registered under ``name``, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def metrics(self) -> list[Metric]:
        """Every registered metric, sorted by name."""
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def reset(self) -> None:
        """Drop every metric (tests isolating a registry, the process-wide one included)."""
        with self._lock:
            self._metrics.clear()

    def render(self) -> str:
        """This registry alone in Prometheus text exposition format."""
        return render_prometheus(self)


#: the process-wide registry backing the status endpoint and CLI viewers
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide metrics registry (one source of operational truth)."""
    return _REGISTRY


def render_prometheus(*registries: MetricsRegistry) -> str:
    """Render one or more registries in Prometheus text exposition format.

    Later registries win on (unlikely) name collisions, matching how the
    serve status endpoint layers a coordinator's fleet registry over the
    process-wide one.
    """
    merged: dict[str, Metric] = {}
    for reg in registries:
        for metric in reg.metrics():
            merged[metric.name] = metric
    lines: list[str] = []
    for name in sorted(merged):
        metric = merged[name]
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        for sample_name, value in metric.expose():
            lines.append(f"{sample_name} {_format_value(value)}")
    return "\n".join(lines) + "\n"


def _format_value(value: float) -> str:
    """Render a sample value: integers without a trailing ``.0``."""
    return str(int(value)) if float(value).is_integer() and abs(value) < 1e15 else repr(float(value))
