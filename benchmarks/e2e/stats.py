"""Order statistics shared by the harness, the report and ``compare.py``."""

from __future__ import annotations

import statistics


def quartiles(values, method: str = "exclusive") -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method=method)
    return q1, median, q3


def percentile(values, fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in 0..1) of the samples."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summarise(values, unit: str, value: float) -> dict:
    """One reported timing: its value, the quartiles of its samples and their count."""
    # within one run the samples are all there is: no extrapolation beyond them
    q1, _, q3 = quartiles(values, method="inclusive")
    return {
        "value": value,
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def exact(value: float, unit: str) -> dict:
    """A count or a per-seed constant: one sample, no spread."""
    return {"value": value, "unit": unit, "q1": value, "q3": value, "n": 1}
