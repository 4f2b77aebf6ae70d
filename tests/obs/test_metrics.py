"""Metric primitives, registry semantics and Prometheus text exposition."""

from __future__ import annotations

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
    render_prometheus,
)


class TestCounter:
    def test_accumulates(self):
        counter = Counter("requests_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_decrease(self):
        counter = Counter("requests_total")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_name_validation(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            Counter("bad name")
        with pytest.raises(ValueError, match="invalid metric name"):
            Counter("9starts_with_digit")
        with pytest.raises(ValueError, match="invalid metric name"):
            Counter("")


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("tasks_inflight")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(4)
        assert gauge.value == 3.0


class TestHistogram:
    def test_sum_count_and_properties(self):
        histogram = Histogram("latency_seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            histogram.observe(value)
        _, total, calls = histogram.snapshot()
        assert calls == 4
        assert total == pytest.approx(55.55)

    def test_exposition_buckets_are_cumulative(self):
        histogram = Histogram("latency_seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            histogram.observe(value)
        samples = dict(histogram.expose())
        assert samples['latency_seconds_bucket{le="0.1"}'] == 1
        assert samples['latency_seconds_bucket{le="1"}'] == 2
        assert samples['latency_seconds_bucket{le="10"}'] == 3
        # +Inf always equals the observation count (50.0 is over every bound)
        assert samples['latency_seconds_bucket{le="+Inf"}'] == 4
        assert samples["latency_seconds_count"] == 4

    def test_buckets_are_sorted_at_construction(self):
        histogram = Histogram("h", buckets=(5.0, 0.5))
        assert histogram.bounds == (0.5, 5.0)

    def test_rejects_empty_buckets(self):
        with pytest.raises(ValueError, match="at least one bucket"):
            Histogram("h", buckets=())


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("a_total")
        with pytest.raises(ValueError, match="already registered as a counter"):
            reg.gauge("a_total")

    def test_get_and_metrics_and_reset(self):
        reg = MetricsRegistry()
        counter = reg.counter("b_total")
        reg.gauge("a_gauge")
        assert reg.get("b_total") is counter
        assert reg.get("missing") is None
        assert [metric.name for metric in reg.metrics()] == ["a_gauge", "b_total"]
        reg.reset()
        assert reg.metrics() == []

    def test_process_wide_registry_is_a_singleton(self):
        assert registry() is registry()


class TestExposition:
    def test_render_format(self):
        reg = MetricsRegistry()
        reg.counter("rounds_total", help="completed rounds").inc(3)
        text = reg.render()
        assert "# HELP rounds_total completed rounds" in text
        assert "# TYPE rounds_total counter" in text
        assert "rounds_total 3" in text
        assert text.endswith("\n")

    def test_integers_render_without_decimal_point(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(2.0)
        assert "g 2\n" in reg.render()
        reg.gauge("g").set(2.5)
        assert "g 2.5" in reg.render()

    def test_merge_later_registry_wins(self):
        base, overlay = MetricsRegistry(), MetricsRegistry()
        base.counter("shared_total").inc(1)
        overlay.counter("shared_total").inc(9)
        base.counter("only_base_total").inc(4)
        text = render_prometheus(base, overlay)
        assert "shared_total 9" in text
        assert "shared_total 1" not in text
        assert "only_base_total 4" in text
