"""Event envelope, EventBus semantics, trace identity and the clock shim."""

from __future__ import annotations

import dataclasses

import pytest

from repro.obs.clock import iso_format
from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    EVENT_TYPES,
    Event,
    EventBus,
    configure_telemetry,
    emit,
    get_event_bus,
    shutdown_telemetry,
    telemetry_active,
)
from repro.obs.sinks import RingBufferSink, Sink
from repro.obs.trace import TraceContext, new_span_id, new_trace_id


class TestEvent:
    def test_round_trip(self):
        event = Event(
            type="round_start",
            timestamp=12.5,
            source="server",
            trace_id="t#000001",
            span_id="s000002",
            data={"round": 3},
        )
        assert Event.from_dict(event.to_dict()) == event

    def test_from_dict_rejects_unknown_keys(self):
        payload = Event(type="round_start", timestamp=0.0).to_dict()
        payload["surprise"] = 1
        with pytest.raises(ValueError):
            Event.from_dict(payload)

    def test_schema_version_is_stamped(self):
        assert Event(type="round_start", timestamp=0.0).to_dict()["schema_version"] == EVENT_SCHEMA_VERSION


class TestEventBus:
    def test_dormant_emit_returns_none(self):
        bus = EventBus()
        assert bus.emit("round_start", round=1) is None
        assert not bus.active

    def test_unknown_type_raises_even_when_dormant(self):
        bus = EventBus()
        with pytest.raises(ValueError, match="unknown event type"):
            bus.emit("made_up_type")

    def test_emit_delivers_to_every_sink(self):
        bus = EventBus(source="test")
        first, second = RingBufferSink(), RingBufferSink()
        bus.attach(first)
        bus.attach(second)
        event = bus.emit("task_start", trace_id="t", span_id="s", task_index=2)
        assert event is not None
        assert event.source == "test"
        assert event.data == {"task_index": 2}
        # both sinks saw the identical event (one timestamp read per emit)
        assert first.events() == [event]
        assert second.events() == [event]

    def test_failing_sink_is_detached_not_fatal(self):
        class Exploding(Sink):
            def write(self, event):
                raise RuntimeError("disk full")

        bus = EventBus()
        ring = RingBufferSink()
        bus.attach(Exploding())
        bus.attach(ring)
        event = bus.emit("round_end", round=1)
        assert event is not None  # training was not taken down
        assert ring.events() == [event]
        assert bus.dropped_sinks == ["Exploding: disk full"]
        # the exploding sink is gone; subsequent emits see only the ring
        bus.emit("round_end", round=2)
        assert len(ring.events()) == 2
        assert len(bus.dropped_sinks) == 1

    def test_detach_and_close(self):
        bus = EventBus()
        ring = RingBufferSink()
        bus.attach(ring)
        bus.detach(ring)
        bus.detach(ring)  # idempotent
        assert not bus.active
        bus.attach(ring)
        bus.close()
        assert not bus.active


class TestProcessWideBus:
    def test_configure_and_shutdown(self, tmp_path):
        assert not telemetry_active()
        try:
            sinks = configure_telemetry(jsonl_path=str(tmp_path / "events.jsonl"), ring_size=8)
            assert len(sinks) == 2
            assert telemetry_active()
            assert emit("run_start", algorithm="x") is not None
            assert (tmp_path / "events.jsonl").exists()
        finally:
            shutdown_telemetry()
        assert not telemetry_active()
        assert emit("run_start", algorithm="x") is None

    def test_defaults_attach_nothing(self):
        assert configure_telemetry() == []
        assert not get_event_bus().active


class TestTrace:
    def test_trace_ids_are_prefixed_and_increasing(self):
        first, second = new_trace_id("algo-r1"), new_trace_id("algo-r2")
        assert first.startswith("algo-r1#")
        assert second.startswith("algo-r2#")
        assert int(first.split("#")[1]) < int(second.split("#")[1])

    def test_span_ids_are_increasing(self):
        first, second = new_span_id(), new_span_id()
        assert first.startswith("s") and second.startswith("s")
        assert int(first[1:]) < int(second[1:])

    def test_trace_context_is_frozen_and_string_only(self):
        context = TraceContext(trace_id="t#000001", span_id="s000001")
        with pytest.raises(dataclasses.FrozenInstanceError):
            context.trace_id = "other"
        assert all(isinstance(value, str) for value in dataclasses.asdict(context).values())


class TestClock:
    def test_iso_format_is_utc_with_milliseconds(self):
        assert iso_format(0.0) == "1970-01-01T00:00:00.000+00:00"
        assert iso_format(1700000000.1234).endswith("+00:00")


class TestVocabulary:
    def test_every_fleet_event_is_catalogued(self):
        expected = {
            "run_start", "round_start", "round_end", "task_dispatch", "task_start",
            "task_result", "task_upload", "client_connect", "client_reconnect",
            "client_disconnect", "straggler_requeue", "checkpoint_saved", "eval_done",
            "update_rejected", "run_end",
        }
        assert EVENT_TYPES == expected
