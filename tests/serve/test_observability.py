"""Fleet observability: stats back-compat, RTT, handshake, traces, the status endpoint.

These tests pin the telemetry half of the serve stack — everything
``repro.obs`` added on top of the wire protocol — against real loopback
sockets, mirroring the harness of ``test_coordinator.py``.
"""

import json
import socket
import time
import urllib.request

from repro.obs.events import get_event_bus
from repro.obs.sinks import RingBufferSink
from repro.obs.trace import TraceContext
from repro.serve.codec import recv_message, send_message
from repro.serve.coordinator import STAT_KEYS
from repro.serve.protocol import PROTOCOL_VERSION, Hello, HelloAck

from test_coordinator import ClientThread, EchoTask, make_executor


class TracedEchoTask(EchoTask):
    """EchoTask carrying telemetry identity, like engine tasks do."""

    def __init__(self, n: int, trace: TraceContext):
        super().__init__(n)
        self.trace = trace


class TestStatsBackCompat:
    def test_stats_dict_keeps_the_legacy_keys_and_int_values(self):
        executor = make_executor(min_clients=1)
        host, port = executor.start()
        client = ClientThread(host, port, "w0")
        try:
            assert executor.map([EchoTask(3)]) == [6]
            stats = executor.stats()
            assert set(stats) == set(STAT_KEYS)
            assert all(isinstance(value, int) for value in stats.values())
            assert stats["connects"] == 1
            assert stats["dispatched"] >= 1
            assert stats["results"] >= 1
        finally:
            executor.shutdown()
            client.join()

    def test_counters_expose_with_total_suffix(self):
        executor = make_executor(min_clients=1)
        host, port = executor.start()
        client = ClientThread(host, port, "w0")
        try:
            executor.map([EchoTask(1)])
            coordinator = executor._coordinator
            assert coordinator is not None
            exposition = coordinator.metrics.render()
            for key in STAT_KEYS:
                assert f"# TYPE {key}_total counter" in exposition
            assert "# TYPE tasks_inflight gauge" in exposition
            assert "# TYPE heartbeat_rtt_seconds histogram" in exposition
            assert "# TYPE bytes_up_total counter" in exposition
            assert "# TYPE bytes_down_total counter" in exposition
        finally:
            executor.shutdown()
            client.join()


class TestHeartbeatRtt:
    def test_heartbeat_echoes_are_observed_as_rtt(self):
        executor = make_executor(min_clients=1, heartbeat_interval=0.2)
        host, port = executor.start()
        client = ClientThread(host, port, "w0")
        try:
            executor.map([EchoTask(1)])  # ensure the actor is live
            coordinator = executor._coordinator
            assert coordinator is not None
            deadline = time.monotonic() + 10
            while coordinator.heartbeat_rtt.snapshot()[2] == 0 and time.monotonic() < deadline:
                time.sleep(0.05)
            _, total, calls = coordinator.heartbeat_rtt.snapshot()
            assert calls >= 1
            # loopback RTTs are real durations: positive, well under a second
            assert 0 < total < calls * 1.0
        finally:
            executor.shutdown()
            client.join()


class TestVersionHandshake:
    def _handshake(self, host, port, name="probe"):
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.settimeout(5)
            send_message(sock, Hello(client_name=name, protocol_version=PROTOCOL_VERSION))
            return recv_message(sock)

    def test_current_version_peer_is_acked_at_that_version(self):
        executor = make_executor()
        host, port = executor.start()
        try:
            reply = self._handshake(host, port)
            assert isinstance(reply, HelloAck)
            assert reply.protocol_version == PROTOCOL_VERSION
            assert reply.resumed is False
        finally:
            executor.shutdown()

    def test_client_connect_event_names_only_the_client(self):
        ring = RingBufferSink(capacity=64)
        get_event_bus().attach(ring)
        executor = make_executor()
        host, port = executor.start()
        try:
            assert isinstance(self._handshake(host, port), HelloAck)
        finally:
            executor.shutdown()
            get_event_bus().detach(ring)
        connects = [event for event in ring.events() if event.type == "client_connect"]
        assert [event.data for event in connects] == [{"client": "probe"}]


class TestCodecCounters:
    def test_coordinator_registers_no_codec_byte_counters(self):
        """The codec byte counters live once, in the process registry the training loop feeds."""
        executor = make_executor(min_clients=1)
        host, port = executor.start()
        client = ClientThread(host, port, "w0")
        try:
            executor.map([EchoTask(1)])
            coordinator = executor._coordinator
            assert coordinator is not None
            exposition = coordinator.metrics.render()
            assert "bytes_up_total" in exposition
            assert "codec_" not in exposition
        finally:
            executor.shutdown()
            client.join()


class TestTracePropagation:
    def test_trace_ids_ride_the_wire_into_client_event_logs(self, tmp_path):
        ring = RingBufferSink(capacity=64)
        get_event_bus().attach(ring)
        executor = make_executor(min_clients=1)
        host, port = executor.start()
        event_log = tmp_path / "worker.jsonl"
        client = ClientThread(host, port, "w0", event_log=str(event_log))
        try:
            traces = [TraceContext(trace_id="test-r0#000042", span_id=f"s{i:06d}") for i in range(3)]
            tasks = [TracedEchoTask(i, traces[i]) for i in range(3)]
            assert executor.map(tasks) == [0, 2, 4]
        finally:
            executor.shutdown()
            client.join()
            get_event_bus().detach(ring)

        # server side: dispatch and result events carry the task's identity
        server_events = {
            (event.type, event.span_id)
            for event in ring.events()
            if event.trace_id == "test-r0#000042"
        }
        for trace in traces:
            assert ("task_dispatch", trace.span_id) in server_events
            assert ("task_result", trace.span_id) in server_events

        # client side: the private log has start/upload under the same ids
        client_events = [json.loads(line) for line in event_log.read_text(encoding="utf-8").splitlines()]
        assert all(event["source"] == "w0" for event in client_events)
        client_spans = {(event["type"], event["span_id"]) for event in client_events}
        for trace in traces:
            assert ("task_start", trace.span_id) in client_spans
            assert ("task_upload", trace.span_id) in client_spans


class TestStatusEndpoint:
    def test_serve_status_endpoint_exposes_fleet_metrics(self):
        executor = make_executor(min_clients=1, status_port=0)
        host, port = executor.start()
        client = ClientThread(host, port, "w0")
        try:
            executor.map([EchoTask(2)])
            status = executor.status_address
            assert status is not None
            with urllib.request.urlopen(f"http://{status[0]}:{status[1]}/metrics", timeout=5) as response:
                body = response.read().decode("utf-8")
            assert "dispatched_total" in body
            assert "bytes_up_total" in body
        finally:
            executor.shutdown()
            client.join()
        assert executor.status_address is None  # endpoint dies with the fleet
