"""Coordinator behaviour over real loopback sockets (threaded client runners).

Everything here runs in one process: the ``RemoteExecutor`` hosts the
asyncio coordinator on its background thread, and ``ClientRunner``
instances serve it from plain Python threads — real sockets, no
subprocesses, so the tests stay fast and debuggable.
"""

import socket
import threading
import time

import pytest

from repro.serve.client import ClientRunner
from repro.serve.codec import recv_message, send_message
from repro.serve.executor import RemoteExecutor
from repro.serve.options import ServeOptions
from repro.serve.protocol import PROTOCOL_VERSION, Hello, HelloAck, ProtocolError


class EchoTask:
    """Returns a function of its payload (picklable, deterministic)."""

    def __init__(self, n: int):
        self.n = n

    def run(self) -> int:
        return self.n * 2


class FailingTask:
    def run(self):
        raise ValueError("boom from the client side")


class SleepyTask:
    """Deterministic result, tunable wall-clock (straggler simulation)."""

    def __init__(self, n: int, delay: float):
        self.n = n
        self.delay = delay

    def run(self) -> int:
        time.sleep(self.delay)
        return self.n


def make_executor(**overrides) -> RemoteExecutor:
    defaults = dict(
        port=0,
        min_clients=1,
        connect_timeout=15.0,
        straggler_timeout=30.0,
        heartbeat_interval=0.5,
        liveness_timeout=15.0,
    )
    defaults.update(overrides)
    return RemoteExecutor(options=ServeOptions(**defaults))


class ClientThread:
    """A ClientRunner on a thread, capturing its exit code."""

    def __init__(self, host: str, port: int, name: str, **kwargs):
        kwargs.setdefault("quiet", True)
        kwargs.setdefault("backoff_base", 0.05)
        self.runner = ClientRunner(host, port, name, **kwargs)
        self.exit_code: int | None = None
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self) -> None:
        self.exit_code = self.runner.run()

    def join(self, timeout: float = 10.0) -> None:
        self.thread.join(timeout)
        assert not self.thread.is_alive(), "client thread did not exit"


@pytest.fixture()
def fleet():
    """A started executor with two connected client threads."""
    executor = make_executor(min_clients=2)
    host, port = executor.start()
    clients = [ClientThread(host, port, f"w{i}") for i in range(2)]
    try:
        yield executor, clients
    finally:
        executor.shutdown()
        for client in clients:
            client.thread.join(timeout=10)


def test_map_preserves_submission_order(fleet):
    executor, _ = fleet
    for _ in range(3):
        assert executor.map([EchoTask(n) for n in range(7)]) == [n * 2 for n in range(7)]


def test_empty_batch_is_a_noop(fleet):
    executor, _ = fleet
    assert executor.map([]) == []


def test_client_side_exception_fails_the_batch_with_traceback(fleet):
    executor, _ = fleet
    with pytest.raises(RuntimeError, match="boom from the client side"):
        executor.map([EchoTask(0), FailingTask(), EchoTask(2)])
    # the fleet survives a failed batch
    assert executor.map([EchoTask(5)]) == [10]


def test_straggler_is_requeued_to_another_client():
    executor = make_executor(min_clients=2, straggler_timeout=0.4)
    host, port = executor.start()
    clients = [ClientThread(host, port, f"w{i}") for i in range(2)]
    try:
        # one slow task: its first dispatch times out and a second client
        # rescues it; the slow original upload is then a counted duplicate
        assert executor.map([SleepyTask(7, delay=1.2)]) == [7]
        stats = executor.stats()
        assert stats["requeues"] >= 1, stats
    finally:
        executor.shutdown()
        for client in clients:
            client.join()


def test_shutdown_sends_bye_and_clients_exit_zero(fleet):
    executor, clients = fleet
    assert executor.map([EchoTask(1)]) == [2]
    executor.shutdown()
    for client in clients:
        client.join()
        assert client.exit_code == 0


def test_quorum_timeout_raises_without_clients():
    executor = make_executor(min_clients=1, connect_timeout=0.4)
    executor.start()
    try:
        with pytest.raises(RuntimeError, match="only 0 connected"):
            executor.map([EchoTask(1)])
    finally:
        executor.shutdown()


@pytest.mark.parametrize("version", [PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1], ids=["older", "newer"])
def test_version_mismatch_is_rejected_before_any_task(version):
    executor = make_executor()
    host, port = executor.start()
    try:
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.settimeout(5)
            send_message(sock, Hello(client_name="fossil", protocol_version=version))
            reply = recv_message(sock)
        assert isinstance(reply, ProtocolError)
        assert "version mismatch" in reply.message
        assert executor.stats()["connects"] == 0
    finally:
        executor.shutdown()


def test_reconnect_under_the_same_name_is_resumed():
    executor = make_executor()
    host, port = executor.start()

    def handshake() -> HelloAck:
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.settimeout(5)
            send_message(sock, Hello(client_name="phoenix", protocol_version=PROTOCOL_VERSION))
            reply = recv_message(sock)
        assert isinstance(reply, HelloAck)
        return reply

    try:
        first = handshake()
        assert first.resumed is False
        deadline = time.monotonic() + 5
        while executor.stats()["connects"] < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        second = handshake()
        assert second.resumed is True
        stats = executor.stats()
        assert stats["connects"] == 1
        assert stats["reconnects"] == 1
    finally:
        executor.shutdown()


def test_actor_send_queues_are_bounded(fleet):
    executor, _ = fleet
    executor.map([EchoTask(1)])  # ensure both actors registered
    coordinator = executor._coordinator
    assert coordinator is not None and len(coordinator.actors) == 2
    for actor in coordinator.actors.values():
        assert actor.send_queue.maxsize == executor.options.send_queue_size


def test_executor_without_options_runs_on_the_defaults():
    assert RemoteExecutor().options == ServeOptions()
    sized = RemoteExecutor(max_workers=3)
    assert sized.options == ServeOptions(min_clients=3)
    assert sized.effective_workers == 3


def test_start_binds_silently(capsys):
    """Announcing the address is the CLI's job; the executor prints nothing."""
    executor = make_executor()
    try:
        host, port = executor.start()
        assert executor.address == (host, port) and port > 0
    finally:
        executor.shutdown()
    assert capsys.readouterr().out == ""


def test_executor_registered_in_factory():
    from repro.engine.factory import EXECUTOR_NAMES, EXECUTORS

    assert "remote" in EXECUTOR_NAMES
    assert EXECUTORS["remote"] is RemoteExecutor
    assert RemoteExecutor.is_interprocess is True