"""Regression tests for transport lifecycle bugs the networked path flushed out.

Three distinct bugs, each with its own reproduction:

1. ``StateStore.publish`` used to unlink the *previous* version's spill
   file the moment a new version was published — while outstanding
   ``StateHandle`` objects (stragglers mid-round, networked clients
   fetching late) could still reference it.  Spill files are now
   retained until ``close()`` or an explicit ``release_below``.
2. ``StateHandle.load`` used to cache whatever version it had just
   read, so an out-of-order load of an *older* version clobbered the
   newer cached one — every subsequent task then paid a reload (or, on
   a networked worker, a wire fetch).  The cache now only moves
   forward per store.
3. ``StateStore.__del__`` called ``close()`` unguarded, which during
   interpreter teardown can hit half-torn-down module globals and
   raise from a finaliser.
"""

import gc
import os
import pickle

import numpy as np
import pytest

from repro.engine import transport
from repro.engine.transport import StateHandle, StateStore, server_state_bytes, set_state_fetcher


def make_state(value: float) -> dict:
    return {"w": np.full((3, 2), value, dtype=np.float32), "b": np.arange(4, dtype=np.float32) + value}


def assert_states_equal(left, right) -> None:
    assert set(left) == set(right)
    for key in left:
        np.testing.assert_array_equal(left[key], right[key])


def reload_handle(handle: StateHandle) -> StateHandle:
    """Pickle round-trip: what a worker on the far side of a pipe holds."""
    return pickle.loads(pickle.dumps(handle))


@pytest.fixture(autouse=True)
def fresh_worker_cache():
    transport._WORKER_STATE_CACHE.clear()
    yield
    transport._WORKER_STATE_CACHE.clear()


# -- bug 1: spill retention ---------------------------------------------------------------
def test_old_version_loads_after_new_publish():
    """A v1 handle must still resolve after v2 is published (the old unlink bug)."""
    store = StateStore("retention")
    try:
        v1 = reload_handle(store.publish(make_state(1.0), spill=True))
        v2 = reload_handle(store.publish(make_state(2.0), spill=True))
        # a straggler resolving v1 from disk after v2 went out
        assert_states_equal(v1.load(), make_state(1.0))
        assert_states_equal(v2.load(), make_state(2.0))
    finally:
        store.close()


def test_release_below_unlinks_only_older_versions():
    store = StateStore("release")
    try:
        h1 = store.publish(make_state(1.0), spill=True)
        h2 = store.publish(make_state(2.0), spill=True)
        h3 = store.publish(make_state(3.0), spill=True)
        store.release_below(3)
        assert not os.path.exists(h1.path)
        assert not os.path.exists(h2.path)
        assert os.path.exists(h3.path)
        with pytest.raises(KeyError):
            store.version_bytes(1)
        assert pickle.loads(store.version_bytes(3))["w"][0, 0] == np.float32(3.0)
    finally:
        store.close()


def test_close_removes_every_retained_spill():
    store = StateStore("close-all")
    handles = [store.publish(make_state(float(i)), spill=True) for i in range(3)]
    spill_dir = os.path.dirname(handles[0].path)
    store.close()
    for handle in handles:
        assert not os.path.exists(handle.path)
    assert not os.path.exists(spill_dir)
    store.close()  # idempotent


# -- bug 2: monotonic worker cache --------------------------------------------------------
def test_out_of_order_load_does_not_clobber_newer_cache():
    store = StateStore("monotonic")
    try:
        v1 = reload_handle(store.publish(make_state(1.0), spill=True))
        v2 = reload_handle(store.publish(make_state(2.0), spill=True))
        assert_states_equal(v2.load(), make_state(2.0))
        cached_v2 = transport._WORKER_STATE_CACHE[store.store_id][1]

        # a straggler loads v1 late: correct data returned...
        assert_states_equal(v1.load(), make_state(1.0))
        # ...but the cache still holds v2 (same object, no reload)
        version, state = transport._WORKER_STATE_CACHE[store.store_id]
        assert version == 2
        assert state is cached_v2
        assert v2.load() is cached_v2
    finally:
        store.close()


def test_newer_load_still_replaces_older_cache():
    store = StateStore("forward")
    try:
        v1 = reload_handle(store.publish(make_state(1.0), spill=True))
        v2 = reload_handle(store.publish(make_state(2.0), spill=True))
        assert_states_equal(v1.load(), make_state(1.0))
        assert_states_equal(v2.load(), make_state(2.0))
        assert transport._WORKER_STATE_CACHE[store.store_id][0] == 2
    finally:
        store.close()


# -- bug 3: finaliser safety --------------------------------------------------------------
def test_close_survives_interpreter_teardown_globals(monkeypatch):
    """close() during shutdown, when the os module global is torn down."""
    store = StateStore("teardown")
    handle = store.publish(make_state(1.0), spill=True)
    path = handle.path
    monkeypatch.setattr(transport, "os", None)
    store.close()  # must not raise, drops bookkeeping only
    monkeypatch.undo()
    assert os.path.exists(path)  # nothing unlinked without os
    os.unlink(path)
    os.rmdir(os.path.dirname(path))


def test_del_never_raises(monkeypatch):
    store = StateStore("finaliser")
    store.publish(make_state(1.0), spill=True)

    def explode():
        raise RuntimeError("boom from close")

    monkeypatch.setattr(store, "close", explode)
    store.__del__()  # the finaliser swallows everything
    monkeypatch.undo()
    store.close()


# -- networked additions: registry + fetcher hook -----------------------------------------
def test_server_state_bytes_serves_retained_versions():
    store = StateStore("registry")
    try:
        store.publish(make_state(1.0), spill=True)
        store.publish(make_state(2.0), spill=True)
        assert_states_equal(pickle.loads(server_state_bytes(store.store_id, 1)), make_state(1.0))
        assert_states_equal(pickle.loads(server_state_bytes(store.store_id, 2)), make_state(2.0))
        with pytest.raises(KeyError):
            server_state_bytes(store.store_id, 99)
    finally:
        store.close()


def test_newest_spill_is_served_from_memory_when_asked_to_keep_its_bytes():
    """``keep_bytes``: the bytes ``publish`` pickled answer ``state_request`` — no file read per worker."""
    store = StateStore("hot")
    try:
        first = store.publish(make_state(1.0), spill=True, keep_bytes=True)
        with open(first.path, "rb") as stream:
            assert server_state_bytes(store.store_id, 1) == stream.read()
        second = store.publish(make_state(2.0), spill=True, keep_bytes=True)
        os.unlink(second.path)  # memory, not the file, serves the newest version
        assert_states_equal(pickle.loads(server_state_bytes(store.store_id, 2)), make_state(2.0))
        # only one pickle is retained: the straggler window's older version re-reads its file
        assert_states_equal(pickle.loads(server_state_bytes(store.store_id, 1)), make_state(1.0))
        os.unlink(first.path)
        with pytest.raises(OSError):
            server_state_bytes(store.store_id, 1)
    finally:
        store.close()
    with pytest.raises(KeyError):
        store.version_bytes(2)


def test_publish_once_streams_keep_no_bytes():
    """Client datasets are fetched once per worker: their pickle is not held in memory."""
    store = StateStore("dataset")
    try:
        handle = store.publish(make_state(3.0), spill=True)
        assert store._newest_spill == (0, b"")
        assert_states_equal(pickle.loads(server_state_bytes(store.store_id, 1)), make_state(3.0))
        os.unlink(handle.path)
        with pytest.raises(OSError):
            server_state_bytes(store.store_id, 1)
    finally:
        store.close()


def test_server_store_registry_is_weak():
    store = StateStore("weak")
    store_id = store.store_id
    store.close()
    del store
    gc.collect()
    with pytest.raises(KeyError):
        server_state_bytes(store_id, 1)


def test_state_fetcher_resolves_cache_misses():
    calls = []

    def fetcher(store_id, version):
        calls.append((store_id, version))
        return make_state(float(version))

    handle = StateHandle("fetched-0", 3, None, None)
    set_state_fetcher(fetcher)
    try:
        assert_states_equal(handle.load(), make_state(3.0))
        assert calls == [("fetched-0", 3)]
        # second load hits the worker cache, not the wire
        handle.load()
        assert calls == [("fetched-0", 3)]
    finally:
        set_state_fetcher(None)


def test_state_fetcher_takes_precedence_over_server_side_path(tmp_path):
    """On a networked worker the spill path names a *server* file — never open it."""
    bogus = tmp_path / "does-not-exist.pkl"
    handle = StateHandle("fetched-1", 1, str(bogus), None)
    set_state_fetcher(lambda store_id, version: make_state(7.0))
    try:
        assert_states_equal(handle.load(), make_state(7.0))
    finally:
        set_state_fetcher(None)