"""Two lanes for inference kernels: the calling thread and one helper thread.

An eval-mode convolution (:func:`repro.nn.functional.conv2d_inference`)
cuts its batch into chunks and hands them to :func:`run_in_lanes`.  With
BLAS pinned to one thread, the calling thread is the only one doing work,
so a second core sits idle through every evaluation.  Two lanes — the
caller and one long-lived helper thread per process — claim chunks from a
shared counter until none are left.  The chunks write disjoint slices of
one output and each chunk's arithmetic does not depend on the lane that
runs it, so the result is the same bit for bit with one lane or two.

Lanes engage only on the main thread of a process with at least two
usable CPUs: a ``ThreadExecutor`` worker or a serve worker already shares
the cores with its siblings, and runs one lane.  The helper is created on
first use and forgotten in a forked child (``os.register_at_fork``): a
child inherits the pool object but not its thread, and would wait forever
on its first chunk.

Each lane gathers its chunk into its own scratch block
(:func:`lane_scratch`), thread-local and grow-only.  A chunk holds as many
samples as :data:`LANE_SCRATCH_BYTES` allows and at least one
(:func:`chunk_samples`), so no lane keeps more than that budget or one
sample's need, whichever is larger.
"""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from repro.perf.workspace import aligned_block

__all__ = ["LANE_SCRATCH_BYTES", "chunk_samples", "lane_count", "lane_scratch", "run_in_lanes", "usable_cpus"]

#: bytes of scratch one lane gathers a chunk into (a larger sample gets a chunk of one)
LANE_SCRATCH_BYTES = 256 * 1024

_helper: ThreadPoolExecutor | None = None


def _forget_helper() -> None:
    global _helper
    _helper = None


os.register_at_fork(after_in_child=_forget_helper)


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def lane_count() -> int:
    """2 on the main thread of a process with two usable CPUs, else 1."""
    if threading.current_thread() is not threading.main_thread():
        return 1
    return 2 if usable_cpus() >= 2 else 1


def chunk_samples(sample_bytes: int, samples: int) -> int:
    """Samples per chunk: as many as fit the lane budget, at least one."""
    return max(1, min(samples, LANE_SCRATCH_BYTES // max(1, sample_bytes)))


class _Scratch(threading.local):
    def __init__(self) -> None:
        self.block = aligned_block(0)


_SCRATCH = _Scratch()


def lane_scratch(nbytes: int) -> np.ndarray:
    """The calling thread's scratch block (uint8, uninitialised), at least ``nbytes`` long."""
    if _SCRATCH.block.nbytes < nbytes:
        _SCRATCH.block = aligned_block(nbytes)
    return _SCRATCH.block


def run_in_lanes(open_lane: Callable[[], Callable[[int], None]], count: int) -> None:
    """Run every ``index < count`` once, in :func:`lane_count` lanes.

    Each lane calls ``open_lane()`` once, on its own thread, for the
    ``run(index)`` it then calls on every index it claims; ``run`` must
    write only what its index owns.  An exception in either lane is raised
    here once both lanes have stopped.
    """
    if count < 2 or lane_count() < 2:
        run = open_lane()
        for index in range(count):
            run(index)
        return
    global _helper
    if _helper is None:
        _helper = ThreadPoolExecutor(1, thread_name_prefix="repro-lane")
    # one ``next`` on a C iterator is atomic under the GIL: no index is claimed twice
    claims = itertools.count()

    def drain() -> None:
        run = None
        for index in claims:
            if index >= count:
                return
            run = run or open_lane()
            run(index)

    helped = _helper.submit(drain)
    try:
        drain()
    finally:
        helped.result()
