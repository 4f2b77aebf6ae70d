"""Span tracing from outside: wrappers around the calls into each layer.

The benchmark touches no file of the program.  For the traced repeat it
replaces, at run time, the *names the call sites look up* — a function
in the module that imported it, a method on the class that defines it —
with wrappers that append ``(name, start, end, parent, round, tag)``
tuples to an in-memory list.  :func:`install` returns an undo list;
timed repeats always run with nothing installed.

A span's parent is the span that was open on the same process when it
started (the lazy ``decode_result_state`` calls made by ``aggregate``'s
generator therefore nest under the aggregate span); a span with no open
parent hangs under the round span of the round in flight.  A layer's
*self time* is its spans' duration minus the part their child spans
cover, so the self times of a round sum to the round's wall time and
the round span's own self time is the unattributed remainder.

Wire workers run the same wrappers in their own process
(``worker.py --trace FILE``).  Their root spans carry the round taken
from the task's ``(seed, round, client)`` RNG stream, and
:func:`merge_worker_spans` hangs them under the server's ``engine.map``
span of that round.  Worker time overlaps across workers, so it enters
the per-round breakdown at weight ``1 / workers``: what is left of the
map span after that is the time the server waited on an idle or
network-bound fleet.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

ROUND = "round"


class Tracer:
    """In-memory span list of one process (single-threaded call sites)."""

    def __init__(self, proc: str = "server"):
        self.proc = proc
        #: [name, start, end, parent, round, tag]; ``end`` is filled on close
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.round = -1
        self._stack: list[int] = []
        self._round_span = -1

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else self._round_span
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, self.round, None])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def close(self, index: int, tag=None) -> None:
        now = time.perf_counter()
        span = self.spans[index]
        span[2] = now
        # the round is read on close: a worker learns it while the span is open
        span[4] = self.round
        span[5] = tag
        self._stack.pop()

    def begin_round(self, round_index: int, now: float) -> None:
        self.round = round_index
        self._round_span = len(self.spans)
        self.spans.append([ROUND, now, now, -1, round_index, None])

    def end_round(self, now: float) -> None:
        if self._round_span >= 0:
            self.spans[self._round_span][2] = now
        self._round_span = -1
        self.round = -1

    def wrap(self, name, func, probe=None):
        """``func`` timed as span ``name`` (a string, or ``f(args, kwargs) -> str``).

        ``probe(tracer, args, kwargs, result)`` runs inside the span, after
        the call; what it returns becomes the span's tag.
        """
        dynamic = callable(name)

        def wrapper(*args, **kwargs):
            index = self.open(name(args, kwargs) if dynamic else name)
            tag = None
            try:
                result = func(*args, **kwargs)
                if probe is not None:
                    tag = probe(self, args, kwargs, result)
                return result
            finally:
                self.close(index, tag)

        wrapper.__wrapped__ = func
        return wrapper

    def dump(self, path) -> None:
        payload = {"proc": self.proc, "spans": self.spans, "counters": dict(self.counters)}
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(payload, stream)


class _PickleShim:
    """Stands in for the ``pickle`` name of a module: dumps/loads become spans."""

    def __init__(self, tracer: Tracer, module, on_load=None):
        self.HIGHEST_PROTOCOL = module.HIGHEST_PROTOCOL
        self.dumps = tracer.wrap("serve.pickle", module.dumps)
        self.loads = tracer.wrap("serve.pickle", module.loads, probe=on_load)


def _task_ids(task) -> tuple[int, int]:
    """``(round, client)`` of a client task, from its RNG stream's entropy."""
    _, round_index, client_id = task.rng_stream.entropy
    return int(round_index), int(client_id)


def _probe_loaded_task(tracer: Tracer, args, kwargs, result):
    # a worker learns the round in flight from the task it just unpickled
    if hasattr(result, "rng_stream"):
        tracer.round = _task_ids(result)[0]


def _probe_task(tracer: Tracer, args, kwargs, result):
    return _task_ids(args[0])[1]


def _probe_training(tracer: Tracer, args, kwargs, result):
    config = kwargs["config"]
    tracer.counters["local_training.samples"] += min(
        result.num_steps * config.batch_size, config.local_epochs * result.num_samples
    )


def _decode_name(args, kwargs) -> str:
    from repro.engine.codecs import EncodedUpdate

    return "codecs.decode" if isinstance(args[1], EncodedUpdate) else "transport.delta_decode"


def _probe_decode(tracer: Tracer, args, kwargs, result):
    from repro.engine.codecs import EncodedUpdate

    uploaded = args[1]
    if isinstance(uploaded, EncodedUpdate):
        tracer.counters["codecs.raw_bytes"] += uploaded.raw_nbytes
        tracer.counters["codecs.encoded_bytes"] += uploaded.nbytes


def _targets(worker: bool) -> list[tuple]:
    """``(owner, attribute, span name, probe)`` for every wrapped call site.

    Functions are patched in the module whose call site imported them,
    methods on the class that defines them, so the program's own calls go
    through the wrapper without the program knowing.
    """
    import repro.core.client as core_client
    import repro.engine.tasks as engine_tasks
    from repro.engine.transport import StateHandle
    from repro.nn.models.simple_cnn import SlimmableSimpleCNN

    shared = [
        (engine_tasks.LocalRoundTask, "run", "engine.task", _probe_task),
        (engine_tasks.TrainSubmodelTask, "run", "engine.task", _probe_task),
        (StateHandle, "load", "transport.resolve", None),
        (engine_tasks, "encode_state_delta", "transport.delta_encode", None),
        (engine_tasks, "encode_client_update", "codecs.encode", None),
        (core_client, "train_local_model", "local_training.train", _probe_training),
        (engine_tasks, "train_local_model", "local_training.train", _probe_training),
        (SlimmableSimpleCNN, "build", "nn.build", None),
    ]
    if worker:
        return shared

    import repro.core.server as core_server
    import repro.experiments.settings as settings
    from repro.api.registry import AlgorithmSpec
    from repro.core.fl_base import FederatedAlgorithm
    from repro.core.rl_selection import RLClientSelector, StreamingRLClientSelector
    from repro.store.runstore import RunStore

    return shared + [
        (settings, "prepare_experiment", "experiments.prepare", None),
        (settings.DATASET_BUILDERS, "cifar10", "data.synthesize", None),
        (settings, "partition_dataset", "data.partition", None),
        (AlgorithmSpec, "build", "core.build", None),
        (RLClientSelector, "select", "rl_selection.select", None),
        (StreamingRLClientSelector, "select", "rl_selection.select", None),
        (StreamingRLClientSelector, "select_from_mask", "rl_selection.select", None),
        (RLClientSelector, "update", "rl_selection.update", None),
        (StreamingRLClientSelector, "update", "rl_selection.update", None),
        (core_server, "resource_aware_prune", "pruning.plan", None),
        (FederatedAlgorithm, "selectable_mask", "sim.availability", None),
        (FederatedAlgorithm, "selectable_clients", "sim.availability", None),
        (FederatedAlgorithm, "plan_round_outcome", "sim.round", None),
        (FederatedAlgorithm, "publish_state", "transport.publish", None),
        (FederatedAlgorithm, "decode_result_state", _decode_name, _probe_decode),
        (FederatedAlgorithm, "execute_client_tasks", "engine.map", None),
        (FederatedAlgorithm, "aggregate", "aggregation.fold", None),
        (FederatedAlgorithm, "evaluate", "metrics.evaluate", None),
        (FederatedAlgorithm, "finalize_round", "fl_base.finalize", None),
        (FederatedAlgorithm, "checkpoint_state", "store.snapshot", None),
        (FederatedAlgorithm, "restore_checkpoint", "store.restore", None),
        (RunStore, "save_checkpoint", "store.save", None),
        (RunStore, "latest_checkpoint", "store.load", None),
    ]


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else owner.__dict__[key]


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def install(tracer: Tracer, worker: bool = False) -> list[tuple]:
    """Put every wrapper in place; returns the undo list for :func:`uninstall`."""
    undo = []
    for owner, key, name, probe in _targets(worker):
        original = _get(owner, key)
        undo.append((owner, key, original))
        _set(owner, key, tracer.wrap(name, original, probe))
    if worker:
        import repro.serve.client as pickling_module

        on_load = _probe_loaded_task
    else:
        import repro.serve.executor as pickling_module

        on_load = None
    original = pickling_module.pickle
    undo.append((pickling_module, "pickle", original))
    pickling_module.pickle = _PickleShim(tracer, original, on_load)
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, key, original in reversed(undo):
        _set(owner, key, original)


def merge_worker_spans(server: Tracer, worker_files) -> list[list]:
    """One span list: the server's, plus each worker's hung under ``engine.map``.

    Spans gain a seventh field, the process they ran on.  A worker's root
    span takes as parent the server's ``engine.map`` span of the same round
    that was open when it started (``perf_counter`` is the system-wide
    monotonic clock on Linux, so the two processes' times compare).  Each
    ``engine.task`` span carries its client id as tag, which makes
    ``(round, client_id)`` the join key between the two sides.
    """
    merged = [span + [server.proc] for span in server.spans]
    maps_of_round = defaultdict(list)
    for index, span in enumerate(merged):
        if span[0] == "engine.map":
            maps_of_round[span[4]].append(index)
    for path in worker_files:
        with open(path, encoding="utf-8") as stream:
            payload = json.load(stream)
        base = len(merged)
        for span in payload["spans"]:
            parent = span[3] + base if span[3] >= 0 else -1
            if parent < 0:
                for candidate in maps_of_round[span[4]]:
                    if merged[candidate][1] <= span[1] <= merged[candidate][2]:
                        parent = candidate
            merged.append([span[0], span[1], span[2], parent, span[4], span[5], payload["proc"]])
        for key, value in payload["counters"].items():
            server.counters[key] += value
    return merged


def self_times(spans: list[list], workers: int = 1) -> list[float]:
    """Self seconds of every span: its duration minus what its children cover.

    Spans of another process than their parent (worker roots under the
    server's map span) run side by side on ``workers`` processes: they,
    and everything below them, count at weight ``1 / workers`` — both in
    their own self time and in what they take off the parent — so the
    self times under a round still sum to the round's wall time.
    """
    weight = [1.0] * len(spans)
    covered = [0.0] * len(spans)
    for index, span in enumerate(spans):
        parent = span[3]
        if parent >= 0:
            crossed = span[6] != spans[parent][6]
            weight[index] = weight[parent] / workers if crossed else weight[parent]
            covered[parent] += (span[2] - span[1]) * weight[index] / weight[parent]
    return [
        (span[2] - span[1] - covered[index]) * weight[index] for index, span in enumerate(spans)
    ]
