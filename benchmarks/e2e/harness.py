"""Measures one workload in this process and writes its result file.

Started by ``run.py``, one subprocess per (workload, phase), with the
BLAS thread variables pinned, ``TMPDIR`` inside the output directory and
``src`` on ``PYTHONPATH``.  Two phases:

* ``timed`` — set-up (timed, several samples) → timed legs with no
  wrapper installed, until ``--seconds`` of them have run → the untimed
  reference run where the workload has one → the end-to-end metrics;
* ``traced`` — one plain leg, then one leg (and its set-up) with the
  wrappers of ``tracing.py`` installed → the per-layer metrics.

A *leg* is one repeat of one of the workload's algorithms: a fresh
algorithm built by ``run_algorithm`` from the same prepared experiment
and seed, so every leg of an algorithm must produce the same history.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import host
import stats
import tracing
from metrics import PER_LAYER, UNITS
from workloads import SMOKE_ROUNDS, WARMUP_ROUNDS, WORKLOADS, Workload

import repro.experiments.settings as experiment_settings
from repro.api.callbacks import Callback
from repro.experiments.runner import run_algorithm
from repro.serve.executor import RemoteExecutor
from repro.serve.options import ServeOptions
from repro.store.objects import canonical_json, sha256_hex

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: the timed phase sets up at least 3 times, and until 2 s of set-up have been
#: measured or 9 samples taken (``setup_s`` is the median)
MIN_SETUP_SAMPLES = 3
MIN_SETUP_SECONDS = 2.0
MAX_SETUP_SAMPLES = 9
#: coordinator counters that mean a task was handed out more than once
CHURN_COUNTERS = ("requeues", "duplicate_results", "stale_results")


class Crash(Exception):
    """The injected failure of ``store_resume``: raised from ``on_round_start``."""


class RoundTimer(Callback):
    """Per-round wall time and host speed, taken from the training loop's own hooks.

    A round runs from its ``on_round_start`` to the next round's (to
    ``on_fit_end`` for the last one).  ``on_checkpoint`` would end it too
    early: ``run_algorithm`` appends the store's ``RunRecorder`` *after*
    the caller's callbacks, so the checkpoint write of a round happens
    after this callback's own ``on_checkpoint`` has fired.  Between two
    rounds the callback takes one host-speed probe (about 1 ms, outside
    every round and taken off the leg's wall time).
    """

    def __init__(self, probe: host.SpeedProbe, tracer: tracing.Tracer | None = None, crash_at: int | None = None):
        self.probe = probe
        self.tracer = tracer
        self.crash_at = crash_at
        #: when round i began, and when the round before it (or the last one) ended
        self.opened: list[float] = []
        self.closed: list[float] = []
        self.probe_seconds: list[float] = []
        self.algorithm = None

    def _close(self) -> None:
        now = time.perf_counter()
        self.closed.append(now)
        if self.tracer is not None:
            self.tracer.end_round(now)

    def on_round_start(self, algorithm, round_index: int) -> None:
        self._close()
        if round_index == self.crash_at:
            raise Crash(f"injected crash before round {round_index}")
        self.probe_seconds.append(self.probe())
        now = time.perf_counter()
        self.opened.append(now)
        if self.tracer is not None:
            self.tracer.begin_round(round_index, now)

    def on_fit_end(self, algorithm, history) -> None:
        self._close()
        self.algorithm = algorithm

    def round_ms(self) -> list[float]:
        return [(end - start) * 1000.0 for start, end in zip(self.opened, self.closed[1:])]


def sha256_state(state) -> str:
    digest = hashlib.sha256()
    for key in sorted(state):
        digest.update(key.encode("utf-8"))
        digest.update(state[key].tobytes())
    return digest.hexdigest()


def directory_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(path)
        for name in names
    )


class Session:
    """One set-up of a workload: prepared experiment, executor, workers, warm-up.

    ``setup_seconds`` covers ``prepare_experiment``, the executor start and
    worker connect, and a warm-up leg of ``WARMUP_ROUNDS`` rounds per algorithm
    (which builds each algorithm once and fills workspaces and caches).
    Closing the session says ``bye`` to the workers and waits for them.
    """

    def __init__(
        self,
        workload: Workload,
        seed: int,
        probe: host.SpeedProbe,
        tracer: tracing.Tracer | None = None,
    ):
        self.workload = workload
        self.probe = probe
        self.tracer = tracer
        self.executor: RemoteExecutor | None = None
        self.workers: list[subprocess.Popen] = []
        self.trace_files: list[Path] = []
        self.serve_stats: dict[str, int] = {}
        self.worker_exit_codes: list[int] = []
        started = time.perf_counter()
        try:
            setting = experiment_settings.ExperimentSetting(seed=seed, **workload.setting)
            # through the module attribute, so the traced phase sees the call
            self.prepared = experiment_settings.prepare_experiment(setting)
            if workload.wire_workers:
                self._connect()
            warmup = [leg for legs in run_legs(self, WARMUP_ROUNDS).values() for leg in legs]
        except BaseException:
            self.close()
            raise
        self.setup_seconds = time.perf_counter() - started - sum(sum(leg["probe_seconds"]) for leg in warmup)
        #: host speed while setting up, from the warm-up rounds' probes
        self.setup_speed = probe.speed([seconds for leg in warmup for seconds in leg["probe_seconds"]])

    def _connect(self) -> None:
        count = self.workload.wire_workers
        opened = self.tracer.open("serve.connect") if self.tracer is not None else None
        self.executor = RemoteExecutor(options=ServeOptions(min_clients=count))
        _, port = self.executor.start()
        for index in range(count):
            command = [sys.executable, str(HERE / "worker.py"), "--port", str(port), "--name", f"w{index}"]
            if self.tracer is not None:
                self.trace_files.append(Path(tempfile.gettempdir()) / f"trace_w{index}.json")
                command += ["--trace", str(self.trace_files[-1])]
            self.workers.append(subprocess.Popen(command))
        deadline = time.monotonic() + 60.0
        while self.executor.stats()["connects"] < count:
            if any(worker.poll() is not None for worker in self.workers):
                raise RuntimeError("a wire worker exited before connecting")
            if time.monotonic() > deadline:
                raise RuntimeError("wire workers did not connect within 60 s")
            time.sleep(0.005)
        if opened is not None:
            self.tracer.close(opened)

    def close(self) -> None:
        """Say ``bye`` to the workers and wait for each to end (idempotent)."""
        if self.executor is not None:
            self.serve_stats = self.executor.stats()
            self.executor.shutdown()
            self.executor = None
        for worker in self.workers:
            try:
                self.worker_exit_codes.append(worker.wait(timeout=30))
            except subprocess.TimeoutExpired:
                worker.kill()
                self.worker_exit_codes.append(worker.wait())
        self.workers = []

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_leg(session: Session, algorithm: str, rounds: int, reference: bool = False) -> dict:
    """One fresh algorithm for ``rounds`` rounds; everything the checks and metrics need.

    ``reference=True`` is the plain run a workload is compared with: the
    serial in-process executor, no store, no crash.
    """
    workload = session.workload
    options: dict = {"num_rounds": rounds}
    if not reference:
        options["executor"] = session.executor
    store_dir = None
    timers = [RoundTimer(session.probe, session.tracer)]
    started = time.perf_counter()
    if workload.crash_and_resume and not reference:
        store_dir = tempfile.mkdtemp(prefix="store-")
        options.update(store=store_dir, checkpoint_every=1)
        timers.insert(0, RoundTimer(session.probe, session.tracer, crash_at=rounds // 2))
        try:
            run_algorithm(algorithm, session.prepared, callbacks=timers[:1], **options)
        except Crash:
            options["resume"] = True
    timer = timers[-1]
    result = run_algorithm(algorithm, session.prepared, callbacks=[timer], **options)
    wall = time.perf_counter() - started
    probe_seconds = [seconds for each in timers for seconds in each.probe_seconds]

    records = result.history.records
    leg = {
        "algorithm": algorithm,
        "wall_s": wall - sum(probe_seconds),
        "round_ms": [ms for each in timers for ms in each.round_ms()],
        "probe_seconds": probe_seconds,
        #: host speed during this leg, relative to the reference host
        "speed": session.probe.speed(probe_seconds),
        "records": len(records),
        "rounds_after_resume": len(timer.opened),
        "history_sha256": sha256_hex(canonical_json(result.history.to_dict()).encode("utf-8")),
        "weights_sha256": sha256_state(timer.algorithm.global_state),
        "final_accuracy": records[-1].full_accuracy,
        "bytes_up_per_round": sum(record.bytes_up or 0 for record in records) / len(records),
        "bytes_down_per_round": sum(record.bytes_down or 0 for record in records) / len(records),
        "losses_finite": all(
            record.train_loss is None or math.isfinite(record.train_loss) for record in records
        ),
        # client tasks handed to the executor: a scenario's simulated drops
        # and deadline misses are planned before training and never dispatched
        "ops": sum(len(record.aggregated_clients) for record in records),
        "dispatched": sum(len(record.selected_clients) for record in records),
        "touched_clients": getattr(
            getattr(timer.algorithm, "selector", None),
            "num_touched",
            len({client for record in records for client in record.selected_clients}),
        ),
        "store_bytes": 0,
    }
    if store_dir is not None:
        leg["store_bytes"] = directory_bytes(store_dir)
        shutil.rmtree(store_dir)
    return leg


def run_legs(session: Session, rounds: int, seconds: float = 0.0) -> dict[str, list[dict]]:
    """Legs in turn for each of the workload's algorithms, until ``seconds`` have passed.

    Every algorithm runs at least once; the leg in flight always finishes.
    """
    legs: dict[str, list[dict]] = {algorithm: [] for algorithm in session.workload.algorithms}
    started = time.perf_counter()
    for algorithm in itertools.cycle(legs):
        if all(legs.values()) and time.perf_counter() - started >= seconds:
            return legs
        legs[algorithm].append(run_leg(session, algorithm, rounds))


class Checks:
    """Named output checks; any failure makes the whole command exit non-zero."""

    def __init__(self) -> None:
        self.rows: list[dict] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.rows.append({"name": name, "ok": bool(ok), "detail": detail})


def check_legs(checks: Checks, workload: Workload, legs_of: dict[str, list[dict]], rounds: int, smoke: bool) -> None:
    """The checks every leg of every phase must pass."""
    for algorithm, legs in legs_of.items():
        for field in ("history_sha256", "weights_sha256"):
            values = sorted({leg[field] for leg in legs})
            checks.add(
                f"{algorithm}: one {field} over {len(legs)} leg(s)", len(values) == 1, ", ".join(values)
            )
        checks.add(f"{algorithm}: losses finite", all(leg["losses_finite"] for leg in legs))
        checks.add(
            f"{algorithm}: bytes_up_per_round > 0", all(leg["bytes_up_per_round"] > 0 for leg in legs)
        )
        checks.add(
            f"{algorithm}: {rounds} records",
            all(leg["records"] == rounds for leg in legs),
            str(sorted({leg["records"] for leg in legs})),
        )
    legs = legs_of[workload.algorithms[0]]
    first = legs[0]
    if workload.crash_and_resume:
        expected = rounds - rounds // 2
        checks.add(
            f"resumed run ran exactly {expected} rounds",
            all(leg["rounds_after_resume"] == expected for leg in legs),
            str(sorted({leg["rounds_after_resume"] for leg in legs})),
        )
    if workload.min_accuracy is not None and not smoke:
        checks.add(
            f"final_accuracy >= {workload.min_accuracy}",
            first["final_accuracy"] >= workload.min_accuracy,
            f"{first['final_accuracy']}",
        )


def check_session(checks: Checks, session: Session) -> int:
    """Checks on a closed wire session; returns the tasks handed out more than once."""
    if not session.workload.wire_workers:
        return 0
    churn = sum(session.serve_stats.get(key, 0) for key in CHURN_COUNTERS)
    checks.add("coordinator: 0 requeues/duplicates", churn == 0, json.dumps(session.serve_stats))
    checks.add(
        "workers exit 0", all(code == 0 for code in session.worker_exit_codes), str(session.worker_exit_codes)
    )
    return churn


def timed_phase(workload: Workload, seed: int, probe: host.SpeedProbe, seconds: float, rounds: int, smoke: bool) -> dict:
    checks = Checks()
    session = Session(workload, seed, probe)
    setups = [(session.setup_seconds, session.setup_speed)]
    # at least 3 set-ups; a short one is sampled more often (a fraction of a
    # second is noisy); an odd number, so that the median is one of the
    # samples and the first, cold, set-up cannot pull it
    while not smoke and (
        len(setups) < MIN_SETUP_SAMPLES
        or (sum(seconds for seconds, _ in setups) < MIN_SETUP_SECONDS and len(setups) < MAX_SETUP_SAMPLES)
        or len(setups) % 2 == 0
    ):
        session.close()
        session = Session(workload, seed, probe)
        setups.append((session.setup_seconds, session.setup_speed))
    with session:
        legs_of = run_legs(session, rounds, 0.0 if smoke else seconds)
        # before the reference run: a serial reference trains in this process
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        reference = run_leg(session, workload.algorithms[0], rounds, reference=True) if workload.has_reference else None
    failed = check_session(checks, session)
    check_legs(checks, workload, legs_of, rounds, smoke)
    legs = legs_of[workload.algorithms[0]]
    first = legs[0]
    if reference is not None:
        for field in ("history_sha256", "weights_sha256"):
            checks.add(
                f"{field} equals the plain serial reference",
                reference[field] == first[field],
                f"{first[field]} vs {reference[field]}",
            )

    # every wall-clock sample twice: as measured, and as on the reference host
    # (scaled by the host speed probed during the same leg or set-up)
    def timing(name: str, samples: list[tuple[float, float]], fraction: float = 0.5) -> dict:
        raw = [value for value, _ in samples]
        calibrated = [value * scale for value, scale in samples]
        metric = stats.summarise(calibrated, UNITS[name], stats.percentile(calibrated, fraction))
        metric["raw"] = stats.percentile(raw, fraction)
        return metric

    def rates(algorithm: str) -> list[tuple[float, float]]:
        return [(rounds / leg["wall_s"], 1.0 / leg["speed"]) for leg in legs_of[algorithm]]

    round_ms = [(ms, leg["speed"]) for leg in legs for ms in leg["round_ms"]]
    metrics = {
        "rounds_per_s": timing("rounds_per_s", rates(workload.algorithms[0])),
        "round_ms_p50": timing("round_ms_p50", round_ms),
        "round_ms_p90": timing("round_ms_p90", round_ms, 0.9),
        "setup_s": timing("setup_s", setups),
    }
    if len(workload.algorithms) > 1:
        metrics["baseline_rounds_per_s"] = timing("baseline_rounds_per_s", rates(workload.algorithms[1]))
    for name, value in (
        ("bytes_up_per_round", first["bytes_up_per_round"]),
        ("bytes_down_per_round", first["bytes_down_per_round"]),
        ("peak_rss_mb", peak_rss_mb),
        ("final_accuracy", first["final_accuracy"]),
    ):
        metrics[name] = stats.exact(value, UNITS[name])
    return {
        "metrics": metrics,
        "ops_total": sum(leg["ops"] for legs in legs_of.values() for leg in legs),
        "ops_failed": failed,
        "checks": checks.rows,
        "hashes": {
            algorithm: {"history": legs[0]["history_sha256"], "weights": legs[0]["weights_sha256"]}
            for algorithm, legs in legs_of.items()
        },
    }


def traced_phase(workload: Workload, seed: int, probe: host.SpeedProbe, rounds: int, smoke: bool, out_dir: Path) -> dict:
    checks = Checks()
    algorithm = workload.algorithms[0]
    with Session(workload, seed, probe) as session:
        plain = run_leg(session, algorithm, rounds)
    failed = check_session(checks, session)

    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        with Session(workload, seed, probe, tracer) as session:
            leg_started = time.perf_counter()
            traced = run_leg(session, algorithm, rounds)
    finally:
        tracing.uninstall(undo)
    failed += check_session(checks, session)
    check_legs(checks, workload, {algorithm: [plain, traced]}, rounds, smoke)

    workers = max(1, workload.wire_workers)
    spans = tracing.merge_worker_spans(tracer, session.trace_files)
    with open(out_dir / f"trace_{workload.name}.json", "w", encoding="utf-8") as stream:
        json.dump(
            {"fields": ["name", "start", "end", "parent", "round", "tag", "proc"], "spans": spans}, stream
        )

    own = tracing.self_times(spans, workers)
    setup_s: dict[str, float] = {}
    leg_s: dict[str, float] = {}
    inclusive_s: dict[str, float] = {}
    for span, seconds in zip(spans, own):
        bucket = leg_s if span[1] >= leg_started else setup_s
        bucket[span[0]] = bucket.get(span[0], 0.0) + seconds
        if span[1] >= leg_started:
            inclusive_s[span[0]] = inclusive_s.get(span[0], 0.0) + span[2] - span[1]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    counters = tracer.counters
    round_wall = inclusive_s.get(tracing.ROUND, 0.0)
    # round i does the same work in both legs: the median of the paired
    # ratios is steadier than the ratio of the two medians
    slowdown = stats.percentile(
        [with_spans / without for with_spans, without in zip(traced["round_ms"], plain["round_ms"])], 0.5
    ) * (traced["speed"] / plain["speed"])
    values = {
        "rl_selection.touched_clients": traced["touched_clients"],
        "sim.aggregated_share": ratio(traced["ops"], traced["dispatched"]),
        "codecs.ratio": ratio(counters["codecs.raw_bytes"], counters["codecs.encoded_bytes"]),
        "engine.idle_share": 1.0
        - ratio(inclusive_s.get("engine.task", 0.0), workers * inclusive_s.get("engine.map", 0.0)),
        "serve.state_requests": session.serve_stats.get("state_requests", 0),
        "serve.requeues": session.serve_stats.get("requeues", 0),
        "serve.worker_peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0 if workload.wire_workers else 0.0
        ),
        "local_training.samples_per_s": ratio(
            counters["local_training.samples"], inclusive_s.get("local_training.train", 0.0)
        ),
        "store.bytes_per_checkpoint": traced["store_bytes"] / rounds,
        "round.attributed_share": 1.0 - ratio(leg_s.get(tracing.ROUND, 0.0), round_wall),
        "round.unattributed_ms": leg_s.get(tracing.ROUND, 0.0) / rounds * 1000.0,
        "trace.overhead_pct": (slowdown - 1.0) * 100.0,
    }
    for metric in PER_LAYER:
        layer = metric.name.rsplit("_", 1)[0]
        if metric.name in values:
            continue
        if metric.unit == "s":  # a set-up layer: self seconds over the traced set-up
            values[metric.name] = setup_s.get(layer, 0.0)
        else:  # a round layer: self milliseconds per round of the traced leg
            values[metric.name] = leg_s.get(layer, 0.0) / rounds * 1000.0
    metrics = {metric.name: stats.exact(values[metric.name], metric.unit) for metric in PER_LAYER}
    return {
        "metrics": metrics,
        "round_ms_mean": round_wall / rounds * 1000.0,
        "ops_total": plain["ops"] + traced["ops"],
        "ops_failed": failed,
        "checks": checks.rows,
        "hashes": {algorithm: {"history": traced["history_sha256"], "weights": traced["weights_sha256"]}},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", required=True, choices=("timed", "traced"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    probe = host.SpeedProbe()
    try:
        facts = host.describe(ROOT, tempfile.gettempdir(), probe)
    except host.BlasNotPinned as error:
        print(f"refusing to run: {error}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    rounds = SMOKE_ROUNDS if args.smoke else workload.rounds
    if args.phase == "timed":
        result = timed_phase(workload, args.seed, probe, args.seconds, rounds, args.smoke)
    else:
        result = traced_phase(workload, args.seed, probe, rounds, args.smoke, args.out)
    result.update(workload=workload.name, seed=args.seed, phase=args.phase, rounds=rounds, host=facts)
    with open(args.result, "w", encoding="utf-8") as stream:
        json.dump(result, stream, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
