"""The ``python -m repro`` command line.

Three subcommands drive the whole experiment layer from a shell:

* ``repro run`` — train one algorithm, e.g.::

      python -m repro run --algorithm adaptivefl --dataset cifar10 --scale ci
      python -m repro run --algorithm adaptivefl --executor process --max-workers 4

* ``repro compare`` — run several algorithms on the identical prepared
  experiment, from flags or from a saved spec::

      python -m repro compare --spec spec.json
      python -m repro compare --algorithms heterofl adaptivefl --rounds 4

* ``repro algorithms`` — list the registry with declared capabilities.

* ``repro scenarios`` — list the fleet-scenario registry (``--names``
  prints bare names for scripting); ``run``/``compare`` accept
  ``--scenario`` to condition training on one::

      python -m repro run --algorithm adaptivefl --scenario flaky_edge

* ``repro sweep`` — expand a grid (algorithms × scenarios × seeds) into
  an experiment store, skipping cells the store already completed and
  resuming partially checkpointed ones::

      python -m repro sweep --store runs/ --algorithms adaptivefl heterofl \\
          --seeds 0 1 2 --scenarios none flaky_edge

* ``repro report`` — regenerate ``report.md``/``report.json`` from a
  store's completed runs, nothing else.

* ``repro lint`` — run *reprolint*, the repo's determinism & invariant
  linter (:mod:`repro.analysis`), against ``src/`` or any path::

      python -m repro lint --strict
      python -m repro lint src/repro/nn --rules RPL002 --format json

* ``repro serve`` — host the networked federation coordinator
  (:mod:`repro.serve`) and train over connected ``repro client``
  workers; accepts the same setting/run flags as ``run`` and prints the
  bound address before waiting for the client quorum::

      python -m repro serve --algorithm adaptivefl --port 7733 --expect-clients 2

* ``repro client`` — run one networked federated worker against a
  ``repro serve`` coordinator::

      python -m repro client --host 127.0.0.1 --port 7733 --name worker-0

* ``repro metrics`` — scrape a running coordinator's status endpoint
  (``repro serve --status-port``) and print the Prometheus exposition::

      python -m repro metrics --port 9100

* ``repro tail`` — pretty-print a telemetry JSONL event log (written by
  ``--telemetry`` / ``--event-log``), optionally following it live::

      python -m repro tail results/events.jsonl --follow

Both ``run`` and ``compare`` write one ``<algorithm>_history.json`` per
run plus ``summary.json`` (and echo the resolved ``spec.json``) into
``--output-dir``, and stream progress unless ``--quiet``; with
``--store`` they also checkpoint every round into a durable
:class:`repro.store.runstore.RunStore`, and ``--resume`` continues interrupted
runs from their last completed round.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from pathlib import Path
from typing import Callable, Iterator, Sequence

from repro.api.callbacks import Callback, EarlyStopping, JsonHistoryStreamer, ProgressCallback, WallClockBudget
from repro.api.registry import available_algorithms, get_algorithm, validate_algorithm_names
from repro.api.session import ExperimentSession
from repro.api.spec import ExperimentSpec
from repro.core.config import SELECTION_STRATEGIES
from repro.engine.codecs import available_codecs
from repro.engine.factory import EXECUTOR_NAMES
from repro.experiments.settings import DATASET_BUILDERS, DISTRIBUTIONS, ExperimentSetting
from repro.experiments.reporting import format_table, render_accuracy_table
from repro.perf.profiler import render_summary

__all__ = ["main", "build_parser"]

_STRATEGY_HELP = f"AdaptiveFL strategy ({', '.join(SELECTION_STRATEGIES)})"


def _setting_flags() -> dict[str, dict]:
    """What each setting flag adds to its :class:`ExperimentSetting` field.

    The flag's default is the field's, except ``--distribution``: it stays
    None so that ``--alpha`` can imply dirichlet.  Built per parser, so
    codecs registered after import are valid choices.
    """
    return {
        "dataset": {"choices": sorted(DATASET_BUILDERS)},
        "model": {"help": "architecture registry name"},
        "distribution": {
            "default": None,
            "choices": DISTRIBUTIONS,
            "help": "data distribution (default: dirichlet when --alpha is given, else iid)",
        },
        "alpha": {"type": float, "help": "Dirichlet alpha for non-IID data"},
        "proportion": {"help": "weak:medium:strong device proportion"},
        "scale": {"help": "experiment scale preset (ci, small, paper)"},
        "seed": {"type": int},
        "executor": {
            "choices": EXECUTOR_NAMES,
            "help": "client-execution engine; bit-identical results, different wall-clock",
        },
        "max_workers": {"type": int, "help": "worker count for thread/process executors (default: usable CPUs)"},
        "scenario": {"help": "fleet scenario driving system dynamics (see `repro scenarios`)"},
        "transport_codec": {
            "choices": available_codecs(),
            "help": "lossy uplink codec layered on the transport (default: none = exact)",
        },
    }


def _add_setting_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("experiment setting")
    defaults = ExperimentSetting()
    for name, options in _setting_flags().items():
        group.add_argument(f"--{name.replace('_', '-')}", **{"default": getattr(defaults, name), **options})


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("run options")
    group.add_argument("--spec", type=Path, default=None, help="JSON ExperimentSpec (overrides setting flags)")
    group.add_argument("--rounds", type=int, default=None, help="override the number of federated rounds")
    group.add_argument("--output-dir", type=Path, default=Path("results"), help="where histories/summary are written")
    group.add_argument("--quiet", action="store_true", help="suppress per-round progress output")
    group.add_argument("--patience", type=int, default=None, help="early-stop after N evaluations without improvement")
    group.add_argument("--budget-seconds", type=float, default=None, help="stop each run after a wall-clock budget")
    group.add_argument("--stream-history", action="store_true", help="also stream per-round JSONL next to the history")
    group.add_argument(
        "--profile",
        action="store_true",
        help="collect repro.perf timers/counters per run; prints a summary and writes <algorithm>_profile.json",
    )
    group.add_argument(
        "--telemetry",
        type=Path,
        default=None,
        metavar="PATH",
        help="write structured telemetry events (repro.obs) to this JSONL file; view with `repro tail`",
    )
    _add_store_flags(parser)


def _add_store_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("experiment store")
    group.add_argument(
        "--store",
        type=Path,
        default=None,
        help="RunStore directory: checkpoint every round + persist final histories",
    )
    group.add_argument(
        "--resume",
        action="store_true",
        help="skip runs the store completed; continue interrupted ones from their last checkpoint",
    )
    group.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        help="checkpoint cadence in rounds (default: every round)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The full ``repro`` argument parser (also used by the CLI tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AdaptiveFL reproduction: registry-driven federated-learning experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="train one algorithm end-to-end")
    run.add_argument("--algorithm", default=None, help="registered algorithm name (default: adaptivefl)")
    run.add_argument("--selection-strategy", default=None, help=_STRATEGY_HELP)
    _add_setting_flags(run)
    _add_run_flags(run)
    run.set_defaults(handler=_cmd_run)

    compare = subparsers.add_parser("compare", help="run several algorithms on the identical experiment")
    compare.add_argument("--algorithms", nargs="*", default=None, help="names (default: every registered algorithm)")
    _add_setting_flags(compare)
    _add_run_flags(compare)
    compare.set_defaults(handler=_cmd_compare)

    algorithms = subparsers.add_parser("algorithms", help="list the algorithm registry")
    algorithms.set_defaults(handler=_cmd_algorithms)

    scenarios = subparsers.add_parser("scenarios", help="list the fleet-scenario registry")
    scenarios.add_argument("--names", action="store_true", help="print bare names only (scripting)")
    scenarios.set_defaults(handler=_cmd_scenarios)

    sweep = subparsers.add_parser("sweep", help="run a (algorithms × scenarios × seeds) grid into a store")
    sweep.add_argument("--algorithms", nargs="*", default=None, help="names (default: every registered algorithm)")
    sweep.add_argument("--selection-strategy", default=None, help="AdaptiveFL strategy applied across the grid")
    sweep.add_argument("--seeds", nargs="*", type=int, default=None, help="seeds to cross (default: --seed)")
    sweep.add_argument(
        "--scenarios",
        nargs="*",
        default=None,
        help="scenario names to cross; the literal 'none' means no scenario (default: --scenario)",
    )
    sweep.add_argument("--spec", type=Path, default=None, help="JSON SweepSpec (overrides the grid flags)")
    sweep.add_argument("--rounds", type=int, default=None, help="override the number of federated rounds")
    sweep.add_argument("--quiet", action="store_true", help="suppress per-cell progress output")
    _add_setting_flags(sweep)
    _add_store_flags(sweep)
    sweep.set_defaults(handler=_cmd_sweep, resume=None)
    sweep.add_argument(
        "--fresh",
        dest="resume",
        action="store_false",
        help="re-run every cell even when the store already completed it (default: resume)",
    )

    lint = subparsers.add_parser("lint", help="run reprolint, the determinism & invariant linter")
    lint.add_argument("paths", nargs="*", default=["src"], help="files or directories to lint (default: src)")
    lint.add_argument("--rules", default=None, help="comma-separated rule codes to run (default: all)")
    lint.add_argument("--format", default="text", choices=["text", "json"], help="report format")
    lint.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline file (default: reprolint_baseline.json in the cwd when present)",
    )
    lint.add_argument("--no-baseline", action="store_true", help="ignore any baseline file")
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="write every current finding to the baseline file and exit 0",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="also fail (exit 1) on stale baseline entries, not just new findings",
    )
    lint.add_argument("--output", type=Path, default=None, help="write the report to a file (atomic)")
    lint.add_argument("--list-rules", action="store_true", help="print the rule catalogue and exit")
    lint.set_defaults(handler=_cmd_lint)

    serve = subparsers.add_parser("serve", help="host the federation coordinator and train over networked clients")
    serve.add_argument("--algorithm", default=None, help="registered algorithm name (default: adaptivefl)")
    serve.add_argument("--algorithms", nargs="*", default=None, help="several names, run on the same client fleet")
    serve.add_argument("--selection-strategy", default=None, help=_STRATEGY_HELP)
    service = serve.add_argument_group("federation service")
    service.add_argument("--host", default="127.0.0.1", help="interface to bind (default: loopback)")
    service.add_argument("--port", type=int, default=7733, help="TCP port; 0 binds an ephemeral port")
    service.add_argument(
        "--expect-clients", type=int, default=1, help="client quorum each round waits for before dispatching"
    )
    service.add_argument(
        "--connect-timeout", type=float, default=60.0, help="seconds to wait for the quorum (and mid-round rejoins)"
    )
    service.add_argument(
        "--straggler-timeout",
        type=float,
        default=60.0,
        help="seconds before an unanswered task is redispatched to another client; 0 disables",
    )
    service.add_argument("--heartbeat-interval", type=float, default=10.0, help="liveness probe cadence in seconds")
    service.add_argument(
        "--liveness-timeout", type=float, default=120.0, help="seconds of client silence before its work is requeued"
    )
    service.add_argument(
        "--status-port",
        type=int,
        default=None,
        help="bind the HTTP status endpoint (/metrics, /healthz, /events) on this port; 0 = ephemeral",
    )
    _add_setting_flags(serve)
    _add_run_flags(serve)
    serve.set_defaults(handler=_cmd_serve)

    client = subparsers.add_parser("client", help="run one networked federated worker")
    client.add_argument("--host", default="127.0.0.1", help="coordinator host")
    client.add_argument("--port", type=int, required=True, help="coordinator port")
    client.add_argument("--name", required=True, help="stable client identity (reconnects resume under it)")
    client.add_argument("--reconnect-attempts", type=int, default=10, help="lost-connection retries before giving up")
    client.add_argument("--backoff-base", type=float, default=0.2, help="first reconnect delay in seconds (doubles)")
    client.add_argument("--backoff-max", type=float, default=5.0, help="reconnect delay ceiling in seconds")
    client.add_argument(
        "--drop-after",
        type=int,
        default=None,
        help="failure injection (tests): close the connection once after computing N results, without uploading",
    )
    client.add_argument("--quiet", action="store_true", help="suppress connection log lines")
    client.add_argument(
        "--event-log",
        type=Path,
        default=None,
        metavar="PATH",
        help="write this worker's telemetry events (task_start/task_upload) to a JSONL file",
    )
    client.set_defaults(handler=_cmd_client)

    metrics = subparsers.add_parser("metrics", help="scrape a coordinator's Prometheus status endpoint")
    metrics.add_argument("--host", default="127.0.0.1", help="status endpoint host")
    metrics.add_argument("--port", type=int, required=True, help="status endpoint port (see `repro serve --status-port`)")
    metrics.add_argument(
        "--path",
        default="/metrics",
        choices=["/metrics", "/healthz", "/events"],
        help="endpoint route to fetch (default: /metrics)",
    )
    metrics.add_argument("--timeout", type=float, default=5.0, help="HTTP timeout in seconds")
    metrics.set_defaults(handler=_cmd_metrics)

    tail = subparsers.add_parser("tail", help="pretty-print a telemetry JSONL event log")
    tail.add_argument("path", type=Path, help="JSONL event log (from --telemetry / --event-log)")
    tail.add_argument("--follow", action="store_true", help="keep the file open and print events as they arrive")
    tail.add_argument("--limit", type=int, default=None, help="print only the last N existing events")
    tail.add_argument("--raw", action="store_true", help="print raw JSON lines instead of the pretty form")
    tail.set_defaults(handler=_cmd_tail)

    report = subparsers.add_parser("report", help="regenerate report.md/report.json from a store")
    report.add_argument("--store", type=Path, required=True, help="RunStore directory to read")
    report.add_argument(
        "--output-dir", type=Path, default=None, help="where to write the report (default: the store root)"
    )
    report.add_argument("--title", default="Experiment report", help="report heading")
    report.set_defaults(handler=_cmd_report)

    return parser


def _setting_from_args(args: argparse.Namespace) -> ExperimentSetting:
    options = {name: getattr(args, name) for name in _setting_flags()}
    if options["distribution"] is None:
        options["distribution"] = "dirichlet" if args.alpha is not None else "iid"
    return ExperimentSetting(**options)


def _refuse_with_spec(args: argparse.Namespace, *names: str) -> None:
    """Refuse grid/algorithm flags given beside ``--spec`` (the file is the one source)."""
    conflicting = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name, None)]
    if conflicting:
        raise ValueError(
            f"{' and '.join(conflicting)} cannot be combined with --spec; "
            "edit the spec file instead (--rounds may override it)"
        )


def _session_from_args(args: argparse.Namespace) -> tuple[ExperimentSession, ExperimentSpec]:
    """Resolve a session + the effective spec (from --spec or from flags)."""
    if args.spec is not None:
        _refuse_with_spec(args, "algorithm", "algorithms", "selection_strategy")
        spec = ExperimentSpec.load(args.spec)
        if args.rounds is not None:
            spec = ExperimentSpec.from_dict({**spec.to_dict(), "num_rounds": args.rounds})
        session = ExperimentSession.from_spec(spec)
    else:
        algorithms = getattr(args, "algorithms", None) or ()
        if getattr(args, "algorithm", None):
            algorithms = (args.algorithm,)
        spec = ExperimentSpec(
            setting=_setting_from_args(args),
            algorithms=tuple(algorithms),
            selection_strategy=getattr(args, "selection_strategy", None),
            num_rounds=args.rounds,
        )
        session = ExperimentSession.from_spec(spec)
    _attach_callbacks(session, args)
    return session, spec


def _attach_callbacks(session: ExperimentSession, args: argparse.Namespace) -> None:
    if getattr(args, "store", None) is not None:
        session.with_store(
            args.store,
            resume=bool(getattr(args, "resume", False)),
            checkpoint_every=getattr(args, "checkpoint_every", 1),
        )
    elif getattr(args, "resume", False):
        raise ValueError("--resume requires --store (there is nothing to resume from)")
    if getattr(args, "profile", False):
        session.with_profiling()
    if not args.quiet:
        session.with_callback(ProgressCallback())
    if args.patience is not None:
        patience = args.patience
        session.with_callback(lambda: EarlyStopping(patience=patience))
    if args.budget_seconds is not None:
        budget = args.budget_seconds
        session.with_callback(lambda: WallClockBudget(budget))
    if args.stream_history:
        output_dir = _output_dir(session, args)
        session.with_callback(_StreamerPerRun(output_dir))


class _StreamerPerRun(Callback):
    """Routes each run's rounds to ``<algorithm>_rounds.jsonl`` in the output dir."""

    def __init__(self, directory: Path):
        self.directory = directory
        self._streamers: dict[str, JsonHistoryStreamer] = {}

    def _streamer(self, algorithm) -> JsonHistoryStreamer:
        if algorithm.name not in self._streamers:
            self._streamers[algorithm.name] = JsonHistoryStreamer(
                self.directory / f"{algorithm.name}_rounds.jsonl"
            )
        return self._streamers[algorithm.name]

    def on_round_end(self, algorithm, record) -> None:
        """Route the round to the algorithm's own JSONL streamer."""
        self._streamer(algorithm).on_round_end(algorithm, record)


def _output_dir(session: ExperimentSession, args: argparse.Namespace) -> Path:
    if session.spec is not None and session.spec.output_dir:
        return Path(session.spec.output_dir)
    return args.output_dir


def _finish(session: ExperimentSession, spec: ExperimentSpec, args: argparse.Namespace) -> int:
    directory = _output_dir(session, args)
    written = session.save_results(directory)
    spec.save(directory / "spec.json")
    print(render_accuracy_table(session.results, title=f"results ({directory})"))
    if getattr(args, "profile", False):
        for label, result in session.results.items():
            if result.profile is not None:
                print()
                print(render_summary(result.profile, title=f"profile — {label}"))
    print("wrote:", ", ".join(str(path) for path in written))
    return 0


@contextlib.contextmanager
def _telemetry(args: argparse.Namespace, source: str) -> Iterator[None]:
    """Attach the process-wide JSONL telemetry sink for the handler's scope."""
    path = getattr(args, "telemetry", None)
    if path is None:
        yield
        return
    from repro.obs.events import configure_telemetry, shutdown_telemetry

    path.parent.mkdir(parents=True, exist_ok=True)
    configure_telemetry(jsonl_path=str(path), source=source)
    try:
        yield
    finally:
        shutdown_telemetry()


def _cmd_run(args: argparse.Namespace) -> int:
    session, spec = _session_from_args(args)
    names = spec.algorithms or ("adaptivefl",)
    validate_algorithm_names(names)
    with _telemetry(args, source="run"):
        for name in names:
            # an explicit --selection-strategy flag is passed through unfiltered
            # (requesting one for an algorithm that cannot honour it is an error,
            # not a no-op); a spec file's strategy applies only to algorithms that
            # accept one, matching `compare --spec` on the same file
            strategy = session.strategy_for(name) if args.spec is not None else spec.selection_strategy
            session.run(name, selection_strategy=strategy)
    return _finish(session, spec, args)


def _cmd_compare(args: argparse.Namespace) -> int:
    session, spec = _session_from_args(args)
    with _telemetry(args, source="compare"):
        session.run_spec()
    return _finish(session, spec, args)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.store.report import write_report
    from repro.store.sweep import SweepSpec, run_sweep

    if args.store is None:
        raise ValueError("repro sweep requires --store (the grid's durable home)")
    if args.spec is not None:
        _refuse_with_spec(args, "algorithms", "seeds", "scenarios", "selection_strategy")
        sweep = SweepSpec.load(args.spec)
        if args.rounds is not None:
            base = ExperimentSpec.from_dict({**sweep.base.to_dict(), "num_rounds": args.rounds})
            sweep = SweepSpec.from_dict({**sweep.to_dict(), "base": base.to_dict()})
    else:
        scenarios: tuple[str | None, ...] = ()
        if args.scenarios is not None:
            scenarios = tuple(None if name == "none" else name for name in args.scenarios)
        sweep = SweepSpec(
            base=ExperimentSpec(
                setting=_setting_from_args(args),
                algorithms=tuple(args.algorithms or ()),
                selection_strategy=args.selection_strategy,
                num_rounds=args.rounds,
            ),
            seeds=tuple(args.seeds or ()),
            scenarios=scenarios,
        )

    def on_cell(cell, status):
        if not args.quiet:
            scenario = cell.scenario or "-"
            print(f"[sweep] {cell.algorithm} scenario={scenario} seed={cell.seed}: {status}")

    resume = True if args.resume is None else args.resume
    result = run_sweep(
        sweep,
        args.store,
        resume=resume,
        checkpoint_every=args.checkpoint_every,
        callbacks=None if args.quiet else [lambda: ProgressCallback()],
        on_cell=on_cell,
    )
    counts = result.counts()
    rows = [
        [cell.cell.algorithm, cell.cell.scenario or "-", str(cell.cell.seed), cell.status,
         f"{cell.result.full_accuracy * 100:.2f}", f"{cell.result.avg_accuracy * 100:.2f}"]
        for cell in result.cells
    ]
    print(format_table(["algorithm", "scenario", "seed", "status", "full (%)", "avg (%)"], rows))
    print(
        f"sweep: {counts['ran']} ran, {counts['resumed']} resumed, {counts['skipped']} skipped "
        f"({len(result.cells)} cells)"
    )
    written = write_report(args.store)
    print("wrote:", ", ".join(str(path) for path in written))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.executor import RemoteExecutor
    from repro.serve.options import ServeOptions

    # the whole point of this command is the networked path
    args.executor = "remote"
    options = ServeOptions(
        host=args.host,
        port=args.port,
        min_clients=args.expect_clients,
        connect_timeout=args.connect_timeout,
        straggler_timeout=args.straggler_timeout if args.straggler_timeout > 0 else None,
        heartbeat_interval=args.heartbeat_interval,
        liveness_timeout=args.liveness_timeout,
        status_port=args.status_port,
    )
    session, spec = _session_from_args(args)
    names = spec.algorithms or ("adaptivefl",)
    validate_algorithm_names(names)
    with _telemetry(args, source="server"):
        # one executor for every algorithm: clients stay connected across runs
        executor = RemoteExecutor(options=options)
        host, port = executor.start()
        print(f"repro-serve: listening on {host}:{port}", flush=True)
        status = executor.status_address
        if status is not None:
            print(f"repro-serve: status endpoint on http://{status[0]}:{status[1]}/metrics", flush=True)
        try:
            for name in names:
                strategy = session.strategy_for(name) if args.spec is not None else spec.selection_strategy
                session.run(name, selection_strategy=strategy, executor=executor)
            return _finish(session, spec, args)
        finally:
            executor.shutdown()


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.serve.client import ClientRunner

    return ClientRunner(
        args.host,
        args.port,
        args.name,
        reconnect_attempts=args.reconnect_attempts,
        backoff_base=args.backoff_base,
        backoff_max=args.backoff_max,
        drop_after=args.drop_after,
        quiet=args.quiet,
        event_log=str(args.event_log) if args.event_log is not None else None,
    ).run()


def _cmd_metrics(args: argparse.Namespace) -> int:
    import urllib.error
    import urllib.request

    url = f"http://{args.host}:{args.port}{args.path}"
    try:
        with urllib.request.urlopen(url, timeout=args.timeout) as response:  # noqa: S310 - plain HTTP status scrape
            body = response.read().decode("utf-8", errors="replace")
    except urllib.error.URLError as error:
        raise OSError(f"cannot reach {url}: {error.reason}") from error
    print(body, end="" if body.endswith("\n") else "\n")
    return 0


def _iter_jsonl_events(handle, raw: bool) -> "Iterator[str]":
    """Yield display lines for complete JSONL records read from ``handle``.

    Stops (seeking back) at a partial trailing line so a follow loop can
    retry it once the concurrent writer finishes the record.
    """
    import json

    from repro.obs.events import Event
    from repro.obs.sinks import format_event

    while True:
        position = handle.tell()
        line = handle.readline()
        if not line:
            return
        if not line.endswith("\n"):
            handle.seek(position)
            return
        text = line.strip()
        if not text:
            continue
        if raw:
            yield text
            continue
        try:
            yield format_event(Event.from_dict(json.loads(text)))
        except (ValueError, TypeError, KeyError):
            yield f"?? unparseable event line: {text}"


def _cmd_tail(args: argparse.Namespace) -> int:
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit cannot be negative (got {args.limit})")
    if not args.path.exists():
        raise OSError(f"no such event log: {args.path}")
    with args.path.open("r", encoding="utf-8") as handle:
        lines = list(_iter_jsonl_events(handle, args.raw))
        if args.limit is not None:
            lines = lines[len(lines) - min(args.limit, len(lines)) :]
        for line in lines:
            print(line, flush=True)
        if not args.follow:
            return 0
        try:
            while True:
                emitted = False
                for line in _iter_jsonl_events(handle, args.raw):
                    print(line, flush=True)
                    emitted = True
                if not emitted:
                    time.sleep(0.25)
        except KeyboardInterrupt:
            return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run_lint

    return run_lint(args)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.store.report import generate_report

    bundle = generate_report(args.store, title=args.title)
    written = bundle.save(args.output_dir if args.output_dir is not None else args.store)
    print(bundle.markdown)
    print("wrote:", ", ".join(str(path) for path in written))
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.sim.scenario import available_scenarios, get_scenario

    names = available_scenarios()
    if args.names:
        for name in names:
            print(name)
        return 0
    rows = []
    for name in names:
        spec = get_scenario(name)
        dynamics = []
        if spec.availability.kind != "always":
            dynamics.append(spec.availability.kind)
        if spec.dropout_rate > 0:
            dynamics.append(f"dropout {spec.dropout_rate:.0%}")
        if spec.network.server_concurrency is not None:
            dynamics.append(f"{spec.network.server_concurrency} transfer slots")
        if spec.battery is not None:
            dynamics.append("battery")
        if spec.has_deadline:
            deadline = (
                f"{spec.deadline_seconds:g}s"
                if spec.deadline_seconds is not None
                else f"{spec.deadline_factor:g}x median"
            )
            dynamics.append(f"deadline {deadline}")
        if spec.over_selection:
            dynamics.append(f"+{spec.over_selection} over-selection")
        rows.append(
            [
                name,
                str(len(spec.devices)),
                ", ".join(dynamics) if dynamics else "static",
                spec.description,
            ]
        )
    print(format_table(["scenario", "device types", "dynamics", "description"], rows))
    return 0


def _cmd_algorithms(args: argparse.Namespace) -> int:
    rows = []
    for name in available_algorithms():
        spec = get_algorithm(name)
        rows.append(
            [
                name,
                "yes" if spec.uses_pool_config else "no",
                "yes" if spec.uses_selection_strategy else "no",
                spec.description,
            ]
        )
    print(format_table(["algorithm", "pool config", "selection strategy", "description"], rows))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``python -m repro`` and the ``repro`` console script."""
    args = build_parser().parse_args(argv)
    handler: Callable[[argparse.Namespace], int] = args.handler
    from repro.store.checkpoint import CheckpointSchemaError
    from repro.store.objects import StoreCorruptionError

    try:
        return handler(args)
    except (KeyError, ValueError, OSError, CheckpointSchemaError, StoreCorruptionError) as error:
        # registry/config validation errors, unreadable spec files
        # (json.JSONDecodeError is a ValueError) and refused stores become clean CLI errors
        print(f"error: {error}", file=sys.stderr)
        return 2
