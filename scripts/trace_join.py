#!/usr/bin/env python
"""Stitch server- and client-side telemetry logs into per-task timelines.

Every task the coordinator dispatches carries a ``trace_id`` (minted per
round) and a ``span_id`` (minted per dispatched task).  The server log
(``repro serve --telemetry``) records ``task_dispatch`` /
``straggler_requeue`` / ``task_result`` under those ids; each worker's
log (``repro client --event-log``) records ``task_start`` /
``task_upload`` under the same ids, because the ids ride the wire inside
the dispatch frame.  Joining the logs on ``(trace_id, span_id)``
therefore reconstructs the full life of each task across processes:

    dispatch (server) -> start (client) -> upload (client) -> result (server)

Usage::

    PYTHONPATH=src python scripts/trace_join.py server.jsonl worker-*.jsonl
    PYTHONPATH=src python scripts/trace_join.py --require-complete 4 --json ...

``--require-complete N`` exits non-zero unless at least N timelines
contain all four stages — the CI obs-smoke gate uses it to prove the
propagation path end to end.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

#: the four stages of a complete cross-process task timeline, in order
STAGES = ("task_dispatch", "task_start", "task_upload", "task_result")

#: task-scoped event types joined on (trace_id, span_id)
TASK_EVENTS = set(STAGES) | {"straggler_requeue"}


def load_events(paths: list[Path]) -> list[dict]:
    """Parse every JSONL line of every log; skip blank/partial lines."""
    events: list[dict] = []
    for path in paths:
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                text = line.strip()
                if not text:
                    continue
                try:
                    event = json.loads(text)
                except json.JSONDecodeError:
                    continue  # partial trailing write from a live run
                if isinstance(event, dict) and "type" in event:
                    events.append(event)
    return events


def join_timelines(events: list[dict]) -> dict[tuple[str, str], list[dict]]:
    """Group task-scoped events by ``(trace_id, span_id)``, time-ordered."""
    timelines: dict[tuple[str, str], list[dict]] = defaultdict(list)
    for event in events:
        if event["type"] not in TASK_EVENTS:
            continue
        trace_id = event.get("trace_id", "")
        span_id = event.get("span_id", "")
        if not trace_id or not span_id:
            continue  # tasks dispatched without a trace identity
        timelines[(trace_id, span_id)].append(event)
    for timeline in timelines.values():
        timeline.sort(key=lambda event: event.get("timestamp", 0.0))
    return dict(timelines)


def is_complete(timeline: list[dict]) -> bool:
    """Whether all four stages are present (requeued spans stay partial)."""
    types = {event["type"] for event in timeline}
    return all(stage in types for stage in STAGES)


def render(timelines: dict[tuple[str, str], list[dict]]) -> str:
    """Human-readable per-span timelines with relative offsets."""
    lines: list[str] = []
    for (trace_id, span_id), timeline in sorted(timelines.items()):
        status = "complete" if is_complete(timeline) else "partial"
        lines.append(f"{trace_id} / {span_id}  ({status})")
        origin = timeline[0].get("timestamp", 0.0)
        for event in timeline:
            offset = event.get("timestamp", 0.0) - origin
            source = event.get("source", "") or "-"
            detail = " ".join(
                f"{key}={event['data'][key]}" for key in sorted(event.get("data", {}))
            )
            lines.append(f"  +{offset:8.4f}s {event['type']:<18} [{source}] {detail}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Join the given logs; 0 iff the completeness requirement is met."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("logs", nargs="+", type=Path, help="telemetry JSONL files (server and/or clients)")
    parser.add_argument(
        "--require-complete",
        type=int,
        default=0,
        metavar="N",
        help="fail unless at least N timelines contain all four stages",
    )
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON instead of text")
    args = parser.parse_args(argv)

    events = load_events(args.logs)
    timelines = join_timelines(events)
    complete = sum(1 for timeline in timelines.values() if is_complete(timeline))

    if args.json:
        payload = {
            "events": len(events),
            "timelines": len(timelines),
            "complete": complete,
            "spans": [
                {
                    "trace_id": trace_id,
                    "span_id": span_id,
                    "complete": is_complete(timeline),
                    "events": timeline,
                }
                for (trace_id, span_id), timeline in sorted(timelines.items())
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render(timelines))
        print(f"\n{len(events)} events -> {len(timelines)} task timelines, {complete} complete")

    if args.require_complete and complete < args.require_complete:
        print(
            f"trace-join: FAIL: {complete} complete timelines, need {args.require_complete}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
