"""Unified telemetry: structured events, metrics, and trace propagation.

Three pillars, all wired through the federation stack:

* :mod:`repro.obs.events` — a process-wide
  :class:`~repro.obs.events.EventBus` emitting typed, schema-versioned
  events to pluggable sinks (:mod:`repro.obs.sinks`: JSONL file with
  rotation, in-memory ring, stderr pretty-printer).
* :mod:`repro.obs.metrics` — counters/gauges/histograms in a
  :class:`~repro.obs.metrics.MetricsRegistry`, rendered as Prometheus
  text exposition and served live by :mod:`repro.obs.status` and the
  ``repro metrics`` CLI.
* :mod:`repro.obs.trace` — trace/span ids minted per round and per
  task, carried on task envelopes and optional wire-protocol fields so
  ``scripts/trace_join.py`` can stitch server + client logs into
  per-task timelines.

Telemetry is strictly one-way: it observes runs, stamps wall-clock time
through the sanctioned :mod:`repro.obs.clock` shim, and never feeds run
keys, checkpoints, histories or randomness — determinism and resume
parity are untouched whether telemetry is on or off.

Import from the submodules; the package itself exports nothing.
"""
