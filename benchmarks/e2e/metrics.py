"""Every metric the benchmark reports: unit, direction, bound, interactions.

End-to-end wall-clock metrics are calibrated to the reference host (see
``host.SpeedProbe``); counts, memory and per-layer metrics are as measured.

``BENCHMARK.json`` carries the driver's copy (``test_schema.py`` keeps the
two in step).  Two end-to-end metrics are reported by the suite and
``compare.py`` but are *not* in ``BENCHMARK.json``, whose contract wants
every end-to-end metric on every workload, never 0 and steady across
seeds: ``baseline_rounds_per_s`` exists on ``train_serial`` only, and
``final_accuracy`` is a per-seed constant that differs widely between
seeds (it is pinned by the output checks instead).
"""

from __future__ import annotations

from typing import NamedTuple

ALL = ("train_serial", "fleet_20k", "wire_int8", "store_resume")


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: how far the median may worsen before it is a regression: a share of
    #: the parent's median, or an absolute difference when ``absolute``
    bound: float
    absolute: bool = False
    in_contract: bool = True


END_TO_END = (
    EndToEnd("rounds_per_s", "rounds/s", "higher", 0.25),
    EndToEnd("baseline_rounds_per_s", "rounds/s", "higher", 0.25, in_contract=False),
    EndToEnd("round_ms_p50", "ms", "lower", 0.25),
    EndToEnd("round_ms_p90", "ms", "lower", 0.25),
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("bytes_up_per_round", "bytes", "lower", 0.25),
    EndToEnd("bytes_down_per_round", "bytes", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10),
    EndToEnd("final_accuracy", "fraction", "higher", 0.03, absolute=True, in_contract=False),
)


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: the end-to-end metrics this layer metric should move …
    moves: tuple[str, ...]
    #: … and the workloads on which it should (≈0 / no change elsewhere)
    on: tuple[str, ...]


_THROUGHPUT = ("rounds_per_s", "round_ms_p50")

PER_LAYER = (
    PerLayer("experiments.prepare_s", "s", "lower", ("setup_s",), ("fleet_20k",)),
    PerLayer("data.synthesize_s", "s", "lower", ("setup_s",), ("fleet_20k",)),
    PerLayer("data.partition_s", "s", "lower", ("setup_s",), ("fleet_20k",)),
    PerLayer("core.build_s", "s", "lower", ("setup_s",), ("fleet_20k",)),
    PerLayer("serve.connect_s", "s", "lower", ("setup_s",), ("wire_int8",)),
    PerLayer("rl_selection.select_ms", "ms", "lower", _THROUGHPUT, ("fleet_20k",)),
    PerLayer("rl_selection.update_ms", "ms", "lower", _THROUGHPUT, ("fleet_20k",)),
    PerLayer("rl_selection.touched_clients", "count", "lower", ("peak_rss_mb",), ("fleet_20k",)),
    PerLayer("pruning.plan_ms", "ms", "lower", ("rounds_per_s",), ("fleet_20k",)),
    PerLayer("sim.availability_ms", "ms", "lower", ("rounds_per_s",), ("fleet_20k",)),
    PerLayer("sim.round_ms", "ms", "lower", ("rounds_per_s",), ("fleet_20k",)),
    PerLayer(
        "sim.aggregated_share",
        "fraction",
        "higher",
        ("bytes_up_per_round", "bytes_down_per_round", "final_accuracy"),
        ("fleet_20k",),
    ),
    PerLayer(
        "transport.publish_ms",
        "ms",
        "lower",
        ("rounds_per_s", "bytes_down_per_round"),
        ("store_resume", "train_serial", "wire_int8"),
    ),
    PerLayer(
        "transport.resolve_ms",
        "ms",
        "lower",
        ("rounds_per_s", "bytes_down_per_round"),
        ("store_resume", "train_serial", "wire_int8"),
    ),
    PerLayer(
        "transport.delta_encode_ms",
        "ms",
        "lower",
        ("rounds_per_s", "bytes_up_per_round"),
        ("store_resume", "train_serial"),
    ),
    PerLayer(
        "transport.delta_decode_ms",
        "ms",
        "lower",
        ("rounds_per_s", "bytes_up_per_round"),
        ("store_resume", "train_serial"),
    ),
    PerLayer("codecs.encode_ms", "ms", "lower", ("rounds_per_s", "bytes_up_per_round"), ("wire_int8",)),
    PerLayer("codecs.decode_ms", "ms", "lower", ("rounds_per_s", "bytes_up_per_round"), ("wire_int8",)),
    PerLayer("codecs.ratio", "ratio", "higher", ("bytes_up_per_round",), ("wire_int8",)),
    PerLayer("engine.map_ms", "ms", "lower", ("rounds_per_s",), ALL),
    PerLayer("engine.task_ms", "ms", "lower", ("rounds_per_s",), ALL),
    PerLayer("engine.idle_share", "fraction", "lower", ("rounds_per_s",), ("wire_int8",)),
    PerLayer("serve.pickle_ms", "ms", "lower", ("rounds_per_s", "bytes_down_per_round"), ("wire_int8",)),
    PerLayer("serve.state_requests", "count", "lower", ("rounds_per_s", "bytes_down_per_round"), ("wire_int8",)),
    PerLayer("serve.requeues", "count", "lower", ("rounds_per_s",), ("wire_int8",)),
    PerLayer("serve.worker_peak_rss_mb", "MB", "lower", ("peak_rss_mb",), ("wire_int8",)),
    PerLayer(
        "local_training.train_ms",
        "ms",
        "lower",
        ("rounds_per_s", "baseline_rounds_per_s", "round_ms_p50"),
        ("train_serial",),
    ),
    PerLayer(
        "local_training.samples_per_s",
        "1/s",
        "higher",
        ("rounds_per_s", "baseline_rounds_per_s", "round_ms_p50"),
        ("train_serial",),
    ),
    PerLayer(
        "nn.build_ms",
        "ms",
        "lower",
        ("rounds_per_s", "baseline_rounds_per_s", "round_ms_p50"),
        ("train_serial",),
    ),
    PerLayer("aggregation.fold_ms", "ms", "lower", ("round_ms_p50",), ("wire_int8", "store_resume")),
    PerLayer("metrics.evaluate_ms", "ms", "lower", ("round_ms_p90",), ALL),
    PerLayer("store.snapshot_ms", "ms", "lower", _THROUGHPUT, ("store_resume",)),
    PerLayer("store.save_ms", "ms", "lower", _THROUGHPUT, ("store_resume",)),
    PerLayer("store.bytes_per_checkpoint", "bytes", "lower", _THROUGHPUT, ("store_resume",)),
    PerLayer("store.load_ms", "ms", "lower", ("rounds_per_s",), ("store_resume",)),
    PerLayer("store.restore_ms", "ms", "lower", ("rounds_per_s",), ("store_resume",)),
    PerLayer("fl_base.finalize_ms", "ms", "lower", ("round_ms_p50",), ("fleet_20k",)),
    # harness health: these move no end-to-end metric
    PerLayer("round.attributed_share", "fraction", "higher", (), ALL),
    PerLayer("round.unattributed_ms", "ms", "lower", (), ALL),
    PerLayer("trace.overhead_pct", "%", "lower", (), ALL),
)

UNITS = {metric.name: metric.unit for metric in END_TO_END + PER_LAYER}
