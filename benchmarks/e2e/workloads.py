"""The four workloads: what each runs, and which layer it was chosen to stress.

Every workload is ``dataset=cifar10``, ``model=simple_cnn``,
``distribution=iid``, ``transport=delta``; the workload seed reaches the
program only as ``ExperimentSetting.seed``.  The reasons live in
``BENCHMARK.json`` (``why``) and, at length, in ``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: rounds of the warm-up run that ends every set-up (counted in ``setup_s``)
WARMUP_ROUNDS = 3
#: rounds per leg under ``--smoke``
SMOKE_ROUNDS = 2

_WIDE_MODEL = {
    "width_multiplier": 1.0,
    "classifier_width": 512,  # 584k parameters
    "num_clients": 16,
    "batch_size": 4,
    "max_batches_per_epoch": 1,
    "eval_every": 5,
    "test_samples": 100,
}


@dataclass(frozen=True)
class Workload:
    """One named set of inputs the benchmark runs."""

    name: str
    #: ``ExperimentSetting`` keyword arguments (``seed`` is added per run)
    setting: dict
    #: rounds of one leg of one repeat
    rounds: int
    #: one leg per algorithm, each a fresh algorithm on the same prepared
    #: experiment; the first leg feeds every metric but ``baseline_rounds_per_s``
    algorithms: tuple[str, ...] = ("adaptivefl",)
    #: loopback worker subprocesses behind a caller-owned ``RemoteExecutor``
    #: (0 = the serial in-process executor)
    wire_workers: int = 0
    #: run through ``run_algorithm(store=..., checkpoint_every=1)``, crash at
    #: ``rounds // 2`` and finish with ``resume=True``
    crash_and_resume: bool = False
    #: the first leg's ``final_accuracy`` must reach this (None = not checked)
    min_accuracy: float | None = None

    @property
    def has_reference(self) -> bool:
        """Whether an untimed plain serial run must reproduce the history."""
        return self.wire_workers > 0 or self.crash_and_resume


def _setting(scale: str, overrides: dict, **kwargs) -> dict:
    return {
        "dataset": "cifar10",
        "model": "simple_cnn",
        "distribution": "iid",
        "transport": "delta",
        "scale": scale,
        "overrides": overrides,
        **kwargs,
    }


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="train_serial",
            setting=_setting(
                "small", {"local_epochs": 1, "max_batches_per_epoch": 3, "eval_every": 5}
            ),
            rounds=25,
            algorithms=("adaptivefl", "heterofl"),
            min_accuracy=0.5,
        ),
        Workload(
            name="fleet_20k",
            setting=_setting(
                "ci",
                {
                    "num_clients": 20000,
                    "train_samples": 40000,
                    "clients_per_round": 32,
                    "batch_size": 2,
                    "max_batches_per_epoch": 1,
                    "eval_every": 5,
                    "test_samples": 100,
                },
                scenario="flaky_edge",
            ),
            rounds=30,
        ),
        Workload(
            name="wire_int8",
            setting=_setting(
                "ci", {**_WIDE_MODEL, "clients_per_round": 8}, transport_codec="int8"
            ),
            rounds=50,
            wire_workers=2,
        ),
        Workload(
            name="store_resume",
            setting=_setting("ci", {**_WIDE_MODEL, "clients_per_round": 2}),
            rounds=80,
            crash_and_resume=True,
        ),
    )
}
