"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at a reduced
(CI) scale: the absolute accuracies differ from the publication (synthetic
data, smaller models, far fewer rounds — see DESIGN.md §2), but each bench
prints the same rows/series the paper reports together with the published
numbers so the *shape* of the result can be compared directly.

All benches are macro-benchmarks: they run once per pytest-benchmark round
(``rounds=1, iterations=1``) and attach their result rows to
``benchmark.extra_info`` so the JSON output carries the reproduced numbers.
"""

from __future__ import annotations

from repro.api.session import ExperimentSession
from repro.experiments.settings import ExperimentSetting

#: rounds used by the CI-scale benchmark runs
BENCH_ROUNDS = 6
BENCH_OVERRIDES = {"num_rounds": BENCH_ROUNDS, "eval_every": 3}


def bench_setting(**kwargs) -> ExperimentSetting:
    """A CI-scale experiment setting with benchmark-friendly overrides."""
    overrides = dict(BENCH_OVERRIDES)
    overrides.update(kwargs.pop("overrides", {}))
    kwargs.setdefault("dataset", "cifar10")
    kwargs.setdefault("model", "simple_cnn")
    kwargs.setdefault("scale", "ci")
    return ExperimentSetting(overrides=overrides, **kwargs)


def run_algorithms(setting: ExperimentSetting, algorithms):
    """Run several algorithms on one shared prepared experiment (paired)."""
    return ExperimentSession(setting).compare(algorithms)


def once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1)
