"""Experiment harness: configurations, runners and report rendering.

The runners are registry-driven (see :mod:`repro.api.registry`):
``run_algorithm`` instantiates any registered algorithm from its declared
spec, and ``run_comparison`` prepares the experiment once and runs every
algorithm on the identical snapshot.  Application code should usually go
through :mod:`repro.api` (``ExperimentSession``, ``ExperimentSpec``, the
CLI); this package remains the home of the setting/scale definitions and
of the paper's reference tables.
"""

from repro.experiments.reporting import (
    PAPER_TABLE2,
    PAPER_TABLE3,
    PAPER_TABLE4,
    format_table,
    render_accuracy_table,
    render_learning_curves,
    render_waste_table,
)
from repro.experiments.runner import AlgorithmResult, run_algorithm, run_comparison
from repro.experiments.scaling import SCALES, ExperimentScale, get_scale
from repro.experiments.settings import (
    DATASET_BUILDERS,
    ExperimentSetting,
    PreparedExperiment,
    paper_pool_config,
    prepare_experiment,
    vgg16_table1_settings,
)

__all__ = [
    "ExperimentSetting",
    "PreparedExperiment",
    "prepare_experiment",
    "paper_pool_config",
    "vgg16_table1_settings",
    "DATASET_BUILDERS",
    "ExperimentScale",
    "SCALES",
    "get_scale",
    "AlgorithmResult",
    "run_algorithm",
    "run_comparison",
    "format_table",
    "render_accuracy_table",
    "render_learning_curves",
    "render_waste_table",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "PAPER_TABLE4",
]
