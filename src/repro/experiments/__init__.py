"""Experiment data: settings, scales, the one-run runner and the paper's tables.

``run_algorithm`` instantiates any registered algorithm from its declared
spec (see :mod:`repro.api.registry`) and trains it on a prepared
experiment.  Paired comparisons and sweeps go through
:class:`~repro.api.session.ExperimentSession`, which prepares the
experiment once and calls ``run_algorithm`` for every algorithm on the
identical snapshot; application code should usually go through
:mod:`repro` (``ExperimentSession``, ``ExperimentSpec``, the CLI).  This
package is the home of the setting/scale definitions and of the paper's
published tables (:mod:`repro.experiments.reporting`).

Import from the submodules; the package itself exports nothing.
"""
