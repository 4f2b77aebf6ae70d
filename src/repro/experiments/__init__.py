"""Experiment harness: configurations, runners and report rendering.

The runners are registry-driven (see :mod:`repro.api.registry`):
``run_algorithm`` instantiates any registered algorithm from its declared
spec, and ``run_comparison`` prepares the experiment once and runs every
algorithm on the identical snapshot.  Application code should usually go
through :mod:`repro` (``ExperimentSession``, ``ExperimentSpec``, the CLI);
this package remains the home of the setting/scale definitions and of the
paper's reference tables.

Import from the submodules; the package itself exports nothing.
"""
