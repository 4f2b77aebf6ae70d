"""``repro.api`` — the experiment-session layer of the reproduction.

* :mod:`repro.api.registry` — the algorithm registry: ``@register_algorithm``
  lets AdaptiveFL, the four baselines and any plugin self-describe the
  configs they accept; ``run_algorithm`` is a pure registry lookup with
  no per-algorithm special cases.
* :mod:`repro.api.callbacks` — the ``on_round_start`` / ``on_round_end`` /
  ``on_evaluate`` / ``on_fit_end`` hook protocol threaded through
  :meth:`repro.core.fl_base.FederatedAlgorithm.run`, with shipped callbacks
  for progress logging, early stopping, wall-clock budgets and JSON
  history streaming.
* :mod:`repro.api.spec` — :class:`~repro.api.spec.ExperimentSpec`, a
  JSON-serialisable description of a full experiment (setting, algorithms
  and run options).
* :mod:`repro.api.session` — :class:`~repro.api.session.ExperimentSession`,
  which prepares the data/partition/devices once and runs any number of
  algorithms on the identical snapshot (paired comparisons, N× faster than
  re-preparing).  It is the one caller of ``run_algorithm`` in the
  package: ``ExperimentSession.compare``, ``repro.store.sweep.run_sweep``
  and every CLI subcommand that trains go through it.
* :mod:`repro.api.cli` — the ``python -m repro`` command line.

The public entry points are exported by :mod:`repro` itself.  Import from
the submodules; the package itself exports nothing.
"""
