"""``repro.store`` — the durable, resumable experiment store.

Four layers, bottom up:

* :mod:`repro.store.objects` — atomic writes and the checkpoint file
  format: one self-checking file per checkpoint, verified on every read.
* :mod:`repro.store.checkpoint` + :mod:`repro.store.runstore` —
  :class:`~repro.store.checkpoint.Checkpoint` (the complete restorable
  state of a run at the end of one round: weights, history, RNG state, RL
  tables, fleet state) and :class:`~repro.store.runstore.RunStore` (runs
  keyed by canonical run-key hashes, per-round checkpoint files, final
  histories).  :class:`~repro.store.runstore.RunRecorder` feeds a store
  from a live run via the ``on_checkpoint`` callback hook.
* :mod:`repro.store.sweep` — :class:`~repro.store.sweep.SweepSpec` grids
  (algorithms × scenarios × seeds) and :func:`~repro.store.sweep.run_sweep`,
  which skips completed cells by run-key hash, resumes partial ones and
  runs the rest.
* :mod:`repro.store.report` — ``report.md``/``report.json`` regenerated
  from stored state only.

The common entry points are ``ExperimentSession.with_store`` /
``session.run(..., resume=True)`` in code and ``repro run --store
--resume``, ``repro sweep`` and ``repro report`` on the CLI.

Import from the submodules; the package itself exports nothing.
"""
