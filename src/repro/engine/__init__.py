"""``repro.engine`` — the parallel client-execution subsystem.

Federated rounds are embarrassingly parallel on the client side: once the
server has planned *who* trains *what*, every local round is an
independent task.  The round trains the tasks of one ``stack_key()`` as
stacked passes (:func:`repro.engine.tasks.map_stacked`), handing every
executor, remote included, one ``StackTask`` per piece.  The executors
differ only in their pool:

* :class:`~repro.engine.executors.SerialExecutor` — no pool: each stack
  trains as one pass in the calling thread (default, the reference),
* :class:`~repro.engine.executors.ThreadExecutor` — thread pool; cheapest
  spin-up, overlaps GIL-releasing numpy kernels and simulated device
  latency,
* :class:`~repro.engine.executors.ProcessExecutor` — process pool; true CPU
  parallelism for compute-bound local training.

All three are interchangeable **and bit-identical**: tasks carry private
:class:`numpy.random.SeedSequence` streams keyed on (seed, round, client),
so the training history never depends on the executor or worker count —
enforced by the serial-parity suite in ``tests/engine``.

Import from the submodules; the package itself exports nothing.
"""
