"""Profiling and optimization layer for the NumPy training stack.

Four concerns live here:

* :mod:`repro.perf.profiler` — the one timing seam: ``stage`` and
  ``count`` mark the round's phases and counters, and a ``Profiler``
  listener, attached by ``FederatedAlgorithm.run(profile=True)`` (CLI
  ``--profile``), collects them; dormant, a stage is one global check.
* :mod:`repro.perf.workspace` — reusable ndarray buffers that remove
  per-batch allocation from the conv/pool/optimizer hot paths.
* :mod:`repro.perf.lanes` — the calling thread and one helper thread
  sharing an eval-mode convolution's chunks, so evaluation uses a second
  core.
* :mod:`repro.perf.flops` — parameter and FLOP counting, used for
  Table 1 and the test-bed clock.

Import from the submodules; the package itself exports nothing.
"""
