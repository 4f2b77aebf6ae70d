"""``repro.sim`` — the discrete-event AIoT fleet simulator.

The paper evaluates AdaptiveFL on a physical test-bed of Raspberry Pi and
Jetson devices (§4.5); this package replaces the closed-form
``max(download + compute + upload)`` clock of :mod:`repro.devices.testbed`
with a deterministic discrete-event simulation of a whole device fleet:

* :mod:`repro.sim.events` — the virtual clock + event heap that orders
  every simulated action deterministically (FIFO tie-breaking, cancellable
  events).
* :mod:`repro.sim.scenario` — serialisable
  :class:`~repro.sim.scenario.ScenarioSpec` dataclasses (device mixes,
  network, availability, battery, deadline) and the
  ``@register_scenario`` registry.
* :mod:`repro.sim.library` — the shipped scenario library:
  ``stable_lab``, ``flaky_edge``, ``diurnal``, ``congested_network``,
  ``battery_constrained`` and ``paper_testbed`` (bit-identical to the
  :class:`~repro.devices.testbed.TestbedSimulator` numbers).
* :mod:`repro.sim.fleet` — :class:`~repro.sim.fleet.FleetSimulator`, the
  per-run stateful engine the federated algorithms talk to in columns:
  availability masks, and
  :meth:`~repro.sim.fleet.FleetSimulator.simulate_round` from one
  :class:`~repro.sim.fleet.DispatchBatch` to one
  :class:`~repro.sim.fleet.RoundOutcome` (compute jitter, link
  latency/jitter, server transfer-slot contention, mid-round dropouts,
  battery budgets, deadline-aware arrival accounting).

All randomness derives from :class:`numpy.random.SeedSequence` streams
keyed on ``(seed, tag, round)``, one population vector each, and
disjoint from the training streams of :mod:`repro.engine.rng`.  Scenario
dynamics therefore never perturb local training, and same-seed runs are
bit-identical across the serial, thread and process executors.

Import from the submodules; the package itself exports nothing.
"""
