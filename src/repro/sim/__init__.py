"""``repro.sim`` — the discrete-event AIoT fleet simulator.

The paper evaluates AdaptiveFL on a physical test-bed of Raspberry Pi and
Jetson devices (§4.5); this package replaces the closed-form
``max(download + compute + upload)`` clock of :mod:`repro.devices.testbed`
with a deterministic discrete-event simulation of a whole device fleet:

* :mod:`repro.sim.events` — the virtual clock + event heap that orders
  every simulated action deterministically (FIFO tie-breaking, cancellable
  events).
* :mod:`repro.sim.scenario` — serialisable :class:`ScenarioSpec`
  dataclasses (device mixes, network, availability, battery, deadline)
  and the ``@register_scenario`` registry.
* :mod:`repro.sim.library` — the shipped scenario library:
  ``stable_lab``, ``flaky_edge``, ``diurnal``, ``congested_network``,
  ``battery_constrained`` and ``paper_testbed`` (bit-identical to the
  :class:`~repro.devices.testbed.TestbedSimulator` numbers).
* :mod:`repro.sim.fleet` — :class:`FleetSimulator`, the per-run stateful
  engine the federated algorithms talk to in columns: availability
  masks, and :meth:`~repro.sim.fleet.FleetSimulator.simulate_round`
  from one :class:`DispatchBatch` to one :class:`RoundOutcome` (compute
  jitter, link latency/jitter, server transfer-slot contention,
  mid-round dropouts, battery budgets, deadline-aware arrival
  accounting).

All randomness derives from :class:`numpy.random.SeedSequence` streams
keyed on ``(seed, tag, round)``, one population vector each — disjoint
from the training streams of :mod:`repro.engine.rng` — so scenario
dynamics never perturb local training and same-seed runs are
bit-identical across the serial, thread and process executors.
"""

from __future__ import annotations

import importlib
from typing import Any

_EXPORTS: dict[str, str] = {
    # event engine
    "Event": "repro.sim.events",
    "EventQueue": "repro.sim.events",
    "TransferGate": "repro.sim.events",
    # scenario specs + registry
    "DeviceTemplate": "repro.sim.scenario",
    "AvailabilitySpec": "repro.sim.scenario",
    "BatterySpec": "repro.sim.scenario",
    "NetworkSpec": "repro.sim.scenario",
    "ScenarioSpec": "repro.sim.scenario",
    "register_scenario": "repro.sim.scenario",
    "unregister_scenario": "repro.sim.scenario",
    "get_scenario": "repro.sim.scenario",
    "available_scenarios": "repro.sim.scenario",
    "validate_scenario_choice": "repro.sim.scenario",
    "ensure_builtin_scenarios": "repro.sim.scenario",
    # fleet runtime
    "FleetSimulator": "repro.sim.fleet",
    "DispatchBatch": "repro.sim.fleet",
    "RoundOutcome": "repro.sim.fleet",
    # cohort-sharded streaming selection
    "DEFAULT_COHORT_SIZE": "repro.sim.cohorts",
    "cohort_counts": "repro.sim.cohorts",
    "nth_masked_index": "repro.sim.cohorts",
    "masked_choice_without_replacement": "repro.sim.cohorts",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro.sim' has no attribute {name!r}") from None
    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
