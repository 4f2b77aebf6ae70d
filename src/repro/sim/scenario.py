"""Serialisable scenario specifications and the scenario registry.

A :class:`ScenarioSpec` is a frozen, JSON-round-trippable description of
an AIoT deployment: the device mix (throughput, link, memory, per-device
jitter), the server network (bounded transfer concurrency), the
availability process (always-on, Markov churn or diurnal), optional
battery budgets, mid-round dropout probability, the synchronous-round
deadline and the over-selection margin the server dispatches beyond
``clients_per_round``.

Scenarios register through the :func:`register_scenario` decorator —
mirroring :func:`repro.api.registry.register_algorithm` — so
``FederatedConfig(scenario="flaky_edge")``, the CLI's ``--scenario`` flag
and ``repro scenarios`` are pure registry lookups.  The shipped library
lives in :mod:`repro.sim.library` and is imported lazily by
:func:`ensure_builtin_scenarios`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.serialization import Serializable

__all__ = [
    "DeviceTemplate",
    "AvailabilitySpec",
    "BatterySpec",
    "NetworkSpec",
    "ScenarioSpec",
    "register_scenario",
    "unregister_scenario",
    "get_scenario",
    "available_scenarios",
    "validate_scenario_choice",
    "ensure_builtin_scenarios",
]

#: capacity classes understood by the rest of the repository
DEVICE_CLASSES = ("weak", "medium", "strong")


@dataclass(frozen=True)
class DeviceTemplate(Serializable):
    """One device type of a scenario's fleet.

    ``count`` fixes an absolute number of devices (the paper's test-bed is
    exactly 4+10+3); ``fraction`` scales with the experiment's client
    count.  Exactly one of the two must be set.  ``compute_jitter`` is the
    log-normal sigma of the per-round training-throughput fluctuation;
    ``link_latency_s``/``link_jitter_s`` model per-transfer latency and
    exponential jitter.
    """

    name: str
    device_class: str
    flops_per_second: float
    bandwidth_mbps: float
    memory_gb: float = 4.0
    count: int | None = None
    fraction: float | None = None
    compute_jitter: float = 0.0
    link_latency_s: float = 0.0
    link_jitter_s: float = 0.0

    def __post_init__(self) -> None:
        if self.device_class not in DEVICE_CLASSES:
            raise ValueError(f"device_class must be one of {DEVICE_CLASSES}")
        if self.flops_per_second <= 0 or self.bandwidth_mbps <= 0 or self.memory_gb <= 0:
            raise ValueError("device throughput, bandwidth and memory must be positive")
        if (self.count is None) == (self.fraction is None):
            raise ValueError("exactly one of count/fraction must be set")
        if self.count is not None and self.count <= 0:
            raise ValueError("count must be positive when set")
        if self.fraction is not None and self.fraction <= 0:
            raise ValueError("fraction must be positive when set")
        if self.compute_jitter < 0 or self.link_latency_s < 0 or self.link_jitter_s < 0:
            raise ValueError("jitter and latency parameters must be non-negative")

    @property
    def is_static(self) -> bool:
        """True when this device adds no timing randomness of its own."""
        return self.compute_jitter == 0.0 and self.link_latency_s == 0.0 and self.link_jitter_s == 0.0


@dataclass(frozen=True)
class AvailabilitySpec(Serializable):
    """The on/off process governing which clients are reachable per round.

    * ``always`` — every client is reachable every round.
    * ``markov`` — per-client two-state chain: ``P(on→off) = p_drop``,
      ``P(off→on) = p_join`` per round, started from the stationary
      distribution.
    * ``diurnal`` — each client is on for ``on_fraction`` of a
      ``period_rounds``-round day, with a per-client phase offset.
    """

    kind: str = "always"
    p_drop: float = 0.0
    p_join: float = 1.0
    period_rounds: int = 24
    on_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in {"always", "markov", "diurnal"}:
            raise ValueError("availability kind must be 'always', 'markov' or 'diurnal'")
        if not 0.0 <= self.p_drop <= 1.0 or not 0.0 <= self.p_join <= 1.0:
            raise ValueError("markov probabilities must be in [0, 1]")
        if self.kind == "markov" and self.p_drop > 0 and self.p_join == 0:
            raise ValueError("markov availability with p_join=0 would strand every client offline")
        if self.period_rounds <= 0:
            raise ValueError("period_rounds must be positive")
        if not 0.0 < self.on_fraction <= 1.0:
            raise ValueError("on_fraction must be in (0, 1]")

    @property
    def is_static(self) -> bool:
        return self.kind == "always"


@dataclass(frozen=True)
class BatterySpec(Serializable):
    """Per-client energy budget (battery-powered fleets).

    Training drains ``compute_watts`` for the compute phase and
    ``transfer_joules_per_mb`` per transferred megabyte; idle clients
    recharge at ``recharge_watts`` over the round's simulated duration.  A
    client whose charge falls below ``min_charge_fraction`` sits out until
    it recovers above ``resume_charge_fraction``; one whose remaining
    charge cannot cover a dispatched round dies mid-round (a dropout).
    """

    capacity_joules: float
    compute_watts: float = 2.0
    transfer_joules_per_mb: float = 0.5
    recharge_watts: float = 0.5
    min_charge_fraction: float = 0.05
    resume_charge_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.capacity_joules <= 0:
            raise ValueError("capacity_joules must be positive")
        if self.compute_watts < 0 or self.transfer_joules_per_mb < 0 or self.recharge_watts < 0:
            raise ValueError("energy rates must be non-negative")
        if not 0.0 <= self.min_charge_fraction <= self.resume_charge_fraction <= 1.0:
            raise ValueError("need 0 <= min_charge_fraction <= resume_charge_fraction <= 1")


@dataclass(frozen=True)
class NetworkSpec(Serializable):
    """Server-side network model.

    ``server_concurrency`` bounds how many uploads/downloads the server
    serves at once (a FIFO :class:`~repro.sim.events.TransferGate`); the
    overflow queues, which is what creates congestion stragglers.  ``None``
    means uncontended.
    """

    server_concurrency: int | None = None

    def __post_init__(self) -> None:
        if self.server_concurrency is not None and self.server_concurrency <= 0:
            raise ValueError("server_concurrency must be positive (or None for unlimited)")

    @property
    def is_static(self) -> bool:
        return self.server_concurrency is None


@dataclass(frozen=True)
class ScenarioSpec(Serializable):
    """A complete, serialisable AIoT deployment scenario."""

    name: str
    devices: tuple[DeviceTemplate, ...]
    description: str = ""
    network: NetworkSpec = field(default_factory=NetworkSpec)
    availability: AvailabilitySpec = field(default_factory=AvailabilitySpec)
    battery: BatterySpec | None = None
    #: per-(client, round) probability of a mid-round failure
    dropout_rate: float = 0.0
    #: absolute synchronous-round deadline (seconds); None = no fixed deadline
    deadline_seconds: float | None = None
    #: relative deadline: this factor × the round's median client finish time
    deadline_factor: float | None = None
    #: extra clients dispatched beyond ``clients_per_round`` (over-selection)
    over_selection: int = 0
    #: per-round transfer budget in bytes (downlinks + admitted uploads);
    #: once spent, later-arriving uploads are refused (metered backhaul).
    #: None = unmetered.  Admission is deterministic: uploads are admitted
    #: in simulated-arrival order, dispatch position breaking ties.
    round_byte_budget: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        object.__setattr__(self, "devices", tuple(self.devices))
        if not self.devices:
            raise ValueError("a scenario needs at least one device template")
        kinds = {device.count is None for device in self.devices}
        if len(kinds) > 1:
            raise ValueError("device templates must be uniformly count-based or fraction-based")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive when set")
        if self.deadline_factor is not None and self.deadline_factor <= 0:
            raise ValueError("deadline_factor must be positive when set")
        if self.deadline_seconds is not None and self.deadline_factor is not None:
            raise ValueError("set at most one of deadline_seconds/deadline_factor")
        if self.over_selection < 0:
            raise ValueError("over_selection must be non-negative")
        if self.round_byte_budget is not None and self.round_byte_budget <= 0:
            raise ValueError("round_byte_budget must be positive when set")

    @property
    def has_deadline(self) -> bool:
        return self.deadline_seconds is not None or self.deadline_factor is not None

    @property
    def is_static(self) -> bool:
        """True when the scenario has no dynamics at all.

        A static scenario degenerates to the closed-form
        ``max(download + compute + upload)`` round clock of the legacy
        :class:`~repro.devices.testbed.TestbedSimulator`, and the fleet
        reproduces those numbers bit-for-bit.
        """
        return (
            all(device.is_static for device in self.devices)
            and self.network.is_static
            and self.availability.is_static
            and self.battery is None
            and self.dropout_rate == 0.0
            and not self.has_deadline
            and self.over_selection == 0
            and self.round_byte_budget is None
        )


# -- registry ---------------------------------------------------------------------------

_SCENARIOS: dict[str, Callable[[], ScenarioSpec]] = {}


def register_scenario(name: str) -> Callable[[Callable[[], ScenarioSpec]], Callable[[], ScenarioSpec]]:
    """Decorator registering a zero-arg factory producing a :class:`ScenarioSpec`."""
    if not isinstance(name, str):
        # a bare ``@register_scenario`` passes the decorated object here and registers nothing
        raise TypeError(f"register_scenario needs the scenario's name as a str, got {name!r}")

    def decorator(factory: Callable[[], ScenarioSpec]) -> Callable[[], ScenarioSpec]:
        existing = _SCENARIOS.get(name)
        if existing is not None and existing is not factory:
            raise ValueError(f"scenario {name!r} is already registered ({existing!r})")
        _SCENARIOS[name] = factory
        return factory

    return decorator


def unregister_scenario(name: str) -> None:
    """Remove a registration (plugin teardown / tests); unknown names are a no-op."""
    _SCENARIOS.pop(name, None)


def ensure_builtin_scenarios() -> None:
    """Import the module whose decorators register the shipped library."""
    import repro.sim.library  # noqa: F401  (registers the shipped fleet scenarios)


def available_scenarios() -> tuple[str, ...]:
    """All registered scenario names, sorted."""
    ensure_builtin_scenarios()
    return tuple(sorted(_SCENARIOS))


def get_scenario(name: str) -> ScenarioSpec:
    """Build the spec for a registered scenario; unknown names list valid ones."""
    ensure_builtin_scenarios()
    try:
        factory = _SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; registered: {', '.join(available_scenarios())}"
        ) from None
    spec = factory()
    if spec.name != name:
        raise ValueError(f"scenario factory for {name!r} produced a spec named {spec.name!r}")
    return spec


def validate_scenario_choice(name: str | None) -> None:
    """Fail fast on unknown scenario names (used by config validation)."""
    if name is None:
        return
    ensure_builtin_scenarios()
    if name not in _SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; registered: {', '.join(available_scenarios())}")
