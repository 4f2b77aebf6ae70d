""":class:`FleetSimulator` — the per-run discrete-event fleet engine.

One fleet instance backs one algorithm run.  It owns

* the **device fleet**: the scenario's templates expanded to the
  experiment's client count (fixed counts verbatim when they match,
  largest-remainder proportions otherwise), held as NumPy
  struct-of-arrays so million-device fleets never materialise a Python
  object per client,
* the **availability trace**: which clients are reachable at each round
  (always / Markov churn / diurnal duty cycle, overlaid with battery
  state), exposed both as a boolean :meth:`FleetSimulator.available_mask`
  and the :meth:`FleetSimulator.available_clients` list façade,
* the **round simulation**: download → local compute → upload per
  participant, closed-form vectorised when the server is uncontended or
  on the :class:`~repro.sim.events.EventQueue` when a FIFO
  :class:`~repro.sim.events.TransferGate` bounds server transfer
  concurrency, with link latency/jitter, per-round compute-throughput
  jitter, mid-round dropouts and battery depletion,
* **deadline-aware arrival accounting**: which uploads made it back by
  the synchronous-round deadline (absolute seconds or a factor of the
  round's median finish time) and therefore join aggregation.

Determinism: every stochastic quantity is drawn up-front as one
full-population vector per ``(seed, tag, round)``
:class:`numpy.random.SeedSequence` key — a key-space disjoint from the
training streams of :mod:`repro.engine.rng` — so a client's draw never
depends on who else was dispatched, and the event core breaks ties FIFO:
a same-seed run is bit-identical across executors, worker counts and
process boundaries, at 16 clients and at 10⁶ alike.

Static scenarios (no jitter, no churn, no contention, no deadline —
``ScenarioSpec.is_static``) bypass the event decomposition and use the
exact closed-form arithmetic of
:meth:`repro.devices.testbed.TestbedSimulator.client_round_time`, which is
what makes the ``paper_testbed`` scenario reproduce the legacy test-bed
wall-clock numbers bit-for-bit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from repro.devices.profiles import DeviceClass, DeviceProfile
from repro.devices.testbed import DEFAULT_CAPACITY_FRACTIONS, TestbedSimulator, split_round_seconds
from repro.sim.events import EventQueue, TransferGate
from repro.sim.scenario import DeviceTemplate, ScenarioSpec

__all__ = [
    "ClientDispatch",
    "ClientOutcome",
    "RoundOutcome",
    "DispatchBatch",
    "RoundOutcomeBatch",
    "FleetSimulator",
]

# shared with the legacy test-bed so paper_testbed parity can never drift
#: bytes per parameter (float32 on the wire)
BYTES_PER_PARAM = TestbedSimulator.BYTES_PER_PARAM
#: backward pass costs roughly twice the forward pass
TRAIN_FLOP_MULTIPLIER = TestbedSimulator.TRAIN_FLOP_MULTIPLIER
#: capacity fraction per device class
CAPACITY_FRACTIONS = DEFAULT_CAPACITY_FRACTIONS

#: sim-stream namespace tag; keeps (seed, tag, ...) keys disjoint from the
#: (seed, round, client) training streams and (seed, client, round)
#: resource-model draws, which use shorter entropy tuples
_SIM_TAG = 0x51E47
_COMPUTE, _LINK_DOWN, _LINK_UP, _DROPOUT, _AVAILABILITY, _PHASE = range(6)


@dataclass(frozen=True)
class ClientDispatch:
    """What the server asks one selected client to do this round."""

    client_id: int
    params_down: int
    params_up: int
    flops_per_sample: int
    num_samples: int
    local_epochs: int


@dataclass
class ClientOutcome:
    """How one dispatched client's round actually went."""

    client_id: int
    bytes_down: int
    bytes_up: int
    #: upload-complete time (seconds from round start); None = never returned
    finish_seconds: float | None
    #: True when the client failed mid-round (dropout or battery death)
    dropped: bool
    #: True when the update arrived in time to join aggregation
    aggregated: bool
    #: seconds of local compute actually spent (battery accounting)
    compute_seconds: float = 0.0
    #: when a dropped client went silent (the server's timeout horizon)
    failure_seconds: float | None = None


@dataclass
class RoundOutcome:
    """The simulated fate of one synchronous round."""

    round_index: int
    clients: list[ClientOutcome]
    deadline_seconds: float | None
    round_seconds: float

    def aggregated_positions(self) -> list[int]:
        """Indices (into the dispatch order) whose updates join aggregation."""
        return [i for i, client in enumerate(self.clients) if client.aggregated]

    def dropped_client_ids(self) -> list[int]:
        """Clients whose update missed aggregation (dropout or deadline)."""
        return [client.client_id for client in self.clients if not client.aggregated]

    def arrival_seconds(self) -> list[float | None]:
        """Per-dispatched-client upload-complete times (None = dropped)."""
        return [client.finish_seconds for client in self.clients]

    @property
    def bytes_down(self) -> int:
        return sum(client.bytes_down for client in self.clients)

    @property
    def bytes_up(self) -> int:
        return sum(client.bytes_up for client in self.clients)


@dataclass
class DispatchBatch:
    """A round's dispatches as column arrays (the scale-path twin of
    ``list[ClientDispatch]``).

    Scalar fields broadcast: pass a single int for ``params_down`` etc.
    and it is expanded to every client in the batch.
    """

    client_ids: np.ndarray
    params_down: np.ndarray
    params_up: np.ndarray
    flops_per_sample: np.ndarray
    num_samples: np.ndarray
    local_epochs: np.ndarray

    def __post_init__(self) -> None:
        self.client_ids = np.atleast_1d(np.asarray(self.client_ids, dtype=np.int64))
        n = self.client_ids.shape[0]
        for name in ("params_down", "params_up", "flops_per_sample", "num_samples", "local_epochs"):
            column = np.asarray(getattr(self, name), dtype=np.int64)
            if column.ndim == 0:
                column = np.full(n, int(column), dtype=np.int64)
            if column.shape != (n,):
                raise ValueError(
                    f"dispatch column {name!r} has shape {column.shape}, expected ({n},)"
                )
            setattr(self, name, column)

    def __len__(self) -> int:
        return int(self.client_ids.shape[0])

    @classmethod
    def from_dispatches(cls, dispatches: Sequence[ClientDispatch]) -> "DispatchBatch":
        """Column-ise a list of per-client dispatches (order preserved)."""
        return cls(
            client_ids=np.array([d.client_id for d in dispatches], dtype=np.int64),
            params_down=np.array([d.params_down for d in dispatches], dtype=np.int64),
            params_up=np.array([d.params_up for d in dispatches], dtype=np.int64),
            flops_per_sample=np.array([d.flops_per_sample for d in dispatches], dtype=np.int64),
            num_samples=np.array([d.num_samples for d in dispatches], dtype=np.int64),
            local_epochs=np.array([d.local_epochs for d in dispatches], dtype=np.int64),
        )

    def to_dispatches(self) -> list[ClientDispatch]:
        """The row view back: one ``ClientDispatch`` per batch entry."""
        return [
            ClientDispatch(
                client_id=int(self.client_ids[i]),
                params_down=int(self.params_down[i]),
                params_up=int(self.params_up[i]),
                flops_per_sample=int(self.flops_per_sample[i]),
                num_samples=int(self.num_samples[i]),
                local_epochs=int(self.local_epochs[i]),
            )
            for i in range(len(self))
        ]


@dataclass
class RoundOutcomeBatch:
    """A round's outcome as column arrays (NaN codes "never happened")."""

    round_index: int
    client_ids: np.ndarray
    bytes_down: np.ndarray
    bytes_up: np.ndarray
    #: upload-complete times; NaN = never returned
    finish_seconds: np.ndarray
    dropped: np.ndarray
    aggregated: np.ndarray
    compute_seconds: np.ndarray
    #: when dropped clients went silent; NaN = did not fail
    failure_seconds: np.ndarray
    deadline_seconds: float | None
    round_seconds: float

    def __len__(self) -> int:
        return int(self.client_ids.shape[0])

    def aggregated_positions(self) -> np.ndarray:
        """Indices (into the dispatch order) whose updates join aggregation."""
        return np.flatnonzero(self.aggregated)

    def dropped_client_ids(self) -> np.ndarray:
        """Clients whose update missed aggregation (dropout or deadline)."""
        return self.client_ids[~self.aggregated]

    @property
    def bytes_down_total(self) -> int:
        return int(self.bytes_down.sum())

    @property
    def bytes_up_total(self) -> int:
        return int(self.bytes_up.sum())

    def to_outcome(self) -> RoundOutcome:
        """The row view back (small-N callers; Python scalars throughout)."""
        clients = []
        for i in range(len(self)):
            finish = float(self.finish_seconds[i])
            failure = float(self.failure_seconds[i])
            clients.append(
                ClientOutcome(
                    client_id=int(self.client_ids[i]),
                    bytes_down=int(self.bytes_down[i]),
                    bytes_up=int(self.bytes_up[i]),
                    finish_seconds=None if math.isnan(finish) else finish,
                    dropped=bool(self.dropped[i]),
                    aggregated=bool(self.aggregated[i]),
                    compute_seconds=float(self.compute_seconds[i]),
                    failure_seconds=None if math.isnan(failure) else failure,
                )
            )
        return RoundOutcome(
            round_index=self.round_index,
            clients=clients,
            deadline_seconds=self.deadline_seconds,
            round_seconds=self.round_seconds,
        )

    @classmethod
    def from_outcome(cls, outcome: RoundOutcome) -> "RoundOutcomeBatch":
        """Column-ise a row-shaped outcome (static rounds of the batch API)."""
        nan = float("nan")
        return cls(
            round_index=outcome.round_index,
            client_ids=np.array([c.client_id for c in outcome.clients], dtype=np.int64),
            bytes_down=np.array([c.bytes_down for c in outcome.clients], dtype=np.int64),
            bytes_up=np.array([c.bytes_up for c in outcome.clients], dtype=np.int64),
            finish_seconds=np.array(
                [nan if c.finish_seconds is None else c.finish_seconds for c in outcome.clients],
                dtype=np.float64,
            ),
            dropped=np.array([c.dropped for c in outcome.clients], dtype=bool),
            aggregated=np.array([c.aggregated for c in outcome.clients], dtype=bool),
            compute_seconds=np.array([c.compute_seconds for c in outcome.clients], dtype=np.float64),
            failure_seconds=np.array(
                [nan if c.failure_seconds is None else c.failure_seconds for c in outcome.clients],
                dtype=np.float64,
            ),
            deadline_seconds=outcome.deadline_seconds,
            round_seconds=outcome.round_seconds,
        )


class _DeviceFleet(Sequence):
    """Lazy ``Sequence[DeviceTemplate]`` over (template, count) runs.

    Small-N callers index and iterate it like the historical
    ``list[DeviceTemplate]``; large fleets never pay for N references.
    """

    __slots__ = ("templates", "counts", "_offsets", "_total")

    def __init__(self, templates: Sequence[DeviceTemplate], counts: Sequence[int]):
        self.templates = tuple(templates)
        self.counts = tuple(int(count) for count in counts)
        self._offsets = np.cumsum(np.asarray(self.counts, dtype=np.int64))
        self._total = int(self._offsets[-1]) if self.counts else 0

    def __len__(self) -> int:
        return self._total

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._total))]
        i = int(index)
        if i < 0:
            i += self._total
        if not 0 <= i < self._total:
            raise IndexError(f"client_id {index} out of range for fleet of {self._total}")
        return self.templates[int(np.searchsorted(self._offsets, i, side="right"))]

    def __iter__(self) -> Iterator[DeviceTemplate]:
        for template, count in zip(self.templates, self.counts):
            for _ in range(count):
                yield template


@dataclass
class _RoundDraws:
    """Pre-drawn per-dispatch randomness.

    The closed form and the gated event replay index these exact arrays —
    never re-drawing, never re-applying ``exp``.  ``drop_fraction`` is
    NaN-coded: NaN means the client does not fail mid-round.
    """

    factor: np.ndarray
    down_jitter: np.ndarray
    up_jitter: np.ndarray
    drop_fraction: np.ndarray


class FleetSimulator:
    """Stateful scenario engine for one algorithm run (one fleet per run)."""

    def __init__(self, spec: ScenarioSpec, num_clients: int, seed: int = 0):
        if num_clients <= 0:
            raise ValueError("num_clients must be positive")
        self.spec = spec
        self.seed = int(seed)
        counts = _expand_device_counts(spec.devices, num_clients)
        self.devices = _DeviceFleet(spec.devices, counts)
        self.num_clients = len(self.devices)

        # struct-of-arrays device parameters: one float64 column per knob,
        # repeated from the template runs — no per-device Python objects
        reps = np.asarray(counts, dtype=np.int64)

        def column(attr: str) -> np.ndarray:
            values = np.array([getattr(t, attr) for t in spec.devices], dtype=np.float64)
            return np.repeat(values, reps)

        self._flops = column("flops_per_second")
        self._bandwidth = column("bandwidth_mbps")
        self._compute_jitter = column("compute_jitter")
        self._link_latency = column("link_latency_s")
        self._link_jitter = column("link_jitter_s")

        self._avail_cache: dict[int, np.ndarray] = {}
        self._diurnal_offsets: np.ndarray | None = None
        self._draw_cache: dict[int, object] = {}
        self._draw_cache_round = -1
        self._last_simulated_round = -1
        battery = spec.battery
        self._charge = (
            np.full(self.num_clients, battery.capacity_joules, dtype=np.float64)
            if battery is not None
            else None
        )
        self._recovering_mask = np.zeros(self.num_clients, dtype=bool)

    # -- profiles ---------------------------------------------------------------------
    def build_profiles(self) -> list[DeviceProfile]:
        """Capacity profiles matching the fleet (weak/medium/strong classes).

        Deterministic, in fleet order — the same mapping the legacy
        test-bed produces with an identity permutation.
        """
        populated = [
            template
            for template, count in zip(self.devices.templates, self.devices.counts)
            if count > 0
        ]
        top_speed = max(template.flops_per_second for template in populated)
        profiles: list[DeviceProfile] = []
        for template, count in zip(self.devices.templates, self.devices.counts):
            device_class = DeviceClass(
                name=template.device_class,
                capacity_fraction=CAPACITY_FRACTIONS[template.device_class],
                compute_speed=template.flops_per_second / top_speed,
                memory_gb=template.memory_gb,
            )
            for _ in range(count):
                profiles.append(DeviceProfile(client_id=len(profiles), device_class=device_class))
        return profiles

    def device_for(self, client_id: int) -> DeviceTemplate:
        return self.devices[client_id]

    # -- randomness -------------------------------------------------------------------
    def _round_rng(self, tag: int, round_index: int) -> np.random.Generator:
        """One (seed, tag, round) key drives a whole population vector."""
        return np.random.default_rng(
            np.random.SeedSequence((self.seed, _SIM_TAG, tag, round_index))
        )

    def _population_draws(self, tag: int, round_index: int):
        """Full-population draw vectors for one (tag, round), cached per round.

        Drawing the whole population (rather than the dispatched subset)
        keeps every client's round-``r`` draw a pure function of
        ``(seed, tag, r, client)`` — independent of which clients were
        dispatched.
        """
        if round_index != self._draw_cache_round:
            self._draw_cache = {}
            self._draw_cache_round = round_index
        cached = self._draw_cache.get(tag)
        if cached is None:
            rng = self._round_rng(tag, round_index)
            if tag == _COMPUTE:
                cached = rng.standard_normal(self.num_clients)
            elif tag in (_LINK_DOWN, _LINK_UP):
                cached = rng.exponential(size=self.num_clients)
            elif tag == _DROPOUT:
                cached = (rng.random(self.num_clients), rng.random(self.num_clients))
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown draw tag {tag}")
            self._draw_cache[tag] = cached
        return cached

    def _dispatch_draws(self, round_index: int, client_ids: Sequence[int]) -> _RoundDraws:
        """All per-dispatch randomness for one round, drawn up-front.

        The event interleaving can never change what was drawn.
        """
        ids = np.asarray(client_ids, dtype=np.int64)
        jitter = self._compute_jitter[ids]
        normals = self._population_draws(_COMPUTE, round_index)[ids]
        factor = np.where(jitter > 0, np.exp(jitter * normals), 1.0)
        link_jitter = self._link_jitter[ids]
        down_jitter = link_jitter * self._population_draws(_LINK_DOWN, round_index)[ids]
        up_jitter = link_jitter * self._population_draws(_LINK_UP, round_index)[ids]
        if self.spec.dropout_rate > 0:
            trigger, fraction = self._population_draws(_DROPOUT, round_index)
            drop_fraction = np.where(trigger[ids] < self.spec.dropout_rate, fraction[ids], np.nan)
        else:
            drop_fraction = np.full(len(ids), np.nan)
        return _RoundDraws(factor, down_jitter, up_jitter, drop_fraction)

    # -- availability -----------------------------------------------------------------
    def _availability_uniforms(self, round_index: int) -> np.ndarray:
        """One uniform per client for round ``round_index``."""
        return self._round_rng(_AVAILABILITY, round_index).random(self.num_clients)

    def _phase_offsets(self, period: int) -> np.ndarray:
        """Per-client diurnal phase: a pure function of (seed, client), drawn once."""
        if self._diurnal_offsets is None:
            self._diurnal_offsets = self._round_rng(_PHASE, 0).integers(
                0, period, size=self.num_clients
            )
        return self._diurnal_offsets

    def _trace_availability(self, round_index: int) -> np.ndarray:
        """The scenario's raw on/off trace (before battery overlay)."""
        spec = self.spec.availability
        if spec.kind == "always":
            return np.ones(self.num_clients, dtype=bool)
        if spec.kind == "diurnal":
            offsets = self._phase_offsets(spec.period_rounds)
            on_rounds = max(1, int(np.ceil(spec.on_fraction * spec.period_rounds)))
            return (round_index + offsets) % spec.period_rounds < on_rounds
        return self._markov_state(round_index)

    def _markov_state(self, round_index: int) -> np.ndarray:
        """The Markov on/off state at ``round_index``, walked from the cache.

        The cache keeps only round 0 and the most recently computed round:
        sequential access is O(1) amortised, out-of-order queries replay
        from the nearest earlier anchor — the walk is a pure function of
        the uniforms, so replays are bit-identical.
        """
        spec = self.spec.availability
        cached = self._avail_cache.get(round_index)
        if cached is not None:
            return cached
        start = max((r for r in self._avail_cache if r < round_index), default=-1)
        if start == -1:
            denominator = spec.p_drop + spec.p_join
            stationary_on = 1.0 if denominator == 0 else spec.p_join / denominator
            state = self._availability_uniforms(0) < stationary_on
            self._avail_cache[0] = state
            start = 0
        state = self._avail_cache[start]
        for r in range(start + 1, round_index + 1):
            draws = self._availability_uniforms(r)
            state = np.where(state, draws >= spec.p_drop, draws < spec.p_join)
        self._avail_cache[round_index] = state
        for r in list(self._avail_cache):
            if r not in (0, round_index):
                del self._avail_cache[r]
        return state

    def available_mask(self, round_index: int) -> np.ndarray:
        """Boolean reachability mask when round ``round_index`` starts.

        The scale-path twin of :meth:`available_clients`: same semantics
        (battery-recovering clients sit out; empty overlays are lifted),
        O(N) vector work, no Python-object materialisation.
        """
        trace = self._trace_availability(round_index)
        online = trace & ~self._recovering_mask
        if online.any():
            return online
        if trace.any():
            return trace.copy()
        return np.ones(self.num_clients, dtype=bool)

    def available_clients(self, round_index: int) -> list[int]:
        """Clients the server can reach when round ``round_index`` starts.

        Battery-recovering clients sit out.  If the trace leaves nobody
        online the server is modelled as waiting out the gap: first the
        battery overlay is lifted, then — if the raw trace itself is empty
        — every client is considered reachable again.
        """
        return np.flatnonzero(self.available_mask(round_index)).tolist()

    # -- population telemetry ---------------------------------------------------------
    def population_stats(self, round_index: int) -> dict[str, int]:
        """Fleet-level counts for operational metrics (gauges, not history).

        ``online`` counts clients reachable at ``round_index`` (after the
        battery overlay and fallback lifting), ``recovering`` counts
        clients sitting out to recharge, ``battery_dead`` counts clients
        at exactly zero charge.
        """
        dead = 0 if self._charge is None else int((self._charge <= 0.0).sum())
        return {
            "online": int(self.available_mask(round_index).sum()),
            "recovering": int(self._recovering_mask.sum()),
            "battery_dead": dead,
        }

    # -- checkpointing ----------------------------------------------------------------
    @property
    def _recovering(self) -> set[int]:
        """The battery-recovering clients as a set (small-N façade).

        Internally the fleet keeps a boolean mask; the set view exists for
        checkpoints and tests.  Mutate via the setter (assignment), not by
        ``.add``/``.discard`` on the returned copy.
        """
        return {int(client) for client in np.flatnonzero(self._recovering_mask)}

    @_recovering.setter
    def _recovering(self, value) -> None:
        mask = np.zeros(self.num_clients, dtype=bool)
        ids = np.asarray(sorted(int(client) for client in value), dtype=np.int64)
        if ids.size:
            mask[ids] = True
        self._recovering_mask = mask

    def state_dict(self) -> dict:
        """The fleet's mutable cross-round state, for the experiment store.

        Only three things evolve as rounds advance: the battery charge
        vector, the set of battery-recovering clients and the
        last-simulated-round watermark.  Everything else (availability
        traces, diurnal phases, jitter draws) is a pure function of
        ``(seed, round, client)`` and is recomputed identically after a
        restore, which is what makes resumed runs bit-identical.
        """
        return {
            "last_simulated_round": self._last_simulated_round,
            "recovering": sorted(self._recovering),
            "charge": None if self._charge is None else self._charge.copy(),
        }

    def load_state_dict(self, state: Mapping) -> None:
        """Restore :meth:`state_dict` output onto a freshly built fleet."""
        unknown = sorted(set(state) - {"last_simulated_round", "recovering", "charge"})
        if unknown:
            raise ValueError(f"fleet state does not accept key(s) {', '.join(map(repr, unknown))}")
        charge = state.get("charge")
        if (charge is None) != (self._charge is None):
            raise ValueError(
                "fleet state battery shape mismatch: the checkpoint and the scenario "
                "disagree on whether devices carry batteries"
            )
        if charge is not None:
            charge = np.asarray(charge, dtype=np.float64)
            if charge.shape != self._charge.shape:
                raise ValueError(
                    f"fleet charge vector has shape {charge.shape}, expected {self._charge.shape}"
                )
            self._charge = charge.copy()
        self._last_simulated_round = int(state["last_simulated_round"])
        self._recovering = {int(client) for client in state["recovering"]}

    # -- battery ----------------------------------------------------------------------
    def battery_charge(self, client_id: int) -> float | None:
        """Remaining charge in joules (None when the scenario has no battery)."""
        if self._charge is None:
            return None
        return float(self._charge[client_id])

    # -- round simulation -------------------------------------------------------------
    def _check_monotonic(self, round_index: int) -> None:
        if round_index <= self._last_simulated_round:
            raise ValueError(
                f"round {round_index} already simulated (last was {self._last_simulated_round}); "
                "fleets are stateful and rounds must advance monotonically"
            )
        self._last_simulated_round = round_index

    def simulate_round(self, round_index: int, dispatches: list[ClientDispatch]) -> RoundOutcome:
        """Simulate one synchronous round; mutates battery/availability state.

        Must be called once per round, in increasing round order (the
        federated loop does exactly that).
        """
        self._check_monotonic(round_index)
        if self.spec.is_static:
            return self._simulate_static(round_index, dispatches)
        batch = DispatchBatch.from_dispatches(dispatches)
        draws = self._dispatch_draws(round_index, batch.client_ids)
        return self._simulate_batch(round_index, batch, draws).to_outcome()

    def simulate_round_batch(self, round_index: int, batch: DispatchBatch) -> RoundOutcomeBatch:
        """Array-native :meth:`simulate_round` (the million-device entry point).

        Same semantics, same determinism, same monotonic-round contract;
        the outcome stays columnar so the caller never pays for
        per-client Python objects.
        """
        self._check_monotonic(round_index)
        if self.spec.is_static:
            return RoundOutcomeBatch.from_outcome(
                self._simulate_static(round_index, batch.to_dispatches())
            )
        draws = self._dispatch_draws(round_index, batch.client_ids)
        return self._simulate_batch(round_index, batch, draws)

    def _closed_form_seconds(self, dispatch: ClientDispatch) -> tuple[float, float]:
        """The legacy test-bed's (communication, training) clock, shared code."""
        device = self.devices[dispatch.client_id]
        return split_round_seconds(
            device.bandwidth_mbps,
            device.flops_per_second,
            dispatch.params_down,
            dispatch.params_up,
            dispatch.flops_per_sample,
            dispatch.num_samples,
            dispatch.local_epochs,
        )

    def _simulate_static(self, round_index: int, dispatches: list[ClientDispatch]) -> RoundOutcome:
        clients = []
        for dispatch in dispatches:
            communication, training = self._closed_form_seconds(dispatch)
            clients.append(
                ClientOutcome(
                    client_id=dispatch.client_id,
                    bytes_down=dispatch.params_down * BYTES_PER_PARAM,
                    bytes_up=dispatch.params_up * BYTES_PER_PARAM,
                    finish_seconds=communication + training,
                    dropped=False,
                    aggregated=True,
                    compute_seconds=training,
                )
            )
        finishes = [client.finish_seconds for client in clients]
        round_seconds = float(max(finishes)) if finishes else 0.0
        return RoundOutcome(
            round_index=round_index, clients=clients, deadline_seconds=None, round_seconds=round_seconds
        )

    # -- dynamic rounds ---------------------------------------------------------------
    def _simulate_batch(
        self, round_index: int, batch: DispatchBatch, draws: _RoundDraws
    ) -> RoundOutcomeBatch:
        """One dynamic round as array arithmetic (the float64 operation
        order is pinned by ``tests/sim/golden/small_fleet.json``)."""
        ids = batch.client_ids
        latency = self._link_latency[ids]
        bandwidth = self._bandwidth[ids]
        flops = self._flops[ids]

        bytes_down = batch.params_down * BYTES_PER_PARAM
        download = latency + draws.down_jitter + batch.params_down * BYTES_PER_PARAM * 8 / (
            bandwidth * 1e6
        )
        upload = latency + draws.up_jitter + batch.params_up * BYTES_PER_PARAM * 8 / (
            bandwidth * 1e6
        )
        total_flops = (
            TRAIN_FLOP_MULTIPLIER * batch.flops_per_sample * batch.num_samples * batch.local_epochs
        )
        compute = total_flops / (flops * draws.factor)
        dropped = ~np.isnan(draws.drop_fraction)

        if self.spec.network.server_concurrency is None:
            # uncontended: the event decomposition degenerates to
            # download → compute → upload back-to-back, in closed form
            compute_seconds = np.where(dropped, draws.drop_fraction * compute, compute)
            finish_seconds = np.where(dropped, np.nan, download + compute + upload)
            failure_seconds = np.where(dropped, download + compute_seconds, np.nan)
            bytes_up = np.where(dropped, 0, batch.params_up * BYTES_PER_PARAM)
        else:
            # gated: replay the exact FIFO event interleaving on the
            # dispatched subset (O(dispatched), never O(fleet))
            outcome = self._simulate_events(round_index, batch.to_dispatches(), draws)
            nan = float("nan")
            finish_seconds = np.array(
                [nan if c.finish_seconds is None else c.finish_seconds for c in outcome.clients],
                dtype=np.float64,
            )
            failure_seconds = np.array(
                [nan if c.failure_seconds is None else c.failure_seconds for c in outcome.clients],
                dtype=np.float64,
            )
            compute_seconds = np.array(
                [c.compute_seconds for c in outcome.clients], dtype=np.float64
            )
            bytes_up = np.array([c.bytes_up for c in outcome.clients], dtype=np.int64)
            dropped = np.array([c.dropped for c in outcome.clients], dtype=bool)

        battery = self.spec.battery
        if battery is not None:
            # clients whose charge cannot cover the round die mid-round
            needed = battery.compute_watts * compute_seconds + battery.transfer_joules_per_mb * (
                (bytes_down + bytes_up) / 1e6
            )
            dead = needed > self._charge[ids]
            # went silent no later than it would have finished/failed
            failure_seconds = np.where(
                dead & np.isnan(failure_seconds), finish_seconds, failure_seconds
            )
            finish_seconds = np.where(dead, np.nan, finish_seconds)
            bytes_up = np.where(dead, 0, bytes_up)
            dropped = dropped | dead

        # deadline, aggregated flags, round duration
        returned = ~np.isnan(finish_seconds)
        finishes = finish_seconds[returned]
        deadline = self.spec.deadline_seconds
        if deadline is None and self.spec.deadline_factor is not None and finishes.size:
            deadline = float(self.spec.deadline_factor * np.median(finishes))
        if deadline is None:
            aggregated = returned
        else:
            aggregated = returned & (finish_seconds <= deadline)
        any_missing = bool((~aggregated).any())
        failures = failure_seconds[~np.isnan(failure_seconds)]
        if deadline is not None and (any_missing or not finishes.size):
            round_seconds = float(deadline)  # the server waits out the deadline
        else:
            horizon = np.concatenate([finishes, failures])
            round_seconds = float(horizon.max()) if horizon.size else 0.0

        refused = self._byte_budget_refusals(
            np.asarray(bytes_down, dtype=np.float64),
            np.asarray(bytes_up, dtype=np.float64),
            finish_seconds,
        )
        if refused.any():
            aggregated = aggregated & ~refused
            bytes_up = np.where(refused, 0, bytes_up)

        if battery is not None:
            spent = battery.compute_watts * compute_seconds + battery.transfer_joules_per_mb * (
                (bytes_down + bytes_up) / 1e6
            )
            current = self._charge[ids]
            self._charge[ids] = np.maximum(0.0, current - np.minimum(spent, current))
            idle = np.ones(self.num_clients, dtype=bool)
            idle[ids] = False
            self._charge[idle] = np.minimum(
                battery.capacity_joules,
                self._charge[idle] + battery.recharge_watts * round_seconds,
            )
            low = battery.min_charge_fraction * battery.capacity_joules
            resume = battery.resume_charge_fraction * battery.capacity_joules
            below = self._charge < low
            self._recovering_mask = below | (self._recovering_mask & ~(self._charge >= resume))

        return RoundOutcomeBatch(
            round_index=round_index,
            client_ids=ids,
            bytes_down=bytes_down,
            bytes_up=np.asarray(bytes_up, dtype=np.int64),
            finish_seconds=finish_seconds,
            dropped=dropped,
            aggregated=aggregated,
            compute_seconds=compute_seconds,
            failure_seconds=failure_seconds,
            deadline_seconds=deadline,
            round_seconds=round_seconds,
        )

    # -- gated rounds: the FIFO event replay ------------------------------------------
    def _simulate_events(
        self, round_index: int, dispatches: list[ClientDispatch], draws: _RoundDraws
    ) -> RoundOutcome:
        queue = EventQueue()
        gate = TransferGate(self.spec.network.server_concurrency)

        plans = []
        for i, dispatch in enumerate(dispatches):
            device = self.devices[dispatch.client_id]
            # all randomness was drawn up-front, keyed on (round, client):
            # the event interleaving can never change what was drawn
            factor = float(draws.factor[i])
            down_jitter = float(draws.down_jitter[i])
            up_jitter = float(draws.up_jitter[i])
            raw_fraction = float(draws.drop_fraction[i])
            drop_fraction = None if math.isnan(raw_fraction) else raw_fraction
            total_flops = (
                TRAIN_FLOP_MULTIPLIER
                * dispatch.flops_per_sample
                * dispatch.num_samples
                * dispatch.local_epochs
            )
            plans.append(
                {
                    "download": device.link_latency_s
                    + down_jitter
                    + dispatch.params_down * BYTES_PER_PARAM * 8 / (device.bandwidth_mbps * 1e6),
                    "compute": total_flops / (device.flops_per_second * factor),
                    "upload": device.link_latency_s
                    + up_jitter
                    + dispatch.params_up * BYTES_PER_PARAM * 8 / (device.bandwidth_mbps * 1e6),
                    "drop_fraction": drop_fraction,
                }
            )

        outcomes = [
            ClientOutcome(
                client_id=dispatch.client_id,
                bytes_down=dispatch.params_down * BYTES_PER_PARAM,
                bytes_up=0,
                finish_seconds=None,
                dropped=False,
                aggregated=False,
            )
            for dispatch in dispatches
        ]

        def start_download(i: int):
            def start() -> None:
                queue.schedule(plans[i]["download"], make_finish_download(i))

            return start

        def make_finish_download(i: int):
            def finish() -> None:
                gate.release()
                plan, outcome = plans[i], outcomes[i]
                if plan["drop_fraction"] is not None:
                    spent = plan["drop_fraction"] * plan["compute"]
                    outcome.dropped = True
                    outcome.compute_seconds = spent
                    outcome.failure_seconds = queue.now + spent
                    return  # the client dies mid-compute; nothing more happens
                outcome.compute_seconds = plan["compute"]
                queue.schedule(plan["compute"], make_request_upload(i))

            return finish

        def make_request_upload(i: int):
            def request() -> None:
                gate.acquire(make_start_upload(i))

            return request

        def make_start_upload(i: int):
            def start() -> None:
                queue.schedule(plans[i]["upload"], make_finish_upload(i))

            return start

        def make_finish_upload(i: int):
            def finish() -> None:
                gate.release()
                outcome = outcomes[i]
                outcome.finish_seconds = queue.now
                outcome.bytes_up = dispatches[i].params_up * BYTES_PER_PARAM

            return finish

        for i in range(len(dispatches)):  # FIFO by dispatch order at t=0
            gate.acquire(start_download(i))
        queue.run()

        return RoundOutcome(round_index=round_index, clients=outcomes, deadline_seconds=None, round_seconds=0.0)

    def _byte_budget_refusals(
        self,
        bytes_down: np.ndarray,
        bytes_up: np.ndarray,
        finish_seconds: np.ndarray,
    ) -> np.ndarray:
        """Boolean mask of uploads refused by ``spec.round_byte_budget``.

        Admission control over a metered backhaul: every dispatched
        downlink spends the budget first (the server already sent those
        bytes), then returned uploads are admitted greedily in simulated
        arrival order — dispatch position breaking ties — while budget
        remains.  A refused upload costs nothing and does not aggregate.
        The greedy rule means a small late-arriving upload may still be
        admitted after a large one was refused; this is deterministic.
        """
        refused = np.zeros(finish_seconds.shape, dtype=bool)
        budget = self.spec.round_byte_budget
        if budget is None:
            return refused
        remaining = float(budget) - float(np.sum(bytes_down))
        returned = ~np.isnan(finish_seconds)
        # stable argsort: NaN (never-returned) sorts last, equal arrival
        # times keep dispatch order
        for index in np.argsort(finish_seconds, kind="stable"):
            if not returned[index]:
                continue
            cost = float(bytes_up[index])
            if cost <= remaining:
                remaining -= cost
            else:
                refused[index] = True
        return refused


def _expand_device_counts(templates: tuple[DeviceTemplate, ...], num_clients: int) -> list[int]:
    """Per-template client counts summing exactly to ``num_clients``.

    Fixed counts are kept verbatim when they match the requested fleet
    size; otherwise deterministic largest-remainder rounding distributes
    the population proportionally.  Ties break on (descending remainder,
    ascending template index), so the split is reproducible, and the
    result always sums exactly to ``num_clients`` — including at large N
    where naive float rounding drifts.
    """
    if templates[0].count is not None:
        counts = [int(template.count) for template in templates]
        total = sum(counts)
        if total == num_clients:
            return counts
        weights = [count / total for count in counts]
    else:
        total_fraction = sum(template.fraction for template in templates)
        weights = [template.fraction / total_fraction for template in templates]

    exact = [weight * num_clients for weight in weights]
    counts = [min(int(math.floor(value)), num_clients) for value in exact]
    remainder = num_clients - sum(counts)
    order = sorted(range(len(templates)), key=lambda i: (-(exact[i] - counts[i]), i))
    if remainder < 0:  # pathological float rounding: trim smallest remainders first
        for i in reversed(order):
            if remainder == 0:
                break
            if counts[i] > 0:
                counts[i] -= 1
                remainder += 1
    position = 0
    while remainder > 0:  # one extra client per largest remainder, round-robin if needed
        counts[order[position % len(order)]] += 1
        remainder -= 1
        position += 1
    return counts


def _expand_devices(templates: tuple[DeviceTemplate, ...], num_clients: int) -> list[DeviceTemplate]:
    """One template per client (small-N compatibility wrapper).

    The counts come from :func:`_expand_device_counts`; large fleets
    should use the counts directly instead of materialising N references.
    """
    return list(_DeviceFleet(templates, _expand_device_counts(templates, num_clients)))
