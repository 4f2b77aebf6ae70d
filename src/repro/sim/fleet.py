""":class:`FleetSimulator` — the per-run discrete-event fleet engine.

One fleet instance backs one algorithm run.  The round loop hands it one
:class:`DispatchBatch` of column arrays per round and reads one columnar
:class:`RoundOutcome` back; no Python object exists per client at any
fleet size.  The fleet owns

* the **device fleet**: the scenario's templates expanded to the
  experiment's client count (fixed counts verbatim when they match,
  largest-remainder proportions otherwise), held as one float64 column
  per device knob,
* the **availability trace**: which clients are reachable at each round
  (always / Markov churn / diurnal duty cycle, overlaid with battery
  state), as the boolean :meth:`FleetSimulator.available_mask`,
* the **round simulation** (:meth:`FleetSimulator.simulate_round`):
  download → local compute → upload per participant, closed-form
  vectorised when the server is uncontended or on the
  :class:`~repro.sim.events.EventQueue` when a FIFO
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
``ScenarioSpec.is_static``) skip the event decomposition: their clock is
one call of :func:`repro.devices.testbed.split_round_seconds` on the
columns, the same function
:meth:`repro.devices.testbed.TestbedSimulator.client_round_time` computes
through, which is what makes the ``paper_testbed`` scenario reproduce the
test-bed wall-clock numbers bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Mapping

import numpy as np

from repro.devices.profiles import DeviceClass, DeviceProfile
from repro.devices.testbed import (
    BYTES_PER_PARAM,
    DEFAULT_CAPACITY_FRACTIONS,
    TRAIN_FLOP_MULTIPLIER,
    split_round_seconds,
)
from repro.sim.events import EventQueue, TransferGate
from repro.sim.scenario import DeviceTemplate, ScenarioSpec

__all__ = ["DispatchBatch", "RoundOutcome", "FleetSimulator"]

#: sim-stream namespace tag; keeps (seed, tag, ...) keys disjoint from the
#: (seed, round, client) training streams and (seed, client, round)
#: resource-model draws, which use shorter entropy tuples
_SIM_TAG = 0x51E47
_COMPUTE, _LINK_DOWN, _LINK_UP, _DROPOUT, _AVAILABILITY, _PHASE = range(6)


@dataclass
class DispatchBatch:
    """What the server asks each selected client to do this round, as columns.

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


@dataclass
class RoundOutcome:
    """The simulated fate of one synchronous round, one column per fact
    (dispatch order; NaN codes "never happened")."""

    round_index: int
    client_ids: np.ndarray
    bytes_down: np.ndarray
    bytes_up: np.ndarray
    #: upload-complete time (seconds from round start); NaN = never returned
    finish_seconds: np.ndarray
    #: True when the client failed mid-round (dropout or battery death)
    dropped: np.ndarray
    #: True when the update arrived in time to join aggregation
    aggregated: np.ndarray
    #: seconds of local compute actually spent (battery accounting)
    compute_seconds: np.ndarray
    #: when a dropped client went silent (the server's timeout horizon); NaN = did not fail
    failure_seconds: np.ndarray
    deadline_seconds: float | None
    round_seconds: float

    def __len__(self) -> int:
        return int(self.client_ids.shape[0])

    def aggregated_positions(self) -> list[int]:
        """Indices (into the dispatch order) whose updates join aggregation."""
        return np.flatnonzero(self.aggregated).tolist()

    def dropped_client_ids(self) -> list[int]:
        """Clients whose update missed aggregation (dropout or deadline)."""
        return self.client_ids[~self.aggregated].tolist()

    def arrival_seconds(self) -> list[float | None]:
        """Per-dispatched-client upload-complete times (None = never returned)."""
        return [None if math.isnan(finish) else finish for finish in self.finish_seconds.tolist()]

    @property
    def bytes_down_total(self) -> int:
        return int(self.bytes_down.sum())

    @property
    def bytes_up_total(self) -> int:
        return int(self.bytes_up.sum())


class FleetSimulator:
    """Stateful scenario engine for one algorithm run (one fleet per run)."""

    def __init__(self, spec: ScenarioSpec, num_clients: int, seed: int = 0):
        if num_clients <= 0:
            raise ValueError("num_clients must be positive")
        self.spec = spec
        self.seed = int(seed)
        #: clients per template of ``spec.devices``, in fleet order
        self.device_counts = _expand_device_counts(spec.devices, num_clients)
        self.num_clients = sum(self.device_counts)

        # struct-of-arrays device parameters: one float64 column per knob,
        # repeated from the template runs — no per-device Python objects
        reps = np.asarray(self.device_counts, dtype=np.int64)

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

        Deterministic, in fleet order — the same mapping
        :class:`~repro.devices.testbed.TestbedSimulator` produces with an
        identity permutation.
        """
        runs = list(zip(self.spec.devices, self.device_counts))
        top_speed = max(template.flops_per_second for template, count in runs if count > 0)
        profiles: list[DeviceProfile] = []
        for template, count in runs:
            device_class = DeviceClass(
                name=template.device_class,
                capacity_fraction=DEFAULT_CAPACITY_FRACTIONS[template.device_class],
                compute_speed=template.flops_per_second / top_speed,
                memory_gb=template.memory_gb,
            )
            for _ in range(count):
                profiles.append(DeviceProfile(client_id=len(profiles), device_class=device_class))
        return profiles

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

    def _dispatch_draws(self, round_index: int, ids: np.ndarray) -> tuple[np.ndarray, ...]:
        """``(factor, down_jitter, up_jitter, drop_fraction)`` for one round's dispatches.

        All per-dispatch randomness is drawn up-front: the closed form and
        the gated event replay read these exact arrays — never re-drawing,
        never re-applying ``exp`` — so the event interleaving can never
        change what was drawn.  ``drop_fraction`` is NaN-coded: NaN means
        the client does not fail mid-round.
        """
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
        return factor, down_jitter, up_jitter, drop_fraction

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
        """Boolean mask of the clients reachable when round ``round_index`` starts.

        Battery-recovering clients sit out.  If the trace leaves nobody
        online the server is modelled as waiting out the gap: first the
        battery overlay is lifted, then — if the raw trace itself is empty
        — every client is considered reachable again.
        """
        trace = self._trace_availability(round_index)
        online = trace & ~self._recovering_mask
        if online.any():
            return online
        if trace.any():
            return trace.copy()
        return np.ones(self.num_clients, dtype=bool)

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
            "recovering": np.flatnonzero(self._recovering_mask).tolist(),
            "charge": None if self._charge is None else self._charge.copy(),
        }

    def load_state_dict(self, state: Mapping) -> None:
        """Restore :meth:`state_dict` output onto a freshly built fleet."""
        unknown = sorted(set(state) - {"last_simulated_round", "recovering", "charge"})
        if unknown:
            raise ValueError(f"fleet state does not accept key(s) {', '.join(map(repr, unknown))}")
        missing = sorted({"last_simulated_round", "recovering"} - set(state))
        if missing:
            raise ValueError(f"fleet state lacks key(s) {', '.join(map(repr, missing))}")
        recovering = np.asarray(state["recovering"], dtype=np.int64)
        outside = recovering[(recovering < 0) | (recovering >= self.num_clients)]
        if outside.size:
            raise ValueError(
                f"fleet state names recovering client(s) {outside.tolist()} "
                f"outside [0, {self.num_clients})"
            )
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
        self._recovering_mask = np.zeros(self.num_clients, dtype=bool)
        self._recovering_mask[recovering] = True

    # -- battery ----------------------------------------------------------------------
    def battery_charge(self, client_id: int) -> float | None:
        """Remaining charge in joules (None when the scenario has no battery)."""
        if self._charge is None:
            return None
        return float(self._charge[client_id])

    # -- round simulation -------------------------------------------------------------
    def simulate_round(self, round_index: int, batch: DispatchBatch) -> RoundOutcome:
        """Simulate one synchronous round; mutates battery/availability state.

        Must be called once per round, in increasing round order (the
        federated loop does exactly that).  Everything is array
        arithmetic over the dispatched clients; the float64 operation
        order is pinned by ``tests/sim/golden/small_fleet.json``.
        """
        if round_index <= self._last_simulated_round:
            raise ValueError(
                f"round {round_index} already simulated (last was {self._last_simulated_round}); "
                "fleets are stateful and rounds must advance monotonically"
            )
        self._last_simulated_round = round_index

        ids = batch.client_ids
        bandwidth = self._bandwidth[ids]
        flops = self._flops[ids]
        bytes_down = batch.params_down * BYTES_PER_PARAM
        bytes_up = batch.params_up * BYTES_PER_PARAM

        if self.spec.is_static:
            # no dynamics at all: the test-bed's closed-form clock, on columns
            communication, compute_seconds = split_round_seconds(
                bandwidth,
                flops,
                batch.params_down,
                batch.params_up,
                batch.flops_per_sample,
                batch.num_samples,
                batch.local_epochs,
            )
            dropped = np.zeros(len(batch), dtype=bool)
            finish_seconds = communication + compute_seconds
            failure_seconds = np.full(len(batch), np.nan)
        else:
            factor, down_jitter, up_jitter, drop_fraction = self._dispatch_draws(round_index, ids)
            latency = self._link_latency[ids]
            download = latency + down_jitter + bytes_down * 8 / (bandwidth * 1e6)
            upload = latency + up_jitter + bytes_up * 8 / (bandwidth * 1e6)
            total_flops = (
                TRAIN_FLOP_MULTIPLIER * batch.flops_per_sample * batch.num_samples * batch.local_epochs
            )
            compute = total_flops / (flops * factor)
            dropped = ~np.isnan(drop_fraction)
            if self.spec.network.server_concurrency is None:
                # uncontended: the event decomposition degenerates to
                # download → compute → upload back-to-back, in closed form
                compute_seconds = np.where(dropped, drop_fraction * compute, compute)
                finish_seconds = np.where(dropped, np.nan, download + compute + upload)
                failure_seconds = np.where(dropped, download + compute_seconds, np.nan)
            else:
                # gated: replay the exact FIFO event interleaving on the
                # dispatched subset (O(dispatched), never O(fleet))
                compute_seconds, finish_seconds, failure_seconds = self._simulate_events(
                    download, compute, upload, drop_fraction
                )
            bytes_up = np.where(dropped, 0, bytes_up)

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

        return RoundOutcome(
            round_index=round_index,
            client_ids=ids,
            bytes_down=bytes_down,
            bytes_up=bytes_up,
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
        self,
        download: np.ndarray,
        compute: np.ndarray,
        upload: np.ndarray,
        drop_fraction: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Replay one gated round; returns ``(compute, finish, failure)`` second columns.

        The durations and the NaN-coded ``drop_fraction`` were all fixed
        before the replay starts, keyed on (round, client): the event
        interleaving decides only *when* each transfer gets a slot.
        """
        queue = EventQueue()
        gate = TransferGate(self.spec.network.server_concurrency)
        download, compute, upload, drop_fraction = (
            column.tolist() for column in (download, compute, upload, drop_fraction)
        )
        compute_seconds = list(compute)
        finish_seconds = [math.nan] * len(compute)
        failure_seconds = [math.nan] * len(compute)

        def start_download(i: int) -> None:
            queue.schedule(download[i], partial(finish_download, i))

        def finish_download(i: int) -> None:
            gate.release()
            if not math.isnan(drop_fraction[i]):
                # the client dies mid-compute; nothing more happens
                compute_seconds[i] = drop_fraction[i] * compute[i]
                failure_seconds[i] = queue.now + compute_seconds[i]
                return
            queue.schedule(compute[i], partial(request_upload, i))

        def request_upload(i: int) -> None:
            gate.acquire(partial(start_upload, i))

        def start_upload(i: int) -> None:
            queue.schedule(upload[i], partial(finish_upload, i))

        def finish_upload(i: int) -> None:
            gate.release()
            finish_seconds[i] = queue.now

        for i in range(len(compute)):  # FIFO by dispatch order at t=0
            gate.acquire(partial(start_download, i))
        queue.run()

        return np.array(compute_seconds), np.array(finish_seconds), np.array(failure_seconds)

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

