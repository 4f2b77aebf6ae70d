"""Round-by-round training history shared by AdaptiveFL and the baselines.

Both :class:`RoundRecord` and :class:`TrainingHistory` serialise with
``to_dict()`` and reconstruct with ``from_dict()`` (strict: unknown keys
raise), so histories round-trip losslessly through JSON — the experiment
runner, the CLI and the benchmark artifacts all rely on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.serialization import Serializable

__all__ = ["RoundRecord", "TrainingHistory"]


@dataclass
class RoundRecord(Serializable):
    """Everything recorded about one federated round (its JSON key for the index is ``round``)."""

    round_index: int = field(metadata={"key": "round"})
    #: accuracy of the full global model (the paper's "full")
    full_accuracy: float | None = None
    #: mean of the level-head accuracies (the paper's "avg")
    avg_accuracy: float | None = None
    #: per-level-head accuracy {"S": ..., "M": ..., "L": ...}
    level_accuracies: dict[str, float] = field(default_factory=dict)
    train_loss: float | None = None
    communication_waste: float | None = None
    wall_clock_seconds: float | None = None
    dispatched: list[str] = field(default_factory=list)
    returned: list[str] = field(default_factory=list)
    selected_clients: list[int] = field(default_factory=list)
    # -- fleet-simulation fields (populated when a scenario is active) ----------------
    #: per-selected-client upload-complete seconds; None = never returned
    arrival_seconds: list[float | None] = field(default_factory=list)
    #: selected clients whose update missed aggregation (dropout, deadline, or an
    #: upload refused as non-finite)
    dropped_clients: list[int] = field(default_factory=list)
    #: the synchronous-round deadline applied (None = no deadline)
    deadline_seconds: float | None = None
    #: total bytes the server sent to / received from the fleet this round
    bytes_down: int | None = None
    bytes_up: int | None = None

    @property
    def aggregated_clients(self) -> list[int]:
        """The selected clients whose updates actually joined aggregation."""
        dropped = set(self.dropped_clients)
        return [client for client in self.selected_clients if client not in dropped]


class TrainingHistory:
    """Append-only collection of :class:`RoundRecord` with convenience views."""

    def __init__(self, algorithm: str):
        self.algorithm = algorithm
        self.records: list[RoundRecord] = []

    def append(self, record: RoundRecord) -> None:
        if self.records and record.round_index <= self.records[-1].round_index:
            raise ValueError("round indices must be strictly increasing")
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    # -- series views -----------------------------------------------------------------
    def evaluated_records(self) -> list[RoundRecord]:
        """Records that carry an evaluation (full accuracy is present)."""
        return [record for record in self.records if record.full_accuracy is not None]

    def accuracy_curve(self, kind: str = "full") -> tuple[list[int], list[float]]:
        """(rounds, accuracies) series; ``kind`` is ``"full"`` or ``"avg"``."""
        if kind not in {"full", "avg"}:
            raise ValueError("kind must be 'full' or 'avg'")
        rounds, values = [], []
        for record in self.evaluated_records():
            value = record.full_accuracy if kind == "full" else record.avg_accuracy
            if value is None:
                continue
            rounds.append(record.round_index)
            values.append(value)
        return rounds, values

    def time_curve(self, kind: str = "full") -> tuple[list[float], list[float]]:
        """(cumulative seconds, accuracies); requires wall-clock records."""
        rounds, values = [], []
        elapsed = 0.0
        for record in self.records:
            elapsed += record.wall_clock_seconds or 0.0
            value = record.full_accuracy if kind == "full" else record.avg_accuracy
            if value is None:
                continue
            rounds.append(elapsed)
            values.append(value)
        return rounds, values

    def elapsed_seconds(self) -> float:
        """Total simulated wall-clock over all rounds (0.0 without a clock)."""
        return float(sum(record.wall_clock_seconds or 0.0 for record in self.records))

    def final_accuracy(self, kind: str = "full") -> float:
        """Best evaluated accuracy over training (the paper reports best test accuracy)."""
        _, values = self.accuracy_curve(kind)
        if not values:
            raise ValueError("history has no evaluated rounds")
        return max(values)

    def mean_communication_waste(self) -> float:
        """Average communication-waste rate across rounds that recorded it."""
        rates = [record.communication_waste for record in self.records if record.communication_waste is not None]
        if not rates:
            raise ValueError("history has no communication-waste records")
        return float(sum(rates) / len(rates))

    def total_dropped(self) -> int:
        """Dispatched-but-not-aggregated client slots over the whole run."""
        return sum(len(record.dropped_clients) for record in self.records)

    def summary(self) -> dict:
        """Headline metrics of the run as a JSON-friendly dict.

        Used by the experiment store's report generator and by
        ``ExperimentSession.save_results``: best full/avg accuracies (None
        when nothing was evaluated), the mean communication-waste rate
        (None when never recorded), round count, simulated elapsed seconds
        and the total dropped-client slots.
        """
        try:
            full = self.final_accuracy("full")
        except ValueError:
            full = None
        try:
            avg = self.final_accuracy("avg")
        except ValueError:
            avg = None
        try:
            waste = self.mean_communication_waste()
        except ValueError:
            waste = None
        return {
            "rounds": len(self.records),
            "full_accuracy": full,
            "avg_accuracy": avg,
            "communication_waste": waste,
            "elapsed_seconds": self.elapsed_seconds(),
            "total_dropped": self.total_dropped(),
        }

    def to_dict(self) -> dict:
        """JSON-friendly representation (used by the experiment runner and CLI)."""
        return {
            "algorithm": self.algorithm,
            "rounds": [record.to_dict() for record in self.records],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TrainingHistory":
        """Strict reconstruction of :meth:`to_dict` output (unknown keys raise)."""
        if not isinstance(payload, Mapping):
            raise ValueError(f"TrainingHistory payload must be a mapping, got {type(payload).__name__}")
        unknown = sorted(set(payload) - {"algorithm", "rounds"})
        if unknown:
            raise ValueError(f"TrainingHistory does not accept key(s) {', '.join(map(repr, unknown))}")
        if "algorithm" not in payload or "rounds" not in payload:
            raise ValueError("TrainingHistory payload needs 'algorithm' and 'rounds'")
        if not isinstance(payload["rounds"], (list, tuple)):
            raise ValueError("rounds must be a list of round records")
        history = cls(str(payload["algorithm"]))
        for round_payload in payload["rounds"]:
            history.append(RoundRecord.from_dict(round_payload))
        return history
