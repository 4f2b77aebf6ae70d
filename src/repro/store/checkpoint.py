"""The checkpoint payload: everything a resumed run needs, bit-exactly.

A :class:`Checkpoint` captures the full mutable state of a
:class:`~repro.core.fl_base.FederatedAlgorithm` at the end of one round:

* the global model weights,
* the round-by-round :class:`~repro.core.history.TrainingHistory`
  (as its strict ``to_dict`` payload),
* the algorithm's base RNG state (the stream-keyed RNGs of
  :mod:`repro.engine.rng` are pure functions of ``(seed, round, client)``
  and need no state),
* every further stateful piece of the run as a named :class:`StatePart`
  (:meth:`~repro.core.fl_base.FederatedAlgorithm.state_parts`): its arrays
  under ``extra_arrays["{part}/{key}"]``, the rest under ``extra_state["{part}"]``.

Everything numeric lives in numpy arrays, everything else is strict JSON;
:func:`repro.store.objects.write_checkpoint` stores both losslessly in one
self-checking file.  ``schema_version`` gates compatibility: a checkpoint
written in another layout refuses to resume (:class:`CheckpointSchemaError`)
instead of mis-restoring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Protocol

import numpy as np

__all__ = ["Checkpoint", "CheckpointSchemaError", "CHECKPOINT_SCHEMA_VERSION", "StatePart", "load_parts", "save_parts"]

#: current on-disk checkpoint layout; bump on incompatible changes
CHECKPOINT_SCHEMA_VERSION = 2


class StatePart(Protocol):
    """A stateful piece of a run that saves and restores itself.

    ``state_dict`` returns numpy arrays and strict-JSON values (a ``None`` is not saved and comes back
    as a missing key); ``load_state_dict`` checks its input before it assigns and raises ``ValueError``.
    """

    def state_dict(self) -> Mapping:
        """The part's state now, as copies the part will not change."""

    def load_state_dict(self, state: Mapping) -> None:
        """Replace the part's state with ``state`` (checked first)."""


def save_parts(parts: Mapping[str, StatePart]) -> tuple[dict[str, np.ndarray], dict]:
    """The ``(extra_arrays, extra_state)`` of a checkpoint holding ``parts``, in their order."""
    arrays: dict[str, np.ndarray] = {}
    state: dict = {}
    for name, part in parts.items():
        meta = {}
        for key, value in part.state_dict().items():
            if isinstance(value, np.ndarray):
                arrays[f"{name}/{key}"] = value
            elif value is not None:
                meta[key] = value
        if meta:
            state[name] = meta
    return arrays, state


def load_parts(parts: Mapping[str, StatePart], arrays: Mapping[str, np.ndarray], state: Mapping) -> None:
    """Load every part of ``parts`` from :func:`save_parts` output, or none of them.

    ``arrays`` and ``state`` must hold exactly these parts: a part missing or
    unexpected is refused with ``ValueError`` before any part changes.  When a
    part refuses its own state, every part gets its earlier state back.
    """
    states: dict[str, dict] = {name: dict(state.get(name, {})) for name in parts}
    held = set(state)
    for key, value in arrays.items():
        name = next((part for part in parts if key.startswith(f"{part}/")), key.split("/")[0])
        held.add(name)
        if name in states:
            states[name][key[len(name) + 1 :]] = value
    missing, unexpected = sorted(set(parts) - held), sorted(held - set(parts))
    if missing or unexpected:
        raise ValueError(
            f"checkpoint state parts do not match this run: missing {missing}, unexpected {unexpected} "
            "(was it written with another scenario or transport codec?)"
        )
    before = {name: part.state_dict() for name, part in parts.items()}
    try:
        for name, part in parts.items():
            part.load_state_dict(states[name])
    except BaseException:
        for name, part in parts.items():
            part.load_state_dict(before[name])
        raise


class CheckpointSchemaError(RuntimeError):
    """The checkpoint's schema version is not one this code can restore.

    Refusing is deliberate: silently reinterpreting a future layout could
    resume a run from half-garbage state and corrupt its results.
    """


@dataclass
class Checkpoint:
    """Complete restorable state of one run at the end of one round."""

    #: registered name of the algorithm that produced the checkpoint
    algorithm: str
    #: last completed round (the history's final record)
    round_index: int
    #: global model weights, keyed exactly like ``state_dict()``
    global_state: dict[str, np.ndarray]
    #: ``TrainingHistory.to_dict()`` at checkpoint time
    history: dict
    #: ``numpy.random.Generator.bit_generator.state`` of the base RNG
    rng_state: dict
    #: the state parts' arrays, by ``{part}/{key}`` (RL tables, battery charge, ...)
    extra_arrays: dict[str, np.ndarray] = field(default_factory=dict)
    #: the state parts' JSON state, by part name (fleet watermarks, ...)
    extra_state: dict = field(default_factory=dict)
    #: why the run stopped early, if a callback requested a stop by the
    #: time this checkpoint was captured (None = still running / ran out)
    stop_reason: str | None = None
    #: layout version of the serialised form
    schema_version: int = CHECKPOINT_SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.round_index < 0:
            raise ValueError("round_index must be non-negative")
        if int(self.schema_version) != CHECKPOINT_SCHEMA_VERSION:
            raise CheckpointSchemaError(
                f"checkpoint schema version {self.schema_version} is not supported by this "
                f"build (expected {CHECKPOINT_SCHEMA_VERSION}); upgrade the code or discard "
                "the checkpoint"
            )

    def validate_for(self, algorithm_name: str, reference_state: Mapping[str, np.ndarray]) -> None:
        """Check the checkpoint matches the algorithm it is being restored onto.

        ``reference_state`` is the freshly built algorithm's global state;
        key sets and array shapes must agree exactly, so a checkpoint can
        never be restored onto a different architecture or pool layout.
        """
        if self.algorithm != algorithm_name:
            raise ValueError(
                f"checkpoint belongs to algorithm {self.algorithm!r}, cannot restore onto "
                f"{algorithm_name!r}"
            )
        if set(self.global_state) != set(reference_state):
            missing = sorted(set(reference_state) - set(self.global_state))
            extra = sorted(set(self.global_state) - set(reference_state))
            raise ValueError(
                "checkpoint global state does not match the model: "
                f"missing {missing[:3]}, unexpected {extra[:3]}"
            )
        for key, value in self.global_state.items():
            expected = reference_state[key]
            if value.shape != expected.shape:
                raise ValueError(
                    f"checkpoint array {key!r} has shape {value.shape}, the model expects "
                    f"{expected.shape}; the checkpoint was written at a different scale"
                )
