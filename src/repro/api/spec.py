"""``ExperimentSpec``: a JSON-serialisable description of a full experiment.

A spec bundles the :class:`~repro.experiments.settings.ExperimentSetting`
with the run options (which algorithms, how many rounds, which selection
strategy) so an experiment can be saved to disk, reviewed, versioned and
re-run bit-identically — ``repro compare --spec spec.json`` on the CLI,
or :meth:`repro.api.session.ExperimentSession.from_spec` in code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.api.registry import get_algorithm
from repro.core.serialization import Serializable
from repro.experiments.settings import ExperimentSetting

__all__ = ["ExperimentSpec"]


@dataclass(frozen=True)
class ExperimentSpec(Serializable):
    """Setting + run options; round-trips through ``to_dict``/``from_dict``."""

    setting: ExperimentSetting = field(default_factory=ExperimentSetting)
    #: algorithm names to run; empty means "every registered algorithm"
    algorithms: tuple[str, ...] = ()
    #: AdaptiveFL selection strategy (None = the paper's default, rl-cs)
    selection_strategy: str | None = None
    #: override of the scale's round count (None = use the scale preset)
    num_rounds: int | None = None
    #: where the CLI writes histories/summary (None = its --output-dir flag)
    output_dir: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        if not all(isinstance(name, str) and name for name in self.algorithms):
            raise ValueError("algorithms must be non-empty strings")
        if self.num_rounds is not None and self.num_rounds <= 0:
            raise ValueError("num_rounds must be positive when set")

    def strategy_for(self, algorithm: str) -> str | None:
        """The spec's selection strategy, but only for algorithms that accept one."""
        if self.selection_strategy is None or not get_algorithm(algorithm).uses_selection_strategy:
            return None
        return self.selection_strategy

    def save(self, path: str | Path) -> Path:
        """Write the spec as pretty-printed JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentSpec":
        """Read a spec back from JSON (strict: unknown keys raise)."""
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
