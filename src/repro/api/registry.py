"""The algorithm registry: every federated algorithm self-describes itself.

Algorithms register with the :func:`register_algorithm` decorator and
declare, through :class:`AlgorithmSpec`, which configs their constructor
accepts — e.g. HeteroFL ships its own fixed pool and therefore declares
``uses_pool_config=False`` (what used to be an ``if name != "heterofl"``
branch in the runner), and only AdaptiveFL accepts an
``algorithm_config``/selection strategy.  The experiment runner and the
CLI are pure registry lookups: adding an algorithm is one decorator, no
runner edits.

This module imports nothing from the rest of the package at module level
but the config vocabulary, so that algorithm modules (``repro.core.server``,
``repro.baselines.*``) can import the decorator without cycles; the
built-in algorithms are pulled in lazily by :func:`ensure_builtin_algorithms`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.core.config import SELECTION_STRATEGIES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.fl_base import FederatedAlgorithm
    from repro.experiments.settings import PreparedExperiment

__all__ = [
    "AlgorithmSpec",
    "register_algorithm",
    "unregister_algorithm",
    "get_algorithm",
    "available_algorithms",
    "validate_algorithm_names",
    "ensure_builtin_algorithms",
]

#: default selection strategy of AdaptiveFL (the paper's RL-CS)
DEFAULT_SELECTION_STRATEGY = SELECTION_STRATEGIES[0]


@dataclass(frozen=True)
class AlgorithmSpec:
    """A registered algorithm plus the configs its constructor accepts."""

    name: str
    factory: Callable[..., "FederatedAlgorithm"]
    description: str = ""
    #: accepts ``pool_config=`` (HeteroFL ships its own fixed pool: False)
    uses_pool_config: bool = True
    #: accepts ``algorithm_config=`` (AdaptiveFL only)
    uses_algorithm_config: bool = False
    #: honours a client-selection strategy (AdaptiveFL only)
    uses_selection_strategy: bool = False
    #: display/iteration order in :func:`available_algorithms`
    order: int = 100
    #: extra constructor keyword arguments bound at registration time
    extra_kwargs: dict[str, Any] = field(default_factory=dict)

    def build(
        self,
        prepared: "PreparedExperiment",
        *,
        selection_strategy: str | None = None,
        scenario: "str | None" = None,
    ) -> "FederatedAlgorithm":
        """Instantiate the algorithm on a prepared experiment.

        Only the configs the spec declares are passed to the factory, so
        registration — not the caller — decides the construction shape.
        ``scenario`` overrides the prepared federated config's scenario for
        this one run (the common path is the config itself).
        """
        if selection_strategy is not None and not self.uses_selection_strategy:
            raise ValueError(
                f"algorithm {self.name!r} does not accept a selection strategy "
                f"(got {selection_strategy!r})"
            )
        kwargs = prepared.algorithm_kwargs()
        if scenario is not None:
            kwargs["scenario"] = scenario
        if self.uses_pool_config:
            kwargs["pool_config"] = prepared.pool_config
        if self.uses_algorithm_config:
            kwargs["algorithm_config"] = prepared.adaptivefl_config(
                selection_strategy or DEFAULT_SELECTION_STRATEGY
            )
        kwargs.update(self.extra_kwargs)  # registration-time bindings win
        return self.factory(**kwargs)

    def run_label(self, selection_strategy: str | None = None) -> str:
        """Result label: the name, plus the non-default strategy if any."""
        if (
            self.uses_selection_strategy
            and selection_strategy is not None
            and selection_strategy != DEFAULT_SELECTION_STRATEGY
        ):
            return f"{self.name}+{selection_strategy}"
        return self.name

    def with_kwargs(self, **extra_kwargs: Any) -> "AlgorithmSpec":
        """Copy of the spec with additional bound constructor kwargs."""
        merged = {**self.extra_kwargs, **extra_kwargs}
        return replace(self, extra_kwargs=merged)


_REGISTRY: dict[str, AlgorithmSpec] = {}


def register_algorithm(
    name: str,
    *,
    description: str = "",
    uses_pool_config: bool = True,
    uses_algorithm_config: bool = False,
    uses_selection_strategy: bool = False,
    order: int = 100,
    **extra_kwargs: Any,
) -> Callable[[Callable[..., "FederatedAlgorithm"]], Callable[..., "FederatedAlgorithm"]]:
    """Class decorator that registers a federated algorithm by name."""
    if not isinstance(name, str):
        # a bare ``@register_algorithm`` passes the decorated object here and registers nothing
        raise TypeError(f"register_algorithm needs the algorithm's name as a str, got {name!r}")

    def decorator(factory: Callable[..., "FederatedAlgorithm"]) -> Callable[..., "FederatedAlgorithm"]:
        existing = _REGISTRY.get(name)
        if existing is not None and existing.factory is not factory:
            raise ValueError(f"algorithm {name!r} is already registered ({existing.factory!r})")
        doc = (factory.__doc__ or "").strip()
        _REGISTRY[name] = AlgorithmSpec(
            name=name,
            factory=factory,
            description=description or (doc.splitlines()[0] if doc else ""),
            uses_pool_config=uses_pool_config,
            uses_algorithm_config=uses_algorithm_config,
            uses_selection_strategy=uses_selection_strategy,
            order=order,
            extra_kwargs=dict(extra_kwargs),
        )
        return factory

    return decorator


def unregister_algorithm(name: str) -> None:
    """Remove a registration (plugin teardown / tests); unknown names are a no-op."""
    _REGISTRY.pop(name, None)


def ensure_builtin_algorithms() -> None:
    """Import the modules whose decorators register the built-in algorithms."""
    import repro.baselines  # noqa: F401  (registers the four baselines)
    import repro.core.server  # noqa: F401  (registers adaptivefl)


def available_algorithms() -> tuple[str, ...]:
    """All registered algorithm names, baselines first, AdaptiveFL last."""
    ensure_builtin_algorithms()
    return tuple(sorted(_REGISTRY, key=lambda name: (_REGISTRY[name].order, name)))


def get_algorithm(name: str) -> AlgorithmSpec:
    """Look up a registered algorithm; unknown names list every valid one."""
    ensure_builtin_algorithms()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; registered: {', '.join(available_algorithms())}"
        ) from None


def validate_algorithm_names(names: Iterable[str]) -> tuple[str, ...]:
    """Fail fast on unknown names *before* any expensive data preparation."""
    ensure_builtin_algorithms()
    names = tuple(names)
    unknown = [name for name in names if name not in _REGISTRY]
    if unknown:
        raise KeyError(
            f"unknown algorithm(s) {', '.join(map(repr, unknown))}; "
            f"registered: {', '.join(available_algorithms())}"
        )
    return names
