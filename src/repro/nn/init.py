"""Weight initialisation helpers.

All initialisers take an explicit :class:`numpy.random.Generator` so model
construction is fully deterministic given a seed — a requirement for
reproducible federated-learning experiments where every client must start
from the identical global model.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.dtype import resolve_dtype

__all__ = [
    "kaiming_uniform",
    "zeros",
    "ones",
    "uniform_bias",
]


def _fan_in_fan_out(shape: tuple[int, ...]) -> tuple[int, int]:
    """Compute fan-in / fan-out for a weight tensor.

    Linear weights are ``(out, in)``; conv weights are
    ``(out, in, kh, kw)`` where the receptive-field size multiplies both
    fans.
    """
    if len(shape) < 2:
        raise ValueError(f"fan computation requires >=2 dims, got shape {shape}")
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out


def kaiming_uniform(shape: tuple[int, ...], rng: np.random.Generator, a: float = math.sqrt(5)) -> np.ndarray:
    """He/Kaiming uniform initialisation (PyTorch's default for conv/linear)."""
    fan_in, _ = _fan_in_fan_out(shape)
    gain = math.sqrt(2.0 / (1.0 + a * a))
    bound = gain * math.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(resolve_dtype())


def uniform_bias(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """PyTorch-style bias initialisation: U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(resolve_dtype())


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zero tensor (stack dtype)."""
    return np.zeros(shape, dtype=resolve_dtype())


def ones(shape: tuple[int, ...]) -> np.ndarray:
    """All-one tensor (stack dtype)."""
    return np.ones(shape, dtype=resolve_dtype())
