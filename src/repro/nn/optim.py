"""Optimizers and learning-rate schedules.

The paper trains every method with SGD (lr=0.01, momentum=0.5), so SGD with
momentum and optional weight decay is the only optimizer the reproduction
needs; schedules are provided for ablation convenience.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.nn.module import Parameter

__all__ = ["SGD", "ConstantLR", "StepLR", "CosineLR"]


class SGD:
    """Stochastic gradient descent with momentum and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        # written so that NaN fails every check
        if not lr > 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if not weight_decay >= 0:
            raise ValueError(f"weight decay must be non-negative, got {weight_decay}")
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]
        # one flat scratch buffer, viewed per parameter shape, makes the
        # whole update allocation-free (fused in-place SGD + momentum)
        max_size = max(p.size for p in self.parameters)
        max_itemsize = max(p.data.dtype.itemsize for p in self.parameters)
        self._scratch = np.empty(max_size * max_itemsize, dtype=np.uint8)

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def _scratch_view(self, param) -> np.ndarray:
        nbytes = param.size * param.data.dtype.itemsize
        return self._scratch[:nbytes].view(param.data.dtype).reshape(param.data.shape)

    def step(self) -> None:
        lr = self.lr
        for param, velocity in zip(self.parameters, self._velocity):
            scratch = self._scratch_view(param)
            if self.weight_decay:
                # temp-free weight decay into scratch; param.grad itself is
                # never mutated (callers may read it after step())
                np.multiply(param.data, self.weight_decay, out=scratch, casting="unsafe")
                scratch += param.grad
                effective_grad = scratch
            else:
                effective_grad = param.grad
            if self.momentum:
                velocity *= self.momentum
                velocity += effective_grad
                update = velocity
            else:
                update = effective_grad
            # in place is fine even when update aliases scratch
            np.multiply(update, lr, out=scratch, casting="unsafe")
            param.data -= scratch


class ConstantLR:
    """A learning rate that never changes."""

    def __init__(self, lr: float):
        self.lr = lr

    def __call__(self, round_index: int) -> float:
        return self.lr


class StepLR:
    """Decay the learning rate by ``gamma`` every ``step_size`` rounds."""

    def __init__(self, lr: float, step_size: int, gamma: float = 0.1):
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        self.lr = lr
        self.step_size = step_size
        self.gamma = gamma

    def __call__(self, round_index: int) -> float:
        return self.lr * (self.gamma ** (round_index // self.step_size))


class CosineLR:
    """Cosine annealing from ``lr`` to ``min_lr`` over ``total_rounds``."""

    def __init__(self, lr: float, total_rounds: int, min_lr: float = 0.0):
        if total_rounds <= 0:
            raise ValueError("total_rounds must be positive")
        self.lr = lr
        self.total_rounds = total_rounds
        self.min_lr = min_lr

    def __call__(self, round_index: int) -> float:
        progress = min(round_index, self.total_rounds) / self.total_rounds
        return self.min_lr + 0.5 * (self.lr - self.min_lr) * (1.0 + np.cos(np.pi * progress))
