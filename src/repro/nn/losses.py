"""Loss functions.

Each loss exposes ``forward(logits, targets) -> float`` and
``backward() -> grad_logits``; the gradient is averaged over the batch so it
can be fed straight into ``model.backward``.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F

__all__ = ["CrossEntropyLoss", "KLDivergenceLoss", "accuracy"]


class CrossEntropyLoss:
    """Softmax cross-entropy over integer class labels.

    ``targets`` of shape ``(N,)`` give the batch mean as a float; of shape
    ``(K, N)`` (K clients, ``logits`` client-major) one mean per client,
    each client's gradient averaged over its own N samples.
    """

    def __init__(self, label_smoothing: float = 0.0):
        if not 0.0 <= label_smoothing < 1.0:
            raise ValueError("label_smoothing must be in [0, 1)")
        self.label_smoothing = label_smoothing
        self._cache: tuple | None = None

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> "float | np.ndarray":
        if logits.ndim != 2:
            raise ValueError(f"expected 2-D logits, got shape {logits.shape}")
        num_classes = logits.shape[1]
        log_probs = F.log_softmax(logits, axis=1)
        # softmax = exp(log_softmax) exactly — one pass instead of a second
        # stabilised softmax over the logits
        probs = np.exp(log_probs)
        per_client = np.atleast_2d(np.asarray(targets, dtype=np.int64))
        labels = per_client.ravel()
        if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
            raise ValueError(f"labels out of range for {num_classes} classes")
        if self.label_smoothing > 0.0:
            eps = self.label_smoothing
            target_dist = F.one_hot(labels, num_classes) * (1.0 - eps) + eps / num_classes
            losses = -(target_dist * log_probs).sum(axis=1).reshape(per_client.shape).mean(axis=1)
            self._cache = (probs, target_dist, None, per_client.shape[1])
        else:
            # hard labels: gather the target log-probabilities directly, no
            # one-hot materialisation
            picked = log_probs[np.arange(logits.shape[0], dtype=np.intp), labels]
            self._cache = (probs, None, labels, per_client.shape[1])
            losses = -picked.reshape(per_client.shape).mean(axis=1)
        return losses if np.ndim(targets) > 1 else float(losses[0])

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        probs, target_dist, labels, batch = self._cache
        self._cache = None
        if target_dist is not None:
            return (probs - target_dist) / batch
        grad = probs  # freshly exp'd in forward: safe to consume in place
        grad[np.arange(grad.shape[0], dtype=np.intp), labels] -= 1.0
        grad /= batch
        return grad

    def __call__(self, logits: np.ndarray, targets: np.ndarray) -> "float | np.ndarray":
        return self.forward(logits, targets)


class KLDivergenceLoss:
    """KL(teacher || student) between softened distributions.

    Used by the ScaleFL baseline for self-distillation between the deepest
    exit (teacher) and earlier exits (students).  Only the student logits
    receive a gradient; the teacher distribution is treated as a constant.
    """

    def __init__(self, temperature: float = 1.0):
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self.temperature = temperature
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, student_logits: np.ndarray, teacher_logits: np.ndarray) -> float:
        t = self.temperature
        teacher = F.softmax(teacher_logits / t, axis=1)
        student_log = F.log_softmax(student_logits / t, axis=1)
        teacher_log = F.log_softmax(teacher_logits / t, axis=1)
        loss = (teacher * (teacher_log - student_log)).sum(axis=1).mean() * (t * t)
        self._cache = (F.softmax(student_logits / t, axis=1), teacher)
        return float(loss)

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        student, teacher = self._cache
        self._cache = None
        # d/d(student_logits) of KL with the temperature-squared scaling.
        return (student - teacher) * self.temperature / student.shape[0]

    def __call__(self, student_logits: np.ndarray, teacher_logits: np.ndarray) -> float:
        return self.forward(student_logits, teacher_logits)


def accuracy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Top-1 accuracy of logits against integer labels."""
    if logits.shape[0] == 0:
        return 0.0
    predictions = logits.argmax(axis=1)
    return float((predictions == np.asarray(targets)).mean())
