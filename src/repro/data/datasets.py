"""Synthetic federated image-classification datasets.

Each generator produces a class-conditional mixture task: every class owns
a handful of smooth spatial "prototype" patterns (low-frequency random
fields), and samples are noisy views of a prototype.  The difficulty is
controlled by the number of clusters per class, the within-class noise and
the label-noise rate.  Those knobs are what should make models of
different capacity, and FL methods, separate in accuracy; at the presets'
defaults they do not do so the way the real datasets do.  Measured at the
``small`` scale (seeds 0-1): cifar10-like sits on its 2 % label-noise
ceiling, where every method's full model ends at 92-98 % and none can be
ranked, and on cifar100-like AdaptiveFL's full model comes last by ≈ 20
points.  Tuning them for headroom is ROADMAP item I.

Generators mirror the datasets of the paper:

* :func:`make_cifar10_like` — 3-channel, 10 classes (CIFAR-10 stand-in),
* :func:`make_cifar100_like` — 3-channel, 100 classes (CIFAR-100 stand-in),
* :func:`make_femnist_like` — 1-channel, 62 classes with per-writer styles
  (FEMNIST stand-in, naturally non-IID),
* :func:`make_widar_like` — 1-channel, 22 gesture classes with per-user
  styles (Widar CSI stand-in for the test-bed experiment).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.nn.dtype import resolve_dtype

__all__ = [
    "Dataset",
    "SyntheticTaskConfig",
    "synthesize_classification_task",
    "make_cifar10_like",
    "make_cifar100_like",
    "make_femnist_like",
    "make_widar_like",
]


class Dataset:
    """An in-memory classification dataset (NCHW images + integer labels).

    ``groups`` optionally carries a per-sample group identifier (writer or
    user id) used by the natural non-IID partitioner.
    """

    def __init__(self, images: np.ndarray, labels: np.ndarray, num_classes: int, groups: np.ndarray | None = None):
        images = np.asarray(images, dtype=resolve_dtype())
        labels = np.asarray(labels, dtype=np.int64)
        if images.ndim != 4:
            raise ValueError(f"images must be NCHW, got shape {images.shape}")
        if labels.shape != (images.shape[0],):
            raise ValueError("labels must be a vector aligned with images")
        if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
            raise ValueError("labels out of range")
        if groups is not None:
            groups = np.asarray(groups, dtype=np.int64)
            if groups.shape != labels.shape:
                raise ValueError("groups must align with labels")
        self.images = images
        self.labels = labels
        self.num_classes = int(num_classes)
        self.groups = groups

    def __len__(self) -> int:
        return int(self.images.shape[0])

    @property
    def input_shape(self) -> tuple[int, int, int]:
        return tuple(self.images.shape[1:])

    def subset(self, indices: np.ndarray) -> "Dataset":
        """New dataset restricted to ``indices`` (copy-on-slice)."""
        indices = np.asarray(indices, dtype=np.int64)
        groups = self.groups[indices] if self.groups is not None else None
        return Dataset(self.images[indices], self.labels[indices], self.num_classes, groups)

    def class_counts(self) -> np.ndarray:
        """Histogram of labels over the ``num_classes`` classes."""
        return np.bincount(self.labels, minlength=self.num_classes)


@dataclass(frozen=True)
class SyntheticTaskConfig:
    """Parameters of one synthetic classification task."""

    num_classes: int
    input_shape: tuple[int, int, int]
    train_samples: int
    test_samples: int
    clusters_per_class: int = 3
    prototype_scale: float = 1.0
    noise_std: float = 0.6
    label_noise: float = 0.02
    smoothness: int = 4
    seed: int = 0
    #: number of style groups (writers/users); 0 disables style structure
    num_groups: int = 0
    group_style_std: float = 0.35

    def __post_init__(self) -> None:
        if self.num_classes <= 1:
            raise ValueError("num_classes must be at least 2")
        if self.train_samples <= 0 or self.test_samples <= 0:
            raise ValueError("sample counts must be positive")
        if not 0.0 <= self.label_noise < 0.5:
            raise ValueError("label_noise must be in [0, 0.5)")
        if self.clusters_per_class <= 0:
            raise ValueError("clusters_per_class must be positive")
        if self.smoothness <= 0:
            raise ValueError("smoothness must be positive")


def _smooth_field(rng: np.random.Generator, shape: tuple[int, int, int], smoothness: int) -> np.ndarray:
    """A spatially smooth random pattern (coarse noise upsampled)."""
    channels, height, width = shape
    coarse_h = max(1, -(-height // smoothness))
    coarse_w = max(1, -(-width // smoothness))
    coarse = rng.normal(size=(channels, coarse_h, coarse_w))
    up = np.kron(coarse, np.ones((1, smoothness, smoothness)))
    return up[:, :height, :width]


def _generate_prototypes(rng: np.random.Generator, config: SyntheticTaskConfig) -> np.ndarray:
    """Prototype bank of shape (classes, clusters, C, H, W)."""
    bank = np.empty((config.num_classes, config.clusters_per_class, *config.input_shape))
    for cls in range(config.num_classes):
        for cluster in range(config.clusters_per_class):
            bank[cls, cluster] = config.prototype_scale * _smooth_field(rng, config.input_shape, config.smoothness)
    return bank


def _generate_group_styles(rng: np.random.Generator, config: SyntheticTaskConfig) -> np.ndarray | None:
    """Per-group additive style fields, or None when groups are disabled."""
    if config.num_groups <= 0:
        return None
    styles = np.empty((config.num_groups, *config.input_shape))
    for group in range(config.num_groups):
        styles[group] = config.group_style_std * _smooth_field(rng, config.input_shape, config.smoothness)
    return styles


#: samples synthesised per block of :func:`_sample_split`
_SYNTHESIS_BLOCK = 1024


def _sample_split(
    rng: np.random.Generator,
    config: SyntheticTaskConfig,
    prototypes: np.ndarray,
    styles: np.ndarray | None,
    count: int,
) -> Dataset:
    labels = rng.integers(0, config.num_classes, size=count)
    clusters = rng.integers(0, config.clusters_per_class, size=count)
    groups = rng.integers(0, config.num_groups, size=count) if styles is not None else None

    # filled block by block into the stack dtype: the float64 temporaries
    # (prototype gather, noise, scaled noise) exist for one block instead of
    # the whole split; consecutive draws continue one Generator sequence,
    # so the data is bit-identical to a single whole-split draw
    images = np.empty((count, *config.input_shape), dtype=resolve_dtype())
    for start in range(0, count, _SYNTHESIS_BLOCK):
        stop = min(start + _SYNTHESIS_BLOCK, count)
        block = prototypes[labels[start:stop], clusters[start:stop]]
        if styles is not None:
            block += styles[groups[start:stop]]
        block += config.noise_std * rng.normal(size=block.shape)
        images[start:stop] = block

    if config.label_noise > 0:
        flip = rng.random(count) < config.label_noise
        noisy = rng.integers(0, config.num_classes, size=count)
        labels = np.where(flip, noisy, labels)
    return Dataset(images, labels, config.num_classes, groups)


def synthesize_classification_task(config: SyntheticTaskConfig) -> tuple[Dataset, Dataset]:
    """Generate a (train, test) pair from one task configuration.

    Train and test are drawn from the same prototype bank (and the same
    group styles) so test accuracy measures genuine generalisation over the
    noise, not memorisation of distinct distributions.
    """
    rng = np.random.default_rng(config.seed)
    prototypes = _generate_prototypes(rng, config)
    styles = _generate_group_styles(rng, config)
    train = _sample_split(rng, config, prototypes, styles, config.train_samples)
    test = _sample_split(rng, config, prototypes, styles, config.test_samples)
    return train, test


def make_cifar10_like(
    train_samples: int = 50_000,
    test_samples: int = 10_000,
    image_size: int = 32,
    seed: int = 0,
    **overrides,
) -> tuple[Dataset, Dataset]:
    """CIFAR-10 stand-in: 3-channel colour images, 10 classes."""
    config = SyntheticTaskConfig(
        num_classes=10,
        input_shape=(3, image_size, image_size),
        train_samples=train_samples,
        test_samples=test_samples,
        clusters_per_class=3,
        noise_std=0.7,
        label_noise=0.02,
        seed=seed,
    )
    config = replace(config, **overrides)
    return synthesize_classification_task(config)


def make_cifar100_like(
    train_samples: int = 50_000,
    test_samples: int = 10_000,
    image_size: int = 32,
    seed: int = 0,
    **overrides,
) -> tuple[Dataset, Dataset]:
    """CIFAR-100 stand-in: 3-channel colour images, 100 classes (harder task)."""
    config = SyntheticTaskConfig(
        num_classes=100,
        input_shape=(3, image_size, image_size),
        train_samples=train_samples,
        test_samples=test_samples,
        clusters_per_class=2,
        noise_std=0.9,
        label_noise=0.02,
        seed=seed,
    )
    config = replace(config, **overrides)
    return synthesize_classification_task(config)


def make_femnist_like(
    num_writers: int = 180,
    train_samples: int = 40_000,
    test_samples: int = 8_000,
    image_size: int = 28,
    num_classes: int = 62,
    seed: int = 0,
    **overrides,
) -> tuple[Dataset, Dataset]:
    """FEMNIST stand-in: grayscale characters with per-writer style shifts.

    The per-writer additive style plus the writer-grouped partitioner
    reproduces FEMNIST's "naturally non-IID" federated structure.
    """
    config = SyntheticTaskConfig(
        num_classes=num_classes,
        input_shape=(1, image_size, image_size),
        train_samples=train_samples,
        test_samples=test_samples,
        clusters_per_class=2,
        noise_std=0.6,
        label_noise=0.01,
        num_groups=num_writers,
        group_style_std=0.5,
        seed=seed,
    )
    config = replace(config, **overrides)
    return synthesize_classification_task(config)


def make_widar_like(
    num_users: int = 17,
    train_samples: int = 8_000,
    test_samples: int = 2_000,
    image_size: int = 32,
    num_classes: int = 22,
    seed: int = 0,
    **overrides,
) -> tuple[Dataset, Dataset]:
    """Widar stand-in: single-channel CSI "spectrograms", 22 gesture classes.

    Used by the simulated real-test-bed experiment (Figure 6); the per-user
    styles make the federated partition naturally non-IID, as in FedAIoT.
    """
    config = SyntheticTaskConfig(
        num_classes=num_classes,
        input_shape=(1, image_size, image_size),
        train_samples=train_samples,
        test_samples=test_samples,
        clusters_per_class=2,
        noise_std=0.8,
        label_noise=0.02,
        num_groups=num_users,
        group_style_std=0.45,
        seed=seed,
    )
    config = replace(config, **overrides)
    return synthesize_classification_task(config)
