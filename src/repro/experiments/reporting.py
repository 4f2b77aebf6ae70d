"""The paper's published numbers, for comparing benchmark output with the publication.

``PAPER_TABLE2``/``3``/``4`` hold Tables 2–4 as reported; the text tables
that print measured results next to them live in :mod:`repro.store.report`.
"""

from __future__ import annotations

__all__ = ["PAPER_TABLE2", "PAPER_TABLE3", "PAPER_TABLE4"]


#: Paper Table 2 (test accuracy %, avg/full) — VGG16 and ResNet18 rows.
PAPER_TABLE2: dict[str, dict[str, dict[str, tuple[float | None, float]]]] = {
    "vgg16": {
        "cifar10-iid": {
            "all_large": (None, 79.76),
            "decoupled": (75.02, 69.80),
            "heterofl": (77.98, 74.96),
            "scalefl": (79.94, 78.12),
            "adaptivefl": (82.97, 83.14),
        },
        "cifar10-a0.6": {
            "all_large": (None, 77.29),
            "decoupled": (72.95, 67.58),
            "heterofl": (75.18, 72.69),
            "scalefl": (76.08, 75.07),
            "adaptivefl": (81.12, 81.31),
        },
        "cifar10-a0.3": {
            "all_large": (None, 74.95),
            "decoupled": (69.11, 62.91),
            "heterofl": (71.18, 67.59),
            "scalefl": (71.71, 70.42),
            "adaptivefl": (78.85, 78.99),
        },
        "cifar100-iid": {
            "all_large": (None, 40.71),
            "decoupled": (33.66, 26.67),
            "heterofl": (32.22, 28.13),
            "scalefl": (31.86, 32.17),
            "adaptivefl": (40.61, 40.93),
        },
        "femnist": {
            "all_large": (None, 85.21),
            "decoupled": (78.45, 70.13),
            "heterofl": (77.69, 71.75),
            "scalefl": (71.58, 67.36),
            "adaptivefl": (87.38, 88.13),
        },
    },
    "resnet18": {
        "cifar10-iid": {
            "all_large": (None, 68.37),
            "decoupled": (63.23, 55.56),
            "heterofl": (70.44, 65.37),
            "scalefl": (76.34, 76.51),
            "adaptivefl": (77.14, 77.20),
        },
        "cifar100-iid": {
            "all_large": (None, 35.08),
            "decoupled": (24.58, 22.35),
            "heterofl": (30.43, 27.74),
            "scalefl": (40.30, 40.46),
            "adaptivefl": (41.09, 41.15),
        },
        "femnist": {
            "all_large": (None, 83.94),
            "decoupled": (74.37, 65.20),
            "heterofl": (77.50, 69.35),
            "scalefl": (83.64, 83.79),
            "adaptivefl": (87.11, 87.30),
        },
    },
}

#: Paper Table 3 (CIFAR-10, VGG16): accuracy (avg/full) per device proportion.
PAPER_TABLE3: dict[str, dict[str, tuple[float | None, float]]] = {
    "4:3:3": {
        "all_large": (None, 79.76),
        "heterofl": (77.98, 74.96),
        "scalefl": (79.94, 78.12),
        "adaptivefl": (82.95, 83.14),
    },
    "8:1:1": {
        "all_large": (None, 79.76),
        "heterofl": (72.43, 64.44),
        "scalefl": (75.89, 72.03),
        "adaptivefl": (81.62, 81.93),
    },
    "1:8:1": {
        "all_large": (None, 79.76),
        "heterofl": (75.94, 65.96),
        "scalefl": (78.40, 72.30),
        "adaptivefl": (82.78, 82.89),
    },
    "1:1:8": {
        "all_large": (None, 79.76),
        "heterofl": (81.26, 81.12),
        "scalefl": (82.55, 82.81),
        "adaptivefl": (82.82, 83.24),
    },
}

#: Paper Table 4 (ablation of fine-grained pruning, "full" accuracy).
PAPER_TABLE4: dict[str, dict[str, dict[str, float]]] = {
    "cifar10": {
        "vgg16": {"coarse-iid": 80.10, "fine-iid": 83.14, "coarse-a0.3": 74.27, "fine-a0.3": 78.99},
        "resnet18": {"coarse-iid": 72.43, "fine-iid": 77.20, "coarse-a0.3": 66.07, "fine-a0.3": 70.97},
    },
    "cifar100": {
        "vgg16": {"coarse-iid": 38.91, "fine-iid": 40.93, "coarse-a0.3": 39.29, "fine-a0.3": 41.17},
        "resnet18": {"coarse-iid": 31.77, "fine-iid": 41.15, "coarse-a0.3": 34.73, "fine-a0.3": 39.65},
    },
}
