"""Cohort-sharded streaming selection primitives for million-device fleets.

The scale problem this module solves: at 10⁶ devices the server cannot
materialise "the online population" as a Python list (or even an index
array) every time it wants to sample participants.  Instead the fleet is
sharded into fixed-size **cohorts** — contiguous ``cohort_size`` runs of
client ids — and selection streams over per-cohort summaries:

* :func:`masked_choice_without_replacement` samples ``k`` distinct
  clients uniformly from a boolean availability mask.  It draws the same
  positions a dense ``flatnonzero(mask)[rng.choice(M, k)]`` would (so the
  reference equality is testable bit-for-bit) but only expands the
  cohorts that were actually hit, keeping the transient footprint
  O(cohorts + k·cohort_size) instead of O(population).
* :func:`cohort_counts` is the building block: per-cohort online tallies
  via one ``np.add.reduceat`` pass.

Everything here is pure and deterministic given the caller's
:class:`numpy.random.Generator`, which keeps the repo's bit-identical
replay guarantees intact.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DEFAULT_COHORT_SIZE",
    "cohort_counts",
    "masked_choice_without_replacement",
]

#: default cohort width: large enough that per-cohort overhead vanishes,
#: small enough that expanding one cohort is cheap (512 KB of indices)
DEFAULT_COHORT_SIZE = 65536


def cohort_counts(mask: np.ndarray, cohort_size: int = DEFAULT_COHORT_SIZE) -> np.ndarray:
    """Per-cohort ``True`` tallies of a boolean mask.

    Cohort ``j`` covers clients ``[j * cohort_size, (j + 1) * cohort_size)``;
    the last cohort may be short.  One vectorised pass, no Python loop.
    """
    if cohort_size <= 0:
        raise ValueError("cohort_size must be positive")
    mask = np.asarray(mask, dtype=bool)
    if mask.size == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.arange(0, mask.size, cohort_size)
    return np.add.reduceat(mask.astype(np.int64), starts)


def masked_choice_without_replacement(
    rng: np.random.Generator,
    mask: np.ndarray,
    k: int,
    cohort_size: int = DEFAULT_COHORT_SIZE,
) -> np.ndarray:
    """Sample ``k`` distinct client ids uniformly from a boolean mask.

    Draw-equivalent to the dense reference
    ``np.flatnonzero(mask)[rng.choice(mask.sum(), k, replace=False)]`` —
    it consumes the generator identically and returns the same ids in the
    same order — but translates sampled ranks to ids cohort by cohort, so
    only the cohorts actually hit are ever expanded.  Raises when fewer
    than ``k`` clients are online.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    mask = np.asarray(mask, dtype=bool)
    counts = cohort_counts(mask, cohort_size)
    total = int(counts.sum())
    if k > total:
        raise ValueError(f"cannot sample {k} clients from {total} online")
    if k == 0:
        return np.zeros(0, dtype=np.int64)
    positions = np.asarray(rng.choice(total, size=k, replace=False), dtype=np.int64)
    offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)])
    cohort_of = np.searchsorted(offsets, positions, side="right") - 1
    result = np.empty(k, dtype=np.int64)
    for cohort in np.unique(cohort_of):
        hit = cohort_of == cohort
        base = int(cohort) * cohort_size
        local_ids = np.flatnonzero(mask[base : base + cohort_size]) + base
        result[hit] = local_ids[positions[hit] - offsets[cohort]]
    return result
