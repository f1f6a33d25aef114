"""Shared partitioning state helpers.

Label validation shared by the incremental / elastic initializers and
the serving store, and the starting labels of a from-scratch run, shared
by both Spinner runtimes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidPartitionCountError, PartitioningError


def validate_label_array(labels: np.ndarray, num_partitions: int) -> None:
    """Raise when any label lies outside ``[0, num_partitions)``.

    Reports the first offending label (in array order).
    """
    if num_partitions <= 0:
        raise InvalidPartitionCountError(num_partitions, "must be positive")
    if labels.size:
        bad = (labels < 0) | (labels >= num_partitions)
        if bad.any():
            label = int(labels[np.argmax(bad)])
            raise PartitioningError(f"label {label} outside [0, {num_partitions})")


def initial_label_array(
    initial_labels: np.ndarray | None,
    num_vertices: int,
    num_partitions: int,
    seed: int | None,
) -> np.ndarray:
    """Starting labels of a run: a checked copy of ``initial_labels``.

    ``initial_labels`` is a dense array aligned with the graph's vertex
    order; when it is ``None`` every vertex draws a uniformly random label
    from ``seed``.
    """
    if initial_labels is None:
        rng = np.random.default_rng(seed)
        return rng.integers(num_partitions, size=num_vertices).astype(np.int64)
    labels = np.array(initial_labels, dtype=np.int64)
    if labels.ndim != 1 or labels.shape[0] != num_vertices:
        raise PartitioningError(
            f"initial label array has {labels.size} entries for {num_vertices} vertices"
        )
    validate_label_array(labels, num_partitions)
    return labels
