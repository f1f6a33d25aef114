"""Shared partitioning state helpers.

Label validation shared by the incremental / elastic initializers and
the serving store.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.errors import InvalidPartitionCountError, PartitioningError


def validate_labels(labels: Iterable[int], num_partitions: int) -> None:
    """Raise when any label lies outside ``[0, num_partitions)``."""
    if num_partitions <= 0:
        raise InvalidPartitionCountError(num_partitions, "must be positive")
    for label in labels:
        if not 0 <= label < num_partitions:
            raise PartitioningError(
                f"label {label} outside [0, {num_partitions})"
            )


def validate_label_array(labels: np.ndarray, num_partitions: int) -> None:
    """Array-native :func:`validate_labels` for the vectorized code paths.

    Reports the first offending label (in array order) with the same
    message as the scalar version.
    """
    if num_partitions <= 0:
        raise InvalidPartitionCountError(num_partitions, "must be positive")
    if labels.size:
        bad = (labels < 0) | (labels >= num_partitions)
        if bad.any():
            label = int(labels[np.argmax(bad)])
            raise PartitioningError(f"label {label} outside [0, {num_partitions})")
