"""Partitioning stability metrics (paper Section V-D).

The *partitioning difference* between two partitionings is the fraction of
vertices whose label differs — the fraction of vertices a graph management
system would have to shuffle across machines when adopting the new
partitioning.  Two partitionings of the same graph compare as dense label
arrays; across a graph change they compare as ``(ids, labels)``
assignments (:data:`~repro.core.incremental.Assignment`), over the
vertices both cover.
"""

from __future__ import annotations

import numpy as np

from repro.core.incremental import Assignment, assignment_arrays, lookup_labels
from repro.errors import PartitioningError


def moved_vertices(before: Assignment, after: Assignment) -> tuple[int, float]:
    """Return ``(moved, fraction)`` for two ``(ids, labels)`` assignments.

    Over the ids both assignments cover, ``moved`` counts those whose
    label differs and ``fraction`` is their share (0 when no id is
    shared).  Vertices present only in ``after`` (e.g. newly added
    vertices) had no previous location to move from, and vertices present
    only in ``before`` have left the graph.
    """
    before_ids, before_labels = assignment_arrays(before)
    after_labels, found = lookup_labels(after, before_ids)
    moved = int(np.count_nonzero(after_labels[found] != before_labels[found]))
    common = int(np.count_nonzero(found))
    return moved, (moved / common if common else 0.0)


def partitioning_difference(
    before: np.ndarray | Assignment,
    after: np.ndarray | Assignment,
) -> float:
    """Fraction of vertices assigned to different partitions in ``after``.

    Dense label arrays must have the same shape.  ``(ids, labels)``
    assignments are compared over the vertices both cover
    (:func:`moved_vertices`).
    """
    if isinstance(before, np.ndarray) and isinstance(after, np.ndarray):
        if before.shape != after.shape:
            raise PartitioningError("label arrays must have the same shape")
        if before.size == 0:
            return 0.0
        return float(np.mean(before != after))
    return moved_vertices(before, after)[1]
