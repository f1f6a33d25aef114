"""Incremental repartitioning initialization (paper Section III-D).

When the graph changes, Spinner does not repartition from scratch: it
restarts label propagation from the previous assignment.  Vertices that
existed before keep their label; vertices that appear for the first time
are assigned to the *least loaded* partition so the balance constraint is
not violated before the first iteration.

This module produces that initial assignment; the iterative adaptation
itself is the normal Spinner run seeded with it.

The entry points (:func:`incremental_initial_labels`,
:func:`map_assignment_to_dense`, :func:`place_least_loaded`) operate on a
:class:`~repro.graph.csr.CSRGraph` and return dense label arrays, for
both Spinner runtimes; they take the previous assignment as a mapping or
as a sorted ``(ids, labels)`` array pair (:data:`Assignment`), which the
serving layer passes straight from its snapshot.  Equally heavy new
vertices are placed in dense-id order.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.core.state import validate_label_array
from repro.errors import PartitioningError
from repro.graph.csr import CSRGraph


#: A previous assignment: a ``{vertex id: partition}`` mapping, or the
#: ``(ids, labels)`` array pair of one with ``ids`` strictly increasing
#: (e.g. a serving snapshot's arrays).
Assignment = Mapping[int, int] | tuple[np.ndarray, np.ndarray]


def _assignment_arrays(assignment: Assignment) -> tuple[np.ndarray, np.ndarray]:
    """Return ``assignment`` as ``(ids, labels)`` int64 arrays sorted by id.

    A mapping is sorted once; an array pair is checked to be parallel and
    strictly increasing in id.
    """
    if isinstance(assignment, Mapping):
        count = len(assignment)
        keys = np.fromiter(assignment.keys(), dtype=np.int64, count=count)
        values = np.fromiter(assignment.values(), dtype=np.int64, count=count)
        order = np.argsort(keys, kind="stable")
        return keys[order], values[order]
    ids, labels = (np.asarray(array, dtype=np.int64) for array in assignment)
    if ids.ndim != 1 or ids.shape != labels.shape:
        raise PartitioningError("assignment ids and labels must be parallel 1-D arrays")
    if ids.size > 1 and not bool(np.all(ids[1:] > ids[:-1])):
        raise PartitioningError("assignment ids must be strictly increasing")
    return ids, labels


def map_assignment_to_dense(
    csr: CSRGraph,
    assignment: Assignment,
    num_partitions: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Map an original-id assignment onto dense CSR vertex ids.

    Returns ``(labels, found)``: ``labels[dense]`` holds the previous
    label for vertices covered by ``assignment`` and ``-1`` elsewhere;
    ``found`` is the corresponding boolean mask.  Assignment entries for
    vertices that no longer exist in the graph are ignored, but all label
    values are validated.
    """
    ids, values = _assignment_arrays(assignment)
    validate_label_array(values, num_partitions)
    count = ids.shape[0]
    n = csr.num_vertices
    labels = np.full(n, -1, dtype=np.int64)
    found = np.zeros(n, dtype=bool)
    if count and n:
        pos = np.minimum(np.searchsorted(ids, csr.original_ids), count - 1)
        found = ids[pos] == csr.original_ids
        labels[found] = values[pos[found]]
    return labels, found


def place_least_loaded(
    labels: np.ndarray,
    missing: np.ndarray,
    weighted_degrees: np.ndarray,
    num_partitions: int,
) -> None:
    """Greedily place unlabeled vertices on the least loaded partition.

    ``labels`` is updated in place where ``missing`` is set.  Heavier
    vertices are placed first (with dense-id order breaking ties between
    equal degrees), and ties between equally loaded partitions go to the
    lowest partition id.
    """
    new_idx = np.flatnonzero(missing)
    if new_idx.size == 0:
        return
    degrees_f = weighted_degrees.astype(np.float64)
    loads = np.bincount(
        labels[~missing], weights=degrees_f[~missing], minlength=num_partitions
    ).astype(np.float64)
    order = new_idx[np.argsort(-weighted_degrees[new_idx], kind="stable")]
    order_degrees = degrees_f[order]
    for position, vertex in enumerate(order.tolist()):
        label = int(np.argmin(loads))
        labels[vertex] = label
        loads[label] += order_degrees[position]


def incremental_initial_labels(
    csr: CSRGraph,
    previous_assignment: Assignment,
    num_partitions: int,
) -> np.ndarray:
    """Initial labels for an incremental repartitioning of a CSR graph.

    Returns a dense label array aligned with the CSR vertex order:
    vertices covered by ``previous_assignment`` keep their label, new
    vertices go to the least loaded partition (by weighted degree,
    heaviest first).  Load sums are exact integer-valued floats, so
    accumulation order cannot introduce drift.
    """
    labels, found = map_assignment_to_dense(csr, previous_assignment, num_partitions)
    place_least_loaded(labels, ~found, csr.weighted_degrees, num_partitions)
    return labels
