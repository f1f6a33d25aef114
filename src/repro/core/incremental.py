"""Incremental repartitioning initialization (paper Section III-D).

When the graph changes, Spinner does not repartition from scratch: it
restarts label propagation from the previous assignment.  Vertices that
existed before keep their label; vertices that appear for the first time
are assigned to the *least loaded* partition so the balance constraint is
not violated before the first iteration.

This module produces that initial assignment; the iterative adaptation
itself is the normal Spinner run seeded with it.

The entry points (:func:`incremental_initial_labels`,
:func:`lookup_labels`, :func:`place_least_loaded`) operate on a
:class:`~repro.graph.csr.CSRGraph` and return dense label arrays, for
both Spinner runtimes.  An assignment is a dense label array while it
stays on the graph it was computed on; across graphs (a restart after
the graph changed, a serving snapshot) it is one type,
:data:`Assignment`: the ``(ids, labels)`` array pair sorted by id.  A
run on a graph with ascending ids (every CSR graph the library builds)
gives it as ``(graph.original_ids, result.labels)``, the serving layer
passes it straight from its snapshot, and :func:`lookup_labels` maps it
onto any ids.  Equally heavy new vertices are placed in dense-id order.
"""

from __future__ import annotations

import numpy as np

from repro.core.state import validate_label_array
from repro.errors import PartitioningError
from repro.graph.csr import CSRGraph


#: A previous assignment: the ``(ids, labels)`` array pair with ``ids``
#: strictly increasing (e.g. a serving snapshot's arrays).
Assignment = tuple[np.ndarray, np.ndarray]


def assignment_arrays(
    assignment: Assignment, num_partitions: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Return ``assignment`` as ``(ids, labels)`` int64 arrays.

    Raises :class:`~repro.errors.PartitioningError` unless the arrays are
    parallel and strictly increasing in id, and, with ``num_partitions``,
    every label lies in ``[0, num_partitions)``.
    """
    ids, labels = (np.asarray(array, dtype=np.int64) for array in assignment)
    if ids.ndim != 1 or ids.shape != labels.shape:
        raise PartitioningError("assignment ids and labels must be parallel 1-D arrays")
    if ids.size > 1 and not bool(np.all(ids[1:] > ids[:-1])):
        raise PartitioningError("assignment ids must be strictly increasing")
    if num_partitions is not None:
        validate_label_array(labels, num_partitions)
    return ids, labels


def lookup_labels(
    assignment: Assignment, query: np.ndarray, num_partitions: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Labels of the ``query`` ids (e.g. a CSR graph's ``original_ids``).

    Returns ``(labels, found)``: the label of each query id the
    assignment covers and ``-1`` elsewhere, and the mask of covered ids.
    Entries for ids not queried are ignored, but with ``num_partitions``
    every label of the assignment is validated.
    """
    ids, values = assignment_arrays(assignment, num_partitions)
    query = np.asarray(query, dtype=np.int64)
    labels = np.full(query.shape[0], -1, dtype=np.int64)
    found = np.zeros(query.shape[0], dtype=bool)
    if ids.size and query.size:
        pos = np.minimum(np.searchsorted(ids, query), ids.size - 1)
        found = ids[pos] == query
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
    labels, found = lookup_labels(previous_assignment, csr.original_ids, num_partitions)
    place_least_loaded(labels, ~found, csr.weighted_degrees, num_partitions)
    return labels
