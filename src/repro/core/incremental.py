"""Incremental repartitioning initialization (paper Section III-D).

When the graph changes, Spinner does not repartition from scratch: it
restarts label propagation from the previous assignment.  Vertices that
existed before keep their label; vertices that appear for the first time
are assigned to the *least loaded* partition so the balance constraint is
not violated before the first iteration.

This module produces that initial assignment; the iterative adaptation
itself is the normal Spinner run seeded with it.

Two families of entry points exist: the dict-based ones
(:func:`incremental_initial_assignment`) used by the Pregel
implementation, and array-native ones
(:func:`incremental_initial_labels`, :func:`map_assignment_to_dense`,
:func:`place_least_loaded`) that operate directly on a
:class:`~repro.graph.csr.CSRGraph` so the vectorized
:class:`~repro.core.fast.FastSpinner` never round-trips through
dictionaries; they take the previous assignment as a mapping or as a
sorted ``(ids, labels)`` array pair (:data:`Assignment`), which the
serving layer passes straight from its snapshot.  Both families apply
the same placement rule; they only differ in the order equally heavy
new vertices are considered (sorted vertex id vs. graph insertion
order), which coincides for graphs materialized from a CSR view.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.core.state import PartitionLoadTracker, validate_label_array, validate_labels
from repro.errors import PartitioningError
from repro.graph.csr import CSRGraph
from repro.graph.undirected import UndirectedGraph


def incremental_initial_assignment(
    graph: UndirectedGraph,
    previous_assignment: Mapping[int, int],
    num_partitions: int,
) -> dict[int, int]:
    """Build the initial labels for an incremental repartitioning.

    Parameters
    ----------
    graph:
        The *updated* graph (old vertices plus any new ones).
    previous_assignment:
        The last stable partitioning; may reference vertices that no longer
        exist (they are ignored).
    num_partitions:
        Number of partitions ``k``; unchanged by graph updates.

    Returns
    -------
    dict[int, int]
        A complete assignment for every vertex of ``graph``: previous
        labels are preserved, new vertices go to the least loaded partition
        (by weighted degree) at the moment they are placed.
    """
    validate_labels(previous_assignment.values(), num_partitions)
    weights = {v: graph.weighted_degree(v) for v in graph.vertices()}
    assignment: dict[int, int] = {}
    tracker = PartitionLoadTracker(num_partitions)
    new_vertices: list[int] = []
    for vertex in graph.vertices():
        label = previous_assignment.get(vertex)
        if label is None:
            new_vertices.append(vertex)
        else:
            assignment[vertex] = label
            tracker.add(label, weights[vertex])
    # Place the heaviest new vertices first so the greedy rule balances best.
    for vertex in sorted(new_vertices, key=lambda v: -weights[v]):
        label = tracker.least_loaded()
        assignment[vertex] = label
        tracker.add(label, weights[vertex])
    return assignment


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
    values are validated (matching :func:`validate_labels` on the dict
    path).
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
    lowest partition id — the dict-based initializer's rule, except that
    it considers equally heavy new vertices in graph insertion order
    rather than dense-id order.
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
    """Array-native :func:`incremental_initial_assignment` over a CSR graph.

    Returns a dense label array aligned with the CSR vertex order:
    vertices covered by ``previous_assignment`` keep their label, new
    vertices go to the least loaded partition (heaviest first).  Matches
    the dict-based path whenever the graph's iteration order is the
    sorted vertex id order (always true for ``csr.to_undirected()``
    round-trips); load sums are exact integer-valued floats, so
    accumulation order cannot introduce drift.
    """
    labels, found = map_assignment_to_dense(csr, previous_assignment, num_partitions)
    place_least_loaded(labels, ~found, csr.weighted_degrees, num_partitions)
    return labels


def affected_vertices(
    graph: UndirectedGraph, changed_edges: list[tuple[int, int, int]]
) -> set[int]:
    """Vertices adjacent to at least one changed edge.

    The paper discusses restricting migration restarts to these vertices as
    a cheaper (but lower quality) alternative; Spinner ultimately lets
    every vertex participate.  This helper supports the restricted
    strategy, which the ablation benchmark compares against.
    """
    affected: set[int] = set()
    for u, v, _weight in changed_edges:
        if u in graph:
            affected.add(u)
        if v in graph:
            affected.add(v)
    return affected
