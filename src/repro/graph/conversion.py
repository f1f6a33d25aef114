"""Directed to weighted-undirected conversion (paper eq. 3).

Spinner partitions a weighted undirected graph even when the input is
directed.  The weight of the undirected edge ``{u, v}`` encodes how many
directed edges connect ``u`` and ``v`` in the input graph:

* weight 1 when exactly one of ``(u, v)`` or ``(v, u)`` exists, and
* weight 2 when both exist.

The weighted score function of eq. (4) then counts exactly the number of
messages that would be exchanged locally by a Pregel application running
on the original directed graph.

The library converts arrays (:func:`directed_to_csr`); the dictionary
conversions serve the dict dataset view the benchmark harness traces.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.graph.csr import CSRGraph, build_csr_arrays

if TYPE_CHECKING:
    from repro.graph.digraph import DiGraph
    from repro.graph.undirected import UndirectedGraph

#: Weight of an undirected edge backed by a single directed edge.
SINGLE_DIRECTION_WEIGHT = 1
#: Weight of an undirected edge backed by directed edges in both directions.
BOTH_DIRECTIONS_WEIGHT = 2


def to_weighted_undirected(graph: DiGraph) -> UndirectedGraph:
    """Convert a directed graph to Spinner's weighted undirected form.

    Parameters
    ----------
    graph:
        The directed input graph.

    Returns
    -------
    UndirectedGraph
        A graph with the same vertex set where every pair of vertices
        connected in either direction is joined by one undirected edge whose
        weight follows eq. (3) of the paper.  Self-loops are dropped.

    Examples
    --------
    >>> from repro.graph.digraph import DiGraph
    >>> d = DiGraph.from_edges([(0, 1), (1, 0), (1, 2)])
    >>> u = to_weighted_undirected(d)
    >>> u.weight(0, 1), u.weight(1, 2)
    (2, 1)
    >>> u.total_weight == d.num_edges
    True
    """
    from repro.graph.undirected import UndirectedGraph

    undirected = UndirectedGraph()
    for vertex_id in graph.vertices():
        undirected.add_vertex(vertex_id)

    for source, target in graph.edges():
        if source == target:
            continue
        if undirected.has_edge(source, target):
            # The reciprocal edge was already processed; upgrade the weight.
            if graph.has_edge(target, source):
                undirected.set_weight(source, target, BOTH_DIRECTIONS_WEIGHT)
            continue
        weight = (
            BOTH_DIRECTIONS_WEIGHT
            if graph.has_edge(target, source)
            else SINGLE_DIRECTION_WEIGHT
        )
        undirected.add_edge(source, target, weight=weight)
    return undirected


def undirected_view_unweighted(graph: DiGraph) -> UndirectedGraph:
    """Naive conversion that ignores edge direction (weight always 1).

    This is the conversion the paper argues against in Section III-A; the
    conversion ablation measures it as the eq. (3) CSR with unit weights.
    """
    from repro.graph.undirected import UndirectedGraph

    undirected = UndirectedGraph()
    for vertex_id in graph.vertices():
        undirected.add_vertex(vertex_id)
    for source, target in graph.edges():
        if source == target:
            continue
        undirected.add_edge(source, target, weight=SINGLE_DIRECTION_WEIGHT)
    return undirected


def directed_pair_weights(
    num_vertices: int, sources: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eq. (3) weights of a dense directed edge list, one row per pair.

    ``sources``/``targets`` hold dense (``0..num_vertices-1``) endpoint
    ids of directed edges with no self-loops and no parallel duplicates.
    Returns ``(u, v, weight)`` with ``u <= v``: each unordered pair
    connected in either direction appears once, and its multiplicity in
    the input — 1 (single direction) or 2 (reciprocal pair) — *is* the
    eq. (3) weight.  Detected with one composite-key ``np.unique`` pass;
    shared by :func:`directed_to_csr` and the batch Spinner's shard
    builder (:mod:`repro.core.batch_program`) so the encoding lives in
    exactly one place.
    """
    n = np.int64(num_vertices)
    keys, counts = np.unique(
        np.minimum(sources, targets) * n + np.maximum(sources, targets),
        return_counts=True,
    )
    return keys // n, keys % n, counts.astype(np.int64)


def directed_to_csr(
    ids: np.ndarray, sources: np.ndarray, targets: np.ndarray
) -> CSRGraph:
    """Eq. (3) weighted undirected CSR graph of a dense directed edge list.

    ``sources``/``targets`` index into ``ids`` (dense vertex ``i`` is
    original id ``ids[i]``) and hold no parallel duplicates.  Self-loops
    are dropped.  Shared by :func:`to_weighted_csr`, the edge-list reader
    (:func:`repro.graph.io.load_directed_edge_list`) and the Pregel
    Spinner's metric view (:func:`repro.core.batch_program.weighted_view`).
    """
    n = ids.shape[0]
    keep = sources != targets
    u, v, w = directed_pair_weights(n, sources[keep], targets[keep])
    indptr, indices, weights = build_csr_arrays(
        np.concatenate([u, v]), np.concatenate([v, u]), np.concatenate([w, w]), n
    )
    return CSRGraph(indptr, indices, weights, ids)


def to_weighted_csr(graph: DiGraph, direction_aware: bool = True) -> CSRGraph:
    """Convert a directed graph straight to the weighted undirected CSR form.

    Produces the same graph as ``CSRGraph.from_undirected`` applied to
    :func:`to_weighted_undirected` (or to
    :func:`undirected_view_unweighted` when ``direction_aware`` is
    ``False``) without materializing the intermediate dictionary-based
    :class:`UndirectedGraph`: the edges are densified against the sorted
    vertex ids and handed to :func:`directed_to_csr` (a ``DiGraph``
    collapses parallel edges, so each pair's multiplicity is 1 or 2).
    """
    n = graph.num_vertices
    original_ids = np.fromiter(graph.vertices(), dtype=np.int64, count=n)
    original_ids.sort()
    arr = np.asarray(list(graph.edges()), dtype=np.int64).reshape(-1, 2)
    csr = directed_to_csr(
        original_ids,
        np.searchsorted(original_ids, arr[:, 0]),
        np.searchsorted(original_ids, arr[:, 1]),
    )
    if direction_aware:
        return csr
    return CSRGraph(csr.indptr, csr.indices, np.ones_like(csr.weights), original_ids)


def ensure_undirected(
    graph: DiGraph | UndirectedGraph, direction_aware: bool = True
) -> UndirectedGraph:
    """Return an undirected view of ``graph`` suitable for partitioning.

    Undirected graphs are returned unchanged; directed graphs are converted
    with :func:`to_weighted_undirected` (or the naive conversion when
    ``direction_aware`` is ``False``).
    """
    from repro.graph.undirected import UndirectedGraph

    if isinstance(graph, UndirectedGraph):
        return graph
    if direction_aware:
        return to_weighted_undirected(graph)
    return undirected_view_unweighted(graph)
