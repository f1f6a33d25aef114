"""Directed to weighted-undirected conversion (paper eq. 3).

Spinner partitions a weighted undirected graph even when the input is
directed.  The weight of the undirected edge ``{u, v}`` encodes how many
directed edges connect ``u`` and ``v`` in the input graph:

* weight 1 when exactly one of ``(u, v)`` or ``(v, u)`` exists, and
* weight 2 when both exist.

The weighted score function of eq. (4) then counts exactly the number of
messages that would be exchanged locally by a Pregel application running
on the original directed graph.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph, build_csr_arrays
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
    >>> d = DiGraph.from_edges([(0, 1), (1, 0), (1, 2)])
    >>> u = to_weighted_undirected(d)
    >>> u.weight(0, 1), u.weight(1, 2)
    (2, 1)
    >>> u.total_weight == d.num_edges
    True
    """
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

    This is the conversion the paper argues against in Section III-A; it is
    kept as an ablation baseline so the benefit of direction-aware weights
    can be measured (``benchmarks/test_ablations.py``).
    """
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
    shared by :func:`to_weighted_csr`, the edge-list reader
    (:func:`repro.graph.io.load_directed_edge_list`) and the batch
    Spinner's shard builder (:mod:`repro.core.batch_program`) so the
    encoding lives in exactly one place.
    """
    n = np.int64(num_vertices)
    keys, counts = np.unique(
        np.minimum(sources, targets) * n + np.maximum(sources, targets),
        return_counts=True,
    )
    return keys // n, keys % n, counts.astype(np.int64)


def to_weighted_csr(graph: DiGraph, direction_aware: bool = True) -> CSRGraph:
    """Convert a directed graph straight to the weighted undirected CSR form.

    Produces the same graph as ``CSRGraph.from_undirected`` applied to
    :func:`to_weighted_undirected` (or to
    :func:`undirected_view_unweighted` when ``direction_aware`` is
    ``False``) without materializing the intermediate dictionary-based
    :class:`UndirectedGraph`.  Reciprocal directed pairs are detected with
    one composite-key ``np.unique`` over the densified edge list: each
    unordered pair occurs once or twice, and that multiplicity *is* the
    eq. (3) weight.  Self-loops are dropped, matching the dict-based
    conversions.
    """
    n = graph.num_vertices
    original_ids = np.fromiter(graph.vertices(), dtype=np.int64, count=n)
    original_ids.sort()
    pairs = [(s, t) for s, t in graph.edges() if s != t]
    if not pairs:
        empty = np.empty(0, dtype=np.int64)
        return CSRGraph(np.zeros(n + 1, dtype=np.int64), empty, empty, original_ids)
    arr = np.asarray(pairs, dtype=np.int64)
    s = np.searchsorted(original_ids, arr[:, 0])
    t = np.searchsorted(original_ids, arr[:, 1])
    # DiGraph collapses parallel edges, so the multiplicity is 1 or 2 (eq. 3).
    u, v, w = directed_pair_weights(n, s, t)
    if not direction_aware:
        w = np.ones(u.shape[0], dtype=np.int64)
    indptr, indices, weights = build_csr_arrays(
        np.concatenate([u, v]),
        np.concatenate([v, u]),
        np.concatenate([w, w]),
        n,
    )
    return CSRGraph(indptr, indices, weights, original_ids)


def ensure_undirected(
    graph: DiGraph | UndirectedGraph, direction_aware: bool = True
) -> UndirectedGraph:
    """Return an undirected view of ``graph`` suitable for partitioning.

    Undirected graphs are returned unchanged; directed graphs are converted
    with :func:`to_weighted_undirected` (or the naive conversion when
    ``direction_aware`` is ``False``).
    """
    if isinstance(graph, UndirectedGraph):
        return graph
    if direction_aware:
        return to_weighted_undirected(graph)
    return undirected_view_unweighted(graph)
