"""Dict-vs-CSR assignment equivalence for the baseline partitioners.

The CSR kernels of LDG, Fennel and Wang (and the vectorized paths of the
trivial baselines) must produce *identical* assignments to the dictionary
reference implementations in ``oracles.baselines`` (and the scalar
rules) for the same graph, seed and stream order —
including every tie and fallback rule.  These tests pin that contract on
unweighted and weighted graphs, across all stream orders, odd chunk sizes
(so chunk boundaries fall mid-stream), sparse original ids, and the
degenerate shapes (empty graph, isolated vertices, single partition).
"""

from __future__ import annotations

import numpy as np
import pytest
import oracles.baselines as oracle

from repro.graph.csr import CSRGraph
from repro.graph.undirected import UndirectedGraph
from repro.partitioners.csr_stream import canonical_undirected, stream_order
from repro.partitioners.fennel import FennelPartitioner
from repro.partitioners.hashing import HashPartitioner, ModuloPartitioner, hash_label
from repro.partitioners.ldg import LinearDeterministicGreedy
from repro.partitioners.metis import MetisLikePartitioner
from repro.partitioners.random_part import RandomPartitioner
from repro.partitioners.registry import make_partitioner
from repro.partitioners.wang import WangPartitioner


def _random_graph(num_vertices: int, num_edges: int, seed: int, weighted: bool = False):
    """A random simple graph as (UndirectedGraph, CSRGraph) twins."""
    rng = np.random.default_rng(seed)
    edges = rng.integers(num_vertices, size=(num_edges, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    key = np.minimum(edges[:, 0], edges[:, 1]) * num_vertices + np.maximum(
        edges[:, 0], edges[:, 1]
    )
    _, first = np.unique(key, return_index=True)
    edges = edges[np.sort(first)]
    if weighted:
        weights = rng.integers(1, 3, size=edges.shape[0])
    else:
        weights = np.ones(edges.shape[0], dtype=np.int64)
    graph = UndirectedGraph()
    for vertex in range(num_vertices):
        graph.add_vertex(vertex)
    for (u, v), w in zip(edges.tolist(), weights.tolist()):
        graph.add_edge(u, v, weight=w)
    csr = CSRGraph.from_edge_list(edges, num_vertices, weights=weights)
    return graph, csr


def _dense_reference(assignment: dict[int, int], csr: CSRGraph) -> np.ndarray:
    return np.asarray(
        [assignment[int(v)] for v in csr.original_ids.tolist()], dtype=np.int64
    )


# ----------------------------------------------------------------------
# LDG
# ----------------------------------------------------------------------
@pytest.mark.parametrize("order", ["natural", "random", "bfs"])
@pytest.mark.parametrize("weighted", [False, True])
def test_ldg_csr_matches_dict(order, weighted):
    graph, csr = _random_graph(800, 3200, seed=3, weighted=weighted)
    for seed in (0, 11):
        partitioner = LinearDeterministicGreedy(stream_order=order, seed=seed)
        reference = _dense_reference(oracle.ldg_partition(partitioner, graph, 6), csr)
        labels = partitioner.partition_array(csr, 6, chunk=193)
        assert np.array_equal(reference, labels), (order, seed)


def test_ldg_partition_accepts_csr_directly():
    graph, csr = _random_graph(300, 900, seed=5)
    partitioner = LinearDeterministicGreedy(seed=2)
    reference = oracle.ldg_partition(partitioner, graph, 4)
    assert partitioner.run(csr, 4).assignment == reference


def test_ldg_csr_handles_isolated_vertices_and_empty_graph():
    # Isolated vertices take the least-loaded fallback in both paths.
    graph = UndirectedGraph()
    for vertex in range(10):
        graph.add_vertex(vertex)
    graph.add_edge(0, 1)
    csr = CSRGraph.from_edge_list(np.asarray([[0, 1]]), 10)
    for order in ("natural", "random", "bfs"):
        partitioner = LinearDeterministicGreedy(stream_order=order, seed=1)
        reference = _dense_reference(oracle.ldg_partition(partitioner, graph, 3), csr)
        assert np.array_equal(reference, partitioner.partition_array(csr, 3))
    empty = CSRGraph.from_edge_list(np.empty((0, 2), dtype=np.int64), 0)
    assert LinearDeterministicGreedy().partition_array(empty, 3).shape == (0,)
    assert oracle.ldg_partition(LinearDeterministicGreedy(), UndirectedGraph(), 3) == {}


# ----------------------------------------------------------------------
# BFS stream order (satellite regression)
# ----------------------------------------------------------------------
def test_bfs_stream_order_is_breadth_first():
    # Path graph 0-1-2-...-9 plus a separate component {10, 11}: from any
    # root the BFS order must expand by distance, not depth.
    edges = [(i, i + 1) for i in range(9)] + [(10, 11)]
    graph = UndirectedGraph.from_edges(edges, num_vertices=12)
    partitioner = LinearDeterministicGreedy(stream_order="bfs", seed=0)
    order = oracle.ldg_stream(partitioner, graph)
    assert sorted(order) == list(range(12))
    position = {vertex: index for index, vertex in enumerate(order)}
    # Within the path component, BFS from the root yields positions that
    # increase monotonically with hop distance from the root.
    path_vertices = [v for v in order if v <= 9]
    root = path_vertices[0]
    distances = [abs(v - root) for v in path_vertices]
    assert distances == sorted(distances)
    # Components are contiguous in the stream.
    component = [v >= 10 for v in order]
    assert component == sorted(component) or component == sorted(component, reverse=True)


def test_bfs_stream_csr_matches_dict_reference():
    graph, csr = _random_graph(400, 700, seed=9)  # sparse -> several components
    partitioner = LinearDeterministicGreedy(stream_order="bfs", seed=4)
    assert oracle.ldg_stream(partitioner, graph) == stream_order(csr, "bfs", 4).tolist()


def test_bfs_uses_deque_not_quadratic_pop():
    # Regression for the old `queue.pop(0)` list implementation (O(n^2)):
    # the BFS queue must drain via collections.deque.popleft.
    import inspect

    source = inspect.getsource(oracle.ldg_stream)
    assert "popleft" in source
    assert ".pop(0)" not in source


# ----------------------------------------------------------------------
# Fennel
# ----------------------------------------------------------------------
@pytest.mark.parametrize("order", ["natural", "random"])
@pytest.mark.parametrize("weighted", [False, True])
def test_fennel_csr_matches_dict(order, weighted):
    graph, csr = _random_graph(800, 3200, seed=6, weighted=weighted)
    for seed in (0, 11):
        partitioner = FennelPartitioner(stream_order=order, seed=seed)
        reference = _dense_reference(oracle.fennel_partition(partitioner, graph, 6), csr)
        labels = partitioner.partition_array(csr, 6, chunk=193)
        assert np.array_equal(reference, labels), (order, seed)


def test_fennel_csr_respects_hard_capacity():
    graph, csr = _random_graph(600, 2400, seed=8)
    partitioner = FennelPartitioner(load_factor=1.05, seed=3)
    labels = partitioner.partition_array(csr, 5, chunk=101)
    counts = np.bincount(labels, minlength=5)
    assert counts.max() <= 1.05 * 600 / 5 + 1
    reference = _dense_reference(oracle.fennel_partition(partitioner, graph, 5), csr)
    assert np.array_equal(reference, labels)


def test_fennel_csr_single_partition_and_empty():
    graph, csr = _random_graph(50, 120, seed=2)
    partitioner = FennelPartitioner(seed=0)
    assert np.array_equal(
        partitioner.partition_array(csr, 1),
        _dense_reference(oracle.fennel_partition(partitioner, graph, 1), csr),
    )
    empty = CSRGraph.from_edge_list(np.empty((0, 2), dtype=np.int64), 0)
    assert FennelPartitioner().partition_array(empty, 4).shape == (0,)


# ----------------------------------------------------------------------
# Wang
# ----------------------------------------------------------------------
@pytest.mark.parametrize("weighted", [False, True])
def test_wang_csr_matches_dict(weighted):
    graph, csr = _random_graph(700, 2800, seed=4, weighted=weighted)
    for seed in (0, 9):
        partitioner = WangPartitioner(seed=seed)
        reference = _dense_reference(oracle.wang_partition(partitioner, graph, 5), csr)
        labels = partitioner.partition_array(csr, 5, chunk=149)
        assert np.array_equal(reference, labels), seed


def test_wang_csr_with_size_bound_pressure():
    # A tight community bound exercises the blocked/re-evaluation logic.
    graph, csr = _random_graph(500, 3000, seed=12)
    partitioner = WangPartitioner(max_community_fraction=0.1, lpa_iterations=7, seed=5)
    reference = _dense_reference(oracle.wang_partition(partitioner, graph, 4), csr)
    assert np.array_equal(reference, partitioner.partition_array(csr, 4, chunk=83))


def test_wang_csr_isolated_vertices():
    graph = UndirectedGraph()
    for vertex in range(12):
        graph.add_vertex(vertex)
    edges = [(0, 1), (1, 2), (3, 4)]
    for u, v in edges:
        graph.add_edge(u, v)
    csr = CSRGraph.from_edge_list(np.asarray(edges), 12)
    partitioner = WangPartitioner(seed=1)
    reference = _dense_reference(oracle.wang_partition(partitioner, graph, 3), csr)
    assert np.array_equal(reference, partitioner.partition_array(csr, 3))


def test_wang_csr_self_loops_behave_as_absent():
    # UndirectedGraph rejects self-loops; the CSR kernel must treat them
    # as absent regardless of whether the zero-weight rebuild triggers
    # (regression: the rebuild used to drop loops the direct path kept).
    base = np.asarray([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [2, 6], [5, 6]])
    base_w = np.asarray([5, 5, 5, 5, 5, 5, 1, 2])
    with_loop = CSRGraph.from_edge_list(
        np.vstack([base, [[6, 6]]]), 7, weights=np.concatenate([base_w, [9]])
    )
    with_loop_and_zero = CSRGraph.from_edge_list(
        np.vstack([base, [[6, 6]], [[0, 3]]]),
        7,
        weights=np.concatenate([base_w, [9], [0]]),
    )
    clean = CSRGraph.from_edge_list(base, 7, weights=base_w)
    partitioner = WangPartitioner(lpa_iterations=6, seed=0)
    expected = partitioner.partition_array(clean, 2)
    assert np.array_equal(partitioner.partition_array(with_loop, 2), expected)
    assert np.array_equal(partitioner.partition_array(with_loop_and_zero, 2), expected)


def test_wang_csr_zero_weight_edges_behave_as_absent():
    # Zero-weight edges cannot exist in UndirectedGraph (it rejects them);
    # the CSR kernel treats them as absent, i.e. the assignment equals the
    # one computed on the positive-weight subgraph.
    edges = np.asarray([[0, 1], [1, 2], [2, 3], [3, 0]])
    weights = np.asarray([1, 0, 1, 1])
    csr = CSRGraph.from_edge_list(edges, 4, weights=weights)
    positive = CSRGraph.from_edge_list(edges[weights > 0], 4, weights=weights[weights > 0])
    partitioner = WangPartitioner(seed=0)
    assert np.array_equal(
        partitioner.partition_array(csr, 2), partitioner.partition_array(positive, 2)
    )


# ----------------------------------------------------------------------
# Trivial baselines and adapters
# ----------------------------------------------------------------------
def test_hash_modulo_random_arrays_match_dict():
    # The vectorized trivial baselines against their scalar rules, on
    # sparse original ids: splitmix64 per id, id mod k, and the i-th
    # seeded draw for the i-th smallest id.
    _, dense = _random_graph(300, 600, seed=1)
    ids = np.arange(300, dtype=np.int64) * 7 + 3
    csr = CSRGraph(dense.indptr, dense.indices, dense.weights, ids)
    expected = {
        "hash": [hash_label(v, 7) for v in ids.tolist()],
        "modulo": [v % 7 for v in ids.tolist()],
        "random": np.random.default_rng(3).integers(7, size=300).tolist(),
    }
    for partitioner in (HashPartitioner(), ModuloPartitioner(), RandomPartitioner(seed=3)):
        labels = partitioner.partition_array(csr, 7)
        assert labels.tolist() == expected[partitioner.name], partitioner.name


def test_metis_partition_array_uses_canonical_fallback():
    _, csr = _random_graph(200, 800, seed=2)
    partitioner = MetisLikePartitioner(seed=0)
    labels = partitioner.partition_array(csr, 4)
    assert labels.shape == (200,)
    assert labels.min() >= 0 and labels.max() < 4
    reference = partitioner._partition_dict(canonical_undirected(csr), 4)
    assert np.array_equal(_dense_reference(reference, csr), labels)


def test_partition_array_maps_sparse_original_ids():
    # CSR graphs densify sparse ids; the kernels must stream and report
    # assignments keyed consistently with the dictionary path.
    graph = UndirectedGraph()
    ids = [3, 8, 21, 34, 55, 89, 144, 233]
    for vertex in ids:
        graph.add_vertex(vertex)
    for a, b in zip(ids, ids[1:]):
        graph.add_edge(a, b)
    graph.add_edge(ids[0], ids[-1], weight=2)
    csr = CSRGraph.from_undirected(graph)
    for partitioner in (
        LinearDeterministicGreedy(stream_order="random", seed=2),
        FennelPartitioner(seed=2),
        WangPartitioner(seed=2),
    ):
        reference = _dense_reference(oracle.dict_partition(partitioner, graph, 3), csr)
        assert np.array_equal(reference, partitioner.partition_array(csr, 3)), (
            partitioner.name
        )
        # run() on the CSR graph reports original ids.
        assignment = partitioner.run(csr, 3).assignment
        assert set(assignment) == set(ids)


# ----------------------------------------------------------------------
# Registry plumbing (satellite)
# ----------------------------------------------------------------------
def test_registry_forwards_stream_order_and_seed():
    ldg = make_partitioner("ldg", stream_order="bfs", seed=17)
    assert ldg.stream_order == "bfs" and ldg.seed == 17
    fennel = make_partitioner("fennel", stream_order="natural", seed=23)
    assert fennel.stream_order == "natural" and fennel.seed == 23
    graph, csr = _random_graph(200, 600, seed=4)
    for order in ("natural", "random"):
        a = make_partitioner("ldg", stream_order=order, seed=5)
        b = make_partitioner("ldg", stream_order=order, seed=5)
        assert oracle.dict_partition(a, graph, 4) == b.run(csr, 4).assignment
