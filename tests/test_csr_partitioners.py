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
from oracles.assignments import as_mapping
from oracles.metis import metis_labels, wang_coarse_partition

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.io import ingest_edge_list
from repro.graph.mmap_store import open_store
from repro.graph.undirected import UndirectedGraph
from repro.partitioners.csr_stream import stream_order
from repro.partitioners.fennel import FennelPartitioner
from repro.partitioners.hashing import HashPartitioner, ModuloPartitioner, hash_label
from repro.partitioners.ldg import LinearDeterministicGreedy
from repro.partitioners.metis import Level, MetisLikePartitioner
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
    assert as_mapping(partitioner.run(csr, 4)) == reference


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


# ----------------------------------------------------------------------
# METIS
# ----------------------------------------------------------------------
def _shuffled_ids(csr: CSRGraph, seed: int) -> CSRGraph:
    """``csr`` with sparse original ids whose dense order is not ascending."""
    ids = np.random.default_rng(seed).permutation(3 * csr.num_vertices)
    return CSRGraph(csr.indptr, csr.indices, csr.weights, ids[: csr.num_vertices])


def _metis_cases(tmp_path):
    """``(graph, k, partitioner)`` triples per case name."""
    cases = {}
    for seed in (0, 1, 2):
        _, csr = _random_graph(450, 1800, seed=seed, weighted=True)
        for k in (2, 5, 40):
            cases[f"shuffled-ids-{seed}-k{k}"] = (
                _shuffled_ids(csr, seed),
                k,
                MetisLikePartitioner(balance_tolerance=(1.0, 1.03, 1.5)[seed], seed=seed),
            )
    _, sparse = _random_graph(300, 200, seed=4)
    cases["isolated"] = (sparse, 4, MetisLikePartitioner(seed=1))
    _, small = _random_graph(9, 12, seed=5)
    cases["k-above-n"] = (small, 16, MetisLikePartitioner(seed=0))
    empty = CSRGraph(np.zeros(1, dtype=np.int64), np.empty(0), np.empty(0))
    cases["empty"] = (empty, 3, MetisLikePartitioner(seed=0))
    star = CSRGraph.from_edge_list([(0, v) for v in range(1, 200)], 200)
    cases["star"] = (star, 2, MetisLikePartitioner(seed=0))
    # An ingested multigraph: repeated pairs (the first weight counts),
    # reversed repeats and self-loops.
    rng = np.random.default_rng(6)
    ids = rng.choice(4000, size=350, replace=False)
    pairs = ids[rng.integers(0, 350, size=(1400, 2))]
    pairs = np.vstack([pairs, pairs[:200], pairs[:40, ::-1], np.stack([ids[:9]] * 2, axis=1)])
    weights = rng.integers(1, 4, size=pairs.shape[0])
    edge_file = tmp_path / "multi.edges"
    edge_file.write_text(
        "".join(f"{u} {v} {w}\n" for (u, v), w in zip(pairs.tolist(), weights.tolist()))
    )
    ingest_edge_list(edge_file, tmp_path / "store")
    cases["ingested-store"] = (open_store(tmp_path / "store"), 6, MetisLikePartitioner(seed=3))
    return cases


def _wang_coarse_cases():
    """Wang's coarse step: ascending community pairs, community sizes as
    the balanced vertex weights.  Yields ``(level, k, wang, dict inputs)``."""
    rng = np.random.default_rng(8)
    for num_communities, k in ((40, 4), (600, 8), (700, 200)):
        edges = rng.integers(num_communities, size=(4 * num_communities, 2))
        lo, hi = edges.min(axis=1), edges.max(axis=1)
        keys = np.unique((lo * num_communities + hi)[lo != hi])
        pair_weights = rng.integers(1, 9, size=keys.shape[0])
        sizes = rng.integers(1, 30, size=num_communities).astype(np.float64)
        level = Level.from_edges(
            keys // num_communities, keys % num_communities, pair_weights, sizes,
            np.arange(num_communities),
        )
        edge_weights = {
            (int(key) // num_communities, int(key) % num_communities): int(w)
            for key, w in zip(keys.tolist(), pair_weights.tolist())
        }
        yield level, k, WangPartitioner(seed=num_communities), (
            num_communities, edge_weights, dict(enumerate(sizes.tolist()))
        )


def test_metis_csr_matches_dict(tmp_path):
    cases = _metis_cases(tmp_path)
    for case, (graph, k, partitioner) in cases.items():
        labels = partitioner.partition_array(graph, k)
        assert labels.dtype == np.int64 and labels.shape == (graph.num_vertices,)
        assert np.array_equal(labels, metis_labels(partitioner, graph, k)), case
    cases["ingested-store"][0].close()
    for level, k, wang, (num_communities, edge_weights, sizes) in _wang_coarse_cases():
        labels = MetisLikePartitioner(seed=wang.seed).multilevel(level, k)
        reference = wang_coarse_partition(wang, num_communities, edge_weights, sizes, k)
        assert labels.tolist() == [reference[c] for c in range(num_communities)]


def test_metis_rejects_non_positive_weight_like_dict():
    csr = CSRGraph.from_edge_list([(0, 1), (1, 2), (2, 3)], 4, weights=[2, 0, -1])
    partitioner = MetisLikePartitioner()
    with pytest.raises(GraphError) as expected:
        metis_labels(partitioner, csr, 2)
    with pytest.raises(GraphError) as raised:
        partitioner.partition_array(csr, 2)
    assert str(raised.value) == str(expected.value)


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
        assignment = as_mapping(partitioner.run(csr, 3))
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
        assert oracle.dict_partition(a, graph, 4) == as_mapping(b.run(csr, 4))
