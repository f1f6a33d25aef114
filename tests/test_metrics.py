"""Tests for the partitioning quality, stability and balance metrics."""

import numpy as np
import pytest

from repro.errors import InvalidPartitionCountError, PartitioningError
from repro.graph.csr import CSRGraph
from repro.graph.undirected import UndirectedGraph
from repro.metrics.balance import load_statistics, partition_load_statistics
from repro.metrics.quality import (
    cut_edges,
    global_score,
    locality,
    max_normalized_load,
    partition_loads,
    quality_summary,
)
from repro.metrics.reporting import format_series, format_table, improvement_percentage
from repro.metrics.stability import moved_vertices, partitioning_difference

from oracles import metrics as dict_metrics
from oracles.assignments import as_pair


@pytest.fixture
def two_cliques(two_cliques):
    """The conftest two-cliques graph (ids 0..9) as CSR."""
    return CSRGraph.from_undirected(two_cliques)


def _split(graph: CSRGraph) -> np.ndarray:
    """Label 0 for the first clique (ids < 5), 1 for the second."""
    return np.where(graph.original_ids < 5, 0, 1)


def test_locality_of_perfect_and_worst_partitionings(two_cliques):
    assert locality(two_cliques, _split(two_cliques)) == pytest.approx(20 / 21)
    all_same = np.zeros(two_cliques.num_vertices, dtype=np.int64)
    assert locality(two_cliques, all_same) == 1.0


def test_locality_weighted_edges():
    graph = CSRGraph.from_edge_list([(0, 1), (1, 2)], 3, weights=[2, 1])
    assert locality(graph, np.array([0, 0, 1])) == pytest.approx(2 / 3)


def test_cut_edges(two_cliques):
    assert cut_edges(two_cliques, _split(two_cliques)) == 1


def test_partition_loads_sum_to_total_degree(two_cliques):
    labels = two_cliques.original_ids % 3
    loads = partition_loads(two_cliques, labels, 3)
    assert loads.sum() == pytest.approx(two_cliques.weighted_degrees.sum())


def test_rho_bounds(two_cliques):
    balanced = _split(two_cliques)
    assert max_normalized_load(two_cliques, balanced, 2) == pytest.approx(1.0, abs=0.05)
    unbalanced = np.zeros(two_cliques.num_vertices, dtype=np.int64)
    assert max_normalized_load(two_cliques, unbalanced, 2) == pytest.approx(2.0)


def test_invalid_partition_count_rejected(triangle_graph):
    with pytest.raises(InvalidPartitionCountError):
        partition_loads(CSRGraph.from_undirected(triangle_graph), np.array([0, 0, 0]), 0)


def test_label_out_of_range_rejected(triangle_graph):
    with pytest.raises(PartitioningError):
        partition_loads(CSRGraph.from_undirected(triangle_graph), np.array([0, 5, 0]), 2)


def test_csr_and_dict_metrics_agree(community_graph):
    csr = CSRGraph.from_undirected(community_graph)
    rng = np.random.default_rng(0)
    labels = rng.integers(4, size=csr.num_vertices)
    assignment = {int(orig): int(lab) for orig, lab in zip(csr.original_ids, labels)}
    assert locality(csr, labels) == pytest.approx(
        dict_metrics.locality(community_graph, assignment)
    )
    assert max_normalized_load(csr, labels, 4) == pytest.approx(
        dict_metrics.max_normalized_load(community_graph, assignment, 4)
    )
    assert cut_edges(csr, labels) == dict_metrics.cut_edges(community_graph, assignment)
    assert global_score(csr, labels, 4) == pytest.approx(
        dict_metrics.global_score(community_graph, assignment, 4), rel=1e-9
    )


def test_csr_and_dict_metrics_agree_with_isolated_vertices():
    # Isolated vertices contribute no edges but must still appear in the
    # loads (with load 0) and in the global score (penalty-only term).
    graph = UndirectedGraph()
    for vertex in range(8):
        graph.add_vertex(vertex)
    graph.add_edge(0, 1, weight=2)
    graph.add_edge(1, 2)
    graph.add_edge(3, 4)
    csr = CSRGraph.from_undirected(graph)
    labels = np.array([0, 0, 1, 1, 0, 2, 1, 0])
    assignment = {int(orig): int(lab) for orig, lab in zip(csr.original_ids, labels)}
    assert locality(csr, labels) == pytest.approx(dict_metrics.locality(graph, assignment))
    assert cut_edges(csr, labels) == dict_metrics.cut_edges(graph, assignment)
    assert np.allclose(
        partition_loads(csr, labels, 3), dict_metrics.partition_loads(graph, assignment, 3)
    )
    assert global_score(csr, labels, 3) == pytest.approx(
        dict_metrics.global_score(graph, assignment, 3), rel=1e-9
    )


def test_csr_metrics_zero_weight_edges_behave_as_absent():
    # UndirectedGraph rejects zero weights, so the pinned behaviour is:
    # a zero-weight CSR edge contributes nothing to locality, loads or the
    # global score (same values as the graph without the edge) — but it
    # remains a countable edge for cut_edges, which is weight-oblivious.
    edges = np.asarray([[0, 1], [1, 2], [2, 3], [3, 0]])
    weights = np.asarray([2, 0, 1, 1])
    with_zero = CSRGraph.from_edge_list(edges, 4, weights=weights)
    without = CSRGraph.from_edge_list(edges[weights > 0], 4, weights=weights[weights > 0])
    labels = np.array([0, 0, 1, 1])
    assert locality(with_zero, labels) == pytest.approx(locality(without, labels))
    assert np.allclose(
        partition_loads(with_zero, labels, 2), partition_loads(without, labels, 2)
    )
    assert global_score(with_zero, labels, 2) == pytest.approx(
        global_score(without, labels, 2), rel=1e-9
    )
    # (1,2) crosses partitions: counted by cut_edges even at weight 0.
    assert cut_edges(without, labels) == 1
    assert cut_edges(with_zero, labels) == 2


def test_csr_cut_edges_self_loops_match_dict_semantics():
    # UndirectedGraph rejects self-loops outright; the pinned CSR contract
    # is that a self-loop is never a cut edge (its endpoints trivially
    # share a partition), so cut_edges equals the loop-free graph's count
    # and the `crossing.sum() // 2` halving stays exact (every half-edge
    # pair of a loop is either counted twice or not at all).
    edges = np.asarray([[0, 1], [1, 2], [2, 2], [0, 0]])
    with_loops = CSRGraph.from_edge_list(edges, 3)
    loop_free_graph = UndirectedGraph.from_edges([(0, 1), (1, 2)], num_vertices=3)
    for labels in (np.array([0, 1, 0]), np.array([0, 0, 1]), np.array([1, 1, 1])):
        assignment = {v: int(labels[v]) for v in range(3)}
        assert cut_edges(with_loops, labels) == dict_metrics.cut_edges(
            loop_free_graph, assignment
        )
        # The doubled edge array always yields an even crossing count.
        sources, targets, _ = with_loops.edge_array()
        assert int((labels[sources] != labels[targets]).sum()) % 2 == 0


def test_global_score_prefers_better_partitionings(two_cliques):
    good = _split(two_cliques)
    bad = two_cliques.original_ids % 2
    assert global_score(two_cliques, good, 2) > global_score(two_cliques, bad, 2)


def test_quality_summary_row(two_cliques):
    summary = quality_summary(two_cliques, _split(two_cliques), 2)
    row = summary.as_row()
    assert row["k"] == 2
    assert 0 <= row["phi"] <= 1


def test_partitioning_difference_pair_and_array():
    before = as_pair({0: 0, 1: 1, 2: 1})
    after = as_pair({0: 0, 1: 0, 2: 1, 3: 2})
    assert partitioning_difference(before, after) == pytest.approx(1 / 3)
    assert partitioning_difference(np.array([0, 1, 1]), np.array([0, 0, 1])) == pytest.approx(1 / 3)


def test_moved_vertices_counts_common_ids_only():
    before = as_pair({0: 0, 1: 1, 2: 1, 9: 0})  # 9 has left the graph
    after = as_pair({0: 0, 1: 0, 2: 1, 3: 2})  # 3 is new
    assert moved_vertices(before, after) == (1, 1 / 3)
    assert moved_vertices(before, as_pair({7: 1})) == (0, 0.0)
    assert moved_vertices(as_pair({}), after) == (0, 0.0)
    with pytest.raises(PartitioningError):
        moved_vertices((before[0][::-1], before[1][::-1]), after)


def test_partitioning_difference_shape_mismatch():
    with pytest.raises(PartitioningError):
        partitioning_difference(np.array([0, 1]), np.array([0, 1, 2]))


def test_load_statistics():
    stats = load_statistics([10, 20, 30])
    assert stats.mean == 20
    assert stats.imbalance == pytest.approx(1.5)
    assert stats.idle_fraction == pytest.approx(1 - 20 / 30)
    empty = load_statistics([])
    assert empty.imbalance == 1.0


def test_partition_load_statistics(two_cliques):
    stats = partition_load_statistics(two_cliques, _split(two_cliques), 2)
    assert stats.maximum >= stats.minimum


def test_format_table_and_series():
    rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": None}]
    text = format_table(rows, title="demo")
    assert "demo" in text and "a" in text and "0.500" in text
    assert "(empty)" in format_table([])
    series = format_series([1, 2], [3.0, 4.0], x_label="k", y_label="phi")
    assert "k" in series and "phi" in series


def test_improvement_percentage():
    assert improvement_percentage(10, 5) == pytest.approx(50.0)
    assert improvement_percentage(0, 5) == 0.0
