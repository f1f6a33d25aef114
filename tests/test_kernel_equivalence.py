"""Equivalence suite for the two FastSpinner kernels.

The frontier kernel must be *byte-identical* to the dense reference
kernel — same labels, same history, same message counts — for every seed,
every ``k`` and every graph family.  These tests pin that contract over
the generator zoo and cross-check the vectorized data path (direct
DiGraph→CSR conversion, array-native initializers) against the dict-based
oracles.
"""

import numpy as np
import pytest

from repro.core.config import SpinnerConfig
from repro.core.elastic import expand_labels, resize_labels, shrink_labels
from repro.core.fast import FastSpinner
from repro.core.incremental import incremental_initial_labels
from repro.core.spinner import SpinnerPartitioner
from repro.errors import InvalidPartitionCountError, PartitioningError
from repro.graph.conversion import to_weighted_csr, to_weighted_undirected
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph

from oracles.dense_kernel import DenseSpinner
from oracles.graphs import (
    as_csr,
    barabasi_albert,
    erdos_renyi,
    powerlaw_cluster,
    spinner_input,
    watts_strogatz,
)
from oracles.incremental import incremental_initial_assignment
from oracles.metrics import locality

GENERATOR_ZOO = {
    "watts_strogatz": lambda: watts_strogatz(200, degree=8, beta=0.3, seed=5),
    "barabasi_albert": lambda: barabasi_albert(220, edges_per_vertex=4, seed=6),
    "erdos_renyi": lambda: erdos_renyi(240, num_edges=1400, seed=7),
    "powerlaw_cluster": lambda: powerlaw_cluster(
        260, edges_per_vertex=5, triangle_probability=0.5, seed=8
    ),
}


def _history_rows(result):
    return [
        (record.iteration, record.phi, record.rho, record.score, record.migrations)
        for record in result.history
    ]


def _run_both(graph, num_partitions, config):
    graph = as_csr(graph)
    dense = DenseSpinner(config).partition(graph, num_partitions)
    frontier = FastSpinner(config).partition(graph, num_partitions)
    return dense, frontier


@pytest.mark.parametrize("generator", sorted(GENERATOR_ZOO))
@pytest.mark.parametrize("num_partitions", [2, 4, 8])
def test_frontier_kernel_is_byte_identical(generator, num_partitions):
    graph = GENERATOR_ZOO[generator]()
    config = SpinnerConfig(seed=13, max_iterations=30)
    dense, frontier = _run_both(graph, num_partitions, config)
    assert np.array_equal(dense.labels, frontier.labels)
    assert dense.iterations == frontier.iterations
    assert dense.halted_by == frontier.halted_by
    assert dense.phi == frontier.phi
    assert dense.rho == frontier.rho
    assert dense.total_messages == frontier.total_messages
    assert _history_rows(dense) == _history_rows(frontier)


def test_frontier_kernel_identical_on_directed_input(tiny_twitter):
    config = SpinnerConfig(seed=4, max_iterations=25)
    dense, frontier = _run_both(tiny_twitter, 4, config)
    assert np.array_equal(dense.labels, frontier.labels)
    assert _history_rows(dense) == _history_rows(frontier)


def test_frontier_kernel_identical_without_ablation_switches(community_graph):
    config = SpinnerConfig(
        seed=9,
        max_iterations=20,
        balance_penalty=False,
        probabilistic_migration=False,
        prefer_current_label=False,
    )
    dense, frontier = _run_both(community_graph, 4, config)
    assert np.array_equal(dense.labels, frontier.labels)
    assert _history_rows(dense) == _history_rows(frontier)


def test_frontier_adaptation_matches_dense(tiny_tuenti, quick_config):
    tiny_tuenti = as_csr(tiny_tuenti)
    initial = FastSpinner(quick_config).partition(tiny_tuenti, 4, track_history=False)
    assignment = initial.to_assignment()
    dense = DenseSpinner(quick_config)
    frontier = FastSpinner(quick_config)
    dense_inc = dense.adapt_to_graph_changes(tiny_tuenti, assignment, 4)
    frontier_inc = frontier.adapt_to_graph_changes(tiny_tuenti, assignment, 4)
    assert np.array_equal(dense_inc.labels, frontier_inc.labels)
    dense_el = dense.adapt_to_partition_change(tiny_tuenti, assignment, 4, 6)
    frontier_el = frontier.adapt_to_partition_change(tiny_tuenti, assignment, 4, 6)
    assert np.array_equal(dense_el.labels, frontier_el.labels)


def test_agrees_with_pregel_spinner_on_small_graphs(two_cliques):
    config = SpinnerConfig(seed=1, max_iterations=60, additional_capacity=1.3)
    fast = FastSpinner(config).partition(as_csr(two_cliques), 2)
    pregel = SpinnerPartitioner(config, num_workers=2).partition(spinner_input(two_cliques), 2)
    pregel_phi = locality(two_cliques, pregel.assignment)
    # Both implementations must separate the two cliques cleanly.
    assert fast.phi >= 0.85
    assert pregel_phi >= 0.85


def test_agreement_with_pregel_on_community_graph(community_graph):
    config = SpinnerConfig(seed=3, max_iterations=25)
    fast = FastSpinner(config).partition(as_csr(community_graph), 4)
    pregel = SpinnerPartitioner(config, num_workers=2).partition(
        spinner_input(community_graph), 4
    )
    pregel_phi = locality(community_graph, pregel.assignment)
    # Same algorithm, different execution model: quality must agree closely.
    assert abs(fast.phi - pregel_phi) < 0.2


# ----------------------------------------------------------------------
# vectorized data-path equivalence
# ----------------------------------------------------------------------
def _csr_as_dict(csr):
    return {
        int(csr.original_ids[dense]): sorted(
            zip(
                csr.original_ids[csr.neighbors(dense)].tolist(),
                csr.neighbor_weights(dense).tolist(),
            )
        )
        for dense in range(csr.num_vertices)
    }


@pytest.mark.parametrize("direction_aware", [True, False])
def test_direct_digraph_csr_conversion_matches_dict_path(direction_aware):
    graph = DiGraph.from_edges(
        [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4), (5, 5), (7, 2)]
    )
    graph.add_vertex(9)  # isolated vertex must survive the conversion
    direct = to_weighted_csr(graph, direction_aware)
    if direction_aware:
        via_dict = CSRGraph.from_undirected(to_weighted_undirected(graph))
    else:
        from repro.graph.conversion import undirected_view_unweighted

        via_dict = CSRGraph.from_undirected(undirected_view_unweighted(graph))
    assert np.array_equal(direct.original_ids, via_dict.original_ids)
    assert np.array_equal(direct.weighted_degrees, via_dict.weighted_degrees)
    assert direct.total_weight == via_dict.total_weight
    assert _csr_as_dict(direct) == _csr_as_dict(via_dict)


def test_array_incremental_initializer_matches_dict_path(tiny_tuenti):
    csr = CSRGraph.from_undirected(tiny_tuenti)
    vertices = sorted(tiny_tuenti.vertices())
    # Half the graph keeps previous labels; the rest count as new arrivals.
    previous = {v: v % 3 for v in vertices[: len(vertices) // 2]}
    previous[10_000_000] = 1  # stale vertex: ignored by both paths
    expected = incremental_initial_assignment(tiny_tuenti, previous, 3)
    got = incremental_initial_labels(csr, previous, 3)
    assert {
        int(original): int(label)
        for original, label in zip(csr.original_ids, got)
    } == expected


def test_array_incremental_initializer_validates_labels():
    csr = CSRGraph.from_edge_list([(0, 1)], num_vertices=2)
    with pytest.raises(PartitioningError):
        incremental_initial_labels(csr, {0: 5, 1: 0}, 2)


def test_expand_labels_moves_expected_fraction():
    labels = np.arange(4000, dtype=np.int64) % 4
    expanded = expand_labels(labels, 4, 8, seed=1)
    moved = expanded != labels
    assert moved.mean() == pytest.approx(0.5, abs=0.05)  # n/(k+n) = 4/8
    assert expanded.min() >= 0 and expanded.max() < 8
    assert set(np.unique(expanded[moved]).tolist()) <= set(range(4, 8))


def test_shrink_labels_empties_removed_partitions():
    labels = np.arange(400, dtype=np.int64) % 4
    shrunk = shrink_labels(labels, 4, 2, seed=1)
    assert shrunk.min() >= 0 and shrunk.max() < 2
    unchanged = labels < 2
    assert np.array_equal(shrunk[unchanged], labels[unchanged])


def test_resize_labels_dispatch_and_validation():
    labels = np.array([0, 1], dtype=np.int64)
    same = resize_labels(labels, 2, 2)
    assert np.array_equal(same, labels)
    same[0] = 1  # returned array is a copy
    assert labels[0] == 0
    assert resize_labels(labels, 2, 1, seed=0).max() == 0
    with pytest.raises(InvalidPartitionCountError):
        expand_labels(labels, 2, 2)
    with pytest.raises(InvalidPartitionCountError):
        shrink_labels(labels, 2, 0)
    with pytest.raises(PartitioningError):
        expand_labels(np.array([5]), 2, 4)


def test_vectorized_mapping_initializer_missing_vertex_message():
    graph = DiGraph.from_edges([(10, 20), (20, 30)])
    spinner = FastSpinner(SpinnerConfig(seed=0, max_iterations=2))
    with pytest.raises(PartitioningError, match="initial labels miss vertex 30"):
        spinner.partition(as_csr(graph), 2, initial_labels={10: 0, 20: 1})


def test_vectorized_mapping_initializer_non_contiguous_ids(quick_config):
    graph = DiGraph.from_edges([(100, 7), (7, 100), (7, 55), (55, 200)])
    mapping = {100: 0, 7: 1, 55: 0, 200: 1}
    result = FastSpinner(quick_config).partition(
        as_csr(graph), 2, initial_labels=mapping, track_history=False
    )
    assert result.labels.shape[0] == 4
    assert set(result.to_assignment()) == set(mapping)
