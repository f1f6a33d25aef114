"""Tests for the vectorized Spinner implementation."""

import numpy as np
import pytest

from repro.core.config import SpinnerConfig
from repro.core.fast import FastSpinner
from repro.errors import InvalidPartitionCountError, PartitioningError
from repro.graph.conversion import to_weighted_csr
from repro.graph.csr import CSRGraph
from repro.partitioners.hashing import HashPartitioner


@pytest.fixture
def community_graph(community_graph):
    """The conftest community graph as the CSR graph FastSpinner takes."""
    return CSRGraph.from_undirected(community_graph)


def test_partition_returns_valid_labels(community_graph, quick_config):
    result = FastSpinner(quick_config).partition(community_graph, 4)
    labels = result.labels
    assert labels.shape[0] == community_graph.num_vertices
    assert labels.min() >= 0 and labels.max() < 4
    assignment = result.to_assignment()
    assert set(assignment) == set(community_graph.original_ids.tolist())


def test_quality_beats_hash_partitioning(community_graph, quick_config):
    spinner = FastSpinner(quick_config).partition(community_graph, 4)
    hash_output = HashPartitioner().run(community_graph, 4)
    assert spinner.phi > hash_output.phi


def test_balance_close_to_capacity_bound(community_graph, quick_config):
    result = FastSpinner(quick_config).partition(community_graph, 4)
    # rho <= c holds with high probability; allow granularity slack on a
    # small graph (single hubs are a visible fraction of a partition).
    assert result.rho <= quick_config.additional_capacity + 0.15


def test_two_cliques_are_separated(two_cliques):
    # On a 10-vertex graph the paper's default c = 1.05 leaves a capacity
    # slack smaller than a single vertex degree, which can freeze migrations
    # (exactly the granularity effect Proposition 3's bound depends on), so
    # the toy graph uses a proportionally larger slack.
    config = SpinnerConfig(seed=1, max_iterations=60, additional_capacity=1.3)
    result = FastSpinner(config).partition(CSRGraph.from_undirected(two_cliques), 2)
    # Each clique should end up (almost) entirely in one partition.
    assert result.phi >= 0.85


def test_deterministic_for_fixed_seed(community_graph):
    config = SpinnerConfig(seed=11, max_iterations=30)
    first = FastSpinner(config).partition(community_graph, 4)
    second = FastSpinner(config).partition(community_graph, 4)
    assert np.array_equal(first.labels, second.labels)


def test_history_is_recorded_and_score_improves(community_graph, quick_config):
    result = FastSpinner(quick_config).partition(community_graph, 4)
    assert len(result.history) == result.iterations
    scores = [record.score for record in result.history]
    assert scores[-1] > scores[0]
    phis = [record.phi for record in result.history]
    assert phis[-1] > phis[0]


def test_initial_labels_mapping_and_array(community_graph, quick_config):
    spinner = FastSpinner(quick_config)
    csr = community_graph
    array_init = np.zeros(csr.num_vertices, dtype=np.int64)
    result = spinner.partition(csr, 2, initial_labels=array_init)
    assert result.labels.max() <= 1
    list_init = [0] * community_graph.num_vertices
    result2 = spinner.partition(community_graph, 2, initial_labels=list_init)
    assert result2.labels.shape[0] == community_graph.num_vertices


def test_invalid_inputs_rejected(community_graph, quick_config):
    spinner = FastSpinner(quick_config)
    with pytest.raises(InvalidPartitionCountError):
        spinner.partition(community_graph, 0)
    with pytest.raises(PartitioningError):
        spinner.partition(community_graph, 2, initial_labels=np.zeros(1))  # incomplete
    with pytest.raises(PartitioningError):
        spinner.partition(
            community_graph,
            2,
            initial_labels=np.full(community_graph.num_vertices, 7),
        )


def test_directed_input_uses_weighted_conversion(tiny_twitter, quick_config):
    graph = to_weighted_csr(tiny_twitter)
    assert set(np.unique(graph.weights).tolist()) == {1, 2}
    result = FastSpinner(quick_config).partition(graph, 4)
    assert 0.0 <= result.phi <= 1.0
    assert result.labels.shape[0] == tiny_twitter.num_vertices


def test_max_iterations_bound(community_graph):
    config = SpinnerConfig(seed=1, max_iterations=3, halt_window=50)
    result = FastSpinner(config).partition(community_graph, 4)
    assert result.iterations == 3
    assert result.halted_by == "max_iterations"


def test_halts_in_steady_state(community_graph):
    config = SpinnerConfig(seed=1, max_iterations=150)
    result = FastSpinner(config).partition(community_graph, 4)
    assert result.iterations < 150
    assert result.halted_by == "steady_state"


def test_message_counter_grows_with_migrations(community_graph, quick_config):
    result = FastSpinner(quick_config).partition(community_graph, 4)
    # At least the initialization messages are counted.
    assert result.total_messages >= 2 * community_graph.num_edges
