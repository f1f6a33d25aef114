"""Tests for the faithful Pregel implementation of Spinner."""

import numpy as np
import pytest

from repro.core.config import SpinnerConfig
from repro.core.program import (
    COMPUTE_MIGRATIONS,
    COMPUTE_SCORES,
    INITIALIZE,
    NEIGHBOR_DISCOVERY,
    NEIGHBOR_PROPAGATION,
)
from repro.core.batch_program import DirectedEdges
from repro.core.spinner import SpinnerPartitioner
from repro.errors import PartitioningError
from repro.graph.csr import CSRGraph
from repro.graph.conversion import to_weighted_undirected
from repro.graph.datasets import load_dataset, load_dataset_csr
from repro.metrics.quality import locality, max_normalized_load
from repro.partitioners.hashing import HashPartitioner

from oracles import metrics as dict_metrics
from oracles.graphs import directed_edges
from oracles.spinner import SpinnerProgram


@pytest.fixture
def two_cliques(two_cliques):
    """The conftest two-cliques graph (ids 0..9) as CSR."""
    return CSRGraph.from_undirected(two_cliques)


@pytest.fixture
def community_graph(community_graph):
    return CSRGraph.from_undirected(community_graph)


def test_phase_schedule_with_conversion():
    program = SpinnerProgram(4, SpinnerConfig(), convert_directed=True)
    assert program.phase(0) == NEIGHBOR_PROPAGATION
    assert program.phase(1) == NEIGHBOR_DISCOVERY
    assert program.phase(2) == INITIALIZE
    assert program.phase(3) == COMPUTE_SCORES
    assert program.phase(4) == COMPUTE_MIGRATIONS
    assert program.phase(5) == COMPUTE_SCORES
    assert program.iteration_of(3) == 0
    assert program.iteration_of(5) == 1


def test_phase_schedule_without_conversion():
    program = SpinnerProgram(4, SpinnerConfig(), convert_directed=False)
    assert program.phase(0) == INITIALIZE
    assert program.phase(1) == COMPUTE_SCORES
    assert program.phase(2) == COMPUTE_MIGRATIONS


def test_partition_undirected_graph(two_cliques, quick_config):
    partitioner = SpinnerPartitioner(quick_config, num_workers=2)
    result = partitioner.partition(two_cliques, 2)
    assert set(result.assignment) == set(two_cliques.original_ids.tolist())
    assert result.phi >= 0.85
    assert result.iterations >= 1
    assert len(result.history) == result.iterations


def test_partition_directed_graph_runs_conversion(small_directed, quick_config):
    partitioner = SpinnerPartitioner(quick_config, num_workers=2)
    result = partitioner.partition(directed_edges(small_directed), 2)
    undirected = to_weighted_undirected(small_directed)
    assert result.phi == pytest.approx(dict_metrics.locality(undirected, result.assignment))


def test_pregel_spinner_beats_hash(community_graph, quick_config):
    partitioner = SpinnerPartitioner(quick_config, num_workers=4)
    result = partitioner.partition(community_graph, 4)
    hash_phi = HashPartitioner().run(community_graph, 4).phi
    assert result.phi > hash_phi


def test_initial_assignment_is_respected(two_cliques):
    config = SpinnerConfig(seed=1, max_iterations=1, halt_window=1)
    partitioner = SpinnerPartitioner(config, num_workers=2)
    initial = {v: 0 if v < 5 else 1 for v in two_cliques.original_ids.tolist()}
    result = partitioner.partition(two_cliques, 2, initial_assignment=initial)
    # Starting from the optimum, one bounded iteration should not destroy it.
    assert result.phi >= 0.85


def test_incomplete_initial_assignment_rejected(two_cliques, quick_config):
    partitioner = SpinnerPartitioner(quick_config)
    with pytest.raises(PartitioningError):
        partitioner.partition(two_cliques, 2, initial_assignment={0: 0})


def test_history_metrics_track_partitioning_state(community_graph, quick_config):
    partitioner = SpinnerPartitioner(quick_config, num_workers=4)
    result = partitioner.partition(community_graph, 4)
    assert result.history[-1].phi == pytest.approx(result.phi, abs=0.1)
    scores = [record.score for record in result.history]
    assert scores[-1] >= scores[0]


def test_simulated_time_and_messages_positive(two_cliques, quick_config):
    partitioner = SpinnerPartitioner(quick_config, num_workers=2)
    result = partitioner.partition(two_cliques, 2)
    assert result.total_messages > 0
    assert result.simulated_time() > 0


def test_worker_local_updates_toggle(community_graph):
    base = SpinnerConfig(seed=5, max_iterations=25)
    with_async = SpinnerPartitioner(base, num_workers=4).partition(community_graph, 4)
    without_async = SpinnerPartitioner(
        base.with_options(worker_local_updates=False), num_workers=4
    ).partition(community_graph, 4)
    # Both must produce valid, reasonable partitionings.
    assert with_async.phi > 0.2
    assert without_async.phi > 0.2


def test_directed_run_reports_the_eq3_quality_it_optimized():
    # The run always converts with eq. (3), so phi/rho are read on that view.
    with pytest.raises(TypeError):
        SpinnerConfig(direction_aware=False)
    weighted = load_dataset_csr("TW", scale=0.05)
    result = SpinnerPartitioner(SpinnerConfig(seed=3, max_iterations=20)).partition(
        directed_edges(load_dataset("TW", scale=0.05)), 4
    )
    labels = np.array([result.assignment[v] for v in weighted.original_ids.tolist()])
    assert (result.phi, result.rho) == (
        locality(weighted, labels), max_normalized_load(weighted, labels, 4)
    )


def test_directed_edges_must_name_known_vertices():
    edges = DirectedEdges(np.array([3, 1]), np.array([1, 3]), np.array([3, 7]))
    with pytest.raises(PartitioningError, match="not among the vertex ids"):
        SpinnerPartitioner().partition(edges, 2)
