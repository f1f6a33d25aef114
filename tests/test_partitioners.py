"""Tests for the baseline partitioners and the registry."""

import numpy as np
import pytest

from repro.core.config import SpinnerConfig
from repro.graph.csr import CSRGraph
from repro.graph.generators import powerlaw_cluster
from repro.metrics.quality import locality, max_normalized_load
from repro.partitioners.base import Partitioner
from repro.partitioners.fennel import FennelPartitioner
from repro.partitioners.hashing import HashPartitioner, ModuloPartitioner
from repro.partitioners.ldg import LinearDeterministicGreedy
from repro.partitioners.metis import MetisLikePartitioner
from repro.partitioners.random_part import RandomPartitioner
from repro.partitioners.registry import available_partitioners, make_partitioner
from repro.partitioners.wang import WangPartitioner
from repro.errors import InvalidPartitionCountError


ALL_BASELINES = [
    HashPartitioner(),
    ModuloPartitioner(),
    RandomPartitioner(seed=0),
    LinearDeterministicGreedy(seed=0),
    FennelPartitioner(seed=0),
    MetisLikePartitioner(seed=0),
    WangPartitioner(seed=0),
]


@pytest.mark.parametrize("partitioner", ALL_BASELINES, ids=lambda p: p.name)
def test_every_partitioner_returns_complete_valid_assignment(partitioner, community_graph):
    assignment = dict(partitioner.partition(community_graph, 4))
    assert set(assignment) == set(community_graph.vertices())
    assert all(0 <= label < 4 for label in assignment.values())


@pytest.mark.parametrize("partitioner", ALL_BASELINES, ids=lambda p: p.name)
def test_run_reports_metrics(partitioner, two_cliques):
    output = partitioner.run(two_cliques, 2)
    assert 0.0 <= output.phi <= 1.0
    assert output.rho >= 1.0
    assert output.partitioner == partitioner.name


# METIS coarsens in dictionary insertion order, so its array path (on a
# canonical re-insertion of the graph) may pick a different assignment.
@pytest.mark.parametrize(
    "partitioner",
    [p for p in ALL_BASELINES if not isinstance(p, MetisLikePartitioner)],
    ids=lambda p: p.name,
)
def test_run_on_csr_matches_run_on_dict(partitioner, community_graph):
    from_dict = partitioner.run(community_graph, 4)
    from_csr = partitioner.run(CSRGraph.from_undirected(community_graph), 4)
    assert from_csr.assignment == from_dict.assignment
    assert (from_csr.phi, from_csr.rho) == (from_dict.phi, from_dict.rho)
    assert from_csr.labels.dtype == np.int64
    assert from_csr.original_ids.shape == from_csr.labels.shape


def test_run_rejects_invalid_partition_count(two_cliques):
    with pytest.raises(InvalidPartitionCountError):
        HashPartitioner().run(two_cliques, 0)


def test_base_partitioner_is_abstract(two_cliques):
    with pytest.raises(NotImplementedError):
        Partitioner().partition(two_cliques, 2)


def test_locality_aware_baselines_beat_hash(community_graph):
    hash_phi = locality(community_graph, HashPartitioner().partition(community_graph, 4))
    for partitioner in (
        LinearDeterministicGreedy(seed=0),
        FennelPartitioner(seed=0),
        MetisLikePartitioner(seed=0),
        WangPartitioner(seed=0),
    ):
        phi = locality(community_graph, dict(partitioner.partition(community_graph, 4)))
        assert phi > hash_phi, partitioner.name


def test_metis_balance_is_tight(community_graph):
    partitioner = MetisLikePartitioner(balance_tolerance=1.05, seed=0)
    assignment = dict(partitioner.partition(community_graph, 4))
    rho = max_normalized_load(community_graph, assignment, 4)
    assert rho <= 1.35


def test_metis_separates_two_cliques(two_cliques):
    assignment = dict(MetisLikePartitioner(seed=0).partition(two_cliques, 2))
    phi = locality(two_cliques, assignment)
    assert phi >= 0.85


def test_ldg_stream_orders(community_graph):
    for order in ("natural", "random", "bfs"):
        partitioner = LinearDeterministicGreedy(stream_order=order, seed=1)
        assignment = dict(partitioner.partition(community_graph, 4))
        assert set(assignment) == set(community_graph.vertices())
    with pytest.raises(ValueError):
        LinearDeterministicGreedy(stream_order="zigzag")


def test_fennel_respects_capacity(community_graph):
    partitioner = FennelPartitioner(load_factor=1.1, seed=1)
    assignment = dict(partitioner.partition(community_graph, 4))
    counts = [0, 0, 0, 0]
    for label in assignment.values():
        counts[label] += 1
    capacity = 1.1 * community_graph.num_vertices / 4
    assert max(counts) <= capacity + 1


def test_fennel_validation():
    with pytest.raises(ValueError):
        FennelPartitioner(gamma=1.0)
    with pytest.raises(ValueError):
        FennelPartitioner(load_factor=0.5)
    with pytest.raises(ValueError):
        FennelPartitioner(stream_order="bfs")


def test_wang_balances_vertices_not_edges():
    # On a hub-heavy graph, vertex-balanced partitioning leaves the edge
    # balance loose — the property the paper points out for Wang et al.
    graph = powerlaw_cluster(400, edges_per_vertex=6, triangle_probability=0.3, seed=2)
    assignment = dict(WangPartitioner(seed=0).partition(graph, 4))
    counts = {}
    for label in assignment.values():
        counts[label] = counts.get(label, 0) + 1
    vertex_imbalance = max(counts.values()) * 4 / graph.num_vertices
    assert vertex_imbalance < 1.6


def test_registry_lists_and_creates():
    names = available_partitioners()
    assert "spinner" in names and "metis" in names and "hash" in names
    partitioner = make_partitioner("spinner", config=SpinnerConfig(seed=1, max_iterations=10))
    assert partitioner.name == "spinner"
    with pytest.raises(KeyError):
        make_partitioner("does-not-exist")


def test_spinner_adapters_produce_assignments(two_cliques):
    fast = make_partitioner("spinner", config=SpinnerConfig(seed=1, max_iterations=20))
    pregel = make_partitioner(
        "spinner-pregel", config=SpinnerConfig(seed=1, max_iterations=15)
    )
    for adapter in (fast, pregel):
        assignment = dict(adapter.partition(two_cliques, 2))
        assert set(assignment) == set(two_cliques.vertices())


def test_hash_partitioner_is_deterministic(two_cliques):
    first = HashPartitioner().partition(two_cliques, 4)
    second = HashPartitioner().partition(two_cliques, 4)
    assert first == second
