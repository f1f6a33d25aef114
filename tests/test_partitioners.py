"""Tests for the baseline partitioners and the registry."""

import numpy as np
import pytest
from oracles.baselines import dict_run
from oracles.graphs import powerlaw_cluster

from repro.core.config import SpinnerConfig
from repro.graph.csr import CSRGraph
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


@pytest.fixture
def community_csr(community_graph) -> CSRGraph:
    return CSRGraph.from_undirected(community_graph)


@pytest.fixture
def two_cliques_csr(two_cliques) -> CSRGraph:
    return CSRGraph.from_undirected(two_cliques)


@pytest.mark.parametrize("partitioner", ALL_BASELINES, ids=lambda p: p.name)
def test_every_partitioner_returns_complete_valid_assignment(partitioner, community_csr):
    labels = partitioner.partition_array(community_csr, 4)
    assert labels.dtype == np.int64
    assert labels.shape == (community_csr.num_vertices,)
    assert labels.min() >= 0 and labels.max() < 4


@pytest.mark.parametrize("partitioner", ALL_BASELINES, ids=lambda p: p.name)
def test_run_reports_metrics(partitioner, two_cliques_csr):
    output = partitioner.run(two_cliques_csr, 2)
    assert 0.0 <= output.phi <= 1.0
    assert output.rho >= 1.0
    assert output.partitioner == partitioner.name


# METIS has no dictionary oracle: its multilevel scheme is the dictionary
# algorithm, run on a canonical copy of the CSR graph.
@pytest.mark.parametrize(
    "partitioner",
    [p for p in ALL_BASELINES if not isinstance(p, MetisLikePartitioner)],
    ids=lambda p: p.name,
)
def test_run_on_csr_matches_run_on_dict(partitioner, community_graph, community_csr):
    assignment, phi, rho = dict_run(partitioner, community_graph, 4)
    from_csr = partitioner.run(community_csr, 4)
    assert from_csr.assignment == assignment
    assert (from_csr.phi, from_csr.rho) == (phi, rho)
    assert from_csr.labels.dtype == np.int64
    assert from_csr.original_ids.shape == from_csr.labels.shape


def test_run_rejects_invalid_partition_count(two_cliques_csr):
    with pytest.raises(InvalidPartitionCountError):
        HashPartitioner().run(two_cliques_csr, 0)


def test_base_partitioner_is_abstract():
    with pytest.raises(TypeError):
        Partitioner()


def test_locality_aware_baselines_beat_hash(community_csr):
    hash_phi = HashPartitioner().run(community_csr, 4).phi
    for partitioner in (
        LinearDeterministicGreedy(seed=0),
        FennelPartitioner(seed=0),
        MetisLikePartitioner(seed=0),
        WangPartitioner(seed=0),
    ):
        assert partitioner.run(community_csr, 4).phi > hash_phi, partitioner.name


def test_metis_balance_is_tight(community_csr):
    partitioner = MetisLikePartitioner(balance_tolerance=1.05, seed=0)
    assert partitioner.run(community_csr, 4).rho <= 1.35


def test_metis_separates_two_cliques(two_cliques_csr):
    assert MetisLikePartitioner(seed=0).run(two_cliques_csr, 2).phi >= 0.85


def test_ldg_stream_orders(community_csr):
    for order in ("natural", "random", "bfs"):
        partitioner = LinearDeterministicGreedy(stream_order=order, seed=1)
        labels = partitioner.partition_array(community_csr, 4)
        assert labels.shape == (community_csr.num_vertices,)
    with pytest.raises(ValueError):
        LinearDeterministicGreedy(stream_order="zigzag")


def test_fennel_respects_capacity(community_csr):
    partitioner = FennelPartitioner(load_factor=1.1, seed=1)
    counts = np.bincount(partitioner.partition_array(community_csr, 4), minlength=4)
    capacity = 1.1 * community_csr.num_vertices / 4
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
    labels = WangPartitioner(seed=0).partition_array(CSRGraph.from_undirected(graph), 4)
    vertex_imbalance = np.bincount(labels).max() * 4 / graph.num_vertices
    assert vertex_imbalance < 1.6


def test_registry_lists_and_creates():
    names = available_partitioners()
    assert "spinner" in names and "metis" in names and "hash" in names
    partitioner = make_partitioner("spinner", config=SpinnerConfig(seed=1, max_iterations=10))
    assert partitioner.name == "spinner"
    with pytest.raises(KeyError):
        make_partitioner("does-not-exist")


def test_spinner_adapters_produce_assignments(two_cliques, two_cliques_csr):
    fast = make_partitioner("spinner", config=SpinnerConfig(seed=1, max_iterations=20))
    pregel = make_partitioner(
        "spinner-pregel", config=SpinnerConfig(seed=1, max_iterations=15)
    )
    for adapter in (fast, pregel):
        assignment = adapter.run(two_cliques_csr, 2).assignment
        assert set(assignment) == set(two_cliques.vertices())


def test_hash_partitioner_is_deterministic(two_cliques_csr):
    first = HashPartitioner().partition_array(two_cliques_csr, 4)
    second = HashPartitioner().partition_array(two_cliques_csr, 4)
    assert np.array_equal(first, second)


def test_random_partitioner_is_seeded_by_default(community_csr):
    # compare builds every baseline with its defaults: the random row
    # must not change from one run to the next.
    first = make_partitioner("random").partition_array(community_csr, 4)
    second = make_partitioner("random").partition_array(community_csr, 4)
    assert np.array_equal(first, second)
