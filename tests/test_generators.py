"""Tests for the synthetic graph generators."""

import pytest

from repro.errors import GraphError
from repro.graph.digraph import DiGraph
from repro.graph.generators import to_directed_reciprocal

from oracles.graphs import (
    barabasi_albert,
    erdos_renyi,
    powerlaw_cluster,
    ring_lattice,
    watts_strogatz,
)


def _triangles(graph) -> int:
    """Triangles, each counted once per edge (three times)."""
    return sum(len(graph.neighbors(u).keys() & graph.neighbors(v).keys()) for u, v, _ in graph.edges())


def _reciprocity(graph) -> float:
    """Fraction of directed edges whose reverse edge also exists."""
    return sum(graph.has_edge(v, u) for u, v in graph.edges()) / graph.num_edges


def test_ring_lattice_is_regular():
    graph = ring_lattice(20, degree=4)
    assert graph.num_vertices == 20
    assert graph.num_edges == 40
    assert all(graph.degree(v) == 4 for v in graph.vertices())


def test_ring_lattice_rejects_odd_degree():
    with pytest.raises(GraphError):
        ring_lattice(10, degree=3)


def test_watts_strogatz_preserves_edge_count():
    graph = watts_strogatz(100, degree=6, beta=0.3, seed=1)
    assert graph.num_vertices == 100
    assert graph.num_edges == 300


def test_watts_strogatz_beta_zero_is_lattice():
    lattice = ring_lattice(50, degree=4)
    graph = watts_strogatz(50, degree=4, beta=0.0, seed=1)
    assert sorted(graph.edges()) == sorted(lattice.edges())


def test_watts_strogatz_rejects_bad_beta():
    with pytest.raises(GraphError):
        watts_strogatz(50, degree=4, beta=1.5)


def test_watts_strogatz_deterministic_for_seed():
    first = watts_strogatz(80, degree=6, beta=0.5, seed=42)
    second = watts_strogatz(80, degree=6, beta=0.5, seed=42)
    assert sorted(first.edges()) == sorted(second.edges())


def test_erdos_renyi_size():
    graph = erdos_renyi(100, 300, seed=2)
    assert graph.num_vertices == 100
    assert graph.num_edges <= 300
    assert graph.num_edges >= 250  # a few collisions are possible


def test_barabasi_albert_has_hubs():
    graph = barabasi_albert(500, edges_per_vertex=5, seed=3)
    degrees = [graph.degree(v) for v in graph.vertices()]
    assert max(degrees) > 4 * sum(degrees) / len(degrees)  # hub-dominated


def test_barabasi_albert_directed_variant():
    graph = barabasi_albert(200, edges_per_vertex=4, seed=3, directed=True)
    assert isinstance(graph, DiGraph)
    assert graph.num_edges >= 4 * (200 - 4)


def test_barabasi_albert_rejects_small_n():
    with pytest.raises(GraphError):
        barabasi_albert(3, edges_per_vertex=5)


def test_powerlaw_cluster_has_clustering():
    clustered = powerlaw_cluster(400, edges_per_vertex=5, triangle_probability=0.8, seed=4)
    plain = barabasi_albert(400, edges_per_vertex=5, seed=4)
    assert _triangles(clustered) > _triangles(plain)


def test_to_directed_reciprocal_controls_reciprocity():
    base = powerlaw_cluster(300, edges_per_vertex=5, triangle_probability=0.3, seed=5)
    high = to_directed_reciprocal(base, reciprocity=0.9, seed=1)
    low = to_directed_reciprocal(base, reciprocity=0.1, seed=1)
    assert _reciprocity(high) > _reciprocity(low)
