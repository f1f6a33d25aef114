"""Tests for the CSR graph view."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.undirected import UndirectedGraph
from repro.partitioners.csr_stream import canonical_undirected


def test_from_undirected_roundtrip(two_cliques):
    csr = CSRGraph.from_undirected(two_cliques)
    assert csr.num_vertices == two_cliques.num_vertices
    assert csr.num_edges == two_cliques.num_edges
    back = canonical_undirected(csr)
    assert back.num_edges == two_cliques.num_edges
    assert back.total_weight == two_cliques.total_weight


def test_weighted_degrees_match(two_cliques):
    csr = CSRGraph.from_undirected(two_cliques)
    for dense, original in enumerate(csr.original_ids):
        assert csr.weighted_degree(dense) == two_cliques.weighted_degree(int(original))
        assert csr.degree(dense) == two_cliques.degree(int(original))


def test_edge_array_has_both_directions(triangle_graph):
    csr = CSRGraph.from_undirected(triangle_graph)
    sources, targets, weights = csr.edge_array()
    assert sources.shape[0] == 2 * triangle_graph.num_edges
    assert weights.sum() == 2 * triangle_graph.total_weight
    pairs = set(zip(sources.tolist(), targets.tolist()))
    assert (0, 1) in pairs and (1, 0) in pairs


def test_original_ids_for_non_contiguous_vertices():
    graph = UndirectedGraph.from_edges([(10, 20), (20, 30)])
    csr = CSRGraph.from_undirected(graph)
    assert list(csr.original_ids) == [10, 20, 30]
    assert csr.degree(1) == 2  # vertex 20


def test_from_edge_list():
    csr = CSRGraph.from_edge_list([(0, 1), (1, 2)], num_vertices=4)
    assert csr.num_vertices == 4
    assert csr.num_edges == 2
    assert csr.degree(3) == 0
    assert csr.weighted_degree(1) == 2


def test_from_edge_list_with_weights():
    csr = CSRGraph.from_edge_list([(0, 1)], num_vertices=2, weights=[5])
    assert csr.weighted_degree(0) == 5
    assert csr.total_weight == 5


def test_invalid_edge_list_shape_rejected():
    with pytest.raises(GraphError):
        CSRGraph.from_edge_list(np.zeros((2, 3)), num_vertices=3)


def test_neighbors_and_weights(triangle_graph):
    csr = CSRGraph.from_undirected(triangle_graph)
    neighbours = set(csr.neighbors(0).tolist())
    assert neighbours == {1, 2}
    assert csr.neighbor_weights(0).tolist() == [1, 1]


def test_empty_edge_list():
    csr = CSRGraph.from_edge_list([], num_vertices=3)
    assert csr.num_edges == 0
    assert csr.total_weight == 0
    assert csr.weighted_degrees.tolist() == [0, 0, 0]
