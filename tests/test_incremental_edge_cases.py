"""Edge cases of the incremental-repartitioning initializers.

The serving churn path (:mod:`repro.serving.churn`) feeds arbitrary
:class:`~repro.graph.dynamic.GraphDelta` batches into
``adapt_to_graph_changes``, which seeds label propagation through
:mod:`repro.core.incremental`.  These tests pin the degenerate delta
shapes that path can produce — an empty delta, a delta made only of
brand-new vertices, and a delta entirely inside one partition — on the
array initializer and its dictionary oracle.
"""

import numpy as np
import pytest

from repro.core.incremental import incremental_initial_labels
from repro.errors import PartitioningError
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import GraphDelta

from oracles.assignments import as_pair
from oracles.dynamic import apply_delta
from oracles.graphs import erdos_renyi
from oracles.incremental import incremental_initial_assignment


@pytest.fixture
def graph():
    return erdos_renyi(60, 240, seed=13)


@pytest.fixture
def previous(graph):
    return {vertex: vertex % 4 for vertex in graph.vertices()}


def _labels_via_csr(graph, previous, num_partitions):
    csr = CSRGraph.from_undirected(graph)
    labels = incremental_initial_labels(csr, as_pair(previous), num_partitions)
    return {
        int(vertex): int(label)
        for vertex, label in zip(csr.original_ids.tolist(), labels.tolist())
    }


def test_empty_delta_preserves_assignment_exactly(graph, previous):
    delta = GraphDelta()
    apply_delta(delta, graph)
    assignment = incremental_initial_assignment(graph, previous, 4)
    assert assignment == previous
    assert _labels_via_csr(graph, previous, 4) == assignment


def test_new_vertices_only_delta_places_least_loaded(graph, previous):
    # A delta with brand-new vertices and no edges between old ones — the
    # hub-birth shape before any hub edges arrive.
    new_ids = [200, 201, 202]
    delta = GraphDelta(added_vertices=set(new_ids))
    apply_delta(delta, graph)
    assignment = incremental_initial_assignment(graph, previous, 4)
    for vertex, label in previous.items():
        assert assignment[vertex] == label
    for vertex in new_ids:
        assert 0 <= assignment[vertex] < 4
    assert _labels_via_csr(graph, previous, 4) == assignment


def test_new_vertex_with_edges_is_affected_and_placed(graph, previous):
    delta = GraphDelta(added_edges=[(300, 0, 1), (300, 1, 1)], added_vertices={300})
    apply_delta(delta, graph)
    assignment = incremental_initial_assignment(graph, previous, 4)
    assert 0 <= assignment[300] < 4
    for vertex, label in previous.items():
        assert assignment[vertex] == label
    assert _labels_via_csr(graph, previous, 4) == assignment


def test_delta_within_one_partition_changes_no_labels(graph, previous):
    # Edges strictly inside partition 2 (vertices 2, 6, 10, ... mod 4 == 2):
    # the initializer must keep every label, so a serving repartition
    # triggered by such a delta starts from a still-perfect seed.
    members = [vertex for vertex in sorted(graph.vertices()) if vertex % 4 == 2]
    edges = []
    for u, v in zip(members, members[2:]):
        if not graph.has_edge(u, v):
            edges.append((u, v, 1))
    assert edges, "fixture graph left no room for intra-partition edges"
    delta = GraphDelta(added_edges=edges)
    apply_delta(delta, graph)
    assignment = incremental_initial_assignment(graph, previous, 4)
    assert assignment == previous
    assert _labels_via_csr(graph, previous, 4) == assignment


def test_stale_previous_vertices_are_ignored(graph, previous):
    stale = dict(previous)
    stale[10**6] = 3  # refers to a vertex that does not exist anymore
    assignment = incremental_initial_assignment(graph, stale, 4)
    assert assignment == previous
    assert 10**6 not in assignment


def test_invalid_previous_labels_rejected(graph, previous):
    bad = dict(previous)
    bad[0] = 4  # out of range for k=4
    with pytest.raises(PartitioningError):
        incremental_initial_assignment(graph, bad, 4)
    with pytest.raises(PartitioningError):
        incremental_initial_labels(CSRGraph.from_undirected(graph), as_pair(bad), 4)


def test_array_twin_matches_on_random_previous(graph):
    rng = np.random.default_rng(7)
    previous = {
        vertex: int(rng.integers(4))
        for vertex in graph.vertices()
        if rng.random() < 0.8  # leave ~20% of vertices "new"
    }
    dict_assignment = incremental_initial_assignment(graph, previous, 4)
    assert _labels_via_csr(graph, previous, 4) == dict_assignment


def test_sorted_id_label_pair_matches_the_mapping(graph):
    rng = np.random.default_rng(11)
    previous = {
        vertex: int(rng.integers(4))
        for vertex in graph.vertices()
        if rng.random() < 0.8
    }
    previous[10**6] = 2  # stale entries are ignored on both paths
    csr = CSRGraph.from_undirected(graph)
    ids = np.asarray(sorted(previous), dtype=np.int64)
    labels = np.asarray([previous[v] for v in ids.tolist()], dtype=np.int64)
    from_pair = incremental_initial_labels(csr, (ids, labels), 4)
    assert dict(zip(csr.original_ids.tolist(), from_pair.tolist())) == (
        incremental_initial_assignment(graph, previous, 4)
    )
    with pytest.raises(PartitioningError):
        incremental_initial_labels(csr, (ids[::-1], labels[::-1]), 4)
    with pytest.raises(PartitioningError):
        incremental_initial_labels(csr, (ids, labels[:-1]), 4)
    with pytest.raises(PartitioningError):
        incremental_initial_labels(csr, (ids, np.full_like(labels, 4)), 4)
