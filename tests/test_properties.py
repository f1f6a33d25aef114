"""Property-based tests (hypothesis) for core invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SpinnerConfig
from repro.core.elastic import expand_assignment, shrink_assignment
from repro.core.fast import FastSpinner
from repro.core.halting import HaltingTracker
from repro.core.incremental import incremental_initial_assignment
from repro.graph.conversion import to_weighted_undirected
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.undirected import UndirectedGraph
from repro.metrics.quality import locality, max_normalized_load, partition_loads
from repro.metrics.stability import partitioning_difference

from oracles.scoring import migration_probability


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def edge_lists(draw, max_vertices=30, max_edges=80):
    """Random undirected edge lists over a small vertex range."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    num_edges = draw(st.integers(min_value=1, max_value=max_edges))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=num_edges,
            max_size=num_edges,
        )
    )
    return n, [(u, v) for u, v in edges if u != v]


@st.composite
def directed_graphs(draw):
    n, edges = draw(edge_lists())
    graph = DiGraph.from_edges(edges, num_vertices=n)
    return graph


@st.composite
def undirected_graphs(draw):
    n, edges = draw(edge_lists())
    graph = UndirectedGraph()
    for v in range(n):
        graph.add_vertex(v)
    for u, v in edges:
        if not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


# ----------------------------------------------------------------------
# conversion invariants (eq. 3)
# ----------------------------------------------------------------------
@given(directed_graphs())
@settings(max_examples=40, deadline=None)
def test_conversion_preserves_directed_edge_count(graph):
    undirected = to_weighted_undirected(graph)
    self_loops = sum(1 for u, v in graph.edges() if u == v)
    assert undirected.total_weight == graph.num_edges - self_loops
    for _u, _v, weight in undirected.edges():
        assert weight in (1, 2)


@given(undirected_graphs())
@settings(max_examples=40, deadline=None)
def test_csr_roundtrip_preserves_structure(graph):
    csr = CSRGraph.from_undirected(graph)
    assert csr.num_edges == graph.num_edges
    assert int(csr.weighted_degrees.sum()) == sum(
        graph.weighted_degree(v) for v in graph.vertices()
    )


# ----------------------------------------------------------------------
# metric invariants
# ----------------------------------------------------------------------
@given(undirected_graphs(), st.integers(min_value=1, max_value=6), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_metric_ranges_for_random_assignments(graph, k, seed):
    rng = np.random.default_rng(seed)
    assignment = {v: int(rng.integers(k)) for v in graph.vertices()}
    phi = locality(graph, assignment)
    rho = max_normalized_load(graph, assignment, k)
    loads = partition_loads(graph, assignment, k)
    assert 0.0 <= phi <= 1.0
    assert rho >= 1.0 - 1e-9
    assert rho <= k + 1e-9
    assert loads.min() >= 0


@given(undirected_graphs())
@settings(max_examples=30, deadline=None)
def test_single_partition_has_perfect_locality(graph):
    assignment = {v: 0 for v in graph.vertices()}
    assert locality(graph, assignment) == 1.0
    assert max_normalized_load(graph, assignment, 1) == 1.0


@given(undirected_graphs(), st.integers(min_value=2, max_value=5))
@settings(max_examples=30, deadline=None)
def test_partitioning_difference_identity(graph, k):
    assignment = {v: v % k for v in graph.vertices()}
    assert partitioning_difference(assignment, assignment) == 0.0


# ----------------------------------------------------------------------
# Spinner invariants
# ----------------------------------------------------------------------
@given(undirected_graphs(), st.integers(min_value=1, max_value=5), st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_fast_spinner_outputs_valid_partitionings(graph, k, seed):
    config = SpinnerConfig(seed=seed, max_iterations=15)
    result = FastSpinner(config).partition(graph, k, track_history=False)
    assert result.labels.shape[0] == graph.num_vertices
    assert result.labels.min() >= 0 and result.labels.max() < k
    assert 0.0 <= result.phi <= 1.0
    assert result.rho >= 1.0 - 1e-9


@given(st.floats(min_value=-100, max_value=1000), st.floats(min_value=0, max_value=1000))
def test_migration_probability_is_a_probability(remaining, candidate_load):
    p = migration_probability(remaining, candidate_load)
    assert 0.0 <= p <= 1.0


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=60))
def test_halting_tracker_never_crashes_and_eventually_halts(scores):
    tracker = HaltingTracker(threshold=0.001, window=3)
    for score in scores:
        tracker.update(score)
    # Feeding a constant score long enough must trigger the steady state.
    for _ in range(5):
        halted = tracker.update(scores[-1])
    assert halted


# ----------------------------------------------------------------------
# elastic / incremental invariants
# ----------------------------------------------------------------------
@given(
    st.dictionaries(st.integers(0, 200), st.integers(0, 3), min_size=1, max_size=100),
    st.integers(min_value=1, max_value=4),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_expand_assignment_labels_in_range(assignment, added, seed):
    new_k = 4 + added
    expanded = expand_assignment(assignment, 4, new_k, seed=seed)
    assert set(expanded) == set(assignment)
    assert all(0 <= label < new_k for label in expanded.values())
    # Vertices that stay keep their exact previous label.
    for vertex, label in expanded.items():
        if label < 4:
            assert label == assignment[vertex]


@given(
    st.dictionaries(st.integers(0, 200), st.integers(0, 3), min_size=1, max_size=100),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_shrink_assignment_labels_in_range(assignment, seed):
    shrunk = shrink_assignment(assignment, 4, 2, seed=seed)
    assert set(shrunk) == set(assignment)
    assert all(0 <= label < 2 for label in shrunk.values())


@given(undirected_graphs(), st.integers(min_value=1, max_value=4))
@settings(max_examples=30, deadline=None)
def test_incremental_assignment_is_complete(graph, k):
    vertices = list(graph.vertices())
    previous = {v: v % k for v in vertices[: len(vertices) // 2]}
    assignment = incremental_initial_assignment(graph, previous, k)
    assert set(assignment) == set(vertices)
    assert all(0 <= label < k for label in assignment.values())
    for vertex, label in previous.items():
        assert assignment[vertex] == label
