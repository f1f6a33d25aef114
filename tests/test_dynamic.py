"""Tests for dynamic graph change streams."""

import pytest

from repro.errors import GraphError
from repro.graph.dynamic import (
    EdgeArrivalStream,
    GraphDelta,
    bursty_new_edges,
    hub_birth_edges,
    random_new_edges,
)
from repro.graph.generators import erdos_renyi
from repro.graph.undirected import UndirectedGraph


@pytest.fixture
def full_graph():
    return erdos_renyi(150, 600, seed=11)


def test_snapshot_plus_withheld_covers_graph(full_graph):
    stream = EdgeArrivalStream(full_graph, holdout_fraction=0.3, seed=1)
    assert stream.num_snapshot_edges + stream.num_withheld_edges == full_graph.num_edges
    snapshot = stream.snapshot()
    assert snapshot.num_vertices == full_graph.num_vertices
    assert snapshot.num_edges == stream.num_snapshot_edges


def test_delta_releases_requested_fraction(full_graph):
    stream = EdgeArrivalStream(full_graph, holdout_fraction=0.4, seed=1)
    delta = stream.delta(fraction_of_snapshot=0.05)
    expected = round(stream.num_snapshot_edges * 0.05)
    assert abs(delta.num_new_edges - expected) <= 1


def test_delta_consumes_withheld_edges(full_graph):
    stream = EdgeArrivalStream(full_graph, holdout_fraction=0.4, seed=1)
    before = stream.num_withheld_edges
    delta = stream.delta(num_edges=10)
    assert delta.num_new_edges == 10
    assert stream.num_withheld_edges == before - 10
    stream.reset()
    assert stream.num_withheld_edges == before


def test_delta_requires_exactly_one_size_argument(full_graph):
    stream = EdgeArrivalStream(full_graph, holdout_fraction=0.4, seed=1)
    with pytest.raises(GraphError):
        stream.delta()
    with pytest.raises(GraphError):
        stream.delta(fraction_of_snapshot=0.1, num_edges=5)


def test_apply_delta_adds_edges(full_graph):
    stream = EdgeArrivalStream(full_graph, holdout_fraction=0.3, seed=1)
    snapshot = stream.snapshot()
    delta = stream.delta(num_edges=20)
    before = snapshot.num_edges
    delta.apply(snapshot)
    assert snapshot.num_edges == before + 20


def test_invalid_holdout_fraction(full_graph):
    with pytest.raises(GraphError):
        EdgeArrivalStream(full_graph, holdout_fraction=0.0)
    with pytest.raises(GraphError):
        EdgeArrivalStream(full_graph, holdout_fraction=1.0)


def test_empty_delta(full_graph):
    stream = EdgeArrivalStream(full_graph, holdout_fraction=0.3, seed=1)
    delta = stream.delta(num_edges=0)
    assert delta.num_new_edges == 0
    assert stream.num_withheld_edges == round(full_graph.num_edges * 0.3)
    snapshot = stream.snapshot()
    before = snapshot.num_edges
    delta.apply(snapshot)
    assert snapshot.num_edges == before


def test_zero_fraction_delta_is_empty(full_graph):
    stream = EdgeArrivalStream(full_graph, holdout_fraction=0.3, seed=1)
    assert stream.delta(fraction_of_snapshot=0.0).num_new_edges == 0


def test_over_request_is_capped_at_withheld_edges(full_graph):
    stream = EdgeArrivalStream(full_graph, holdout_fraction=0.2, seed=1)
    withheld = stream.num_withheld_edges
    delta = stream.delta(num_edges=withheld + 1000)
    assert delta.num_new_edges == withheld
    assert stream.num_withheld_edges == 0


def test_exhausted_stream_yields_empty_deltas(full_graph):
    stream = EdgeArrivalStream(full_graph, holdout_fraction=0.2, seed=1)
    stream.delta(num_edges=stream.num_withheld_edges)
    follow_up = stream.delta(fraction_of_snapshot=0.5)
    assert follow_up.num_new_edges == 0
    assert stream.num_withheld_edges == 0


def test_reset_replays_the_same_edges_in_order(full_graph):
    stream = EdgeArrivalStream(full_graph, holdout_fraction=0.4, seed=1)
    first = stream.delta(num_edges=25).added_edges
    second = stream.delta(num_edges=10).added_edges
    stream.reset()
    replay = stream.delta(num_edges=35).added_edges
    assert replay == first + second


def test_withheld_accounting_across_batches(full_graph):
    stream = EdgeArrivalStream(full_graph, holdout_fraction=0.4, seed=1)
    total = stream.num_withheld_edges
    released = 0
    while stream.num_withheld_edges:
        released += stream.delta(num_edges=17).num_new_edges
        assert stream.num_withheld_edges == total - released
    assert released == total


def test_apply_skips_already_present_edges(full_graph):
    stream = EdgeArrivalStream(full_graph, holdout_fraction=0.3, seed=1)
    snapshot = stream.snapshot()
    delta = stream.delta(num_edges=15)
    delta.apply(snapshot)
    before = snapshot.num_edges
    # Re-applying the same delta must be a no-op (edges already exist).
    delta.apply(snapshot)
    assert snapshot.num_edges == before


def _edge_set(graph):
    return sorted((min(u, v), max(u, v), w) for u, v, w in graph.edges())


@pytest.mark.parametrize(
    "edges, vertices",
    [
        ([(0, 1, 1), (3, 4, 0)], set()),
        ([(0, 1, 1), (3, -4, 1)], set()),
        ([(0, 1, 1)], {7, -2}),
    ],
    ids=["zero-weight", "negative-endpoint", "negative-vertex"],
)
def test_apply_rejects_an_invalid_delta_without_changing_the_graph(edges, vertices):
    graph = UndirectedGraph.from_edges([(1, 2), (2, 3), (3, 4)])
    before = (sorted(graph.vertices()), _edge_set(graph))
    with pytest.raises(GraphError):
        GraphDelta(added_edges=edges, added_vertices=vertices).apply(graph)
    assert (sorted(graph.vertices()), _edge_set(graph)) == before


def test_apply_skips_self_loops_like_ingest():
    graph = UndirectedGraph.from_edges([(1, 2), (2, 3)])
    GraphDelta(added_edges=[(0, 1, 1), (2, 2, 1)]).apply(graph)
    assert _edge_set(graph) == [(0, 1, 1), (1, 2, 1), (2, 3, 1)]


def test_random_new_edges_are_new(full_graph):
    delta = random_new_edges(full_graph, fraction=0.05, seed=3)
    for u, v, _w in delta.added_edges:
        assert not full_graph.has_edge(u, v)


def test_random_new_edges_zero_fraction(full_graph):
    assert random_new_edges(full_graph, fraction=0.0, seed=3).num_new_edges == 0


def test_random_new_edges_invalid_fraction(full_graph):
    with pytest.raises(GraphError):
        random_new_edges(full_graph, fraction=1.5, seed=3)


def test_graph_delta_new_vertices():
    delta = GraphDelta(added_edges=[(100, 101, 1)], added_vertices={100, 101})
    graph = erdos_renyi(10, 20, seed=0)
    delta.apply(graph)
    assert graph.has_edge(100, 101)


def test_bursty_new_edges_concentrate_on_hotspots(full_graph):
    delta = bursty_new_edges(full_graph, fraction=0.05, seed=3, num_hotspots=4)
    assert delta.num_new_edges > 0
    assert not delta.added_vertices
    endpoints = set()
    for u, v, weight in delta.added_edges:
        assert weight == 1
        assert u != v
        assert not full_graph.has_edge(u, v)
        endpoints.add(u)
    # Every edge has one endpoint among the (at most) 4 hotspots.
    assert len(endpoints) <= 4
    # No duplicate pairs within the delta.
    pairs = {(min(u, v), max(u, v)) for u, v, _w in delta.added_edges}
    assert len(pairs) == delta.num_new_edges


def test_bursty_new_edges_deterministic(full_graph):
    first = bursty_new_edges(full_graph, fraction=0.05, seed=9)
    second = bursty_new_edges(full_graph, fraction=0.05, seed=9)
    assert first.added_edges == second.added_edges


def test_bursty_new_edges_validation(full_graph):
    with pytest.raises(GraphError):
        bursty_new_edges(full_graph, fraction=2.0, seed=1)
    with pytest.raises(GraphError):
        bursty_new_edges(full_graph, fraction=0.1, seed=1, num_hotspots=0)
    assert bursty_new_edges(full_graph, fraction=0.0, seed=1).num_new_edges == 0
    assert bursty_new_edges(UndirectedGraph(), fraction=0.5, seed=1).num_new_edges == 0


def test_hub_birth_edges_create_new_hubs(full_graph):
    max_existing = max(full_graph.vertices())
    delta = hub_birth_edges(full_graph, fraction=0.1, seed=3, num_hubs=3)
    assert delta.num_new_edges > 0
    assert len(delta.added_vertices) == 3
    assert all(hub > max_existing for hub in delta.added_vertices)
    for u, v, _w in delta.added_edges:
        assert u in delta.added_vertices
        assert v in full_graph
    # Applying the delta materializes high-degree hubs.
    graph = full_graph
    before = graph.num_edges
    delta.apply(graph)
    assert graph.num_edges == before + delta.num_new_edges


def test_hub_birth_edges_deterministic(full_graph):
    first = hub_birth_edges(full_graph, fraction=0.1, seed=5)
    second = hub_birth_edges(full_graph, fraction=0.1, seed=5)
    assert first.added_edges == second.added_edges
    assert first.added_vertices == second.added_vertices


def test_hub_birth_edges_validation(full_graph):
    with pytest.raises(GraphError):
        hub_birth_edges(full_graph, fraction=-0.1, seed=1)
    with pytest.raises(GraphError):
        hub_birth_edges(full_graph, fraction=0.1, seed=1, num_hubs=0)
    assert hub_birth_edges(full_graph, fraction=0.0, seed=1).num_new_edges == 0
    assert hub_birth_edges(UndirectedGraph(), fraction=0.5, seed=1).num_new_edges == 0
