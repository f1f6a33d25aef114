"""Tests for dynamic graph change streams.

The streams and churn generators run on CSR arrays; the churn generators
are pinned seed for seed against their dictionary oracles
(``oracles.dynamic``).
"""

import pytest

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.delta_csr import DeltaCSR
from repro.graph.dynamic import (
    EdgeArrivalStream,
    GraphDelta,
    bursty_new_edges,
    hub_birth_edges,
    random_new_edges,
)

from oracles import dynamic as dict_dynamic
from oracles.graphs import erdos_renyi, powerlaw_cluster


@pytest.fixture
def dict_graph():
    return erdos_renyi(150, 600, seed=11)


@pytest.fixture
def full_graph(dict_graph):
    return CSRGraph.from_undirected(dict_graph)


def _empty_graph() -> CSRGraph:
    return CSRGraph.from_edge_list([], 0)


def _grow(graph: CSRGraph, delta: GraphDelta) -> CSRGraph:
    live = DeltaCSR(graph)
    live.append(delta)
    return live.to_csr()


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
    assert _grow(snapshot, delta).num_edges == snapshot.num_edges + 20


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
    assert _grow(snapshot, delta).num_edges == snapshot.num_edges


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
    delta = stream.delta(num_edges=15)
    grown = _grow(stream.snapshot(), delta)
    # Re-applying the same delta must be a no-op (edges already exist).
    assert _grow(grown, delta).num_edges == grown.num_edges


def _edge_set(graph: CSRGraph):
    sources, targets, weights = graph.edge_array()
    ids = graph.original_ids
    forward = sources < targets
    return sorted(
        zip(ids[sources[forward]].tolist(), ids[targets[forward]].tolist(),
            weights[forward].tolist())
    )


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
    live = DeltaCSR(CSRGraph.from_edge_list([(0, 1), (1, 2), (2, 3)], 4))
    before = (live.num_vertices, _edge_set(live.to_csr()))
    with pytest.raises(GraphError):
        live.append(GraphDelta(added_edges=edges, added_vertices=vertices))
    assert (live.num_vertices, _edge_set(live.to_csr())) == before


def test_apply_skips_self_loops_like_ingest():
    graph = CSRGraph.from_edge_list([(1, 2), (2, 3)], 4)
    grown = _grow(graph, GraphDelta(added_edges=[(0, 1, 1), (2, 2, 1)]))
    assert _edge_set(grown) == [(0, 1, 1), (1, 2, 1), (2, 3, 1)]


def test_random_new_edges_are_new(full_graph, dict_graph):
    delta = random_new_edges(full_graph, fraction=0.05, seed=3)
    for u, v, _w in delta.added_edges:
        assert not dict_graph.has_edge(u, v)


def test_random_new_edges_zero_fraction(full_graph):
    assert random_new_edges(full_graph, fraction=0.0, seed=3).num_new_edges == 0


def test_random_new_edges_invalid_fraction(full_graph):
    with pytest.raises(GraphError):
        random_new_edges(full_graph, fraction=1.5, seed=3)


def test_graph_delta_new_vertices():
    delta = GraphDelta(added_edges=[(100, 101, 1)], added_vertices={100, 101})
    graph = _grow(CSRGraph.from_undirected(erdos_renyi(10, 20, seed=0)), delta)
    assert (100, 101, 1) in _edge_set(graph)


def test_bursty_new_edges_concentrate_on_hotspots(full_graph, dict_graph):
    delta = bursty_new_edges(full_graph, fraction=0.05, seed=3, num_hotspots=4)
    assert delta.num_new_edges > 0
    assert not delta.added_vertices
    endpoints = set()
    for u, v, weight in delta.added_edges:
        assert weight == 1
        assert u != v
        assert not dict_graph.has_edge(u, v)
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
    assert bursty_new_edges(_empty_graph(), fraction=0.5, seed=1).num_new_edges == 0


def test_hub_birth_edges_create_new_hubs(full_graph):
    max_existing = int(full_graph.original_ids.max())
    delta = hub_birth_edges(full_graph, fraction=0.1, seed=3, num_hubs=3)
    assert delta.num_new_edges > 0
    assert len(delta.added_vertices) == 3
    assert all(hub > max_existing for hub in delta.added_vertices)
    for u, v, _w in delta.added_edges:
        assert u in delta.added_vertices
        assert v in full_graph.original_ids
    # Applying the delta materializes high-degree hubs.
    grown = _grow(full_graph, delta)
    assert grown.num_edges == full_graph.num_edges + delta.num_new_edges
    assert grown.num_vertices == full_graph.num_vertices + 3


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
    assert hub_birth_edges(_empty_graph(), fraction=0.5, seed=1).num_new_edges == 0


# ----------------------------------------------------------------------
# negative batches
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "request_kwargs",
    [{"num_edges": -1}, {"fraction_of_snapshot": -0.05}, {"fraction_of_snapshot": float("nan")}],
    ids=["negative-count", "negative-fraction", "nan-fraction"],
)
def test_negative_batch_is_rejected_and_releases_nothing(full_graph, request_kwargs):
    stream = EdgeArrivalStream(full_graph, holdout_fraction=0.4, seed=1)
    first = stream.delta(num_edges=5).added_edges
    withheld = stream.num_withheld_edges
    with pytest.raises(GraphError):
        stream.delta(**request_kwargs)
    assert stream.num_withheld_edges == withheld
    stream.reset()
    assert stream.delta(num_edges=5).added_edges == first


@pytest.mark.parametrize("fraction", [0.02, 0.1])
@pytest.mark.parametrize("seed", [0, 9])
@pytest.mark.parametrize("name", ["random_new_edges", "bursty_new_edges", "hub_birth_edges"])
def test_churn_generators_match_dict_oracles(name, seed, fraction):
    graph = powerlaw_cluster(200, edges_per_vertex=4, triangle_probability=0.5, seed=seed)
    csr = CSRGraph.from_undirected(graph)
    for round_index in range(3):
        expected = getattr(dict_dynamic, name)(graph, fraction, seed=seed + round_index)
        delta = globals()[name](csr, fraction, seed=seed + round_index)
        assert delta.added_edges == expected.added_edges
        assert delta.added_vertices == expected.added_vertices
        dict_dynamic.apply_delta(expected, graph)
        csr = _grow(csr, delta)

