"""Tests for the serving live graph (:mod:`repro.graph.delta_csr`).

The pin: after every merge, the CSR base plus append-only delta equals
``CSRGraph.from_undirected`` of a dictionary graph fed the same deltas —
``indptr`` and ``original_ids`` exactly, every row as the same
``(neighbour, weight)`` multiset.  The model-based suite drives a whole
``ShardingService`` pipeline with generated churn (duplicates of base
edges and within a batch, self-loops, isolated new vertices, new ids
between existing sparse ids, deltas arriving while a repartition is in
flight) and checks the pin, the published labels against FastSpinner on
the dictionary oracle, the phi estimator, the ``quality`` op, gapless
versions and the ``stats`` counts after every publish.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SpinnerConfig
from repro.core.fast import FastSpinner
from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.delta_csr import DeltaCSR, forward_edge_keys
from repro.graph.dynamic import GraphDelta
from repro.graph.undirected import UndirectedGraph
from repro.serving import ServingConfig, ShardingService

from oracles.dynamic import apply_delta
from oracles.metrics import locality, max_normalized_load

#: Sparse base ids; the ids between them (and past the end) are new.
BASE_IDS = list(range(0, 48, 3))
NEW_IDS = [vertex for vertex in range(1, 52) if vertex % 3]


def _rows(csr):
    """Each row's ``(neighbour, weight)`` pairs sorted, as flat arrays."""
    sources = np.repeat(np.arange(csr.num_vertices), np.diff(csr.indptr))
    order = np.lexsort((csr.weights, csr.indices, sources))
    return csr.indices[order], csr.weights[order]


def assert_pinned(csr, oracle):
    """``csr`` equals ``CSRGraph.from_undirected(oracle)`` up to row order."""
    expected = CSRGraph.from_undirected(oracle)
    assert np.array_equal(csr.original_ids, expected.original_ids)
    assert np.array_equal(csr.indptr, expected.indptr)
    got_indices, got_weights = _rows(csr)
    want_indices, want_weights = _rows(expected)
    assert np.array_equal(got_indices, want_indices)
    assert np.array_equal(got_weights, want_weights)
    assert np.array_equal(csr.weighted_degrees, expected.weighted_degrees)
    assert csr.total_weight == expected.total_weight


def _base_graph(edges):
    graph = UndirectedGraph()
    for vertex in BASE_IDS:
        graph.add_vertex(vertex)
    for u, v, weight in edges:
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, weight=weight)
    return graph


# ----------------------------------------------------------------------
# DeltaCSR
# ----------------------------------------------------------------------
def test_append_drops_self_loops_duplicates_and_repeats():
    oracle = _base_graph([(0, 3, 1), (3, 6, 2)])
    live = DeltaCSR(CSRGraph.from_undirected(oracle))
    delta = GraphDelta(
        added_edges=[
            (9, 9, 1),  # self-loop
            (3, 0, 5),  # base edge, reversed
            (1, 6, 2),  # new vertex 1 between 0 and 3
            (6, 1, 7),  # repeat within the batch: the first weight wins
            (9, 12, 1),
        ],
        added_vertices={4, 3},  # 4 isolated and new, 3 already present
    )
    added, new_listed = live.append(delta)
    assert added.tolist() == [[1, 6, 2], [9, 12, 1]]
    assert new_listed == 1
    again, _ = live.append(GraphDelta(added_edges=[(12, 9, 3), (1, 4, 1)]))
    assert again.tolist() == [[1, 4, 1]]
    for applied in (delta, GraphDelta(added_edges=[(12, 9, 3), (1, 4, 1)])):
        apply_delta(applied, oracle)
    assert live.num_vertices == oracle.num_vertices
    assert live.num_edges == oracle.num_edges
    assert live.total_weight == oracle.total_weight
    assert live.pending_edges == 3
    assert_pinned(live.to_csr(), oracle)


def test_freeze_ignores_later_appends_and_advance_keeps_them():
    oracle = _base_graph([(0, 3, 1), (6, 9, 1), (12, 15, 2)])
    live = DeltaCSR(CSRGraph.from_undirected(oracle))
    first = GraphDelta(added_edges=[(0, 6, 1), (2, 3, 1)], added_vertices={5})
    live.append(first)
    apply_delta(first, oracle)
    frozen = live.freeze()
    at_freeze = oracle.copy()
    later = GraphDelta(added_edges=[(2, 7, 3), (0, 15, 1)])
    live.append(later)
    apply_delta(later, oracle)

    merged = frozen.merge()
    assert_pinned(merged.base, at_freeze)
    assert np.array_equal(merged._keys, forward_edge_keys(merged.base))
    live.advance(frozen, merged)
    assert live.base is merged.base
    assert live.pending_edges == 2
    assert live.delta_edges().tolist() == [[2, 7, 3], [0, 15, 1]]
    assert_pinned(live.to_csr(), oracle)
    # The suffix is still checked for duplicates against the new base.
    repeat, _ = live.append(GraphDelta(added_edges=[(7, 2, 1), (3, 2, 1)]))
    assert repeat.shape == (0, 3)


def test_advance_rejects_a_version_of_another_base():
    live = DeltaCSR(CSRGraph.from_undirected(_base_graph([(0, 3, 1)])))
    stale = live.freeze()
    live.append(GraphDelta(added_edges=[(0, 6, 1)]))
    fresh = live.freeze()
    live.advance(fresh, fresh.merge())
    with pytest.raises(GraphError):
        live.advance(stale, stale.merge())


# ----------------------------------------------------------------------
# model-based pin through the serving pipeline
# ----------------------------------------------------------------------
_vertex = st.sampled_from(BASE_IDS + NEW_IDS)
_weight = st.integers(1, 3)


@st.composite
def _delta(draw, base_edges):
    edges = draw(st.lists(st.tuples(_vertex, _vertex, _weight), max_size=8))
    if base_edges:
        # Duplicates of base edges (either orientation).
        for u, v, _ in draw(st.lists(st.sampled_from(base_edges), max_size=2)):
            edges.append((v, u, draw(_weight)) if draw(st.booleans()) else (u, v, 1))
    if edges and draw(st.booleans()):
        u, v, _ = draw(st.sampled_from(edges))
        edges.append((v, u, draw(_weight)))  # repeat within the batch
    edges.append((draw(_vertex),) * 2 + (1,))  # a self-loop
    edges = draw(st.permutations(edges))
    isolated = draw(st.sets(st.sampled_from(NEW_IDS), max_size=2))
    return GraphDelta(added_edges=list(edges), added_vertices=set(isolated))


def _assignment(snapshot, oracle):
    ids = np.fromiter(oracle.vertices(), dtype=np.int64, count=oracle.num_vertices)
    labels, _ = snapshot.lookup_many(ids)
    return dict(zip(ids.tolist(), labels.tolist()))


def _check_live(service, oracle, versions):
    pipeline = service.pipeline
    snapshot = service.store.current()
    assert_pinned(pipeline.graph.to_csr(), oracle)
    assignment = _assignment(snapshot, oracle)
    assert pipeline.estimated_phi() == pytest.approx(
        locality(oracle, assignment), abs=1e-12
    )
    quality = service._op_quality()
    assert quality["phi"] == locality(oracle, assignment)
    assert quality["rho"] == max_normalized_load(oracle, assignment, 3)
    stats = service.stats()
    assert stats["graph_vertices"] == oracle.num_vertices
    assert stats["graph_edges"] == oracle.num_edges
    assert stats["pending_edges"] == pipeline.pending_edges
    assert stats["version"] == versions[-1]
    assert versions == list(range(1, len(versions) + 1))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_churn_pipeline_matches_dict_oracle(data):
    k = 3
    seed = data.draw(st.integers(0, 2**16), label="seed")
    base_edges = data.draw(
        st.lists(
            st.tuples(st.sampled_from(BASE_IDS), st.sampled_from(BASE_IDS), _weight),
            min_size=1,
            max_size=30,
        ),
        label="base",
    )
    oracle = _base_graph(base_edges)
    config = ServingConfig(
        num_partitions=k, spinner=SpinnerConfig(seed=seed), log_interval=0.0
    )
    service = ShardingService(CSRGraph.from_undirected(oracle), config)
    pipeline = service.pipeline
    spinner = FastSpinner(SpinnerConfig(seed=seed))
    bootstrap = spinner.partition(CSRGraph.from_undirected(oracle), k)
    assert np.array_equal(service.store.current().labels, bootstrap.labels)
    versions = [service.store.version]
    existing = [(u, v, w) for u, v, w in oracle.edges()]

    for _ in range(data.draw(st.integers(1, 3), label="rounds")):
        for delta in data.draw(st.lists(_delta(existing), min_size=1, max_size=3)):
            assert pipeline.ingest(delta) >= 0
            apply_delta(delta, oracle)
        _check_live(service, oracle, versions)

        previous = service.store.current()
        job = pipeline.freeze()
        at_freeze = oracle.copy()
        # Churn that arrives while the repartition is in flight stays pending.
        for delta in data.draw(st.lists(_delta(existing), max_size=2)):
            pipeline.ingest(delta)
            apply_delta(delta, oracle)
        outcome = pipeline.execute(job)
        report = pipeline.publish(job, outcome)
        versions.append(report.version)

        assert_pinned(pipeline.graph.base, at_freeze)
        direct = spinner.adapt_to_graph_changes(
            CSRGraph.from_undirected(at_freeze), previous.to_assignment(), k
        )
        snapshot = service.store.current()
        assert np.array_equal(snapshot.ids, direct.original_ids)
        assert np.array_equal(snapshot.labels, direct.labels)
        assert report.phi == direct.phi
        assert report.rho == direct.rho
        assert report.iterations == direct.iterations
        _check_live(service, oracle, versions)
        existing = [(u, v, w) for u, v, w in oracle.edges()]


def test_merge_in_a_thread_while_ingest_keeps_appending():
    """A worker merging a frozen version races ingest on the owning thread."""
    oracle = _base_graph([(u, v, 1) for u, v in zip(BASE_IDS, BASE_IDS[1:])])
    config = ServingConfig(num_partitions=3, spinner=SpinnerConfig(seed=4))
    service = ShardingService(CSRGraph.from_undirected(oracle), config)
    pipeline = service.pipeline
    rng = np.random.default_rng(4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            job = pipeline.freeze()
            at_freeze = oracle.copy()
            result = {}
            worker = threading.Thread(
                target=lambda: result.update(outcome=pipeline.execute(job))
            )
            worker.start()
            for _ in range(40):
                ids = rng.choice(BASE_IDS + NEW_IDS + [100, 200], size=(4, 2))
                delta = GraphDelta(added_edges=[(int(u), int(v), 1) for u, v in ids])
                pipeline.ingest(delta)
                apply_delta(delta, oracle)
            worker.join(timeout=60)
            assert not worker.is_alive()
            pipeline.publish(job, result["outcome"])
            assert_pinned(pipeline.graph.base, at_freeze)
            assert_pinned(pipeline.graph.to_csr(), oracle)
    finally:
        sys.setswitchinterval(interval)
    assert service.store.version == 6
