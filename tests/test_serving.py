"""Tests for the online graph-sharding service (:mod:`repro.serving`).

Pins the serving layer's correctness contract:

* versions are gapless and monotone (0 = empty bootstrap, +1 per publish);
* lookups racing an in-flight repartition answer from one complete,
  consistent version — never a mixture (held open with the pipeline's
  ``post_execute_hook``);
* warm start round-trips the persisted assignment byte-exactly;
* a churn-triggered repartition is bit-identical to calling
  ``FastSpinner.adapt_to_graph_changes`` directly with the same seed on a
  dictionary graph fed the same deltas (the live graph is CSR arrays
  plus an append-only delta; the generators of
  :mod:`repro.graph.dynamic` draw from that dictionary mirror);
* the ``quality`` op equals the dictionary oracle's metrics exactly, and
  the churn path builds no dictionary graph at all;
* hash-fallback miss semantics match :class:`HashPartitioner`'s rule and
  are flagged;
* the ``serve`` CLI validates its flags with exit code 2 and serves the
  full TCP protocol end to end (the CI smoke).
"""

import asyncio
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.config import SpinnerConfig
from repro.core.fast import FastSpinner, FastSpinnerResult
from repro.errors import GraphError, ReproError, ServingError
from repro.graph.csr import CSRGraph
from repro.graph.datasets import load_dataset_csr
from repro.graph.dynamic import GraphDelta, bursty_new_edges, random_new_edges
from repro.graph.undirected import UndirectedGraph
from repro.partitioners.hashing import hash_labels_array
from repro.serving import (
    AssignmentSnapshot,
    AssignmentStore,
    ChurnPipeline,
    ServingConfig,
    ShardingService,
    send_requests,
)

from oracles.assignments import as_pair
from oracles.dynamic import apply_delta
from oracles.graphs import erdos_renyi, powerlaw_cluster
from oracles.metrics import locality, max_normalized_load

REPO_ROOT = Path(__file__).resolve().parents[1]


def _graph(seed=3, n=400):
    return powerlaw_cluster(n, edges_per_vertex=6, triangle_probability=0.5, seed=seed)


def _csr(graph):
    return CSRGraph.from_undirected(graph)


def _pipeline(graph, k=4, seed=3, **config_kwargs):
    """A pipeline over the CSR view of ``graph``; ``graph`` stays its dict mirror."""
    config = ServingConfig(
        num_partitions=k, spinner=SpinnerConfig(seed=seed), **config_kwargs
    )
    store = AssignmentStore(k)
    return ChurnPipeline(_csr(graph), store, config)


def _ingest(pipeline, mirror, delta):
    """Ingest ``delta`` and apply it to the dictionary mirror too."""
    added = pipeline.ingest(delta)
    apply_delta(delta, mirror)
    return added


# ----------------------------------------------------------------------
# assignment store
# ----------------------------------------------------------------------
def test_store_bootstrap_is_version_zero_all_fallback():
    store = AssignmentStore(8)
    assert store.version == 0
    partition, fallback = store.current().lookup(123)
    assert fallback
    assert partition == int(hash_labels_array(np.asarray([123]), 8)[0])
    labels, mask = store.current().lookup_many(np.asarray([1, 2, 3]))
    assert mask.all()
    assert np.array_equal(labels, hash_labels_array(np.asarray([1, 2, 3]), 8))


def test_publish_versions_are_gapless_and_monotone():
    store = AssignmentStore(4)
    ids = np.arange(10, dtype=np.int64)
    versions = [store.version]
    for round_index in range(5):
        labels = np.full(10, round_index % 4, dtype=np.int64)
        snapshot = store.publish(ids, labels)
        versions.append(snapshot.version)
        assert store.current() is snapshot
    assert versions == [0, 1, 2, 3, 4, 5]


def test_old_snapshot_remains_readable_after_publish():
    store = AssignmentStore(4)
    ids = np.arange(10, dtype=np.int64)
    old = store.publish(ids, np.zeros(10, dtype=np.int64))
    store.publish(ids, np.full(10, 3, dtype=np.int64))
    # A reader that grabbed the old snapshot before the swap still sees a
    # complete, consistent version 1.
    assert old.version == 1
    assert old.lookup(5) == (0, False)
    assert store.current().lookup(5) == (3, False)


def test_snapshot_validation():
    with pytest.raises(ServingError):
        AssignmentSnapshot(1, np.asarray([3, 1, 2]), np.zeros(3, dtype=np.int64), 4)
    with pytest.raises(ServingError):
        AssignmentSnapshot(1, np.asarray([1, 2]), np.zeros(3, dtype=np.int64), 4)
    with pytest.raises(ReproError):
        AssignmentSnapshot(1, np.asarray([1, 2]), np.asarray([0, 4]), 4)
    with pytest.raises(ServingError):
        AssignmentSnapshot(1, np.asarray([1]), np.asarray([0]), 0)
    with pytest.raises(ServingError):
        AssignmentStore(0)


def test_snapshot_arrays_are_immutable():
    snapshot = AssignmentSnapshot(
        1, np.arange(4, dtype=np.int64), np.zeros(4, dtype=np.int64), 2
    )
    with pytest.raises(ValueError):
        snapshot.ids[0] = 99
    with pytest.raises(ValueError):
        snapshot.labels[0] = 1


def test_fallback_semantics_match_hash_partitioner():
    store = AssignmentStore(8)
    ids = np.asarray([2, 5, 9], dtype=np.int64)
    store.publish(ids, np.asarray([1, 0, 7], dtype=np.int64))
    snapshot = store.current()
    assert snapshot.lookup(5) == (0, False)
    partition, fallback = snapshot.lookup(4)
    assert fallback
    assert partition == int(hash_labels_array(np.asarray([4]), 8)[0])
    labels, mask = snapshot.lookup_many(np.asarray([2, 4, 9, 10**9]))
    assert mask.tolist() == [False, True, False, True]
    assert labels[0] == 1 and labels[2] == 7
    expected = hash_labels_array(np.asarray([4, 10**9]), 8)
    assert labels[1] == expected[0] and labels[3] == expected[1]


def test_warm_start_round_trip_is_byte_exact(tmp_path):
    store = AssignmentStore(4)
    store.publish(*as_pair({7: 1, 3: 0, 11: 3, 5: 2}))
    first = tmp_path / "assignment.txt"
    store.save(first)
    raw = first.read_bytes()

    restarted = AssignmentStore(4)
    snapshot = restarted.warm_start(first)
    assert snapshot.version == 1
    assert snapshot.to_assignment() == {3: 0, 5: 2, 7: 1, 11: 3}
    second = tmp_path / "again.txt"
    restarted.save(second)
    assert second.read_bytes() == raw


def test_warm_start_rejects_empty_file(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(ServingError):
        AssignmentStore(4).warm_start(empty)


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_partitions": 0},
        {"num_partitions": 4, "edge_threshold": 0},
        {"num_partitions": 4, "phi_drift": 0.0},
        {"num_partitions": 4, "phi_drift": 1.5},
        {"num_partitions": 4, "max_pipeline_batch": 0},
        {"num_partitions": 4, "log_interval": -1.0},
    ],
)
def test_serving_config_validation(kwargs):
    with pytest.raises(ServingError):
        ServingConfig(**kwargs)


def test_pipeline_rejects_mismatched_store():
    graph = _csr(_graph())
    config = ServingConfig(num_partitions=4)
    with pytest.raises(ServingError):
        ChurnPipeline(graph, AssignmentStore(8), config)


def test_pipeline_rejects_a_dict_graph():
    with pytest.raises(ServingError):
        ChurnPipeline(_graph(), AssignmentStore(4), ServingConfig(num_partitions=4))


# ----------------------------------------------------------------------
# churn pipeline
# ----------------------------------------------------------------------
def test_churn_triggered_run_matches_direct_adapt():
    seed = 17
    graph = _graph(seed=seed)
    pipeline = _pipeline(graph, k=4, seed=seed)
    pipeline.bootstrap()
    current = pipeline.store.current()
    previous = (current.ids, current.labels)

    delta = bursty_new_edges(_csr(graph), fraction=0.05, seed=seed)
    _ingest(pipeline, graph, delta)
    pipeline.repartition_now()

    direct = FastSpinner(SpinnerConfig(seed=seed)).adapt_to_graph_changes(
        _csr(graph), previous, 4
    )
    snapshot = pipeline.store.current()
    assert snapshot.version == 2
    assert np.array_equal(snapshot.ids, direct.original_ids)
    assert np.array_equal(snapshot.labels, direct.labels)
    assert snapshot.to_assignment() == {
        int(v): int(label)
        for v, label in zip(direct.original_ids.tolist(), direct.labels.tolist())
    }


def test_phi_estimator_is_exact_for_existing_vertices():
    graph = _graph(seed=5)
    pipeline = _pipeline(graph, k=4, seed=5)
    pipeline.bootstrap()
    delta = random_new_edges(_csr(graph), fraction=0.05, seed=9)
    _ingest(pipeline, graph, delta)

    snapshot = pipeline.store.current()
    ids = np.fromiter(graph.vertices(), dtype=np.int64, count=graph.num_vertices)
    labels, _ = snapshot.lookup_many(ids)
    assignment = {
        int(v): int(label) for v, label in zip(ids.tolist(), labels.tolist())
    }
    assert pipeline.estimated_phi() == pytest.approx(
        locality(graph, assignment), abs=1e-9
    )


def test_should_trigger_on_edge_threshold():
    graph = _graph(seed=5)
    pipeline = _pipeline(graph, k=4, seed=5, edge_threshold=10)
    pipeline.bootstrap()
    assert not pipeline.should_trigger()
    _ingest(pipeline, graph, random_new_edges(_csr(graph), fraction=0.002, seed=1))
    assert pipeline.pending_edges < 10
    assert not pipeline.should_trigger()
    _ingest(pipeline, graph, random_new_edges(_csr(graph), fraction=0.05, seed=2))
    assert pipeline.pending_edges >= 10
    assert pipeline.should_trigger()
    pipeline.repartition_now()
    assert pipeline.pending_edges == 0
    assert not pipeline.should_trigger()


def test_should_trigger_on_phi_drift():
    graph = _graph(seed=5)
    pipeline = _pipeline(graph, k=4, seed=5, edge_threshold=None, phi_drift=0.01)
    pipeline.bootstrap()
    # Structure-ignoring churn degrades the estimated locality quickly.
    pipeline.ingest(random_new_edges(_csr(graph), fraction=0.1, seed=3))
    assert pipeline.estimated_drift() > 0.01
    assert pipeline.should_trigger()


def test_freeze_rejects_double_flight():
    graph = _graph()
    pipeline = _pipeline(graph)
    pipeline.bootstrap()
    pipeline.ingest(random_new_edges(_csr(graph), fraction=0.02, seed=1))
    job = pipeline.freeze()
    assert pipeline.in_flight
    assert not pipeline.should_trigger()
    with pytest.raises(ServingError):
        pipeline.freeze()
    outcome = pipeline.execute(job)
    report = pipeline.publish(job, outcome)
    assert not pipeline.in_flight
    assert report.version == 2


def test_ingest_skips_duplicates_and_self_loops():
    graph = erdos_renyi(20, 40, seed=1)
    pipeline = _pipeline(graph, k=2, seed=1)
    pipeline.bootstrap()
    existing = next(iter(graph.edges()))
    delta = GraphDelta(added_edges=[(5, 5, 1), (existing[0], existing[1], 1)])
    assert pipeline.ingest(delta) == 0
    assert pipeline.pending_edges == 0


@pytest.mark.parametrize(
    "delta",
    [
        GraphDelta(added_edges=[(0, 100, 1), (3, 150, 0)]),
        GraphDelta(added_edges=[(0, 100, 1), (3, -1, 1)]),
        GraphDelta(added_edges=[(3, 150, -4)], added_vertices={401, 402}),
    ],
    ids=["zero-weight", "negative-id", "new-vertices-then-bad-weight"],
)
def test_library_ingest_is_atomic(delta):
    graph = _graph()
    pipeline = _pipeline(graph)
    pipeline.bootstrap()
    csr_before = pipeline.graph.to_csr()
    phi_before = pipeline.estimated_phi()
    with pytest.raises(GraphError):
        pipeline.ingest(delta)
    # Validation runs over the whole delta first: nothing was applied.
    live = pipeline.graph
    assert live.num_edges == graph.num_edges
    assert live.num_vertices == graph.num_vertices
    assert live.to_csr() is csr_before
    assert pipeline.pending_edges == 0
    assert pipeline.estimated_phi() == phi_before


def test_migration_report_counts_common_vertices_only():
    graph = _graph(seed=21)
    pipeline = _pipeline(graph, k=4, seed=21)
    report = pipeline.bootstrap()
    # Bootstrap has no previous vertices -> no migrations by definition.
    assert report.migrations == 0
    assert report.migration_fraction == 0.0
    _ingest(pipeline, graph, bursty_new_edges(_csr(graph), fraction=0.08, seed=2))
    report = pipeline.repartition_now()
    assert 0 <= report.migrations <= graph.num_vertices
    assert 0.0 <= report.migration_fraction <= 1.0
    assert report.pending_edges_consumed > 0


def test_quality_op_matches_dict_oracle_after_churn():
    seed = 29
    graph = _graph(seed=seed)
    service = ShardingService(
        _csr(graph),
        ServingConfig(
            num_partitions=4,
            edge_threshold=None,
            phi_drift=1.0,
            spinner=SpinnerConfig(seed=seed),
            log_interval=0.0,
        ),
    )
    pipeline = service.pipeline
    births = GraphDelta(
        added_edges=[(1000, 3, 2), (1001, 1000, 1), (7, 8, 1)],
        added_vertices={1002},
    )
    for step, delta in enumerate(
        [
            bursty_new_edges(_csr(graph), 0.04, seed=1),
            births,
            random_new_edges(_csr(graph), 0.03, seed=2),
        ]
    ):
        _ingest(pipeline, graph, delta)
        if step == 0:
            pipeline.repartition_now()
    # Pending churn, vertices the snapshot does not cover included.
    assert pipeline.pending_edges > 0
    quality = service._op_quality()

    snapshot = service.store.current()
    ids = np.fromiter(graph.vertices(), dtype=np.int64, count=graph.num_vertices)
    labels, fallback = snapshot.lookup_many(ids)
    assert fallback.any()
    assignment = dict(zip(ids.tolist(), labels.tolist()))
    assert quality["version"] == 2
    assert quality["phi"] == locality(graph, assignment)
    assert quality["rho"] == max_normalized_load(graph, assignment, 4)


def test_churn_path_builds_no_dict_graph(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the churn path did O(m) dictionary work")

    monkeypatch.setattr(CSRGraph, "from_undirected", classmethod(forbidden))
    monkeypatch.setattr(UndirectedGraph, "copy", forbidden)
    monkeypatch.setattr(AssignmentSnapshot, "to_assignment", forbidden)
    monkeypatch.setattr(FastSpinnerResult, "to_assignment", forbidden)
    # Scoring is one vectorized lookup_many per delta, never scalar probes.
    monkeypatch.setattr(AssignmentSnapshot, "lookup", forbidden)

    csr = load_dataset_csr("TU", 0.2)
    pipeline = ChurnPipeline(
        csr,
        AssignmentStore(4),
        ServingConfig(num_partitions=4, spinner=SpinnerConfig(seed=5)),
    )
    pipeline.bootstrap()
    rng = np.random.default_rng(5)
    n = csr.num_vertices
    for batch in range(3):
        u = rng.integers(0, n, 32)
        v = rng.integers(0, n, 32)
        born = n + batch
        edges = [(int(a), int(b), 1) for a, b in zip(u, v)] + [(born, 0, 1)]
        assert pipeline.ingest(GraphDelta(added_edges=edges, added_vertices={born})) > 0
    pending = pipeline.pending_edges
    job = pipeline.freeze()
    outcome = pipeline.execute(job)
    report = pipeline.publish(job, outcome)
    assert report.version == 2
    assert report.pending_edges_consumed == pending
    assert pipeline.pending_edges == 0
    assert pipeline.graph.num_vertices == n + 3
    assert pipeline.store.current().num_vertices == n + 3


# ----------------------------------------------------------------------
# service: in-flight consistency and versioning
# ----------------------------------------------------------------------
def test_lookups_during_inflight_repartition_stay_consistent():
    graph = _graph(seed=7)
    config = ServingConfig(
        num_partitions=4,
        edge_threshold=10,
        spinner=SpinnerConfig(seed=7),
        log_interval=0.0,
    )
    service = ShardingService(_csr(graph), config)
    probe = np.fromiter(
        list(graph.vertices())[:50], dtype=np.int64, count=50
    ).tolist()

    async def run():
        await service.start()
        try:
            baseline = service.lookup_many(probe)
            assert baseline["version"] == 1

            gate = threading.Event()
            entered = threading.Event()

            def hold_open(job, outcome):
                entered.set()
                assert gate.wait(timeout=30)

            service.pipeline.post_execute_hook = hold_open
            triggered = service.ingest(random_new_edges(_csr(graph), 0.05, seed=1))
            assert triggered

            loop = asyncio.get_running_loop()
            assert await loop.run_in_executor(None, entered.wait, 30)
            # The repartition is mid-flight: engine done, publish pending.
            assert service.pipeline.in_flight
            during = service.lookup_many(probe)
            assert during["version"] == 1
            assert during["partitions"] == baseline["partitions"]
            assert during["fallbacks"] == baseline["fallbacks"]

            gate.set()
            while service.store.version < 2:
                await asyncio.sleep(0.005)
            after = service.lookup_many(probe)
            assert after["version"] == 2
        finally:
            await service.stop()

    asyncio.run(run())


def test_service_versions_gapless_across_churn_rounds():
    graph = _graph(seed=11)
    config = ServingConfig(
        num_partitions=4,
        edge_threshold=5,
        spinner=SpinnerConfig(seed=11),
        log_interval=0.0,
    )
    service = ShardingService(_csr(graph), config)

    async def run():
        await service.start()
        try:
            versions = [service.store.version]
            for round_index in range(3):
                delta = random_new_edges(_csr(graph), 0.03, seed=round_index)
                service.ingest(delta)
                apply_delta(delta, graph)
                target = versions[-1] + 1
                while service.store.version < target:
                    await asyncio.sleep(0.005)
                versions.append(service.store.version)
            assert versions == [1, 2, 3, 4]
        finally:
            await service.stop()

    asyncio.run(run())


# ----------------------------------------------------------------------
# service: TCP protocol
# ----------------------------------------------------------------------
def _start_thread_service(service):
    ready = threading.Event()
    bound = {}

    def on_ready(started):
        bound["port"] = started.port
        ready.set()

    thread = threading.Thread(
        target=lambda: asyncio.run(service.serve_forever(ready=on_ready)),
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=30)
    return thread, bound["port"]


def test_tcp_protocol_end_to_end():
    graph = _graph(seed=13)
    config = ServingConfig(
        num_partitions=4,
        edge_threshold=25,
        spinner=SpinnerConfig(seed=13),
        log_interval=0.0,
    )
    service = ShardingService(_csr(graph), config)
    thread, port = _start_thread_service(service)

    max_id = max(graph.vertices())
    responses = send_requests(
        "127.0.0.1",
        port,
        [
            {"op": "version"},
            {"op": "lookup", "vertex": 0},
            {"op": "lookup", "vertices": [0, 1, max_id + 1000]},
            {"op": "lookup"},
            {"op": "nonsense"},
            {"op": "ingest", "edges": [[0, 1, 2, 3]]},
            {"op": "wait_version", "version": 99, "timeout": 0.05},
            {"op": "quality"},
            {"op": "stats"},
        ],
    )
    version, single, batch, bad_lookup, bad_op, bad_ingest, timed_out, quality, stats = (
        responses
    )
    assert version == {"ok": True, "version": 1}
    assert single["ok"] and not single["fallback"]
    assert batch["ok"] and batch["fallbacks"] == [2]
    assert not bad_lookup["ok"]
    assert not bad_op["ok"] and "nonsense" in bad_op["error"]
    assert not bad_ingest["ok"]
    assert not timed_out["ok"] and timed_out["version"] == 1
    assert quality["ok"] and 0.0 <= quality["phi"] <= 1.0 and quality["rho"] >= 1.0
    payload = stats["stats"]
    for key in (
        "version",
        "lookups_total",
        "pending_edges",
        "estimated_phi",
        "latency_p50_s",
        "latency_p99_s",
        "last_repartition",
    ):
        assert key in payload, key

    # Churn burst over the wire -> background swap -> consistent answers.
    burst = [[int(u), int(v)] for u, v, _ in random_new_edges(_csr(graph), 0.06, seed=4).added_edges]
    ingest, waited, after = send_requests(
        "127.0.0.1",
        port,
        [
            {"op": "ingest", "edges": burst},
            {"op": "wait_version", "version": 2, "timeout": 30},
            {"op": "lookup", "vertices": [0, 1, 2]},
        ],
    )
    assert ingest["ok"] and ingest["repartition_triggered"]
    assert waited == {"ok": True, "version": 2}
    assert after["version"] == 2 and after["fallbacks"] == []

    (closing,) = send_requests("127.0.0.1", port, [{"op": "shutdown"}])
    assert closing["ok"]
    thread.join(timeout=30)
    assert not thread.is_alive()


@pytest.mark.parametrize(
    "bad_edge",
    [[-1, 5], [5, -1], [0, 5, 2.5], [0, 5, 0], [0, 5, -3], ["7", 5], [True, 5], [0, 2**63]],
    ids=[
        "negative-source",
        "negative-target",
        "fractional-weight",
        "zero-weight",
        "negative-weight",
        "string-id",
        "bool-id",
        "id-beyond-int64",
    ],
)
def test_invalid_ingest_is_refused_whole_and_keeps_the_connection(bad_edge):
    graph = _graph(seed=5, n=120)
    config = ServingConfig(
        num_partitions=4, spinner=SpinnerConfig(seed=5), log_interval=0.0
    )
    service = ShardingService(_csr(graph), config)
    thread, port = _start_thread_service(service)
    u, v = next(
        (u, v) for u in range(120) for v in range(u + 1, 120) if not graph.has_edge(u, v)
    )
    edges_before = service.pipeline.graph.num_edges
    # A valid edge ahead of the bad one: validation must reject the whole
    # delta before any of it reaches the live graph.
    lookup = {"op": "lookup", "vertex": 0}
    before, refused, after = send_requests(
        "127.0.0.1",
        port,
        [lookup, {"op": "ingest", "edges": [[u, v], bad_edge]}, lookup],
        pipeline=True,
    )
    assert before["ok"] and after == before
    assert not refused["ok"] and "error" in refused
    assert service.pipeline.graph.num_edges == edges_before
    assert service.pipeline.pending_edges == 0
    (stats,) = send_requests("127.0.0.1", port, [{"op": "stats"}])
    assert stats["stats"]["pending_edges"] == 0
    send_requests("127.0.0.1", port, [{"op": "shutdown"}])
    thread.join(timeout=30)


def test_library_error_in_a_request_is_answered_not_fatal(monkeypatch):
    graph = _graph(seed=6, n=120)
    config = ServingConfig(
        num_partitions=4, spinner=SpinnerConfig(seed=6), log_interval=0.0
    )
    service = ShardingService(_csr(graph), config)

    def broken_ingest(delta):
        raise GraphError("ingest exploded")

    monkeypatch.setattr(service.pipeline, "ingest", broken_ingest)
    thread, port = _start_thread_service(service)
    responses = send_requests(
        "127.0.0.1",
        port,
        [{"op": "version"}, {"op": "ingest", "edges": [[0, 1]]}, {"op": "version"}],
        pipeline=True,
    )
    assert responses == [
        {"ok": True, "version": 1},
        {"ok": False, "error": "ingest exploded"},
        {"ok": True, "version": 1},
    ]
    send_requests("127.0.0.1", port, [{"op": "shutdown"}])
    thread.join(timeout=30)


def test_malformed_request_line_is_an_error_not_a_crash():
    graph = erdos_renyi(30, 60, seed=2)
    config = ServingConfig(
        num_partitions=2, spinner=SpinnerConfig(seed=2), log_interval=0.0
    )
    service = ShardingService(_csr(graph), config)
    thread, port = _start_thread_service(service)
    import socket

    with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
        reader = conn.makefile("rb")
        conn.sendall(b"this is not json\n")
        error = json.loads(reader.readline())
        assert not error["ok"]
        conn.sendall(b'{"op": "version"}\n')
        assert json.loads(reader.readline())["version"] == 1
    send_requests("127.0.0.1", port, [{"op": "shutdown"}])
    thread.join(timeout=30)


def _small_line_limit_service(monkeypatch, limit=256):
    from repro.serving import service as service_module

    # The limit is read when the listener starts, so patch it first.
    monkeypatch.setattr(service_module, "_LINE_LIMIT", limit)
    graph = erdos_renyi(30, 60, seed=2)
    config = ServingConfig(
        num_partitions=2, spinner=SpinnerConfig(seed=2), log_interval=0.0
    )
    return _start_thread_service(ShardingService(_csr(graph), config))


def test_over_long_line_with_buffered_newline_gets_one_error(monkeypatch):
    thread, port = _small_line_limit_service(monkeypatch)
    lookup = {"op": "lookup", "vertex": 0}
    # Valid JSON, so only the length check can turn it into an error.
    too_long = {"op": "lookup", "vertices": [0] * 400}
    before, refused, after, version = send_requests(
        "127.0.0.1",
        port,
        [lookup, too_long, lookup, {"op": "version"}],
        pipeline=True,
    )
    assert before["ok"] and after == before
    assert refused == {"ok": False, "error": "request line exceeds 256 bytes"}
    assert version == {"ok": True, "version": 1}
    send_requests("127.0.0.1", port, [{"op": "shutdown"}])
    thread.join(timeout=30)
    assert not thread.is_alive()


def test_over_long_line_still_arriving_is_discarded_through_its_newline(
    monkeypatch,
):
    import socket
    import time

    thread, port = _small_line_limit_service(monkeypatch)
    lookup = b'{"op": "lookup", "vertex": 0}\n'
    with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
        reader = conn.makefile("rb")
        # The head of the over-long line arrives behind a lookup; its
        # newline is not sent yet.
        conn.sendall(lookup + b"x" * 600)
        first = json.loads(reader.readline())
        assert first["ok"]
        time.sleep(0.2)
        # The tail is itself a valid request: it must be discarded with
        # the rest of the line, not answered.
        conn.sendall(b'{"op": "version"}\n' + lookup)
        assert json.loads(reader.readline()) == {
            "ok": False,
            "error": "request line exceeds 256 bytes",
        }
        assert json.loads(reader.readline()) == first
        conn.sendall(b'{"op": "version"}\n')
        assert json.loads(reader.readline()) == {"ok": True, "version": 1}
    send_requests("127.0.0.1", port, [{"op": "shutdown"}])
    thread.join(timeout=30)
    assert not thread.is_alive()


def test_failed_background_repartition_shows_in_stats(monkeypatch):
    import time

    graph = _graph(seed=8, n=120)
    config = ServingConfig(
        num_partitions=4,
        edge_threshold=5,
        spinner=SpinnerConfig(seed=8),
        log_interval=0.0,
    )
    service = ShardingService(_csr(graph), config)

    def broken_execute(job):
        raise ServingError("execute exploded")

    monkeypatch.setattr(service.pipeline, "execute", broken_execute)
    thread, port = _start_thread_service(service)
    (stats,) = send_requests("127.0.0.1", port, [{"op": "stats"}])
    assert stats["stats"]["repartition_failures"] == 0
    assert stats["stats"]["last_repartition_error"] is None

    burst = [
        [int(u), int(v)]
        for u, v, _ in random_new_edges(_csr(graph), 0.1, seed=2).added_edges
    ]
    (ingest,) = send_requests("127.0.0.1", port, [{"op": "ingest", "edges": burst}])
    assert ingest["repartition_triggered"]
    deadline = time.monotonic() + 30
    while True:
        (stats,) = send_requests("127.0.0.1", port, [{"op": "stats"}])
        if stats["stats"]["repartition_failures"] or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    payload = stats["stats"]
    assert payload["repartition_failures"] == 1
    assert payload["last_repartition_error"] == "ServingError: execute exploded"
    assert payload["repartition_in_flight"] is False
    assert payload["version"] == 1
    (lookup,) = send_requests("127.0.0.1", port, [{"op": "lookup", "vertex": 0}])
    assert lookup["ok"] and lookup["version"] == 1
    send_requests("127.0.0.1", port, [{"op": "shutdown"}])
    thread.join(timeout=30)
    assert not thread.is_alive()


def test_warm_started_service_serves_saved_assignment(tmp_path):
    graph = _graph(seed=19)
    config = ServingConfig(
        num_partitions=4, spinner=SpinnerConfig(seed=19), log_interval=0.0
    )
    service = ShardingService(_csr(graph), config)
    path = tmp_path / "warm.txt"
    service.store.save(path)
    expected = service.store.current().to_assignment()

    warm = ShardingService(_csr(graph), config, warm_start=str(path))
    assert warm.store.version == 1
    assert warm.last_report is None
    assert warm.store.current().to_assignment() == expected
    # The estimator was rebased from the file, not a repartition run.
    assert warm.pipeline.estimated_drift() == pytest.approx(0.0, abs=1e-12)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_serve_parser_defaults():
    parser = build_parser()
    args = parser.parse_args(["serve", "--dataset", "TU", "-k", "4"])
    assert args.command == "serve"
    assert args.edge_threshold == 512
    assert args.port == 0


_SERVE = ("serve", "--dataset", "TU", "-k", "4")

#: ``serve`` argument vectors and the error line each must exit 2 with.
#: ``--parallel``, ``--engine`` and ``--storage`` are not ``serve`` flags:
#: argparse rejects them as unknown arguments.
_SERVE_CLI_ERRORS = {
    ("serve", "--dataset", "TU", "-k", "0"): "--num-partitions must be >= 1, got 0",
    (*_SERVE, "--edge-threshold", "0"): "both repartition triggers are disabled; "
    "give --edge-threshold > 0 and/or --phi-drift",
    (*_SERVE, "--edge-threshold", "-1"): "--edge-threshold must be >= 0, got -1",
    (*_SERVE, "--phi-drift", "1.5"): "--phi-drift must lie in (0, 1], got 1.5",
    (*_SERVE, "--parallel", "2"): "unrecognized arguments: --parallel 2",
    (*_SERVE, "--engine", "dict"): "unrecognized arguments: --engine dict",
    (*_SERVE, "--storage", "mmap"): "unrecognized arguments: --storage mmap",
    (*_SERVE, "--port", "70000"): "--port must lie in [0, 65535], got 70000",
    (*_SERVE, "--log-interval", "-1"): "--log-interval must be >= 0, got -1.0",
    (*_SERVE, "--latency-sample-every", "0"): "--latency-sample-every must be >= 1, got 0",
    (*_SERVE, "--max-pipeline", "0"): "--max-pipeline must be >= 1, got 0",
    (*_SERVE, "--assignment", "/nonexistent/a.txt"):
        "assignment file '/nonexistent/a.txt' does not exist",
    ("serve", "-k", "4"): "provide either --dataset or --edge-list",
    ("serve", "--edge-list", "/nonexistent/graph.edges", "-k", "4"):
        "edge list '/nonexistent/graph.edges' does not exist",
}


@pytest.mark.parametrize("argv", list(_SERVE_CLI_ERRORS))
def test_serve_cli_validation_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2
    last_line = capsys.readouterr().err.splitlines()[-1]
    assert last_line == f"spinner-repro: error: {_SERVE_CLI_ERRORS[argv]}"


def test_serve_cli_smoke_over_tcp(tmp_path):
    """End-to-end subprocess smoke (also exercised by the CI serving step)."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    saved = tmp_path / "assignment.txt"
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--dataset",
            "TU",
            "--scale",
            "0.05",
            "-k",
            "4",
            "--edge-threshold",
            "50",
            "--seed",
            "7",
            "--log-interval",
            "0",
            "--save-assignment",
            str(saved),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        port = None
        for line in proc.stdout:
            if line.startswith("serving on "):
                port = int(line.rsplit(":", 1)[1])
                break
        assert port is not None, proc.stderr.read()

        responses = send_requests(
            "127.0.0.1",
            port,
            [
                {"op": "lookup", "vertices": [0, 1, 2]},
                {"op": "ingest", "edges": [[i, i + 37] for i in range(60)]},
                {"op": "wait_version", "version": 2, "timeout": 60},
                {"op": "lookup", "vertices": [0, 1, 2]},
                {"op": "shutdown"},
            ],
            timeout=60,
        )
        before, ingest, waited, after, closing = responses
        assert before["ok"] and before["version"] == 1
        assert ingest["ok"] and ingest["repartition_triggered"]
        assert waited["ok"] and waited["version"] == 2
        assert after["ok"] and after["version"] == 2
        assert len(after["partitions"]) == 3
        assert closing["ok"]
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert f"assignment written to {saved}" in out
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert saved.stat().st_size > 0

    # Warm restart from the persisted assignment answers immediately.
    code = _warm_restart_probe(env, saved)
    assert code == 0


def _warm_restart_probe(env, saved):
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--dataset",
            "TU",
            "--scale",
            "0.05",
            "-k",
            "4",
            "--log-interval",
            "0",
            "--assignment",
            str(saved),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        port = None
        for line in proc.stdout:
            if line.startswith("serving on "):
                port = int(line.rsplit(":", 1)[1])
                break
        assert port is not None, proc.stderr.read()
        version, closing = send_requests(
            "127.0.0.1", port, [{"op": "version"}, {"op": "shutdown"}], timeout=60
        )
        assert version == {"ok": True, "version": 1}
        assert closing["ok"]
        proc.communicate(timeout=60)
        return proc.returncode
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
