"""Serving data-plane pins: dense snapshots, scalar hashing, pipelining.

The PR-10 throughput overhaul must be invisible at the semantics level;
this suite pins that contract:

* the scalar :func:`~repro.partitioners.hashing.hash_label` equals the
  vectorized :func:`~repro.partitioners.hashing.hash_labels_array`
  elementwise across a fuzzed id range (0, small, and >= 2**62 ids) and
  rejects negative ids;
* the dense direct-index snapshot representation is byte-identical to
  the ``searchsorted`` path on a randomized matrix of snapshot shapes
  (contiguous, offset-contiguous, gapped, empty, single-id) × query
  batches (hit/miss/mixed/empty/duplicated);
* ``lookup_many`` does *no* fallback hashing on a full-hit batch;
* the pipelined batch protocol answers byte-identically and in order to
  the per-request protocol under interleaved lookup/ingest/version ops;
* the new metrics (sampled preallocated latency reservoir, pipeline
  depth gauges) and the new config/CLI knobs validate like the rest.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading

import numpy as np
import pytest

from repro.cli import main
from repro.core.config import SpinnerConfig
from repro.errors import ServingError
from repro.graph.csr import CSRGraph
from repro.partitioners.hashing import hash_label, hash_labels_array
from repro.serving import (
    AssignmentSnapshot,
    ServingConfig,
    ServingMetrics,
    ShardingService,
    send_requests,
)
import repro.serving.store as store_module

from oracles.graphs import powerlaw_cluster


# ----------------------------------------------------------------------
# scalar splitmix64 helper
# ----------------------------------------------------------------------
def test_hash_label_matches_array_twin_fuzzed():
    rng = np.random.default_rng(11)
    pinned = [0, 1, 2, 63, 2**31, 2**62, 2**62 + 12345, 2**63 - 1]
    fuzzed = rng.integers(0, 2**63 - 1, size=500, dtype=np.int64).tolist()
    ids = np.asarray(pinned + fuzzed, dtype=np.int64)
    for k in (1, 2, 7, 8, 1024):
        expected = hash_labels_array(ids, k)
        for vertex, label in zip(ids.tolist(), expected.tolist()):
            assert hash_label(vertex, k) == label


def test_hash_label_rejects_negative_ids():
    for vertex in (-1, -(2**40), -(2**63)):
        with pytest.raises(ValueError):
            hash_label(vertex, 8)


def test_snapshot_miss_paths_reject_negative_ids():
    snapshot = AssignmentSnapshot(
        1, np.arange(4, dtype=np.int64), np.zeros(4, dtype=np.int64), 4
    )
    with pytest.raises(ValueError):
        snapshot.lookup(-3)
    with pytest.raises(ServingError):
        snapshot.lookup_many(np.asarray([0, -3], dtype=np.int64))


# ----------------------------------------------------------------------
# dense fast path: randomized equivalence vs the searchsorted path
# ----------------------------------------------------------------------
def _snapshot_cases(rng):
    """(name, ids) matrix: every physical shape the store distinguishes."""
    n = int(rng.integers(8, 64))
    base = int(rng.integers(1, 10_000))
    gapped = np.unique(rng.integers(0, 4 * n, size=n).astype(np.int64))
    return [
        ("contiguous", np.arange(n, dtype=np.int64)),
        ("offset-contiguous", np.arange(base, base + n, dtype=np.int64)),
        ("gapped", gapped),
        ("empty", np.empty(0, dtype=np.int64)),
        ("single", np.asarray([base], dtype=np.int64)),
    ]


def _query_cases(rng, ids):
    """Hit / miss / mixed / empty / duplicated query batches for ``ids``."""
    universe = int(ids.max()) + 50 if ids.size else 100
    mixed = rng.integers(0, universe, size=24).astype(np.int64)
    cases = [
        ("mixed", mixed),
        ("empty", np.empty(0, dtype=np.int64)),
        ("far-miss", np.asarray([universe + 10**9, 2**62], dtype=np.int64)),
        ("duplicates", np.repeat(mixed[:6], 3)),
    ]
    if ids.size:
        cases.append(("all-hit", rng.choice(ids, size=16)))
    return cases


def test_dense_path_detection():
    make = lambda ids: AssignmentSnapshot(
        1, ids, np.zeros(len(ids), dtype=np.int64), 4
    )
    assert make(np.arange(5, dtype=np.int64)).is_dense
    assert make(np.arange(7, 12, dtype=np.int64)).is_dense
    assert make(np.asarray([42], dtype=np.int64)).is_dense
    assert not make(np.asarray([0, 1, 3], dtype=np.int64)).is_dense
    assert not make(np.empty(0, dtype=np.int64)).is_dense


def test_dense_lookup_byte_identical_to_searchsorted_fuzzed():
    rng = np.random.default_rng(29)
    for trial in range(20):
        for name, ids in _snapshot_cases(rng):
            labels = rng.integers(0, 8, size=ids.size).astype(np.int64)
            snapshot = AssignmentSnapshot(1, ids, labels, 8)
            for query_name, query in _query_cases(rng, ids):
                got_labels, got_miss = snapshot.lookup_many(query)
                # Force the searchsorted reference path on the same object.
                snapshot._dense_base = None
                ref_labels, ref_miss = snapshot.lookup_many(query)
                if ids.size and int(ids[0]) + ids.size - 1 == int(ids[-1]):
                    snapshot._dense_base = int(ids[0])
                context = f"trial={trial} snapshot={name} query={query_name}"
                assert got_labels.dtype == ref_labels.dtype == np.int64, context
                assert got_labels.tobytes() == ref_labels.tobytes(), context
                assert got_miss.tobytes() == ref_miss.tobytes(), context
                # Scalar lookup agrees elementwise with the batched answer.
                for vertex, label, missed in zip(
                    query.tolist(), got_labels.tolist(), got_miss.tolist()
                ):
                    assert snapshot.lookup(vertex) == (label, missed), context


def test_lookup_many_full_hit_does_no_fallback_work(monkeypatch):
    ids = np.arange(100, 200, dtype=np.int64)
    labels = np.arange(100, dtype=np.int64) % 4
    dense = AssignmentSnapshot(1, ids, labels, 4)
    sparse = AssignmentSnapshot(1, ids * 2, labels, 4)

    def _boom(*args, **kwargs):
        raise AssertionError("hash fallback ran on a full-hit batch")

    monkeypatch.setattr(store_module, "hash_labels_array", _boom)
    query = np.asarray([100, 150, 199, 150], dtype=np.int64)
    got, miss = dense.lookup_many(query)
    assert not miss.any() and got.tolist() == [0, 2, 3, 2]
    got, miss = sparse.lookup_many(query * 2)
    assert not miss.any() and got.tolist() == [0, 2, 3, 2]
    # A miss still routes through the (patched) fallback.
    with pytest.raises(AssertionError):
        dense.lookup_many(np.asarray([99], dtype=np.int64))


# ----------------------------------------------------------------------
# pipelined protocol: byte-identical, in-order vs per-request mode
# ----------------------------------------------------------------------
def _make_service(seed=23):
    graph = powerlaw_cluster(
        300, edges_per_vertex=5, triangle_probability=0.4, seed=seed
    )
    config = ServingConfig(
        num_partitions=4,
        edge_threshold=100_000,  # never triggers: responses stay deterministic
        spinner=SpinnerConfig(seed=seed),
        log_interval=0.0,
    )
    return ShardingService(CSRGraph.from_undirected(graph), config)


def _start(service):
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


def _raw_exchange(port, lines, pipeline):
    """Send raw request lines; return the raw response lines."""
    responses = []
    with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
        reader = conn.makefile("rb")
        if pipeline:
            conn.sendall(b"".join(lines))
            for _ in lines:
                responses.append(reader.readline())
        else:
            for line in lines:
                conn.sendall(line)
                responses.append(reader.readline())
    return responses


_INTERLEAVED_OPS = [
    {"op": "lookup", "vertex": 0},
    {"op": "lookup", "vertex": 1},
    {"op": "lookup", "vertex": 2},  # a fusable run of three
    {"op": "version"},
    {"op": "lookup", "vertex": 10**9},  # single fallback between other ops
    {"op": "ingest", "edges": [[0, 10**6], [1, 10**6 + 1, 3]], "vertices": [10**6]},
    {"op": "lookup", "vertex": 10**6},  # now covered? no — hash fallback
    {"op": "lookup", "vertices": [0, 1, 10**9]},
    {"op": "lookup_batch", "vertices": [2, 3, 4]},
    {"op": "lookup"},  # error: neither vertex nor vertices
    {"op": "lookup_batch"},  # error: vertices required
    {"op": "nonsense"},
    {"op": "lookup", "vertex": 5},
    {"op": "lookup", "vertex": -7},  # error inside a would-be fused run
    {"op": "lookup", "vertex": 6},
    {"op": "version"},
]


def _interleaved_lines():
    lines = [json.dumps(payload).encode("utf-8") + b"\n" for payload in _INTERLEAVED_OPS]
    lines.insert(4, b"this is not json\n")  # malformed line mid-stream
    return lines


def test_pipelined_responses_byte_identical_to_per_request():
    lines = _interleaved_lines()
    results = {}
    for mode in ("per_request", "pipelined"):
        service = _make_service(seed=23)  # fresh identical state per mode
        thread, port = _start(service)
        try:
            results[mode] = _raw_exchange(port, lines, pipeline=(mode == "pipelined"))
        finally:
            send_requests("127.0.0.1", port, [{"op": "shutdown"}])
            thread.join(timeout=30)
    assert len(results["pipelined"]) == len(lines)
    assert results["pipelined"] == results["per_request"]
    # Sanity: the run actually exercised successes and failures.
    decoded = [json.loads(line) for line in results["pipelined"]]
    assert any(r.get("ok") for r in decoded)
    assert any(not r.get("ok") for r in decoded)


def test_pipelined_shutdown_mid_batch_stops_processing():
    service = _make_service(seed=31)
    thread, port = _start(service)
    lines = [
        json.dumps({"op": "version"}).encode() + b"\n",
        json.dumps({"op": "shutdown"}).encode() + b"\n",
        json.dumps({"op": "version"}).encode() + b"\n",  # never answered
    ]
    with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
        reader = conn.makefile("rb")
        conn.sendall(b"".join(lines))
        first = json.loads(reader.readline())
        second = json.loads(reader.readline())
        third = reader.readline()
    assert first == {"ok": True, "version": 1}
    assert second["ok"]
    assert third == b""  # connection closed, the third request was dropped
    thread.join(timeout=30)
    assert not thread.is_alive()


def test_lookup_batch_op_matches_batched_lookup():
    service = _make_service(seed=37)
    thread, port = _start(service)
    try:
        legacy, explicit = send_requests(
            "127.0.0.1",
            port,
            [
                {"op": "lookup", "vertices": [0, 5, 10**9]},
                {"op": "lookup_batch", "vertices": [0, 5, 10**9]},
            ],
            pipeline=True,
        )
        assert explicit == legacy
        assert explicit["ok"] and explicit["fallbacks"] == [2]
    finally:
        send_requests("127.0.0.1", port, [{"op": "shutdown"}])
        thread.join(timeout=30)


def test_pipeline_depth_is_surfaced_in_stats():
    service = _make_service(seed=41)
    thread, port = _start(service)
    try:
        send_requests(
            "127.0.0.1",
            port,
            [{"op": "lookup", "vertex": i} for i in range(8)],
            pipeline=True,
        )
        (response,) = send_requests("127.0.0.1", port, [{"op": "stats"}])
        stats = response["stats"]
        assert stats["pipeline_depth_max"] >= 2.0  # the burst was batched
        assert stats["pipeline_batches"] >= 1
        assert stats["pipeline_requests"] >= 8
        assert stats["pipeline_depth_mean"] > 0.0
        assert stats["latency_sample_every"] == 16
        assert stats["lookups_total"] >= 8
    finally:
        send_requests("127.0.0.1", port, [{"op": "shutdown"}])
        thread.join(timeout=30)


# ----------------------------------------------------------------------
# metrics: sampled preallocated reservoir
# ----------------------------------------------------------------------
def test_metrics_latency_sampling_one_in_n():
    metrics = ServingMetrics(sample_every=4)
    for _ in range(16):
        metrics.observe_lookup(1, 0, 0.5)
    assert metrics._latency_filled == 4  # 16 requests, stride 4
    assert metrics.counters["lookups_total"] == 16
    quantiles = metrics.latency_quantiles()
    assert quantiles["latency_p50_s"] == pytest.approx(0.5)


def test_metrics_batch_observation_samples_once_per_stride():
    metrics = ServingMetrics(sample_every=8)
    metrics.observe_lookup_batch(8, 8, 2, 0.8)  # crosses one stride boundary
    assert metrics._latency_filled == 1
    assert metrics._latency_ring[0] == pytest.approx(0.1)  # per-request estimate
    assert metrics.counters["lookups_total"] == 8
    assert metrics.counters["fallback_lookups"] == 2
    metrics.observe_lookup_batch(3, 3, 0, 0.3)  # starts on a stride hit: samples
    assert metrics._latency_filled == 2
    metrics.observe_lookup_batch(3, 3, 0, 0.3)  # strictly inside: no sample
    assert metrics._latency_filled == 2


def test_metrics_reservoir_is_bounded():
    from repro.serving.metrics import LATENCY_RESERVOIR

    metrics = ServingMetrics(sample_every=1)
    for index in range(LATENCY_RESERVOIR + 100):
        metrics.observe_lookup(1, 0, float(index))
    assert metrics._latency_filled == LATENCY_RESERVOIR
    assert len(metrics._latency_ring) == LATENCY_RESERVOIR


def test_metrics_rejects_bad_sample_stride():
    with pytest.raises(ServingError):
        ServingMetrics(sample_every=0)


# ----------------------------------------------------------------------
# config / CLI validation for the new knobs
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_partitions": 4, "latency_sample_every": 0},
        {"num_partitions": 4, "max_pipeline_batch": 0},
    ],
)
def test_serving_config_rejects_bad_dataplane_knobs(kwargs):
    with pytest.raises(ServingError):
        ServingConfig(**kwargs)


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--dataset", "TU", "-k", "4", "--latency-sample-every", "0"],
        ["serve", "--dataset", "TU", "-k", "4", "--max-pipeline", "0"],
    ],
)
def test_serve_cli_rejects_bad_dataplane_knobs(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
