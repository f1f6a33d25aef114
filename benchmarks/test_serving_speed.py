"""Serving-layer benchmark: lookup QPS, churn quality, swap latency.

Exercises the online sharding service (:mod:`repro.serving`) the way a
graph management system would — and records the numbers in
``BENCH_serving.json`` at the repo root so the serving performance
trajectory is tracked from PR to PR:

* **lookup throughput** — batched vertex→partition lookups over the real
  TCP JSON-lines protocol against a live service, in both per-request
  (one request in flight) and pipelined (send-all-then-read-all) client
  modes; the sustained lookups/sec floors are asserted
  (``SERVING_BENCH_MIN_QPS`` / ``SERVING_BENCH_MIN_BATCHED_QPS`` relax
  them on shared runners).
* **pipelining speedup** — single-vertex lookups per-request vs
  pipelined over the same wire; the server drains the socket buffer,
  fuses the run into one vectorized ``lookup_many`` and coalesces all
  responses into one write, so the pipelined mode must be at least
  ``SERVING_BENCH_MIN_PIPELINE_SPEEDUP``× faster.
* **dense vs sparse snapshot** — in-process ``lookup_many`` against the
  same data held contiguously (O(1) direct index) and gapped
  (``searchsorted``); the dense representation must win by at least
  ``SERVING_BENCH_MIN_DENSE_SPEEDUP``×.
* **snapshot-swap and freeze latency** — the atomic version swap is the
  only publish-side work lookups can ever observe, and the freeze (it
  records the live graph's CSR base and delta length, copying nothing)
  the only repartition work before it; the worst case of each across
  all repartitions of the run is asserted under
  ``SERVING_BENCH_MAX_SWAP_SECONDS``.
* **steady-state quality under churn** — sustained adversarial churn
  (each generator of :mod:`repro.graph.dynamic` in rotation, drawing
  from the live graph's CSR arrays) with a background-style repartition
  after each burst must
  keep the published
  locality ``phi`` within ``SERVING_BENCH_PHI_MARGIN`` of a full
  from-scratch FastSpinner recompute on the final graph — the paper's
  Section V-C claim, measured end to end through the serving path.
* **stability sweep** — one row per churn generator comparing the
  incremental repartition against the pre-churn assignment
  (:func:`repro.metrics.stability.partitioning_difference`), recording
  how much of the graph each adversarial shape actually moves.

Run directly with::

    PYTHONPATH=src python -m pytest benchmarks/test_serving_speed.py -s
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import numpy as np

from repro.core.config import SpinnerConfig
from repro.core.fast import FastSpinner
from repro.graph.generators import _powerlaw_cluster_builder
from repro.graph.dynamic import bursty_new_edges, hub_birth_edges, random_new_edges
from repro.metrics.stability import partitioning_difference
from repro.serving import (
    AssignmentSnapshot,
    AssignmentStore,
    ChurnPipeline,
    ServingConfig,
    ShardingService,
    send_requests,
)
from bench_io import bench_path, env_float, env_int, write_bench

BENCH_PATH = bench_path("BENCH_serving.json")

NUM_VERTICES = env_int("SERVING_BENCH_NUM_VERTICES", 20000)
NUM_PARTITIONS = env_int("SERVING_BENCH_NUM_PARTITIONS", 8)
SEED = env_int("SERVING_BENCH_SEED", 42)
BATCH = env_int("SERVING_BENCH_BATCH", 1024)
#: Minimum sustained batched-lookup throughput over TCP (lookups/sec),
#: measured in the sequential per-request client mode.
MIN_QPS = env_float("SERVING_BENCH_MIN_QPS", 20000.0)
#: Minimum batched-lookup throughput with a pipelined client (lookups/sec).
MIN_BATCHED_QPS = env_float("SERVING_BENCH_MIN_BATCHED_QPS", 1_560_000.0)
#: Pipelined single-lookup QPS must beat per-request by at least this.
MIN_PIPELINE_SPEEDUP = env_float("SERVING_BENCH_MIN_PIPELINE_SPEEDUP", 3.0)
#: Dense direct-index lookup_many must beat searchsorted by at least this.
MIN_DENSE_SPEEDUP = env_float("SERVING_BENCH_MIN_DENSE_SPEEDUP", 1.5)
#: Requests kept in flight per pipelined burst (<= server max_pipeline_batch).
PIPELINE_DEPTH = env_int("SERVING_BENCH_PIPELINE_DEPTH", 512)
#: Worst-case tolerated snapshot-swap (and freeze) latency (seconds).
MAX_SWAP_SECONDS = env_float("SERVING_BENCH_MAX_SWAP_SECONDS", 0.5)
#: Steady-state phi must stay within this margin of a full recompute.
PHI_MARGIN = env_float("SERVING_BENCH_PHI_MARGIN", 0.05)
CHURN_ROUNDS = env_int("SERVING_BENCH_CHURN_ROUNDS", 6)
CHURN_FRACTION = env_float("SERVING_BENCH_CHURN_FRACTION", 0.02)
#: Wall-clock the QPS phase keeps hammering the service for.
QPS_SECONDS = env_float("SERVING_BENCH_QPS_SECONDS", 1.0)

CHURN_GENERATORS = (
    ("random", random_new_edges),
    ("bursty", bursty_new_edges),
    ("hub_birth", hub_birth_edges),
)


def _start_service(service: ShardingService) -> tuple[threading.Thread, int]:
    """Run ``serve_forever`` on a daemon thread; return (thread, port)."""
    ready = threading.Event()
    bound = {}

    def _on_ready(started: ShardingService) -> None:
        bound["port"] = started.port
        ready.set()

    thread = threading.Thread(
        target=lambda: asyncio.run(service.serve_forever(ready=_on_ready)),
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=60), "service did not come up"
    return thread, bound["port"]


def _measure_qps(port: int, num_vertices: int) -> dict:
    """Hammer batched lookups over one TCP connection for ~QPS_SECONDS."""
    rng = np.random.default_rng(SEED)
    batches = [
        rng.integers(0, num_vertices, size=BATCH).tolist() for _ in range(8)
    ]
    total = 0
    rounds = 0
    start = time.perf_counter()
    while time.perf_counter() - start < QPS_SECONDS:
        responses = send_requests(
            "127.0.0.1",
            port,
            [{"op": "lookup", "vertices": batch} for batch in batches],
        )
        for response in responses:
            assert response["ok"], response
            total += len(response["partitions"])
        rounds += len(batches)
    elapsed = time.perf_counter() - start
    return {
        "mode": "per_request",
        "batch": BATCH,
        "requests": rounds,
        "lookups": total,
        "seconds": round(elapsed, 4),
        "lookups_per_second": round(total / elapsed, 1),
    }


def _measure_batched_pipelined(port: int, num_vertices: int) -> dict:
    """Pipelined batched lookups: prebuilt request bytes, one burst in flight.

    The client cost is deliberately minimal — requests are serialized
    once up front and responses are length-counted, not parsed, after a
    first fully-verified round — so the number approximates the server's
    data-plane ceiling rather than ``json.loads`` on the client.
    """
    rng = np.random.default_rng(SEED)
    batches = [
        rng.integers(0, num_vertices, size=BATCH).tolist() for _ in range(8)
    ]
    burst = b"".join(
        json.dumps({"op": "lookup", "vertices": batch}).encode("utf-8") + b"\n"
        for batch in batches
    )
    total = 0
    rounds = 0
    with socket.create_connection(("127.0.0.1", port), timeout=60) as conn:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        reader = conn.makefile("rb")
        # Verification round (not timed): every response parses and is ok.
        conn.sendall(burst)
        for batch in batches:
            response = json.loads(reader.readline())
            assert response["ok"] and len(response["partitions"]) == len(batch)
        start = time.perf_counter()
        while time.perf_counter() - start < QPS_SECONDS:
            conn.sendall(burst)
            for batch in batches:
                assert reader.readline().endswith(b"\n")
                total += len(batch)
            rounds += len(batches)
        elapsed = time.perf_counter() - start
    return {
        "mode": "pipelined",
        "batch": BATCH,
        "requests": rounds,
        "lookups": total,
        "seconds": round(elapsed, 4),
        "lookups_per_second": round(total / elapsed, 1),
    }


def _measure_single_lookup_modes(port: int, num_vertices: int) -> dict:
    """Single-vertex lookups: sequential per-request vs pipelined bursts.

    Both modes use the same prebuilt request lines over a raw socket, so
    the only variable is how many requests are in flight: one (classic
    request/response) vs ``PIPELINE_DEPTH`` (the server drains the burst,
    fuses it into one vectorized ``lookup_many`` and answers with one
    coalesced write).
    """
    rng = np.random.default_rng(SEED + 1)
    lines = [
        json.dumps({"op": "lookup", "vertex": int(v)}).encode("utf-8") + b"\n"
        for v in rng.integers(0, num_vertices, size=PIPELINE_DEPTH)
    ]
    burst = b"".join(lines)
    rows = {}
    for mode in ("per_request", "pipelined"):
        done = 0
        with socket.create_connection(("127.0.0.1", port), timeout=60) as conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            reader = conn.makefile("rb")
            # Verify once (not timed) that responses are well-formed.
            conn.sendall(lines[0])
            assert json.loads(reader.readline())["ok"]
            start = time.perf_counter()
            while time.perf_counter() - start < QPS_SECONDS:
                if mode == "pipelined":
                    conn.sendall(burst)
                    for _ in lines:
                        assert reader.readline().endswith(b"\n")
                    done += len(lines)
                else:
                    conn.sendall(lines[done % len(lines)])
                    assert reader.readline().endswith(b"\n")
                    done += 1
            elapsed = time.perf_counter() - start
        rows[mode] = {
            "requests": done,
            "seconds": round(elapsed, 4),
            "lookups_per_second": round(done / elapsed, 1),
        }
    speedup = (
        rows["pipelined"]["lookups_per_second"]
        / rows["per_request"]["lookups_per_second"]
    )
    return {
        "pipeline_depth": PIPELINE_DEPTH,
        "per_request": rows["per_request"],
        "pipelined": rows["pipelined"],
        "speedup": round(speedup, 2),
    }


def _measure_store_paths() -> dict:
    """In-process ``lookup_many``: dense direct index vs searchsorted.

    Both snapshots hold the *same* contiguous id range; the sparse row
    forces the ``searchsorted`` probe on identical data by clearing the
    dense base, so the measured delta is purely the representation.
    """
    rng = np.random.default_rng(SEED + 2)
    ids = np.arange(NUM_VERTICES, dtype=np.int64)
    labels = rng.integers(0, NUM_PARTITIONS, size=NUM_VERTICES).astype(np.int64)
    queries = [
        rng.integers(0, NUM_VERTICES, size=BATCH).astype(np.int64)
        for _ in range(32)
    ]
    rows = {}
    for mode in ("dense", "sparse"):
        snapshot = AssignmentSnapshot(1, ids, labels, NUM_PARTITIONS)
        if mode == "sparse":
            snapshot._dense_base = None  # force the searchsorted path
        assert snapshot.is_dense == (mode == "dense")
        for query in queries:  # warm-up, also sanity-checks the path
            snapshot.lookup_many(query)
        done = 0
        start = time.perf_counter()
        while time.perf_counter() - start < QPS_SECONDS / 2:
            for query in queries:
                snapshot.lookup_many(query)
                done += query.shape[0]
        elapsed = time.perf_counter() - start
        rows[mode] = {
            "lookups": done,
            "seconds": round(elapsed, 4),
            "lookups_per_second": round(done / elapsed, 1),
        }
    speedup = (
        rows["dense"]["lookups_per_second"] / rows["sparse"]["lookups_per_second"]
    )
    return {
        "batch": BATCH,
        "dense": rows["dense"],
        "sparse": rows["sparse"],
        "speedup": round(speedup, 2),
    }


def _timed_repartition(pipeline: ChurnPipeline):
    """Freeze, execute and publish; return the report and the freeze time.

    The job is released on return, as the service releases it when its
    repartition task ends, so freeing the replaced base is not timed as
    part of the next freeze.
    """
    start = time.perf_counter()
    job = pipeline.freeze()
    freeze_seconds = time.perf_counter() - start
    return pipeline.publish(job, pipeline.execute(job)), freeze_seconds


def _steady_state_churn(pipeline: ChurnPipeline) -> dict:
    """Sustained adversarial churn with a repartition after every burst.

    The churn generators draw from the live graph, which each synchronous
    repartition has just folded into one CSR base.
    """
    max_swap = 0.0
    max_freeze = 0.0
    migration_fractions = []
    for round_index in range(CHURN_ROUNDS):
        _, generator = CHURN_GENERATORS[round_index % len(CHURN_GENERATORS)]
        delta = generator(pipeline.graph.to_csr(), CHURN_FRACTION, seed=SEED + round_index)
        pipeline.ingest(delta)
        report, freeze_seconds = _timed_repartition(pipeline)
        max_freeze = max(max_freeze, freeze_seconds)
        max_swap = max(max_swap, report.swap_seconds)
        migration_fractions.append(report.migration_fraction)
    # The last report's phi is exact on the frozen graph, which after a
    # synchronous repartition *is* the final live graph.
    full = FastSpinner(SpinnerConfig(seed=SEED)).partition(
        pipeline.graph.to_csr(), NUM_PARTITIONS
    )
    return {
        "rounds": CHURN_ROUNDS,
        "fraction_per_round": CHURN_FRACTION,
        "final_edges": pipeline.graph.num_edges,
        "phi_serving": round(report.phi, 4),
        "phi_full_recompute": round(float(full.phi), 4),
        "phi_margin": PHI_MARGIN,
        "max_swap_seconds": round(max_swap, 6),
        "max_freeze_seconds": round(max_freeze, 6),
        "mean_migration_fraction": round(
            float(np.mean(migration_fractions)), 4
        ),
        "version": pipeline.store.version,
    }


def _stability_sweep() -> list[dict]:
    """One incremental-repartition stability row per churn generator."""
    rows = []
    for name, generator in CHURN_GENERATORS:
        graph = _powerlaw_cluster_builder(NUM_VERTICES // 4, 8, 0.5, seed=SEED).to_csr()
        store = AssignmentStore(NUM_PARTITIONS)
        pipeline = ChurnPipeline(
            graph,
            store,
            ServingConfig(num_partitions=NUM_PARTITIONS, spinner=SpinnerConfig(seed=SEED)),
        )
        before_report = pipeline.bootstrap()
        before = store.current().to_assignment()
        delta = generator(graph, 0.05, seed=SEED)
        pipeline.ingest(delta)
        report = pipeline.repartition_now()
        after = store.current().to_assignment()
        rows.append(
            {
                "generator": name,
                "new_edges": delta.num_new_edges,
                "new_vertices": len(delta.added_vertices),
                "phi_before": round(before_report.phi, 4),
                "phi_after": round(report.phi, 4),
                "difference": round(partitioning_difference(before, after), 4),
                "migration_fraction": report.migration_fraction,
            }
        )
    return rows


def test_serving_speed() -> None:
    """Benchmark the service end to end and write ``BENCH_serving.json``."""
    graph = _powerlaw_cluster_builder(NUM_VERTICES, 10, 0.7, seed=SEED).to_csr()
    num_vertices = graph.num_vertices
    num_edges = graph.num_edges
    config = ServingConfig(
        num_partitions=NUM_PARTITIONS,
        edge_threshold=None,
        spinner=SpinnerConfig(seed=SEED),
        log_interval=0.0,
    )
    service = ShardingService(graph, config)
    bootstrap_report = service.last_report
    thread, port = _start_service(service)
    try:
        lookup = _measure_qps(port, num_vertices)
        lookup_pipelined = _measure_batched_pipelined(port, num_vertices)
        single = _measure_single_lookup_modes(port, num_vertices)
        (stats_response,) = send_requests("127.0.0.1", port, [{"op": "stats"}])
        stats = stats_response["stats"]
    finally:
        send_requests("127.0.0.1", port, [{"op": "shutdown"}])
        thread.join(timeout=60)
    lookup["latency_p50_s"] = stats["latency_p50_s"]
    lookup["latency_p99_s"] = stats["latency_p99_s"]
    assert stats["pipeline_depth_max"] >= 2.0  # the bursts really pipelined
    store_paths = _measure_store_paths()

    churn = _steady_state_churn(service.pipeline)
    churn["max_swap_seconds"] = max(
        churn["max_swap_seconds"], bootstrap_report.swap_seconds
    )
    sweep = _stability_sweep()

    payload = {
        "benchmark": "online sharding service",
        "workload": {
            "num_vertices": num_vertices,
            "num_edges": num_edges,
            "num_partitions": NUM_PARTITIONS,
            "generator": "powerlaw-cluster (10 edges/vertex, p_triangle 0.7)",
            "seed": SEED,
        },
        "floors": {
            "min_qps": MIN_QPS,
            "min_batched_qps": MIN_BATCHED_QPS,
            "min_pipeline_speedup": MIN_PIPELINE_SPEEDUP,
            "min_dense_speedup": MIN_DENSE_SPEEDUP,
        },
        "lookup": lookup,
        "lookup_pipelined": lookup_pipelined,
        "single_lookup_modes": single,
        "store_paths": store_paths,
        "churn": churn,
        "stability_sweep": sweep,
    }
    write_bench(BENCH_PATH, payload)
    print(
        f"\nserving: {lookup['lookups_per_second']:.0f} lookups/s per-request, "
        f"{lookup_pipelined['lookups_per_second']:.0f} pipelined over TCP; "
        f"single-lookup pipelining x{single['speedup']:.1f}, dense store "
        f"x{store_paths['speedup']:.2f}; steady-state phi "
        f"{churn['phi_serving']:.4f} vs full recompute "
        f"{churn['phi_full_recompute']:.4f}, max swap "
        f"{churn['max_swap_seconds'] * 1e3:.2f}ms, max freeze "
        f"{churn['max_freeze_seconds'] * 1e3:.3f}ms -> {BENCH_PATH.name}"
    )

    assert lookup["lookups_per_second"] >= MIN_QPS
    assert lookup_pipelined["lookups_per_second"] >= MIN_BATCHED_QPS
    assert single["speedup"] >= MIN_PIPELINE_SPEEDUP
    assert store_paths["speedup"] >= MIN_DENSE_SPEEDUP
    assert churn["max_swap_seconds"] <= MAX_SWAP_SECONDS
    assert churn["max_freeze_seconds"] <= MAX_SWAP_SECONDS
    assert churn["phi_serving"] >= churn["phi_full_recompute"] - PHI_MARGIN
    for row in sweep:
        assert 0.0 <= row["difference"] <= 1.0
