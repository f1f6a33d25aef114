"""Robustness benchmark: checkpointing overhead and recovery equality.

Runs the 100k-vertex / ~1M-edge PageRank workload (the same scale as
``test_pregel_speed.py``) through the vector engine three ways:

* **clean** — no fault tolerance;
* **checkpointed** — ``checkpoint_interval=5``, snapshots written to a
  scratch directory; the end-to-end overhead versus the clean run must
  stay within 10% (relaxable via ``RECOVERY_BENCH_MAX_OVERHEAD`` on
  noisy shared runners);
* **recovered** — a deterministic worker crash mid-run, recovered from
  the latest checkpoint; the result must be byte-identical to the clean
  run (values, supersteps, halt reason, aggregator histories and
  per-superstep statistics).

The dictionary engine is measured at a reduced size (it is orders of
magnitude slower per vertex) and reported without an overhead assertion.
Numbers land in ``BENCH_recovery.json`` at the repo root.

Run directly with::

    PYTHONPATH=src python -m pytest benchmarks/test_recovery_overhead.py -s
"""

from __future__ import annotations

import time

import numpy as np

from repro.apps.pagerank import BatchPageRank, PageRank
from repro.faults import FaultPlan, WorkerCrash
from repro.graph.csr import CSRGraph
from bench_io import bench_path, env_float, env_int, write_bench
from repro.pregel.engine import PregelEngine
from repro.pregel.vector_coordinator import VectorPregelEngine

BENCH_PATH = bench_path("BENCH_recovery.json")

NUM_VERTICES = env_int("RECOVERY_BENCH_NUM_VERTICES", 100000)
DICT_NUM_VERTICES = env_int("RECOVERY_BENCH_DICT_NUM_VERTICES", 10000)
HALF_DEGREE = 10  # 10 ring neighbours per side -> ~1M undirected edges
REWIRE_BETA = 0.2
NUM_WORKERS = 8
# 28 iterations -> 30 supersteps -> checkpoints at 0,5,...,25: exactly one
# snapshot per CHECKPOINT_INTERVAL supersteps, the density the overhead
# figure is quoted for.
PAGERANK_ITERATIONS = 28
CHECKPOINT_INTERVAL = 5
MAX_OVERHEAD = env_float("RECOVERY_BENCH_MAX_OVERHEAD", 0.10)
REPEATS = 3


def _watts_strogatz_csr(num_vertices: int, seed: int) -> CSRGraph:
    """Same deduplicated generator as ``test_pregel_speed.py``."""
    rng = np.random.default_rng(seed)
    u = np.repeat(np.arange(num_vertices, dtype=np.int64), HALF_DEGREE)
    v = (u + np.tile(np.arange(1, HALF_DEGREE + 1, dtype=np.int64), num_vertices)) % (
        num_vertices
    )
    rewire = rng.random(u.shape[0]) < REWIRE_BETA
    v = v.copy()
    v[rewire] = rng.integers(num_vertices, size=int(rewire.sum()))
    keep = u != v
    lo = np.minimum(u[keep], v[keep])
    hi = np.maximum(u[keep], v[keep])
    pairs = np.unique(np.stack([lo, hi], axis=1), axis=0)
    return CSRGraph.from_edge_list(pairs, num_vertices)


def _vector_run(csr: CSRGraph, **engine_kwargs):
    engine = VectorPregelEngine(num_workers=NUM_WORKERS, **engine_kwargs)
    start = time.perf_counter()
    result = engine.run_on_csr(BatchPageRank(num_iterations=PAGERANK_ITERATIONS), csr)
    return result, time.perf_counter() - start


def test_checkpoint_overhead_and_recovery_equality(tmp_path):
    csr = _watts_strogatz_csr(NUM_VERTICES, seed=7)
    ckpt_kwargs = {
        "checkpoint_interval": CHECKPOINT_INTERVAL,
        "checkpoint_dir": tmp_path / "overhead",
    }

    # Untimed warmup: pays the one-time costs on both sides (allocator and
    # cache warmup; the static shard.npz, written once per checkpoint
    # directory and shared by every snapshot of the job's lifetime).
    _vector_run(csr)
    ckpt_result, _ = _vector_run(csr, **ckpt_kwargs)

    # Interleave clean and checkpointed repeats so disk and scheduler
    # noise hits both sides alike, and compare best against best.
    clean_seconds = ckpt_seconds = float("inf")
    for _ in range(REPEATS):
        clean_result, seconds = _vector_run(csr)
        clean_seconds = min(clean_seconds, seconds)
        ckpt_result, seconds = _vector_run(csr, **ckpt_kwargs)
        ckpt_seconds = min(ckpt_seconds, seconds)
    overhead = ckpt_seconds / clean_seconds - 1.0

    # Checkpointing must not change the result.
    assert np.array_equal(ckpt_result.values, clean_result.values)
    assert ckpt_result.stats.checkpoints_written >= 2

    # Crash mid-run, recover, and demand the uninterrupted answer.
    crash_superstep = CHECKPOINT_INTERVAL + 1
    engine = VectorPregelEngine(
        num_workers=NUM_WORKERS,
        checkpoint_interval=CHECKPOINT_INTERVAL,
        checkpoint_dir=tmp_path / "recovery",
        fault_plan=FaultPlan(crashes=(WorkerCrash(superstep=crash_superstep, worker=3),)),
    )
    start = time.perf_counter()
    recovered = engine.run_on_csr(
        BatchPageRank(num_iterations=PAGERANK_ITERATIONS), csr
    )
    recovered_seconds = time.perf_counter() - start
    assert recovered.stats.recoveries == 1
    assert np.array_equal(recovered.values, clean_result.values)
    assert np.array_equal(recovered.original_ids, clean_result.original_ids)
    assert recovered.num_supersteps == clean_result.num_supersteps
    assert recovered.halt_reason == clean_result.halt_reason
    assert recovered.aggregator_history == clean_result.aggregator_history
    assert recovered.stats.superstep_stats == clean_result.stats.superstep_stats

    # Dictionary engine at reduced scale, reported but not asserted: its
    # per-superstep Python cost dwarfs the snapshot cost, so the overhead
    # figure is informational only.
    dict_csr = _watts_strogatz_csr(DICT_NUM_VERTICES, seed=7)
    dict_vertices = PregelEngine.vertices_from_csr(dict_csr)
    start = time.perf_counter()
    PregelEngine(num_workers=NUM_WORKERS).run(
        PageRank(num_iterations=PAGERANK_ITERATIONS), dict_vertices
    )
    dict_clean_seconds = time.perf_counter() - start
    dict_vertices = PregelEngine.vertices_from_csr(dict_csr)
    start = time.perf_counter()
    PregelEngine(
        num_workers=NUM_WORKERS,
        checkpoint_interval=CHECKPOINT_INTERVAL,
        checkpoint_dir=tmp_path / "dict",
    ).run(PageRank(num_iterations=PAGERANK_ITERATIONS), dict_vertices)
    dict_ckpt_seconds = time.perf_counter() - start

    payload = {
        "workload": {
            "num_vertices": csr.num_vertices,
            "num_edges": csr.num_edges,
            "num_workers": NUM_WORKERS,
            "pagerank_iterations": PAGERANK_ITERATIONS,
            "checkpoint_interval": CHECKPOINT_INTERVAL,
            "generator": "watts-strogatz (ring degree 20, beta 0.2, deduped)",
            "seed": 7,
        },
        "vector": {
            "clean_seconds": round(clean_seconds, 4),
            "checkpointed_seconds": round(ckpt_seconds, 4),
            "overhead": round(overhead, 4),
            "recovered_seconds": round(recovered_seconds, 4),
            "checkpoints_written": ckpt_result.stats.checkpoints_written,
            "recoveries": recovered.stats.recoveries,
            "recovered_byte_identical": True,
        },
        "dict_reduced": {
            "num_vertices": dict_csr.num_vertices,
            "clean_seconds": round(dict_clean_seconds, 4),
            "checkpointed_seconds": round(dict_ckpt_seconds, 4),
            "overhead": round(dict_ckpt_seconds / dict_clean_seconds - 1.0, 4),
        },
        "max_overhead": MAX_OVERHEAD,
    }
    write_bench(BENCH_PATH, payload)
    print(
        f"\nrecovery overhead: clean {clean_seconds:.2f}s -> checkpointed "
        f"{ckpt_seconds:.2f}s ({overhead:+.1%}), recovered run "
        f"{recovered_seconds:.2f}s -> {BENCH_PATH.name}"
    )
    assert overhead <= MAX_OVERHEAD
