"""Out-of-core scale driver: 100M-edge ingestion + partitioning run.

The paper's headline claim is operating at Facebook scale (Section V-D);
this driver exercises the repro's equivalent capability on one machine:
a synthetic edge stream far larger than the configured memory budget is
ingested through the chunked external sort (:func:`repro.graph.io.
ingest_edge_chunks`) into an on-disk CSR store, then partitioned by
FastSpinner straight off the opened store (``--storage-chunk`` half-edges
streamed at a time, passed to :func:`~repro.graph.mmap_store.open_store`)
— all while the process's peak RSS stays bounded by the chunk sizes, not
the edge count.

Run as a module so the measurement is isolated in a fresh process (peak
RSS via ``resource.getrusage`` is a process-lifetime high-water mark and
would otherwise be polluted by whatever ran before)::

    PYTHONPATH=src python -m repro.experiments.scale \
        --num-edges 100000000 --num-partitions 8

The resulting JSON (one object on stdout) is consumed by
``benchmarks/test_scale_speed.py``, which asserts the RSS budget and
records the numbers in ``BENCH_scale.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from collections.abc import Iterator

import numpy as np

from repro.core.config import SpinnerConfig
from repro.core.fast import FastSpinner
from repro.graph.io import DEFAULT_RUN_HALF_EDGES, ingest_edge_chunks
from repro.graph.mmap_store import DEFAULT_STORAGE_CHUNK, open_store

#: Default synthetic-workload shape: average degree ~40 (between the
#: paper's LiveJournal and Twitter graphs) at 100M edges.
DEFAULT_NUM_EDGES = 100_000_000
DEFAULT_EDGES_PER_VERTEX = 20


def synthetic_edge_chunks(
    num_edges: int,
    num_vertices: int,
    seed: int,
    chunk_edges: int = 1 << 21,
) -> Iterator[tuple[np.ndarray, np.ndarray, None]]:
    """Seeded generator of forward-edge chunks (no self-loops).

    Endpoints are uniform; the target is drawn uniformly from the other
    ``num_vertices - 1`` vertices via a shift, so no edge is a self-loop
    and the stream is reproducible chunk-for-chunk for a given seed.
    Peak memory is ``O(chunk_edges)``.
    """
    if num_vertices < 2:
        raise ValueError("synthetic stream needs at least 2 vertices")
    rng = np.random.default_rng(seed)
    remaining = num_edges
    while remaining > 0:
        count = min(chunk_edges, remaining)
        u = rng.integers(0, num_vertices, count, dtype=np.int64)
        shift = rng.integers(0, num_vertices - 1, count, dtype=np.int64)
        v = (u + 1 + shift) % num_vertices
        yield u, v, None
        remaining -= count


def peak_rss_mb() -> float:
    """Current process-lifetime peak RSS in MiB (``ru_maxrss``)."""
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        return maxrss / (1024 * 1024)
    return maxrss / 1024


def run_scale(
    num_edges: int = DEFAULT_NUM_EDGES,
    num_vertices: int | None = None,
    num_partitions: int = 8,
    seed: int = 42,
    store_dir: str | None = None,
    chunk_half_edges: int = DEFAULT_STORAGE_CHUNK,
    run_half_edges: int = DEFAULT_RUN_HALF_EDGES,
    max_iterations: int = 10,
) -> dict:
    """Ingest a synthetic graph out-of-core and partition it; return stats.

    The returned dictionary holds the workload shape, wall-clock seconds
    and throughput (edges/second) of both phases, the partition quality
    (phi / rho), and the peak RSS high-water marks after each phase.
    ``max_iterations`` bounds the label-propagation run: the benchmark
    measures out-of-core throughput under a memory budget, not
    convergence (the equivalence suite pins exactness at test scale).
    """
    if num_vertices is None:
        num_vertices = max(2, num_edges // DEFAULT_EDGES_PER_VERTEX)
    cleanup = store_dir is None
    if store_dir is None:
        store_dir = tempfile.mkdtemp(prefix="spinner-scale-")
    try:
        start = time.perf_counter()
        meta = ingest_edge_chunks(
            synthetic_edge_chunks(num_edges, num_vertices, seed),
            store_dir,
            num_vertices=num_vertices,
            run_half_edges=run_half_edges,
        )
        ingest_seconds = time.perf_counter() - start
        rss_after_ingest = peak_rss_mb()

        config = SpinnerConfig(seed=seed, max_iterations=max_iterations)
        start = time.perf_counter()
        with open_store(store_dir, chunk_half_edges) as store:
            result = FastSpinner(config).partition(store, num_partitions)
        partition_seconds = time.perf_counter() - start
        rss_after_partition = peak_rss_mb()
    finally:
        if cleanup:
            shutil.rmtree(store_dir, ignore_errors=True)

    return {
        "num_edges": int(num_edges),
        "num_vertices": int(num_vertices),
        "num_partitions": int(num_partitions),
        "seed": int(seed),
        "chunk_half_edges": int(chunk_half_edges),
        "run_half_edges": int(run_half_edges),
        "store_half_edges": int(meta["num_half_edges"]),
        "ingest_seconds": round(ingest_seconds, 3),
        "ingest_edges_per_s": round(num_edges / ingest_seconds, 1),
        "iterations": int(result.iterations),
        "partition_seconds": round(partition_seconds, 3),
        "partition_half_edges_per_s": round(
            meta["num_half_edges"] * result.iterations / partition_seconds, 1
        ),
        "phi": round(result.phi, 4),
        "rho": round(result.rho, 4),
        "peak_rss_mb_ingest": round(rss_after_ingest, 1),
        "peak_rss_mb": round(rss_after_partition, 1),
    }


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point: run the scale workload, print JSON."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--num-edges", type=int, default=DEFAULT_NUM_EDGES)
    parser.add_argument(
        "--num-vertices",
        type=int,
        default=None,
        help="defaults to num-edges // 20 (average degree ~40)",
    )
    parser.add_argument("--num-partitions", type=int, default=8)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--store",
        default=None,
        help="store directory (temporary and removed when unset)",
    )
    parser.add_argument(
        "--storage-chunk",
        dest="chunk_half_edges",
        type=int,
        default=DEFAULT_STORAGE_CHUNK,
        help="half-edges the opened store streams per chunk",
    )
    parser.add_argument("--run-half-edges", type=int, default=DEFAULT_RUN_HALF_EDGES)
    parser.add_argument("--max-iterations", type=int, default=10)
    args = parser.parse_args(argv)
    stats = run_scale(
        num_edges=args.num_edges,
        num_vertices=args.num_vertices,
        num_partitions=args.num_partitions,
        seed=args.seed,
        store_dir=args.store,
        chunk_half_edges=args.chunk_half_edges,
        run_half_edges=args.run_half_edges,
        max_iterations=args.max_iterations,
    )
    print(json.dumps(stats, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
