"""Benchmark: dataset proxy generation, raw-block draws vs scalar draws.

Times ``load_dataset_csr("LJ", 3)`` (12,000 vertices, about 84k edges,
the proxy ``bench/run.py --workload partition-LJ`` builds) against the
same proxy built by the scalar-draw oracle of
``tests/oracles/generators.py``, which calls numpy's ``Generator`` once
per draw and assembles CSR from a list of edge tuples.  Both must give
the same graph, digest for digest; the raw-block path must be at least
2x faster (median of 3 runs each).  The numbers go to
``BENCH_generation.json`` at the repo root under ``REPRO_WRITE_BENCH=1``.

Run directly with::

    PYTHONPATH=src python -m pytest benchmarks/test_generation_speed.py -s
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time

import numpy as np
from oracles import generators as oracle

from bench_io import bench_path, write_bench
from repro.graph.datasets import load_dataset_csr

BENCH_PATH = bench_path("BENCH_generation.json")

DATASET = "LJ"
SCALE = 3.0
REPEATS = 3
MIN_SPEEDUP = 2.0


def _digest(csr) -> str:
    sha = hashlib.sha256()
    for array in (csr.indptr, csr.indices, csr.weights, csr.original_ids):
        sha.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    return sha.hexdigest()


def _median_seconds(load) -> tuple[float, str]:
    """Median wall clock of ``REPEATS`` loads, and the loaded graph's digest."""
    seconds = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        csr = load(DATASET, scale=SCALE)
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds), _digest(csr)


def test_generation_speedup_over_scalar_draws():
    scalar_seconds, scalar_digest = _median_seconds(oracle.load_dataset_csr)
    fast_seconds, fast_digest = _median_seconds(load_dataset_csr)
    speedup = scalar_seconds / fast_seconds
    payload = {
        "benchmark": "dataset proxy generation, scalar Generator draws vs raw-block draws",
        "dataset": DATASET,
        "scale": SCALE,
        "repeats": REPEATS,
        "scalar_seconds": round(scalar_seconds, 4),
        "raw_block_seconds": round(fast_seconds, 4),
        "speedup": round(speedup, 2),
        "digests_identical": scalar_digest == fast_digest,
    }
    write_bench(BENCH_PATH, payload)
    print()
    print(json.dumps(payload, indent=2))
    assert fast_digest == scalar_digest
    assert speedup >= MIN_SPEEDUP, payload
