"""Benchmark: the block edge-list reader vs the per-line oracle reader.

Writes the edge list the ``partition-store`` workload of ``bench/run.py``
ingests — a seeded Watts–Strogatz ring (60,000 vertices, 8 successors
each, rewiring probability 0.2, shuffled lines), 480,000 ``u v`` lines —
and reads it with :func:`~repro.graph.io.iter_edge_list_chunks` (blocks
of a few MiB, one :func:`numpy.loadtxt` per block) and with
``tests/oracles/edge_list.py``'s ``read_edge_rows`` (one ``str.split``
and three ``int()`` per line, the loop ``ingest`` ran before).  Both must give the same rows; the block
reader must be at least 4x faster (median of 3 reads each; the floor
relaxes through ``IO_READER_BENCH_MIN_SPEEDUP``).  The numbers go to
``BENCH_io_reader.json`` at the repo root under ``REPRO_WRITE_BENCH=1``.

Run directly with::

    PYTHONPATH=src python -m pytest benchmarks/test_edge_list_speed.py -s
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np
from oracles.edge_list import read_edge_rows

from bench_io import bench_path, env_float, write_bench
from repro.graph.io import iter_edge_list_chunks

BENCH_PATH = bench_path("BENCH_io_reader.json")

VERTICES = 60_000
SUCCESSORS = 8
REWIRE = 0.2
SEED = 1
REPEATS = 3
MIN_SPEEDUP = env_float("IO_READER_BENCH_MIN_SPEEDUP", 4.0)


def _watts_strogatz_lines(path) -> int:
    """Write the shuffled ring's ``u v`` lines; return the line count."""
    rng = np.random.default_rng(SEED)
    u = np.repeat(np.arange(VERTICES, dtype=np.int64), SUCCESSORS)
    v = (u + np.tile(np.arange(1, SUCCESSORS + 1, dtype=np.int64), VERTICES)) % VERTICES
    rewire = rng.random(u.shape[0]) < REWIRE
    v[rewire] = (u[rewire] + rng.integers(1, VERTICES, int(rewire.sum()))) % VERTICES
    np.savetxt(path, np.column_stack([u, v])[rng.permutation(u.shape[0])], fmt="%d")
    return int(u.shape[0])


def _block_rows(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    chunks = list(iter_edge_list_chunks(path))
    return (
        np.concatenate([s for s, _, _ in chunks]),
        np.concatenate([t for _, t, _ in chunks]),
        np.concatenate([np.ones_like(s) if w is None else w for s, _, w in chunks]),
    )


def _median_seconds(read, path) -> tuple[float, tuple[np.ndarray, ...]]:
    seconds = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        rows = read(path)
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds), rows


def test_block_reader_speedup_over_per_line_reader(tmp_path):
    path = tmp_path / "edges.txt"
    lines = _watts_strogatz_lines(path)
    oracle_seconds, oracle_rows = _median_seconds(read_edge_rows, path)
    block_seconds, block_rows = _median_seconds(_block_rows, path)
    speedup = oracle_seconds / block_seconds
    payload = {
        "benchmark": "edge-list parse, per-line str.split vs block numpy.loadtxt",
        "lines": lines,
        "bytes": path.stat().st_size,
        "repeats": REPEATS,
        "per_line_seconds": round(oracle_seconds, 4),
        "block_seconds": round(block_seconds, 4),
        "speedup": round(speedup, 2),
        "rows_identical": all(map(np.array_equal, oracle_rows, block_rows)),
    }
    write_bench(BENCH_PATH, payload)
    print()
    print(json.dumps(payload, indent=2))
    assert oracle_rows[0].shape == (lines,)
    assert payload["rows_identical"]
    assert speedup >= MIN_SPEEDUP, payload
