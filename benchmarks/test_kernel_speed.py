"""Tentpole benchmark: frontier delta kernel vs. the dense reference kernel.

Times ``FastSpinner.partition`` end-to-end on a 100k-vertex / 1M-edge
Watts-Strogatz-style graph (the paper's Figure 6 scalability workload) at
``k = 32`` under both kernels and records the numbers in
``BENCH_kernel.json`` at the repo root so the performance trajectory is
tracked from PR to PR.

Two phases are measured:

* **cold** — random initial labels.  Spinner's capacity constraint caps
  migration volume at the capacity slack (~5% of load per iteration), so
  the frontier stays moderately large; the delta kernel still wins but
  the gap is bandwidth-limited (recorded, not asserted).
* **incremental** — repartitioning after 2% membership churn on a
  locality-seeded assignment, the paper's Section III-D scenario and the
  regime the frontier kernel is designed for.  Migrations decay to a
  handful per iteration, per-iteration work collapses to the frontier
  volume, and the >= 5x end-to-end speedup is asserted here.

Both phases assert byte-identical labels between the kernels.

Run directly with::

    PYTHONPATH=src python -m pytest benchmarks/test_kernel_speed.py -s
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import SpinnerConfig
from repro.core.fast import FastSpinner
from repro.graph.csr import CSRGraph
from bench_io import bench_path, env_float, write_bench
from oracles.dense_kernel import DenseSpinner

BENCH_PATH = bench_path("BENCH_kernel.json")

NUM_VERTICES = 100_000
HALF_DEGREE = 10  # 10 ring neighbours per side -> 1M undirected edges
REWIRE_BETA = 0.2
NUM_PARTITIONS = 32
COLD_ITERATIONS = 12
INCREMENTAL_ITERATIONS = 48
CHURN_FRACTION = 0.02
# Shared CI runners have noisy wall clocks; they may relax the floor via
# the environment (see .github/workflows/ci.yml) without touching the
# dedicated-machine contract of 5x.
MIN_SPEEDUP = env_float("KERNEL_BENCH_MIN_SPEEDUP", 5.0)


def _watts_strogatz_csr(num_vertices: int, seed: int) -> CSRGraph:
    """Vectorized Watts-Strogatz-style graph (ring lattice + rewiring)."""
    rng = np.random.default_rng(seed)
    u = np.repeat(np.arange(num_vertices, dtype=np.int64), HALF_DEGREE)
    v = (u + np.tile(np.arange(1, HALF_DEGREE + 1, dtype=np.int64), num_vertices)) % (
        num_vertices
    )
    rewire = rng.random(u.shape[0]) < REWIRE_BETA
    v = v.copy()
    v[rewire] = rng.integers(num_vertices, size=int(rewire.sum()))
    keep = u != v
    return CSRGraph.from_edge_list(np.stack([u[keep], v[keep]], axis=1), num_vertices)


def _churned_assignment(num_vertices: int, seed: int) -> np.ndarray:
    """Locality-seeded assignment with a randomly relabelled 2% slice."""
    labels = (np.arange(num_vertices, dtype=np.int64) * NUM_PARTITIONS) // num_vertices
    rng = np.random.default_rng(seed)
    churn = rng.random(num_vertices) < CHURN_FRACTION
    labels[churn] = rng.integers(NUM_PARTITIONS, size=int(churn.sum()))
    return labels


def _time_partition(spinner, csr, initial, repeats):
    """Best wall clock over ``repeats`` full partition runs."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        init = None if initial is None else initial.copy()
        start = time.perf_counter()
        result = spinner.partition(
            csr, NUM_PARTITIONS, initial_labels=init, track_history=False
        )
        best = min(best, time.perf_counter() - start)
    return best, result


def _run_phase(csr, iterations, initial, repeats):
    config = SpinnerConfig(
        seed=11, max_iterations=iterations, halt_window=iterations + 5
    )
    dense_seconds, dense = _time_partition(DenseSpinner(config), csr, initial, repeats)
    frontier_seconds, frontier = _time_partition(FastSpinner(config), csr, initial, repeats)
    assert np.array_equal(dense.labels, frontier.labels)
    assert dense.iterations == frontier.iterations == iterations
    assert dense.total_messages == frontier.total_messages
    return {
        "iterations": iterations,
        "dense_seconds": round(dense_seconds, 4),
        "frontier_seconds": round(frontier_seconds, 4),
        "speedup": round(dense_seconds / frontier_seconds, 2),
        "phi": round(frontier.phi, 4),
        "rho": round(frontier.rho, 4),
        "labels_identical": True,
    }


def test_frontier_kernel_speedup_on_100k_1m_graph():
    csr = _watts_strogatz_csr(NUM_VERTICES, seed=7)
    cold = _run_phase(csr, COLD_ITERATIONS, initial=None, repeats=1)
    # Best of three: the asserted phase sits close enough to the 5x floor
    # that a single noisy wall clock on a loaded machine can dip below it.
    incremental = _run_phase(
        csr,
        INCREMENTAL_ITERATIONS,
        initial=_churned_assignment(NUM_VERTICES, seed=3),
        repeats=3,
    )

    payload = {
        "workload": {
            "num_vertices": csr.num_vertices,
            "num_edges": csr.num_edges,
            "num_partitions": NUM_PARTITIONS,
            "generator": "watts-strogatz (ring degree 20, beta 0.2)",
            "seed": 11,
        },
        "cold_start": cold,
        "incremental_2pct_churn": incremental,
    }
    write_bench(BENCH_PATH, payload)
    print(
        "\nkernel speedup: cold "
        f"{cold['dense_seconds']:.2f}s -> {cold['frontier_seconds']:.2f}s "
        f"({cold['speedup']:.1f}x); incremental "
        f"{incremental['dense_seconds']:.2f}s -> "
        f"{incremental['frontier_seconds']:.2f}s "
        f"({incremental['speedup']:.1f}x) -> {BENCH_PATH.name}"
    )
    assert incremental["speedup"] >= MIN_SPEEDUP
