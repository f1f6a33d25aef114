"""Figure 6 — scalability of Spinner.

The paper measures the runtime of the first (most expensive, fully
deterministic) label-propagation iteration on Watts-Strogatz graphs while
varying (a) the number of vertices, (b) the number of workers and (c) the
number of partitions, observing near-linear trends in (a) and (c) and
near-linear speedup in (b).

Substitution (documented in DESIGN.md): the paper's wall-clock numbers
come from Hadoop clusters with up to 116 machines and billion-vertex
graphs.  Here (a) and (c) time the vectorized kernel's first iteration on
growing graphs (built as CSR arrays before the clock starts, so only the
iteration is timed; rows report the median of the repeats and their
interquartile spread), and (b) uses the simulated Pregel cluster's cost model,
whose superstep time is the maximum per-worker cost — the same quantity
the paper measures, in arbitrary units.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.fast import FastSpinner
from repro.core.spinner import SpinnerPartitioner
from repro.experiments.common import ExperimentScale, spinner_config
from repro.graph.csr import CSRGraph
from repro.graph.generators import _watts_strogatz_builder
from repro.pregel.cost_model import ClusterCostModel


#: Timed repeats per configuration; rows report their median and spread.
REPEATS = 5


def _first_iteration_runtime(
    graph: CSRGraph, num_partitions: int, seed: int
) -> tuple[float, float]:
    """Median wall-clock seconds of one full Spinner iteration, with spread.

    Returns ``(median, interquartile range)`` over :data:`REPEATS` timed
    runs of the vectorized kernel.
    """
    config = spinner_config(seed, max_iterations=1)
    spinner = FastSpinner(config)
    # Warm-up run so first-call costs (page faults, allocator, cached
    # degree views) don't pollute the first measured configuration.
    spinner.partition(graph, num_partitions, track_history=False)
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        spinner.partition(graph, num_partitions, track_history=False)
        samples.append(time.perf_counter() - start)
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return float(median), float(q3 - q1)


def run_fig6a(
    vertex_counts: tuple[int, ...] = (1000, 2000, 4000, 8000, 16000),
    degree: int = 10,
    beta: float = 0.3,
    num_partitions: int = 16,
    scale: ExperimentScale | None = None,
) -> list[dict]:
    """Runtime of the first iteration vs. graph size (Figure 6a)."""
    scale = scale or ExperimentScale.default()
    rows = []
    for n in vertex_counts:
        graph = _watts_strogatz_builder(n, degree, beta, scale.seed).to_csr()
        runtime, spread = _first_iteration_runtime(graph, num_partitions, scale.seed)
        rows.append(
            {
                "vertices": n,
                "edges": graph.num_edges,
                "runtime_ms": round(runtime * 1000.0, 2),
                "runtime_iqr_ms": round(spread * 1000.0, 2),
            }
        )
    return rows


def run_fig6b(
    worker_counts: tuple[int, ...] = (2, 4, 8, 16),
    num_vertices: int = 2000,
    degree: int = 10,
    num_partitions: int = 16,
    scale: ExperimentScale | None = None,
) -> list[dict]:
    """Simulated first-iteration time vs. number of workers (Figure 6b).

    Uses the Pregel implementation so the per-worker cost accounting (and
    therefore the speedup from splitting the same work across more
    workers) is visible.
    """
    scale = scale or ExperimentScale.default()
    graph = _watts_strogatz_builder(num_vertices, degree, 0.3, scale.seed).to_csr()
    cost_model = ClusterCostModel()
    rows = []
    for workers in worker_counts:
        config = spinner_config(scale.seed, max_iterations=1)
        partitioner = SpinnerPartitioner(config, num_workers=workers, cost_model=cost_model)
        result = partitioner.partition(graph, num_partitions)
        assert result.pregel_result is not None
        # Sum the two supersteps of the first iteration (ComputeScores +
        # ComputeMigrations), mirroring the paper's definition.
        iteration_stats = result.pregel_result.stats.superstep_stats[1:3]
        simulated = sum(s.simulated_time(cost_model) for s in iteration_stats)
        rows.append(
            {
                "workers": workers,
                "simulated_time": round(simulated, 1),
            }
        )
    return rows


def run_fig6c(
    partition_counts: tuple[int, ...] = (2, 4, 8, 16, 32, 64),
    num_vertices: int = 8000,
    degree: int = 10,
    scale: ExperimentScale | None = None,
) -> list[dict]:
    """Runtime of the first iteration vs. number of partitions (Figure 6c)."""
    scale = scale or ExperimentScale.default()
    graph = _watts_strogatz_builder(num_vertices, degree, 0.3, scale.seed).to_csr()
    rows = []
    for k in partition_counts:
        runtime, spread = _first_iteration_runtime(graph, k, scale.seed)
        rows.append(
            {
                "partitions": k,
                "runtime_ms": round(runtime * 1000.0, 2),
                "runtime_iqr_ms": round(spread * 1000.0, 2),
            }
        )
    return rows
