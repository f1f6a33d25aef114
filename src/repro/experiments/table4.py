"""Table IV — impact of partitioning balance on worker load.

The paper runs 20 PageRank iterations on the Twitter graph over 256
workers, once with hash partitioning and once with the Spinner
partitioning, and reports the mean / max / min time workers spend per
superstep.  The headline observation: with hash partitioning workers idle
~31% of each superstep waiting for the slowest one, with Spinner only
~19%, because the partition loads (and hence worker loads) are balanced
and fewer messages cross the network.

This harness reproduces the same measurement on the simulated cluster with
the cost model of :mod:`repro.pregel.cost_model`.
"""

from __future__ import annotations

import numpy as np

from repro.apps import make_app_program
from repro.core.fast import FastSpinner
from repro.experiments.common import ExperimentScale, spinner_config
from repro.experiments.giraph import run_application
from repro.graph.conversion import ensure_undirected
from repro.graph.datasets import load_dataset


def run_table4(
    num_workers: int = 16,
    num_partitions: int = 16,
    pagerank_iterations: int = 10,
    scale: ExperimentScale | None = None,
    engine: str = "dict",
) -> list[dict]:
    """Return one row per approach with mean/max/min superstep worker time.

    ``engine`` selects the Pregel runtime (``"dict"`` or ``"vector"``); the
    two produce identical statistics, the vector engine just gets there
    orders of magnitude faster on large proxies.
    """
    scale = scale or ExperimentScale.default()
    graph = load_dataset("TW", scale=scale.graph_scale, seed=scale.seed)
    undirected = ensure_undirected(graph)

    spinner = FastSpinner(spinner_config(scale.seed))
    assignment = spinner.partition(undirected, num_partitions, track_history=False).to_assignment()

    rows: list[dict] = []
    for approach, placement_assignment in (("random", None), ("spinner", assignment)):
        run = run_application(
            make_app_program("pagerank", engine, num_iterations=pagerank_iterations),
            undirected,
            num_workers=num_workers,
            assignment=placement_assignment,
            engine=engine,
        )
        per_superstep = run.superstep_times()
        means = np.array([row["mean"] for row in per_superstep])
        maxes = np.array([row["max"] for row in per_superstep])
        mins = np.array([row["min"] for row in per_superstep])
        idle = float(np.mean(1.0 - means / np.where(maxes > 0, maxes, 1.0)))
        rows.append(
            {
                "approach": approach,
                "mean": round(float(means.mean()), 1),
                "mean_std": round(float(means.std()), 1),
                "max": round(float(maxes.mean()), 1),
                "max_std": round(float(maxes.std()), 1),
                "min": round(float(mins.mean()), 1),
                "min_std": round(float(mins.std()), 1),
                "idle_fraction": round(idle, 3),
            }
        )
    return rows
