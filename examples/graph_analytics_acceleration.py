#!/usr/bin/env python3
"""Accelerating Giraph-style analytics with a Spinner partitioning.

Reproduces, as a runnable example, the integration of Section V-F of the
paper: partition the input graph with Spinner, place vertices with the
same label on the same worker of the (simulated) Giraph cluster, and
compare PageRank / shortest paths / connected components runtimes against
the default hash placement.

Run with:  python examples/graph_analytics_acceleration.py
"""

from __future__ import annotations

from repro.apps.pagerank import BatchPageRank
from repro.apps.sssp import BatchShortestPaths
from repro.apps.wcc import BatchWeaklyConnectedComponents
from repro.core.config import SpinnerConfig
from repro.core.fast import FastSpinner
from repro.experiments.giraph import run_application
from repro.graph.datasets import load_dataset_csr
from repro.metrics.reporting import format_table, improvement_percentage


def main() -> None:
    workers = 8

    graph = load_dataset_csr("LJ", scale=0.3, seed=3)
    print(f"graph: {graph.num_vertices} vertices, {graph.num_edges} edges, "
          f"{workers} workers")

    # Partition once with Spinner; reuse the assignment for every workload.
    assignment = FastSpinner(SpinnerConfig(seed=3)).partition(graph, workers).to_assignment()

    source = int(graph.original_ids[0])
    applications = {
        "shortest paths (BFS)": lambda: BatchShortestPaths(source=source),
        "pagerank (10 iter)": lambda: BatchPageRank(num_iterations=10),
        "connected components": BatchWeaklyConnectedComponents,
    }

    rows = []
    for name, make_program in applications.items():
        # A fresh program per run: programs are not shared between runs.
        hash_run = run_application(make_program(), graph, num_workers=workers)
        spinner_run = run_application(
            make_program(), graph, num_workers=workers, assignment=assignment
        )
        rows.append(
            {
                "application": name,
                "time_hash": round(hash_run.simulated_time, 1),
                "time_spinner": round(spinner_run.simulated_time, 1),
                "improvement_pct": round(
                    improvement_percentage(hash_run.simulated_time,
                                           spinner_run.simulated_time), 1
                ),
                "network_msgs_hash": hash_run.remote_messages,
                "network_msgs_spinner": spinner_run.remote_messages,
            }
        )

    print()
    print(format_table(rows, title="Hash placement vs Spinner placement (simulated cluster)"))


if __name__ == "__main__":
    main()
