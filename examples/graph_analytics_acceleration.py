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

from repro.apps.pagerank import PageRank
from repro.apps.sssp import ShortestPaths
from repro.apps.wcc import WeaklyConnectedComponents
from repro.core.config import SpinnerConfig
from repro.core.fast import FastSpinner
from repro.experiments.giraph import run_application
from repro.graph.conversion import ensure_undirected
from repro.graph.datasets import load_dataset
from repro.metrics.reporting import format_table, improvement_percentage


def main() -> None:
    workers = 8

    graph = ensure_undirected(load_dataset("LJ", scale=0.3, seed=3))
    print(f"graph: {graph.num_vertices} vertices, {graph.num_edges} edges, "
          f"{workers} workers")

    # Partition once with Spinner; reuse the assignment for every workload.
    assignment = FastSpinner(SpinnerConfig(seed=3)).partition(graph, workers).to_assignment()

    source = next(iter(graph.vertices()))
    applications = {
        "shortest paths (BFS)": ShortestPaths(source=source),
        "pagerank (10 iter)": PageRank(num_iterations=10),
        "connected components": WeaklyConnectedComponents(),
    }

    rows = []
    for name, program_factory in applications.items():
        hash_run = run_application(program_factory, graph, num_workers=workers)
        # Programs carry per-run state in supersteps only, so re-instantiate.
        program_again = type(program_factory)(**_constructor_args(program_factory, source))
        spinner_run = run_application(
            program_again, graph, num_workers=workers, assignment=assignment
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


def _constructor_args(program, source):
    """Rebuild constructor arguments for the simple app programs."""
    if isinstance(program, ShortestPaths):
        return {"source": source}
    if isinstance(program, PageRank):
        return {"num_iterations": program.num_iterations}
    return {}


if __name__ == "__main__":
    main()
