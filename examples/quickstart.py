#!/usr/bin/env python3
"""Quickstart: partition a graph with Spinner and inspect the result.

Generates a small social-network-like graph, partitions it into 8 parts
with the vectorized Spinner implementation, and compares the locality and
balance against Giraph's default hash partitioning.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.core.config import SpinnerConfig
from repro.core.fast import FastSpinner
from repro.graph.generators import _powerlaw_cluster_builder
from repro.metrics.quality import quality_summary
from repro.metrics.reporting import format_table
from repro.partitioners.hashing import HashPartitioner


def main() -> None:
    num_partitions = 8

    # 1. Build a CSR graph (a generator, a dataset proxy or an edge list:
    #    repro.graph.io.load_directed_edge_list).
    graph = _powerlaw_cluster_builder(3000, 8, 0.6, seed=1).to_csr()
    print(f"graph: {graph.num_vertices} vertices, {graph.num_edges} edges")

    # 2. Partition it with Spinner (paper defaults: c=1.05, eps=0.001, w=5).
    spinner = FastSpinner(SpinnerConfig(seed=42))
    result = spinner.partition(graph, num_partitions)
    print(
        f"spinner finished after {result.iterations} iterations "
        f"(halted by {result.halted_by})"
    )

    # 3. Compare against hash partitioning (partitioners run on CSR arrays).
    hash_labels = HashPartitioner().partition_array(graph, num_partitions)
    rows = [
        {"partitioner": "spinner",
         **quality_summary(graph, result.labels, num_partitions).as_row()},
        {"partitioner": "hash",
         **quality_summary(graph, hash_labels, num_partitions).as_row()},
    ]
    print()
    print(format_table(rows, title=f"Partitioning quality (k={num_partitions})"))

    # 4. The per-iteration history shows how locality and balance evolve
    #    (this is the data behind Figure 4 of the paper).
    print()
    print(format_table(
        [
            {"iteration": r.iteration, "phi": round(r.phi, 3), "rho": round(r.rho, 3)}
            for r in result.history[:: max(1, len(result.history) // 10)]
        ],
        title="Convergence history (sampled)",
    ))


if __name__ == "__main__":
    main()
