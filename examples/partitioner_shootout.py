#!/usr/bin/env python3
"""Compare Spinner against the baseline partitioners on one graph.

A runnable miniature of Table I: every registered partitioner (hash, LDG,
Fennel, the METIS-like multilevel partitioner, Wang et al. and the two
Spinner implementations — FastSpinner and Spinner on the Pregel engine)
partitions the same Twitter-like graph, and the script prints locality,
balance and wall-clock seconds for a range of partition counts.

Run with:  python examples/partitioner_shootout.py
"""

from __future__ import annotations

import time

from repro.core.config import SpinnerConfig
from repro.graph.datasets import load_dataset_csr
from repro.metrics.reporting import format_table
from repro.partitioners.registry import SPINNER_PARTITIONERS, make_partitioner


def main() -> None:
    """Run every partitioner on the Twitter proxy and print the comparison."""
    graph = load_dataset_csr("TW", scale=0.25, seed=4)
    print(f"graph: {graph.num_vertices} vertices, {graph.num_edges} edges")

    approaches = (
        "hash",
        "ldg",
        "fennel",
        "metis",
        "wang",
        "spinner",
        "spinner-pregel",
    )
    rows = []
    for k in (4, 16):
        for name in approaches:
            if name in SPINNER_PARTITIONERS:
                partitioner = make_partitioner(name, config=SpinnerConfig(seed=4))
            else:
                partitioner = make_partitioner(name)
            start = time.perf_counter()
            output = partitioner.run(graph, k)
            rows.append(
                {
                    "k": k,
                    "partitioner": name,
                    "phi": round(output.phi, 3),
                    "rho": round(output.rho, 3),
                    "seconds": round(time.perf_counter() - start, 2),
                }
            )
    print()
    print(format_table(rows, title="Partitioner comparison (Twitter proxy)"))


if __name__ == "__main__":
    main()
