#!/usr/bin/env python3
"""Compare Spinner against the baseline partitioners on one graph.

A runnable miniature of Table I: every registered partitioner (hash, LDG,
Fennel, the METIS-like multilevel partitioner, Wang et al. and the three
Spinner variants) partitions the same Twitter-like graph, and the script
prints locality, balance and the runtime each Spinner variant executed on
(FastSpinner kernel, dict Pregel engine or vector Pregel engine), for a
range of partition counts.

Run with:  python examples/partitioner_shootout.py
"""

from __future__ import annotations

import time

from repro.core.config import SpinnerConfig
from repro.graph.conversion import ensure_undirected
from repro.graph.datasets import load_dataset
from repro.metrics.reporting import format_table
from repro.partitioners.registry import SPINNER_PARTITIONERS, make_partitioner


def _runtime_label(name: str, config: SpinnerConfig) -> str:
    """Human-readable runtime each Spinner variant executes on."""
    if name == "spinner":
        return f"fast/{config.kernel}"
    if name == "spinner-pregel":
        return f"pregel/{config.engine}"
    if name == "spinner-pregel-vector":
        return "pregel/vector"
    return "-"


def main() -> None:
    """Run every partitioner on the Twitter proxy and print the comparison."""
    graph = ensure_undirected(load_dataset("TW", scale=0.25, seed=4))
    print(f"graph: {graph.num_vertices} vertices, {graph.num_edges} edges")

    approaches = (
        "hash",
        "ldg",
        "fennel",
        "metis",
        "wang",
        "spinner",
        "spinner-pregel",
        "spinner-pregel-vector",
    )
    rows = []
    for k in (4, 16):
        for name in approaches:
            config = SpinnerConfig(seed=4)
            if name in SPINNER_PARTITIONERS:
                partitioner = make_partitioner(name, config=config)
            else:
                partitioner = make_partitioner(name)
            start = time.perf_counter()
            output = partitioner.run(graph, k)
            rows.append(
                {
                    "k": k,
                    "partitioner": name,
                    "runtime": _runtime_label(name, config),
                    "phi": round(output.phi, 3),
                    "rho": round(output.rho, 3),
                    "seconds": round(time.perf_counter() - start, 2),
                }
            )
    print()
    print(format_table(rows, title="Partitioner comparison (Twitter proxy)"))


if __name__ == "__main__":
    main()
