"""Table I — comparison with state-of-the-art approaches.

The paper partitions the Twitter graph into k = 2, 4, 8, 16, 32 parts with
Wang et al., Stanton et al. (LDG), Fennel, METIS and Spinner, reporting
locality ``phi`` and balance ``rho`` for each.  This harness runs the same
five approaches (our from-scratch implementations) on the Twitter proxy
graph and emits one row per (approach, k).

Expected shape (paper): METIS has the best locality, Spinner is within a
few percent of it with near-perfect balance, the streaming approaches trail
in locality and/or balance, and Wang et al. shows large ``rho`` because it
balances vertices rather than edges.

The whole sweep — proxy generation, partitioning and metrics — runs on
CSR arrays; the dictionary-only METIS baseline runs on a canonical
dictionary materialization of the same graph.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentScale, spinner_config
from repro.graph.datasets import load_dataset_csr
from repro.metrics.quality import locality, max_normalized_load
from repro.partitioners.registry import make_partitioner

#: Approaches of Table I, in the paper's row order.
TABLE1_APPROACHES = ("wang", "ldg", "fennel", "metis", "spinner")
#: Partition counts of Table I.
TABLE1_K_VALUES = (2, 4, 8, 16, 32)


def run_table1(
    k_values: tuple[int, ...] = TABLE1_K_VALUES,
    approaches: tuple[str, ...] = TABLE1_APPROACHES,
    scale: ExperimentScale | None = None,
) -> list[dict]:
    """Run the Table I comparison and return one row per (approach, k)."""
    scale = scale or ExperimentScale.default()
    graph = load_dataset_csr("TW", scale=scale.graph_scale, seed=scale.seed)
    rows: list[dict] = []
    for approach in approaches:
        for k in k_values:
            if approach == "spinner":
                partitioner = make_partitioner(approach, config=spinner_config(scale.seed))
            else:
                partitioner = make_partitioner(approach)
            assignment = partitioner.partition_array(graph, k)
            rows.append(
                {
                    "approach": approach,
                    "k": k,
                    "phi": round(locality(graph, assignment), 3),
                    "rho": round(max_normalized_load(graph, assignment, k), 3),
                }
            )
    return rows
