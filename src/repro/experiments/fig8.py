"""Figure 8 — adapting to resource (partition-count) changes.

The paper partitions the Tuenti snapshot into 32 parts, then adds 1..8 new
partitions and compares elastic adaptation against repartitioning from
scratch: (a) savings in processing time and messages, (b) the fraction of
vertices that must move.  Expected shape: savings shrink as more
partitions are added (more random migrations are needed), but adaptation
always moves far fewer vertices than a from-scratch run (<17% vs ~96% when
adding a single partition).
"""

from __future__ import annotations

from repro.core.fast import FastSpinner
from repro.experiments.common import ExperimentScale, spinner_config
from repro.graph.datasets import load_dataset
from repro.metrics.reporting import improvement_percentage
from repro.metrics.stability import partitioning_difference

FIG8_NEW_PARTITIONS = (1, 2, 4, 6, 8)


def run_fig8(
    new_partition_counts: tuple[int, ...] = FIG8_NEW_PARTITIONS,
    initial_partitions: int = 16,
    scale: ExperimentScale | None = None,
) -> list[dict]:
    """Return one row per number of added partitions."""
    scale = scale or ExperimentScale.default()
    graph = load_dataset("TU", scale=scale.graph_scale, seed=scale.seed)

    config = spinner_config(scale.seed)
    spinner = FastSpinner(config)
    initial = spinner.partition(graph, initial_partitions, track_history=False)
    initial_assignment = initial.to_assignment()

    rows: list[dict] = []
    for added in new_partition_counts:
        new_k = initial_partitions + added
        elastic = spinner.adapt_to_partition_change(
            graph, initial_assignment, initial_partitions, new_k, track_history=False
        )
        scratch = FastSpinner(config.with_options(seed=config.seed + 1)).partition(
            graph, new_k, track_history=False
        )
        elastic_assignment = elastic.to_assignment()
        scratch_assignment = scratch.to_assignment()
        rows.append(
            {
                "new_partitions": added,
                "time_savings_pct": round(
                    improvement_percentage(scratch.iterations, elastic.iterations), 1
                ),
                "message_savings_pct": round(
                    improvement_percentage(scratch.total_messages, elastic.total_messages), 1
                ),
                "moved_adaptive_pct": round(
                    100.0 * partitioning_difference(initial_assignment, elastic_assignment), 1
                ),
                "moved_scratch_pct": round(
                    100.0 * partitioning_difference(initial_assignment, scratch_assignment), 1
                ),
                "phi_adaptive": round(elastic.phi, 3),
                "phi_scratch": round(scratch.phi, 3),
                "rho_adaptive": round(elastic.rho, 3),
            }
        )
    return rows
