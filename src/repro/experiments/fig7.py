"""Figure 7 — adapting to dynamic graph changes.

The paper snapshots the Tuenti graph, adds a varying percentage of new
edges (real new friendships) and compares incremental adaptation against
repartitioning from scratch along two axes:

(a) *cost savings* — percentage of processing time and of exchanged
    messages saved by adapting instead of restarting (85%+ for small
    changes, still ~80% of the time at 30% new edges);
(b) *partitioning stability* — the fraction of vertices that end up in a
    different partition (8-11% when adapting vs 95-98% from scratch).

Here processing cost is measured in label-propagation iterations and the
message count of the runs, which is what determines time and network
traffic on the real cluster.
"""

from __future__ import annotations

from repro.core.fast import FastSpinner
from repro.experiments.common import ExperimentScale, spinner_config
from repro.graph.datasets import load_dataset_csr
from repro.graph.delta_csr import DeltaCSR
from repro.graph.dynamic import EdgeArrivalStream
from repro.metrics.reporting import improvement_percentage
from repro.metrics.stability import partitioning_difference

FIG7_CHANGE_FRACTIONS = (0.005, 0.01, 0.05, 0.10, 0.20, 0.30)


def run_fig7(
    change_fractions: tuple[float, ...] = FIG7_CHANGE_FRACTIONS,
    num_partitions: int = 16,
    scale: ExperimentScale | None = None,
) -> list[dict]:
    """Return one row per change fraction with savings and stability."""
    scale = scale or ExperimentScale.default()
    full_graph = load_dataset_csr("TU", scale=scale.graph_scale, seed=scale.seed)
    stream = EdgeArrivalStream(full_graph, holdout_fraction=0.35, seed=scale.seed)
    snapshot = stream.snapshot()

    config = spinner_config(scale.seed)
    spinner = FastSpinner(config)
    initial = spinner.partition(snapshot, num_partitions)
    initial_assignment = (snapshot.original_ids, initial.labels)

    rows: list[dict] = []
    for fraction in change_fractions:
        stream.reset()
        live = DeltaCSR(snapshot)
        live.append(stream.delta(fraction_of_snapshot=fraction))
        changed = live.to_csr()

        adaptive = spinner.adapt_to_graph_changes(changed, initial_assignment, num_partitions)
        scratch = FastSpinner(config.with_options(seed=config.seed + 1)).partition(
            changed, num_partitions
        )

        adaptive_assignment = (changed.original_ids, adaptive.labels)
        scratch_assignment = (changed.original_ids, scratch.labels)
        rows.append(
            {
                "new_edges_pct": round(fraction * 100.0, 1),
                "time_savings_pct": round(
                    improvement_percentage(scratch.iterations, adaptive.iterations), 1
                ),
                "message_savings_pct": round(
                    improvement_percentage(scratch.total_messages, adaptive.total_messages), 1
                ),
                "moved_adaptive_pct": round(
                    100.0 * partitioning_difference(initial_assignment, adaptive_assignment), 1
                ),
                "moved_scratch_pct": round(
                    100.0 * partitioning_difference(initial_assignment, scratch_assignment), 1
                ),
                "phi_adaptive": round(adaptive.phi, 3),
                "phi_scratch": round(scratch.phi, 3),
                "rho_adaptive": round(adaptive.rho, 3),
            }
        )
    return rows
