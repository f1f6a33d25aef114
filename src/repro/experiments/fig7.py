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
message count of the runs (both implementations expose them), which is
what determines time and network traffic on the real cluster.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentScale, SpinnerRunner, spinner_config
from repro.graph.datasets import load_dataset
from repro.graph.dynamic import EdgeArrivalStream
from repro.metrics.reporting import improvement_percentage
from repro.metrics.stability import partitioning_difference

FIG7_CHANGE_FRACTIONS = (0.005, 0.01, 0.05, 0.10, 0.20, 0.30)


def run_fig7(
    change_fractions: tuple[float, ...] = FIG7_CHANGE_FRACTIONS,
    num_partitions: int = 16,
    scale: ExperimentScale | None = None,
    engine: str = "fast",
) -> list[dict]:
    """Return one row per change fraction with savings and stability.

    ``engine`` selects the Spinner runtime for every run in the sweep:
    ``"fast"`` (default, vectorized kernels), ``"dict"`` or ``"vector"``
    (the two Pregel runtimes, via ``--engine`` on the CLI).
    """
    scale = scale or ExperimentScale.default()
    full_graph = load_dataset("TU", scale=scale.graph_scale, seed=scale.seed)
    stream = EdgeArrivalStream(full_graph, holdout_fraction=0.35, seed=scale.seed)
    snapshot = stream.snapshot()

    config = spinner_config(scale.seed)
    spinner = SpinnerRunner(engine, config)
    initial = spinner.partition(snapshot, num_partitions)
    initial_assignment = initial.to_assignment()

    rows: list[dict] = []
    for fraction in change_fractions:
        stream.reset()
        changed = stream.snapshot()
        delta = stream.delta(fraction_of_snapshot=fraction)
        delta.apply(changed)

        adaptive = spinner.adapt_to_graph_changes(
            changed, initial_assignment, num_partitions
        )
        scratch = SpinnerRunner(
            engine, config.with_options(seed=config.seed + 1)
        ).partition(changed, num_partitions)

        adaptive_assignment = adaptive.to_assignment()
        scratch_assignment = scratch.to_assignment()
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
