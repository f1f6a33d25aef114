#!/usr/bin/env python3
"""Sharding a growing social network across database servers.

This is the scenario that motivates Spinner's *incremental* and *elastic*
modes (Sections III-D and III-E of the paper): a graph database shards a
social graph across servers; friendships keep being created, and every now
and then servers are added.  Repartitioning from scratch each time would
shuffle almost every user; Spinner adapts the existing partitioning
instead.

Run with:  python examples/social_network_sharding.py
"""

from __future__ import annotations

from repro.core.config import SpinnerConfig
from repro.core.fast import FastSpinner
from repro.graph.csr import CSRGraph
from repro.graph.datasets import load_dataset_csr
from repro.graph.delta_csr import DeltaCSR
from repro.graph.dynamic import EdgeArrivalStream
from repro.metrics.reporting import format_table, improvement_percentage
from repro.metrics.stability import partitioning_difference


def grow(snapshot: CSRGraph, stream: EdgeArrivalStream, fraction: float) -> CSRGraph:
    """The snapshot plus the first ``fraction`` (of its edges) of new friendships."""
    stream.reset()
    live = DeltaCSR(snapshot)
    live.append(stream.delta(fraction_of_snapshot=fraction))
    return live.to_csr()


def main() -> None:
    servers = 16
    spinner = FastSpinner(SpinnerConfig(seed=7))

    # The "future" social graph; we withhold 30% of friendships and replay
    # them later as growth.
    full_graph = load_dataset_csr("TU", scale=0.4, seed=7)
    stream = EdgeArrivalStream(full_graph, holdout_fraction=0.3, seed=7)
    snapshot = stream.snapshot()
    print(
        f"initial snapshot: {snapshot.num_vertices} users, "
        f"{snapshot.num_edges} friendships, {servers} servers"
    )

    # --- initial sharding -------------------------------------------------
    initial = spinner.partition(snapshot, servers)
    print(f"initial sharding: phi={initial.phi:.3f} rho={initial.rho:.3f} "
          f"({initial.iterations} iterations)")

    # --- the graph grows: adapt instead of repartitioning ------------------
    rows = []
    assignment = initial.to_assignment()
    for growth in (0.01, 0.05, 0.10):
        grown = grow(snapshot, stream, growth)
        adapted = spinner.adapt_to_graph_changes(grown, assignment, servers)
        scratch = FastSpinner(SpinnerConfig(seed=8)).partition(grown, servers)
        rows.append(
            {
                "new_friendships_pct": growth * 100,
                "users_moved_adaptive_pct": 100 * partitioning_difference(
                    assignment, adapted.to_assignment()
                ),
                "users_moved_scratch_pct": 100 * partitioning_difference(
                    assignment, scratch.to_assignment()
                ),
                "time_saved_pct": improvement_percentage(
                    scratch.iterations, adapted.iterations
                ),
                "phi_adaptive": adapted.phi,
            }
        )
    print()
    print(format_table(rows, title="Adapting to graph growth (vs repartitioning)"))

    # --- the cluster grows: elastic adaptation -----------------------------
    grown = grow(snapshot, stream, 0.05)
    adapted = spinner.adapt_to_graph_changes(grown, assignment, servers)

    new_servers = servers + 2
    elastic = spinner.adapt_to_partition_change(
        grown, adapted.to_assignment(), servers, new_servers
    )
    moved = partitioning_difference(adapted.to_assignment(), elastic.to_assignment())
    print()
    print(
        f"scaling from {servers} to {new_servers} servers: "
        f"{moved * 100:.1f}% of users move, phi={elastic.phi:.3f}, rho={elastic.rho:.3f}"
    )


if __name__ == "__main__":
    main()
