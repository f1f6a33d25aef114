"""Ablations of Spinner's design choices (DESIGN.md section 4).

Each ablation toggles one of the switches in
:class:`~repro.core.config.SpinnerConfig` and measures its effect on the
final partitioning quality and on convergence:

* ``balance_penalty`` off — pure LPA: locality may rise but balance
  collapses (large ``rho``), which is exactly why eq. (8) exists;
* ``probabilistic_migration`` off — all candidates migrate at once: the
  capacity can be overshot and the score oscillates;
* ``prefer_current_label`` off — ties no longer keep the current label,
  causing unnecessary migrations;
* ``direction_aware`` off — directed inputs converted naively (weight 1
  everywhere), so the locality metric no longer counts directed messages
  and the effective message locality drops;
* ``worker_local_updates`` off (Pregel implementation only) — migration
  decisions use stale loads within a superstep, slowing convergence.
"""

from __future__ import annotations

from repro.core.config import SpinnerConfig
from repro.core.fast import FastSpinner
from repro.core.spinner import SpinnerPartitioner
from repro.experiments.common import ExperimentScale, undirected_dataset
from repro.graph.datasets import load_dataset
from repro.graph.conversion import ensure_undirected
from repro.metrics.quality import locality, max_normalized_load

ABLATION_SWITCHES = (
    "balance_penalty",
    "probabilistic_migration",
    "prefer_current_label",
)


def run_quality_ablations(
    num_partitions: int = 16,
    dataset: str = "TU",
    scale: ExperimentScale | None = None,
) -> list[dict]:
    """Toggle each quality-affecting switch and report phi/rho/iterations."""
    scale = scale or ExperimentScale.default()
    graph = undirected_dataset(dataset, scale)
    rows: list[dict] = []

    baseline_config = SpinnerConfig(seed=scale.seed)
    baseline = FastSpinner(baseline_config).partition(graph, num_partitions)
    rows.append(
        {
            "variant": "baseline",
            "phi": round(baseline.phi, 3),
            "rho": round(baseline.rho, 3),
            "iterations": baseline.iterations,
        }
    )
    for switch in ABLATION_SWITCHES:
        config = baseline_config.with_options(**{switch: False})
        result = FastSpinner(config).partition(graph, num_partitions)
        rows.append(
            {
                "variant": f"no_{switch}",
                "phi": round(result.phi, 3),
                "rho": round(result.rho, 3),
                "iterations": result.iterations,
            }
        )
    return rows


def run_conversion_ablation(
    num_partitions: int = 8,
    scale: ExperimentScale | None = None,
) -> list[dict]:
    """Direction-aware vs naive conversion on the (directed) Twitter proxy.

    The locality of *directed messages* is measured on the weighted view in
    both cases, so the comparison isolates the effect of ignoring edge
    direction during partitioning (Section III-A's example).
    """
    scale = scale or ExperimentScale.default()
    digraph = load_dataset("TW", scale=scale.graph_scale, seed=scale.seed)
    weighted_view = ensure_undirected(digraph, direction_aware=True)
    rows: list[dict] = []
    for direction_aware in (True, False):
        config = SpinnerConfig(seed=scale.seed, direction_aware=direction_aware)
        result = FastSpinner(config).partition(digraph, num_partitions)
        assignment = result.to_assignment()
        rows.append(
            {
                "variant": "weighted" if direction_aware else "naive",
                "message_phi": round(locality(weighted_view, assignment), 3),
                "rho": round(
                    max_normalized_load(weighted_view, assignment, num_partitions), 3
                ),
            }
        )
    return rows


def run_worker_local_ablation(
    num_partitions: int = 4,
    num_vertices_scale: float = 0.04,
    scale: ExperimentScale | None = None,
) -> list[dict]:
    """Per-worker asynchronous load updates on vs off (Pregel implementation)."""
    scale = scale or ExperimentScale(graph_scale=num_vertices_scale)
    graph = undirected_dataset("TU", scale)
    rows: list[dict] = []
    for enabled in (True, False):
        config = SpinnerConfig(seed=scale.seed, worker_local_updates=enabled, max_iterations=60)
        partitioner = SpinnerPartitioner(config, num_workers=4)
        result = partitioner.partition(graph, num_partitions)
        rows.append(
            {
                "variant": "async_worker_loads" if enabled else "sync_only",
                "phi": round(result.phi, 3),
                "rho": round(result.rho, 3),
                "iterations": result.iterations,
            }
        )
    return rows
