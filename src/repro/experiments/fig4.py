"""Figure 4 — evolution of phi, rho and score(G) across iterations.

The paper partitions the Twitter graph (256 parts) and the Yahoo! web
graph (115 parts) and plots, per label-propagation iteration, the ratio of
local edges, the maximum normalized load and the aggregate score.  The
characteristic shape: ``rho`` drops to ~c within the first iterations
(balance is restored first), then ``phi`` and the score climb steadily
until they flatten out.

This harness runs the same measurement on the Twitter and Yahoo! proxies
and returns the full per-iteration history.
"""

from __future__ import annotations

from repro.core.fast import FastSpinner
from repro.experiments.common import ExperimentScale, spinner_config, undirected_dataset


def run_fig4(
    dataset: str = "TW",
    num_partitions: int = 32,
    max_iterations: int = 80,
    scale: ExperimentScale | None = None,
) -> list[dict]:
    """Return one row per iteration with ``phi``, ``rho`` and ``score``.

    Use ``dataset="TW"`` for Figure 4(a) and ``dataset="Y!"`` (with a
    smaller ``num_partitions``) for Figure 4(b).
    """
    scale = scale or ExperimentScale.default()
    graph = undirected_dataset(dataset, scale)
    config = spinner_config(scale.seed, max_iterations=max_iterations,
                            halt_window=max_iterations)
    # halt_window = max_iterations disables early halting so the full curve
    # is visible, mirroring the paper ("we let the algorithm run for 115
    # iterations ignoring the halting condition").
    spinner = FastSpinner(config)
    result = spinner.partition(graph, num_partitions)
    rows = [
        {
            "iteration": record.iteration,
            "phi": round(record.phi, 4),
            "rho": round(record.rho, 4),
            "score": round(record.score, 2),
            "migrations": record.migrations,
        }
        for record in result.history
    ]
    return rows


def halting_iteration(rows: list[dict], threshold: float = 0.001, window: int = 5) -> int:
    """Iteration at which the halting heuristic would have stopped.

    Reproduces the vertical line of Figure 4(a) (the paper reports the run
    would have halted at iteration 41 out of the 115 it was allowed).
    """
    from repro.core.halting import HaltingTracker

    tracker = HaltingTracker(threshold=threshold, window=window)
    for row in rows:
        if tracker.update(row["score"]):
            return row["iteration"]
    return rows[-1]["iteration"] if rows else 0
