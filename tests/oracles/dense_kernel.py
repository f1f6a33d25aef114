"""FastSpinner's dense reference kernel (RAM only).

:func:`run_dense` rebuilds the per-vertex label-weight histogram
``w(v, l)`` from scratch every iteration with an unbuffered ``np.add.at``
scatter over all ``2m`` half-edges.  It is simple enough to check by eye,
and the production frontier kernel of :class:`~repro.core.fast.FastSpinner`
must return byte-identical results for the same seed: labels, history,
message counts and halting.  :class:`DenseSpinner` plugs it into the
FastSpinner entry points (``partition`` and the incremental / elastic
restarts), so both kernels are compared through the same API.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SpinnerConfig
from repro.core.fast import FastSpinner, FastSpinnerResult
from repro.core.halting import HaltingTracker
from repro.core.program import IterationRecord
from repro.graph.csr import CSRGraph


def run_dense(
    config: SpinnerConfig,
    csr: CSRGraph,
    num_partitions: int,
    labels: np.ndarray,
    track_history: bool,
) -> FastSpinnerResult:
    """Run the reference kernel from ``labels`` (updated in place)."""
    rng = np.random.default_rng(config.seed)
    n = csr.num_vertices
    sources, targets, weights = csr.edge_array()
    weights_f = weights.astype(np.float64)
    degrees = csr.weighted_degrees_f
    safe_degrees = np.where(degrees > 0, degrees, 1.0)
    total_load = float(degrees.sum())
    capacity = config.capacity(total_load, num_partitions) if total_load else 1.0
    vertex_range = np.arange(n)

    tracker = HaltingTracker(threshold=config.halt_threshold, window=config.halt_window)
    history: list[IterationRecord] = []
    halted_by = "max_iterations"
    # Initialization messages: every vertex announces its label once.
    total_messages = int(csr.indices.shape[0])

    def local_weight_fn(current_labels: np.ndarray) -> float:
        mask = current_labels[sources] == current_labels[targets]
        return float(weights_f[mask].sum())

    iterations_run = 0
    for iteration in range(config.max_iterations):
        iterations_run = iteration + 1

        # --- ComputeScores -----------------------------------------
        label_weight = np.zeros((n, num_partitions), dtype=np.float64)
        np.add.at(label_weight, (sources, labels[targets]), weights_f)

        loads = np.bincount(
            labels, weights=degrees, minlength=num_partitions
        ).astype(np.float64)
        if config.balance_penalty and capacity > 0:
            penalties = loads / capacity
        else:
            penalties = np.zeros(num_partitions, dtype=np.float64)

        scores = label_weight / safe_degrees[:, None] - penalties[None, :]
        current_scores = scores[vertex_range, labels]

        if config.prefer_current_label:
            # Bias the current label so exact ties keep it.
            biased = scores.copy()
            biased[vertex_range, labels] += 1e-9
            best = np.argmax(biased, axis=1)
        else:
            best = np.argmax(scores, axis=1)
        best_scores = scores[vertex_range, best]
        is_candidate = (best != labels) & (best_scores > current_scores + 1e-12)

        # --- ComputeMigrations --------------------------------------
        if is_candidate.any():
            candidate_load = np.bincount(
                best[is_candidate],
                weights=degrees[is_candidate],
                minlength=num_partitions,
            ).astype(np.float64)
            remaining = capacity - loads
            if config.probabilistic_migration:
                with np.errstate(divide="ignore", invalid="ignore"):
                    probabilities = np.where(
                        candidate_load > 0,
                        np.clip(remaining, 0.0, None) / candidate_load,
                        1.0,
                    )
                probabilities = np.clip(probabilities, 0.0, 1.0)
            else:
                probabilities = np.ones(num_partitions, dtype=np.float64)
            draws = rng.random(n)
            migrate = is_candidate & (draws < probabilities[best])
        else:
            migrate = np.zeros(n, dtype=bool)

        migrations = int(migrate.sum())
        if migrations:
            labels[migrate] = best[migrate]
            # Each migrating vertex notifies its neighbours.
            total_messages += int((csr.indptr[1:] - csr.indptr[:-1])[migrate].sum())

        # --- bookkeeping & halting ----------------------------------
        score_value = float(current_scores.sum())
        if track_history:
            local_weight = local_weight_fn(labels)
            phi = local_weight / total_load if total_load else 1.0
            post_loads = np.bincount(labels, weights=degrees, minlength=num_partitions)
            ideal = total_load / num_partitions
            rho = float(post_loads.max() / ideal) if total_load else 1.0
            history.append(
                IterationRecord(
                    iteration=iteration,
                    phi=phi,
                    rho=rho,
                    score=score_value,
                    migrations=migrations,
                )
            )

        if tracker.update(score_value):
            halted_by = "steady_state"
            break

    return FastSpinner(config)._finalize(
        csr, num_partitions, labels, degrees, total_load, iterations_run,
        history, halted_by, total_messages, local_weight_fn(labels),
    )


class DenseSpinner(FastSpinner):
    """:class:`~repro.core.fast.FastSpinner` running :func:`run_dense`."""

    def _run(
        self,
        csr: CSRGraph,
        num_partitions: int,
        labels: np.ndarray,
        track_history: bool,
    ) -> FastSpinnerResult:
        if csr.storage != "ram":
            raise ValueError("the dense reference kernel runs on in-RAM graphs only")
        return run_dense(self.config, csr, num_partitions, labels, track_history)
