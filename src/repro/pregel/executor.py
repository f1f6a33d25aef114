"""Superstep kernels of the vector Pregel runtime.

The vector coordinator (:mod:`repro.pregel.vector_coordinator`) runs each
superstep as compute → deliver → commit over whole-graph arrays.  This
module holds the array kernels those steps share: the per-worker
statistics bincounts, their assembly into a
:class:`~repro.pregel.cost_model.SuperstepStats`, and the per-target
message combination whose canonical-order math underpins the bit-exact
equivalence with the dictionary engine.
"""

from __future__ import annotations

import numpy as np

from repro.pregel.batch import Outbox, ShardedGraph, _neutral_payload
from repro.pregel.cost_model import SuperstepStats, WorkerStats


def superstep_stats_arrays(
    shard: ShardedGraph,
    num_workers: int,
    computed: np.ndarray,
    outbox: Outbox,
    unknown: np.ndarray,
    edges_scanned: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-worker counters from bincounts over the batch arrays.

    Returns ``(vertices_per_worker, edges_per_worker, message_counts)``
    with ``message_counts[2w]`` the remote and ``message_counts[2w + 1]``
    the local sends of worker ``w``.
    """
    worker_of = shard.worker_of
    edge_counts = shard.degrees if edges_scanned is None else edges_scanned
    vertices_per_worker = np.bincount(worker_of[computed], minlength=num_workers)
    edges_per_worker = np.bincount(
        worker_of[computed],
        weights=edge_counts[computed].astype(np.float64),
        minlength=num_workers,
    )
    if len(outbox):
        if outbox.sources is shard.send_src:
            source_worker = shard.send_src_worker
        else:
            source_worker = worker_of[outbox.sources]
        if unknown.any():
            # A message to a nonexistent id counts as remote traffic.
            target_worker = np.where(
                unknown, -1, worker_of[np.where(unknown, 0, outbox.targets)]
            )
        else:
            target_worker = worker_of[outbox.targets]
        # Composite key: one bincount splits sends into (worker, locality).
        key = source_worker * 2 + (source_worker == target_worker)
        message_counts = np.bincount(key, minlength=2 * num_workers)
    else:
        message_counts = np.zeros(2 * num_workers, dtype=np.int64)
    return vertices_per_worker, edges_per_worker, message_counts


def build_superstep_stats(
    superstep: int,
    num_workers: int,
    vertices_per_worker: np.ndarray,
    edges_per_worker: np.ndarray,
    message_counts: np.ndarray,
) -> SuperstepStats:
    """Assemble a :class:`SuperstepStats` from the per-worker count arrays."""
    stats = SuperstepStats(superstep=superstep)
    for worker in range(num_workers):
        stats.worker_stats.append(
            WorkerStats(
                vertices_computed=int(vertices_per_worker[worker]),
                edges_scanned=int(edges_per_worker[worker]),
                local_messages_sent=int(message_counts[2 * worker + 1]),
                remote_messages_sent=int(message_counts[2 * worker]),
            )
        )
    return stats


def combine_messages(
    targets: np.ndarray, payloads: np.ndarray, num_vertices: int, combine: str
) -> tuple[np.ndarray, np.ndarray]:
    """Combine valid messages per target vertex (``sum`` or ``min``).

    ``np.bincount`` accumulates strictly in input order, so per-target
    sums over canonically-ordered messages reproduce the dictionary
    engine's Python ``sum()`` exactly; ``min`` is order-insensitive.
    """
    if targets.size == 0:
        return (
            np.zeros(num_vertices, dtype=bool),
            _neutral_payload(combine, num_vertices),
        )
    has_message = np.bincount(targets, minlength=num_vertices) > 0
    if combine == "sum":
        payload = np.bincount(targets, weights=payloads, minlength=num_vertices)
    else:
        payload = np.full(num_vertices, np.inf, dtype=np.float64)
        np.minimum.at(payload, targets, payloads)
    return has_message, payload
