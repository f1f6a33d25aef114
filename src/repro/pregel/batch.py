"""Batch (array-native) Pregel primitives of the vector runtime.

This module holds the data-plane vocabulary of the vector runtime —
:class:`ShardedGraph`, :class:`Outbox`, :class:`BatchStep`,
:class:`DeliveredMessages`, :class:`BatchComputeContext` and
:class:`BatchVertexProgram` — which the engine itself
(:mod:`repro.pregel.vector_coordinator`) drives.  The canonical-ordering
contract that makes the vector runtime bit-exact with the per-vertex
reference engine lives here:

* ``vertex_order`` visits vertices worker-major (stable), exactly like
  the reference engine's per-worker loops;
* ``send_src``/``send_dst``/``send_weight`` permute the adjacency slots
  into the same worker-major order, so batched outboxes reproduce the
  reference engine's send order and sequential per-target reductions
  (``np.bincount``) sum messages in the reference engine's order;
* the aggregation helpers (:meth:`BatchComputeContext.aggregate_sequential`
  and :meth:`BatchComputeContext.aggregate_keyed`) accumulate strictly
  sequentially over that canonical order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, ClassVar

import numpy as np

from repro.pregel.aggregators import AggregatorRegistry


class ShardedGraph:
    """CSR adjacency sharded across simulated workers.

    Built once per run, then shared read-only by every superstep.  Beyond
    the plain CSR arrays it precomputes the two *canonical orderings* that
    make the batch runtime reproduce the reference engine bit for bit:

    ``vertex_order``
        Dense vertex ids sorted worker-major (stable), i.e. the order the
        reference engine visits vertices: worker 0's vertices in
        placement order, then worker 1's, ...
    ``send_src`` / ``send_dst`` / ``send_weight``
        The adjacency slots permuted into the same worker-major order —
        the concatenation of the per-worker send buffers.  A program that
        emits messages by masking these arrays produces messages in
        exactly the reference engine's send order, so a sequential
        per-target reduction (``np.bincount``) sums them in the same
        order as Python's ``sum`` over a message list.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        targets: np.ndarray,
        weights: np.ndarray,
        original_ids: np.ndarray,
        worker_of: np.ndarray,
        num_workers: int,
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.adj_targets = np.asarray(targets, dtype=np.int64)
        self.adj_weights = np.asarray(weights, dtype=np.int64)
        self.original_ids = np.asarray(original_ids, dtype=np.int64)
        self.worker_of = np.asarray(worker_of, dtype=np.int64)
        self.num_workers = num_workers
        self.num_vertices = self.indptr.shape[0] - 1
        self.degrees = np.diff(self.indptr)

        edge_src = np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), self.degrees
        )
        edge_order = np.argsort(self.worker_of[edge_src], kind="stable")
        self.send_src = edge_src[edge_order]
        self.send_dst = self.adj_targets[edge_order]
        self.send_weight = self.adj_weights[edge_order]
        #: Owning worker per canonical slot (cached: the statistics pass
        #: needs it every superstep a full outbox is emitted).
        self.send_src_worker = self.worker_of[self.send_src]
        self.vertex_order = np.argsort(self.worker_of, kind="stable")

        # Per-worker boundaries into the canonical (worker-major) arrays:
        # worker w's send buffer is send_*[send_indptr[w]:send_indptr[w+1]]
        # and its vertex list is vertex_order[shard_indptr[w]:shard_indptr[w+1]].
        self.send_indptr = np.zeros(num_workers + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(self.send_src_worker, minlength=num_workers),
            out=self.send_indptr[1:],
        )
        self.shard_indptr = np.zeros(num_workers + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(self.worker_of, minlength=num_workers),
            out=self.shard_indptr[1:],
        )

    # ------------------------------------------------------------------
    def shard_vertices(self, worker: int) -> np.ndarray:
        """Dense vertex ids owned by ``worker``, in placement order."""
        return self.vertex_order[self.shard_indptr[worker] : self.shard_indptr[worker + 1]]

    def send_buffer(self, worker: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(sources, targets, weights)`` slice of ``worker``'s out-edges."""
        start, end = self.send_indptr[worker], self.send_indptr[worker + 1]
        return (
            self.send_src[start:end],
            self.send_dst[start:end],
            self.send_weight[start:end],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ShardedGraph(|V|={self.num_vertices}, "
            f"|slots|={self.adj_targets.shape[0]}, W={self.num_workers})"
        )


@dataclass
class Outbox:
    """Batched messages emitted during one superstep.

    All three arrays are aligned; ``sources``/``targets`` hold *dense*
    vertex ids.  Messages must appear in canonical (worker-major) order —
    the :class:`BatchComputeContext` helpers guarantee this.
    """

    sources: np.ndarray
    targets: np.ndarray
    payloads: np.ndarray

    @classmethod
    def empty(cls) -> "Outbox":
        """An outbox with no messages."""
        return cls(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )

    def __len__(self) -> int:
        return int(self.targets.shape[0])


@dataclass
class BatchStep:
    """What a batch program returns for one superstep."""

    #: Full vertex-value array after the superstep (may alias the input).
    values: np.ndarray
    #: Messages to deliver next superstep.
    outbox: Outbox
    #: Per-vertex vote-to-halt mask; applied only where a vertex computed.
    votes: np.ndarray
    #: Optional per-vertex edge counts charged to the superstep's
    #: ``edges_scanned`` statistics instead of ``shard.degrees`` — for
    #: programs whose effective adjacency differs from the shard during
    #: some supersteps (e.g. Spinner's NeighborPropagation superstep scans
    #: the original directed out-edges, not the converted adjacency).
    edges_scanned: np.ndarray | None = None


@dataclass
class DeliveredMessages:
    """Combined messages delivered at the start of a superstep.

    ``payload[v]`` is the combined message value for vertex ``v`` (sum or
    min, per the program's ``combine`` mode) and the combine-neutral
    element (0 or +inf) where ``has_message[v]`` is ``False``.
    """

    has_message: np.ndarray
    payload: np.ndarray
    count: int


def _neutral_payload(combine: str, num_vertices: int) -> np.ndarray:
    if combine == "sum":
        return np.zeros(num_vertices, dtype=np.float64)
    return np.full(num_vertices, np.inf, dtype=np.float64)


class BatchComputeContext:
    """Facilities available to a batch program during one superstep.

    A per-vertex ``ComputeContext`` sends one
    message at a time; this context instead builds whole outboxes with
    array operations, preserving the canonical ordering the equivalence
    guarantee rests on.
    """

    def __init__(
        self,
        superstep: int,
        shard: ShardedGraph,
        values: np.ndarray,
        computed: np.ndarray,
        aggregators: AggregatorRegistry,
    ) -> None:
        self.superstep = superstep
        self.shard = shard
        #: Current vertex values (read-only by convention; return new
        #: values through :class:`BatchStep`).
        self.values = values
        #: Mask of vertices computing this superstep (active or messaged).
        self.computed = computed
        self._aggregators = aggregators

    @property
    def num_vertices(self) -> int:
        """Number of vertices in the shard."""
        return self.shard.num_vertices

    # ------------------------------------------------------------------
    def send_to_all_neighbors(
        self, senders: np.ndarray, payload_per_vertex: np.ndarray
    ) -> Outbox:
        """Every vertex in ``senders`` sends its payload along all out-edges."""
        payload_per_vertex = np.asarray(payload_per_vertex, dtype=np.float64)
        if senders.all():
            # Fast path for the common all-active superstep (e.g. PageRank):
            # the outbox is the canonical edge set itself, no compaction.
            sources = self.shard.send_src
            return Outbox(sources, self.shard.send_dst, payload_per_vertex[sources])
        mask = senders[self.shard.send_src]
        sources = self.shard.send_src[mask]
        return Outbox(
            sources,
            self.shard.send_dst[mask],
            payload_per_vertex[sources],
        )

    def edges_from(
        self, senders: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical-order ``(sources, targets, weights)`` of senders' edges.

        For programs whose message payload is per-edge rather than
        per-vertex (e.g. shortest paths adds the edge cost).
        """
        mask = senders[self.shard.send_src]
        return (
            self.shard.send_src[mask],
            self.shard.send_dst[mask],
            self.shard.send_weight[mask],
        )

    @staticmethod
    def no_messages() -> Outbox:
        """An empty outbox, for supersteps that send nothing."""
        return Outbox.empty()

    # ------------------------------------------------------------------
    def aggregate(self, name: str, value: Any) -> None:
        """Contribute a single value to the named aggregator."""
        self._aggregators.aggregate(name, value)

    def aggregated_value(self, name: str) -> Any:
        """Value of the named aggregator from the previous superstep."""
        return self._aggregators.value(name)

    def aggregate_sequential(
        self, name: str, per_vertex: np.ndarray, mask: np.ndarray
    ) -> None:
        """Aggregate one value per masked vertex, in canonical vertex order.

        Uses ``np.cumsum`` (a strictly sequential left-to-right
        accumulation, unlike ``np.sum``'s pairwise reduction) so a sum
        aggregator receives bit-for-bit the value the reference engine
        builds by aggregating vertex by vertex.
        """
        order = self.shard.vertex_order
        selected = np.asarray(per_vertex, dtype=np.float64)[order][mask[order]]
        if selected.size:
            self._aggregators.aggregate(name, float(selected.cumsum()[-1]))

    def aggregate_keyed(
        self,
        name_fn: Callable[[int], str],
        keys: np.ndarray,
        weights: np.ndarray,
        num_keys: int,
        mask: np.ndarray | None = None,
    ) -> None:
        """Aggregate one weight per vertex into its key's named aggregator.

        The bincount runs over the canonical (worker-major) vertex order
        and accumulates each bin strictly sequentially in input order, so
        every per-key sum is bit-identical to the reference engine's
        vertex-by-vertex ``DoubleSumAggregator`` reduction.  All
        ``num_keys`` aggregators receive a contribution (0.0 for empty
        bins), matching the per-label loops of the Spinner programs.
        """
        order = self.shard.vertex_order
        ordered_keys = np.asarray(keys)[order]
        ordered_weights = np.asarray(weights, dtype=np.float64)[order]
        if mask is not None:
            ordered_mask = mask[order]
            ordered_keys = ordered_keys[ordered_mask]
            ordered_weights = ordered_weights[ordered_mask]
        sums = np.bincount(ordered_keys, weights=ordered_weights, minlength=num_keys)
        for key in range(num_keys):
            self._aggregators.aggregate(name_fn(key), float(sums[key]))


class BatchVertexProgram:
    """Base class for batch (array-native) vertex programs.

    Subclasses implement :meth:`compute_batch`, the whole-superstep
    counterpart of a per-vertex ``compute`` call:
    it receives the shard, the combined incoming messages and a
    :class:`BatchComputeContext`, and returns a :class:`BatchStep` of
    ``(values, outbox, votes)`` arrays.

    ``combine`` declares how concurrent messages to one vertex merge
    ("sum" or "min"); it replaces the per-message combiner of a
    per-vertex engine.  The ``pre_superstep`` / ``post_superstep`` hooks
    keep the per-vertex signature but run for *all* workers before
    respectively after the batch compute (the batch is one barrier, so
    there is no per-worker interleaving to preserve).

    Contract of the returned :class:`BatchStep`: ``values`` is the full
    post-superstep value array (coerced to ``float64``); ``outbox``
    holds the messages to deliver next superstep in canonical
    (worker-major) order; ``votes`` is applied only where a vertex computed (message
    arrival re-activates a halted vertex, as in Pregel); the optional
    ``edges_scanned`` overrides the per-vertex edge counts charged to the
    cost-model statistics.
    """

    #: Message combination mode: "sum" or "min".
    combine: ClassVar[str] = "sum"

    def register_aggregators(self, aggregators: AggregatorRegistry) -> None:
        """Register the aggregators the program needs."""

    def pre_superstep(
        self,
        superstep: int,
        worker_store: dict[str, Any],
        aggregators: AggregatorRegistry,
    ) -> None:
        """Per-worker hook before the batch compute."""

    def compute_batch(
        self,
        shard: ShardedGraph,
        messages: DeliveredMessages,
        ctx: BatchComputeContext,
    ) -> BatchStep:
        """Whole-superstep compute over the shard (must be overridden)."""
        raise NotImplementedError

    def post_superstep(
        self,
        superstep: int,
        worker_store: dict[str, Any],
        aggregators: AggregatorRegistry,
    ) -> None:
        """Per-worker hook after the batch compute."""
