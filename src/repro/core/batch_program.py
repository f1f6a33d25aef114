"""Array-native Spinner vertex program for the vector Pregel runtime.

:class:`BatchSpinnerProgram` is the
:class:`~repro.pregel.batch.BatchVertexProgram` port of the per-vertex
Spinner program (kept as the test oracle): the same superstep schedule
(NeighborPropagation / NeighborDiscovery / Initialize / ComputeScores /
ComputeMigrations, see Figure 2 of the paper), the same aggregators, the
same master-side halting — executed once per superstep over flat NumPy
arrays instead of once per vertex.

The equivalence contract with the per-vertex reference program is **bit
exact** under the seeded RNG contract, not approximate:

* label frequencies and weighted degrees are integer-valued, so the
  composite-key ``np.bincount`` reductions reproduce the per-vertex
  Python sums exactly;
* per-label load/candidate aggregators are per-bin sequential bincounts
  over the canonical (worker-major) vertex order — the order the
  reference engine visits vertices — and the global score / local-weight
  aggregators use the strictly sequential ``np.cumsum``;
* the score of every ``(vertex, label)`` pair is computed with the exact
  elementwise operations of the reference ``label_score``, and the label
  argmax replays the reference ``choose_label``'s sequential scan
  (including its :data:`~repro.core.scoring.TIE_EPSILON` tie tolerance
  and the ``prefer_current_label`` rule) as ``k`` vectorized passes (both
  scalar helpers live with the test oracles, ``tests/oracles/scoring.py``);
* migration draws come from one ``Generator.random(n)`` call over the
  candidates in canonical vertex order, which yields the same stream as
  the reference program's per-candidate scalar ``random()`` calls
  (NumPy's PCG64 fills blocks sequentially);
* when ``config.worker_local_updates`` is set (Section IV-A4), the
  per-worker asynchronous load deltas make candidate decisions
  *sequentially dependent within a worker*, so the candidate scan runs as
  a per-worker Python loop over precomputed score components — exact by
  construction, and still far cheaper than the reference engine because
  frequencies, messaging and aggregation stay vectorized.

``tests/test_batch_spinner.py`` pins the contract (assignments,
superstep counts, aggregator histories, per-worker statistics, halt
reasons) and ``benchmarks/test_spinner_pregel_speed.py`` tracks the
speedup in ``BENCH_spinner.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import SpinnerConfig
from repro.core.scoring import TIE_EPSILON as _TIE_EPSILON
from repro.core.program import (
    COMPUTE_MIGRATIONS,
    COMPUTE_SCORES,
    INITIALIZE,
    LOCAL_WEIGHT_AGGREGATOR,
    MIGRATIONS_AGGREGATOR,
    NEIGHBOR_DISCOVERY,
    NEIGHBOR_PROPAGATION,
    SCORE_AGGREGATOR,
    SpinnerPhaseSchedule,
    candidate_aggregator_name,
    load_aggregator_name,
)
from repro.errors import PartitioningError
from repro.graph.conversion import directed_pair_weights
from repro.graph.csr import _segment_sums, build_csr_arrays
from repro.graph.digraph import DiGraph
from repro.graph.undirected import UndirectedGraph
from repro.pregel.batch import (
    BatchComputeContext,
    BatchStep,
    BatchVertexProgram,
    DeliveredMessages,
    Outbox,
    ShardedGraph,
)
from repro.pregel.vector_coordinator import VectorPregelEngine

@dataclass(frozen=True)
class DirectedSendPlan:
    """Superstep-0 send schedule for directed inputs.

    The reference engine's NeighborPropagation superstep sends one
    message per *original directed edge* and scans only the original
    out-edges, while every later superstep operates on the converted
    weighted undirected adjacency.  The batch program pre-converts the
    graph, so it needs this plan to reproduce superstep 0's outbox and
    ``edges_scanned`` statistics exactly.

    Attributes
    ----------
    sources / targets:
        Dense endpoint ids of the original directed edges, permuted into
        canonical (worker-major by source) order.
    out_degrees:
        Original out-degree per dense vertex id (``int64``), charged as
        ``edges_scanned`` during superstep 0.
    """

    sources: np.ndarray
    targets: np.ndarray
    out_degrees: np.ndarray


@dataclass(frozen=True)
class SpinnerShard:
    """A :class:`ShardedGraph` prepared for :class:`BatchSpinnerProgram`.

    Attributes
    ----------
    shard:
        The sharded weighted undirected adjacency the label-propagation
        supersteps run over (for directed inputs: the eq. 3 conversion
        the reference program would build during NeighborDiscovery).
    directed_plan:
        Superstep-0 emulation data for directed inputs, ``None`` for
        undirected inputs.
    """

    shard: ShardedGraph
    directed_plan: DirectedSendPlan | None = None

    @property
    def convert_directed(self) -> bool:
        """Whether the two conversion supersteps are part of the schedule."""
        return self.directed_plan is not None


def _dense_positions(ids: np.ndarray, originals: np.ndarray) -> np.ndarray:
    """Map original vertex ids to dense insertion-order positions."""
    sorter = np.argsort(ids, kind="stable")
    return sorter[np.searchsorted(ids, originals, sorter=sorter)]


def _converted_half_edges(
    num_vertices: int, sources: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eq. 3 weighted undirected half-edges of a dense directed edge list.

    Reproduces the adjacency the reference program builds during its
    NeighborPropagation/NeighborDiscovery supersteps: every connected
    unordered pair becomes two half-edges with weight 1 (one direction
    present) or 2 (reciprocal pair, via
    :func:`repro.graph.conversion.directed_pair_weights`), and — unlike
    the metric-side conversions, which drop self-loops — a self-loop
    stays a single slot with weight 2 (its propagation message
    rediscovers the loop edge).
    """
    loops = sources == targets
    u, v, w = directed_pair_weights(num_vertices, sources[~loops], targets[~loops])
    loop_ids = np.unique(sources[loops])
    loop_w = np.full(loop_ids.shape[0], 2, dtype=np.int64)
    half_src = np.concatenate([u, v, loop_ids])
    half_dst = np.concatenate([v, u, loop_ids])
    half_w = np.concatenate([w, w, loop_w])
    return half_src, half_dst, half_w


def build_spinner_shard(
    engine: VectorPregelEngine, graph: DiGraph | UndirectedGraph
) -> SpinnerShard:
    """Shard ``graph`` for a :class:`BatchSpinnerProgram` run.

    Undirected graphs shard directly (two half-edges per edge, weights
    preserved).  Directed graphs are pre-converted to the weighted
    undirected form of eq. (3) — the adjacency the reference program
    builds during its two conversion supersteps — and additionally carry
    a :class:`DirectedSendPlan` so superstep 0's messages and statistics
    can be replayed over the *original* directed edges.  Dense vertex
    ids follow graph insertion order in both cases, matching the
    reference engine's visit order.
    """
    if isinstance(graph, UndirectedGraph):
        return SpinnerShard(shard=engine.shard_undirected(graph))
    ids = np.fromiter(graph.vertices(), dtype=np.int64, count=graph.num_vertices)
    edge_rows = [(source, target) for source, target in graph.edges()]
    if edge_rows:
        pairs = np.asarray(edge_rows, dtype=np.int64)
        sources = _dense_positions(ids, pairs[:, 0])
        targets = _dense_positions(ids, pairs[:, 1])
    else:
        sources = np.empty(0, dtype=np.int64)
        targets = np.empty(0, dtype=np.int64)
    half_src, half_dst, half_w = _converted_half_edges(ids.shape[0], sources, targets)
    indptr, adj_targets, adj_weights = build_csr_arrays(
        half_src, half_dst, half_w, ids.shape[0]
    )
    shard = engine.shard_graph(indptr, adj_targets, adj_weights, ids)
    order = np.argsort(shard.worker_of[sources], kind="stable")
    plan = DirectedSendPlan(
        sources=sources[order],
        targets=targets[order],
        out_degrees=np.bincount(sources, minlength=ids.shape[0]).astype(np.int64),
    )
    return SpinnerShard(shard=shard, directed_plan=plan)


class BatchSpinnerProgram(SpinnerPhaseSchedule, BatchVertexProgram):
    """Spinner's label-propagation vertex program over flat arrays.

    Construct with the ``(num_partitions, config, convert_directed)``
    triple of :class:`~repro.core.program.SpinnerPhaseSchedule`, then
    :meth:`bind` the
    prepared :class:`SpinnerShard` and the dense initial labels before
    running.  Reuses :class:`~repro.core.program.SpinnerMasterCompute`
    unchanged for the halting heuristic.
    """

    combine = "sum"

    def bind(self, spinner_shard: SpinnerShard, initial_labels: np.ndarray) -> None:
        """Attach the sharded graph and the dense initial label array.

        ``initial_labels`` must hold one label in ``[0, k)`` per dense
        vertex id (the caller decides them: random for scratch runs,
        carried over for incremental/elastic restarts, exactly like the
        per-vertex program's ``SpinnerVertexValue`` seeding).
        """
        if spinner_shard.convert_directed != self.convert_directed:
            raise PartitioningError(
                "spinner shard and program disagree on directed conversion"
            )
        shard = spinner_shard.shard
        labels = np.asarray(initial_labels, dtype=np.int64)
        if labels.shape[0] != shard.num_vertices:
            raise PartitioningError(
                f"expected {shard.num_vertices} initial labels, got {labels.shape[0]}"
            )
        self._spinner_shard = spinner_shard
        self._labels = labels.copy()
        self._candidates = np.full(shard.num_vertices, -1, dtype=np.int64)
        self._degrees = np.zeros(shard.num_vertices, dtype=np.float64)
        #: Source vertex of every adjacency slot (vertex-major CSR order).
        self._slot_src = np.repeat(
            np.arange(shard.num_vertices, dtype=np.int64), shard.degrees
        )
        self._adj_weights_f = shard.adj_weights.astype(np.float64)

    @property
    def labels(self) -> np.ndarray:
        """Current dense label array (final assignment after a run)."""
        return self._labels

    # ------------------------------------------------------------------
    # batch compute
    # ------------------------------------------------------------------
    def compute_batch(
        self,
        shard: ShardedGraph,
        messages: DeliveredMessages,
        ctx: BatchComputeContext,
    ) -> BatchStep:
        """Dispatch the superstep to its phase handler (Figure 2)."""
        phase = self.phase(ctx.superstep)
        if phase == NEIGHBOR_PROPAGATION:
            return self._neighbor_propagation(shard)
        if phase == NEIGHBOR_DISCOVERY:
            return self._step(shard, Outbox.empty())
        if phase == INITIALIZE:
            return self._initialize(shard, ctx)
        if phase == COMPUTE_SCORES:
            return self._compute_scores(shard, ctx)
        return self._compute_migrations(shard, ctx)

    def _step(
        self,
        shard: ShardedGraph,
        outbox: Outbox,
        edges_scanned: np.ndarray | None = None,
    ) -> BatchStep:
        """Assemble a :class:`BatchStep`; Spinner vertices never halt."""
        return BatchStep(
            values=self._labels,
            outbox=outbox,
            votes=np.zeros(shard.num_vertices, dtype=bool),
            edges_scanned=edges_scanned,
        )

    # -- conversion ----------------------------------------------------
    def _neighbor_propagation(self, shard: ShardedGraph) -> BatchStep:
        """Replay superstep 0's sends over the original directed edges.

        The adjacency conversion itself happened eagerly in
        :func:`build_spinner_shard`; this superstep only reproduces the
        observable effects — one message per directed edge and
        ``edges_scanned`` charged at the original out-degrees.  The plan
        is stored in canonical (worker-major by source) order, which is
        the reference engine's send order.
        """
        plan = self._spinner_shard.directed_plan
        assert plan is not None  # guaranteed by bind()
        outbox = Outbox(
            plan.sources,
            plan.targets,
            np.zeros(plan.sources.shape[0], dtype=np.float64),
        )
        return self._step(shard, outbox, edges_scanned=plan.out_degrees)

    # -- initialization ------------------------------------------------
    def _initialize(self, shard: ShardedGraph, ctx: BatchComputeContext) -> BatchStep:
        """Compute weighted degrees, seed the load aggregators, announce labels."""
        self._degrees = _segment_sums(shard.adj_weights, shard.indptr).astype(np.float64)
        self._aggregate_per_label(ctx, load_aggregator_name, self._labels, self._degrees)
        senders = np.ones(shard.num_vertices, dtype=bool)
        outbox = ctx.send_to_all_neighbors(senders, self._labels.astype(np.float64))
        return self._step(shard, outbox)

    # -- shared helpers ------------------------------------------------
    def _partition_loads(self, ctx: BatchComputeContext) -> np.ndarray:
        """Previous-superstep partition loads ``b(l)``, as the dict program builds them."""
        return np.array(
            [
                ctx.aggregated_value(load_aggregator_name(label))
                for label in range(self.num_partitions)
            ],
            dtype=np.float64,
        )

    def _capacity(self, loads: np.ndarray) -> float:
        """Capacity ``C`` of eq. (5), with the dict program's empty-graph fallback."""
        total_load = float(loads.sum())
        if not total_load:
            return 1.0
        return self.config.capacity(total_load, self.num_partitions)

    def _aggregate_per_label(
        self,
        ctx: BatchComputeContext,
        name_fn,
        labels: np.ndarray,
        weights: np.ndarray,
        mask: np.ndarray | None = None,
    ) -> None:
        """Aggregate one weight per vertex into its label's aggregator.

        Delegates to :meth:`BatchComputeContext.aggregate_keyed`: the
        bincount runs over the canonical (worker-major) vertex order and
        accumulates each bin strictly sequentially in input order, so
        every per-label sum is bit-identical to the reference engine's
        vertex-by-vertex ``DoubleSumAggregator`` reduction.
        """
        ctx.aggregate_keyed(name_fn, labels, weights, self.num_partitions, mask=mask)

    # -- iteration: scores ----------------------------------------------
    def _frequency_matrix(self, shard: ShardedGraph) -> np.ndarray:
        """Edge weight per ``(vertex, neighbour label)`` (eq. 4 numerator).

        One composite-key bincount over all adjacency slots; entries are
        exact integer-valued floats, so they equal the reference
        program's per-vertex ``label_frequencies`` sums bit for bit.
        The neighbour labels are read straight from the global label
        array — the reference program's per-edge label cache holds
        exactly the neighbour's post-migration label because every
        migrating vertex notifies all its neighbours.
        """
        k = self.num_partitions
        keys = self._slot_src * k + self._labels[shard.adj_targets]
        return np.bincount(
            keys, weights=self._adj_weights_f, minlength=shard.num_vertices * k
        ).reshape(shard.num_vertices, k)

    def _compute_scores(self, shard: ShardedGraph, ctx: BatchComputeContext) -> BatchStep:
        """One ComputeScores superstep (Section IV-A2) over the whole shard."""
        num_vertices = shard.num_vertices
        k = self.num_partitions
        loads = self._partition_loads(ctx)
        capacity = self._capacity(loads)
        frequencies = self._frequency_matrix(shard)
        degrees = self._degrees

        # Locality term of eq. (8): freq / deg, 0 for isolated vertices —
        # elementwise the same IEEE operations as `label_score`.
        locality = np.divide(
            frequencies,
            degrees[:, None],
            out=np.zeros((num_vertices, k), dtype=np.float64),
            where=degrees[:, None] > 0,
        )
        apply_penalty = self.config.balance_penalty and capacity > 0

        if self.config.worker_local_updates and apply_penalty:
            current_score, best_label = self._scan_scores_with_deltas(
                shard, locality, loads, capacity
            )
        else:
            current_score, best_label = self._scan_scores_vectorized(
                locality, loads, capacity, apply_penalty
            )

        candidates = np.where(best_label != self._labels, best_label, -1)
        self._candidates = candidates

        self._aggregate_per_label(ctx, load_aggregator_name, self._labels, degrees)
        all_vertices = np.ones(num_vertices, dtype=bool)
        ctx.aggregate_sequential(SCORE_AGGREGATOR, current_score, all_vertices)
        local_weight = frequencies[np.arange(num_vertices), self._labels]
        ctx.aggregate_sequential(LOCAL_WEIGHT_AGGREGATOR, local_weight, all_vertices)
        self._aggregate_per_label(
            ctx, candidate_aggregator_name, candidates, degrees, mask=candidates >= 0
        )
        return self._step(shard, Outbox.empty())

    def _scan_scores_vectorized(
        self,
        locality: np.ndarray,
        loads: np.ndarray,
        capacity: float,
        apply_penalty: bool,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Replay ``choose_label``'s sequential label scan as k array passes.

        The reference scan walks labels ``0..k-1`` keeping a running
        best with a ``1e-12`` slack (and the ``prefer_current_label``
        tie rule); iterating labels in the same order with vectorized
        per-vertex state reproduces every comparison bit for bit.
        """
        num_vertices = locality.shape[0]
        labels = self._labels
        if apply_penalty:
            scores = locality - (loads / capacity)[None, :]
        else:
            scores = locality
        current_score = scores[np.arange(num_vertices), labels]
        best_label = labels.copy()
        best_score = current_score.copy()
        prefer_current = self.config.prefer_current_label
        for label in range(self.num_partitions):
            column = scores[:, label]
            not_current = labels != label
            better = not_current & (column > best_score + _TIE_EPSILON)
            best_label[better] = label
            best_score[better] = column[better]
            if not prefer_current:
                tie = (
                    not_current
                    & ~better
                    & (np.abs(column - best_score) <= _TIE_EPSILON)
                    & (label < best_label)
                )
                best_label[tie] = label
                best_score[tie] = column[tie]
        return current_score, best_label

    def _scan_scores_with_deltas(
        self,
        shard: ShardedGraph,
        locality: np.ndarray,
        loads: np.ndarray,
        capacity: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Candidate scan with per-worker asynchronous load deltas (IV-A4).

        Each candidate found earlier on the same worker shifts the loads
        later vertices score against, so the scan is sequentially
        dependent within a worker and runs as a Python loop over the
        canonical vertex order — operating on precomputed locality rows
        and incrementally maintained penalties, with the exact float
        arithmetic of the reference program (``(base_load + delta) /
        capacity`` recomputed from the base on every delta change).
        Workers are independent: each starts from the base penalties.
        """
        k = self.num_partitions
        prefer_current = self.config.prefer_current_label
        base_loads = loads.tolist()
        base_penalty = [load / capacity for load in base_loads]
        locality_rows = locality.tolist()
        labels_list = self._labels.tolist()
        degrees_list = self._degrees.tolist()
        current_score = np.zeros(shard.num_vertices, dtype=np.float64)
        best_labels = np.asarray(labels_list, dtype=np.int64).copy()
        shard_indptr = shard.shard_indptr
        vertex_order = shard.vertex_order.tolist()
        label_range = range(k)
        for worker in range(shard.num_workers):
            penalty = list(base_penalty)
            delta: dict[int, float] = {}
            start, end = int(shard_indptr[worker]), int(shard_indptr[worker + 1])
            for vertex in vertex_order[start:end]:
                row = locality_rows[vertex]
                current = labels_list[vertex]
                score = row[current] - penalty[current]
                current_score[vertex] = score
                best_label, best_score = current, score
                for label in label_range:
                    if label == current:
                        continue
                    candidate_score = row[label] - penalty[label]
                    if candidate_score > best_score + _TIE_EPSILON:
                        best_label, best_score = label, candidate_score
                    elif (
                        not prefer_current
                        and abs(candidate_score - best_score) <= _TIE_EPSILON
                        and label < best_label
                    ):
                        best_label, best_score = label, candidate_score
                if best_label != current:
                    best_labels[vertex] = best_label
                    degree = degrees_list[vertex]
                    delta[best_label] = delta.get(best_label, 0.0) + degree
                    penalty[best_label] = (base_loads[best_label] + delta[best_label]) / capacity
                    delta[current] = delta.get(current, 0.0) - degree
                    penalty[current] = (base_loads[current] + delta[current]) / capacity
        return current_score, best_labels

    # -- iteration: migrations -------------------------------------------
    def _compute_migrations(
        self, shard: ShardedGraph, ctx: BatchComputeContext
    ) -> BatchStep:
        """One ComputeMigrations superstep (eq. 14) over the whole shard."""
        candidates = self._candidates
        order = shard.vertex_order
        ordered = order[candidates[order] >= 0]
        if ordered.size:
            loads = self._partition_loads(ctx)
            capacity = self._capacity(loads)
            candidate_loads = np.array(
                [
                    ctx.aggregated_value(candidate_aggregator_name(label))
                    for label in range(self.num_partitions)
                ],
                dtype=np.float64,
            )
            targets = candidates[ordered]
            remaining = capacity - loads[targets]
            target_load = candidate_loads[targets]
            if self.config.probabilistic_migration:
                # Piecewise eq. (14), evaluated with the same scalar ops
                # and in the same branch order as `migration_probability`.
                ratio = np.divide(
                    remaining,
                    target_load,
                    out=np.ones_like(remaining),
                    where=target_load > 0,
                )
                probability = np.where(
                    target_load <= 0,
                    1.0,
                    np.where(remaining <= 0, 0.0, np.minimum(1.0, ratio)),
                )
            else:
                probability = np.ones(ordered.shape[0], dtype=np.float64)
            # One block draw over the candidates in canonical vertex order
            # == the dict program's per-candidate scalar draws (the seeded
            # RNG contract: PCG64 fills blocks sequentially).
            draws = self._rng.random(ordered.shape[0])
            migrate = draws < probability
            moved = ordered[migrate]
            self._labels[moved] = targets[migrate]
            ctx.aggregate(MIGRATIONS_AGGREGATOR, int(moved.shape[0]))
        else:
            moved = np.empty(0, dtype=np.int64)
        self._aggregate_per_label(ctx, load_aggregator_name, self._labels, self._degrees)
        migrated = np.zeros(shard.num_vertices, dtype=bool)
        migrated[moved] = True
        outbox = ctx.send_to_all_neighbors(migrated, self._labels.astype(np.float64))
        return self._step(shard, outbox)
