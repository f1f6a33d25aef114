"""The per-vertex Spinner program and its partitioner (reference oracle).

:class:`SpinnerProgram` executes the phases of Figure 2 of the paper one
``compute`` call per vertex on the reference engine.  Per-worker
asynchronous load deltas (Section IV-A4) live in the worker's shared
store.  :class:`DictSpinnerPartitioner` is
:class:`~repro.core.spinner.SpinnerPartitioner` with this program on that
engine, so the equivalence suites compare the two runtimes through the
same public API.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.program import (
    COMPUTE_SCORES,
    INITIALIZE,
    LOCAL_WEIGHT_AGGREGATOR,
    MIGRATIONS_AGGREGATOR,
    NEIGHBOR_DISCOVERY,
    NEIGHBOR_PROPAGATION,
    SCORE_AGGREGATOR,
    SpinnerMasterCompute,
    SpinnerPhaseSchedule,
    candidate_aggregator_name,
    load_aggregator_name,
)
from repro.core.batch_program import SpinnerInput
from repro.core.spinner import SpinnerPartitioner
from repro.graph.csr import CSRGraph
from repro.pregel.aggregators import AggregatorRegistry

from oracles.engine import PregelEngine, PregelResult
from oracles.program import ComputeContext, VertexProgram
from oracles.scoring import choose_label, label_frequencies, migration_probability
from oracles.vertex import Vertex

#: Worker-store key holding the per-worker asynchronous load deltas.
WORKER_LOAD_DELTA_KEY = "spinner_load_delta"


class SpinnerVertexValue:
    """Mutable per-vertex Spinner state stored in ``Vertex.value``."""

    __slots__ = ("label", "candidate_label", "weighted_degree")

    def __init__(self, label: int) -> None:
        self.label = label
        self.candidate_label: int | None = None
        self.weighted_degree: float = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SpinnerVertexValue(label={self.label}, "
            f"candidate={self.candidate_label}, degree={self.weighted_degree})"
        )


class SpinnerProgram(SpinnerPhaseSchedule, VertexProgram):
    """Vertex-centric (per-vertex ``compute``) implementation of Spinner.

    Runs on the reference :class:`~oracles.engine.PregelEngine`; the
    production :class:`~repro.core.batch_program.BatchSpinnerProgram` is
    bit-exact with this program for the same seed.  Constructor
    parameters are documented on
    :class:`~repro.core.program.SpinnerPhaseSchedule`.
    """

    def pre_superstep(
        self,
        superstep: int,
        worker_store: dict[str, Any],
        aggregators: AggregatorRegistry,
    ) -> None:
        """Reset the per-worker asynchronous load deltas (Section IV-A4).

        The deltas only carry information within one superstep, so they
        are cleared before every superstep begins.
        """
        worker_store[WORKER_LOAD_DELTA_KEY] = {}

    # ------------------------------------------------------------------
    # compute
    # ------------------------------------------------------------------
    def compute(self, vertex: Vertex, messages: list[Any], ctx: ComputeContext) -> None:
        """Dispatch the vertex to the current phase's handler (Figure 2)."""
        phase = self.phase(ctx.superstep)
        if phase == NEIGHBOR_PROPAGATION:
            self._neighbor_propagation(vertex, ctx)
        elif phase == NEIGHBOR_DISCOVERY:
            self._neighbor_discovery(vertex, messages)
        elif phase == INITIALIZE:
            self._initialize(vertex, ctx)
        elif phase == COMPUTE_SCORES:
            self._compute_scores(vertex, messages, ctx)
        else:
            self._compute_migrations(vertex, ctx)

    # -- conversion ----------------------------------------------------
    def _neighbor_propagation(self, vertex: Vertex, ctx: ComputeContext) -> None:
        # Normalize edge values to [weight, neighbour_label] and announce
        # this vertex to all out-neighbours.
        for target in list(vertex.edges):
            vertex.edges[target] = [1, None]
            ctx.send_message(target, vertex.vertex_id)

    def _neighbor_discovery(self, vertex: Vertex, messages: list[Any]) -> None:
        for sender in messages:
            edge = vertex.edges.get(sender)
            if edge is not None:
                edge[0] = 2
            else:
                vertex.edges[sender] = [1, None]

    # -- initialization ------------------------------------------------
    def _initialize(self, vertex: Vertex, ctx: ComputeContext) -> None:
        value: SpinnerVertexValue = vertex.value
        value.weighted_degree = float(sum(edge[0] for edge in vertex.edges.values()))
        ctx.aggregate(load_aggregator_name(value.label), value.weighted_degree)
        for target in vertex.edges:
            ctx.send_message(target, (vertex.vertex_id, value.label))

    # -- iteration: scores ----------------------------------------------
    def _partition_loads(self, ctx: ComputeContext) -> np.ndarray:
        loads = np.array(
            [
                ctx.aggregated_value(load_aggregator_name(label))
                for label in range(self.num_partitions)
            ],
            dtype=np.float64,
        )
        return loads

    def _compute_scores(
        self, vertex: Vertex, messages: list[Any], ctx: ComputeContext
    ) -> None:
        value: SpinnerVertexValue = vertex.value
        # (i) update neighbour labels from migration / initialization messages
        for sender, new_label in messages:
            edge = vertex.edges.get(sender)
            if edge is not None:
                edge[1] = new_label

        degree = value.weighted_degree
        ctx.aggregate(load_aggregator_name(value.label), degree)

        # (ii) label frequencies across the neighbourhood
        frequencies = label_frequencies(
            [(edge[1], edge[0]) for edge in vertex.edges.values()]
        )

        # (iii) loads from the previous superstep, optionally adjusted by the
        # per-worker asynchronous deltas of candidates evaluated earlier in
        # this superstep on the same worker (Section IV-A4).
        loads = self._partition_loads(ctx)
        total_load = float(loads.sum())
        capacity = self.config.capacity(total_load, self.num_partitions) if total_load else 1.0
        if self.config.worker_local_updates:
            delta: dict[int, float] = ctx.worker_store.get(WORKER_LOAD_DELTA_KEY, {})
            if delta:
                loads = loads.copy()
                for label, change in delta.items():
                    loads[label] += change

        best_label, _best_score, current_score = choose_label(
            value.label, frequencies, degree, loads, capacity, self.config
        )

        ctx.aggregate(SCORE_AGGREGATOR, current_score)
        ctx.aggregate(LOCAL_WEIGHT_AGGREGATOR, frequencies.get(value.label, 0.0))

        # (iv) flag as migration candidate
        if best_label != value.label:
            value.candidate_label = best_label
            ctx.aggregate(candidate_aggregator_name(best_label), degree)
            if self.config.worker_local_updates:
                delta = ctx.worker_store.setdefault(WORKER_LOAD_DELTA_KEY, {})
                delta[best_label] = delta.get(best_label, 0.0) + degree
                delta[value.label] = delta.get(value.label, 0.0) - degree
        else:
            value.candidate_label = None

    # -- iteration: migrations -------------------------------------------
    def _compute_migrations(self, vertex: Vertex, ctx: ComputeContext) -> None:
        value: SpinnerVertexValue = vertex.value
        degree = value.weighted_degree
        if value.candidate_label is not None:
            target_label = value.candidate_label
            loads = self._partition_loads(ctx)
            total_load = float(loads.sum())
            capacity = (
                self.config.capacity(total_load, self.num_partitions) if total_load else 1.0
            )
            remaining = capacity - float(loads[target_label])
            candidate_load = float(
                ctx.aggregated_value(candidate_aggregator_name(target_label))
            )
            if self.config.probabilistic_migration:
                probability = migration_probability(remaining, candidate_load)
            else:
                probability = 1.0
            if self._rng.random() < probability:
                value.label = target_label
                ctx.aggregate(MIGRATIONS_AGGREGATOR, 1)
                for target in vertex.edges:
                    ctx.send_message(target, (vertex.vertex_id, value.label))
            value.candidate_label = None
        ctx.aggregate(load_aggregator_name(value.label), degree)


class DictSpinnerPartitioner(SpinnerPartitioner):
    """:class:`~repro.core.spinner.SpinnerPartitioner` on the reference engine.

    Same constructor, entry points and result type; only the Pregel run
    differs (:class:`SpinnerProgram` on :class:`~oracles.engine.PregelEngine`
    instead of the batch program on the vector engine).  It runs
    uninterrupted, so the checkpoint and fault knobs of the config are
    ignored.
    """

    def _execute(
        self,
        graph: SpinnerInput,
        num_partitions: int,
        initial_labels: np.ndarray,
    ) -> tuple[np.ndarray, PregelResult]:
        convert_directed = not isinstance(graph, CSRGraph)
        program = SpinnerProgram(
            num_partitions=num_partitions,
            config=self.config,
            convert_directed=convert_directed,
        )
        master = SpinnerMasterCompute(program)
        engine = PregelEngine(
            num_workers=self.num_workers,
            placement=self.placement,
            cost_model=self.cost_model,
            max_supersteps=program.superstep_bound(),
        )
        if convert_directed:
            # Giraph's data model: a vertex knows only its out-edges.
            ids, sources, targets = (np.asarray(part) for part in graph)
            weights = np.ones(sources.shape[0], dtype=np.int64)
        else:
            ids = graph.original_ids
            sources, targets, weights = graph.edge_array()
            sources, targets = ids[sources], ids[targets]
        ids = ids.tolist()
        vertices = {
            vertex_id: Vertex(vertex_id, value=SpinnerVertexValue(int(label)))
            for vertex_id, label in zip(ids, initial_labels.tolist())
        }
        for source, target, weight in zip(sources.tolist(), targets.tolist(), weights.tolist()):
            vertices[source].add_edge(target, [weight, None])
        result = engine.run(program, vertices, master=master)
        labels = np.array([result.vertices[v].value.label for v in ids], dtype=np.int64)
        return labels, result
