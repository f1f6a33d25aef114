"""The per-vertex reference Pregel engine.

The engine executes a :class:`~oracles.program.VertexProgram` over a set
of vertices placed on simulated workers, superstep by superstep, with
synchronous message delivery, aggregators, an optional master compute and
per-superstep cost accounting: one Python ``compute`` call per vertex per
superstep.  It is the reference the production
:class:`~repro.pregel.vector_coordinator.VectorPregelEngine` is pinned
bit-exact against, and it runs uninterrupted only: no checkpoints, no
injected faults.  Recovery is pinned by transitivity (vector-recovered ==
vector-uninterrupted == this engine).

The semantics follow the Pregel paper (and Giraph's implementation of it):

* a vertex is *active* unless it has voted to halt; receiving a message
  re-activates it;
* messages sent in superstep *S* are delivered at the start of *S + 1*;
* aggregator values contributed during *S* are visible during *S + 1*;
* the computation ends when every vertex has halted and no messages are in
  flight, when the master requests a halt, or when ``max_supersteps`` is
  reached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import PregelError
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.undirected import UndirectedGraph
from repro.pregel.aggregators import AggregatorRegistry
from repro.pregel.cost_model import (
    ClusterCostModel,
    RunStats,
    SuperstepStats,
    WorkerStats,
)
from repro.pregel.master import MasterCompute
from repro.pregel.run_loop import record_aggregator_history, superstep_preamble
from oracles.messages import MessageCombiner, MessageStore
from oracles.program import ComputeContext, VertexProgram
from oracles.vertex import Vertex
from oracles.worker import PlacementFn, build_workers, hash_placement


@dataclass
class PregelResult:
    """Outcome of a reference Pregel run."""

    vertices: dict[int, Vertex]
    num_supersteps: int
    stats: RunStats
    aggregators: AggregatorRegistry
    aggregator_history: dict[str, list[Any]] = field(default_factory=dict)
    halt_reason: str = "converged"
    #: The master compute the run finished with (``None`` without one).
    master: MasterCompute | None = None

    def vertex_values(self) -> dict[int, Any]:
        """Convenience mapping of vertex id to final vertex value."""
        return {vid: vertex.value for vid, vertex in self.vertices.items()}

    def simulated_time(self, model: ClusterCostModel) -> float:
        """Total simulated runtime under ``model``."""
        return self.stats.simulated_time(model)


class PregelEngine:
    """Single-process simulation of a Giraph cluster.

    Parameters
    ----------
    num_workers:
        Number of simulated workers.
    placement:
        Vertex placement function; defaults to hash placement, matching
        Giraph's default partitioning of vertices onto workers.
    cost_model:
        Cost coefficients used when reporting simulated times.
    combiner:
        Optional message combiner applied to all messages.
    max_supersteps:
        Safety bound on the number of supersteps.
    drop_unknown_targets:
        Messages addressed to vertex ids that do not exist in the graph
        raise :class:`~repro.errors.PregelError` by default (Giraph would
        resolve or create the target vertex; silently losing the message is
        a routing bug).  Set this to ``True`` to drop such messages instead;
        the number dropped is surfaced as ``RunStats.messages_dropped``.
    """

    def __init__(
        self,
        num_workers: int = 4,
        placement: PlacementFn | None = None,
        cost_model: ClusterCostModel | None = None,
        combiner: MessageCombiner | None = None,
        max_supersteps: int = 500,
        drop_unknown_targets: bool = False,
    ) -> None:
        if num_workers <= 0:
            raise PregelError("num_workers must be positive")
        if max_supersteps <= 0:
            raise PregelError("max_supersteps must be positive")
        self.num_workers = num_workers
        self.placement = placement if placement is not None else hash_placement(num_workers)
        self.cost_model = cost_model if cost_model is not None else ClusterCostModel()
        self.combiner = combiner
        self.max_supersteps = max_supersteps
        self.drop_unknown_targets = drop_unknown_targets

    # ------------------------------------------------------------------
    # graph loading
    # ------------------------------------------------------------------
    @staticmethod
    def vertices_from_digraph(
        graph: DiGraph,
        vertex_value: Callable[[int], Any] | None = None,
        edge_value: Callable[[int, int], Any] | None = None,
    ) -> dict[int, Vertex]:
        """Build Pregel vertices from a directed graph.

        Each vertex gets one outgoing edge per directed edge, matching the
        Giraph data model where a vertex knows only its out-edges.
        """
        vertices: dict[int, Vertex] = {}
        for vertex_id in graph.vertices():
            value = vertex_value(vertex_id) if vertex_value else None
            vertices[vertex_id] = Vertex(vertex_id, value=value)
        for source, target in graph.edges():
            value = edge_value(source, target) if edge_value else 1
            vertices[source].add_edge(target, value)
        return vertices

    @staticmethod
    def vertices_from_undirected(
        graph: UndirectedGraph,
        vertex_value: Callable[[int], Any] | None = None,
        edge_value: Callable[[int, int, int], Any] | None = None,
    ) -> dict[int, Vertex]:
        """Build Pregel vertices from a weighted undirected graph.

        Every undirected edge materializes as two directed edges (one per
        endpoint); by default the edge value is the undirected weight.
        """
        vertices: dict[int, Vertex] = {}
        for vertex_id in graph.vertices():
            value = vertex_value(vertex_id) if vertex_value else None
            vertices[vertex_id] = Vertex(vertex_id, value=value)
        for u, v, weight in graph.edges():
            value_uv = edge_value(u, v, weight) if edge_value else weight
            value_vu = edge_value(v, u, weight) if edge_value else weight
            vertices[u].add_edge(v, value_uv)
            vertices[v].add_edge(u, value_vu)
        return vertices

    @staticmethod
    def vertices_from_csr(csr: "CSRGraph") -> dict[int, Vertex]:
        """Build Pregel vertices from a :class:`~repro.graph.csr.CSRGraph`.

        Vertices are keyed by their *original* ids, iterated in dense-id
        order, and each adjacency slot becomes one outgoing edge valued with
        its CSR weight — the exact layout the vectorized engine uses, which
        makes runs over the two representations comparable slot for slot.
        Parallel adjacency entries collapse (``Vertex.edges`` is a dict).
        """
        vertices: dict[int, Vertex] = {}
        indptr = csr.indptr
        indices = csr.indices.tolist()
        weights = csr.weights.tolist()
        original = csr.original_ids.tolist()
        for dense in range(csr.num_vertices):
            start, end = int(indptr[dense]), int(indptr[dense + 1])
            vertex = Vertex(original[dense])
            for slot in range(start, end):
                vertex.add_edge(original[indices[slot]], weights[slot])
            vertices[original[dense]] = vertex
        return vertices

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        program: VertexProgram,
        vertices: dict[int, Vertex],
        master: MasterCompute | None = None,
    ) -> PregelResult:
        """Execute ``program`` over ``vertices`` until convergence.

        The ``vertices`` dictionary is mutated in place (vertex values and
        edge values evolve as the program runs).
        """
        aggregators = AggregatorRegistry()
        program.register_aggregators(aggregators)
        if master is not None:
            master.initialize(aggregators)

        workers, worker_of = build_workers(vertices.keys(), self.num_workers, self.placement)
        incoming = MessageStore(self.combiner)
        run_stats = RunStats()
        aggregator_history: dict[str, list[Any]] = {name: [] for name in aggregators.names()}
        superstep = 0

        def quiescent() -> bool:
            # Standard Pregel termination: all vertices halted, no messages.
            any_active = any(not v.halted for v in vertices.values())
            return superstep > 0 and incoming.is_empty() and not any_active

        while True:
            halt_reason = superstep_preamble(
                superstep,
                self.max_supersteps,
                lambda _superstep: None,
                master,
                aggregators,
                quiescent,
            )
            if halt_reason is not None:
                break

            outgoing = MessageStore(self.combiner)
            superstep_stat = SuperstepStats(superstep=superstep)
            # Raw sends to nonexistent targets this superstep; counted at
            # send time so the dropped total is per-message even when an
            # eager combiner collapses the stored boxes.
            unknown_sends = [0]

            for worker in workers:
                worker_stat = WorkerStats()
                # Giraph WorkerContext lifecycle: the shared store only
                # carries state within one superstep (see Worker docstring).
                worker.shared_store.clear()
                program.pre_superstep(superstep, worker.shared_store, aggregators)

                def on_send(target: int, _worker_id: int = worker.worker_id,
                            _stat: WorkerStats = worker_stat) -> None:
                    target_worker = worker_of.get(target, -1)
                    if target_worker == _worker_id:
                        _stat.local_messages_sent += 1
                    else:
                        _stat.remote_messages_sent += 1
                        if target_worker == -1:
                            unknown_sends[0] += 1

                def send(target: int, message: Any,
                         _on_send: Callable[[int], None] = on_send,
                         _store: MessageStore = outgoing) -> None:
                    _on_send(target)
                    _store.send(target, message)

                ctx = ComputeContext(
                    superstep=superstep,
                    num_vertices=len(vertices),
                    aggregators=aggregators,
                    send=send,
                    worker_store=worker.shared_store,
                    worker_id=worker.worker_id,
                    num_workers=self.num_workers,
                )

                for vertex_id in worker.vertex_ids:
                    vertex = vertices[vertex_id]
                    messages = incoming.messages_for(vertex_id)
                    if messages:
                        vertex.activate()
                    if vertex.halted:
                        continue
                    program.compute(vertex, messages, ctx)
                    worker_stat.vertices_computed += 1
                    worker_stat.edges_scanned += vertex.num_edges

                program.post_superstep(superstep, worker.shared_store, aggregators)
                superstep_stat.worker_stats.append(worker_stat)

            # on_send counted every send whose target is absent from
            # worker_of, so the common all-known superstep skips the
            # target-set scan entirely.
            if unknown_sends[0]:
                unknown_targets = [t for t in outgoing.targets() if t not in worker_of]
                if not self.drop_unknown_targets:
                    preview = sorted(unknown_targets)[:5]
                    raise PregelError(
                        f"messages sent to {len(unknown_targets)} nonexistent "
                        f"vertex id(s) during superstep {superstep} "
                        f"(e.g. {preview}); pass drop_unknown_targets=True "
                        "to drop them instead"
                    )
                outgoing.drop_targets(unknown_targets)
                run_stats.messages_dropped += unknown_sends[0]

            run_stats.superstep_stats.append(superstep_stat)
            record_aggregator_history(aggregators, aggregator_history)
            incoming = outgoing
            superstep += 1

        return PregelResult(
            vertices=vertices,
            num_supersteps=superstep,
            stats=run_stats,
            aggregators=aggregators,
            aggregator_history=aggregator_history,
            halt_reason=halt_reason,
            master=master,
        )

    # ------------------------------------------------------------------
    def run_on_digraph(
        self,
        program: VertexProgram,
        graph: DiGraph,
        vertex_value: Callable[[int], Any] | None = None,
        edge_value: Callable[[int, int], Any] | None = None,
        master: MasterCompute | None = None,
    ) -> PregelResult:
        """Convenience wrapper: load a directed graph and run ``program``."""
        vertices = self.vertices_from_digraph(graph, vertex_value, edge_value)
        return self.run(program, vertices, master=master)

    def run_on_undirected(
        self,
        program: VertexProgram,
        graph: UndirectedGraph,
        vertex_value: Callable[[int], Any] | None = None,
        edge_value: Callable[[int, int, int], Any] | None = None,
        master: MasterCompute | None = None,
    ) -> PregelResult:
        """Convenience wrapper: load an undirected graph and run ``program``."""
        vertices = self.vertices_from_undirected(graph, vertex_value, edge_value)
        return self.run(program, vertices, master=master)
