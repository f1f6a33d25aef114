"""Per-vertex program interface and compute context of the reference engine.

A vertex program is the user-defined ``compute`` function of the Pregel
model.  The reference engine calls :meth:`VertexProgram.compute` once per active
vertex per superstep, handing it the vertex, the messages delivered to it
and a :class:`ComputeContext` through which it can send messages, use
aggregators and access per-worker shared state.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.pregel.aggregators import AggregatorRegistry
from oracles.vertex import Vertex


class ComputeContext:
    """Facilities available to a vertex during its compute call.

    Instances are created by the engine once per (worker, superstep) and
    re-bound to each vertex; user code never constructs them.
    """

    def __init__(
        self,
        superstep: int,
        num_vertices: int,
        aggregators: AggregatorRegistry,
        send: Callable[[int, Any], None],
        worker_store: dict[str, Any],
        worker_id: int,
        num_workers: int,
    ) -> None:
        self._superstep = superstep
        self._num_vertices = num_vertices
        self._aggregators = aggregators
        self._send = send
        self._worker_store = worker_store
        self._worker_id = worker_id
        self._num_workers = num_workers

    # ------------------------------------------------------------------
    @property
    def superstep(self) -> int:
        """Index of the current superstep (0-based)."""
        return self._superstep

    @property
    def num_vertices(self) -> int:
        """Total number of vertices in the graph."""
        return self._num_vertices

    @property
    def worker_id(self) -> int:
        """Worker executing the current vertex."""
        return self._worker_id

    @property
    def num_workers(self) -> int:
        """Number of workers in the simulated cluster."""
        return self._num_workers

    @property
    def worker_store(self) -> dict[str, Any]:
        """Mutable per-worker shared dictionary (Giraph WorkerContext)."""
        return self._worker_store

    # ------------------------------------------------------------------
    def send_message(self, target: int, message: Any) -> None:
        """Send a message to ``target``, delivered next superstep."""
        self._send(target, message)

    def send_message_to_all_neighbors(self, vertex: Vertex, message: Any) -> None:
        """Send the same message along every outgoing edge of ``vertex``."""
        for target in vertex.edges:
            self._send(target, message)

    # ------------------------------------------------------------------
    def aggregate(self, name: str, value: Any) -> None:
        """Contribute ``value`` to the named aggregator."""
        self._aggregators.aggregate(name, value)

    def aggregated_value(self, name: str) -> Any:
        """Value of the named aggregator from the previous superstep."""
        return self._aggregators.value(name)


class VertexProgram:
    """Base class for vertex-centric programs.

    Subclasses implement :meth:`compute`; the optional hooks
    :meth:`pre_superstep` / :meth:`post_superstep` run once per worker at
    the start / end of each superstep with access to the worker's shared
    store (mirroring Giraph's ``WorkerContext`` callbacks), and
    :meth:`register_aggregators` runs once before superstep 0.
    """

    def register_aggregators(self, aggregators: AggregatorRegistry) -> None:
        """Register the aggregators the program needs."""

    def pre_superstep(
        self,
        superstep: int,
        worker_store: dict[str, Any],
        aggregators: AggregatorRegistry,
    ) -> None:
        """Per-worker hook before any vertex of the worker computes."""

    def compute(self, vertex: Vertex, messages: list[Any], ctx: ComputeContext) -> None:
        """Per-vertex compute function (must be overridden)."""
        raise NotImplementedError

    def post_superstep(
        self,
        superstep: int,
        worker_store: dict[str, Any],
        aggregators: AggregatorRegistry,
    ) -> None:
        """Per-worker hook after every vertex of the worker has computed."""
