"""Workers of the per-vertex reference engine.

Spinner relies on *per-worker shared state* (its asynchronous load
counters, Section IV-A4), which the reference engine exposes as
:attr:`Worker.shared_store`.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

from repro.errors import PregelError
from repro.pregel.worker import PlacementFn


class Worker:
    """One simulated cluster worker.

    Attributes
    ----------
    worker_id:
        Index of the worker within the cluster.
    vertex_ids:
        The vertices placed on this worker.
    shared_store:
        A mutable dictionary shared by all vertices of the worker within a
        superstep.  The engine clears it at the start of every superstep,
        before calling the program's ``pre_superstep`` hook, which mirrors
        Giraph's ``WorkerContext`` lifecycle: state that must survive a
        superstep boundary belongs in aggregators or vertex values.
    """

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.vertex_ids: list[int] = []
        self.shared_store: dict[str, Any] = {}

    def assign(self, vertex_id: int) -> None:
        """Place a vertex on this worker."""
        self.vertex_ids.append(vertex_id)

    @property
    def num_vertices(self) -> int:
        """Number of vertices placed on this worker."""
        return len(self.vertex_ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Worker(id={self.worker_id}, vertices={self.num_vertices})"


def build_workers(
    vertex_ids: Iterable[int], num_workers: int, placement: PlacementFn
) -> tuple[list[Worker], dict[int, int]]:
    """Create workers and place every vertex.

    Returns the worker list and the ``vertex -> worker`` map used by the
    engine to classify messages as local or remote.
    """
    workers = [Worker(worker_id) for worker_id in range(num_workers)]
    worker_of: dict[int, int] = {}
    for vertex_id in vertex_ids:
        worker_id = placement(vertex_id)
        if not 0 <= worker_id < num_workers:
            raise PregelError(
                f"placement returned worker {worker_id} outside [0, {num_workers})"
            )
        workers[worker_id].assign(vertex_id)
        worker_of[vertex_id] = worker_id
    return workers, worker_of
