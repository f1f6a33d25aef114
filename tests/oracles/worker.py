"""Workers and vertex placement of the per-vertex reference engine.

Spinner relies on *per-worker shared state* (its asynchronous load
counters, Section IV-A4), which the reference engine exposes as
:attr:`Worker.shared_store`.

The reference engine places vertices with a per-vertex callable
(:data:`PlacementFn`): :func:`hash_placement` and
:func:`partition_placement` are the rules the vector engine computes on
arrays as ``(placement labels, else ids) mod workers``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from typing import Any

from repro.errors import PregelError

#: Signature of a vertex placement function: vertex id -> worker index.
PlacementFn = Callable[[int], int]


def hash_placement(num_workers: int) -> PlacementFn:
    """Default Giraph-style placement: ``worker = vertex_id mod workers``.

    A negative id raises :class:`~repro.errors.PregelError` instead of
    silently relying on Python's modulo semantics.
    """
    if num_workers <= 0:
        raise PregelError("num_workers must be positive")

    def place(vertex_id: int) -> int:
        """Return ``vertex_id mod num_workers``, rejecting negative ids."""
        if vertex_id < 0:
            raise PregelError(
                f"vertex ids must be non-negative, got {vertex_id}"
            )
        return vertex_id % num_workers

    return place


def partition_placement(
    assignment: Mapping[int, int], num_workers: int
) -> PlacementFn:
    """Placement driven by a partitioning, as used in Section V-F.

    Vertices with the same Spinner label land on the same worker
    (``worker = label mod num_workers``); every placed vertex must be in
    ``assignment``.
    """
    if num_workers <= 0:
        raise PregelError("num_workers must be positive")

    def place(vertex_id: int) -> int:
        """Return the worker owning the vertex's partition label."""
        return assignment[vertex_id] % num_workers

    return place


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
