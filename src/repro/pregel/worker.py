"""Vertex-to-worker placement.

Giraph distributes vertices across physical machine workers; which worker a
vertex lives on determines whether its messages are local or cross the
network, and the per-worker load determines superstep time under the
synchronous barrier.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

from repro.errors import PregelError

#: Signature of a vertex placement function: vertex id -> worker index.
PlacementFn = Callable[[int], int]


def hash_placement(num_workers: int) -> PlacementFn:
    """Default Giraph-style placement: ``worker = vertex_id mod workers``.

    Vertex ids must be non-negative (the graph classes enforce the same
    invariant); a negative id raises :class:`~repro.errors.PregelError`
    instead of silently relying on Python's modulo semantics.
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
    (``worker = label mod num_workers``); vertices missing from the
    assignment fall back to hash placement.
    """
    if num_workers <= 0:
        raise PregelError("num_workers must be positive")

    def place(vertex_id: int) -> int:
        """Return the worker owning the vertex's partition label."""
        label = assignment.get(vertex_id)
        if label is None:
            return vertex_id % num_workers
        return label % num_workers

    return place
