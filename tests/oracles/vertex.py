"""Vertex state for the per-vertex reference engine.

A Pregel vertex owns an identifier, a mutable value, its outgoing edges
(with mutable edge values) and an active/halted flag.  Vertices are the
unit of computation: the engine invokes the user program once per active
vertex per superstep.
"""

from __future__ import annotations

from typing import Any


class Vertex:
    """A single Pregel vertex.

    Attributes
    ----------
    vertex_id:
        Integer identifier, unique within the graph.
    value:
        Arbitrary mutable vertex value (application-defined).
    edges:
        Mapping from target vertex id to the edge value.  For Spinner the
        edge value is a pair ``[weight, neighbour_label]``; for plain
        applications it is typically the edge weight.
    """

    __slots__ = ("vertex_id", "value", "edges", "_halted")

    def __init__(
        self,
        vertex_id: int,
        value: Any = None,
        edges: dict[int, Any] | None = None,
    ) -> None:
        self.vertex_id = vertex_id
        self.value = value
        self.edges: dict[int, Any] = edges if edges is not None else {}
        self._halted = False

    # ------------------------------------------------------------------
    @property
    def halted(self) -> bool:
        """Whether the vertex has voted to halt (and received no message)."""
        return self._halted

    def vote_to_halt(self) -> None:
        """Mark the vertex inactive until it receives a message."""
        self._halted = True

    def activate(self) -> None:
        """Re-activate the vertex (called by the engine on message arrival)."""
        self._halted = False

    # ------------------------------------------------------------------
    def add_edge(self, target: int, value: Any = None) -> None:
        """Add or replace an outgoing edge."""
        self.edges[target] = value

    def remove_edge(self, target: int) -> None:
        """Remove an outgoing edge if present."""
        self.edges.pop(target, None)

    @property
    def num_edges(self) -> int:
        """Number of outgoing edges."""
        return len(self.edges)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Vertex(id={self.vertex_id}, value={self.value!r}, degree={self.num_edges})"
