"""Weighted undirected graph — the representation Spinner partitions.

Spinner converts directed input graphs into weighted undirected graphs
(Section III-A of the paper): an undirected edge gets weight 1 when the
directed edge exists in only one direction and weight 2 when both
directions exist.  This module provides that representation, together
with the degree definition used by the balance machinery (the degree of a
vertex is the *sum of the weights* of its incident edges, which equals the
number of directed messages it exchanges).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.errors import GraphError, VertexNotFoundError


class UndirectedGraph:
    """An undirected graph with integer edge weights.

    Edges are stored once per endpoint in a nested mapping
    ``{vertex: {neighbour: weight}}``.  Self-loops are rejected because the
    partitioning objective ignores them.

    Examples
    --------
    >>> g = UndirectedGraph()
    >>> g.add_edge(0, 1, weight=2)
    >>> g.add_edge(1, 2)
    >>> g.weighted_degree(1)
    3
    >>> g.num_edges
    2
    """

    def __init__(self) -> None:
        self._adj: dict[int, dict[int, int]] = {}
        self._num_edges = 0
        self._total_weight = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(self, vertex_id: int) -> None:
        """Add an isolated vertex; a no-op if it already exists."""
        if vertex_id < 0:
            raise GraphError(f"vertex ids must be non-negative, got {vertex_id}")
        self._adj.setdefault(vertex_id, {})

    def add_edge(self, u: int, v: int, weight: int = 1) -> bool:
        """Add an undirected edge of the given weight.

        If the edge already exists its weight is left unchanged and the
        method returns ``False``.  Use :meth:`set_weight` to update weights.
        """
        if u == v:
            raise GraphError("self-loops are not supported")
        if weight <= 0:
            raise GraphError(f"edge weights must be positive, got {weight}")
        self.add_vertex(u)
        self.add_vertex(v)
        if v in self._adj[u]:
            return False
        self._adj[u][v] = weight
        self._adj[v][u] = weight
        self._num_edges += 1
        self._total_weight += weight
        return True

    def set_weight(self, u: int, v: int, weight: int) -> None:
        """Set the weight of an existing edge."""
        if weight <= 0:
            raise GraphError(f"edge weights must be positive, got {weight}")
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u}, {v}) does not exist")
        old = self._adj[u][v]
        self._adj[u][v] = weight
        self._adj[v][u] = weight
        self._total_weight += weight - old

    def remove_edge(self, u: int, v: int) -> bool:
        """Remove the edge ``{u, v}`` if present; returns whether it existed."""
        if not self.has_edge(u, v):
            return False
        weight = self._adj[u].pop(v)
        self._adj[v].pop(u)
        self._num_edges -= 1
        self._total_weight -= weight
        return True

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices in the graph."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges in the graph."""
        return self._num_edges

    @property
    def total_weight(self) -> int:
        """Sum of all edge weights.

        This equals the number of directed edges of the original graph when
        the graph was produced by
        :func:`repro.graph.conversion.to_weighted_undirected`.
        """
        return self._total_weight

    def __contains__(self, vertex_id: int) -> bool:
        return vertex_id in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def has_edge(self, u: int, v: int) -> bool:
        """Return whether the undirected edge ``{u, v}`` exists."""
        adj_u = self._adj.get(u)
        return adj_u is not None and v in adj_u

    def weight(self, u: int, v: int) -> int:
        """Return the weight of the edge ``{u, v}``."""
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u}, {v}) does not exist")
        return self._adj[u][v]

    def vertices(self) -> Iterator[int]:
        """Iterate over vertex ids."""
        return iter(self._adj)

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Iterate over edges as ``(u, v, weight)`` with ``u < v``."""
        for u, neighbours in self._adj.items():
            for v, weight in neighbours.items():
                if u < v:
                    yield u, v, weight

    def neighbors(self, vertex_id: int) -> dict[int, int]:
        """Return the mapping ``{neighbour: weight}`` of a vertex."""
        try:
            return self._adj[vertex_id]
        except KeyError:
            raise VertexNotFoundError(vertex_id) from None

    def degree(self, vertex_id: int) -> int:
        """Return the number of incident edges of a vertex."""
        return len(self.neighbors(vertex_id))

    def weighted_degree(self, vertex_id: int) -> int:
        """Return the sum of incident edge weights of a vertex.

        This is the quantity Spinner balances on: it equals the number of
        messages the vertex exchanges in the original directed graph.
        """
        return sum(self.neighbors(vertex_id).values())

    def copy(self) -> "UndirectedGraph":
        """Return a deep copy of the graph."""
        clone = UndirectedGraph()
        clone._adj = {v: dict(nbrs) for v, nbrs in self._adj.items()}
        clone._num_edges = self._num_edges
        clone._total_weight = self._total_weight
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"UndirectedGraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"W={self.total_weight})"
        )

    # ------------------------------------------------------------------
    # convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def adopt_adjacency(cls, adjacency: list[dict[int, int]]) -> "UndirectedGraph":
        """Take ownership of the neighbour dicts of vertices ``0 .. n-1``.

        ``adjacency[v]`` maps each neighbour of ``v`` to the edge weight and
        must be symmetric, with positive weights and no self-loops.  The
        dicts are used as they are, insertion order included, with no
        per-edge :meth:`add_edge` call.
        """
        graph = cls()
        graph._adj = dict(enumerate(adjacency))
        graph._num_edges = sum(map(len, adjacency)) // 2
        graph._total_weight = sum(sum(nbrs.values()) for nbrs in adjacency) // 2
        return graph

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int] | tuple[int, int, int]],
        num_vertices: int | None = None,
    ) -> "UndirectedGraph":
        """Build a graph from ``(u, v)`` or ``(u, v, weight)`` tuples."""
        graph = cls()
        if num_vertices is not None:
            for vertex_id in range(num_vertices):
                graph.add_vertex(vertex_id)
        for edge in edges:
            if len(edge) == 2:
                u, v = edge  # type: ignore[misc]
                graph.add_edge(u, v)
            else:
                u, v, weight = edge  # type: ignore[misc]
                graph.add_edge(u, v, weight=weight)
        return graph
