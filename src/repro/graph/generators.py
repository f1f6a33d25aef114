"""Synthetic graph generators.

The Spinner evaluation uses Watts–Strogatz small-world graphs for the
scalability study (Section V-B) and real social/web graphs elsewhere.
This module implements the generators needed to reproduce the synthetic
workloads and to build scaled-down structural proxies of the real
datasets (see :mod:`repro.graph.datasets`):

* :func:`watts_strogatz` — ring lattice with random rewiring.
* :func:`barabasi_albert` — preferential attachment (power-law degrees,
  hubs — the "Twitter-like" structure).
* :func:`erdos_renyi` — uniform random graph.
* :func:`powerlaw_cluster` — preferential attachment with triad closure
  (power-law degrees plus clustering — the "social-network-like"
  structure).
* :func:`ring_lattice` — the deterministic skeleton used by
  :func:`watts_strogatz`.

All generators take an explicit ``seed`` and are deterministic for a given
seed, which the experiment harness relies on.  Each random process is
written once, against a slim insertion-ordered adjacency builder; the
builder hands its neighbour dicts to an :class:`UndirectedGraph` or
assembles them into a :class:`~repro.graph.csr.CSRGraph`, so both views
of a seed are the same graph by construction.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.undirected import UndirectedGraph


def _rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class _EdgeListBuilder:
    """Insertion-ordered adjacency of unit-weight edges on ``0 .. n-1``.

    Per-vertex neighbour dicts keep insertion order exactly like
    ``UndirectedGraph`` does, with no bookkeeping beyond what the
    generators consult.  :meth:`to_undirected` adopts the dicts as they
    are; :meth:`to_csr` assembles the same edge sequence into CSR arrays
    in one vectorized pass.
    """

    __slots__ = ("num_vertices", "_adj")

    def __init__(self, num_vertices: int) -> None:
        self.num_vertices = num_vertices
        self._adj: list[dict[int, int]] = [{} for _ in range(num_vertices)]

    def has_edge(self, u: int, v: int) -> bool:
        """Return whether the undirected edge ``{u, v}`` exists."""
        return v in self._adj[u]

    def add_edge(self, u: int, v: int) -> bool:
        """Add ``{u, v}``; ``False`` (and no change) if it already exists."""
        adj_u = self._adj[u]
        if v in adj_u:
            return False
        adj_u[v] = 1
        self._adj[v][u] = 1
        return True

    def remove_edge(self, u: int, v: int) -> None:
        """Remove the edge ``{u, v}`` (must exist)."""
        del self._adj[u][v]
        del self._adj[v][u]

    def degree(self, v: int) -> int:
        """Number of incident edges of ``v``."""
        return len(self._adj[v])

    def neighbors(self, v: int) -> dict[int, int]:
        """Insertion-ordered ``{neighbour: weight}`` mapping of ``v``."""
        return self._adj[v]

    def edges(self) -> list[tuple[int, int]]:
        """Edges as ``(u, v)`` with ``u < v`` in ``UndirectedGraph.edges`` order."""
        return [
            (u, v) for u, neighbours in enumerate(self._adj) for v in neighbours if u < v
        ]

    def to_undirected(self) -> UndirectedGraph:
        """Hand the neighbour dicts to an :class:`UndirectedGraph` as they are.

        The builder must not be used afterwards: the graph owns the dicts.
        """
        return UndirectedGraph.adopt_adjacency(self._adj)

    def to_csr(self) -> CSRGraph:
        """Assemble the edges into a :class:`CSRGraph`.

        The arrays are bit-identical to ``CSRGraph.from_undirected`` of
        :meth:`to_undirected`, because both feed the same edge sequence
        through the same stable sort.
        """
        return CSRGraph.from_edge_list(self.edges(), self.num_vertices)


def _ring_lattice_builder(num_vertices: int, degree: int) -> _EdgeListBuilder:
    if degree % 2 != 0:
        raise GraphError("ring lattice degree must be even")
    if num_vertices <= degree:
        raise GraphError("num_vertices must exceed degree")
    builder = _EdgeListBuilder(num_vertices)
    half = degree // 2
    for v in range(num_vertices):
        for offset in range(1, half + 1):
            builder.add_edge(v, (v + offset) % num_vertices)
    return builder


def ring_lattice(num_vertices: int, degree: int) -> UndirectedGraph:
    """Return a ring lattice where each vertex connects to ``degree`` nearest
    neighbours (``degree // 2`` on each side).

    Parameters
    ----------
    num_vertices:
        Number of vertices; must be larger than ``degree``.
    degree:
        Even number of neighbours per vertex.
    """
    return _ring_lattice_builder(num_vertices, degree).to_undirected()


def _watts_strogatz_builder(
    num_vertices: int,
    degree: int,
    beta: float,
    seed: int | np.random.Generator | None = None,
) -> _EdgeListBuilder:
    if not 0.0 <= beta <= 1.0:
        raise GraphError("beta must lie in [0, 1]")
    rng = _rng(seed)
    builder = _ring_lattice_builder(num_vertices, degree)
    half = degree // 2
    for v in range(num_vertices):
        for offset in range(1, half + 1):
            if rng.random() >= beta:
                continue
            old_target = (v + offset) % num_vertices
            if not builder.has_edge(v, old_target):
                continue
            # Draw a new endpoint that is neither v nor an existing neighbour.
            for _ in range(16):
                candidate = int(rng.integers(num_vertices))
                if candidate != v and not builder.has_edge(v, candidate):
                    builder.remove_edge(v, old_target)
                    builder.add_edge(v, candidate)
                    break
    return builder


def watts_strogatz(
    num_vertices: int,
    degree: int,
    beta: float,
    seed: int | np.random.Generator | None = None,
) -> UndirectedGraph:
    """Watts–Strogatz small-world graph.

    Starts from :func:`ring_lattice` and rewires each edge's far endpoint
    with probability ``beta``, matching the construction used for the
    scalability experiments of the paper (degree 40, ``beta = 0.3``).
    """
    return _watts_strogatz_builder(num_vertices, degree, beta, seed).to_undirected()


def _erdos_renyi_builder(
    num_vertices: int,
    num_edges: int,
    seed: int | np.random.Generator | None = None,
) -> _EdgeListBuilder:
    rng = _rng(seed)
    builder = _EdgeListBuilder(num_vertices)
    added = 0
    attempts = 0
    max_attempts = num_edges * 20 + 100
    while added < num_edges and attempts < max_attempts:
        attempts += 1
        u = int(rng.integers(num_vertices))
        v = int(rng.integers(num_vertices))
        if u == v:
            continue
        if builder.add_edge(u, v):
            added += 1
    return builder


def erdos_renyi(
    num_vertices: int,
    num_edges: int,
    seed: int | np.random.Generator | None = None,
) -> UndirectedGraph:
    """Uniform random graph with (approximately) ``num_edges`` distinct edges."""
    return _erdos_renyi_builder(num_vertices, num_edges, seed).to_undirected()


def _barabasi_albert_edges(
    num_vertices: int,
    edges_per_vertex: int,
    seed: int | np.random.Generator | None = None,
) -> list[tuple[int, int]]:
    """Preferential-attachment edges ``(new vertex, target)`` in draw order."""
    if num_vertices <= edges_per_vertex:
        raise GraphError("num_vertices must exceed edges_per_vertex")
    rng = _rng(seed)
    # Repeated-nodes list implements preferential attachment in O(1) per draw.
    repeated: list[int] = list(range(edges_per_vertex))
    edges: list[tuple[int, int]] = []
    for v in range(edges_per_vertex, num_vertices):
        targets: set[int] = set()
        while len(targets) < edges_per_vertex:
            if repeated and rng.random() < 0.9:
                candidate = repeated[int(rng.integers(len(repeated)))]
            else:
                candidate = int(rng.integers(v))
            if candidate != v:
                targets.add(candidate)
        for target in targets:
            edges.append((v, target))
            repeated.append(v)
            repeated.append(target)
    return edges


def _barabasi_albert_builder(
    num_vertices: int,
    edges_per_vertex: int,
    seed: int | np.random.Generator | None = None,
) -> _EdgeListBuilder:
    builder = _EdgeListBuilder(num_vertices)
    for u, v in _barabasi_albert_edges(num_vertices, edges_per_vertex, seed):
        builder.add_edge(u, v)
    return builder


def barabasi_albert(
    num_vertices: int,
    edges_per_vertex: int,
    seed: int | np.random.Generator | None = None,
    directed: bool = False,
) -> UndirectedGraph | DiGraph:
    """Barabási–Albert preferential attachment graph.

    Each new vertex attaches to ``edges_per_vertex`` existing vertices with
    probability proportional to their degree, producing a power-law degree
    distribution with pronounced hubs (the structure the paper highlights
    for the Twitter graph).

    When ``directed`` is ``True`` the attachment edges point from the new
    vertex to the chosen targets, which mimics "follower" style graphs.
    """
    if directed:
        edges = _barabasi_albert_edges(num_vertices, edges_per_vertex, seed)
        return DiGraph.from_edges(edges, num_vertices=num_vertices)
    return _barabasi_albert_builder(num_vertices, edges_per_vertex, seed).to_undirected()


def _powerlaw_cluster_builder(
    num_vertices: int,
    edges_per_vertex: int,
    triangle_probability: float,
    seed: int | np.random.Generator | None = None,
) -> _EdgeListBuilder:
    if not 0.0 <= triangle_probability <= 1.0:
        raise GraphError("triangle_probability must lie in [0, 1]")
    rng = _rng(seed)
    builder = _EdgeListBuilder(num_vertices)
    repeated: list[int] = list(range(edges_per_vertex))
    for v in range(edges_per_vertex, num_vertices):
        previous_target: int | None = None
        added = 0
        guard = 0
        while added < edges_per_vertex and guard < edges_per_vertex * 20:
            guard += 1
            close_triangle = (
                previous_target is not None
                and rng.random() < triangle_probability
                and builder.degree(previous_target) > 0
            )
            if close_triangle:
                neighbours = list(builder.neighbors(previous_target))
                candidate = neighbours[int(rng.integers(len(neighbours)))]
            elif repeated:
                candidate = repeated[int(rng.integers(len(repeated)))]
            else:
                candidate = int(rng.integers(v))
            if candidate == v or builder.has_edge(v, candidate):
                continue
            builder.add_edge(v, candidate)
            repeated.append(v)
            repeated.append(candidate)
            previous_target = candidate
            added += 1
    return builder


def powerlaw_cluster(
    num_vertices: int,
    edges_per_vertex: int,
    triangle_probability: float,
    seed: int | np.random.Generator | None = None,
) -> UndirectedGraph:
    """Holme–Kim power-law graph with tunable clustering.

    Like :func:`barabasi_albert` but, after each preferential attachment
    step, a triad-closure step adds an edge to a random neighbour of the
    previous target with probability ``triangle_probability``.  The result
    has both a heavy-tailed degree distribution and the high clustering
    typical of social graphs, which is what makes the social-network
    proxies partitionable with good locality.
    """
    return _powerlaw_cluster_builder(
        num_vertices, edges_per_vertex, triangle_probability, seed
    ).to_undirected()


#: Orientation codes drawn by :func:`_orientations`.
_RECIPROCAL, _FORWARD, _BACKWARD = 0, 1, 2


def _orientations(
    num_edges: int,
    reciprocity: float,
    seed: int | np.random.Generator | None = None,
) -> bytearray:
    """Draw one orientation code per edge, in edge order.

    An edge is a reciprocal pair with probability ``reciprocity`` (one
    random draw); otherwise a second draw picks its direction.
    """
    if not 0.0 <= reciprocity <= 1.0:
        raise GraphError("reciprocity must lie in [0, 1]")
    random = _rng(seed).random
    codes = bytearray(num_edges)
    for index in range(num_edges):
        if random() < reciprocity:
            codes[index] = _RECIPROCAL
        elif random() < 0.5:
            codes[index] = _FORWARD
        else:
            codes[index] = _BACKWARD
    return codes


def _weighted_reciprocal_csr(
    builder: _EdgeListBuilder,
    reciprocity: float,
    seed: int | np.random.Generator | None = None,
) -> CSRGraph:
    """Weighted undirected CSR of a skeleton oriented with reciprocity.

    The same draws as :func:`to_directed_reciprocal`, weighted by eq. (3):
    a reciprocal pair gets weight 2, a single directed edge weight 1.
    """
    edges = builder.edges()
    codes = _orientations(len(edges), reciprocity, seed)
    weights = np.where(np.frombuffer(codes, dtype=np.uint8) == _RECIPROCAL, 2, 1)
    return CSRGraph.from_edge_list(edges, builder.num_vertices, weights=weights)


def to_directed_reciprocal(
    graph: UndirectedGraph,
    reciprocity: float,
    seed: int | np.random.Generator | None = None,
) -> DiGraph:
    """Orient an undirected graph, making a fraction of edges reciprocal.

    Each undirected edge becomes either a single directed edge (random
    direction) or a reciprocal pair with probability ``reciprocity``.  This
    is how the directed dataset proxies (Twitter, Google+, LiveJournal,
    Yahoo!) are produced from the structural generators.
    """
    codes = _orientations(graph.num_edges, reciprocity, seed)
    digraph = DiGraph()
    for v in graph.vertices():
        digraph.add_vertex(v)
    for (u, v, _weight), code in zip(graph.edges(), codes):
        if code != _BACKWARD:
            digraph.add_edge(u, v)
        if code != _FORWARD:
            digraph.add_edge(v, u)
    return digraph
