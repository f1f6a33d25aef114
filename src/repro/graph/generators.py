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

The processes draw their scalars from ``_Draws``, which reproduces
numpy's ``Generator.random()`` and ``Generator.integers(n)`` bit for bit
from raw PCG64 output blocks (O'Neill, 2014): a double is the top 53 bits
of one 64-bit word, a bounded integer is Lemire's nearly-divisionless
multiply-and-reject over 32-bit halves (Lemire, ACM TOMACS 2019), the
unused half buffered exactly as PCG64 buffers it.  So every graph is the
one numpy's scalar calls would build, at a fraction of the per-call cost;
``tests/test_draws.py`` pins the stream to numpy's, and the scalar-call
builders live on as oracles in ``tests/oracles/generators.py``.
"""

from __future__ import annotations

from itertools import chain
from operator import length_hint

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.undirected import UndirectedGraph


def _rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class _Draws:
    """Scalar draws equal to a PCG64 ``Generator``'s, from raw blocks.

    ``random()`` returns what ``Generator.random()`` would and
    ``integers(n)`` what ``int(Generator.integers(n))`` would, for
    ``1 <= n <= 2**32``, without a numpy call per draw.  An ``int`` or
    ``None`` seed starts a fresh ``PCG64(seed)`` (what ``default_rng``
    builds); a caller's ``Generator`` must be PCG64-backed.  Use it as a
    context manager: on exit the caller's generator is left exactly where
    the scalar calls would have left it.
    """

    _BLOCK = 4096

    def __init__(self, seed: int | np.random.Generator | None) -> None:
        if isinstance(seed, np.random.Generator):
            self._caller = seed.bit_generator
            if not isinstance(self._caller, np.random.PCG64):
                raise TypeError(
                    f"draws need a PCG64 generator, got {type(self._caller).__name__}"
                )
            self._bit_generator = self._caller
        else:
            self._caller = None
            self._bit_generator = np.random.PCG64(seed)
        self._entry = self._bit_generator.state
        # PCG64 serves 32-bit draws from halves of a 64-bit word and keeps
        # the unused high half for the next one; doubles bypass it.  Once
        # used, the half stays in the state, only flagged as spent.
        self._has_half = self._entry["has_uint32"]
        self._half = self._entry["uinteger"]
        self._words = iter(())
        self._pulled = 0

    def _refill(self) -> int:
        self._words = iter(self._bit_generator.random_raw(self._BLOCK).tolist())
        self._pulled += self._BLOCK
        return next(self._words)

    def random(self) -> float:
        """A uniform double in ``[0, 1)``, as ``Generator.random()``."""
        word = next(self._words, None)
        if word is None:
            word = self._refill()
        return (word >> 11) * 2.0**-53

    def integers(self, n: int) -> int:
        """A uniform integer in ``[0, n)``, as ``Generator.integers(n)``."""
        if not 1 < n <= 2**32:
            if n == 1:
                return 0  # numpy consumes no draw for a single value
            raise GraphError(f"draw bound must lie in [1, 2**32], got {n}")
        while True:
            if self._has_half:
                self._has_half = 0
                low = self._half
            else:
                word = next(self._words, None)
                if word is None:
                    word = self._refill()
                low, self._half, self._has_half = word & 0xFFFFFFFF, word >> 32, 1
            scaled = low * n
            leftover = scaled & 0xFFFFFFFF
            # Reject the biased sliver below numpy's threshold (2**32 - n) % n.
            if leftover >= n or leftover >= (2**32 - n) % n:
                return scaled >> 32

    def __enter__(self) -> "_Draws":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._caller is None:
            return
        # Rewind the unused tail of the last block, then restore the half.
        self._caller.state = self._entry
        self._caller.advance(self._pulled - length_hint(self._words))
        state = self._caller.state
        state["has_uint32"], state["uinteger"] = self._has_half, self._half
        self._caller.state = state


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

    def edge_array(self) -> np.ndarray:
        """Edges as an ``(m, 2)`` array of ``u < v`` rows.

        Rows follow ``UndirectedGraph.edges`` order: ascending ``u``, then
        ``u``'s neighbours in insertion order.
        """
        degrees = np.fromiter(map(len, self._adj), dtype=np.int64, count=self.num_vertices)
        targets = np.fromiter(
            chain.from_iterable(self._adj), dtype=np.int64, count=int(degrees.sum())
        )
        sources = np.repeat(np.arange(self.num_vertices, dtype=np.int64), degrees)
        forward = sources < targets
        return np.stack([sources[forward], targets[forward]], axis=1)

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
        return CSRGraph.from_edge_list(self.edge_array(), self.num_vertices)


class _NeighbourListBuilder(_EdgeListBuilder):
    """A finished append-only process's adjacency as neighbour lists.

    Lists are cheaper to build than dicts and :meth:`edge_array` reads
    them alike; :meth:`to_undirected` makes the dicts an
    :class:`UndirectedGraph` needs.  Its edges are never changed.
    """

    __slots__ = ()

    def __init__(self, neighbour_lists: list[list[int]]) -> None:
        self.num_vertices = len(neighbour_lists)
        self._adj = neighbour_lists

    def to_undirected(self) -> UndirectedGraph:
        """An :class:`UndirectedGraph` over unit-weight copies of the lists."""
        return UndirectedGraph.adopt_adjacency(
            [dict.fromkeys(neighbours, 1) for neighbours in self._adj]
        )


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
    builder = _ring_lattice_builder(num_vertices, degree)
    half = degree // 2
    with _Draws(seed) as draws:
        for v in range(num_vertices):
            for offset in range(1, half + 1):
                if draws.random() >= beta:
                    continue
                old_target = (v + offset) % num_vertices
                if not builder.has_edge(v, old_target):
                    continue
                # Draw a new endpoint that is neither v nor an existing neighbour.
                for _ in range(16):
                    candidate = draws.integers(num_vertices)
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
    builder = _EdgeListBuilder(num_vertices)
    added = 0
    attempts = 0
    max_attempts = num_edges * 20 + 100
    with _Draws(seed) as draws:
        while added < num_edges and attempts < max_attempts:
            attempts += 1
            u = draws.integers(num_vertices)
            v = draws.integers(num_vertices)
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
    # Repeated-nodes list implements preferential attachment in O(1) per draw;
    # it is never empty while a vertex still needs targets.
    repeated: list[int] = list(range(edges_per_vertex))
    edges: list[tuple[int, int]] = []
    with _Draws(seed) as draws:
        for v in range(edges_per_vertex, num_vertices):
            targets: set[int] = set()
            while len(targets) < edges_per_vertex:
                if draws.random() < 0.9:
                    candidate = repeated[draws.integers(len(repeated))]
                else:
                    candidate = draws.integers(v)
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
    # No edge is ever removed, so append-only neighbour lists hold the
    # adjacency in insertion order and pick a triad-closure neighbour in
    # O(1).  Only v's own edges exist when v draws, so its list is short.
    neighbour_lists: list[list[int]] = [[] for _ in range(num_vertices)]
    # Never empty while a vertex still needs edges.
    repeated: list[int] = list(range(edges_per_vertex))
    with _Draws(seed) as draws:
        random, integers = draws.random, draws.integers
        for v in range(edges_per_vertex, num_vertices):
            neighbours_v = neighbour_lists[v]
            previous: list[int] | None = None  # neighbours of the last target
            added = 0
            guard = 0
            while added < edges_per_vertex and guard < edges_per_vertex * 20:
                guard += 1
                if previous is not None and random() < triangle_probability:
                    candidate = previous[integers(len(previous))]
                else:
                    candidate = repeated[integers(len(repeated))]
                if candidate == v or candidate in neighbours_v:
                    continue
                neighbours_v.append(candidate)
                previous = neighbour_lists[candidate]
                previous.append(v)
                repeated += (v, candidate)
                added += 1
    return _NeighbourListBuilder(neighbour_lists)


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
) -> np.ndarray:
    """Draw one orientation code per edge, in edge order, as ``uint8``.

    An edge is a reciprocal pair with probability ``reciprocity`` (one
    random draw); otherwise a second draw picks its direction.  The draws
    come in blocks of one per edge still open, which never exceeds what
    the edges consume, so a caller's generator advances exactly as under
    one scalar ``random()`` per draw.
    """
    if not 0.0 <= reciprocity <= 1.0:
        raise GraphError("reciprocity must lie in [0, 1]")
    rng = _rng(seed)
    codes = np.empty(num_edges, dtype=np.uint8)
    done = 0
    pending = False  # codes[done] still awaits its direction draw
    while done < num_edges:
        draws = rng.random(num_edges - done)
        if pending:
            codes[done] = _FORWARD if draws[0] < 0.5 else _BACKWARD
            done += 1
            draws = draws[1:]
        # The draw after a reciprocal one always starts an edge, whether
        # that draw started an edge or picked a direction.  From such an
        # anchor, starts alternate until the next reciprocal draw.
        low = draws < reciprocity
        position = np.arange(draws.shape[0])
        anchor = np.zeros(draws.shape[0], dtype=np.int64)
        anchor[1:] = np.where(low[:-1], position[1:], 0)
        starts = position[(position - np.maximum.accumulate(anchor)) % 2 == 0]
        direction = np.append(draws, 1.0)[starts + 1] < 0.5
        block = np.where(low[starts], _RECIPROCAL, np.where(direction, _FORWARD, _BACKWARD))
        codes[done : done + starts.shape[0]] = block
        done += starts.shape[0]
        # A direction draw past the block's end carries into the next one.
        last = draws.shape[0] - 1
        pending = bool(starts.shape[0] and starts[-1] == last and not low[last])
        done -= pending
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
    edges = builder.edge_array()
    weights = np.where(_orientations(edges.shape[0], reciprocity, seed) == _RECIPROCAL, 2, 1)
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
    for (u, v, _weight), code in zip(graph.edges(), codes.tolist()):
        if code != _BACKWARD:
            digraph.add_edge(u, v)
        if code != _FORWARD:
            digraph.add_edge(v, u)
    return digraph
