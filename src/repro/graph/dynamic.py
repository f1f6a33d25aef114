"""Dynamic graph change streams.

Section V-C of the paper evaluates incremental repartitioning by taking a
snapshot of the Tuenti graph, adding a varying percentage of *new* edges
(actual new friendships) and measuring how cheaply Spinner adapts compared
to repartitioning from scratch.  This module provides the equivalent
machinery: it withholds a fraction of a graph's edges, exposes the
remaining snapshot, and then releases batches of the withheld edges as
change sets.

Beyond the paper's uniform arrivals, the adversarial generators
(:func:`random_new_edges`, :func:`bursty_new_edges`,
:func:`hub_birth_edges`) produce seeded :class:`GraphDelta` batches with
deliberately hostile shapes — structure-ignoring noise, hotspot bursts
and high-degree vertex births — used by the stability sweep and as the
serving benchmark's churn sources.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GraphError
from repro.graph.undirected import UndirectedGraph


@dataclass
class GraphDelta:
    """A batch of changes to apply to a graph.

    Attributes
    ----------
    added_edges:
        Undirected edges ``(u, v, weight)`` to add.
    added_vertices:
        Vertices that appear for the first time in this delta.
    """

    added_edges: list[tuple[int, int, int]] = field(default_factory=list)
    added_vertices: set[int] = field(default_factory=set)

    @property
    def num_new_edges(self) -> int:
        """Number of edges introduced by the delta."""
        return len(self.added_edges)

    def validate(self) -> None:
        """Raise :class:`~repro.errors.GraphError` on a negative vertex id
        or a non-positive edge weight anywhere in the delta."""
        for vertex in self.added_vertices:
            if vertex < 0:
                raise GraphError(f"vertex ids must be non-negative, got {vertex}")
        for u, v, weight in self.added_edges:
            if u < 0 or v < 0:
                raise GraphError(f"vertex ids must be non-negative, got {min(u, v)}")
            if weight <= 0:
                raise GraphError(f"edge weights must be positive, got {weight}")

    def apply(self, graph: UndirectedGraph) -> UndirectedGraph:
        """Apply this delta to ``graph`` in place and return it.

        The whole delta is validated first, so an invalid delta leaves
        ``graph`` unchanged.  Self-loops and edges already present are
        skipped.
        """
        self.validate()
        for vertex in self.added_vertices:
            graph.add_vertex(vertex)
        for u, v, weight in self.added_edges:
            if u != v and not graph.has_edge(u, v):
                graph.add_edge(u, v, weight=weight)
        return graph


class EdgeArrivalStream:
    """Split a graph into a snapshot plus a stream of edge-arrival deltas.

    Parameters
    ----------
    graph:
        The full ("future") undirected graph.
    holdout_fraction:
        Fraction of edges withheld from the snapshot and released later.
    seed:
        Seed for the random selection of withheld edges.

    Examples
    --------
    >>> from repro.graph.generators import erdos_renyi
    >>> full = erdos_renyi(200, 800, seed=7)
    >>> stream = EdgeArrivalStream(full, holdout_fraction=0.2, seed=7)
    >>> snapshot = stream.snapshot()
    >>> delta = stream.delta(fraction_of_snapshot=0.05)
    >>> delta.num_new_edges <= stream.num_withheld_edges
    True
    """

    def __init__(
        self,
        graph: UndirectedGraph,
        holdout_fraction: float = 0.3,
        seed: int | None = None,
    ) -> None:
        if not 0.0 < holdout_fraction < 1.0:
            raise GraphError("holdout_fraction must lie strictly between 0 and 1")
        self._full = graph
        self._rng = np.random.default_rng(seed)
        all_edges = list(graph.edges())
        self._rng.shuffle(all_edges)
        num_withheld = int(round(len(all_edges) * holdout_fraction))
        self._withheld = all_edges[:num_withheld]
        self._snapshot_edges = all_edges[num_withheld:]
        self._cursor = 0

    @property
    def num_withheld_edges(self) -> int:
        """Number of edges that have not yet been released."""
        return len(self._withheld) - self._cursor

    @property
    def num_snapshot_edges(self) -> int:
        """Number of edges in the initial snapshot."""
        return len(self._snapshot_edges)

    def snapshot(self) -> UndirectedGraph:
        """Return a fresh copy of the initial snapshot graph.

        The snapshot contains every vertex of the full graph (so vertex ids
        stay aligned) but only the non-withheld edges.
        """
        snapshot = UndirectedGraph()
        for vertex in self._full.vertices():
            snapshot.add_vertex(vertex)
        for u, v, weight in self._snapshot_edges:
            snapshot.add_edge(u, v, weight=weight)
        return snapshot

    def delta(
        self,
        fraction_of_snapshot: float | None = None,
        num_edges: int | None = None,
    ) -> GraphDelta:
        """Release the next batch of withheld edges.

        Exactly one of ``fraction_of_snapshot`` (relative to the snapshot
        edge count, matching the paper's "% new edges" axis) or
        ``num_edges`` must be provided.
        """
        if (fraction_of_snapshot is None) == (num_edges is None):
            raise GraphError("provide exactly one of fraction_of_snapshot or num_edges")
        if fraction_of_snapshot is not None:
            num_edges = int(round(self.num_snapshot_edges * fraction_of_snapshot))
        assert num_edges is not None
        num_edges = min(num_edges, self.num_withheld_edges)
        batch = self._withheld[self._cursor : self._cursor + num_edges]
        self._cursor += num_edges
        delta = GraphDelta(added_edges=list(batch))
        return delta

    def reset(self) -> None:
        """Rewind the stream so withheld edges can be released again."""
        self._cursor = 0


def random_new_edges(
    graph: UndirectedGraph,
    fraction: float,
    seed: int | None = None,
) -> GraphDelta:
    """Create a delta of brand-new random edges between existing vertices.

    This is an alternative change model to :class:`EdgeArrivalStream` used
    by property tests: edges are sampled uniformly among non-existing pairs,
    so they do not follow the community structure of the graph.
    """
    target = _delta_target(graph, fraction)
    rng = np.random.default_rng(seed)
    vertices = list(graph.vertices())
    delta = GraphDelta()
    if not vertices:
        return delta
    attempts = 0
    while len(delta.added_edges) < target and attempts < target * 50 + 100:
        attempts += 1
        u = vertices[int(rng.integers(len(vertices)))]
        v = vertices[int(rng.integers(len(vertices)))]
        if u == v or graph.has_edge(u, v):
            continue
        delta.added_edges.append((u, v, 1))
    return delta


def _delta_target(graph: UndirectedGraph, fraction: float) -> int:
    """Validate ``fraction`` and return the target new-edge count."""
    if not 0.0 <= fraction <= 1.0:
        raise GraphError("fraction must lie in [0, 1]")
    return int(round(graph.num_edges * fraction))


def bursty_new_edges(
    graph: UndirectedGraph,
    fraction: float,
    seed: int | None = None,
    num_hotspots: int = 8,
) -> GraphDelta:
    """Adversarial burst: new edges concentrated around a few hotspots.

    Models a viral event — a small random set of existing vertices (the
    hotspots) suddenly gains edges to vertices sampled uniformly from the
    whole graph, so the new edges ignore community structure *and* pile
    their load onto few partitions at once.  Same seeded
    :class:`GraphDelta` contract as :func:`random_new_edges`: ``fraction``
    is relative to the current edge count, duplicates of existing edges
    and self-loops are never emitted, and each pair appears at most once
    in the delta.
    """
    target = _delta_target(graph, fraction)
    if num_hotspots < 1:
        raise GraphError(f"num_hotspots must be >= 1, got {num_hotspots}")
    rng = np.random.default_rng(seed)
    vertices = list(graph.vertices())
    delta = GraphDelta()
    if not vertices or target == 0:
        return delta
    chosen = rng.choice(
        len(vertices), size=min(num_hotspots, len(vertices)), replace=False
    )
    hotspots = [vertices[int(index)] for index in chosen]
    seen: set[tuple[int, int]] = set()
    attempts = 0
    while len(delta.added_edges) < target and attempts < target * 50 + 100:
        attempts += 1
        u = hotspots[int(rng.integers(len(hotspots)))]
        v = vertices[int(rng.integers(len(vertices)))]
        if u == v or graph.has_edge(u, v):
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        delta.added_edges.append((u, v, 1))
    return delta


def hub_birth_edges(
    graph: UndirectedGraph,
    fraction: float,
    seed: int | None = None,
    num_hubs: int = 4,
) -> GraphDelta:
    """Adversarial hub births: brand-new high-degree vertices appear.

    Models a celebrity joining the network — ``num_hubs`` vertices that
    did not exist before (ids above the current maximum) arrive together
    with large neighbourhoods sampled uniformly from the existing
    vertices.  This stresses the incremental path's new-vertex placement:
    the hubs carry a large weighted degree the least-loaded rule must
    absorb without violating balance.  Same seeded :class:`GraphDelta`
    contract as :func:`random_new_edges` (``fraction`` of the current
    edge count, no duplicates), with the hubs listed in
    ``added_vertices``.
    """
    target = _delta_target(graph, fraction)
    if num_hubs < 1:
        raise GraphError(f"num_hubs must be >= 1, got {num_hubs}")
    rng = np.random.default_rng(seed)
    vertices = list(graph.vertices())
    delta = GraphDelta()
    if not vertices or target == 0:
        return delta
    next_id = max(vertices) + 1
    hubs = [next_id + offset for offset in range(num_hubs)]
    delta.added_vertices.update(hubs)
    linked: set[tuple[int, int]] = set()
    attempts = 0
    while len(delta.added_edges) < target and attempts < target * 50 + 100:
        attempts += 1
        hub = hubs[len(delta.added_edges) % len(hubs)]
        v = vertices[int(rng.integers(len(vertices)))]
        if (hub, v) in linked:
            continue
        linked.add((hub, v))
        delta.added_edges.append((hub, v, 1))
    return delta
