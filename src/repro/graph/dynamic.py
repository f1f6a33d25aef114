"""Dynamic graph change streams.

Section V-C of the paper evaluates incremental repartitioning by taking a
snapshot of the Tuenti graph, adding a varying percentage of *new* edges
(actual new friendships) and measuring how cheaply Spinner adapts compared
to repartitioning from scratch.  This module provides the equivalent
machinery over CSR arrays: it withholds a fraction of a graph's edges,
exposes the remaining snapshot, and then releases batches of the withheld
edges as change sets (applied with :class:`~repro.graph.delta_csr.DeltaCSR`).

Beyond the paper's uniform arrivals, the adversarial generators
(:func:`random_new_edges`, :func:`bursty_new_edges`,
:func:`hub_birth_edges`) produce seeded :class:`GraphDelta` batches with
deliberately hostile shapes — structure-ignoring noise, hotspot bursts
and high-degree vertex births — used by the stability sweep and as the
serving benchmark's churn sources.  They draw dense indices with
:class:`~repro.graph.generators._Draws`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph, build_csr_arrays
from repro.graph.generators import _Draws


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


def _forward_edges(graph: CSRGraph) -> np.ndarray:
    """The ``(m, 3)`` dense ``(u, v, weight)`` rows of ``graph`` with ``u < v``."""
    sources, targets, weights = graph.edge_array()
    forward = sources < targets
    return np.stack([sources[forward], targets[forward], weights[forward]], axis=1)


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
    >>> from repro.graph.generators import _erdos_renyi_builder
    >>> full = _erdos_renyi_builder(200, 800, seed=7).to_csr()
    >>> stream = EdgeArrivalStream(full, holdout_fraction=0.2, seed=7)
    >>> snapshot = stream.snapshot()
    >>> delta = stream.delta(fraction_of_snapshot=0.05)
    >>> delta.num_new_edges <= stream.num_withheld_edges
    True
    """

    def __init__(
        self,
        graph: CSRGraph,
        holdout_fraction: float = 0.3,
        seed: int | None = None,
    ) -> None:
        if not 0.0 < holdout_fraction < 1.0:
            raise GraphError("holdout_fraction must lie strictly between 0 and 1")
        self._ids = graph.original_ids
        edges = _forward_edges(graph)
        edges = edges[np.random.default_rng(seed).permutation(edges.shape[0])]
        num_withheld = int(round(edges.shape[0] * holdout_fraction))
        self._withheld = edges[:num_withheld]
        self._snapshot_edges = edges[num_withheld:]
        self._cursor = 0

    @property
    def num_withheld_edges(self) -> int:
        """Number of edges that have not yet been released."""
        return self._withheld.shape[0] - self._cursor

    @property
    def num_snapshot_edges(self) -> int:
        """Number of edges in the initial snapshot."""
        return self._snapshot_edges.shape[0]

    def snapshot(self) -> CSRGraph:
        """Return the initial snapshot graph.

        The snapshot contains every vertex of the full graph (so vertex ids
        stay aligned) but only the non-withheld edges.
        """
        u, v, w = self._snapshot_edges.T
        indptr, indices, weights = build_csr_arrays(
            np.concatenate([u, v]), np.concatenate([v, u]), np.concatenate([w, w]),
            self._ids.shape[0],
        )
        return CSRGraph(indptr, indices, weights, self._ids)

    def delta(
        self,
        fraction_of_snapshot: float | None = None,
        num_edges: int | None = None,
    ) -> GraphDelta:
        """Release the next batch of withheld edges.

        Exactly one of ``fraction_of_snapshot`` (relative to the snapshot
        edge count, matching the paper's "% new edges" axis) or
        ``num_edges`` must be provided, and it must not be negative; a bad
        request raises :class:`~repro.errors.GraphError` and releases
        nothing.
        """
        if (fraction_of_snapshot is None) == (num_edges is None):
            raise GraphError("provide exactly one of fraction_of_snapshot or num_edges")
        if fraction_of_snapshot is not None:
            if not fraction_of_snapshot >= 0.0:
                raise GraphError(
                    f"fraction_of_snapshot must be >= 0, got {fraction_of_snapshot}"
                )
            num_edges = int(round(self.num_snapshot_edges * fraction_of_snapshot))
        assert num_edges is not None
        if num_edges < 0:
            raise GraphError(f"num_edges must be >= 0, got {num_edges}")
        num_edges = min(num_edges, self.num_withheld_edges)
        batch = self._withheld[self._cursor : self._cursor + num_edges]
        self._cursor += num_edges
        ids = self._ids
        return GraphDelta(
            added_edges=list(
                zip(ids[batch[:, 0]].tolist(), ids[batch[:, 1]].tolist(), batch[:, 2].tolist())
            )
        )

    def reset(self) -> None:
        """Rewind the stream so withheld edges can be released again."""
        self._cursor = 0


def _delta_target(graph: CSRGraph, fraction: float) -> int:
    """Validate ``fraction`` and return the target new-edge count."""
    if not 0.0 <= fraction <= 1.0:
        raise GraphError("fraction must lie in [0, 1]")
    return int(round(graph.num_edges * fraction))


def _edge_keys(graph: CSRGraph) -> set[int]:
    """``u * n + v`` for every edge of ``graph`` (dense ids, ``u < v``)."""
    from repro.graph.delta_csr import forward_edge_keys  # it imports GraphDelta

    return set(forward_edge_keys(graph).tolist())


def random_new_edges(
    graph: CSRGraph,
    fraction: float,
    seed: int | None = None,
) -> GraphDelta:
    """Create a delta of brand-new random edges between existing vertices.

    This is an alternative change model to :class:`EdgeArrivalStream` used
    by property tests: edges are sampled uniformly among non-existing pairs,
    so they do not follow the community structure of the graph.
    """
    target = _delta_target(graph, fraction)
    delta = GraphDelta()
    n = graph.num_vertices
    if n == 0:
        return delta
    ids = graph.original_ids.tolist()
    keys = _edge_keys(graph)
    attempts = 0
    with _Draws(seed) as draws:
        while len(delta.added_edges) < target and attempts < target * 50 + 100:
            attempts += 1
            u = draws.integers(n)
            v = draws.integers(n)
            if u == v or min(u, v) * n + max(u, v) in keys:
                continue
            delta.added_edges.append((ids[u], ids[v], 1))
    return delta


def bursty_new_edges(
    graph: CSRGraph,
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
    delta = GraphDelta()
    n = graph.num_vertices
    if n == 0 or target == 0:
        return delta
    rng = np.random.default_rng(seed)
    hotspots = rng.choice(n, size=min(num_hotspots, n), replace=False).tolist()
    ids = graph.original_ids.tolist()
    keys = _edge_keys(graph)
    attempts = 0
    with _Draws(rng) as draws:
        while len(delta.added_edges) < target and attempts < target * 50 + 100:
            attempts += 1
            u = hotspots[draws.integers(len(hotspots))]
            v = draws.integers(n)
            key = min(u, v) * n + max(u, v)
            if u == v or key in keys:
                continue
            keys.add(key)
            delta.added_edges.append((ids[u], ids[v], 1))
    return delta


def hub_birth_edges(
    graph: CSRGraph,
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
    delta = GraphDelta()
    n = graph.num_vertices
    if n == 0 or target == 0:
        return delta
    ids = graph.original_ids.tolist()
    next_id = max(ids) + 1
    hubs = [next_id + offset for offset in range(num_hubs)]
    delta.added_vertices.update(hubs)
    linked: set[tuple[int, int]] = set()
    attempts = 0
    with _Draws(seed) as draws:
        while len(delta.added_edges) < target and attempts < target * 50 + 100:
            attempts += 1
            hub = hubs[len(delta.added_edges) % len(hubs)]
            v = ids[draws.integers(n)]
            if (hub, v) in linked:
                continue
            linked.add((hub, v))
            delta.added_edges.append((hub, v, 1))
    return delta
