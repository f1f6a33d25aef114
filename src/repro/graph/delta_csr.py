"""Live graph for serving: an immutable CSR base plus an append-only delta.

This is the base+delta multiversion layout of LLAMA (Macko et al.,
ICDE 2015), applied to the serving layer's churn path.  A
:class:`DeltaCSR` holds

* an immutable base :class:`~repro.graph.csr.CSRGraph` together with the
  sorted keys ``u * n + v`` of its forward edges (dense ids, ``u < v``),
  which answer "is this edge already in the base?" with one
  ``searchsorted`` probe per batch, and
* an append-only delta: one ``(edges, new_vertex_ids)`` chunk per
  accepted :class:`~repro.graph.dynamic.GraphDelta`, in original ids.

:meth:`DeltaCSR.freeze` captures the base reference and the current
chunks in O(chunks) without copying any array, so a consistent version
can be read off the event loop while ingestion keeps appending.
:meth:`FrozenGraph.merge` builds the next base from that version with
one id union, one remap and one stable argsort
(:func:`~repro.graph.csr.build_csr_arrays`); :meth:`DeltaCSR.advance`
installs it and keeps only the chunks that arrived after the freeze.

The merged arrays equal ``CSRGraph.from_undirected`` of a dictionary
graph fed the same deltas: ``indptr`` and ``original_ids`` exactly, each
row as the same ``(neighbour, weight)`` multiset (base neighbours first,
then delta neighbours in arrival order).  Row order cannot change a
Spinner run, whose histogram cells are exact integer sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph, build_csr_arrays
from repro.graph.dynamic import GraphDelta


def forward_edge_keys(csr: CSRGraph) -> np.ndarray:
    """Sorted ``u * n + v`` keys of the edges of ``csr`` with dense ``u < v``."""
    sources, targets, _ = csr.edge_array()
    forward = sources < targets
    keys = sources[forward] * np.int64(csr.num_vertices) + targets[forward]
    keys.sort()
    return keys


def _lookup(sorted_ids: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``query`` in ``sorted_ids`` and the mask of ids present."""
    if sorted_ids.shape[0] == 0:
        return np.zeros(query.shape[0], dtype=np.int64), np.zeros(query.shape[0], dtype=bool)
    position = np.minimum(np.searchsorted(sorted_ids, query), sorted_ids.shape[0] - 1)
    return position, sorted_ids[position] == query


@dataclass(frozen=True)
class FrozenGraph:
    """One immutable version of a :class:`DeltaCSR` (base plus a chunk prefix).

    Safe to read and :meth:`merge` from any thread: it references only
    arrays that are never written after they were appended.
    """

    base: CSRGraph
    base_keys: np.ndarray
    chunks: tuple[tuple[np.ndarray, np.ndarray], ...]

    def merge(self) -> "DeltaCSR":
        """Fold the delta into a new base; returns a :class:`DeltaCSR` with no delta."""
        base = self.base
        if not self.chunks:
            return DeltaCSR(base, base_keys=self.base_keys)
        edges = np.concatenate([chunk_edges for chunk_edges, _ in self.chunks])
        fresh = np.concatenate([vertices for _, vertices in self.chunks])
        # The delta's new ids are disjoint from the base's, so the union
        # only interleaves them; the remap is monotone and keeps both the
        # base rows and the base keys in sorted order.
        ids = np.union1d(base.original_ids, fresh)
        remap = np.searchsorted(ids, base.original_ids)
        sources, targets, weights = base.edge_array()
        old_n = np.int64(base.num_vertices)
        n = np.int64(ids.shape[0])
        old_keys = remap[self.base_keys // old_n] * n + remap[self.base_keys % old_n]
        u = np.searchsorted(ids, edges[:, 0])
        v = np.searchsorted(ids, edges[:, 1])
        w = edges[:, 2]
        indptr, indices, merged_weights = build_csr_arrays(
            np.concatenate([remap[sources], u, v]),
            np.concatenate([remap[targets], v, u]),
            np.concatenate([weights, w, w]),
            int(n),
        )
        new_keys = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
        keys = np.insert(old_keys, np.searchsorted(old_keys, new_keys), new_keys)
        return DeltaCSR(
            CSRGraph(indptr, indices, merged_weights, ids), base_keys=keys
        )


class DeltaCSR:
    """Mutable live graph: immutable CSR base plus append-only delta chunks.

    Owned by one thread (the event loop under the service): only
    :meth:`append` and :meth:`advance` mutate it.  Edges are undirected
    and stored once; self-loops, edges already present and repeats
    within a delta are dropped.  ``DeltaCSR(csr)``, :meth:`append` and
    :meth:`to_csr` also apply a delta to a plain CSR graph.
    """

    def __init__(self, base: CSRGraph, *, base_keys: np.ndarray | None = None) -> None:
        self.base = base
        self._keys = forward_edge_keys(base) if base_keys is None else base_keys
        self._chunks: list[tuple[np.ndarray, np.ndarray]] = []
        self._reset_delta_index()

    def _reset_delta_index(self) -> None:
        """Rebuild the delta-side lookup state from the current chunks."""
        self._pairs: set[tuple[int, int]] = set()
        self._fresh: set[int] = set()
        self._delta_count = 0
        self._delta_weight = 0
        for edges, vertices in self._chunks:
            lo = np.minimum(edges[:, 0], edges[:, 1]).tolist()
            hi = np.maximum(edges[:, 0], edges[:, 1]).tolist()
            self._pairs.update(zip(lo, hi))
            self._fresh.update(vertices.tolist())
            self._delta_count += edges.shape[0]
            self._delta_weight += int(edges[:, 2].sum())

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Vertices of the live graph (base plus delta)."""
        return self.base.num_vertices + len(self._fresh)

    @property
    def num_edges(self) -> int:
        """Undirected edges of the live graph (base plus delta)."""
        return self.base.num_edges + self._delta_count

    @property
    def total_weight(self) -> int:
        """Sum of edge weights of the live graph, each edge counted once."""
        return self.base.total_weight + self._delta_weight

    @property
    def pending_edges(self) -> int:
        """Delta edges not yet folded into the base."""
        return self._delta_count

    def delta_edges(self) -> np.ndarray:
        """The delta's edges as an ``(m, 3)`` ``(u, v, weight)`` array, in arrival order."""
        if not self._chunks:
            return np.empty((0, 3), dtype=np.int64)
        return np.concatenate([edges for edges, _ in self._chunks])

    # ------------------------------------------------------------------
    def append(self, delta: GraphDelta) -> tuple[np.ndarray, int]:
        """Append one delta; return ``(added_edges, new_listed_vertices)``.

        ``added_edges`` is the ``(m, 3)`` array of edges actually added
        (self-loops, edges already in the graph and repeats within the
        delta are dropped; the first occurrence wins).
        ``new_listed_vertices`` counts the ids of ``delta.added_vertices``
        that were not in the graph yet.  The whole delta is validated
        (:meth:`~repro.graph.dynamic.GraphDelta.validate`) before anything
        changes, so a bad delta raises and leaves the graph as it was.
        """
        delta.validate()
        edges = np.asarray(delta.added_edges, dtype=np.int64).reshape(-1, 3)
        listed = np.asarray(sorted(delta.added_vertices), dtype=np.int64)
        base_ids = self.base.original_ids
        n = np.int64(base_ids.shape[0])

        keep = edges[:, 0] != edges[:, 1]
        pos_u, in_u = _lookup(base_ids, edges[:, 0])
        pos_v, in_v = _lookup(base_ids, edges[:, 1])
        both = np.flatnonzero(keep & in_u & in_v)
        if both.size and self._keys.size:
            key = (
                np.minimum(pos_u[both], pos_v[both]) * n
                + np.maximum(pos_u[both], pos_v[both])
            )
            _, present = _lookup(self._keys, key)
            keep[both[present]] = False

        candidates = np.flatnonzero(keep)
        lo = np.minimum(edges[candidates, 0], edges[candidates, 1]).tolist()
        hi = np.maximum(edges[candidates, 0], edges[candidates, 1]).tolist()
        seen: set[tuple[int, int]] = set()
        accepted: list[int] = []
        for index, pair in zip(candidates.tolist(), zip(lo, hi)):
            if pair in self._pairs or pair in seen:
                continue
            seen.add(pair)
            accepted.append(index)
        added = edges[accepted]

        _, listed_in_base = _lookup(base_ids, listed)
        new_listed = [
            vertex
            for vertex in listed[~listed_in_base].tolist()
            if vertex not in self._fresh
        ]
        endpoints = np.concatenate([added[:, 0], added[:, 1]])
        _, endpoint_in_base = _lookup(base_ids, endpoints)
        fresh = set(new_listed)
        fresh.update(
            vertex
            for vertex in endpoints[~endpoint_in_base].tolist()
            if vertex not in self._fresh
        )

        if added.shape[0] or fresh:
            vertices = np.asarray(sorted(fresh), dtype=np.int64)
            self._chunks.append((added, vertices))
            self._pairs.update(seen)
            self._fresh.update(fresh)
            self._delta_count += added.shape[0]
            self._delta_weight += int(added[:, 2].sum())
        return added, len(new_listed)

    def freeze(self) -> FrozenGraph:
        """Capture the current version (no array is copied)."""
        return FrozenGraph(self.base, self._keys, tuple(self._chunks))

    def to_csr(self) -> CSRGraph:
        """The live graph as one :class:`CSRGraph` (the base itself if no delta)."""
        return self.freeze().merge().base

    def advance(self, frozen: FrozenGraph, merged: "DeltaCSR") -> None:
        """Install ``merged`` (``frozen.merge()``) as the base.

        Chunks appended after ``frozen`` was taken stay as the delta; they
        were checked against a superset of the merged graph's edges, so
        they are still new.
        """
        if frozen.base is not self.base:
            raise GraphError("frozen version does not belong to this graph's base")
        self.base = merged.base
        self._keys = merged._keys
        self._chunks = self._chunks[len(frozen.chunks) :]
        self._reset_delta_index()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"DeltaCSR(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"delta={self._delta_count})"
        )
