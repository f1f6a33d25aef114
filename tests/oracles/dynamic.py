"""The dictionary churn generators and delta application (reference oracle).

The per-call ``Generator`` loops over an
:class:`~repro.graph.undirected.UndirectedGraph` that
:mod:`repro.graph.dynamic` replaced with raw-block draws over a CSR
graph.  For a graph whose iteration order is its ascending id order,
each generator yields exactly what its array version does for the
graph's CSR view, seed for seed.  :func:`apply_delta` is what
:class:`~repro.graph.delta_csr.DeltaCSR` must agree with.
"""

from __future__ import annotations

import numpy as np

from repro.graph.dynamic import GraphDelta
from repro.graph.undirected import UndirectedGraph


def apply_delta(delta: GraphDelta, graph: UndirectedGraph) -> UndirectedGraph:
    """Apply ``delta`` in place (validated first; self-loops and present edges skipped)."""
    delta.validate()
    for vertex in delta.added_vertices:
        graph.add_vertex(vertex)
    for u, v, weight in delta.added_edges:
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, weight=weight)
    return graph


def _delta_target(graph: UndirectedGraph, fraction: float) -> int:
    return int(round(graph.num_edges * fraction))


def random_new_edges(graph: UndirectedGraph, fraction: float, seed=None) -> GraphDelta:
    """Uniform new edges between existing vertices."""
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


def bursty_new_edges(
    graph: UndirectedGraph, fraction: float, seed=None, num_hotspots: int = 8
) -> GraphDelta:
    """New edges from a few random hotspots, no pair twice."""
    target = _delta_target(graph, fraction)
    rng = np.random.default_rng(seed)
    vertices = list(graph.vertices())
    delta = GraphDelta()
    if not vertices or target == 0:
        return delta
    chosen = rng.choice(len(vertices), size=min(num_hotspots, len(vertices)), replace=False)
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
    graph: UndirectedGraph, fraction: float, seed=None, num_hubs: int = 4
) -> GraphDelta:
    """``num_hubs`` new vertices linked round-robin to uniform existing ones."""
    target = _delta_target(graph, fraction)
    rng = np.random.default_rng(seed)
    vertices = list(graph.vertices())
    delta = GraphDelta()
    if not vertices or target == 0:
        return delta
    hubs = [max(vertices) + 1 + offset for offset in range(num_hubs)]
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
