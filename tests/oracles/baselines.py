"""Per-vertex dictionary references for the baseline partitioners.

The production partitioners run on CSR arrays only.  These are the plain
loops over an :class:`~repro.graph.undirected.UndirectedGraph` that their
kernels must match assignment for assignment; each reads its parameters
(seed, stream order, capacity, ...) off a production partitioner.
:data:`DICT_PARTITIONS` maps partitioner names to them, including the
scalar rules behind the vectorized ``hash``/``modulo``/``random`` and the
multilevel code of :mod:`oracles.metis`.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graph.conversion import ensure_undirected
from repro.graph.csr import CSRGraph
from repro.partitioners.hashing import hash_label

from oracles.metis import canonical_undirected, metis_partition, wang_coarse_partition
from oracles.metrics import locality, max_normalized_load


def ldg_stream(partitioner, graph) -> list[int]:
    """LDG's vertex stream: natural, shuffled, or BFS from shuffled roots."""
    vertices = sorted(graph.vertices())
    if partitioner.stream_order == "natural":
        return vertices
    np.random.default_rng(partitioner.seed).shuffle(vertices)
    if partitioner.stream_order == "random":
        return vertices
    # BFS over all components; a deque keeps it O(n) and neighbours
    # expand in ascending id order so the traversal is canonical.
    order: list[int] = []
    visited: set[int] = set()
    for root in vertices:
        if root in visited:
            continue
        queue: deque[int] = deque([root])
        visited.add(root)
        while queue:
            current = queue.popleft()
            order.append(current)
            for neighbour in sorted(graph.neighbors(current)):
                if neighbour not in visited:
                    visited.add(neighbour)
                    queue.append(neighbour)
    return order


def _neighbour_counts(graph, vertex, assignment, num_partitions) -> np.ndarray:
    counts = np.zeros(num_partitions, dtype=np.float64)
    for neighbour, weight in graph.neighbors(vertex).items():
        label = assignment.get(neighbour)
        if label is not None:
            counts[label] += weight
    return counts


def ldg_partition(partitioner, graph, num_partitions) -> dict[int, int]:
    """Stream vertices through the LDG greedy rule one at a time."""
    if graph.num_vertices == 0:
        return {}
    capacity = partitioner.capacity_slack * graph.num_vertices / num_partitions
    sizes = np.zeros(num_partitions, dtype=np.float64)
    assignment: dict[int, int] = {}
    for vertex in ldg_stream(partitioner, graph):
        counts = _neighbour_counts(graph, vertex, assignment, num_partitions)
        scores = counts * np.clip(1.0 - sizes / capacity, 0.0, None)
        best = int(np.argmax(scores))
        if scores[best] <= 0.0:
            best = int(np.argmin(sizes))  # nothing placed nearby: least loaded
        assignment[vertex] = best
        sizes[best] += 1.0
    return assignment


def fennel_partition(partitioner, graph, num_partitions) -> dict[int, int]:
    """Stream vertices through the Fennel objective one at a time."""
    n = graph.num_vertices
    if n == 0:
        return {}
    alpha = np.sqrt(num_partitions) * max(graph.num_edges, 1) / (n ** 1.5)
    capacity = partitioner.load_factor * n / num_partitions
    gamma = partitioner.gamma
    vertices = sorted(graph.vertices())
    if partitioner.stream_order == "random":
        np.random.default_rng(partitioner.seed).shuffle(vertices)
    sizes = np.zeros(num_partitions, dtype=np.float64)
    assignment: dict[int, int] = {}
    for vertex in vertices:
        counts = _neighbour_counts(graph, vertex, assignment, num_partitions)
        scores = counts - alpha * gamma * np.power(sizes, gamma - 1.0)
        scores[sizes >= capacity] = -np.inf
        best = int(np.argmax(scores))
        if not np.isfinite(scores[best]):
            best = int(np.argmin(sizes))
        assignment[vertex] = best
        sizes[best] += 1.0
    return assignment


def wang_partition(partitioner, graph, num_partitions) -> dict[int, int]:
    """Size-bounded LPA sweeps, per-edge contraction, METIS on the communities."""
    if graph.num_vertices == 0:
        return {}
    rng = np.random.default_rng(partitioner.seed)
    community = {vertex: vertex for vertex in graph.vertices()}
    sizes = {vertex: 1 for vertex in graph.vertices()}
    max_size = partitioner._max_community_size(graph.num_vertices, num_partitions)
    vertices = sorted(graph.vertices())
    for _ in range(partitioner.lpa_iterations):
        rng.shuffle(vertices)
        moved = 0
        for vertex in vertices:
            counts: dict[int, float] = {}
            for neighbour, weight in graph.neighbors(vertex).items():
                label = community[neighbour]
                counts[label] = counts.get(label, 0.0) + weight
            if not counts:
                continue
            best = max(counts, key=lambda label: (counts[label], -label))
            current = community[vertex]
            if best == current or sizes.get(best, 0) >= max_size:
                continue
            community[vertex] = best
            sizes[best] = sizes.get(best, 0) + 1
            sizes[current] -= 1
            moved += 1
        if moved == 0:
            break

    dense_of = {cid: i for i, cid in enumerate(sorted(set(community.values())))}
    edge_weights: dict[tuple[int, int], int] = {}
    for u, v, weight in graph.edges():
        cu, cv = sorted((dense_of[community[u]], dense_of[community[v]]))
        if cu != cv:
            edge_weights[(cu, cv)] = edge_weights.get((cu, cv), 0) + weight
    community_sizes = {index: 0.0 for index in dense_of.values()}
    for cid in community.values():
        community_sizes[dense_of[cid]] += 1.0
    coarse = wang_coarse_partition(
        partitioner, len(dense_of), edge_weights, community_sizes, num_partitions
    )
    return {vertex: coarse[dense_of[community[vertex]]] for vertex in graph.vertices()}


def _random_partition(partitioner, graph, num_partitions) -> dict[int, int]:
    """The ``i``-th seeded draw for the ``i``-th smallest vertex id."""
    vertices = sorted(graph.vertices())
    draws = np.random.default_rng(partitioner.seed).integers(
        num_partitions, size=len(vertices)
    )
    return dict(zip(vertices, draws.tolist()))


#: Dictionary reference by registry name.
DICT_PARTITIONS = {
    "hash": lambda _, graph, k: {v: hash_label(v, k) for v in graph.vertices()},
    "modulo": lambda _, graph, k: {v: v % k for v in graph.vertices()},
    "random": _random_partition,
    "ldg": ldg_partition,
    "fennel": fennel_partition,
    "wang": wang_partition,
    # METIS walks the canonical copy of the graph's CSR view.
    "metis-like": lambda partitioner, graph, k: metis_partition(
        partitioner, canonical_undirected(CSRGraph.from_undirected(graph)), k
    ),
}


def dict_partition(partitioner, graph, num_partitions) -> dict[int, int]:
    """The dictionary reference assignment of ``partitioner`` on ``graph``."""
    reference = DICT_PARTITIONS[partitioner.name]
    return reference(partitioner, ensure_undirected(graph), num_partitions)


def dict_run(partitioner, graph, num_partitions):
    """Reference ``(assignment, phi, rho)`` on the undirected view of ``graph``."""
    undirected = ensure_undirected(graph)
    assignment = dict_partition(partitioner, undirected, num_partitions)
    phi = locality(undirected, assignment)
    return assignment, phi, max_normalized_load(undirected, assignment, num_partitions)
