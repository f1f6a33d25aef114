"""Dictionary reference for the multilevel (METIS-style) partitioner.

:class:`~repro.partitioners.metis.MetisLikePartitioner` runs on CSR
arrays.  This is the multilevel scheme it must match label for label:
heavy-edge matching, contraction, greedy region growing and boundary
refinement over an :class:`~repro.graph.undirected.UndirectedGraph`,
reading its parameters (balance tolerance, coarsest size, refinement
passes, seed) off a production partitioner.

:func:`canonical_undirected` copies a CSR graph into the dictionary graph
this code walks (vertices in CSR order, edges by ascending original-id
pair), and :func:`canonical_labels` runs a dictionary partition on that
copy and returns its labels in CSR vertex order.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.undirected import UndirectedGraph
from repro.partitioners.metis import MetisLikePartitioner


def canonical_undirected(csr: CSRGraph) -> UndirectedGraph:
    """Materialize a CSR graph as an :class:`UndirectedGraph` canonically.

    Vertices are inserted in CSR (dense) order and edges in ascending
    ``(u, v)`` original-id order, so two equal CSR graphs always produce
    dictionaries with identical iteration order.
    """
    graph = UndirectedGraph()
    ids = csr.original_ids
    for vertex in ids.tolist():
        graph.add_vertex(vertex)
    sources, targets, weights = csr.edge_array()
    forward = sources < targets
    u = ids[sources[forward]]
    v = ids[targets[forward]]
    w = weights[forward]
    order = np.lexsort((v, u))
    for a, b, weight in zip(u[order].tolist(), v[order].tolist(), w[order].tolist()):
        graph.add_edge(a, b, weight=weight)
    return graph


def canonical_labels(
    csr: CSRGraph, partition: Callable[[UndirectedGraph], Mapping[int, int]]
) -> np.ndarray:
    """Run a dictionary-graph ``partition`` on :func:`canonical_undirected`
    of ``csr`` and return its labels in the CSR vertex order."""
    assignment = partition(canonical_undirected(csr))
    return np.asarray(
        [assignment[v] for v in csr.original_ids.tolist()], dtype=np.int64
    )


@dataclass
class _Level:
    """One level of the coarsening hierarchy."""

    graph: UndirectedGraph
    vertex_weight: dict[int, float]
    # Mapping of each vertex of this level to its parent (coarser) vertex.
    parent: dict[int, int] | None = None


def metis_partition(partitioner, graph: UndirectedGraph, num_partitions: int) -> dict[int, int]:
    """METIS on ``graph`` as given, balancing weighted degrees."""
    weights = {v: float(max(graph.weighted_degree(v), 1)) for v in graph.vertices()}
    return multilevel_partition(partitioner, graph, num_partitions, weights)


def metis_labels(partitioner, csr: CSRGraph, num_partitions: int) -> np.ndarray:
    """The reference labels of ``partitioner.partition_array(csr, k)``."""
    return canonical_labels(
        csr, lambda graph: metis_partition(partitioner, graph, num_partitions)
    )


def wang_coarse_partition(
    partitioner,
    num_communities: int,
    edge_weights: dict[tuple[int, int], int],
    community_sizes: dict[int, float],
    num_partitions: int,
) -> dict[int, int]:
    """Wang's coarse step: METIS on the community graph (edges inserted in
    ascending ``(u, v)`` order), balancing community sizes."""
    coarse = UndirectedGraph()
    for index in range(num_communities):
        coarse.add_vertex(index)
    for (cu, cv) in sorted(edge_weights):
        coarse.add_edge(cu, cv, weight=edge_weights[(cu, cv)])
    weights = {
        v: float(max(community_sizes.get(v, 1.0), 1e-9)) for v in coarse.vertices()
    }
    metis = MetisLikePartitioner(seed=partitioner.seed)
    return multilevel_partition(metis, coarse, num_partitions, weights)


def multilevel_partition(
    partitioner,
    graph: UndirectedGraph,
    num_partitions: int,
    vertex_weight: dict[int, float],
) -> dict[int, int]:
    """Coarsen, partition the coarsest graph and refine back (multilevel)."""
    if graph.num_vertices == 0:
        return {}
    rng = np.random.default_rng(partitioner.seed)
    levels = _coarsen(partitioner, graph, vertex_weight, num_partitions, rng)
    coarsest = levels[-1]
    assignment = _initial_partition(coarsest, num_partitions)
    assignment = _refine(partitioner, coarsest, assignment, num_partitions)
    # Project back through the hierarchy, refining at each level.
    for level_index in range(len(levels) - 2, -1, -1):
        finer = levels[level_index]
        assert finer.parent is not None
        assignment = {
            vertex: assignment[finer.parent[vertex]] for vertex in finer.graph.vertices()
        }
        assignment = _refine(partitioner, finer, assignment, num_partitions)
    return assignment


def _coarsen(partitioner, graph, vertex_weight, num_partitions, rng) -> list[_Level]:
    levels = [_Level(graph=graph, vertex_weight=vertex_weight)]
    target = max(partitioner.coarsest_size, 4 * num_partitions)
    while levels[-1].graph.num_vertices > target:
        current = levels[-1]
        matching = _heavy_edge_matching(current, rng)
        coarse, coarse_weights, parent = _contract(current, matching)
        if coarse.num_vertices >= current.graph.num_vertices:
            break  # no progress; stop coarsening
        current.parent = parent
        levels.append(_Level(graph=coarse, vertex_weight=coarse_weights))
    return levels


def _heavy_edge_matching(level: _Level, rng: np.random.Generator) -> dict[int, int]:
    """Match each unmatched vertex with its heaviest unmatched neighbour."""
    graph = level.graph
    vertices = list(graph.vertices())
    rng.shuffle(vertices)
    matched: dict[int, int] = {}
    for vertex in vertices:
        if vertex in matched:
            continue
        best_neighbour = None
        best_weight = -1.0
        for neighbour, weight in graph.neighbors(vertex).items():
            if neighbour in matched or neighbour == vertex:
                continue
            if weight > best_weight:
                best_weight = weight
                best_neighbour = neighbour
        if best_neighbour is None:
            matched[vertex] = vertex
        else:
            matched[vertex] = best_neighbour
            matched[best_neighbour] = vertex
    return matched


def _contract(
    level: _Level, matching: dict[int, int]
) -> tuple[UndirectedGraph, dict[int, float], dict[int, int]]:
    graph = level.graph
    parent: dict[int, int] = {}
    coarse_weights: dict[int, float] = {}
    next_id = 0
    for vertex in graph.vertices():
        if vertex in parent:
            continue
        partner = matching.get(vertex, vertex)
        parent[vertex] = next_id
        weight = level.vertex_weight[vertex]
        if partner != vertex and partner not in parent:
            parent[partner] = next_id
            weight += level.vertex_weight[partner]
        coarse_weights[next_id] = weight
        next_id += 1
    coarse = UndirectedGraph()
    for coarse_id in range(next_id):
        coarse.add_vertex(coarse_id)
    edge_weights: dict[tuple[int, int], int] = {}
    for u, v, weight in graph.edges():
        cu, cv = parent[u], parent[v]
        if cu == cv:
            continue
        key = (cu, cv) if cu < cv else (cv, cu)
        edge_weights[key] = edge_weights.get(key, 0) + weight
    for (cu, cv), weight in edge_weights.items():
        coarse.add_edge(cu, cv, weight=weight)
    return coarse, coarse_weights, parent


def _initial_partition(level: _Level, num_partitions: int) -> dict[int, int]:
    """Greedy region growing around high-degree seeds."""
    graph = level.graph
    weights = level.vertex_weight
    vertices = list(graph.vertices())
    total_weight = sum(weights[v] for v in vertices)
    target = total_weight / num_partitions

    assignment: dict[int, int] = {}
    loads = np.zeros(num_partitions, dtype=np.float64)
    seeds = sorted(vertices, key=lambda v: -graph.degree(v))
    seed_iter = iter(seeds)

    for label in range(num_partitions):
        seed = next((s for s in seed_iter if s not in assignment), None)
        if seed is None:
            break
        frontier = {seed}
        while frontier and loads[label] < target:
            best_vertex = None
            best_connection = -1.0
            for candidate in frontier:
                connection = sum(
                    w
                    for nbr, w in graph.neighbors(candidate).items()
                    if assignment.get(nbr) == label
                )
                if connection > best_connection:
                    best_connection = connection
                    best_vertex = candidate
            assert best_vertex is not None
            frontier.discard(best_vertex)
            if best_vertex in assignment:
                continue
            assignment[best_vertex] = label
            loads[label] += weights[best_vertex]
            for neighbour in graph.neighbors(best_vertex):
                if neighbour not in assignment:
                    frontier.add(neighbour)
    # Any vertex not reached by region growing goes to the lightest part.
    for vertex in vertices:
        if vertex not in assignment:
            label = int(np.argmin(loads))
            assignment[vertex] = label
            loads[label] += weights[vertex]
    return assignment


def _refine(partitioner, level: _Level, assignment, num_partitions) -> dict[int, int]:
    """Greedy boundary passes: move each vertex to its best-gain label."""
    graph = level.graph
    weights = level.vertex_weight
    loads = np.zeros(num_partitions, dtype=np.float64)
    for vertex, label in assignment.items():
        loads[label] += weights[vertex]
    total = loads.sum()
    max_load = partitioner.balance_tolerance * total / num_partitions

    for _ in range(partitioner.refinement_passes):
        moved = 0
        for vertex in graph.vertices():
            current = assignment[vertex]
            connection = np.zeros(num_partitions, dtype=np.float64)
            for neighbour, weight in graph.neighbors(vertex).items():
                connection[assignment[neighbour]] += weight
            best_label = current
            best_gain = 0.0
            for label in range(num_partitions):
                if label == current:
                    continue
                if loads[label] + weights[vertex] > max_load:
                    continue
                gain = connection[label] - connection[current]
                if gain > best_gain:
                    best_gain = gain
                    best_label = label
            if best_label != current:
                assignment[vertex] = best_label
                loads[current] -= weights[vertex]
                loads[best_label] += weights[vertex]
                moved += 1
        if moved == 0:
            break
    return assignment
