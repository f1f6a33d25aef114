"""Scalar-draw references for the graph generators.

The production builders of :mod:`repro.graph.generators` take their
random numbers from a raw-block PCG64 stream (``_Draws``) and orient
edges with block draws.  These are the original loops that call numpy's
``Generator`` once per scalar draw and build edge lists as tuples; the
production code must reproduce them graph for graph and leave a caller's
generator in the same state.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.datasets import _RECIPES, DATASET_SPECS
from repro.graph.generators import (
    _BACKWARD,
    _FORWARD,
    _RECIPROCAL,
    _EdgeListBuilder,
    _ring_lattice_builder,
)


def _rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class _ScalarBuilder(_EdgeListBuilder):
    """The builder plus the dict-walking queries the powerlaw loop makes."""

    __slots__ = ()

    def degree(self, v: int) -> int:
        """Number of incident edges of ``v``."""
        return len(self._adj[v])

    def neighbors(self, v: int) -> dict[int, int]:
        """Insertion-ordered ``{neighbour: weight}`` mapping of ``v``."""
        return self._adj[v]


def edges(builder: _EdgeListBuilder) -> list[tuple[int, int]]:
    """Edges as ``(u, v)`` with ``u < v`` in ``UndirectedGraph.edges`` order."""
    return [
        (u, v) for u, neighbours in enumerate(builder._adj) for v in neighbours if u < v
    ]


def to_csr(builder: _EdgeListBuilder) -> CSRGraph:
    """The builder's CSR view assembled from the list of edge tuples."""
    return CSRGraph.from_edge_list(edges(builder), builder.num_vertices)


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


def _powerlaw_cluster_builder(
    num_vertices: int,
    edges_per_vertex: int,
    triangle_probability: float,
    seed: int | np.random.Generator | None = None,
) -> _EdgeListBuilder:
    if not 0.0 <= triangle_probability <= 1.0:
        raise GraphError("triangle_probability must lie in [0, 1]")
    rng = _rng(seed)
    builder = _ScalarBuilder(num_vertices)
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


def load_dataset_csr(name: str, scale: float = 1.0, seed: int | None = None) -> CSRGraph:
    """``repro.graph.datasets.load_dataset_csr`` through the scalar-draw loops."""
    recipe = _RECIPES[name]
    if seed is None:
        seed = recipe.seed
    num_vertices = max(64, int(round(DATASET_SPECS[name].base_vertices * scale)))
    skeleton = globals()[recipe.build.__name__](num_vertices, *recipe.params, seed=seed)
    if recipe.reciprocity is None:
        return to_csr(skeleton)
    edge_list = edges(skeleton)
    codes = _orientations(len(edge_list), recipe.reciprocity, seed + 1)
    weights = np.where(np.frombuffer(codes, dtype=np.uint8) == _RECIPROCAL, 2, 1)
    return CSRGraph.from_edge_list(edge_list, skeleton.num_vertices, weights=weights)
