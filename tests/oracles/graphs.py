"""Dictionary graphs for the suites, and as inputs of the array runtimes.

:func:`ring_lattice`, :func:`watts_strogatz`, :func:`erdos_renyi`,
:func:`barabasi_albert` and :func:`powerlaw_cluster` are the dictionary
views of :mod:`repro.graph.generators`' builders (vertices ``0..n-1`` in
ascending order).  The suites load the same graph into the per-vertex
reference engine.  :func:`shard_digraph` and
:func:`shard_undirected` shard it the way that engine loads it —
vertices in insertion order, slots in edge-iteration order (an
undirected edge's two directions interleaved) — so runs compare slot
for slot; :func:`spinner_input` and :func:`as_csr` give the inputs of
the Pregel Spinner and of FastSpinner/the metrics.
"""

from __future__ import annotations

import numpy as np

from repro.core.batch_program import DirectedEdges
from repro.graph.conversion import to_weighted_csr
from repro.graph.csr import CSRGraph, build_csr_arrays
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    _barabasi_albert_builder,
    _barabasi_albert_edges,
    _erdos_renyi_builder,
    _powerlaw_cluster_builder,
    _ring_lattice_builder,
    _watts_strogatz_builder,
)
from repro.graph.undirected import UndirectedGraph
from repro.pregel.batch import ShardedGraph
from repro.pregel.vector_coordinator import VectorPregelEngine


def ring_lattice(num_vertices: int, degree: int) -> UndirectedGraph:
    return _ring_lattice_builder(num_vertices, degree).to_undirected()


def watts_strogatz(num_vertices: int, degree: int, beta: float, seed=None) -> UndirectedGraph:
    return _watts_strogatz_builder(num_vertices, degree, beta, seed).to_undirected()


def erdos_renyi(num_vertices: int, num_edges: int, seed=None) -> UndirectedGraph:
    return _erdos_renyi_builder(num_vertices, num_edges, seed).to_undirected()


def barabasi_albert(num_vertices: int, edges_per_vertex: int, seed=None, directed=False):
    """Directed: the attachment edges point from each new vertex to its targets."""
    if directed:
        edges = _barabasi_albert_edges(num_vertices, edges_per_vertex, seed)
        return DiGraph.from_edges(edges, num_vertices=num_vertices)
    return _barabasi_albert_builder(num_vertices, edges_per_vertex, seed).to_undirected()


def powerlaw_cluster(
    num_vertices: int, edges_per_vertex: int, triangle_probability: float, seed=None
) -> UndirectedGraph:
    return _powerlaw_cluster_builder(
        num_vertices, edges_per_vertex, triangle_probability, seed
    ).to_undirected()


def _shard(engine, ids, sources, targets, weights) -> ShardedGraph:
    """Shard the edges ``sources -> targets`` (original ids); slots keep edge order."""
    sorter = np.argsort(ids, kind="stable")
    dense_sources, dense_targets = (
        sorter[np.searchsorted(ids, ends, sorter=sorter)] for ends in (sources, targets)
    )
    indptr, indices, slot_weights = build_csr_arrays(
        dense_sources, dense_targets, weights, ids.shape[0]
    )
    return engine.shard_graph(indptr, indices, slot_weights, ids)


def shard_digraph(engine: VectorPregelEngine, graph: DiGraph) -> ShardedGraph:
    """Every directed edge is one out-edge of weight 1."""
    ids, sources, targets = directed_edges(graph)
    return _shard(engine, ids, sources, targets, np.ones(sources.shape[0], np.int64))


def shard_undirected(engine: VectorPregelEngine, graph: UndirectedGraph) -> ShardedGraph:
    """Every edge becomes two out-edges, ``u -> v`` then ``v -> u``."""
    ids = np.fromiter(graph.vertices(), dtype=np.int64, count=graph.num_vertices)
    u, v, w = np.asarray(list(graph.edges()), dtype=np.int64).reshape(-1, 3).T
    sources = np.stack([u, v], axis=1).reshape(-1)
    targets = np.stack([v, u], axis=1).reshape(-1)
    return _shard(engine, ids, sources, targets, np.repeat(w, 2))


def run_on_digraph(engine: VectorPregelEngine, program, graph: DiGraph, master=None):
    """Shard a directed graph and run ``program`` on the vector engine."""
    return engine.run(program, shard_digraph(engine, graph), master=master)


def run_on_undirected(engine: VectorPregelEngine, program, graph: UndirectedGraph, master=None):
    """Shard an undirected graph and run ``program`` on the vector engine."""
    return engine.run(program, shard_undirected(engine, graph), master=master)


def directed_edges(graph: DiGraph) -> DirectedEdges:
    """The edge arrays of a directed graph, in vertex and edge iteration order."""
    ids = np.fromiter(graph.vertices(), dtype=np.int64, count=graph.num_vertices)
    pairs = np.asarray(list(graph.edges()), dtype=np.int64).reshape(-1, 2)
    return DirectedEdges(ids, pairs[:, 0], pairs[:, 1])


def spinner_input(graph: DiGraph | UndirectedGraph) -> CSRGraph | DirectedEdges:
    """The Pregel Spinner's input: edge arrays, or the CSR view (ascending
    ids, the insertion order of every undirected graph the suites build)."""
    if isinstance(graph, DiGraph):
        return directed_edges(graph)
    return CSRGraph.from_undirected(graph)


def as_csr(graph: DiGraph | UndirectedGraph) -> CSRGraph:
    """The weighted undirected CSR view (eq. (3) weights for a directed graph)."""
    if isinstance(graph, DiGraph):
        return to_weighted_csr(graph)
    return CSRGraph.from_undirected(graph)
