"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.config import SpinnerConfig
from repro.graph.datasets import load_dataset
from repro.graph.digraph import DiGraph
from repro.graph.generators import powerlaw_cluster, watts_strogatz
from repro.graph.undirected import UndirectedGraph


@pytest.fixture
def triangle_graph() -> UndirectedGraph:
    """Three vertices forming a triangle (weights 1)."""
    return UndirectedGraph.from_edges([(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def two_cliques() -> UndirectedGraph:
    """Two 5-cliques joined by a single bridge edge — an obvious 2-cut."""
    graph = UndirectedGraph()
    first = range(0, 5)
    second = range(5, 10)
    for group in (first, second):
        for u in group:
            for v in group:
                if u < v:
                    graph.add_edge(u, v)
    graph.add_edge(0, 5)
    return graph


@pytest.fixture
def small_directed() -> DiGraph:
    """The directed example of Figure 1-like shape (reciprocal + single edges)."""
    return DiGraph.from_edges([(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4)])


@pytest.fixture
def community_graph() -> UndirectedGraph:
    """A clustered power-law graph with clear community structure."""
    return powerlaw_cluster(300, edges_per_vertex=6, triangle_probability=0.6, seed=5)


@pytest.fixture
def small_world_graph() -> UndirectedGraph:
    """A small Watts-Strogatz graph (the scalability workload)."""
    return watts_strogatz(200, degree=8, beta=0.3, seed=5)


@pytest.fixture
def tiny_tuenti() -> UndirectedGraph:
    """A very small Tuenti proxy for dynamic/elastic tests."""
    return load_dataset("TU", scale=0.03, seed=9)


@pytest.fixture
def tiny_twitter() -> DiGraph:
    """A very small Twitter proxy (directed, hub-dominated)."""
    return load_dataset("TW", scale=0.03, seed=9)


@pytest.fixture
def quick_config() -> SpinnerConfig:
    """Spinner configuration bounded for fast tests."""
    return SpinnerConfig(seed=3, max_iterations=40)
