"""Tests for the dataset proxies (Table II substitutes)."""

import pytest

from repro.errors import ReproError
from repro.graph.datasets import (
    DATASET_SPECS,
    dataset_names,
    load_dataset,
    load_dataset_csr,
)
from repro.graph.digraph import DiGraph
from repro.graph.stats import degree_stats
from repro.graph.undirected import UndirectedGraph


def test_dataset_names_match_specs():
    assert set(dataset_names()) == set(DATASET_SPECS)


@pytest.mark.parametrize("name", dataset_names())
def test_directedness_matches_table2(name):
    graph = load_dataset(name, scale=0.03)
    if DATASET_SPECS[name].directed:
        assert isinstance(graph, DiGraph)
    else:
        assert isinstance(graph, UndirectedGraph)


def test_scale_controls_size():
    small = load_dataset("TU", scale=0.03)
    large = load_dataset("TU", scale=0.08)
    assert large.num_vertices > small.num_vertices


def test_twitter_proxy_is_hub_dominated():
    graph = load_dataset("TW", scale=0.1)
    stats = degree_stats(graph)
    assert stats.hub_ratio > 3.0


def test_yahoo_proxy_is_sparse():
    yahoo = load_dataset("Y!", scale=0.05)
    tuenti = load_dataset("TU", scale=0.05)
    yahoo_stats = degree_stats(yahoo)
    tuenti_stats = degree_stats(tuenti)
    assert yahoo_stats.mean < tuenti_stats.mean


def test_unknown_dataset_raises():
    with pytest.raises(KeyError):
        load_dataset("nope")


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("loader", [load_dataset, load_dataset_csr])
def test_scale_must_be_finite_and_positive(loader, scale):
    with pytest.raises(ReproError, match="scale"):
        loader("TU", scale=scale)


def test_seed_override_changes_graph():
    first = load_dataset("TU", scale=0.03, seed=1)
    second = load_dataset("TU", scale=0.03, seed=2)
    assert sorted(first.edges()) != sorted(second.edges())


def test_deterministic_default_seed():
    first = load_dataset("FR", scale=0.03)
    second = load_dataset("FR", scale=0.03)
    assert first.num_edges == second.num_edges
