"""FastSpinner's per-iteration history is bookkeeping, not a second pass.

The kernel keeps its ``(n, k)`` label histogram in sync with the labels
at the end of every iteration and reads locality off it
(``sum_v w(v, l(v))``, one O(n) gather).  These tests pin that this
bookkeeping is exact and that it never touches the edges:

* the RAM graph and the same graph opened as a store (at several
  ``chunk_half_edges``) give the same labels, iterations, ``phi``,
  ``rho`` and message counts;
* ``result.phi`` and ``result.rho`` equal the quality metrics computed
  from scratch, compared with ``==``;
* the history rows of the two tiers are equal, and the RAM rows equal the
  dense reference kernel's, which recomputes ``phi`` with a masked pass
  over all half-edges;
* a graph whose weighted degree reaches ``2**31`` runs on the float64
  histogram and keeps all of the above;
* the out-of-core kernel streams the store exactly once per full
  histogram pass, and the RAM kernel builds its edge arrays once per
  run, whatever the iteration count.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fast
from repro.core.config import SpinnerConfig
from repro.core.fast import FastSpinner
from repro.graph.csr import CSRGraph
from repro.graph.mmap_store import MmapCSRGraph, open_store, save_csr
from repro.metrics.quality import locality, max_normalized_load

from oracles.dense_kernel import DenseSpinner

HEAVY_WEIGHT = 2**30


@st.composite
def weighted_graphs(draw):
    """Random weighted graphs over an id range with isolated vertices.

    Edges only touch the first ``active`` ids, so the tail stays
    isolated; self-loops and parallel edges are allowed.  A third of the
    draws use weights up to ``2**30``, pushing weighted degrees past the
    int32 histogram into the float64 one.
    """
    n = draw(st.integers(min_value=1, max_value=30))
    active = draw(st.integers(min_value=1, max_value=n))
    num_edges = draw(st.integers(min_value=0, max_value=60))
    heavy = draw(st.integers(min_value=0, max_value=2)) == 0
    max_weight = HEAVY_WEIGHT if heavy else 5
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, active - 1),
                st.integers(0, active - 1),
                st.integers(1, max_weight),
            ),
            min_size=num_edges,
            max_size=num_edges,
        )
    )
    array = np.array([(u, v) for u, v, _ in edges], dtype=np.int64).reshape(-1, 2)
    weights = np.array([w for _, _, w in edges], dtype=np.int64)
    return CSRGraph.from_edge_list(array, n, weights=weights)


def _config(seed: int, max_iterations: int) -> SpinnerConfig:
    return SpinnerConfig(seed=seed, max_iterations=max_iterations, halt_window=4)


def _history_rows(result):
    return [
        (record.iteration, record.phi, record.rho, record.score, record.migrations)
        for record in result.history
    ]


def _outcome(result):
    return (
        result.labels.tobytes(),
        result.iterations,
        result.phi,
        result.rho,
        result.total_messages,
        result.halted_by,
    )


def _check_exact(csr, num_partitions, seed, max_iterations, chunk):
    spinner = FastSpinner(_config(seed, max_iterations))
    ram = spinner.partition(csr, num_partitions)
    with tempfile.TemporaryDirectory() as directory:
        save_csr(csr, directory)
        with open_store(directory, chunk_half_edges=chunk) as store:
            mmap = spinner.partition(store, num_partitions)
    dense = DenseSpinner(_config(seed, max_iterations)).partition(csr, num_partitions)

    assert _outcome(mmap) == _outcome(ram)

    assert ram.phi == locality(csr, ram.labels)
    assert ram.rho == max_normalized_load(csr, ram.labels, num_partitions)

    rows = _history_rows(ram)
    assert len(rows) == ram.iterations
    assert _history_rows(mmap) == rows
    assert _history_rows(dense) == rows
    assert _outcome(dense) == _outcome(ram)
    return ram


@settings(max_examples=60, deadline=None)
@given(
    csr=weighted_graphs(),
    num_partitions=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
    max_iterations=st.integers(min_value=1, max_value=12),
    chunk=st.sampled_from([1, 3, 64]),
)
def test_history_is_exact_bookkeeping(csr, num_partitions, seed, max_iterations, chunk):
    _check_exact(csr, num_partitions, seed, max_iterations, chunk)


@pytest.mark.parametrize("num_partitions", [1, 3, 8])
def test_float64_histogram_branch_is_exact(num_partitions):
    # A heavy star: the hub's weighted degree is 4 * 2**30 = 2**32, past
    # the int32 histogram, plus a light ring and two isolated vertices.
    rng = np.random.default_rng(num_partitions)
    star = np.stack([np.zeros(4, dtype=np.int64), np.arange(1, 5)], axis=1)
    ring = np.stack([np.arange(5, 25), np.roll(np.arange(5, 25), 1)], axis=1)
    extra = rng.integers(1, 25, size=(30, 2))
    edges = np.concatenate([star, ring, extra])
    weights = np.concatenate(
        [
            np.full(4, HEAVY_WEIGHT, dtype=np.int64),
            rng.integers(1, 4, size=ring.shape[0] + extra.shape[0]),
        ]
    )
    csr = CSRGraph.from_edge_list(edges, 27, weights=weights)
    assert int(csr.weighted_degrees.max()) >= 2**31
    result = _check_exact(csr, num_partitions, seed=5, max_iterations=15, chunk=7)
    assert result.iterations > 1


# ----------------------------------------------------------------------
# count pins: history never streams the edges
# ----------------------------------------------------------------------
def _ring_with_chords(num_vertices: int, seed: int) -> CSRGraph:
    rng = np.random.default_rng(seed)
    u = np.arange(num_vertices, dtype=np.int64)
    ring = np.stack([u, (u + 1) % num_vertices], axis=1)
    chords = rng.integers(0, num_vertices, size=(num_vertices, 2))
    return CSRGraph.from_edge_list(np.concatenate([ring, chords]), num_vertices)


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("max_iterations", [1, 6, 25])
@pytest.mark.parametrize("warm_start", [False, True])
def test_mmap_history_streams_once_per_full_pass(
    monkeypatch, tmp_path, max_iterations, warm_start
):
    csr = _ring_with_chords(300, seed=max_iterations)
    initial = (np.arange(300) * 4) // 300 if warm_start else None
    save_csr(csr, tmp_path / "store", 64)
    config = SpinnerConfig(seed=3, max_iterations=max_iterations, halt_window=50)
    streams = _count_calls(monkeypatch, MmapCSRGraph, "iter_edge_chunks")
    full_passes = _count_calls(monkeypatch, fast, "_accumulate_histogram")
    with open_store(tmp_path / "store", chunk_half_edges=64) as store:
        result = FastSpinner(config).partition(store, 4, initial_labels=initial)
    assert result.iterations == max_iterations
    assert len(result.history) == max_iterations
    # One stream per full histogram pass: the initial build plus the
    # rebuilds after frontier-heavy iterations, never one per iteration.
    assert len(streams) == len(full_passes) >= 1
    if warm_start:
        assert len(full_passes) == 1


@pytest.mark.parametrize("max_iterations", [1, 6, 25])
def test_ram_history_builds_edge_arrays_once(monkeypatch, max_iterations):
    csr = _ring_with_chords(300, seed=max_iterations)
    config = SpinnerConfig(seed=3, max_iterations=max_iterations, halt_window=50)
    edge_arrays = _count_calls(monkeypatch, CSRGraph, "edge_array")
    result = FastSpinner(config).partition(csr, 4)
    assert result.iterations == max_iterations
    assert len(edge_arrays) == 1
