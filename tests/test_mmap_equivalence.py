"""Randomized equivalence fuzz suite: mmap storage tier vs. the RAM tier.

The out-of-core tier's contract is *byte-identity*: an on-disk CSR store
— whether written by :func:`~repro.graph.mmap_store.save_csr` or built by
the streaming external sort (:func:`~repro.graph.io.ingest_edge_chunks`)
— must hold exactly the arrays :meth:`CSRGraph.from_edge_list` would
build, and every consumer (FastSpinner's kernel, the LDG / Fennel /
Wang baselines, the quality metrics) must produce byte-identical output
on either tier, for every streaming chunk size including the degenerate
``chunk = 1``.

The suite fuzzes seeded random graphs across the shapes that stress the
chunk-boundary logic: the empty graph, a single vertex, self-loops,
isolated vertices, duplicate (parallel) edges, and heavily degree-skewed
graphs whose hub adjacency spans many chunks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SpinnerConfig
from repro.core.fast import FastSpinner
from repro.graph.csr import CSRGraph
from repro.graph.io import ingest_edge_chunks
from repro.graph.mmap_store import open_store, save_csr
from repro.metrics.quality import quality_summary
from repro.partitioners.fennel import FennelPartitioner
from repro.partitioners.ldg import LinearDeterministicGreedy
from repro.partitioners.wang import WangPartitioner

from oracles.dense_kernel import DenseSpinner

SHAPES = ("empty", "single", "self_loops", "isolated", "duplicates", "skewed")
SEEDS = (0, 1, 2)
CHUNK_SIZES = (1, 7, None)  # None = DEFAULT_STORAGE_CHUNK


def _fuzz_graph(shape: str, seed: int) -> tuple[int, np.ndarray, np.ndarray | None]:
    """Return ``(num_vertices, edges, weights-or-None)`` for a fuzz shape."""
    rng = np.random.default_rng((hash(shape) & 0xFFFF) * 1000 + seed)
    if shape == "empty":
        return 5, np.empty((0, 2), dtype=np.int64), None
    if shape == "single":
        # One vertex; a self-loop on it for odd seeds.
        if seed % 2:
            return 1, np.array([[0, 0]], dtype=np.int64), None
        return 1, np.empty((0, 2), dtype=np.int64), None
    if shape == "self_loops":
        n = 12
        m = int(rng.integers(5, 25))
        edges = rng.integers(0, n, size=(m, 2), dtype=np.int64)
        edges[:: max(1, m // 4), 1] = edges[:: max(1, m // 4), 0]  # force loops
        weights = rng.integers(1, 5, size=m, dtype=np.int64)
        return n, edges, weights
    if shape == "isolated":
        # Touch only the middle third of the id range.
        n = 30
        m = int(rng.integers(5, 20))
        edges = rng.integers(10, 20, size=(m, 2), dtype=np.int64)
        return n, edges, None
    if shape == "duplicates":
        n = 8
        base = rng.integers(0, n, size=(6, 2), dtype=np.int64)
        repeat = rng.integers(1, 4, size=6)
        edges = np.repeat(base, repeat, axis=0)
        weights = rng.integers(1, 7, size=edges.shape[0], dtype=np.int64)
        return n, edges, weights
    if shape == "skewed":
        # Hub vertex 0 linked to everyone (several times), plus a sparse tail.
        n = 40
        hub = np.stack(
            [np.zeros(2 * (n - 1), dtype=np.int64), np.tile(np.arange(1, n), 2)],
            axis=1,
        )
        tail = rng.integers(1, n, size=(15, 2), dtype=np.int64)
        return n, np.concatenate([hub, tail]), None
    raise AssertionError(shape)


def _edge_chunks(edges: np.ndarray, weights: np.ndarray | None, chunk: int):
    """Split an edge array into ingestion chunks of ``chunk`` edges."""
    for start in range(0, max(edges.shape[0], 1), chunk):
        u = edges[start : start + chunk, 0]
        v = edges[start : start + chunk, 1]
        w = None if weights is None else weights[start : start + chunk]
        yield u, v, w


def _assert_same_arrays(ram: CSRGraph, store: CSRGraph) -> None:
    """Byte-identity of every CSR array (values and dtypes)."""
    for name in ("indptr", "indices", "weights", "weighted_degrees"):
        expected = np.asarray(getattr(ram, name))
        actual = np.asarray(getattr(store, name))
        assert actual.dtype == expected.dtype, name
        assert np.array_equal(actual, expected), name
    assert store.num_vertices == ram.num_vertices
    assert store.total_weight == ram.total_weight


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_saved_store_arrays_byte_identical(tmp_path, shape, seed):
    n, edges, weights = _fuzz_graph(shape, seed)
    ram = CSRGraph.from_edge_list(edges, n, weights)
    save_csr(ram, tmp_path / "store")
    with open_store(tmp_path / "store") as store:
        assert store.storage == "mmap"
        _assert_same_arrays(ram, store)


@pytest.mark.parametrize("chunk", (1, 3, 1000))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_ingested_store_arrays_byte_identical(tmp_path, shape, seed, chunk):
    """The external sort reproduces from_edge_list's exact half-edge order."""
    n, edges, weights = _fuzz_graph(shape, seed)
    ram = CSRGraph.from_edge_list(edges, n, weights)
    # Tiny run sizes force multi-run merges even on these small graphs.
    for run_half_edges in (1, 7, 1 << 20):
        dest = tmp_path / f"store-{run_half_edges}"
        ingest_edge_chunks(
            _edge_chunks(edges, weights, chunk),
            dest,
            num_vertices=n,
            run_half_edges=run_half_edges,
        )
        with open_store(dest) as store:
            _assert_same_arrays(ram, store)


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
@pytest.mark.parametrize("kernel", ("frontier", "dense"))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_fast_spinner_labels_byte_identical(tmp_path, shape, seed, kernel, chunk):
    """Every chunk size: labels AND per-iteration history match the RAM run.

    ``kernel`` picks the in-RAM reference: FastSpinner itself, or the
    dense reference kernel (which runs in RAM only).
    """
    n, edges, weights = _fuzz_graph(shape, seed)
    ram = CSRGraph.from_edge_list(edges, n, weights)
    save_csr(ram, tmp_path / "store")

    base = SpinnerConfig(seed=seed, max_iterations=30)
    reference_spinner = DenseSpinner if kernel == "dense" else FastSpinner
    reference = reference_spinner(base).partition(ram, 3)
    mmap_config = base.with_options(storage="mmap", storage_chunk=chunk)
    with open_store(tmp_path / "store") as store:
        streamed = FastSpinner(mmap_config).partition(store, 3)

    assert np.array_equal(streamed.labels, reference.labels)
    assert streamed.iterations == reference.iterations
    assert streamed.history == reference.history
    assert streamed.phi == reference.phi
    assert streamed.rho == reference.rho


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_fast_spinner_spill_path_byte_identical(shape, seed):
    """storage='mmap' on a RAM graph spills to a temp store, same labels."""
    n, edges, weights = _fuzz_graph(shape, seed)
    ram = CSRGraph.from_edge_list(edges, n, weights)
    base = SpinnerConfig(seed=seed, max_iterations=20)
    reference = FastSpinner(base).partition(ram, 3)
    spilled = FastSpinner(base.with_options(storage="mmap")).partition(ram, 3)
    assert np.array_equal(spilled.labels, reference.labels)
    assert spilled.history == reference.history


@pytest.mark.parametrize(
    "factory",
    [
        lambda: LinearDeterministicGreedy(seed=7),
        lambda: FennelPartitioner(seed=7),
        lambda: WangPartitioner(lpa_iterations=4, seed=7),
    ],
    ids=["ldg", "fennel", "wang"],
)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_baseline_assignments_byte_identical(tmp_path, shape, seed, factory):
    n, edges, weights = _fuzz_graph(shape, seed)
    ram = CSRGraph.from_edge_list(edges, n, weights)
    save_csr(ram, tmp_path / "store")
    reference = factory().partition_array(ram, 3)
    with open_store(tmp_path / "store") as store:
        streamed = factory().partition_array(store, 3)
    assert np.array_equal(streamed, reference)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_quality_metrics_byte_identical(tmp_path, shape, seed):
    """The streamed metric passes equal the single-pass expressions exactly."""
    n, edges, weights = _fuzz_graph(shape, seed)
    ram = CSRGraph.from_edge_list(edges, n, weights)
    save_csr(ram, tmp_path / "store")
    labels = np.random.default_rng(seed).integers(0, 3, size=n, dtype=np.int64)
    reference = quality_summary(ram, labels, 3)
    with open_store(tmp_path / "store") as store:
        streamed = quality_summary(store, labels, 3)
    assert streamed == reference
