"""Streaming edge-list ingestion: boundaries, malformed input, determinism.

Complements the randomized fuzz suite (``test_mmap_equivalence.py``) with
directed cases for the external-sort ingestion pipeline:

* out-of-order input (the sort, not the input order, determines layout);
* run boundaries landing exactly inside one vertex's adjacency span;
* truncated / malformed / empty inputs (``GraphFormatError`` with line
  numbers; an empty file yields a valid empty store);
* byte-for-byte determinism of re-ingestion (every shard file and
  ``meta.json``);
* the handle-audit regression: a freshly ingested store — and one that
  was opened and closed again — can be deleted immediately, proving no
  file or memmap handle leaks out of the pipeline;
* mixed-weight streams exercising the lazy weight-spool backfill.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pytest

from repro.errors import GraphError, GraphFormatError
from repro.graph.csr import CSRGraph
from repro.graph.io import (
    ingest_edge_chunks,
    ingest_edge_list,
    iter_edge_list_chunks,
    read_partitioning,
    write_partitioning_array,
)
from repro.graph.mmap_store import open_store


def _arrays(store_dir) -> dict[str, bytes]:
    """Raw bytes of every file in a store, keyed by file name."""
    out = {}
    for name in sorted(os.listdir(store_dir)):
        with open(os.path.join(store_dir, name), "rb") as handle:
            out[name] = handle.read()
    return out


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------
def test_iter_edge_list_chunks_batches_and_weights(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("# comment\n0 1\n\n1 2 5\n2 3\n3 4\n")
    chunks = list(iter_edge_list_chunks(path, chunk_edges=2))
    assert [c[0].shape[0] for c in chunks] == [2, 2]
    # Batch 0 holds edges (0,1) and (1,2,5): weighted.  Batch 1 is all-unit.
    assert chunks[0][2].tolist() == [1, 5]
    assert chunks[1][2] is None
    path.write_text("0 1 5\n1 2\n")
    (only,) = iter_edge_list_chunks(path)
    assert only[2] is not None
    assert only[2].tolist() == [5, 1]


@pytest.mark.parametrize(
    ("content", "fragment"),
    [
        ("0 1\n2\n", "line 2"),
        ("0 1\n1 2 3 4\n", "line 2"),
        ("x y\n", "line 1"),
        ("0 1\n1 two\n", "line 2"),
    ],
)
def test_malformed_lines_raise_with_line_numbers(tmp_path, content, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(GraphFormatError, match=fragment):
        list(iter_edge_list_chunks(path))
    with pytest.raises(GraphFormatError, match=fragment):
        ingest_edge_list(path, tmp_path / "store")


# ----------------------------------------------------------------------
# ingestion semantics
# ----------------------------------------------------------------------
def test_out_of_order_input_yields_sorted_store(tmp_path):
    """Input order is irrelevant: the store equals from_edge_list's layout."""
    rng = np.random.default_rng(3)
    edges = rng.integers(0, 50, size=(200, 2), dtype=np.int64)
    expected = CSRGraph.from_edge_list(edges, 50)
    shuffled_text = "\n".join(f"{u} {v}" for u, v in edges.tolist()) + "\n"
    path = tmp_path / "edges.txt"
    path.write_text(shuffled_text)
    ingest_edge_list(path, tmp_path / "store", num_vertices=50, chunk_edges=17)
    with open_store(tmp_path / "store") as store:
        assert np.array_equal(store.indptr, expected.indptr)
        assert np.array_equal(store.indices, expected.indices)
        assert np.array_equal(store.weights, expected.weights)


def test_run_boundary_inside_adjacency_span(tmp_path):
    """A vertex whose adjacency straddles run/merge cutoffs stays intact.

    Vertex 2 has 10 neighbours; with ``run_half_edges`` below 10 every
    sorted run *and* every merge range boundary lands inside its span.
    """
    edges = np.array([[2, t] for t in [9, 4, 7, 1, 8, 3, 6, 0, 5, 2]], dtype=np.int64)
    expected = CSRGraph.from_edge_list(edges, 10)
    for run_half_edges in (1, 2, 3, 7):
        dest = tmp_path / f"store-{run_half_edges}"
        ingest_edge_chunks(
            [(edges[:, 0], edges[:, 1], None)],
            dest,
            num_vertices=10,
            run_half_edges=run_half_edges,
        )
        with open_store(dest) as store:
            assert np.array_equal(store.indptr, expected.indptr)
            assert np.array_equal(store.indices, expected.indices)


def test_empty_input_yields_valid_empty_store(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# only comments\n\n")
    meta = ingest_edge_list(path, tmp_path / "store")
    assert meta["num_vertices"] == 0
    assert meta["num_half_edges"] == 0
    with open_store(tmp_path / "store") as store:
        assert store.num_vertices == 0
        assert store.indices.shape == (0,)
        assert list(store.iter_edge_chunks(4)) == []


def test_missing_input_raises(tmp_path):
    with pytest.raises(OSError):
        ingest_edge_list(tmp_path / "nope.txt", tmp_path / "store")


@pytest.mark.parametrize(
    "edges",
    [
        np.array([[-1, 0]], dtype=np.int64),
        np.array([[0, -3]], dtype=np.int64),
    ],
)
def test_negative_ids_raise(tmp_path, edges):
    with pytest.raises(GraphError, match="negative"):
        ingest_edge_chunks([(edges[:, 0], edges[:, 1], None)], tmp_path / "store")


def test_out_of_range_ids_raise(tmp_path):
    edges = np.array([[0, 7]], dtype=np.int64)
    with pytest.raises(GraphError):
        ingest_edge_chunks(
            [(edges[:, 0], edges[:, 1], None)], tmp_path / "store", num_vertices=5
        )


def test_misaligned_chunk_arrays_raise(tmp_path):
    u = np.array([0, 1], dtype=np.int64)
    v = np.array([1], dtype=np.int64)
    with pytest.raises(GraphError):
        ingest_edge_chunks([(u, v, None)], tmp_path / "store")
    w = np.array([1], dtype=np.int64)
    with pytest.raises(GraphError):
        ingest_edge_chunks([(v, v, w[:0])], tmp_path / "store")


def test_mixed_weight_stream_backfills_spool(tmp_path):
    """Unit chunks followed by a weighted chunk: earlier edges get weight 1."""
    u1 = np.array([0, 1, 2], dtype=np.int64)
    v1 = np.array([1, 2, 3], dtype=np.int64)
    u2 = np.array([3, 0], dtype=np.int64)
    v2 = np.array([0, 2], dtype=np.int64)
    w2 = np.array([9, 2], dtype=np.int64)
    edges = np.stack([np.concatenate([u1, u2]), np.concatenate([v1, v2])], axis=1)
    expected = CSRGraph.from_edge_list(edges, 4, weights=[1, 1, 1, 9, 2])
    ingest_edge_chunks(
        [(u1, v1, None), (u2, v2, w2)], tmp_path / "store", num_vertices=4
    )
    with open_store(tmp_path / "store") as store:
        assert np.array_equal(store.weights, expected.weights)
        assert np.array_equal(store.indices, expected.indices)
    # All-unit stores omit weights.bin entirely and present broadcast ones.
    ingest_edge_chunks([(u1, v1, None)], tmp_path / "unit", num_vertices=4)
    assert not (tmp_path / "unit" / "weights.bin").exists()
    with open_store(tmp_path / "unit") as store:
        assert store.weights.tolist() == [1] * 6


# ----------------------------------------------------------------------
# determinism + handle hygiene
# ----------------------------------------------------------------------
def test_reingest_is_byte_deterministic(tmp_path):
    rng = np.random.default_rng(11)
    edges = rng.integers(0, 40, size=(150, 2), dtype=np.int64)
    weights = rng.integers(1, 6, size=150, dtype=np.int64)
    text = "\n".join(
        f"{u} {v} {w}" for (u, v), w in zip(edges.tolist(), weights.tolist())
    )
    path = tmp_path / "edges.txt"
    path.write_text(text + "\n")
    ingest_edge_list(path, tmp_path / "a", chunk_edges=13, run_half_edges=29)
    ingest_edge_list(path, tmp_path / "b", chunk_edges=13, run_half_edges=29)
    assert _arrays(tmp_path / "a") == _arrays(tmp_path / "b")
    # Re-ingesting over an existing store also converges to the same bytes.
    ingest_edge_list(path, tmp_path / "a", chunk_edges=7, run_half_edges=29)
    assert _arrays(tmp_path / "a") == _arrays(tmp_path / "b")


def test_store_deletable_immediately_after_ingest(tmp_path):
    """No leaked handles: rmtree succeeds right after ingest and after use."""
    edges = np.random.default_rng(5).integers(0, 20, size=(60, 2), dtype=np.int64)
    dest = tmp_path / "store"
    ingest_edge_chunks([(edges[:, 0], edges[:, 1], None)], dest, num_vertices=20)
    shutil.rmtree(dest)  # must not raise
    assert not dest.exists()

    ingest_edge_chunks([(edges[:, 0], edges[:, 1], None)], dest, num_vertices=20)
    with open_store(dest) as store:
        for _ in store.iter_edge_chunks(16):
            pass
        np.asarray(store.indices[:5])
    # Context exit closed the memmaps; deletion must succeed.
    shutil.rmtree(dest)
    assert not dest.exists()


def test_ingest_workdir_cleaned_up(tmp_path):
    edges = np.array([[0, 1], [1, 2]], dtype=np.int64)
    dest = tmp_path / "store"
    ingest_edge_chunks([(edges[:, 0], edges[:, 1], None)], dest)
    leftovers = [n for n in os.listdir(dest) if n.startswith(".ingest-tmp")]
    assert leftovers == []


# ----------------------------------------------------------------------
# partitioning file round-trip
# ----------------------------------------------------------------------
def test_write_partitioning_array_roundtrip(tmp_path):
    ids = np.array([30, 10, 20], dtype=np.int64)
    labels = np.array([2, 0, 1], dtype=np.int64)
    path = tmp_path / "assignment.txt"
    write_partitioning_array(ids, labels, path)
    assert read_partitioning(path) == {10: 0, 20: 1, 30: 2}
    lines = path.read_text().splitlines()
    assert lines[1:] == ["10 0", "20 1", "30 2"]  # ascending id order
    with pytest.raises(GraphError):
        write_partitioning_array(ids, labels[:2], path)
