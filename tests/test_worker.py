"""Tests for workers and vertex placement.

The vector engine places vertices with one array rule in
``shard_graph``: ``worker = (placement label, else vertex id) mod W``.
The per-vertex placement callables of the reference engine are checked
against it.
"""

import numpy as np
import pytest

from repro.errors import PregelError
from repro.pregel.vector_coordinator import VectorPregelEngine

from oracles.worker import build_workers, hash_placement, partition_placement


def _worker_of(engine, original_ids):
    ids = np.asarray(original_ids, dtype=np.int64)
    indptr = np.zeros(ids.shape[0] + 1, dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    return engine.shard_graph(indptr, empty, empty, ids).worker_of


def test_hash_placement_range():
    worker_of = _worker_of(VectorPregelEngine(num_workers=4), range(100))
    assert worker_of.tolist() == [v % 4 for v in range(100)]
    place = hash_placement(4)
    assert worker_of.tolist() == [place(v) for v in range(100)]


def test_hash_placement_rejects_zero_workers():
    with pytest.raises(PregelError):
        VectorPregelEngine(num_workers=0)
    with pytest.raises(PregelError):
        hash_placement(0)


def test_hash_placement_rejects_negative_vertex_ids():
    with pytest.raises(PregelError, match="non-negative"):
        _worker_of(VectorPregelEngine(num_workers=4), [3, -1])
    with pytest.raises(PregelError, match="non-negative"):
        hash_placement(4)(-1)


def test_partition_placement_uses_labels():
    engine = VectorPregelEngine(num_workers=3, placement_labels=np.array([2, 2, 0]))
    assert _worker_of(engine, [0, 1, 2]).tolist() == [2, 2, 0]
    place = partition_placement({0: 2, 1: 2, 2: 0}, num_workers=3)
    assert [place(v) for v in (0, 1, 2)] == [2, 2, 0]


def test_partition_placement_wraps_large_labels():
    engine = VectorPregelEngine(num_workers=3, placement_labels=np.array([7]))
    assert _worker_of(engine, [0]).tolist() == [7 % 3]
    assert partition_placement({0: 7}, num_workers=3)(0) == 7 % 3


def test_partition_placement_rejects_bad_labels():
    with pytest.raises(PregelError, match="non-negative"):
        _worker_of(VectorPregelEngine(num_workers=3, placement_labels=np.array([1, -1])), [0, 1])
    with pytest.raises(PregelError, match="placement labels"):
        _worker_of(VectorPregelEngine(num_workers=3, placement_labels=np.array([1])), [0, 1])
    with pytest.raises(PregelError, match="non-negative"):
        _worker_of(VectorPregelEngine(num_workers=3, placement_labels=np.array([1])), [-4])


def test_build_workers_places_every_vertex():
    workers, worker_of = build_workers(range(10), 3, hash_placement(3))
    assert sum(w.num_vertices for w in workers) == 10
    assert set(worker_of) == set(range(10))
    for vertex, worker_id in worker_of.items():
        assert vertex in workers[worker_id].vertex_ids


def test_build_workers_rejects_out_of_range_placement():
    with pytest.raises(PregelError):
        build_workers(range(5), 2, lambda v: 5)
