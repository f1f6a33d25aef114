"""Tests for workers and vertex placement."""

import pytest

from repro.errors import PregelError
from repro.pregel.worker import hash_placement, partition_placement

from oracles.worker import build_workers


def test_hash_placement_range():
    place = hash_placement(4)
    assert all(0 <= place(v) < 4 for v in range(100))


def test_hash_placement_rejects_zero_workers():
    with pytest.raises(PregelError):
        hash_placement(0)


def test_hash_placement_rejects_negative_vertex_ids():
    place = hash_placement(4)
    with pytest.raises(PregelError, match="non-negative"):
        place(-1)


def test_partition_placement_uses_assignment():
    place = partition_placement({0: 2, 1: 2, 2: 0}, num_workers=3)
    assert place(0) == 2
    assert place(1) == 2
    assert place(2) == 0
    # Unknown vertices fall back to hash placement.
    assert 0 <= place(99) < 3


def test_partition_placement_wraps_large_labels():
    place = partition_placement({0: 7}, num_workers=3)
    assert place(0) == 7 % 3


def test_build_workers_places_every_vertex():
    workers, worker_of = build_workers(range(10), 3, hash_placement(3))
    assert sum(w.num_vertices for w in workers) == 10
    assert set(worker_of) == set(range(10))
    for vertex, worker_id in worker_of.items():
        assert vertex in workers[worker_id].vertex_ids


def test_build_workers_rejects_out_of_range_placement():
    with pytest.raises(PregelError):
        build_workers(range(5), 2, lambda v: 5)
