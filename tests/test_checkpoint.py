"""Tests for the checkpoint subsystem (snapshots, loading, resilience)."""

import pickle

import numpy as np
import pytest

from repro.apps import make_app_program
from repro.errors import CheckpointError, PregelError
from repro.graph.digraph import DiGraph
from repro.pregel import (
    CheckpointManager,
    VectorPregelEngine,
    load_latest_snapshot,
    load_snapshot,
    resume_from_checkpoint,
)
from repro.pregel.checkpoint import VECTOR_KIND

from oracles.graphs import run_on_digraph


def small_graph() -> DiGraph:
    edges = [(i, (i * 3 + 1) % 40) for i in range(40)]
    edges += [(i, (i + 9) % 40) for i in range(40)]
    return DiGraph.from_edges(edges)


def run_vector(tmp_path, interval=2, **engine_kwargs):
    engine = VectorPregelEngine(
        num_workers=3,
        checkpoint_interval=interval,
        checkpoint_dir=tmp_path,
        **engine_kwargs,
    )
    program = make_app_program("pagerank", num_iterations=6)
    return run_on_digraph(engine, program, small_graph())


# ----------------------------------------------------------------------
# manager validation
# ----------------------------------------------------------------------
def test_manager_rejects_bad_interval(tmp_path):
    with pytest.raises(CheckpointError):
        CheckpointManager(tmp_path, 0)


def test_manager_rejects_file_as_directory(tmp_path):
    target = tmp_path / "not-a-dir"
    target.write_text("occupied")
    with pytest.raises(CheckpointError):
        CheckpointManager(target, 1)


def test_manager_creates_missing_directory(tmp_path):
    target = tmp_path / "nested" / "checkpoints"
    CheckpointManager(target, 1)
    assert target.is_dir()


def test_engine_rejects_partial_checkpoint_config(tmp_path):
    with pytest.raises(PregelError):
        VectorPregelEngine(checkpoint_interval=2)
    with pytest.raises(PregelError):
        VectorPregelEngine(checkpoint_dir=str(tmp_path))


# ----------------------------------------------------------------------
# snapshots on disk
# ----------------------------------------------------------------------
def test_vector_run_writes_shard_once(tmp_path):
    result = run_vector(tmp_path, interval=3)
    assert (tmp_path / "shard.npz").exists()
    files = sorted(p.name for p in tmp_path.glob("checkpoint_*.npz"))
    assert files == [f"checkpoint_{s:08d}.npz" for s in (0, 3, 6)]
    assert result.stats.checkpoints_written == 3


def test_no_temporary_files_left_behind(tmp_path):
    run_vector(tmp_path)
    leftovers = [p for p in tmp_path.iterdir() if ".tmp." in p.name]
    assert leftovers == []


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------
def test_load_latest_picks_highest_superstep(tmp_path):
    # PageRank(6 iterations) runs supersteps 0..7 -> checkpoints at 0,2,4,6.
    run_vector(tmp_path, interval=2)
    snapshot = load_latest_snapshot(tmp_path)
    assert snapshot.superstep == 6
    assert snapshot.kind == VECTOR_KIND
    assert snapshot.interval == 2


def test_load_latest_skips_corrupt_newest(tmp_path):
    run_vector(tmp_path, interval=2)
    newest = tmp_path / "checkpoint_00000006.npz"
    newest.write_bytes(b"\x80corrupt")
    snapshot = load_latest_snapshot(tmp_path)
    assert snapshot.superstep == 4


def test_load_latest_skips_truncated_vector_snapshot(tmp_path):
    run_vector(tmp_path, interval=3)
    newest = tmp_path / "checkpoint_00000006.npz"
    newest.write_bytes(newest.read_bytes()[: len(newest.read_bytes()) // 2])
    snapshot = load_latest_snapshot(tmp_path)
    assert snapshot.superstep == 3
    assert snapshot.kind == VECTOR_KIND


def test_load_latest_fails_on_empty_directory(tmp_path):
    with pytest.raises(CheckpointError):
        load_latest_snapshot(tmp_path)


def test_load_snapshot_rejects_foreign_pickle(tmp_path):
    path = tmp_path / "checkpoint_00000001.npz"
    blob = np.frombuffer(pickle.dumps({"unrelated": True}), dtype=np.uint8)
    with open(path, "wb") as handle:
        np.savez(handle, objects_blob=blob)
    with pytest.raises(CheckpointError, match="not a version-1 snapshot"):
        load_snapshot(path)


def test_load_snapshot_rejects_unknown_suffix(tmp_path):
    path = tmp_path / "checkpoint.json"
    path.write_text("{}")
    with pytest.raises(CheckpointError):
        load_snapshot(path)


def test_resume_fails_without_snapshots(tmp_path):
    with pytest.raises(CheckpointError):
        resume_from_checkpoint(tmp_path)


# ----------------------------------------------------------------------
# offline resume (clean runs)
# ----------------------------------------------------------------------
def test_vector_resume_matches_uninterrupted_run(tmp_path):
    baseline = run_on_digraph(
        VectorPregelEngine(num_workers=3),
        make_app_program("pagerank", num_iterations=6),
        small_graph(),
    )
    run_vector(tmp_path, interval=2)
    resumed = resume_from_checkpoint(tmp_path)
    assert np.array_equal(resumed.values, baseline.values)
    assert np.array_equal(resumed.original_ids, baseline.original_ids)
    assert resumed.num_supersteps == baseline.num_supersteps
    assert resumed.halt_reason == baseline.halt_reason
    assert resumed.aggregator_history == baseline.aggregator_history
    assert resumed.stats.superstep_stats == baseline.stats.superstep_stats


def test_vector_resume_requires_shard_file(tmp_path):
    run_vector(tmp_path, interval=2)
    (tmp_path / "shard.npz").unlink()
    with pytest.raises(CheckpointError):
        resume_from_checkpoint(tmp_path)
