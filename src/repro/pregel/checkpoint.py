"""Superstep-boundary checkpointing for the vector Pregel runtime.

Giraph checkpoints at superstep boundaries and recovers failed workers
from the last checkpoint (Pregel paper §4.2); Spinner inherits that story
by running on Giraph.  This module reproduces it for the simulation:

* a :class:`CheckpointManager` owns one checkpoint directory and writes a
  snapshot every ``interval`` supersteps, always including superstep 0 so
  a recovery base exists before any fault can fire;
* snapshots are written **atomically** (via
  :func:`repro.graph.io.atomic_open`: write-to-temp + ``os.replace``), so
  a crash mid-write can never leave a truncated snapshot — recovery scans
  newest-to-oldest and skips anything that fails validation;
* a snapshot is a ``.npz`` (``checkpoint_NNNNNNNN.npz``) with the
  shard-major dynamic arrays stored natively (vertex values, halted mask,
  combined in-flight message payloads) plus one pickled object blob for
  the non-array state (the program with its RNG state, the master, the
  aggregators and the accumulated
  :class:`~repro.pregel.cost_model.RunStats`); the static CSR shard
  arrays are written once per directory as ``shard.npz`` and shared by
  every snapshot.

Snapshots are self-contained: :func:`resume_from_checkpoint` rebuilds the
engine (its parameters ride in the snapshot) and finishes the run without
needing the original graph, program or placement function.  The recovery
bit-exactness contract — a run killed by an injected fault and recovered
produces byte-identical values, aggregator histories and superstep
statistics to the uninterrupted run — is documented in
``docs/ARCHITECTURE.md`` and pinned by ``tests/test_recovery_equivalence.py``.
"""

from __future__ import annotations

import os
import pickle
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import CheckpointError, PregelError
from repro.faults import FaultPlan, InjectedWorkerCrash
from repro.graph.io import atomic_open

#: Magic string identifying snapshot payloads.
CHECKPOINT_FORMAT = "spinner-repro-checkpoint"
#: Bump when the snapshot layout changes incompatibly.
CHECKPOINT_VERSION = 1

#: Snapshot kind recorded in every payload (the vector runtime's).
VECTOR_KIND = "vector"

_SNAPSHOT_RE = re.compile(r"^checkpoint_(\d{8})\.npz$")
#: Static CSR shard arrays shared by every vector snapshot in a directory.
SHARD_FILENAME = "shard.npz"


@dataclass
class Snapshot:
    """One loaded checkpoint snapshot.

    ``arrays`` / ``objects`` are the engine's dynamic arrays and pickled
    object blob.  ``engine_params`` holds the constructor arguments
    needed to rebuild the engine for an offline resume, and ``interval``
    the checkpoint interval the run used.
    """

    kind: str
    superstep: int
    path: Path
    interval: int
    engine_params: dict[str, Any]
    arrays: dict[str, np.ndarray]
    objects: dict[str, Any]


@dataclass
class RecoveryBookkeeping:
    """Fault/recovery counters kept *outside* the checkpointed state.

    Restoring a snapshot rolls the run state back, but recovery history
    must survive the rollback — the engine accumulates it here and copies
    it onto the final :class:`~repro.pregel.cost_model.RunStats` when the
    run ends.
    """

    checkpoints_written: int = 0
    recoveries: int = 0
    delivery_retries: int = 0
    simulated_backoff: float = 0.0


def validate_fault_tolerance_args(
    checkpoint_interval: int | None,
    checkpoint_dir: str | os.PathLike | None,
    fault_plan: FaultPlan | None,
) -> None:
    """Constructor validation of the engine's checkpoint knobs."""
    if (checkpoint_interval is None) != (checkpoint_dir is None):
        raise PregelError(
            "checkpoint_interval and checkpoint_dir must be given together"
        )
    if checkpoint_interval is not None and checkpoint_interval < 1:
        raise PregelError(
            f"checkpoint_interval must be >= 1, got {checkpoint_interval}"
        )
    if fault_plan is not None and checkpoint_interval is None:
        raise PregelError(
            "a fault_plan requires checkpointing "
            "(injected crashes recover from the latest checkpoint)"
        )


def apply_delivery_faults(
    plan: FaultPlan, superstep: int, bookkeeping: RecoveryBookkeeping
) -> None:
    """Replay ``plan``'s transient delivery failures for ``superstep``.

    Each failure costs one retry with (simulated, seeded) exponential
    backoff; failures beyond the plan's ``max_delivery_retries`` escalate
    to :class:`~repro.faults.InjectedWorkerCrash`, which the calling
    engine recovers from like any worker crash.
    """
    failures = plan.delivery_failures(superstep)
    for attempt in range(failures):
        if attempt >= plan.max_delivery_retries:
            raise InjectedWorkerCrash(
                superstep, worker=-1, reason="message delivery retries exhausted"
            )
        bookkeeping.delivery_retries += 1
        bookkeeping.simulated_backoff += plan.backoff_delay(attempt)


class CheckpointManager:
    """Writes and reads snapshots for one run's checkpoint directory.

    Recovery inside a running engine only considers snapshots this
    manager wrote (or verified) during the current run, so stale files
    from an earlier run in a reused directory cannot hijack an in-run
    recovery; :func:`resume_from_checkpoint` deliberately considers every
    snapshot in the directory instead.
    """

    def __init__(self, directory: str | os.PathLike, interval: int) -> None:
        if interval < 1:
            raise CheckpointError(f"checkpoint interval must be >= 1, got {interval}")
        self.directory = Path(directory)
        if self.directory.exists() and not self.directory.is_dir():
            raise CheckpointError(
                f"checkpoint dir {str(self.directory)!r} exists and is not a directory"
            )
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CheckpointError(
                f"cannot create checkpoint dir {str(self.directory)!r}: {exc}"
            ) from exc
        self.interval = interval
        #: Supersteps snapshotted (or found already on disk) this run.
        self._written: set[int] = set()

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def snapshot_path(self, superstep: int) -> Path:
        """Path of the snapshot file for ``superstep``."""
        return self.directory / f"checkpoint_{superstep:08d}.npz"

    @property
    def shard_path(self) -> Path:
        """Path of the shared static shard arrays."""
        return self.directory / SHARD_FILENAME

    def due(self, superstep: int) -> bool:
        """Whether a snapshot is due at ``superstep`` under the interval."""
        return superstep % self.interval == 0

    # ------------------------------------------------------------------
    # saving
    # ------------------------------------------------------------------
    def save_vector(
        self,
        superstep: int,
        arrays: dict[str, np.ndarray],
        objects: dict[str, Any],
        engine_params: dict[str, Any],
        shard_arrays: dict[str, np.ndarray],
    ) -> bool:
        """Snapshot the vector engine's dynamic arrays and object state.

        ``arrays`` holds the shard-major dynamic state (stored as native
        ``.npz`` fields), ``objects`` everything non-array (pickled into
        one blob field), ``shard_arrays`` the static CSR arrays (written
        once per directory as ``shard.npz``).  Returns ``False`` when the
        snapshot already exists for this run.
        """
        if superstep in self._written:
            return False
        if not self.shard_path.exists():
            self._savez(self.shard_path, shard_arrays)
        blob = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "kind": VECTOR_KIND,
            "superstep": superstep,
            "interval": self.interval,
            "engine": engine_params,
            "objects": objects,
        }
        fields = dict(arrays)
        fields["objects_blob"] = np.frombuffer(
            pickle.dumps(blob, protocol=pickle.HIGHEST_PROTOCOL), dtype=np.uint8
        )
        self._savez(self.snapshot_path(superstep), fields)
        self._written.add(superstep)
        return True

    @staticmethod
    def _savez(path: Path, fields: dict[str, np.ndarray]) -> None:
        """Serialize ``fields`` to an uncompressed ``.npz``, atomically."""
        with atomic_open(path, "wb") as handle:
            np.savez(handle, **fields)

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def load_shard_arrays(self) -> dict[str, np.ndarray]:
        """Load the static shard arrays written by :meth:`save_vector`."""
        if not self.shard_path.exists():
            raise CheckpointError(
                f"no {SHARD_FILENAME} in {str(self.directory)!r}; "
                "vector snapshots cannot be resumed without it"
            )
        with np.load(self.shard_path) as data:
            return {name: data[name].copy() for name in data.files}

    def load_latest(self, this_run_only: bool = False) -> Snapshot:
        """Load the newest valid snapshot, skipping corrupt files.

        ``this_run_only`` restricts the search to snapshots this manager
        wrote during the current run (the in-run recovery path).
        """
        return load_latest_snapshot(
            self.directory,
            restrict_to=self._written if this_run_only else None,
        )


def _snapshot_files(directory: Path) -> list[tuple[int, Path]]:
    """``(superstep, path)`` of every snapshot file, newest first."""
    found: list[tuple[int, Path]] = []
    if not directory.is_dir():
        return found
    for entry in directory.iterdir():
        match = _SNAPSHOT_RE.match(entry.name)
        if match:
            found.append((int(match.group(1)), entry))
    found.sort(key=lambda pair: pair[0], reverse=True)
    return found


def _validate_header(payload: dict[str, Any], path: Path) -> None:
    if (
        not isinstance(payload, dict)
        or payload.get("format") != CHECKPOINT_FORMAT
        or payload.get("version") != CHECKPOINT_VERSION
    ):
        raise CheckpointError(f"{path.name}: not a version-{CHECKPOINT_VERSION} snapshot")


def load_snapshot(path: str | os.PathLike) -> Snapshot:
    """Load and validate one ``.npz`` snapshot file.

    Raises :class:`~repro.errors.CheckpointError` for truncated, corrupt
    or foreign files.
    """
    path = Path(path)
    if path.suffix != ".npz":
        raise CheckpointError(f"{path.name}: unknown snapshot suffix {path.suffix!r}")
    try:
        with np.load(path) as data:
            fields = {name: data[name].copy() for name in data.files}
        blob_field = fields.pop("objects_blob", None)
        if blob_field is None:
            raise CheckpointError(f"{path.name}: missing object blob")
        payload = pickle.loads(blob_field.tobytes())
        _validate_header(payload, path)
        if payload.get("kind") != VECTOR_KIND:
            raise CheckpointError(f"{path.name}: not a vector-engine snapshot")
        return Snapshot(
            kind=VECTOR_KIND,
            superstep=int(payload["superstep"]),
            path=path,
            interval=int(payload["interval"]),
            engine_params=payload["engine"],
            arrays=fields,
            objects=payload["objects"],
        )
    except CheckpointError:
        raise
    except Exception as exc:  # truncated pickle/zip, wrong types, ...
        raise CheckpointError(f"{path.name}: unreadable snapshot ({exc})") from exc


def load_latest_snapshot(
    directory: str | os.PathLike, restrict_to: set[int] | None = None
) -> Snapshot:
    """Load the newest *valid* snapshot in ``directory``.

    Invalid or truncated snapshots are skipped (the atomic writer makes
    them rare, but a foreign or hand-damaged file must not wedge
    recovery).  Raises :class:`~repro.errors.CheckpointError` when the
    directory holds no loadable snapshot.
    """
    directory = Path(directory)
    candidates = _snapshot_files(directory)
    if restrict_to is not None:
        candidates = [pair for pair in candidates if pair[0] in restrict_to]
    errors: list[str] = []
    for _superstep, path in candidates:
        try:
            return load_snapshot(path)
        except CheckpointError as exc:
            errors.append(str(exc))
    detail = f" ({'; '.join(errors)})" if errors else ""
    raise CheckpointError(
        f"no valid checkpoint snapshot in {str(directory)!r}{detail}"
    )


def resume_from_checkpoint(
    checkpoint_dir: str | os.PathLike,
    fault_plan: FaultPlan | None = None,
    snapshot: Snapshot | None = None,
):
    """Resume the newest valid snapshot in ``checkpoint_dir`` to completion.

    Rebuilds the engine recorded in the snapshot, restores the run state
    and finishes the run, checkpointing onward into the same directory at
    the original interval.  Returns the engine's
    :class:`~repro.pregel.vector_coordinator.VectorPregelResult`.  A
    ``fault_plan`` may be supplied to keep injecting faults into the
    resumed run; by default it resumes clean.
    """
    snap = snapshot if snapshot is not None else load_latest_snapshot(checkpoint_dir)
    from repro.pregel.vector_coordinator import VectorPregelEngine

    return VectorPregelEngine._resume_from_snapshot(snap, checkpoint_dir, fault_plan)
