"""Versioned, array-backed vertex→partition assignment store.

The serving layer's core data structure.  A :class:`AssignmentSnapshot`
is an *immutable* pair of parallel int64 arrays — sorted original vertex
ids and their partition labels — plus a version number; batched lookups
are fully vectorized.  Snapshots come in two physical representations
behind one logical contract:

* **dense** — when the sorted ids are contiguous
  (``ids[0] + n - 1 == ids[-1]``, the common case for generated and
  ingested graphs, which number vertices ``0..n-1``), a covered lookup
  is a single O(1) array load at ``labels[vertex - ids[0]]``;
* **sparse** — otherwise, a covered lookup is the O(log n)
  ``searchsorted`` probe.

Both representations are pinned byte-identical on a randomized
equivalence suite (``tests/test_serving_dataplane.py``).  The
:class:`AssignmentStore` holds the current snapshot behind a single
reference that is swapped atomically by :meth:`AssignmentStore.publish`,
so readers racing a background repartition always observe one complete,
internally consistent version: either the old snapshot or the new one,
never a mixture.

Versions start at 0 (the empty bootstrap snapshot: every lookup falls
back to hashing) and increase by exactly 1 per publish — gapless and
monotone, which the serving test suite pins.

Miss semantics: a vertex id not covered by the snapshot (typically born
after the snapshot was computed) is routed to
``splitmix64(id) mod k`` — the exact rule of
:class:`~repro.partitioners.hashing.HashPartitioner` — and the response
is flagged as a fallback, so callers can distinguish an authoritative
placement from a provisional one.

Persistence reuses the :mod:`repro.graph.io` partitioning format and its
atomic writers: :meth:`AssignmentStore.save` /
:meth:`AssignmentStore.warm_start` round-trip byte-exactly, so a service
can be restarted from its last persisted assignment without any
re-partitioning work.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Mapping

import numpy as np

from repro.core.state import validate_label_array
from repro.errors import ServingError
from repro.graph.io import read_partitioning, write_partitioning_array
from repro.partitioners.hashing import hash_label, hash_labels_array


class AssignmentSnapshot:
    """One immutable version of the vertex→partition map.

    Attributes
    ----------
    version:
        Monotone snapshot version (0 is the empty bootstrap snapshot).
    ids:
        Sorted original vertex ids covered by this snapshot (int64).
    labels:
        Partition labels aligned with ``ids`` (int64, in ``[0, k)``).
    num_partitions:
        Number of partitions ``k`` (also the modulus of the hash
        fallback for uncovered ids).
    """

    __slots__ = ("version", "ids", "labels", "num_partitions", "_dense_base")

    def __init__(
        self,
        version: int,
        ids: np.ndarray,
        labels: np.ndarray,
        num_partitions: int,
    ) -> None:
        if num_partitions <= 0:
            raise ServingError(f"num_partitions must be positive, got {num_partitions}")
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        labels = np.ascontiguousarray(labels, dtype=np.int64)
        if ids.shape != labels.shape or ids.ndim != 1:
            raise ServingError("ids and labels must be parallel 1-D arrays")
        if ids.size > 1 and not bool(np.all(np.diff(ids) > 0)):
            raise ServingError("snapshot ids must be strictly increasing")
        validate_label_array(labels, num_partitions)
        ids.flags.writeable = False
        labels.flags.writeable = False
        self.version = version
        self.ids = ids
        self.labels = labels
        self.num_partitions = num_partitions
        # Contiguous sorted ids mean vertex -> labels[vertex - ids[0]] is a
        # direct index: no searchsorted probe and no extra table (the label
        # array itself *is* the dense map).
        if ids.size and int(ids[0]) + ids.size - 1 == int(ids[-1]):
            self._dense_base = int(ids[0])
        else:
            self._dense_base = None

    @property
    def num_vertices(self) -> int:
        """Number of vertices covered by this snapshot."""
        return int(self.ids.shape[0])

    @property
    def is_dense(self) -> bool:
        """Whether covered lookups use the O(1) direct-index representation."""
        return self._dense_base is not None

    def lookup(self, vertex: int) -> tuple[int, bool]:
        """Return ``(partition, fallback)`` for one vertex id.

        Covered ids are one O(1) array load on a dense snapshot (one
        O(log n) probe on a sparse one); a miss is routed by the scalar
        :func:`~repro.partitioners.hashing.hash_label` — no array is
        allocated on either path.
        """
        if self._dense_base is not None:
            offset = vertex - self._dense_base
            if 0 <= offset < self.ids.shape[0]:
                return int(self.labels[offset]), False
        elif self.ids.shape[0]:
            position = int(np.searchsorted(self.ids, vertex))
            if position < self.ids.shape[0] and int(self.ids[position]) == vertex:
                return int(self.labels[position]), False
        return hash_label(vertex, self.num_partitions), True

    def lookup_many(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized lookup: ``(labels, fallback_mask)`` for an id array.

        Covered ids get their snapshot label; uncovered ids get the hash
        fallback and a set bit in ``fallback_mask``.  Only the miss
        subset is hashed — a full-hit batch (the steady-state serving
        case) does no fallback work at all.
        """
        query = np.asarray(vertices, dtype=np.int64)
        n = self.ids.shape[0]
        if n == 0:
            return self._hash_fallback(query), np.ones(query.shape[0], dtype=bool)
        labels = np.empty(query.shape[0], dtype=np.int64)
        if self._dense_base is not None:
            offset = query - self._dense_base
            found = (offset >= 0) & (offset < n)
            labels[found] = self.labels[offset[found]]
        else:
            position = np.minimum(np.searchsorted(self.ids, query), n - 1)
            found = self.ids[position] == query
            labels[found] = self.labels[position[found]]
        miss = ~found
        if miss.any():
            labels[miss] = self._hash_fallback(query[miss])
        return labels, miss

    def _hash_fallback(self, query: np.ndarray) -> np.ndarray:
        """Hash-route uncovered ids (rejecting negatives like :func:`hash_label`)."""
        if query.size and int(query.min()) < 0:
            raise ServingError(
                f"vertex ids must be non-negative, got {int(query.min())}"
            )
        return hash_labels_array(query, self.num_partitions)

    def to_assignment(self) -> dict[int, int]:
        """Render as a ``{vertex id: partition}`` dictionary."""
        return {
            int(vertex): int(label)
            for vertex, label in zip(self.ids.tolist(), self.labels.tolist())
        }


class AssignmentStore:
    """Holder of the current :class:`AssignmentSnapshot`.

    ``publish`` swaps the snapshot reference under a lock and bumps the
    version by exactly 1; ``current`` is lock-free (reference reads are
    atomic), so high-QPS lookups never wait on a publish, let alone on
    the repartitioning that produced it.
    """

    def __init__(self, num_partitions: int) -> None:
        if num_partitions <= 0:
            raise ServingError(f"num_partitions must be positive, got {num_partitions}")
        self.num_partitions = num_partitions
        self._lock = threading.Lock()
        self._snapshot = AssignmentSnapshot(
            0,
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            num_partitions,
        )

    @property
    def version(self) -> int:
        """Version of the current snapshot."""
        return self._snapshot.version

    def current(self) -> AssignmentSnapshot:
        """Return the current snapshot (never blocks)."""
        return self._snapshot

    def publish(self, ids: np.ndarray, labels: np.ndarray) -> AssignmentSnapshot:
        """Atomically install ``(ids, labels)`` as the next version.

        Returns the newly installed snapshot.  The previous snapshot
        object stays valid for readers that already hold it.
        """
        with self._lock:
            snapshot = AssignmentSnapshot(
                self._snapshot.version + 1, ids, labels, self.num_partitions
            )
            self._snapshot = snapshot
        return snapshot

    def publish_assignment(self, assignment: Mapping[int, int]) -> AssignmentSnapshot:
        """Publish from a ``{vertex: partition}`` mapping (sorted by id)."""
        count = len(assignment)
        ids = np.fromiter(assignment.keys(), dtype=np.int64, count=count)
        labels = np.fromiter(assignment.values(), dtype=np.int64, count=count)
        order = np.argsort(ids, kind="stable")
        return self.publish(ids[order], labels[order])

    def save(self, path: str | os.PathLike) -> None:
        """Persist the current snapshot as a partitioning file (atomic).

        Uses :func:`repro.graph.io.write_partitioning_array`, so the file
        is either the complete new snapshot or untouched, and
        :meth:`warm_start` round-trips it byte-exactly.
        """
        snapshot = self._snapshot
        write_partitioning_array(snapshot.ids, snapshot.labels, path)

    def warm_start(self, path: str | os.PathLike) -> AssignmentSnapshot:
        """Load a persisted assignment as the next version.

        The file must have been written by :meth:`save` (or any
        :mod:`repro.graph.io` partitioning writer).  Loading it into a
        fresh store and saving again reproduces the file byte for byte.
        """
        assignment = read_partitioning(path)
        if not assignment:
            raise ServingError(f"partitioning file {os.fspath(path)!r} is empty")
        return self.publish_assignment(assignment)
