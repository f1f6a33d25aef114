"""Elastic repartitioning initialization (paper Section III-E).

When the number of partitions changes — machines are added to or removed
from the cluster — Spinner adapts the existing partitioning instead of
starting over:

* **adding** ``n`` partitions: every vertex independently picks one of the
  new partitions uniformly at random and migrates to it with probability
  ``p = n / (k + n)`` (eq. 11), which leaves all ``k + n`` partitions with
  the same expected load;
* **removing** ``n`` partitions: vertices assigned to a removed partition
  move to one of the surviving partitions chosen uniformly at random.

After this randomized re-initialization the normal Spinner iterations run
to restore locality.

The draws (:func:`expand_labels`, :func:`shrink_labels`,
:func:`resize_labels`) operate on dense label arrays, one vectorized draw
per step.  :func:`elastic_initial_labels` builds the starting labels of an
elastic run for both Spinner runtimes, so for the same seed the Pregel
:class:`~repro.core.spinner.SpinnerPartitioner` and
:class:`~repro.core.fast.FastSpinner` start from identical labels.
"""

from __future__ import annotations

import numpy as np

from repro.core.incremental import Assignment, lookup_labels, place_least_loaded
from repro.core.state import validate_label_array
from repro.errors import InvalidPartitionCountError
from repro.graph.csr import CSRGraph


def expand_labels(
    labels: np.ndarray,
    old_num_partitions: int,
    new_num_partitions: int,
    seed: int | None = None,
) -> np.ndarray:
    """Re-initialize labels after *adding* partitions (eq. 11).

    Raises
    ------
    InvalidPartitionCountError
        If ``new_num_partitions`` is not strictly larger than
        ``old_num_partitions``.
    """
    if new_num_partitions <= old_num_partitions:
        raise InvalidPartitionCountError(
            new_num_partitions,
            f"must exceed the previous count {old_num_partitions}",
        )
    labels = np.asarray(labels, dtype=np.int64)
    validate_label_array(labels, old_num_partitions)
    rng = np.random.default_rng(seed)
    added = new_num_partitions - old_num_partitions
    move = rng.random(labels.shape[0]) < added / new_num_partitions
    resized = labels.copy()
    resized[move] = old_num_partitions + rng.integers(added, size=int(move.sum()))
    return resized


def shrink_labels(
    labels: np.ndarray,
    old_num_partitions: int,
    new_num_partitions: int,
    seed: int | None = None,
) -> np.ndarray:
    """Re-initialize labels after *removing* partitions.

    Partitions ``new_num_partitions .. old_num_partitions - 1`` disappear;
    their vertices move to a surviving partition chosen uniformly at
    random.  Other vertices keep their label.
    """
    if not 0 < new_num_partitions < old_num_partitions:
        raise InvalidPartitionCountError(
            new_num_partitions,
            f"must be positive and smaller than the previous count {old_num_partitions}",
        )
    labels = np.asarray(labels, dtype=np.int64)
    validate_label_array(labels, old_num_partitions)
    rng = np.random.default_rng(seed)
    move = labels >= new_num_partitions
    resized = labels.copy()
    resized[move] = rng.integers(new_num_partitions, size=int(move.sum()))
    return resized


def resize_labels(
    labels: np.ndarray,
    old_num_partitions: int,
    new_num_partitions: int,
    seed: int | None = None,
) -> np.ndarray:
    """Dispatch to :func:`expand_labels` or :func:`shrink_labels`."""
    if new_num_partitions == old_num_partitions:
        labels = np.asarray(labels, dtype=np.int64)
        validate_label_array(labels, old_num_partitions)
        return labels.copy()
    if new_num_partitions > old_num_partitions:
        return expand_labels(labels, old_num_partitions, new_num_partitions, seed)
    return shrink_labels(labels, old_num_partitions, new_num_partitions, seed)


def elastic_initial_labels(
    csr: CSRGraph,
    previous_assignment: Assignment,
    old_num_partitions: int,
    new_num_partitions: int,
    seed: int | None = None,
) -> np.ndarray:
    """Initial labels for an elastic repartitioning of a CSR graph.

    The previous assignment is mapped onto the CSR vertex order, the
    labels of the vertices it covers are resized with
    :func:`resize_labels`, and vertices it misses go to the least loaded
    of the ``new_num_partitions`` partitions afterwards.
    """
    labels, found = lookup_labels(previous_assignment, csr.original_ids, old_num_partitions)
    if found.any():
        labels[found] = resize_labels(
            labels[found], old_num_partitions, new_num_partitions, seed=seed
        )
    place_least_loaded(labels, ~found, csr.weighted_degrees, new_num_partitions)
    return labels
