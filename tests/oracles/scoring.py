"""Spinner's per-vertex score function (reference oracle, paper eqs. 4, 7, 8, 14).

A vertex evaluates every candidate label ``l`` with

``score''(v, l) = (sum of edge weights to neighbours labelled l) / deg(v)
                  - b(l) / C``

where ``deg(v)`` is the weighted degree, ``b(l)`` the current load of
partition ``l`` and ``C`` the partition capacity (eq. 5).  The first term
rewards locality, the second penalizes migrations towards nearly-full
partitions.  These scalar helpers drive the per-vertex Spinner program
(:mod:`oracles.spinner`); :class:`~repro.core.batch_program.BatchSpinnerProgram`
replays them as array passes and is pinned bit for bit against them.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.config import SpinnerConfig
from repro.core.scoring import TIE_EPSILON


def label_frequencies(
    neighbour_labels: Sequence[tuple[int | None, float]],
) -> dict[int, float]:
    """Accumulate edge weight per neighbour label (eq. 4 numerator).

    ``neighbour_labels`` holds ``(label, weight)`` pairs; entries whose
    label is ``None`` (neighbour label not yet known) are skipped.
    """
    frequencies: dict[int, float] = {}
    for label, weight in neighbour_labels:
        if label is None:
            continue
        frequencies[label] = frequencies.get(label, 0.0) + weight
    return frequencies


def label_score(
    label: int,
    frequencies: Mapping[int, float],
    weighted_degree: float,
    loads: Sequence[float] | np.ndarray,
    capacity: float,
    config: SpinnerConfig,
) -> float:
    """Score of assigning a given label to a vertex (eq. 8)."""
    if weighted_degree <= 0:
        locality_term = 0.0
    else:
        locality_term = frequencies.get(label, 0.0) / weighted_degree
    if not config.balance_penalty or capacity <= 0:
        return locality_term
    return locality_term - float(loads[label]) / capacity


def choose_label(
    current_label: int,
    frequencies: Mapping[int, float],
    weighted_degree: float,
    loads: Sequence[float] | np.ndarray,
    capacity: float,
    config: SpinnerConfig,
) -> tuple[int, float, float]:
    """Pick the label maximizing the vertex score.

    Returns ``(best_label, best_score, current_score)``.  Ties are broken
    in favour of the current label when ``config.prefer_current_label`` is
    set (the paper's rule: it speeds up convergence and avoids needless
    migration messages); otherwise the lowest label index wins, which keeps
    the function deterministic.
    """
    num_partitions = len(loads)
    current_score = label_score(
        current_label, frequencies, weighted_degree, loads, capacity, config
    )
    best_label = current_label
    best_score = current_score
    for label in range(num_partitions):
        if label == current_label:
            continue
        score = label_score(label, frequencies, weighted_degree, loads, capacity, config)
        if score > best_score + TIE_EPSILON:
            best_label = label
            best_score = score
        elif not config.prefer_current_label and abs(score - best_score) <= TIE_EPSILON:
            # Deterministic tie-break towards the smallest label index.
            if label < best_label:
                best_label = label
                best_score = score
    return best_label, best_score, current_score


def migration_probability(remaining_capacity: float, candidate_load: float) -> float:
    """Probability that a candidate vertex is allowed to migrate (eq. 14).

    ``remaining_capacity`` is ``r(l) = C - b(l)`` and ``candidate_load`` is
    ``m(l)``, the total degree of all candidates targeting ``l``.  The
    probability is clamped to ``[0, 1]``: when the partition is already
    over capacity no one migrates, and when all candidates fit they all do.
    """
    if candidate_load <= 0:
        return 1.0
    if remaining_capacity <= 0:
        return 0.0
    return min(1.0, remaining_capacity / candidate_load)
