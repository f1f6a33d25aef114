"""Tests for the Spinner score function, migration probability and state helpers."""

import numpy as np
import pytest

from repro.core.config import SpinnerConfig
from repro.core.state import PartitionLoadTracker, validate_labels
from repro.errors import InvalidPartitionCountError, PartitioningError

from oracles.scoring import (
    choose_label,
    label_frequencies,
    label_score,
    migration_probability,
)


def test_label_frequencies_skip_unknown_labels():
    freqs = label_frequencies([(0, 2.0), (1, 1.0), (None, 5.0), (0, 1.0)])
    assert freqs == {0: 3.0, 1: 1.0}


def test_label_score_combines_locality_and_penalty():
    config = SpinnerConfig()
    loads = np.array([50.0, 100.0])
    score_light = label_score(0, {0: 5.0, 1: 5.0}, 10.0, loads, capacity=100.0, config=config)
    score_heavy = label_score(1, {0: 5.0, 1: 5.0}, 10.0, loads, capacity=100.0, config=config)
    assert score_light > score_heavy  # same locality, lighter partition wins


def test_label_score_without_penalty():
    config = SpinnerConfig(balance_penalty=False)
    loads = np.array([0.0, 1e9])
    assert label_score(1, {1: 10.0}, 10.0, loads, 100.0, config) == pytest.approx(1.0)


def test_choose_label_prefers_majority_neighbour_label():
    config = SpinnerConfig()
    loads = np.array([10.0, 10.0, 10.0])
    best, best_score, current_score = choose_label(
        0, {1: 8.0, 0: 2.0}, 10.0, loads, capacity=100.0, config=config
    )
    assert best == 1
    assert best_score > current_score


def test_choose_label_keeps_current_on_tie():
    config = SpinnerConfig()
    loads = np.array([10.0, 10.0])
    best, _bs, _cs = choose_label(1, {0: 5.0, 1: 5.0}, 10.0, loads, 100.0, config)
    assert best == 1


def test_choose_label_without_tie_preference_picks_smallest_index():
    config = SpinnerConfig(prefer_current_label=False)
    loads = np.array([10.0, 10.0])
    best, _bs, _cs = choose_label(1, {0: 5.0, 1: 5.0}, 10.0, loads, 100.0, config)
    assert best == 0


def test_zero_degree_vertex_moves_to_lightest_partition():
    config = SpinnerConfig()
    loads = np.array([90.0, 10.0])
    best, _bs, _cs = choose_label(0, {}, 0.0, loads, 100.0, config)
    assert best == 1


def test_migration_probability_clamped():
    assert migration_probability(50.0, 100.0) == pytest.approx(0.5)
    assert migration_probability(200.0, 100.0) == 1.0
    assert migration_probability(-5.0, 100.0) == 0.0
    assert migration_probability(10.0, 0.0) == 1.0


def test_validate_labels():
    validate_labels([0, 1, 2], 3)
    with pytest.raises(PartitioningError):
        validate_labels([0, 3], 3)
    with pytest.raises(InvalidPartitionCountError):
        validate_labels([0], 0)


def test_partition_load_tracker_basics():
    tracker = PartitionLoadTracker(3)
    tracker.add(0, 10)
    tracker.add(1, 5)
    assert tracker.least_loaded() == 2
    assert tracker.most_loaded() == 0
    tracker.remove(0, 10)
    assert tracker.total == 5
    with pytest.raises(PartitioningError):
        tracker.add(5, 1)


def test_partition_load_tracker_from_assignment():
    tracker = PartitionLoadTracker.from_assignment(
        {0: 0, 1: 1, 2: 1}, 2, weight_of={0: 4, 1: 1, 2: 1}
    )
    assert tracker.loads.tolist() == [4.0, 2.0]
    assert tracker.normalized_max() == pytest.approx(4 * 2 / 6)
