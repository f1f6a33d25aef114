"""Tests for the Spinner score function, migration probability and label validation."""

import numpy as np
import pytest

from repro.core.config import SpinnerConfig
from repro.core.state import validate_label_array
from repro.errors import InvalidPartitionCountError, PartitioningError

from oracles.incremental import validate_labels

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
    for validate in (validate_labels, validate_label_array):
        validate(np.array([0, 1, 2]), 3)
        with pytest.raises(PartitioningError, match=r"label 3 outside \[0, 3\)"):
            validate(np.array([0, 3, -1]), 3)
        with pytest.raises(InvalidPartitionCountError):
            validate(np.array([0]), 0)
