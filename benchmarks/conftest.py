"""Shared configuration for the benchmark harness.

Every benchmark reproduces one table or figure of the paper: it runs the
corresponding harness from :mod:`repro.experiments` under pytest-benchmark
(so the runtime of the experiment itself is tracked) and prints the rows
the paper reports, so the textual output of

    pytest benchmarks/ --benchmark-only -s

is the reproduction of the evaluation section.  The workload sizes are
scaled-down proxies (see DESIGN.md); shapes and relative comparisons are
the meaningful output, not absolute numbers.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.experiments.common import ExperimentScale

# The reference implementations the speed benchmarks compare against live
# in the test suite's ``oracles`` package.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    """Benchmark-sized workloads (a few thousand vertices per graph)."""
    return ExperimentScale.default()


def print_rows(title: str, rows: list[dict], columns: list[str] | None = None) -> None:
    """Print experiment rows as an aligned table below the benchmark output."""
    from repro.metrics.reporting import format_table

    print()
    print(format_table(rows, columns=columns, title=title))
