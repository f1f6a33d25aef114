"""Shared helpers for the experiment harnesses."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.config import SpinnerConfig
from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.graph.datasets import load_dataset_csr


@dataclass(frozen=True)
class ExperimentScale:
    """Size knobs for an experiment run.

    ``graph_scale`` multiplies the dataset-proxy sizes; ``quick`` presets
    are used by the test suite, ``default`` by the benchmark harness.
    ``graph_scale`` must be a finite positive number.
    """

    graph_scale: float = 0.2
    seed: int = 7

    def __post_init__(self) -> None:
        if not (math.isfinite(self.graph_scale) and self.graph_scale > 0):
            raise ConfigurationError(
                f"graph_scale must be a positive number, got {self.graph_scale}"
            )

    @classmethod
    def quick(cls) -> "ExperimentScale":
        """Tiny sizes for the integration tests."""
        return cls(graph_scale=0.05, seed=7)

    @classmethod
    def default(cls) -> "ExperimentScale":
        """Benchmark sizes (seconds per experiment, not hours)."""
        return cls(graph_scale=0.25, seed=7)


def spinner_config(seed: int = 7, **overrides) -> SpinnerConfig:
    """The paper's default Spinner parameters with a fixed seed."""
    return SpinnerConfig(seed=seed, **overrides)


def undirected_dataset(name: str, scale: ExperimentScale) -> CSRGraph:
    """Load a dataset proxy as its weighted undirected CSR view.

    The proxy's own default seed is used, not ``scale.seed``.
    """
    return load_dataset_csr(name, scale=scale.graph_scale)
