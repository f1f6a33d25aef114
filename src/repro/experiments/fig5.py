"""Figure 5 — impact of the additional capacity c.

(a) the final maximum normalized load ``rho`` as a function of ``c``
(expected: ``rho <= c`` on average), and (b) the number of iterations to
convergence as a function of ``c`` for several k (expected: larger ``c``
converges faster).  The paper runs this on LiveJournal with k in
{8, 16, 32, 64} and c in {1.02, 1.05, 1.10, 1.20}, repeating each run 10
times.
"""

from __future__ import annotations

import numpy as np

from repro.core.fast import FastSpinner
from repro.experiments.common import ExperimentScale, spinner_config
from repro.graph.datasets import load_dataset_csr

FIG5_C_VALUES = (1.02, 1.05, 1.10, 1.20)
FIG5_K_VALUES = (8, 16, 32, 64)


def run_fig5(
    c_values: tuple[float, ...] = FIG5_C_VALUES,
    k_values: tuple[int, ...] = FIG5_K_VALUES,
    dataset: str = "LJ",
    repeats: int = 3,
    scale: ExperimentScale | None = None,
) -> list[dict]:
    """Return one row per (c, k) with the mean final rho and iteration count.

    The proxy is generated directly as a CSR graph and FastSpinner
    consumes it without any dictionary materialization.
    """
    scale = scale or ExperimentScale.default()
    graph = load_dataset_csr(dataset, scale=scale.graph_scale)
    rows: list[dict] = []
    for c in c_values:
        for k in k_values:
            rhos = []
            iterations = []
            for repeat in range(repeats):
                config = spinner_config(scale.seed + repeat, additional_capacity=c)
                result = FastSpinner(config).partition(graph, k)
                rhos.append(result.rho)
                iterations.append(result.iterations)
            rows.append(
                {
                    "c": c,
                    "k": k,
                    "rho_mean": round(float(np.mean(rhos)), 3),
                    "rho_max": round(float(np.max(rhos)), 3),
                    "rho_min": round(float(np.min(rhos)), 3),
                    "iterations": round(float(np.mean(iterations)), 1),
                }
            )
    return rows
