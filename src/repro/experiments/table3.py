"""Table III — partitioning balance per graph.

The paper reports the average maximum normalized load ``rho`` obtained by
Spinner on each real graph (values between 1.04 and 1.06 with c = 1.05).
This harness partitions each dataset proxy for a few values of k and
reports the average ``rho`` per graph.
"""

from __future__ import annotations

import numpy as np

from repro.core.fast import FastSpinner
from repro.experiments.common import ExperimentScale, spinner_config
from repro.graph.datasets import load_dataset_csr

#: Graphs of Table III, in the paper's column order.
TABLE3_DATASETS = ("LJ", "G+", "TU", "TW", "FR")
#: Partition counts averaged over (scaled down from the paper's sweep).
TABLE3_K_VALUES = (4, 8, 16)


def run_table3(
    datasets: tuple[str, ...] = TABLE3_DATASETS,
    k_values: tuple[int, ...] = TABLE3_K_VALUES,
    scale: ExperimentScale | None = None,
) -> list[dict]:
    """Return one row per dataset with the average ``rho`` across k values.

    The proxies are generated directly as CSR graphs and FastSpinner
    consumes them without any dictionary materialization.
    """
    scale = scale or ExperimentScale.default()
    rows: list[dict] = []
    for name in datasets:
        graph = load_dataset_csr(name, scale=scale.graph_scale)
        spinner = FastSpinner(spinner_config(scale.seed))
        rhos = [spinner.partition(graph, k).rho for k in k_values]
        rows.append({"graph": name, "rho": round(float(np.mean(rhos)), 3)})
    return rows
