"""Figure 3 — partitioning locality on real graphs.

(a) the ratio of local edges ``phi`` as a function of the number of
partitions for each graph, and (b) the improvement in locality relative to
hash partitioning for the same configurations.  The paper's observation:
``phi`` decreases slowly with k and stays far above hash partitioning (up
to 250x better at k = 512).

Every stage — proxy generation, Spinner, hash partitioning and the
locality metric — runs on CSR arrays.
"""

from __future__ import annotations

from repro.core.fast import FastSpinner
from repro.experiments.common import ExperimentScale, spinner_config
from repro.graph.datasets import load_dataset_csr
from repro.metrics.quality import locality
from repro.partitioners.hashing import HashPartitioner

#: Graphs of Figure 3 (the Yahoo! web graph is shown separately in Fig. 4).
FIG3_DATASETS = ("LJ", "G+", "TU", "TW", "FR")
#: Partition counts (the paper sweeps 2..512; scaled down by default).
FIG3_K_VALUES = (2, 4, 8, 16, 32, 64)


def run_fig3(
    datasets: tuple[str, ...] = FIG3_DATASETS,
    k_values: tuple[int, ...] = FIG3_K_VALUES,
    scale: ExperimentScale | None = None,
) -> list[dict]:
    """Return one row per (dataset, k) with Spinner's and hash's locality.

    ``improvement`` is the ratio ``phi_spinner / phi_hash`` — the y-axis of
    Figure 3(b).
    """
    scale = scale or ExperimentScale.default()
    rows: list[dict] = []
    hash_partitioner = HashPartitioner()
    for name in datasets:
        graph = load_dataset_csr(name, scale=scale.graph_scale)
        spinner = FastSpinner(spinner_config(scale.seed))
        for k in k_values:
            result = spinner.partition(graph, k, track_history=False)
            hash_assignment = hash_partitioner.partition_array(graph, k)
            hash_phi = locality(graph, hash_assignment)
            improvement = result.phi / hash_phi if hash_phi > 0 else float("inf")
            rows.append(
                {
                    "graph": name,
                    "k": k,
                    "phi": round(result.phi, 3),
                    "phi_hash": round(hash_phi, 3),
                    "improvement": round(improvement, 2),
                }
            )
    return rows
