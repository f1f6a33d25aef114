"""Tentpole benchmark: CSR baseline kernels vs. the dictionary references.

Times the four non-trivial Table I baselines — LDG, Fennel, Wang's
LPA-coarsening partitioner and METIS — end-to-end on a 100k-vertex
community graph under both implementations (the dictionary references
live in ``tests/oracles/baselines.py`` and ``tests/oracles/metis.py``)
and records the numbers in ``BENCH_baselines.json`` at the repo root, so
the performance trajectory (kernel, Pregel, Spinner, and now the
comparison harness itself) covers all four runtime layers.

The workload is a planted-partition social-style graph (communities of
~200 vertices, average degree ~26 — between LiveJournal's ~17 and
Twitter's ~70) built once as an edge array and materialized as both an
:class:`UndirectedGraph` and a :class:`CSRGraph`, so both paths partition
the identical graph.  METIS's reference walks a canonical dictionary copy
of the CSR graph, and its time includes making that copy.  Assignment
equality is asserted for every baseline; the >= 5x end-to-end speedup
floor is asserted per baseline.

Run directly with::

    PYTHONPATH=src python -m pytest benchmarks/test_baseline_speed.py -s
"""

from __future__ import annotations

import json
import time

import numpy as np
from oracles.baselines import dict_partition
from oracles.metis import metis_labels

from repro.graph.csr import CSRGraph
from bench_io import bench_path, env_float, env_int, write_bench
from repro.graph.undirected import UndirectedGraph
from repro.partitioners.fennel import FennelPartitioner
from repro.partitioners.ldg import LinearDeterministicGreedy
from repro.partitioners.metis import MetisLikePartitioner
from repro.partitioners.wang import WangPartitioner

BENCH_PATH = bench_path("BENCH_baselines.json")

NUM_VERTICES = env_int("BASELINE_BENCH_NUM_VERTICES", 100000)
COMMUNITY_SIZE = 200
INTRA_DEGREE = 12
INTER_DEGREE = 2
GRAPH_SEED = 9
PARTITIONER_SEED = 5
STREAM_K = 32
WANG_K = 8
METIS_K = 8
WANG_SWEEPS = 8
# Shared CI runners have noisy wall clocks; they may relax the floor via
# the environment (see .github/workflows/ci.yml) without touching the
# dedicated-machine contract of 5x.
MIN_SPEEDUP = env_float("BASELINE_BENCH_MIN_SPEEDUP", 5.0)
# Wall clocks on loaded machines fluctuate; report the best of N runs per
# implementation (the partitioners are deterministic, so every run yields
# the same assignment).
REPEATS = env_int("BASELINE_BENCH_REPEATS", 2)


def _planted_partition_edges(num_vertices: int, seed: int) -> np.ndarray:
    """Vectorized community graph: dense intra-community, sparse inter."""
    rng = np.random.default_rng(seed)
    intra_sources = rng.integers(num_vertices, size=num_vertices * INTRA_DEGREE)
    offsets = rng.integers(COMMUNITY_SIZE, size=num_vertices * INTRA_DEGREE)
    intra_targets = np.minimum(
        (intra_sources // COMMUNITY_SIZE) * COMMUNITY_SIZE + offsets, num_vertices - 1
    )
    inter_sources = rng.integers(num_vertices, size=num_vertices * INTER_DEGREE)
    inter_targets = rng.integers(num_vertices, size=num_vertices * INTER_DEGREE)
    sources = np.concatenate([intra_sources, inter_sources])
    targets = np.concatenate([intra_targets, inter_targets])
    keep = sources != targets
    sources, targets = sources[keep], targets[keep]
    key = np.minimum(sources, targets) * np.int64(num_vertices) + np.maximum(
        sources, targets
    )
    _, first = np.unique(key, return_index=True)
    first = np.sort(first)
    return np.stack([sources[first], targets[first]], axis=1).astype(np.int64)


def _graph_pair() -> tuple[UndirectedGraph, CSRGraph, np.ndarray]:
    edges = _planted_partition_edges(NUM_VERTICES, GRAPH_SEED)
    graph = UndirectedGraph()
    for vertex in range(NUM_VERTICES):
        graph.add_vertex(vertex)
    for u, v in edges.tolist():
        graph.add_edge(u, v)
    return graph, CSRGraph.from_edge_list(edges, NUM_VERTICES), edges


def _best_of(fn) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _dict_labels(partitioner, graph: UndirectedGraph, csr: CSRGraph, k: int) -> np.ndarray:
    if isinstance(partitioner, MetisLikePartitioner):
        return metis_labels(partitioner, csr, k)
    assignment = dict_partition(partitioner, graph, k)
    return np.asarray(
        [assignment[vertex] for vertex in range(csr.num_vertices)], dtype=np.int64
    )


def _measure(partitioner, graph: UndirectedGraph, csr: CSRGraph, k: int) -> dict:
    dict_seconds, reference = _best_of(lambda: _dict_labels(partitioner, graph, csr, k))
    csr_seconds, labels = _best_of(lambda: partitioner.partition_array(csr, k))
    assert np.array_equal(reference, labels), partitioner.name
    from repro.metrics.quality import locality, max_normalized_load

    return {
        "baseline": partitioner.name,
        "k": k,
        "dict_seconds": round(dict_seconds, 4),
        "csr_seconds": round(csr_seconds, 4),
        "speedup": round(dict_seconds / csr_seconds, 2),
        "phi": round(locality(csr, labels), 4),
        "rho": round(max_normalized_load(csr, labels, k), 4),
        "assignments_identical": True,
    }


def test_baseline_csr_kernels_speedup_and_equality():
    graph, csr, edges = _graph_pair()
    rows = [
        _measure(LinearDeterministicGreedy(seed=PARTITIONER_SEED), graph, csr, STREAM_K),
        _measure(FennelPartitioner(seed=PARTITIONER_SEED), graph, csr, STREAM_K),
        _measure(
            WangPartitioner(lpa_iterations=WANG_SWEEPS, seed=PARTITIONER_SEED),
            graph,
            csr,
            WANG_K,
        ),
        _measure(MetisLikePartitioner(seed=PARTITIONER_SEED), graph, csr, METIS_K),
    ]
    payload = {
        "benchmark": "baseline partitioners, dict reference vs CSR kernel",
        "graph": {
            "num_vertices": NUM_VERTICES,
            "num_edges": int(edges.shape[0]),
            "kind": "planted-partition community graph",
            "community_size": COMMUNITY_SIZE,
            "seed": GRAPH_SEED,
        },
        "results": rows,
        "min_speedup_asserted": MIN_SPEEDUP,
    }
    write_bench(BENCH_PATH, payload)
    print()
    print(json.dumps(payload, indent=2))
    for row in rows:
        assert row["speedup"] >= MIN_SPEEDUP, row
