"""Tentpole benchmark: 100M-edge out-of-core ingestion + partitioning.

Drives :mod:`repro.experiments.scale` in a fresh subprocess — ingestion of
a synthetic 100M-edge stream through the chunked external sort into an
on-disk CSR store, followed by a FastSpinner partition streaming the
opened store — and asserts that the subprocess's peak RSS stays
under a configurable memory budget (default 2 GiB) even though the store
holds ~1.6 GB of half-edge arrays plus spool/run temporaries.  The
numbers (edges/second for both phases, peak RSS) are recorded in
``BENCH_scale.json`` at the repo root.

The subprocess isolation matters: ``resource.getrusage`` reports a
process-lifetime high-water mark, so measuring in-process would inherit
whatever pytest and earlier tests already touched.

Defaults take a few minutes and ~5 GB of scratch disk; both are
environment-tunable (CI runs a reduced-size smoke, see
``.github/workflows/ci.yml``)::

    SCALE_BENCH_NUM_EDGES=2000000 \
        PYTHONPATH=src python -m pytest benchmarks/test_scale_speed.py -s
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from bench_io import bench_path, env_float, env_int, write_bench

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = bench_path("BENCH_scale.json")

NUM_EDGES = env_int("SCALE_BENCH_NUM_EDGES", 100000000)
NUM_PARTITIONS = env_int("SCALE_BENCH_NUM_PARTITIONS", 8)
MAX_ITERATIONS = env_int("SCALE_BENCH_MAX_ITERATIONS", 10)
SEED = env_int("SCALE_BENCH_SEED", 42)
#: Peak-RSS ceiling for the subprocess, in MiB (the ISSUE's "configurable
#: memory budget, default <= 2 GB").
MEMORY_BUDGET_MB = env_float("SCALE_BENCH_MEMORY_BUDGET_MB", 2048)

# Scratch requirement: the final store holds 16 bytes per half-edge
# (indices + hidden page-cache copies aside, weights are unit and
# omitted), and during ingestion the spool (16 B/edge) and sorted runs
# (8 B/half-edge) coexist with it.  Budget ~56 B/edge plus slack.
_REQUIRED_DISK_BYTES = NUM_EDGES * 56 + (1 << 30)


def _scratch_dir() -> str:
    """Scratch root for the store (``SCALE_BENCH_TMPDIR`` or system tmp)."""
    return os.environ.get("SCALE_BENCH_TMPDIR", tempfile.gettempdir())


def test_out_of_core_scale_under_memory_budget():
    free = shutil.disk_usage(_scratch_dir()).free
    if free < _REQUIRED_DISK_BYTES:
        pytest.skip(
            f"needs ~{_REQUIRED_DISK_BYTES / 1e9:.1f} GB scratch in "
            f"{_scratch_dir()}, only {free / 1e9:.1f} GB free"
        )

    store_dir = tempfile.mkdtemp(prefix="spinner-scale-bench-", dir=_scratch_dir())
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    try:
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.experiments.scale",
                "--num-edges",
                str(NUM_EDGES),
                "--num-partitions",
                str(NUM_PARTITIONS),
                "--max-iterations",
                str(MAX_ITERATIONS),
                "--seed",
                str(SEED),
                "--store",
                store_dir,
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        stats = json.loads(proc.stdout)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    payload = {
        "benchmark": "out-of-core ingestion + mmap-tier FastSpinner",
        "memory_budget_mb": MEMORY_BUDGET_MB,
        "results": stats,
    }
    write_bench(BENCH_PATH, payload)
    print()
    print(json.dumps(payload, indent=2))

    assert stats["num_edges"] == NUM_EDGES
    assert stats["store_half_edges"] == 2 * NUM_EDGES
    assert stats["iterations"] >= 1
    assert stats["peak_rss_mb"] <= MEMORY_BUDGET_MB, stats
