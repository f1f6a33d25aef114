"""Shared I/O helpers for the ``BENCH_*.json`` benchmark artifacts.

Every ``benchmarks/test_*_speed.py`` module records its numbers in a
``BENCH_<name>.json`` file at the repo root so the performance trajectory
is tracked from PR to PR.  The conventions live here once instead of
being copy-pasted into every benchmark:

* :func:`bench_path` — artifact location (repo root, next to README);
* :func:`env_int` / :func:`env_float` — environment-variable relaxation
  knobs: shared CI runners have noisy wall clocks and may loosen a
  speedup floor or shrink a workload (see ``.github/workflows/ci.yml``)
  without touching the dedicated-machine contract baked into the code;
* :func:`host_metadata` — the host facts that make a recorded number
  interpretable later (CPU count, platform, Python version), collected
  once per process and reused so every artifact written in one run
  carries the identical block;
* :func:`write_bench` — atomic JSON write (temp file + fsync + rename,
  via :func:`repro.graph.io.atomic_write_text`) that injects the host
  metadata under the ``"host"`` key when the payload has none, and
  refuses NaN/inf metric values: a benchmark that produced a non-finite
  number has a measurement bug, and ``NaN`` would silently pass any
  ``>=`` floor comparison downstream.  The tracked artifacts at the repo
  root are only rewritten under ``REPRO_WRITE_BENCH=1``, so a plain test
  run does not leave timing noise in every diff; the benchmarks still run
  and assert their floors either way.
"""

from __future__ import annotations

import functools
import json
import math
import os
import platform
from pathlib import Path

from repro.graph.io import atomic_write_text

#: Repository root — BENCH_*.json artifacts live here.
REPO_ROOT = Path(__file__).resolve().parents[1]


def bench_path(filename: str) -> Path:
    """Absolute path of a ``BENCH_*.json`` artifact at the repo root."""
    return REPO_ROOT / filename


def env_int(name: str, default: int) -> int:
    """Integer knob from the environment (workload sizes, repeats)."""
    return int(os.environ.get(name, str(default)))


def env_float(name: str, default: float) -> float:
    """Float knob from the environment (speedup floors, budgets)."""
    return float(os.environ.get(name, str(default)))


@functools.lru_cache(maxsize=1)
def _host_metadata_once() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def host_metadata() -> dict:
    """Host facts recorded alongside every benchmark payload.

    Collected once per process (``platform.platform()`` shells out to
    ``uname`` internals on first call) and copied on the way out so
    callers can annotate their own view without corrupting the cache.
    """
    return dict(_host_metadata_once())


def _check_finite(value, key_path: str) -> None:
    """Reject NaN/inf anywhere in a benchmark payload, naming the key."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(
            f"benchmark payload contains non-finite value {value!r} at "
            f"{key_path!r}; refusing to record it"
        )
    if isinstance(value, dict):
        for key, child in value.items():
            _check_finite(child, f"{key_path}.{key}")
    elif isinstance(value, (list, tuple)):
        for index, child in enumerate(value):
            _check_finite(child, f"{key_path}[{index}]")


def write_bench(path: Path | str, payload: dict) -> None:
    """Atomically write ``payload`` (plus host metadata) as indented JSON.

    Raises :class:`ValueError` if any metric value in the payload is NaN
    or infinite — such a number means the benchmark mis-measured, and a
    recorded ``NaN`` would silently defeat every later floor comparison.
    The check runs on every call; a tracked artifact at the repo root
    (see :func:`bench_path`) is then only written when
    ``REPRO_WRITE_BENCH=1``, any other path always.
    """
    enriched = dict(payload)
    enriched.setdefault("host", host_metadata())
    for key, value in enriched.items():
        _check_finite(value, key)
    path = Path(path)
    is_artifact = path.resolve().parent == REPO_ROOT
    if is_artifact and os.environ.get("REPRO_WRITE_BENCH") != "1":
        return
    atomic_write_text(path, json.dumps(enriched, indent=2) + "\n")
