"""Unit tests for the shared ``BENCH_*.json`` I/O helpers."""

from __future__ import annotations

import json
import math

import pytest

from benchmarks.bench_io import (
    _host_metadata_once,
    host_metadata,
    write_bench,
)


def test_host_metadata_collected_once_and_copied():
    first = host_metadata()
    second = host_metadata()
    assert first == second
    assert first is not second  # callers get copies, not the cache
    first["cpu_count"] = -1
    assert host_metadata()["cpu_count"] != -1  # mutation didn't leak back
    assert _host_metadata_once() is _host_metadata_once()  # memoized


def test_write_bench_injects_host_once(tmp_path):
    target = tmp_path / "BENCH_test.json"
    write_bench(target, {"metric": 1.5})
    payload = json.loads(target.read_text())
    assert payload["metric"] == 1.5
    assert set(payload["host"]) == {"cpu_count", "platform", "python"}
    # An explicit host block is kept verbatim, not overwritten.
    write_bench(target, {"metric": 2.0, "host": {"note": "pinned"}})
    assert json.loads(target.read_text())["host"] == {"note": "pinned"}


@pytest.mark.parametrize(
    ("payload", "fragment"),
    [
        ({"qps": float("nan")}, "'qps'"),
        ({"rows": [{"qps": float("inf")}]}, "'rows[0].qps'"),
        ({"nested": {"deep": [1.0, -math.inf]}}, "'nested.deep[1]'"),
    ],
)
def test_write_bench_rejects_non_finite_metrics(tmp_path, payload, fragment):
    target = tmp_path / "BENCH_test.json"
    with pytest.raises(ValueError, match="non-finite"):
        try:
            write_bench(target, payload)
        except ValueError as exc:
            assert fragment in str(exc)
            raise
    assert not target.exists()  # nothing was written


def test_write_bench_accepts_finite_payload(tmp_path):
    target = tmp_path / "BENCH_test.json"
    write_bench(target, {"rows": [{"qps": 1e6, "n": 3}], "note": "ok"})
    assert json.loads(target.read_text())["rows"][0]["qps"] == 1e6


def test_write_bench_skips_repo_artifacts_unless_enabled(tmp_path, monkeypatch):
    import benchmarks.bench_io as bench_io

    monkeypatch.setattr(bench_io, "REPO_ROOT", tmp_path)
    target = tmp_path / "BENCH_test.json"
    monkeypatch.delenv("REPRO_WRITE_BENCH", raising=False)
    write_bench(target, {"metric": 1.0})
    assert not target.exists()
    # The non-finite check still runs when nothing is written.
    with pytest.raises(ValueError, match="non-finite"):
        write_bench(target, {"metric": float("nan")})
    monkeypatch.setenv("REPRO_WRITE_BENCH", "1")
    write_bench(target, {"metric": 2.0})
    assert json.loads(target.read_text())["metric"] == 2.0
