"""Tests of the benchmark harness itself.

All but the last are in-process and start no subprocess; the last runs
``bench/run.py --smoke`` so the harness cannot rot unnoticed.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

import loadgen
import measure
import spans
from workloads import SMOKE, ChurnPlan, LookupCheck

BENCH = Path(__file__).resolve().parent


# ----------------------------------------------------------------------
# percentile rule
# ----------------------------------------------------------------------
def test_summary_reports_median_highest_supported_tail_and_count():
    summary = measure.summarize([float(i) for i in range(1, 1001)])
    assert summary["count"] == 1000
    assert summary["p50"] == 500.5
    # p99.9 would leave 1 sample beyond it; p99 leaves exactly 10.
    assert summary["tail_pct"] == 99.0
    assert summary["tail"] == 990.0


@pytest.mark.parametrize(
    ("count", "pct"),
    [(20, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond_it(count, pct):
    summary = measure.summarize([float(i) for i in range(count)])
    assert summary["tail_pct"] == pct
    assert count - summary["tail"] - 1 >= measure.TAIL_MIN_BEYOND


def test_too_few_samples_give_no_tail():
    summary = measure.summarize([3.0, 1.0, 2.0])
    assert summary == {"count": 3, "p50": 2.0}
    assert measure.summarize([]) == {"count": 0}


# ----------------------------------------------------------------------
# bound comparator
# ----------------------------------------------------------------------
def test_lower_is_better_bound():
    assert measure.worse_by(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert not measure.regressed(100.0, 109.0, "lower", 0.10)
    assert measure.regressed(100.0, 111.0, "lower", 0.10)
    assert not measure.regressed(100.0, 50.0, "lower", 0.10)


def test_higher_is_better_bound():
    assert measure.worse_by(100.0, 90.0, "higher") == pytest.approx(0.10)
    assert not measure.regressed(100.0, 91.0, "higher", 0.10)
    assert measure.regressed(100.0, 89.0, "higher", 0.10)
    assert measure.worse_by(100.0, 120.0, "higher") == pytest.approx(-0.20)


def test_bound_rejects_unknown_direction_and_zero_baseline():
    with pytest.raises(ValueError):
        measure.worse_by(1.0, 2.0, "sideways")
    with pytest.raises(ValueError):
        measure.worse_by(0.0, 2.0, "lower")


def test_spread_is_quartile_distance_over_median():
    values = [10.0, 10.0, 10.0, 11.0, 12.0]
    q1, _, q3 = measure.statistics.quantiles(values, n=4)
    assert measure.spread(values) == pytest.approx((q3 - q1) / 10.0)
    assert measure.spread([5.0]) == 0.0


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(spans.time, "perf_counter", fake)
    return fake


def test_self_time_subtracts_nested_spans(clock):
    recorder = spans.Recorder()

    def inner():
        clock.now += 2.0

    traced_inner = recorder.wrap("inner", inner)

    def outer():
        clock.now += 1.0
        traced_inner()
        traced_inner()
        clock.now += 1.0

    recorder.wrap("outer", outer)()
    summary = recorder.summary()["spans"]
    assert summary["outer"]["total_s"] == 6.0
    assert summary["outer"]["self_s"] == 2.0
    assert summary["outer"]["top_s"] == 6.0
    assert summary["inner"]["calls"] == 2
    assert summary["inner"]["self_s"] == 4.0
    assert summary["inner"]["top_s"] == 0.0
    assert summary["inner"]["max_s"] == 2.0


def test_spans_on_another_thread_are_not_children(clock):
    recorder = spans.Recorder()

    def background():
        clock.now += 3.0

    traced_background = recorder.wrap("background", background, durations=True)

    def foreground():
        clock.now += 1.0
        worker = threading.Thread(target=traced_background)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    recorder.wrap("foreground", foreground)()
    summary = recorder.summary()["spans"]
    assert summary["foreground"]["total_s"] == 4.0
    assert summary["foreground"]["self_s"] == 4.0
    assert summary["background"]["top_s"] == 3.0
    assert summary["background"]["durations_s"] == [3.0]


def test_hooks_count_at_the_span_boundary():
    recorder = spans.Recorder()

    def hook(counters, args, kwargs, result):
        counters["items"] = counters.get("items", 0) + result

    traced = recorder.wrap("count", lambda n: n, hook=hook)
    traced(3)
    traced(4)
    assert recorder.summary()["counters"] == {"items": 7}


def test_coroutine_functions_are_refused():
    async def coroutine():
        return None

    with pytest.raises(TypeError):
        spans.Recorder().wrap("coroutine", coroutine)


# ----------------------------------------------------------------------
# wrapper installer
# ----------------------------------------------------------------------
FIRST_SOURCE = """
def helper(x):
    return x + 1


class Thing:
    def method(self):
        return helper(1)

    @classmethod
    def build(cls):
        return cls()
"""


@pytest.fixture
def fake_package(monkeypatch):
    package = types.ModuleType("fakepkg")
    package.__path__ = []
    first = types.ModuleType("fakepkg.first")
    second = types.ModuleType("fakepkg.second")
    for module in (package, first, second):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(FIRST_SOURCE, first.__dict__)
    exec("from fakepkg.first import helper", second.__dict__)
    return first, second


def test_installer_rebinds_from_imported_names_and_wraps_methods(fake_package):
    first, second = fake_package
    original_helper = first.helper
    original_method = first.Thing.__dict__["method"]
    recorder = spans.Recorder()
    restore = spans.install(
        recorder,
        [
            spans.Target("fakepkg.first", "helper"),
            spans.Target("fakepkg.first", "Thing.method"),
            spans.Target("fakepkg.first", "Thing.build"),
        ],
        package="fakepkg",
    )
    try:
        assert second.helper is first.helper is not original_helper
        assert second.helper(1) == 2
        assert isinstance(first.Thing.build(), first.Thing)
        assert first.Thing().method() == 2
    finally:
        restore()
    calls = {name: span["calls"] for name, span in recorder.summary()["spans"].items()}
    assert calls == {"first.helper": 2, "first.Thing.method": 1, "first.Thing.build": 1}
    assert second.helper is first.helper is original_helper
    assert first.Thing.__dict__["method"] is original_method
    assert isinstance(first.Thing.__dict__["build"], classmethod)


@pytest.mark.parametrize(
    "target",
    [
        spans.Target("fakepkg.first", "renamed_helper"),
        spans.Target("fakepkg.first", "Thing.renamed_method"),
        spans.Target("fakepkg.first", "RenamedThing.method"),
        spans.Target("fakepkg.gone", "helper"),
    ],
)
def test_installer_raises_when_a_target_is_gone(fake_package, target):
    first, second = fake_package
    original = first.helper
    with pytest.raises(LookupError):
        spans.install(
            spans.Recorder(), [spans.Target("fakepkg.first", "helper"), target], package="fakepkg"
        )
    # Targets wrapped before the failure are restored.
    assert first.helper is second.helper is original


def test_launcher_targets_all_exist():
    """Every layer the launcher traces is still where the launcher looks."""
    sys.path.insert(0, str(BENCH.parent / "src"))
    try:
        import launch

        restore = spans.install(spans.Recorder(), launch._targets(), package="repro")
        restore()
    finally:
        sys.path.remove(str(BENCH.parent / "src"))


# ----------------------------------------------------------------------
# load generator
# ----------------------------------------------------------------------
def test_open_loop_times_requests_from_their_due_time():
    answers = []
    stream = loadgen.OpenLoop(0, 1000.0, lambda i: (b"%d\n" % i, i), lambda *a: answers.append(a) or True)
    stream.begin(0.0)
    assert stream.next_due(0.0) == 0.0
    batch = stream.take(0.0105)
    assert [meta for _, meta, _ in batch] == list(range(11))
    assert [due for _, _, due in batch] == pytest.approx([i / 1000.0 for i in range(11)])
    assert stream.lags[0] == pytest.approx(0.0105)
    assert stream.next_due(0.0105) == pytest.approx(0.011)
    # Request 0 was sent 10.5 ms late; its latency still counts from 0.
    stream.answer(b"0", 0, batch[0][2], 0.020)
    assert stream.latencies == [pytest.approx(0.020)]
    assert stream.answered == 1 and stream.rejected == 0


def test_closed_loop_refills_only_at_its_threshold():
    stream = loadgen.ClosedLoop(0, 4, 1, lambda i: (b"x\n", i), lambda *a: True)
    stream.begin(0.0)
    assert len(stream.take(0.0)) == 4
    assert stream.take(0.1) == [] and stream.next_due(0.1) == float("inf")
    for _ in range(3):
        stream.answer(b"x", None, 0.0, 0.2)
    assert len(stream.take(0.3)) == 3


def test_lookup_check_rejects_errors_and_versions_going_back():
    check = LookupCheck(k=4, covered=10)
    ok = b'{"ok": true, "version": 2, "partition": 1, "fallback": false}'
    assert check(ok, 3, 0.0)
    assert not check(b'{"ok": false, "error": "boom"}', 3, 0.0)
    assert not check(ok.replace(b"2", b"1", 1), 3, 0.0)


def test_churn_lookups_ask_for_new_vertices_only_once_acknowledged():
    plan = ChurnPlan(types.SimpleNamespace(seed=3, sizes=SMOKE), vertices=100, seconds=1.0)
    assert all(plan.lookup(i)[1] < 100 for i in range(5000))
    plan.acknowledged(len(plan.ingests) - 1)
    targets = [plan.lookup(i)[1] for i in range(5000)]
    assert any(target >= 100 for target in targets)
    assert max(targets) < 100 + plan.created[-1]
    line, vertex = plan.lookup(7)
    assert json.loads(line) == {"op": "lookup", "vertex": vertex}


# ----------------------------------------------------------------------
# smoke run
# ----------------------------------------------------------------------
def test_smoke_run_of_every_workload():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        cwd=BENCH.parent,
        capture_output=True,
        text=True,
        timeout=120,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 0, proc.stderr
    assert result["failed"] == 0, proc.stderr
    assert result["attempted"] > 0
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        expected = {metric["name"] for metric in json.load(handle)["end_to_end"]}
    for workload in ("partition-LJ", "partition-store", "serve-lookups", "serve-churn"):
        reported = {key.split("/", 1)[1] for key in result["metrics"] if key.startswith(workload + "/")}
        assert reported == expected, workload
