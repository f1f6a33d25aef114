"""The benchmark's four workloads and the reduction of their traces.

Every workload drives the real ``repro`` CLI in child processes
(:mod:`procs`), checks what the program produced, and records the
end-to-end metrics every workload reports (:data:`END_TO_END`).  With
tracing on, a workload instead runs one untraced and one traced pass and
records the per-layer metrics (:func:`layer_metrics`), including the
tracing overhead on its primary metric.

* ``partition-LJ`` — ``repro partition --dataset LJ``: generation,
  dict-to-CSR conversion, the kernel, the metrics and the output file.
* ``partition-store`` — ``repro ingest`` of a seeded Watts–Strogatz edge
  list, then ``repro partition --edge-store``: the external sort and the
  memory-mapped kernel, with no generator and no dict graph.
* ``serve-lookups`` — ``repro serve`` answering reads only: open-loop
  single lookups, a rate ladder, pipelined bursts and batched lookups.
* ``serve-churn`` — the same server while churn is ingested beside
  open-loop lookups, so repartitions run next to the read path.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from loadgen import Client, ClosedLoop, OpenLoop
from measure import percentile, summarize
from procs import Scratch, Server, run_command

#: ``(name, unit)`` of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("partition_s", "s"),
    ("request_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("phi", "fraction"),
    ("rho", "ratio"),
)

#: Partitions for the partition workloads and for the service.
K_PARTITION = 32
K_SERVE = 16

#: Vertices of the LJ proxy at scale 1 (``DATASET_SPECS["LJ"]``).
LJ_BASE_VERTICES = 4000

#: A ladder step passes at this p99 with this share answered in the step,
#: and with the generator's median lateness within :data:`MAX_GEN_LAG_S`.
#: Lateness is reported, never fatal: on a shared virtual machine the
#: generator's vCPU is descheduled for 10-30 ms at a time, and an open-loop
#: latency already counts that lateness, since it is timed from the due time.
LADDER_P99_S = 0.010
LADDER_ANSWERED = 0.99
MAX_GEN_LAG_S = 0.001

#: Every n-th response is parsed in full; the rest get the prefix check.
PARSE_EVERY = 64

#: Repetitions cycle through this many Spinner seeds derived from
#: ``--seed``, so quality is a median over several partitionings and every
#: seed that repeats is checked to give the same labels.
SUB_SEEDS = 4

OK_VERSION = b'{"ok": true, "version": '


@dataclass(frozen=True)
class Sizes:
    """Input sizes and repetition counts of one benchmark size."""

    lj_scale: float
    store_vertices: int
    store_neighbours: int
    tu_scale: float
    setup_reps: int
    min_reps: int
    lookup_rate: float
    cycles: int
    lookups_per_batch: int
    churn_edges: int
    churn_period_s: float
    churn_threshold: int


NORMAL = Sizes(
    lj_scale=3.0,
    store_vertices=60_000,
    store_neighbours=8,
    tu_scale=2.0,
    setup_reps=5,
    min_reps=4,
    lookup_rate=5_000.0,
    cycles=5,
    lookups_per_batch=1024,
    churn_edges=64,
    churn_period_s=0.032,
    churn_threshold=1024,
)

SMOKE = Sizes(
    lj_scale=0.25,
    store_vertices=4_000,
    store_neighbours=4,
    tu_scale=0.2,
    setup_reps=1,
    min_reps=1,
    lookup_rate=2_000.0,
    cycles=1,
    lookups_per_batch=128,
    churn_edges=16,
    churn_period_s=0.032,
    churn_threshold=256,
)


@dataclass
class Run:
    """One workload invocation: its settings, checks and results."""

    workload: str
    seed: int
    seconds: float
    sizes: Sizes
    trace: bool
    scratch: Scratch
    metrics: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        """Count one output check; remember what failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def operations(self, attempted: int, failed: int, what: str) -> None:
        """Count ``attempted`` operations of which ``failed`` failed."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{what}: {failed} of {attempted} failed")

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def note(self, name: str, value: float, unit: str) -> None:
        """A measurement printed and saved, but not one of the gated metrics."""
        self.extra[name] = (float(value), unit)

    def timing(self, name: str, samples: list[float], unit: str, scale: float = 1.0, gated: bool = True) -> None:
        """A timing: its median is the value; its summary is kept beside it.

        The summary (:func:`measure.summarize`) gives the median, the highest
        percentile with at least ten samples beyond it, and the count.
        """
        summary = summarize(samples)
        summary.update({key: summary[key] * scale for key in ("p50", "tail") if key in summary})
        summary["unit"] = unit
        self.timings[name] = summary
        (self.metric if gated else self.note)(name, summary["p50"], unit)

    def note_lateness(self, stream, what: str) -> None:
        """Report how late an open-loop generator sent its requests."""
        lags = sorted(stream.lags)
        self.note(f"{what}_gen_lag_p99_ms", percentile(lags, 99.0) * 1e3 if lags else 0.0, "ms")


def _timely(lags: list[float]) -> bool:
    """Whether an open-loop generator kept to its schedule (``lags`` sorted)."""
    return bool(lags) and percentile(lags, 50.0) <= MAX_GEN_LAG_S


# ----------------------------------------------------------------------
# partition workloads
# ----------------------------------------------------------------------
def _parse_quality(stdout: str) -> tuple[float, float] | None:
    """``(phi, rho)`` from the CLI's ``Partitioning quality`` table."""
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "spinner":
            try:
                return float(parts[2]), float(parts[3])
            except ValueError:
                return None
    return None


def _read_assignment(path: Path) -> np.ndarray | None:
    """The ``vertex partition`` file as a 2-column array, or ``None``."""
    try:
        data = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2)
    except (OSError, ValueError):
        return None
    return data if data.shape[1] == 2 else None


def sub_seed(seed: int, index: int) -> int:
    """The Spinner seed of repetition ``index`` of a run with ``seed``."""
    return seed * 1000 + index % SUB_SEEDS


class _PartitionChecks:
    """Checks of one partition command's outputs, shared by its repetitions."""

    def __init__(self, run: Run, num_vertices: int) -> None:
        self.run = run
        self.num_vertices = num_vertices
        self.labels: dict[int, np.ndarray] = {}

    def __call__(self, done, output: Path, seed: int) -> tuple[tuple[float, float] | None, np.ndarray | None]:
        run = self.run
        if not run.check(done.exit_code == 0, f"partition exited {done.exit_code}: {done.stderr[-300:]}"):
            return None, None
        quality = _parse_quality(done.stdout)
        run.check(quality is not None, "partition printed no quality table")
        data = _read_assignment(output)
        if not run.check(data is not None, "partition output unreadable"):
            return quality, None
        ids, labels = data[:, 0], data[:, 1]
        run.check(
            ids.shape[0] == self.num_vertices
            and bool(np.array_equal(ids, np.arange(self.num_vertices))),
            f"output covers {ids.shape[0]} ids, expected 0..{self.num_vertices - 1}",
        )
        run.check(
            bool(labels.size) and labels.min() >= 0 and labels.max() < K_PARTITION,
            "output labels outside [0, k)",
        )
        first = self.labels.setdefault(seed, labels)
        if first is not labels:
            run.check(bool(np.array_equal(labels, first)), f"seed {seed} gave different labels")
        return quality, labels


def _partition_argv(source: list[str], seed: int, output: Path) -> list[str]:
    return ["partition", *source, "-k", str(K_PARTITION), "--seed", str(seed), "--output", str(output)]


def _repeat_partition(
    run: Run, source: list[str], checks, seconds: float, min_reps: int, trace: bool = False, first: int = 0
):
    """Repeat the partition command for ``seconds`` (at least ``min_reps`` times).

    Repetition ``i`` runs with :func:`sub_seed` ``(seed, first + i)``.
    """
    finished = []
    deadline = time.perf_counter() + seconds
    while len(finished) < min_reps or time.perf_counter() < deadline:
        output = run.scratch.path("assignment.txt")
        seed = sub_seed(run.seed, first + len(finished))
        done = run_command(run.scratch, _partition_argv(source, seed, output), trace=trace)
        quality, labels = checks(done, output, seed)
        finished.append((done, quality, labels))
        output.unlink(missing_ok=True)
        if done.exit_code != 0:
            break
    return finished


def _record_partition(run: Run, finished, setup: list[float]) -> None:
    """The end-to-end metrics of the partition workloads."""
    walls = [done.wall_s for done, _, _ in finished]
    qualities = [quality for _, quality, _ in finished if quality is not None]
    labels = next((lab for _, _, lab in finished if lab is not None), None)
    partition_s = statistics.median(walls)
    run.timing("setup_s", setup, "s")
    run.timing("partition_s", walls, "s")
    run.timing("request_p50_ms", walls, "ms", scale=1e3)
    if labels is not None:
        run.metric("throughput_per_s", labels.shape[0] / partition_s, "1/s")
    run.metric("peak_rss_mb", statistics.median(done.report.get("maxrss_mb", 0.0) for done, _, _ in finished), "MiB")
    if qualities:
        run.metric("phi", statistics.median(q[0] for q in qualities), "fraction")
        run.metric("rho", statistics.median(q[1] for q in qualities), "ratio")


def _trace_partition(run: Run, source: list[str], checks, before=()) -> None:
    """Pairs of one untraced and one traced command, alternating which goes first.

    ``before`` lists functions returning the argv of a command to run just
    ahead of each partition command, in the same mode — the ingest of
    ``partition-store``.
    """
    plain, traced, reports = [], [], []
    pairs = max(1, run.sizes.min_reps - 1)
    for index in range(pairs):
        order = (False, True) if index % 2 == 0 else (True, False)
        for trace in order:
            for prepare in before:
                argv = prepare()
                done = run_command(run.scratch, argv, trace=trace)
                run.check(done.exit_code == 0, f"{argv[0]} exited {done.exit_code}")
                if trace:
                    reports.append(done.report)
            (done, _, _), = _repeat_partition(run, source, checks, 0.0, 1, trace=trace, first=index)
            (traced if trace else plain).append(done)
            if trace:
                reports.append(done.report)
    overhead = statistics.median(d.wall_s for d in traced) / statistics.median(d.wall_s for d in plain) - 1
    coverage = statistics.mean(_span_coverage(done) for done in traced)
    layer_metrics(run, reports, passes=pairs, overhead=overhead, coverage=coverage)


def _span_coverage(done) -> float:
    """Share of a command's wall time in its start-up or inside root spans.

    Start-up is spawn to ``main`` (interpreter start and imports); what is
    left is argument parsing, printing and process exit.
    """
    spans = done.report.get("trace", {}).get("spans", {})
    return (done.setup_s + sum(span["top_s"] for span in spans.values())) / done.wall_s


def partition_lj(run: Run) -> None:
    scale = run.sizes.lj_scale
    source = ["--dataset", "LJ", "--scale", f"{scale:g}"]
    checks = _PartitionChecks(run, max(64, int(round(LJ_BASE_VERTICES * scale))))
    if run.trace:
        _trace_partition(run, source, checks)
        return
    finished = _repeat_partition(run, source, checks, run.seconds, run.sizes.min_reps)
    _record_partition(run, finished, [done.setup_s for done, _, _ in finished])


def watts_strogatz_edges(vertices: int, neighbours: int, beta: float, seed: int) -> np.ndarray:
    """A seeded Watts–Strogatz ring as an ``(m, 2)`` edge array in shuffled order.

    Every vertex links to its ``neighbours`` successors on the ring; each
    edge is rewired to a uniformly random other vertex with probability
    ``beta``.  No self-loops; duplicates are possible and kept.
    """
    rng = np.random.default_rng(seed)
    u = np.repeat(np.arange(vertices, dtype=np.int64), neighbours)
    v = (u + np.tile(np.arange(1, neighbours + 1, dtype=np.int64), vertices)) % vertices
    rewire = rng.random(u.shape[0]) < beta
    v[rewire] = (u[rewire] + rng.integers(1, vertices, int(rewire.sum()))) % vertices
    return np.column_stack([u, v])[rng.permutation(u.shape[0])]


def store_quality(edges: np.ndarray, labels: np.ndarray, k: int) -> tuple[float, float]:
    """Exact ``(phi, rho)`` of unit-weight ``edges`` under ``labels``."""
    u, v = edges[:, 0], edges[:, 1]
    phi = float(np.mean(labels[u] == labels[v]))
    degrees = np.bincount(u, minlength=labels.shape[0]) + np.bincount(v, minlength=labels.shape[0])
    loads = np.bincount(labels, weights=degrees, minlength=k)
    return phi, float(loads.max() / (degrees.sum() / k))


def partition_store(run: Run) -> None:
    sizes = run.sizes
    edges = watts_strogatz_edges(sizes.store_vertices, sizes.store_neighbours, 0.2, run.seed)
    edge_list = run.scratch.path("edges.txt")
    np.savetxt(edge_list, edges, fmt="%d")
    store = run.scratch.path("store")
    ingest_argv = ["ingest", "--edge-list", str(edge_list), "--store", str(store)]
    source = ["--edge-store", str(store)]
    inner = _PartitionChecks(run, sizes.store_vertices)

    def checks(done, output, seed):
        quality, labels = inner(done, output, seed)
        if quality is not None and labels is not None:
            phi, rho = store_quality(edges, labels, K_PARTITION)
            run.check(abs(phi - quality[0]) <= 1e-3, f"printed phi {quality[0]} != recomputed {phi:.4f}")
            run.check(abs(rho - quality[1]) <= 1e-3, f"printed rho {quality[1]} != recomputed {rho:.4f}")
        return quality, labels

    def ingest_once():
        shutil.rmtree(store, ignore_errors=True)
        return ingest_argv

    if run.trace:
        _trace_partition(run, source, checks, before=(ingest_once,))
        return
    setup = []
    for _ in range(sizes.setup_reps):
        done = run_command(run.scratch, ingest_once())
        run.check(done.exit_code == 0, f"ingest exited {done.exit_code}: {done.stderr[-300:]}")
        counts = done.stdout.split()[-4:-2]
        run.check(
            counts == [str(sizes.store_vertices), str(edges.shape[0])],
            f"ingest reported vertices/edges {counts}",
        )
        setup.append(done.wall_s)
    finished = _repeat_partition(run, source, checks, run.seconds, sizes.min_reps)
    _record_partition(run, finished, setup)


# ----------------------------------------------------------------------
# serving workloads
# ----------------------------------------------------------------------
class WorkloadError(RuntimeError):
    """The workload could not finish its measurement."""


def _lookup_line(vertex: int) -> bytes:
    return b'{"op": "lookup", "vertex": %d}\n' % vertex


class LookupCheck:
    """Cheap checks of single-lookup answers arriving on one connection.

    Every answer must start like a successful one and carry a version no
    older than the previous answer's.  Every :data:`PARSE_EVERY`-th is
    parsed in full: its partition lies in ``[0, k)``, a vertex the
    snapshot covers is not answered by the hash fallback, and a vertex
    answered twice at one version gets the same partition both times.
    """

    def __init__(self, k: int, covered: int) -> None:
        self.k = k
        self.covered = covered
        self.version = 0
        self.count = 0
        self.seen: dict[tuple[int, int], int] = {}

    def __call__(self, line: bytes, vertex: int, received: float) -> bool:
        if not line.startswith(OK_VERSION):
            return False
        start = len(OK_VERSION)
        try:
            version = int(line[start : line.find(b",", start)])
        except ValueError:
            return False
        if version < self.version:
            return False
        self.version = version
        self.count += 1
        if self.count % PARSE_EVERY:
            return True
        try:
            answer = json.loads(line)
            partition = answer["partition"]
        except (ValueError, KeyError, TypeError):
            return False
        return (
            0 <= partition < self.k
            and not (vertex < self.covered and answer["fallback"])
            and self.seen.setdefault((version, vertex), partition) == partition
        )


class BatchCheck:
    """Checks of batched-lookup answers: prefix always, full parse sometimes."""

    def __init__(self, k: int) -> None:
        self.k = k
        self.count = 0

    def __call__(self, line: bytes, size: int, received: float) -> bool:
        if not line.startswith(OK_VERSION):
            return False
        self.count += 1
        if self.count % PARSE_EVERY != 1:
            return True
        try:
            answer = json.loads(line)
            partitions = answer["partitions"]
        except (ValueError, KeyError, TypeError):
            return False
        return (
            len(partitions) == size
            and min(partitions) >= 0
            and max(partitions) < self.k
            and not answer["fallbacks"]
        )


def _serve_argv(run: Run, seed: int, *extra: str) -> list[str]:
    return [
        "serve", "--dataset", "TU", "--scale", f"{run.sizes.tu_scale:g}",
        "-k", str(K_SERVE), "--seed", str(seed), "--log-interval", "0", *extra,
    ]


@dataclass
class ServePass:
    """What one measured server run produced."""

    setups: list
    bootstraps: list
    qualities: list = field(default_factory=list)
    report: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    streams: list = field(default_factory=list)
    values: dict = field(default_factory=dict)
    window: tuple = ()


def _start(run: Run, extra: list[str], reps: int, trace: bool) -> tuple[Server, ServePass]:
    """Start the server ``reps`` times, timing each start; keep the last running.

    Start ``i`` partitions with :func:`sub_seed` ``(seed, i)``; each start
    records its set-up time, its bootstrap partitioning time and quality.
    """
    result = ServePass(setups=[], bootstraps=[])
    for index in range(reps):
        server = Server(run.scratch, _serve_argv(run, sub_seed(run.seed, index), *extra), trace=trace)
        try:
            result.setups.append(server.setup_s)
            stats = server.request({"op": "stats"})["stats"]
            result.bootstraps.append(stats["last_repartition"]["wall_seconds"])
            result.qualities.append(server.request({"op": "quality"}))
        except BaseException:
            server.stop()
            raise
        if index == reps - 1:
            return server, result
        run.check(server.stop() == 0, "server exited non-zero")
    raise ValueError("reps must be >= 1")


def _finish(run: Run, server: Server, result: ServePass) -> None:
    """Final stats and quality, then shut the server down and read its report."""
    result.stats = server.request({"op": "stats"})["stats"]
    result.quality = server.request({"op": "quality"})
    run.check(bool(result.quality.get("ok")), "quality op failed")
    run.check(server.stop() == 0, "server exited non-zero")
    result.report = server.report


def _phase(run: Run, client: Client, stream, seconds: float, what: str) -> None:
    left = client.run([stream], seconds)
    run.operations(stream.sent, stream.rejected + left, what)
    if left:
        raise WorkloadError(f"{what}: {left} requests unanswered")


def _rate(stream) -> float:
    """Answers per second from the stream's start to its last answer."""
    if not stream.answered_at:
        return 0.0
    return stream.answered / (stream.answered_at[-1] - stream.start)


def _lookups_pass(run: Run, seconds: float, reps: int, trace: bool) -> ServePass:
    """Start the server, then measure in cycles of open-loop, single, burst and batch phases.

    The phases alternate so that each metric samples the whole run rather
    than one stretch of it; a short rate ladder follows.  The gated latency
    is the single phase's: one caller with one lookup in flight.  On a
    shared virtual machine an open loop's median is set by how long an idle
    vCPU takes to wake (0.4-0.9 ms, lower at higher rates), which the
    program does not control; it is reported beside the gated one.
    """
    sizes = run.sizes
    server, result = _start(run, [], reps, trace)
    try:
        vertices = server.request({"op": "stats"})["stats"]["graph_vertices"]
        pool = np.random.default_rng(run.seed).integers(0, vertices, size=1 << 16).tolist()
        lines = [_lookup_line(v) for v in pool]
        mask = len(pool) - 1

        def single(i):
            return lines[i & mask], pool[i & mask]

        size = sizes.lookups_per_batch
        batches = [
            json.dumps({"op": "lookup", "vertices": pool[i * size : (i + 1) * size]}).encode() + b"\n"
            for i in range(len(pool) // size)
        ]

        def batch(i):
            return batches[i % len(batches)], size

        check = LookupCheck(K_SERVE, vertices)
        cycle_s = 0.8 * seconds / sizes.cycles
        bases, singles, bursts, batch_rates = [], [], [], []
        with Client(server.host, server.port, 1) as client:
            began = time.perf_counter()
            for _ in range(sizes.cycles):
                base = OpenLoop(0, sizes.lookup_rate, single, check)
                _phase(run, client, base, 0.2 * cycle_s, "open-loop lookups")
                bases.append(base)
                one = ClosedLoop(0, 1, 0, single, check)
                _phase(run, client, one, 0.3 * cycle_s, "single lookups")
                singles += one.latencies
                # Topped up at half the window, so the server never idles
                # waiting for the client: on a shared virtual machine each
                # such idle costs a vCPU wake-up, which can cost more than
                # the lookups.
                burst = ClosedLoop(0, 256, 128, single, check)
                _phase(run, client, burst, 0.3 * cycle_s, "burst lookups")
                bursts.append(_rate(burst))
                batched = ClosedLoop(0, 8, 7, batch, BatchCheck(K_SERVE))
                _phase(run, client, batched, 0.2 * cycle_s, "batch lookups")
                batch_rates.append(_rate(batched) * size)
            result.window = (began, time.perf_counter())
            pooled = _pool(bases)
            run.note_lateness(pooled, "lookup")
            result.streams.append(pooled)
            max_rate = sizes.lookup_rate if _step_passes(pooled, None) else 0.0
            factors = (2, 4, 6, 8, 10, 12)
            for factor in factors:
                step_s = 0.2 * seconds / len(factors)
                step = OpenLoop(0, sizes.lookup_rate * factor, single, check)
                _phase(run, client, step, step_s, "ladder lookups")
                if not (max_rate and _step_passes(step, step_s)):
                    break
                max_rate = sizes.lookup_rate * factor
        result.values = {
            "latencies": singles,
            "open_loop_latencies": pooled.latencies,
            "throughput_per_s": statistics.median(bursts),
            "max_rate": max_rate,
            "batch_lookups_per_s": statistics.median(batch_rates),
        }
        _finish(run, server, result)
        run.check(result.quality.get("version") == 1, "read-only server changed version")
    finally:
        server.stop()
    return result


def _pool(streams: list) -> SimpleNamespace:
    """The samples of several open-loop phases as one stream-like record."""
    return SimpleNamespace(
        lags=[lag for stream in streams for lag in stream.lags],
        latencies=[latency for stream in streams for latency in stream.latencies],
        sent=sum(stream.sent for stream in streams),
        rejected=sum(stream.rejected for stream in streams),
    )


def _step_passes(stream, seconds: float | None) -> bool:
    """A rate step holds its rate: p99 within the limit, answers in the step.

    ``seconds`` is the step length; ``None`` skips the answered-in-step
    test (for pooled phases, whose drains were not part of any step).
    """
    if not stream.latencies or not stream.lags:
        return False
    in_step = stream.sent
    if seconds is not None:
        end = stream.start + seconds
        in_step = sum(1 for at in stream.answered_at if at <= end)
    return (
        percentile(sorted(stream.latencies), 99.0) <= LADDER_P99_S
        and in_step >= LADDER_ANSWERED * stream.sent
        and _timely(sorted(stream.lags))
    )


def _record_serve(run: Run, result: ServePass, partitions: list[float], throughput: float) -> None:
    run.timing("setup_s", result.setups, "s")
    run.timing("partition_s", partitions, "s")
    run.timing("request_p50_ms", result.values["latencies"], "ms", scale=1e3)
    run.metric("throughput_per_s", throughput, "1/s")
    run.metric("peak_rss_mb", result.report.get("maxrss_mb", 0.0), "MiB")
    run.metric("phi", result.values["phi"], "fraction")
    run.metric("rho", result.values["rho"], "ratio")


def serve_lookups(run: Run) -> None:
    if run.trace:
        plain = _lookups_pass(run, run.seconds / 2, 1, trace=False)
        traced = _lookups_pass(run, run.seconds / 2, 1, trace=True)
        overhead = plain.values["throughput_per_s"] / traced.values["throughput_per_s"] - 1
        layer_metrics(run, [traced.report], 1, overhead, stats=traced.stats, streams=traced.streams, window=traced.window)
        return
    result = _lookups_pass(run, run.seconds, run.sizes.setup_reps, trace=False)
    result.values["phi"] = statistics.median(q["phi"] for q in result.qualities)
    result.values["rho"] = statistics.median(q["rho"] for q in result.qualities)
    _record_serve(run, result, result.bootstraps, result.values["throughput_per_s"])
    run.timing("open_loop_p50_ms", result.values["open_loop_latencies"], "ms", scale=1e3, gated=False)
    run.note("max_rate", result.values["max_rate"], "1/s")
    run.note("batch_lookups_per_s", result.values["batch_lookups_per_s"], "1/s")


class ChurnPlan:
    """Seeded ingest requests and lookups for one churn pass.

    95% of ingested edges join two existing vertices; 5% attach a new
    vertex (ids from ``vertices`` upward, announced in the request's
    ``vertices``).  5% of lookups ask for a vertex created by an ingest
    already acknowledged; the rest for existing ones.  Lookup draws repeat
    every 65,536 lookups.
    """

    def __init__(self, run: Run, vertices: int, seconds: float) -> None:
        sizes = run.sizes
        rng = np.random.default_rng(run.seed)
        self.vertices = vertices
        self.ingests: list[bytes] = []
        #: New ids created by ingests ``0..i``, for each ingest ``i``.
        self.created: list[int] = []
        next_id = vertices
        for _ in range(int(seconds / sizes.churn_period_s) + 2):
            u = rng.integers(0, vertices, sizes.churn_edges)
            v = rng.integers(0, vertices, sizes.churn_edges)
            v = np.where(v == u, (v + 1) % vertices, v)
            fresh = np.flatnonzero(rng.random(sizes.churn_edges) < 0.05)
            u[fresh] = np.arange(next_id, next_id + fresh.shape[0])
            next_id += fresh.shape[0]
            self.created.append(next_id - vertices)
            request = {"op": "ingest", "edges": np.column_stack([u, v]).tolist(), "vertices": u[fresh].tolist()}
            self.ingests.append(json.dumps(request).encode() + b"\n")
        self.acked = 0
        draws = 1 << 16
        self._existing = rng.integers(0, vertices, draws).tolist()
        self._wants_new = (rng.random(draws) < 0.05).tolist()
        self._pick = rng.random(draws).tolist()

    def ingest(self, index: int) -> tuple[bytes, int]:
        return self.ingests[index], index

    def acknowledged(self, index: int) -> None:
        self.acked = self.created[index]

    def lookup(self, index: int) -> tuple[bytes, int]:
        slot = index & 0xFFFF
        if self._wants_new[slot] and self.acked:
            vertex = self.vertices + int(self._pick[slot] * self.acked)
        else:
            vertex = self._existing[slot]
        return _lookup_line(vertex), vertex


def _churn_pass(run: Run, seconds: float, reps: int, trace: bool) -> ServePass:
    """Open-loop churn ingest beside one caller looking up one vertex at a time.

    The lookups are a closed loop for the reason given in
    :func:`_lookups_pass`; the ingest stays open-loop, so every pass
    submits the same edges at the same rate and triggers repartitions on
    the same schedule.
    """
    sizes = run.sizes
    server, result = _start(run, ["--edge-threshold", str(sizes.churn_threshold)], reps, trace)
    try:
        start = server.request({"op": "stats"})["stats"]
        vertices = start["graph_vertices"]
        bootstrap = result.qualities[-1]
        plan = ChurnPlan(run, vertices, seconds)
        check = LookupCheck(K_SERVE, vertices)
        triggered: list[tuple[float, int]] = []
        repartitions: list[float] = []

        def on_lookup(line, vertex, received):
            ok = check(line, vertex, received)
            while triggered and check.version >= triggered[0][1]:
                repartitions.append(received - triggered.pop(0)[0])
            return ok

        def on_ack(line, meta, received):
            try:
                ack = json.loads(line)
            except ValueError:
                return False
            if ack.get("repartition_triggered"):
                triggered.append((received, ack["version"] + 1))
            plan.acknowledged(meta)
            return ack.get("ok") is True

        lookups = ClosedLoop(0, 1, 0, plan.lookup, on_lookup)
        churn = OpenLoop(1, 1.0 / sizes.churn_period_s, plan.ingest, on_ack)
        with Client(server.host, server.port, 2) as client:
            began = time.perf_counter()
            left = client.run([lookups, churn], seconds)
            result.window = (began, time.perf_counter())
        run.operations(lookups.sent, lookups.rejected, "churn lookups")
        run.operations(churn.sent, churn.rejected, "ingests")
        if left:
            raise WorkloadError(f"churn: {left} requests unanswered")
        run.note_lateness(churn, "ingest")
        result.streams += [lookups, churn]
        _settle(server)
        _finish(run, server, result)
        stats = result.stats
        run.check(stats["version"] == stats["repartitions"], f"version {stats['version']} after {stats['repartitions']} publishes")
        run.check(check.version <= stats["version"], "a lookup saw a version never published")
        # Uniformly random churn edges are mostly cut edges, so phi as a
        # share must fall; the locally kept weight must not.
        kept = result.quality["phi"] * stats["graph_edges"]
        run.check(
            kept >= 0.9 * bootstrap["phi"] * start["graph_edges"],
            f"local edges fell from {bootstrap['phi'] * start['graph_edges']:.0f} to {kept:.0f}",
        )
        run.check(bool(repartitions), "no churn-triggered repartition completed")
    finally:
        server.stop()
    result.values = {
        "latencies": lookups.latencies,
        "lookup_max_ms": max(lookups.latencies) * 1e3,
        "ingest_acks": churn.latencies,
        "repartition_s": statistics.median(repartitions) if repartitions else math.nan,
        "repartitions": repartitions,
        "graph_vertices": stats["graph_vertices"],
        "phi": result.quality["phi"],
        "rho": result.quality["rho"],
    }
    return result


def _settle(server: Server) -> None:
    """Wait until no repartition is in flight, so the final checks see a stable server."""
    for _ in range(10):
        stats = server.request({"op": "stats"})["stats"]
        if not stats["repartition_in_flight"]:
            return
        server.request({"op": "wait_version", "version": stats["version"] + 1, "timeout": 30.0})
    raise WorkloadError("repartitions did not settle")


def serve_churn(run: Run) -> None:
    if run.trace:
        plain = _churn_pass(run, run.seconds / 2, 1, trace=False)
        traced = _churn_pass(run, run.seconds / 2, 1, trace=True)
        overhead = traced.values["repartition_s"] / plain.values["repartition_s"] - 1
        layer_metrics(run, [traced.report], 1, overhead, stats=traced.stats, streams=traced.streams, window=traced.window)
        run.note("traced_lookup_max_ms", traced.values["lookup_max_ms"], "ms")
        return
    result = _churn_pass(run, run.seconds, run.sizes.setup_reps, trace=False)
    values = result.values
    _record_serve(run, result, values["repartitions"], values["graph_vertices"] / values["repartition_s"])
    run.note("lookup_max_ms", values["lookup_max_ms"], "ms")
    run.timing("ingest_ack_p50_ms", values["ingest_acks"], "ms", scale=1e3, gated=False)


WORKLOADS = {
    "partition-LJ": partition_lj,
    "partition-store": partition_store,
    "serve-lookups": serve_lookups,
    "serve-churn": serve_churn,
}


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: Spans whose self time is a per-layer metric.
SELF_TIMES = (
    "graph.datasets.load_dataset",
    "graph.conversion.to_weighted_csr",
    "graph.conversion.ensure_undirected",
    "graph.csr.CSRGraph.from_undirected",
    "graph.undirected.UndirectedGraph.copy",
    "graph.io.ingest_edge_list",
    "graph.io.write_partitioning",
    "graph.io.write_partitioning_array",
    "graph.mmap_store.open_store",
    "core.fast.FastSpinner.partition",
    "core.fast.FastSpinner.adapt_to_graph_changes",
    "core.fast.FastSpinnerResult.to_assignment",
    "core.incremental.incremental_initial_labels",
    "metrics.quality.locality",
    "metrics.quality.max_normalized_load",
    "serving.churn.ChurnPipeline.bootstrap",
    "serving.store.AssignmentSnapshot.lookup",
    "serving.store.AssignmentSnapshot.lookup_many",
    "serving.store.AssignmentSnapshot.to_assignment",
)


def _merge(reports: list[dict]) -> tuple[dict, dict, dict]:
    spans: dict[str, dict] = {}
    counters: dict[str, float] = {}
    probes = {"gc_s": 0.0, "gc_max_s": 0.0, "loop_lags_s": []}
    for report in reports:
        trace = report.get("trace", {})
        for name, span in trace.get("spans", {}).items():
            merged = spans.setdefault(name, {"calls": 0, "self_s": 0.0, "max_s": 0.0, "durations_s": []})
            merged["calls"] += span["calls"]
            merged["self_s"] += span["self_s"]
            merged["max_s"] = max(merged["max_s"], span["max_s"])
            merged["durations_s"] += span["durations_s"]
        for key, value in trace.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
        probe = report.get("probes", {})
        probes["gc_s"] += probe.get("gc_s", 0.0)
        probes["gc_max_s"] = max(probes["gc_max_s"], probe.get("gc_max_s", 0.0))
        probes["loop_lags_s"] += probe.get("loop_lags_s", [])
    return spans, counters, probes


def layer_metrics(
    run: Run,
    reports: list[dict],
    passes: int,
    overhead: float,
    coverage: float = 0.0,
    stats: dict | None = None,
    streams: list = (),
    window: tuple = (),
) -> None:
    """Reduce the traced children's reports to the per-layer metrics.

    Counts and times are per pass (one partition command, one ingest and
    partition, or one server run); maxima and medians are over all spans.
    Event-loop lag counts only sleeps that began inside ``window`` (the
    client's measurement, on the host-wide ``perf_counter`` clock), so the
    start-up and final ``quality`` passes on the loop are left out.
    """
    spans, counters, probes = _merge(reports)
    stats = stats or {}
    empty = {"calls": 0, "self_s": 0.0, "max_s": 0.0, "durations_s": []}

    def span(name: str) -> dict:
        return spans.get(name, empty)

    def median(name: str) -> float:
        durations = span(name)["durations_s"]
        return statistics.median(durations) if durations else 0.0

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    put = run.metric
    lags = sorted(lag for began, lag in probes["loop_lags_s"] if not window or window[0] <= began <= window[1])
    put("runtime.import_s", statistics.mean(r.get("import_s", 0.0) for r in reports), "s")
    put("runtime.gc_s", probes["gc_s"] / passes, "s")
    put("runtime.gc_max_ms", probes["gc_max_s"] * 1e3, "ms")
    put("runtime.loop_lag_p99_ms", percentile(lags, 99.0) * 1e3 if lags else 0.0, "ms")
    put("runtime.loop_lag_max_ms", lags[-1] * 1e3 if lags else 0.0, "ms")
    put("runtime.trace_overhead", overhead, "fraction")
    put("runtime.span_coverage", coverage, "fraction")
    for name in SELF_TIMES:
        put(f"{name}.self_s", span(name)["self_s"] / passes, "s")
    put("graph.csr.CSRGraph.from_undirected.calls", span("graph.csr.CSRGraph.from_undirected")["calls"] / passes, "count")
    put("core.fast.FastSpinner.partition.iterations", counters.get("core.fast.iterations", 0) / passes, "count")
    put(
        "core.fast.half_edges_per_s",
        ratio(counters.get("core.fast.half_edge_visits", 0), span("core.fast.FastSpinner.partition")["self_s"]),
        "1/s",
    )
    put(
        "core.fast.migration_ratio",
        ratio(counters.get("core.fast.migrations", 0), counters.get("core.fast.vertex_visits", 0)),
        "fraction",
    )
    put("serving.churn.ChurnPipeline.freeze.max_ms", span("serving.churn.ChurnPipeline.freeze")["max_s"] * 1e3, "ms")
    put("serving.churn.ChurnPipeline.execute.p50_s", median("serving.churn.ChurnPipeline.execute"), "s")
    put("serving.churn.ChurnPipeline.publish.max_ms", span("serving.churn.ChurnPipeline.publish")["max_s"] * 1e3, "ms")
    put("serving.churn.ChurnPipeline.ingest.p50_us", median("serving.churn.ChurnPipeline.ingest") * 1e6, "us")
    put("serving.churn.ChurnPipeline.ingest.calls", span("serving.churn.ChurnPipeline.ingest")["calls"] / passes, "count")
    put(
        "serving.churn.added_ratio",
        ratio(counters.get("serving.churn.edges_added", 0), counters.get("serving.churn.edges_submitted", 0)),
        "fraction",
    )
    put("serving.store.AssignmentSnapshot.lookup.calls", span("serving.store.AssignmentSnapshot.lookup")["calls"] / passes, "count")
    many = span("serving.store.AssignmentSnapshot.lookup_many")["calls"]
    put("serving.store.AssignmentSnapshot.lookup_many.calls", many / passes, "count")
    put(
        "serving.store.AssignmentSnapshot.lookup_many.mean_batch",
        ratio(counters.get("serving.store.lookup_many_vertices", 0), many),
        "count",
    )
    put("serving.store.AssignmentStore.publish.max_ms", span("serving.store.AssignmentStore.publish")["max_s"] * 1e3, "ms")
    # Every single lookup the service answered without its own
    # ShardingService.lookup call was answered inside a fused run.
    unfused = span("serving.service.ShardingService.lookup")["calls"]
    batch_requests = span("serving.service.ShardingService.lookup_many")["calls"]
    fused = max(0, stats.get("lookups_total", 0) - unfused - batch_requests)
    put("serving.service.fused_ratio", ratio(fused, fused + unfused), "fraction")
    put("serving.service.pipeline_depth_mean", stats.get("pipeline_depth_mean", 0.0), "count")
    put("serving.service.rejected_responses", sum(stream.rejected for stream in streams), "count")
    lateness = [percentile(sorted(s.lags), 99.0) for s in streams if getattr(s, "lags", None)]
    put("client.gen_lag_p99_ms", max(lateness) * 1e3 if lateness else 0.0, "ms")
