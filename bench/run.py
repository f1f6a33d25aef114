"""One end-to-end benchmark for partitioning and serving.

    python3 bench/run.py [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]

Run from the root of a checkout; the benchmark puts the checkout's ``src``
on the children's ``PYTHONPATH`` itself.  It drives the real ``repro``
CLI (``partition``, ``ingest``, ``serve``) in child processes, checks
their outputs, prints every metric as ``workload metric value unit`` and,
as its last line, one JSON object::

    {"correct": true, "attempted": 1234, "failed": 0,
     "metrics": {"setup_s": {"value": 0.81, "unit": "s"}, ...}}

Untraced runs report the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload once untraced and once with every layer
wrapped in spans and reports the per-layer metrics instead.  Each run also
writes its full record under ``bench/results/`` (ignored by git).

``--workload all`` (the default) runs the four workloads in turn and
reports their metrics as ``workload/metric``.  ``--smoke`` runs at tiny
sizes, for checking that the harness still works.

Exit codes: 0 when every check passed; 1 when a check failed or the
workload could not finish; 2 when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from procs import ROOT, SRC, Scratch
from workloads import NORMAL, SMOKE, WORKLOADS, Run

RESULTS = Path(__file__).resolve().parent / "results"


def _contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _parse(argv: list[str], default_seconds: float) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, about one second per workload")
    options = parser.parse_args(argv)
    if options.seconds is None:
        options.seconds = 1.0 if options.smoke else default_seconds
    if options.seconds <= 0:
        parser.error("--seconds must be positive")
    return options


def run_workload(name: str, options: argparse.Namespace) -> Run:
    """Run one workload in a scratch directory that is removed afterwards."""
    directory = RESULTS / f"tmp-{name}-{os.getpid()}-{time.time_ns()}"
    directory.mkdir(parents=True)
    run = Run(
        workload=name,
        seed=options.seed,
        seconds=options.seconds,
        sizes=SMOKE if options.smoke else NORMAL,
        trace=bool(options.trace),
        scratch=Scratch(directory),
    )
    try:
        WORKLOADS[name](run)
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        run.check(False, f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return run


def _verdict(run: Run, expected: list[str]) -> None:
    """Fail the run when a metric is missing, extra or not finite."""
    names = list(run.metrics)
    if sorted(names) != sorted(expected):
        missing = sorted(set(expected) - set(names))
        extra = sorted(set(names) - set(expected))
        run.check(False, f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    bad = [name for name, (value, _) in run.metrics.items() if not math.isfinite(value)]
    if bad:
        run.check(False, f"metrics not finite: {bad}")


def _save(run: Run, options: argparse.Namespace) -> None:
    record = {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
        "smoke": options.smoke,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in run.metrics.items()},
        "extra": {name: {"value": v, "unit": u} for name, (v, u) in run.extra.items()},
        "timings": run.timings,
    }
    stamp = time.strftime("%Y%m%d-%H%M%S")
    path = RESULTS / f"{run.workload}-seed{run.seed}-trace{int(run.trace)}-{stamp}-{os.getpid()}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)


def main(argv: list[str]) -> int:
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"bench: no repro sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    contract = _contract()
    options = _parse(argv, float(contract["run_seconds"]))
    group = "per_layer" if options.trace else "end_to_end"
    expected = [metric["name"] for metric in contract[group]]
    names = list(WORKLOADS) if options.workload == "all" else [options.workload]
    runs = []
    for name in names:
        run = run_workload(name, options)
        _verdict(run, expected)
        _save(run, options)
        for metric, (value, unit) in {**run.metrics, **run.extra}.items():
            print(f"{name} {metric} {value:.6g} {unit}")
        for metric, summary in run.timings.items():
            if summary.get("tail_pct", 50.0) > 50.0:
                print(f"{name} {metric}.p{summary['tail_pct']:g} {summary['tail']:.6g} {summary['unit']}")
            print(f"{name} {metric}.count {summary['count']} samples")
        for failure in run.failures:
            print(f"{name}: {failure}", file=sys.stderr)
        runs.append(run)
    prefix = len(runs) > 1
    result = {
        "correct": all(not run.failed for run in runs),
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": {
            (f"{run.workload}/{name}" if prefix else name): {"value": value, "unit": unit}
            for run in runs
            for name, (value, unit) in run.metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 1 if any(run.failed for run in runs) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
