"""Summarize one or two sets of benchmark runs against ``BENCHMARK.json``.

    python3 bench/compare.py SET_A [SET_B]

A set is a directory of run records as ``bench/run.py`` writes them to
``bench/results/`` (untraced runs only; move each set's records into a
directory of its own).  For every workload and end-to-end metric the
script prints the median over the set's runs and their spread — the
quartile distance as a share of the median — next to the metric's bound.
With a second set it also prints how much worse the second median is than
the first, as a share of the first, and flags a regression beyond the
bound.  It exits 1 when any spread exceeds its bound (``setup_s``
excepted) or any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from measure import regressed, spread, worse_by

ROOT = Path(__file__).resolve().parent.parent


def load_set(directory: Path) -> dict:
    """``{workload: {metric: [values]}}`` over a set's untraced run records."""
    values: dict = defaultdict(lambda: defaultdict(list))
    for path in sorted(directory.glob("*.json")):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        if record.get("trace") or record.get("failed"):
            continue
        for name, metric in record["metrics"].items():
            values[record["workload"]][name].append(metric["value"])
    return values


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    sets = [load_set(Path(arg)) for arg in argv]
    first = sets[0]
    failed = False
    header = f"{'workload':16} {'metric':17} {'runs':>4} {'median':>12} {'spread':>7} {'bound':>6}"
    print(header + (f" {'median 2':>12} {'spread 2':>8} {'worse by':>8}" if len(sets) == 2 else ""))
    for workload in sorted(first):
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            row = first[workload].get(name, [])
            if not row:
                continue
            line = f"{workload:16} {name:17} {len(row):4d} {statistics.median(row):12.6g} {spread(row):7.3f} {bound:6.3f}"
            spreads = [spread(row)]
            if len(sets) == 2:
                other = sets[1].get(workload, {}).get(name, [])
                if other:
                    base, new = statistics.median(row), statistics.median(other)
                    spreads.append(spread(other))
                    change = worse_by(base, new, metric["better"])
                    flag = regressed(base, new, metric["better"], bound)
                    failed |= flag
                    line += f" {new:12.6g} {spread(other):8.3f} {change:8.3f}" + (" REGRESSED" if flag else "")
            if name != "setup_s" and max(spreads) > bound:
                failed = True
                line += " SPREAD>BOUND"
            print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
