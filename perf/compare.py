#!/usr/bin/env python3
"""Compare benchmark result sets of a parent commit and a change.

    python3 perf/compare.py --parent p1.json p2.json ... --change c1.json c2.json ...

Each file is one result set written by `perf/run.py` (perf/out/results.json).
Give the sets in the order they ran, alternating which side ran first, so
parent[i] and change[i] form a pair. For every workload and end-to-end
metric in BENCHMARK.json it reports each side's median and quartiles, the
change's relative difference (positive = worse), the win fraction over the
pairs and a verdict:

  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  either side's spread (quartile distance over median) is wider
              than the bound, and not every change run beats every parent
              run — the runs cannot tell;
  improved    at least ten pairs ran, the change wins at least nine tenths
              of them (ties count for neither) and the medians differ by
              more than the parent's own quartile distance;
  pass        none of the above.

It also reports each side's failed-operation share per workload; a change
that fails more operations than its parent is regressed whatever its speed.
Exit status: 0 when nothing regressed or is unresolved, 1 otherwise.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

WIN_FRACTION = 0.9
MIN_PAIRS = 10


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them; a single
    value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def better(a, b, direction):
    """True when value a is strictly better than b."""
    return a < b if direction == "lower" else a > b


def win_fraction(parent, change, direction):
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p, direction))
    return wins / len(pairs) if pairs else 0.0


def verdict(parent, change, bound, direction):
    """One cell's verdict and its numbers (see the module docstring)."""
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    diff = (c_med - p_med) / abs(p_med) if p_med else 0.0
    worse = diff if direction == "lower" else -diff
    wins = win_fraction(parent, change, direction)
    all_better = all(better(c, p, direction) for c in change for p in parent)
    all_worse = all(better(p, c, direction) for c in change for p in parent)
    wide = max(spread(parent), spread(change)) > bound
    if worse > bound and (all_worse or not wide):
        result = "regressed"
    elif wide and not all_better:
        result = "unresolved"
    elif (min(len(parent), len(change)) >= MIN_PAIRS and wins >= WIN_FRACTION
          and worse < 0 and abs(c_med - p_med) > (p_q3 - p_q1)):
        result = "improved"
    else:
        result = "pass"
    return {"verdict": result, "diff": diff, "wins": wins,
            "parent": (p_q1, p_med, p_q3), "change": quartiles(change)}


def failed_share(sets, workload):
    attempted = sum(s["workloads"][workload]["attempted"] for s in sets)
    failed = sum(s["workloads"][workload]["failed"] for s in sets)
    return failed / attempted if attempted else 0.0


def compare(bench, parent_sets, change_sets):
    """Rows of (workload, metric, cell) plus per-workload failure shares."""
    rows, failures = [], {}
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        if not all(workload in s["workloads"] for s in parent_sets + change_sets):
            continue
        failures[workload] = (failed_share(parent_sets, workload),
                              failed_share(change_sets, workload))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = lambda sets: [s["workloads"][workload]["metrics"][name]["value"]  # noqa: E731
                                   for s in sets]
            cell = verdict(values(parent_sets), values(change_sets), metric["bound"],
                           metric["better"])
            rows.append((workload, name, cell))
    return rows, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--bench", default=str(Path(__file__).resolve().parent.parent
                                               / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    bench = json.loads(Path(args.bench).read_text())
    parent = [json.loads(Path(p).read_text()) for p in args.parent]
    change = [json.loads(Path(c).read_text()) for c in args.change]
    rows, failures = compare(bench, parent, change)

    bad = False
    print(f"{'workload':10s} {'metric':16s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'diff':>8s} {'wins':>5s}  verdict")
    for workload, metric, cell in rows:
        fmt = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"  # noqa: E731
        print(f"{workload:10s} {metric:16s} {fmt(cell['parent']):>34s} "
              f"{fmt(cell['change']):>34s} {cell['diff']:+8.2%} {cell['wins']:5.2f}  "
              f"{cell['verdict']}")
        bad |= cell["verdict"] in ("regressed", "unresolved")
    for workload, (p, c) in failures.items():
        status = "regressed" if c > p else "pass"
        print(f"{workload:10s} failed-op share: parent {p:.3g}, change {c:.3g}  {status}")
        bad |= c > p
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
