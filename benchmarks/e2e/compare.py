"""Compare two sets of benchmark runs, metric by metric.

Usage::

    python3 benchmarks/e2e/compare.py A/ B/

``A/`` and ``B/`` hold the result records ``run.py --out DIR`` writes,
one per untraced run; A is the parent (or the first set of an A/A
check), B the change.  For every workload and end-to-end metric of
``BENCHMARK.json`` it prints each side's median, quartiles and sample
count, and a verdict:

* ``better``     -- B wins at least 9 of 10 pairs (run i of A against
  run i of B; ties count for neither) and the medians differ by more
  than A's interquartile range;
* ``worse``      -- B's median is worse than A's by more than the
  metric's bound (and, for ``setup_s``, by more than an absolute
  floor of 0.05 s, below which a set-up time is noise);
* ``unresolved`` -- neither, and either side's spread (interquartile
  range over median) is wider than the bound;
* ``unchanged``  -- otherwise.

A ``failed_frac`` row per workload (failed over attempted operations)
is ``worse`` on any increase.  The exit code is 1 when any row is
``worse``.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: Absolute differences below these never count as a regression.
ABSOLUTE_FLOORS = {"setup_s": 0.05}


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """(first, third) quartile as ``statistics.quantiles(values, n=4)``
    gives them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q3 = quartiles(values)
    middle = median(values)
    return (q3 - q1) / abs(middle) if middle else 0.0


def verdict(a: Sequence[float], b: Sequence[float], bound: float,
            better: str = "lower", floor: float = 0.0) -> str:
    """B against A for one metric (rules in the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = median(a), median(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    q1, q3 = quartiles(a)
    if pairs and wins >= 0.9 * len(pairs) \
            and sign * (median_a - median_b) > q3 - q1:
        return "better"
    worse_by = sign * (median_b - median_a)
    if worse_by > bound * abs(median_a) and worse_by > floor:
        return "worse"
    if spread(a) > bound or spread(b) > bound:
        return "unresolved"
    return "unchanged"


def load_records(directory: str) -> List[Dict[str, object]]:
    """The untraced result records under *directory*, oldest first."""
    records = []
    for path in glob.glob(os.path.join(directory, "*.json")):
        with open(path) as stream:
            try:
                record = json.load(stream)
            except ValueError:
                continue
        if isinstance(record, dict) and "workload" in record \
                and not record.get("trace"):
            records.append(record)
    records.sort(key=lambda record: record.get("started", 0.0))
    return records


def _by_workload(records) -> Dict[str, List[Dict[str, object]]]:
    grouped: Dict[str, List[Dict[str, object]]] = {}
    for record in records:
        grouped.setdefault(record["workload"], []).append(record)
    return grouped


def _cell(values: Sequence[float]) -> str:
    q1, q3 = quartiles(values)
    return "%.4g [%.4g, %.4g] n=%d" % (median(values), q1, q3, len(values))


def compare(a_records, b_records, benchmark: Dict[str, object]
            ) -> List[Tuple[str, str, str, str, str]]:
    """Rows of (workload, metric, A cell, B cell, verdict)."""
    rows = []
    a_groups, b_groups = _by_workload(a_records), _by_workload(b_records)
    for workload in sorted(set(a_groups) & set(b_groups)):
        a_runs, b_runs = a_groups[workload], b_groups[workload]
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a = [run["metrics"][name]["value"] for run in a_runs
                 if name in run["metrics"]]
            b = [run["metrics"][name]["value"] for run in b_runs
                 if name in run["metrics"]]
            if not a or not b:
                continue
            rows.append((workload, name, _cell(a), _cell(b),
                         verdict(a, b, metric["bound"], metric["better"],
                                 ABSOLUTE_FLOORS.get(name, 0.0))))
        fractions = []
        for runs in (a_runs, b_runs):
            attempted = sum(run["attempted"] for run in runs)
            failed = sum(run["failed"] for run in runs)
            fractions.append(failed / attempted if attempted else 0.0)
        rows.append((workload, "failed_frac", "%.4g" % fractions[0],
                     "%.4g" % fractions[1],
                     "worse" if fractions[1] > fractions[0] else
                     "better" if fractions[1] < fractions[0] else
                     "unchanged"))
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: compare.py A/ B/", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        benchmark = json.load(stream)
    a_records, b_records = load_records(argv[0]), load_records(argv[1])
    if not a_records or not b_records:
        print("no result records in %s" % (
            argv[0] if not a_records else argv[1]), file=sys.stderr)
        return 2
    rows = compare(a_records, b_records, benchmark)
    header = ("workload", "metric", "A median [q1, q3] n",
              "B median [q1, q3] n", "verdict")
    widths = [max(len(str(row[i])) for row in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    return 1 if any(row[4] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
