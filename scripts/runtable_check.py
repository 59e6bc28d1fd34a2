#!/usr/bin/env python
"""CI gate for the declarative run-table layer.

Executes the generated-corpus grid (``G1``: 2 workloads x 2 machine
geometries) under 3 seed repetitions and checks:

1. the statistics block is present and complete — metric mean/CI
   summaries over all 12 cells, per-factor main effects, pairwise
   Cohen's d;
2. the JSON and CSV exports carry every cell with rep/seed columns;
3. **byte-identity** — the rendered output (canonical table AND stats
   tables) is identical between a cold serial run and a hot
   ``--jobs 2`` run; the exported documents agree after stripping
   wall-time fields.

Run from the repository root::

    PYTHONPATH=src python scripts/runtable_check.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

TABLE = "G1"
SCALE = "0.3"
REPS = "3"
N_CELLS = 4 * 3  # (2 workloads x 2 machines) x 3 repetitions


def fail(message: str) -> None:
    print("FAIL: %s" % message, file=sys.stderr)
    sys.exit(1)


def run_table(cache: str, out_json: str, *extra: str) -> str:
    """One ``table run`` invocation; returns its rendered output (the
    part that must be byte-identical: everything before the wall-time
    footer line)."""
    argv = [sys.executable, "-m", "repro.harness", "table", "run",
            TABLE, "--scale", SCALE, "--reps", REPS,
            "--cache-dir", cache, "--no-meta",
            "--json", out_json] + list(extra)
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        fail("%r exited %d:\n%s" % (" ".join(argv), proc.returncode,
                                    proc.stderr))
    rendered = proc.stdout.split("\n[%s:" % TABLE)[0]
    if not rendered.strip():
        fail("no rendered output from %r" % " ".join(argv))
    return rendered


def scrub(value):
    """Drop wall-time fields so exports can be compared exactly."""
    if isinstance(value, dict):
        return {key: scrub(item) for key, item in value.items()
                if key != "seconds"}
    if isinstance(value, list):
        return [scrub(item) for item in value]
    return value


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="runtable-check-") as workdir:
        check(workdir)


def check(workdir: str) -> None:
    """Run every leg with its cache and exports under *workdir*."""
    cache = os.path.join(workdir, "cache")
    cold_json = os.path.join(workdir, "cold.json")
    hot_json = os.path.join(workdir, "hot.json")

    print("== leg 1: cold cache, serial ==")
    cold = run_table(cache, cold_json, "--jobs", "1")

    for marker in ("Generated-corpus elimination grid",
                   "Metric statistics",
                   "Main effects: workload",
                   "Main effects: machine",
                   "Pairwise effects: workload",
                   "Cohen's d"):
        if marker not in cold:
            fail("stats block incomplete: %r missing from rendered "
                 "output" % marker)
    print("stats block present (summaries + effects + pairwise)")

    with open(cold_json) as stream:
        document = json.load(stream)["tables"][TABLE]
    cells = document["cells"]
    if len(cells) != N_CELLS:
        fail("expected %d exported cells, got %d" % (N_CELLS,
                                                     len(cells)))
    if sorted({cell["rep"] for cell in cells}) != [0, 1, 2]:
        fail("exported cells do not span 3 repetitions")
    if sorted({cell["seed"] for cell in cells}) != [1, 2, 3]:
        fail("exported cells do not record shifted seeds")
    stats = document["stats"]
    for metric in document["metrics"]:
        summary = stats["summaries"].get(metric)
        if not summary or summary["n"] != N_CELLS:
            fail("stats summary for %r missing or wrong n: %r"
                 % (metric, summary))
        if not (summary["ci_low"] <= summary["mean"]
                <= summary["ci_high"]):
            fail("CI for %r does not bracket its mean: %r"
                 % (metric, summary))
    if set(stats["factors"]) != {"workload", "machine"}:
        fail("factor effects missing: %r" % sorted(stats["factors"]))
    print("JSON export complete: %d cells, CIs bracket means" % N_CELLS)

    print("== leg 2: hot cache, --jobs 2 ==")
    hot = run_table(cache, hot_json, "--jobs", "2")
    if hot != cold:
        fail("rendered output differs between cold-serial and "
             "hot-parallel runs")
    print("byte-identical rendered output (cold/serial vs hot/--jobs 2)")

    documents = []
    for path in (cold_json, hot_json):
        with open(path) as stream:
            documents.append(scrub(json.load(stream)))
    if documents[0] != documents[1]:
        fail("exported documents differ between legs (seconds "
             "stripped)")
    print("exported cell documents identical across both legs")

    print("== leg 3: csv export ==")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.harness", "table", "export",
         TABLE, "--scale", SCALE, "--reps", REPS, "--format", "csv",
         "--cache-dir", cache, "--no-meta"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        fail("csv export exited %d:\n%s" % (proc.returncode,
                                            proc.stderr))
    lines = proc.stdout.strip().splitlines()
    if len(lines) != 1 + N_CELLS:
        fail("csv export: expected header + %d rows, got %d lines"
             % (N_CELLS, len(lines)))
    if not lines[0].startswith("workload,machine,rep,seed,"):
        fail("csv header unexpected: %r" % lines[0])
    print("csv export carries header + %d cell rows" % N_CELLS)

    print("OK: run-table stats + byte-identity legs all passed")


if __name__ == "__main__":
    main()
