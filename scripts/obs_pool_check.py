#!/usr/bin/env python
"""CI gate for cross-process telemetry: spans from pool workers.

Runs the same observed sweep (``F7 F8 --scale 0.3 --obs``) serially
and with a two-worker pool, each on a fresh cache, and checks:

1. both runs exit 0, and the pooled run's ``spans.jsonl`` carries
   ``kernel:<pass>`` spans stamped with a ``worker`` attribute — the
   worker deltas reached the parent's span tree;
2. the two runs' history records agree on every kernel pass's
   ``calls`` and ``items`` (both are aggregated from ``kernel:`` spans,
   so a lost or doubled worker span shows up here);
3. ``obs regress`` on the pooled run against the committed baseline
   (``results/obs-baseline.jsonl``) passes at a generous threshold
   (CI machines are slow, not 50x slow).

Run from the repository root::

    PYTHONPATH=src python scripts/obs_pool_check.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(REPO, "results", "obs-baseline.jsonl")
#: must mirror the baseline's config fingerprint (experiments,
#: scale) — see repro.obs.history.fingerprint
EXPERIMENTS = ["F7", "F8"]
SCALE = "0.3"
THRESHOLD = "50"


def fail(message: str) -> None:
    print("FAIL: %s" % message, file=sys.stderr)
    sys.exit(1)


def harness(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    return subprocess.run([sys.executable, "-m", "repro.harness.cli",
                           *argv], cwd=REPO, env=env,
                          capture_output=True, text=True)


def observed_run(cache: str, jobs: str):
    """Run the sweep on *cache*; returns (history record, span docs)."""
    result = harness(*EXPERIMENTS, "--scale", SCALE, "--jobs", jobs,
                     "--obs", "--cache-dir", cache)
    if result.returncode != 0:
        fail("--jobs %s run exited %d:\n%s%s" % (
            jobs, result.returncode, result.stdout, result.stderr))
    with open(os.path.join(cache, "obs-history", "history.jsonl")) \
            as stream:
        records = [json.loads(line) for line in stream if line.strip()]
    if len(records) != 1:
        fail("--jobs %s: expected one history record, found %d"
             % (jobs, len(records)))
    runs_root = os.path.join(cache, "runs")
    obs_dirs = [name for name in os.listdir(runs_root)
                if name.startswith("obs-")]
    if len(obs_dirs) != 1:
        fail("--jobs %s: expected one obs dir, found %d"
             % (jobs, len(obs_dirs)))
    with open(os.path.join(runs_root, obs_dirs[0], "spans.jsonl")) \
            as stream:
        spans = [json.loads(line) for line in stream if line.strip()]
    return records[0], spans


def pass_counts(record) -> dict:
    return {name: (bucket["calls"], bucket["items"])
            for name, bucket in record["kernel_passes"].items()}


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-obs-pool-") as root:
        serial, _ = observed_run(os.path.join(root, "serial"), "1")
        pooled_cache = os.path.join(root, "pool")
        pooled, spans = observed_run(pooled_cache, "2")

        worker_passes = [span for span in spans
                         if span["name"].startswith("kernel:")
                         and "worker" in (span.get("attrs") or {})]
        if not worker_passes:
            fail("the pooled run's spans.jsonl has no worker-stamped "
                 "kernel: spans")
        print("pooled run: %d worker-stamped kernel spans"
              % len(worker_passes))

        if not pass_counts(serial):
            fail("the serial run recorded no kernel passes")
        if pass_counts(serial) != pass_counts(pooled):
            fail("kernel passes differ (calls, items): --jobs 1 %r, "
                 "--jobs 2 %r" % (pass_counts(serial),
                                  pass_counts(pooled)))
        print("kernel passes (calls, items) agree: %r"
              % pass_counts(pooled))

        gate = harness("obs", "regress", "--cache-dir", pooled_cache,
                       "--against", BASELINE, "--threshold", THRESHOLD)
        print(gate.stdout, end="")
        if gate.returncode != 0:
            fail("obs regress gate failed (exit %d):\n%s%s"
                 % (gate.returncode, gate.stdout, gate.stderr))
        if "baseline record" not in gate.stdout or \
                "0 baseline records" in gate.stdout:
            fail("regress gate did not compare against the committed "
                 "baseline — fingerprint drift? (%r)" % gate.stdout)
    print("OK: worker spans, serial/pool pass parity, and regression "
          "gate all passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
