#!/usr/bin/env python
"""Field-for-field gate on the cycle simulator's ``PipelineStats``.

Runs the canonical experiment set at a small scale (serial, no cache)
and records ``PipelineStats.to_dict()`` for every (workload trace,
machine config) pair the timing stage answers, by wrapping
``Engine.simulate``.  The stage simulates most pairs (through
``repro.harness.engine.simulate``, which the script also wraps to
count them) and serves the rest from a run with fewer registers that
never waited on them; both kinds are compared.  The record is
compared with ``results/pipeline-golden.json``: a pair that is
missing, new, or differs in any field fails the gate, naming the
workload, the config and the field.

A change that only makes the simulator faster must pass unchanged.
Regenerate the record (``--regen``) only with a change that alters
simulation results on purpose, and say so in CHANGES.md.

Run from the repository root::

    PYTHONPATH=src python scripts/pipeline_golden.py          # check
    PYTHONPATH=src python scripts/pipeline_golden.py --regen  # rewrite

A workload is named by its program, its dynamic length and a digest of
its pc column (A4 simulates one program under several compilers); a
config by its preset name and the fields that differ from the preset.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from array import array
from dataclasses import fields
from typing import Dict, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "results", "pipeline-golden.json")
SCALE = 0.2


def workload_id(trace) -> str:
    digest = hashlib.sha256(array("q", trace.pcs).tobytes()).hexdigest()
    return "%s n=%d %s" % (trace.program.name, len(trace.pcs), digest[:8])


def config_id(config) -> str:
    from repro.keys import value_key
    from repro.pipeline import contended_config, default_config

    preset = (contended_config() if config.name == "contended"
              else default_config())
    changed = ["%s=%s" % (field.name, value_key(getattr(config, field.name)))
               for field in fields(config)
               if getattr(config, field.name) != getattr(preset, field.name)]
    return " ".join([preset.name] + changed)


def record(scale: float) -> Tuple[Dict[str, Dict[str, object]], Set[str]]:
    """``"<workload> | <config>" -> PipelineStats.to_dict()`` for every
    timing answer of one canonical pass at *scale*, and the pairs among
    them that were simulated."""
    from repro.harness import cli, engine

    runs: Dict[str, Dict[str, object]] = {}
    simulated: Set[str] = set()
    simulate = engine.simulate
    answer = engine.Engine.simulate

    def pair(trace, config) -> str:
        return "%s | %s" % (workload_id(trace), config_id(config))

    def simulating(trace, config, analysis=None):
        simulated.add(pair(trace, config))
        return simulate(trace, config, analysis)

    def answering(self, trace, config, *args, **kwargs):
        result = answer(self, trace, config, *args, **kwargs)
        key = pair(trace, config)
        if result.config != config:
            raise SystemExit("FAIL: %s answered under another config"
                             % key)
        stats = result.stats.to_dict()
        if runs.setdefault(key, stats) != stats:
            raise SystemExit("FAIL: %s answered twice with different "
                             "results" % key)
        return result

    engine.simulate = simulating
    engine.Engine.simulate = answering
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--scale", str(scale), "--jobs", "1",
                             "--no-cache", "--no-meta"])
    finally:
        engine.simulate = simulate
        engine.Engine.simulate = answer
    if code:
        raise SystemExit("FAIL: the canonical pass exited %d" % code)
    return runs, simulated


def dump(scale: float, runs: Dict[str, Dict[str, object]]) -> str:
    """One line per pair, sorted, so a diff names the pair."""
    lines = ["%s: %s" % (json.dumps(key), json.dumps(runs[key],
                                                     sort_keys=True))
             for key in sorted(runs)]
    return ('{"scale": %s, "runs": {\n%s\n}}\n'
            % (json.dumps(scale), ",\n".join(lines)))


def compare(expected: Dict[str, Dict[str, object]],
            actual: Dict[str, Dict[str, object]]) -> list:
    problems = []
    for key in sorted(set(expected) | set(actual)):
        workload, config = key.split(" | ")
        if key not in actual:
            problems.append("%s on %s: no longer simulated"
                            % (workload, config))
            continue
        if key not in expected:
            problems.append("%s on %s: not in the golden record"
                            % (workload, config))
            continue
        for name in sorted(set(expected[key]) | set(actual[key])):
            want = expected[key].get(name)
            got = actual[key].get(name)
            if want != got:
                problems.append("%s on %s: %s is %r, golden %r"
                                % (workload, config, name, got, want))
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--regen", action="store_true",
                        help="rewrite %s from this tree"
                             % os.path.relpath(GOLDEN, ROOT))
    args = parser.parse_args(argv)
    if args.regen:
        runs, _ = record(SCALE)
        with open(GOLDEN, "w") as stream:
            stream.write(dump(SCALE, runs))
        print("wrote %d pairs to %s" % (len(runs), GOLDEN))
        return 0
    with open(GOLDEN) as stream:
        golden = json.load(stream)
    runs, simulated = record(golden["scale"])
    problems = compare(golden["runs"], runs)
    for problem in problems:
        print("FAIL: %s" % problem, file=sys.stderr)
    if problems:
        return 1
    print("ok: %d (workload, config) pairs equal field for field "
          "(%d simulated, %d served)"
          % (len(runs), len(simulated), len(runs) - len(simulated)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
