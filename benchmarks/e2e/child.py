"""One benchmark pass, run by ``run.py`` in a fresh interpreter.

Usage: ``python3 child.py SPEC.json``.  ``SPEC["mode"]`` is one of

* ``setup`` -- import the harness and construct an engine; the time
  this takes is one ``setup_s`` sample;
* ``cli`` -- ``repro.harness.cli.main(SPEC["argv"])`` is the timed
  region: what a user of ``python -m repro.harness`` runs;
* ``gen`` -- the library path: ``Engine.run_cells`` over the generated
  programs in ``SPEC["programs"]``, then a base and an elimination
  ``Engine.simulate`` of each on the contended core.

With ``SPEC["trace"]`` set to a directory, the pass runs under the
span wrappers of :mod:`spans` and writes its span files there.  The
result document is written to ``SPEC["result"]``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import sys
import time
import traceback


def _usage():
    """(CPU seconds of this process and its reaped children, peak RSS
    in MB of the larger of the two)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024.0


def setup_pass(spec):
    started = time.perf_counter()
    from repro.harness import cli  # noqa: F401 (its import is measured)
    from repro.harness.engine import Engine, EngineConfig

    Engine(EngineConfig(jobs=spec["jobs"], cache_dir=spec["cache_dir"]))
    return {"setup_s": time.perf_counter() - started}


def _timed(recorder, body):
    """Run *body* as the timed region; return (its value, measurements)."""
    cpu_before, _ = _usage()
    started = time.perf_counter()
    scope = recorder.span("pass") if recorder else contextlib.nullcontext()
    with scope:
        value = body()
    wall = time.perf_counter() - started
    cpu_after, peak_rss = _usage()
    return value, {"wall_s": wall, "cpu_s": cpu_after - cpu_before,
                   "peak_rss_mb": peak_rss}


def _engine_facts(engine):
    robustness = engine.robustness()
    timing = engine.stats.counts.get("timing", {})
    return {"retries": robustness["retries"],
            "pool_faults": robustness["pool_faults"],
            "failed_cells": [cell["cell"]
                             for cell in robustness["failed_cells"]],
            "timing_hits": int(timing.get("hits", 0)),
            "timing_misses": int(timing.get("misses", 0))}


def cli_pass(spec, recorder):
    from repro.harness import cli
    from repro.harness.engine import peek_engine

    rc, result = _timed(recorder, lambda: cli.main(spec["argv"]))
    result["rc"] = rc
    result.update(_engine_facts(peek_engine()))
    return result


def gen_pass(spec, recorder):
    from repro.harness.engine import CellSpec, Engine, EngineConfig
    from repro.harness.sweep import elim_variant
    from repro.lang import CompilerOptions
    from repro.pipeline.config import contended_config

    engine = Engine(EngineConfig(jobs=1, cache_dir=spec["cache_dir"]))
    specs = [CellSpec(name, 1.0, CompilerOptions())
             for name in spec["programs"]]
    base_config = contended_config()
    elim_config = elim_variant(base_config)

    def body():
        # partial: a program whose output disagrees with the generator's
        # interpreter is reported in failed_cells, not raised.
        cells = engine.run_cells(specs, partial=True)
        return [(cell,
                 engine.simulate(cell.trace, base_config, cell.analysis,
                                 trace_key=cell.trace_key),
                 engine.simulate(cell.trace, elim_config, cell.analysis,
                                 trace_key=cell.trace_key))
                for cell in cells]

    simulated, result = _timed(recorder, body)
    result["programs"] = []
    for cell, base, elim in simulated:
        asm = engine.cache.load("compile", cell.compile_key)
        n = len(cell.trace.pcs)
        problems = []
        if not base.stats.committed == elim.stats.committed == n:
            problems.append("committed base %d / elim %d / trace %d" % (
                base.stats.committed, elim.stats.committed, n))
        if elim.stats.eliminated > cell.analysis.n_dead:
            problems.append("eliminated %d > n_dead %d" % (
                elim.stats.eliminated, cell.analysis.n_dead))
        result["programs"].append({
            "name": cell.spec.workload,
            "asm_sha256": hashlib.sha256(asm.encode()).hexdigest(),
            "base": base.stats.to_dict(),
            "elim": elim.stats.to_dict(),
            "problems": problems,
        })
    result.update(_engine_facts(engine))
    return result


def main(argv):
    with open(argv[1]) as stream:
        spec = json.load(stream)
    recorder = None
    if spec.get("trace"):
        import spans

        recorder = spans.Recorder(spec["trace"])
        spans.install(recorder)
    try:
        if spec["mode"] == "setup":
            result = setup_pass(spec)
        elif spec["mode"] == "cli":
            result = cli_pass(spec, recorder)
        else:
            result = gen_pass(spec, recorder)
    except Exception:
        result = {"error": traceback.format_exc()}
    if recorder is not None:
        recorder.write()
    if "repro.kernels" in sys.modules:
        result["backend"] = sys.modules["repro.kernels"].default_backend_name()
    numpy = sys.modules.get("numpy")
    result["numpy"] = getattr(numpy, "__version__", None)
    with open(spec["result"], "w") as stream:
        json.dump(result, stream)
    return 0 if "error" not in result else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
