"""Rendering stored observability artifacts (the ``obs`` CLI).

A run executed with ``--obs`` leaves, next to its metadata document::

    <cache>/runs/run-<id>.json          # runmeta (has an "obs" section)
    <cache>/runs/obs-<id>/spans.jsonl   # hierarchical span trace
    <cache>/runs/obs-<id>/timelines.json
    <cache>/runs/obs-<id>/predictors.json
    <cache>/runs/obs-<id>/profile-<EXP>.pstats   # with --profile

This module resolves run ids (exact, unique prefix, or ``last``),
loads those artifacts, and renders the ``obs report`` / ``timeline`` /
``hotspots`` views.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from repro.obs.history import kernel_pass_table
from repro.obs.introspect import render_hotspots
from repro.obs.spans import load_spans, render_span_tree, span_totals
from repro.obs.timeline import render_timeline

__all__ = [
    "load_obs",
    "obs_dir_for",
    "render_kernel_passes",
    "render_report",
    "render_robustness",
    "render_run_tables",
    "render_timelines",
    "resolve_run",
]


def obs_dir_for(runs_root: str, run_id: str) -> str:
    return os.path.join(runs_root, "obs-%s" % run_id)


def resolve_run(runs_root: str,
                token: str = "last") -> Optional[Dict[str, object]]:
    """The run document matching *token*: ``last`` (newest run with
    observability artifacts, else newest overall), an exact run id, or
    a unique run-id prefix.  None when nothing matches."""
    from repro.harness.runmeta import load_runs

    documents = load_runs(runs_root)
    if not documents:
        return None
    if token in ("", "last"):
        observed = [doc for doc in documents if doc.get("obs")]
        return (observed or documents)[-1]
    matches = [doc for doc in documents
               if str(doc.get("run_id", "")).startswith(token)]
    exact = [doc for doc in matches if doc.get("run_id") == token]
    if exact:
        return exact[0]
    if len(matches) == 1:
        return matches[0]
    return None


def load_obs(runs_root: str,
             run_doc: Dict[str, object]) -> Dict[str, object]:
    """Every stored artifact of one run (empty lists when absent)."""
    run_id = str(run_doc.get("run_id", ""))
    obs_dir = obs_dir_for(runs_root, run_id)
    out: Dict[str, object] = {"dir": obs_dir, "spans": [],
                              "timelines": [], "probes": [],
                              "profiles": []}

    def read(name: str) -> Optional[str]:
        try:
            with open(os.path.join(obs_dir, name)) as stream:
                return stream.read()
        except OSError:
            return None

    text = read("spans.jsonl")
    if text:
        out["spans"] = load_spans(text)
    text = read("timelines.json")
    if text:
        try:
            out["timelines"] = json.loads(text).get("timelines", [])
        except ValueError:
            pass
    text = read("predictors.json")
    if text:
        try:
            out["probes"] = json.loads(text).get("probes", [])
        except ValueError:
            pass
    if os.path.isdir(obs_dir):
        out["profiles"] = sorted(
            os.path.join(obs_dir, name)
            for name in os.listdir(obs_dir)
            if name.startswith("profile-") and name.endswith(".pstats"))
    return out


def render_timelines(obs: Dict[str, object],
                     label: Optional[str] = None,
                     limit: Optional[int] = None,
                     width: int = 64) -> str:
    """Render stored timelines, optionally filtered by label substring."""
    docs: List[Dict[str, object]] = list(obs.get("timelines", []))
    if label:
        docs = [doc for doc in docs
                if label in str(doc.get("label", ""))]
    if not docs:
        return "no pipeline timelines recorded" + (
            " for label %r" % label if label else "")
    shown = docs if limit is None else docs[:limit]
    parts = [render_timeline(doc["timeline"],
                             label=str(doc.get("label", "?")),
                             width=width)
             for doc in shown]
    if limit is not None and len(docs) > limit:
        parts.append("... %d more timeline%s (use `obs timeline` to "
                     "list all)" % (len(docs) - limit,
                                    "" if len(docs) - limit == 1
                                    else "s"))
    return "\n\n".join(parts)


def render_kernel_passes(spans: List[Dict[str, object]]) -> str:
    """Aggregate ``kernel:<pass>`` spans into a per-pass timing table —
    where the trace walks actually spend their time."""
    table = kernel_pass_table(spans)
    if not table:
        return "no kernel passes recorded"
    lines = ["%-18s %8s %12s %10s %12s" %
             ("pass", "calls", "items", "seconds", "items/s")]
    for name, bucket in sorted(table.items(),
                               key=lambda item: (-item[1]["seconds"],
                                                 item[0])):
        seconds = bucket["seconds"]
        rate = ("%12.0f" % (bucket["items"] / seconds)) if seconds > 0 \
            else "%12s" % "-"
        lines.append("%-18s %8d %12d %10.3f %s" %
                     (name, bucket["calls"], bucket["items"], seconds,
                      rate))
    return "\n".join(lines)


def render_run_tables(spans: List[Dict[str, object]]) -> str:
    """Aggregate ``runtable:<id>`` spans (one per executed repetition)
    into a per-table summary; empty string when the run executed no
    run tables."""
    table = span_totals(spans, "runtable:", "cells")
    if not table:
        return ""
    lines = ["%-6s %6s %8s %10s" % ("table", "reps", "cells",
                                    "seconds")]
    for name, bucket in sorted(table.items(),
                               key=lambda item: (-item[1]["seconds"],
                                                 item[0])):
        lines.append("%-6s %6d %8d %10.3f" % (
            name, bucket["calls"], bucket["cells"], bucket["seconds"]))
    return "\n".join(lines)


def render_robustness(run_doc: Dict[str, object]) -> str:
    """The run's robustness section: retries, pool faults, serial
    degradation, cache store-error/quarantine tallies, artifact-plane
    attach/store/quarantine/fallback counters, injected faults (pool
    workers' included), and cells dropped in partial mode
    (``Engine.robustness`` via run metadata)."""
    doc = run_doc.get("robustness")
    if not isinstance(doc, dict):
        return ("no robustness data recorded "
                "(run metadata predates the robustness contract)")
    lines = ["retries %d   pool faults %d   degraded to serial: %s" % (
        doc.get("retries", 0), doc.get("pool_faults", 0),
        "yes" if doc.get("degraded_to_serial") else "no")]
    cache = doc.get("cache") or {}
    lines.append("cache: store errors %d, quarantined %d, "
                 "tmp swept %d, evicted %d" % (
                     cache.get("store_errors", 0),
                     cache.get("quarantined", 0),
                     cache.get("tmp_swept", 0),
                     cache.get("evicted", 0)))
    plane = doc.get("artifacts")
    if isinstance(plane, dict):
        lines.append("artifact plane: attach hits %d, misses %d, "
                     "stores %d, store errors %d, quarantined %d, "
                     "fallbacks %d" % (
                         plane.get("attach_hits", 0),
                         plane.get("attach_misses", 0),
                         plane.get("stores", 0),
                         plane.get("store_errors", 0),
                         plane.get("quarantined", 0),
                         plane.get("fallbacks", 0)))
    injected = doc.get("faults_injected") or {}
    if injected:
        lines.append("faults injected: " + ", ".join(
            "%s=%d" % (point, count)
            for point, count in sorted(injected.items())))
    failed = doc.get("failed_cells") or []
    if failed:
        lines.append("failed cells (%d, dropped in partial mode):"
                     % len(failed))
        for record in failed:
            lines.append("  %s: %s" % (record.get("cell", "?"),
                                       record.get("error", "?")))
    experiments = doc.get("failed_experiments") or []
    if experiments:
        lines.append("failed experiments (%d, skipped in partial "
                     "mode):" % len(experiments))
        for record in experiments:
            lines.append("  %s: %s" % (record.get("id", "?"),
                                       record.get("error", "?")))
    return "\n".join(lines)


def render_report(run_doc: Dict[str, object],
                  obs: Dict[str, object],
                  top: int = 10) -> str:
    """The combined ``obs report`` view for one run."""
    lines: List[str] = []
    run_id = run_doc.get("run_id", "?")
    totals = run_doc.get("totals", {})
    experiments = [record.get("id", "?")
                   for record in run_doc.get("experiments", [])]
    lines.append("== observability report: run %s ==" % run_id)
    lines.append("started %s  experiments %s  wall %.1fs" % (
        run_doc.get("started_at", "?"),
        ",".join(experiments) or "-",
        totals.get("wall_s", 0.0)))
    lines.append("")
    lines.append("-- robustness --")
    lines.append(render_robustness(run_doc))
    if not run_doc.get("obs"):
        lines.append("")
        lines.append("this run recorded no observability artifacts "
                     "(re-run with --obs)")
        return "\n".join(lines)

    workers = sorted({str((span.get("attrs") or {}).get("worker"))
                      for span in obs.get("spans", [])
                      if (span.get("attrs") or {}).get("worker")
                      is not None})
    if workers:
        lines.append("")
        lines.append("-- workers --")
        lines.append("merged telemetry from %d pool worker%s "
                     "(worker=%s)" % (len(workers),
                                      "" if len(workers) == 1 else "s",
                                      ",".join(workers)))

    lines.append("")
    lines.append("-- spans (slowest first) --")
    lines.append(render_span_tree(obs.get("spans", [])))

    lines.append("")
    lines.append("-- pipeline timelines --")
    lines.append(render_timelines(obs, limit=4))

    lines.append("")
    lines.append("-- kernel passes --")
    lines.append(render_kernel_passes(obs.get("spans", [])))

    run_tables = render_run_tables(obs.get("spans", []))
    if run_tables:
        lines.append("")
        lines.append("-- run tables --")
        lines.append(run_tables)

    lines.append("")
    lines.append("-- predictor hotspots (top %d mispredicted PCs) --"
                 % top)
    lines.append(render_hotspots(obs.get("probes", []), top=top))

    profiles = obs.get("profiles", [])
    if profiles:
        lines.append("")
        lines.append("-- stored profiles --")
        for path in profiles:
            lines.append("  %s  (python -m pstats %s)" %
                         (os.path.basename(path), path))
    return "\n".join(lines)
