"""Hierarchical span tracing for the harness.

A span is one timed unit of work (a whole run, one experiment, one
engine stage execution, one cell) with a name, duration, a parent,
and free-form attributes (cache hit/miss, workload, config).
The tracer keeps an explicit stack, so ``with tracer.span(...)`` nests
naturally, and engine stages that were timed elsewhere (pool workers,
cached loads) can be attached after the fact with :meth:`SpanTracer.add`.

All timing is monotonic: durations come from ``time.monotonic()``,
and ``started_at`` wall-clock stamps are *derived* — one wall epoch is
captured when the tracer is created and every span's start is the
epoch plus its monotonic offset.  A wall-clock step (NTP, manual
``date``) mid-run therefore cannot produce negative durations or
reorder spans against each other; it merely offsets the whole tree's
display timestamps by the epoch error.

Spans serialize to JSONL (one object per line, ``spans.jsonl`` in the
run's observability directory) and render as an indented tree with the
slowest spans visible at a glance.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional

__all__ = ["Span", "SpanTracer", "span_totals"]

#: default for :meth:`SpanTracer.add`'s *parent_id*: "the current
#: stack top" (``None`` is a meaningful value — a root span).
_CURRENT = object()


class Span:
    """One traced unit of work."""

    __slots__ = ("span_id", "parent_id", "name", "started_at",
                 "seconds", "attrs")

    def __init__(self, span_id: int, parent_id: Optional[int],
                 name: str, started_at: float, seconds: float,
                 attrs: Dict[str, object]):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.started_at = started_at
        self.seconds = seconds
        self.attrs = attrs

    def to_dict(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "started_at": round(self.started_at, 6),
            "seconds": round(self.seconds, 6),
            "attrs": self.attrs,
        }


class SpanTracer:
    """Collects a tree of spans for one harness invocation."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 1
        # The single wall-clock reading this tracer ever takes: every
        # started_at is derived from it via monotonic offsets, so a
        # clock step mid-run cannot skew durations or span ordering.
        self._wall_epoch = time.time()
        self._mono_epoch = time.monotonic()

    def _wall_now(self) -> float:
        """The current time on the tracer's steady wall clock."""
        return self._wall_epoch + (time.monotonic() - self._mono_epoch)

    # -- recording ----------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """Open a nested span around a block of work."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        record = Span(span_id, parent, name, self._wall_now(), 0.0,
                      dict(attrs))
        self.spans.append(record)
        self._stack.append(span_id)
        started = time.monotonic()
        try:
            yield record
        finally:
            record.seconds = time.monotonic() - started
            self._stack.pop()

    def add(self, name: str, seconds: float, parent_id=_CURRENT,
            **attrs) -> Span:
        """Attach an already-timed span.  By default it lands under
        the current stack top; an explicit *parent_id* attaches it
        under any already-recorded span (``None`` makes it a root) —
        how post-hoc work like pool-worker stages lands in the right
        subtree even when results arrive out of order."""
        span_id = self._next_id
        self._next_id += 1
        if parent_id is _CURRENT:
            parent_id = self._stack[-1] if self._stack else None
        record = Span(span_id, parent_id, name,
                      self._wall_now() - seconds, seconds, dict(attrs))
        self.spans.append(record)
        return record

    def merge(self, span_docs: List[Dict[str, object]],
              **extra_attrs) -> List[Span]:
        """Graft another tracer's serialized spans (a worker's
        ``ObsDelta``) into this tree.

        Every incoming span gets a fresh id; internal parent links are
        remapped, and spans whose parent is not part of the batch
        (the worker's roots) attach under the current stack top.  The
        id map is built before any span is materialized, so children
        arriving *before* their parent in *span_docs* still resolve to
        the correct remapped parent.  *extra_attrs* (e.g.
        ``worker="1"``) are stamped onto every merged span."""
        base_parent = self._stack[-1] if self._stack else None
        id_map: Dict[object, int] = {}
        for doc in span_docs:
            id_map[doc["span_id"]] = self._next_id
            self._next_id += 1
        merged: List[Span] = []
        for doc in span_docs:
            attrs = dict(doc.get("attrs") or {})
            attrs.update(extra_attrs)
            parent = doc.get("parent_id")
            parent = id_map.get(parent, base_parent)
            span = Span(id_map[doc["span_id"]], parent,
                        str(doc.get("name", "?")),
                        float(doc.get("started_at", 0.0)),
                        float(doc.get("seconds", 0.0)), attrs)
            self.spans.append(span)
            merged.append(span)
        return merged

    # -- output -------------------------------------------------------

    def to_jsonl(self) -> str:
        return "".join(json.dumps(span.to_dict(), sort_keys=True) + "\n"
                       for span in self.spans)


def span_totals(spans: Iterable[Dict[str, object]], prefix: str,
                attr: str) -> Dict[str, Dict[str, float]]:
    """``{suffix: {"calls", attr, "seconds"}}`` summed over the span
    documents named ``<prefix><suffix>``, *attr* read from each span's
    attributes."""
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        name = str(span.get("name", ""))
        if not name.startswith(prefix):
            continue
        bucket = table.setdefault(name[len(prefix):],
                                  {"calls": 0, attr: 0, "seconds": 0.0})
        bucket["calls"] += 1
        bucket[attr] += int((span.get("attrs") or {}).get(attr, 0) or 0)
        bucket["seconds"] += float(span.get("seconds", 0.0) or 0.0)
    return table


def load_spans(jsonl_text: str) -> List[Dict[str, object]]:
    """Parse a ``spans.jsonl`` document back into dictionaries."""
    spans = []
    for line in jsonl_text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            spans.append(json.loads(line))
        except ValueError:
            continue
    return spans


def render_span_tree(spans: List[Dict[str, object]],
                     max_children: int = 12) -> str:
    """Indented tree of span dicts (slowest siblings first)."""
    if not spans:
        return "no spans recorded"
    children: Dict[Optional[int], List[Dict[str, object]]] = {}
    for span in spans:
        children.setdefault(span.get("parent_id"), []).append(span)

    lines: List[str] = []

    def walk(parent: Optional[int], depth: int) -> None:
        siblings = sorted(children.get(parent, []),
                          key=lambda s: -s.get("seconds", 0.0))
        for index, span in enumerate(siblings):
            if index == max_children:
                lines.append("%s... (%d more)" %
                             ("  " * depth, len(siblings) - index))
                break
            attrs = span.get("attrs") or {}
            notes = []
            if "hit" in attrs:
                notes.append("hit" if attrs["hit"] else "miss")
            for key in ("id", "cell", "workload", "stage"):
                if key in attrs:
                    notes.append(str(attrs[key]))
            lines.append("%s%-24s %8.3fs%s" % (
                "  " * depth, span.get("name", "?"),
                span.get("seconds", 0.0),
                ("  [%s]" % ", ".join(notes)) if notes else ""))
            walk(span.get("span_id"), depth + 1)

    walk(None, 0)
    return "\n".join(lines)
