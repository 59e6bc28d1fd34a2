"""Dead-predictor introspection: per-PC confusion, table health.

The aggregate accuracy/coverage numbers (``DeadPredictionStats``) say
*whether* a predictor works; this module says *why not* when it does
not.  A :class:`PredictorProbe` attached to an evaluation walk tracks:

* per-PC confusion counts — TP / FP / TN / FN per static instruction,
  so every misprediction is attributable to a static PC (and the probe
  totals must sum exactly to the aggregate statistics; a regression
  test pins that identity);
* table churn — allocations and evictions (a valid entry with a
  different tag overwritten), the direct measure of aliasing pressure;
* end-of-walk table health — entry occupancy and the distribution of
  confidence-counter values, read from the table without touching the
  predictor's hot path.

The probe is entirely pull-based on the predictor side: a design's
walk only calls :meth:`note_alloc` / :meth:`note_eviction` behind an
``is not None`` guard, so the telemetry-off cost is one attribute test.
The confusion counts are filled after the walk, from its predictions
column, one :meth:`record` per distinct (pc, prediction, label).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = ["PredictorProbe", "render_hotspots", "table_health"]


class PredictorProbe:
    """Per-PC confusion counters plus table-churn counters."""

    __slots__ = ("confusion", "allocations", "evictions")

    def __init__(self):
        #: pc -> [tp, fp, tn, fn]
        self.confusion: Dict[int, List[int]] = {}
        self.allocations = 0
        self.evictions = 0

    # -- recording ----------------------------------------------------

    def record(self, pc: int, predicted: bool, dead: bool,
               count: int = 1) -> None:
        """Count *count* events of *pc* with this prediction/label."""
        cell = self.confusion.get(pc)
        if cell is None:
            cell = [0, 0, 0, 0]
            self.confusion[pc] = cell
        if predicted:
            cell[0 if dead else 1] += count
        else:
            cell[3 if dead else 2] += count

    def note_alloc(self) -> None:
        self.allocations += 1

    def note_eviction(self) -> None:
        self.evictions += 1

    # -- aggregation --------------------------------------------------

    def totals(self) -> Tuple[int, int, int, int]:
        """Summed (tp, fp, tn, fn) over every PC."""
        tp = fp = tn = fn = 0
        for cell in self.confusion.values():
            tp += cell[0]
            fp += cell[1]
            tn += cell[2]
            fn += cell[3]
        return tp, fp, tn, fn

    @property
    def accuracy(self) -> float:
        tp, fp, _tn, _fn = self.totals()
        if tp + fp == 0:
            return 1.0
        return tp / (tp + fp)

    @property
    def coverage(self) -> float:
        tp, _fp, _tn, fn = self.totals()
        if tp + fn == 0:
            return 0.0
        return tp / (tp + fn)

    def hotspots(self, top: int = 10) -> List[Dict[str, int]]:
        """The PCs with the most mispredictions (FP+FN), worst first."""
        ranked = sorted(self.confusion.items(),
                        key=lambda item: (-(item[1][1] + item[1][3]),
                                          item[0]))
        out = []
        for pc, (tp, fp, tn, fn) in ranked[:top]:
            if fp + fn == 0:
                break
            out.append({"pc": pc, "tp": tp, "fp": fp, "tn": tn,
                        "fn": fn, "mispredicts": fp + fn})
        return out

    def to_dict(self) -> Dict[str, object]:
        tp, fp, tn, fn = self.totals()
        return {
            "totals": {"tp": tp, "fp": fp, "tn": tn, "fn": fn},
            "accuracy": self.accuracy,
            "coverage": self.coverage,
            "allocations": self.allocations,
            "evictions": self.evictions,
            "confusion": {"0x%x" % pc: list(cell)
                          for pc, cell in sorted(self.confusion.items())
                          if cell[1] or cell[3]},
        }


def table_health(predictor) -> Dict[str, object]:
    """Occupancy and confidence distribution of a table predictor.

    Works on any predictor exposing ``tags``/``confs`` lists (the
    table designs); returns ``{}`` for stateless ones (oracle,
    profile)."""
    tags = getattr(predictor, "tags", None)
    confs = getattr(predictor, "confs", None)
    if tags is None or confs is None:
        return {}
    valid = sum(1 for tag in tags if tag != -1)
    distribution: Dict[int, int] = {}
    for tag, conf in zip(tags, confs):
        if tag != -1:
            distribution[conf] = distribution.get(conf, 0) + 1
    return {
        "entries": len(tags),
        "occupied": valid,
        "occupancy": valid / len(tags) if tags else 0.0,
        "confidence_distribution": {str(level): count
                                    for level, count in
                                    sorted(distribution.items())},
    }


def render_hotspots(docs: List[Dict[str, object]],
                    top: int = 10) -> str:
    """Text table of the top mispredicted PCs across probe documents.

    *docs* are collector probe records: ``{"label", "workload",
    "predictor", "probe": PredictorProbe.to_dict(), ...}``.  Confusion
    counts for the same PC are merged across workloads per predictor
    design."""
    merged: Dict[Tuple[str, int], List[int]] = {}
    for doc in docs:
        predictor = str(doc.get("predictor", "?"))
        confusion = (doc.get("probe") or {}).get("confusion", {})
        for pc_text, cell in confusion.items():
            key = (predictor, int(pc_text, 16))
            bucket = merged.setdefault(key, [0, 0, 0, 0])
            for index in range(4):
                bucket[index] += cell[index]
    if not merged:
        return "no predictor mispredictions recorded"
    ranked = sorted(merged.items(),
                    key=lambda item: (-(item[1][1] + item[1][3]),
                                      item[0]))
    lines = ["%-10s %-10s %8s %8s %8s %8s %8s" %
             ("predictor", "pc", "mispred", "FP", "FN", "TP", "TN")]
    for (predictor, pc), (tp, fp, tn, fn) in ranked[:top]:
        lines.append("%-10s 0x%-8x %8d %8d %8d %8d %8d" %
                     (predictor, pc, fp + fn, fp, fn, tp, tn))
    return "\n".join(lines)
