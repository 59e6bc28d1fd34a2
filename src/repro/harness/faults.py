"""Fault injection for the harness robustness contract.

The engine and cache promise to survive adverse conditions — corrupt
or unreadable cache entries, dying or hanging pool workers, artifacts
that refuse to pickle — without changing experiment results.  This
module makes those conditions *reproducible*: a small registry of
named **fault points** that production code consults at the exact
places where the real failures would strike, plus a count-limited
plan describing which points fire and how often.

Fault points (:data:`FAULT_POINTS`):

``cache.read.ioerror``
    :meth:`CacheDir.load` fails to open the entry (injected
    :class:`InjectedIOError`) — behaves like an unreadable disk.
``cache.read.garbage``
    the bytes read back are garbage — exercises checksum verification
    and quarantine.
``cache.write.ioerror``
    :meth:`CacheDir.store` hits an IO error mid-write.
``cache.write.unpicklable``
    the artifact handed to ``store`` cannot be pickled.
``worker.crash``
    a cell computation raises :class:`WorkerCrash` — stands in for a
    worker process dying mid-cell.
``worker.hang``
    a *pool worker* sleeps past the cell timeout (never fires in the
    parent process, so the serial retry completes).
``artifact.unpicklable``
    a *pool worker* returns a payload the result pipe cannot pickle.
``artifact.read.ioerror``
    :meth:`ArtifactPlane.attach` fails to open/map the bundle file.
``artifact.read.garbage``
    the mapped bundle bytes are garbage — exercises the plane's header
    verification and quarantine.
``artifact.read.truncated``
    the bundle file is cut mid-column (a writer died, a disk filled) —
    exercises the bounds/checksum checks.
``artifact.write.ioerror``
    :meth:`ArtifactPlane.store` hits an IO error mid-write.

Plans come from the ``REPRO_FAULTS`` environment variable or from
:func:`install_plan` (tests).  Syntax: comma-separated
``point[:times]`` entries; *times* is how many calls fire (default 1,
``*`` = every call)::

    REPRO_FAULTS="cache.read.garbage:3,worker.crash" repro-harness F1

Firing is deterministic — the first *times* arrivals at a point fire,
later ones pass through — so a faulted run is exactly reproducible.
A plan's budgets are one run's: they live in shared memory (one
``RawArray`` and one lock per plan) that forked pool workers inherit,
and the engine resolves ``REPRO_FAULTS`` in the parent before its
first fork, so ``point:N`` fires N times per run at any ``--jobs``.
Worker-level points (``worker.*``, ``artifact.unpicklable``) are
drawn by the *parent* at dispatch time (:func:`draw_cell_faults`) and
shipped to workers as task arguments; cache-level points (``cache.*``
and the ``artifact.read.*``/``artifact.write.*`` plane points) fire
wherever the load/store happens, parent or worker.  Every fired fault
is tallied (:func:`fired_counts`); pool results carry their task's
tallies home, and ``Engine.robustness`` sums them with the parent's,
which is how ``obs report`` proves a robustness run actually injected
something.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Dict, Optional, Tuple

__all__ = [
    "FAULT_POINTS",
    "FaultPlan",
    "InjectedIOError",
    "WorkerCrash",
    "active",
    "fired_counts",
    "hang_seconds",
    "install_plan",
    "plan_from_env",
    "reset_faults",
    "should_fire",
]

#: Every registered fault point and what firing it simulates.
FAULT_POINTS: Dict[str, str] = {
    "cache.read.ioerror": "cache entry unreadable (OSError on open)",
    "cache.read.garbage": "cache entry bytes corrupted on read",
    "cache.write.ioerror": "cache store hits an IO error mid-write",
    "cache.write.unpicklable": "artifact handed to store cannot pickle",
    "worker.crash": "cell computation dies mid-cell",
    "worker.hang": "pool worker sleeps past the cell timeout",
    "artifact.unpicklable": "pool worker returns an unpicklable payload",
    "artifact.read.ioerror": "artifact bundle unreadable (OSError on open)",
    "artifact.read.garbage": "artifact bundle bytes corrupted on read",
    "artifact.read.truncated": "artifact bundle truncated mid-file",
    "artifact.write.ioerror": "artifact store hits an IO error mid-write",
}

#: ``times`` value meaning "fire on every call".
UNLIMITED = -1


class WorkerCrash(RuntimeError):
    """Injected stand-in for a worker process dying mid-cell."""


class InjectedIOError(OSError):
    """Injected stand-in for a disk-level IO failure."""


class FaultPlan:
    """Which fault points fire and how many times each.  The remaining
    counts live in shared memory, so processes forked after the plan
    is built spend one budget between them."""

    def __init__(self, rules: Optional[Dict[str, int]] = None):
        rules = dict(rules or {})
        for point in rules:
            if point not in FAULT_POINTS:
                raise ValueError(
                    "unknown fault point %r (registered: %s)"
                    % (point, ", ".join(sorted(FAULT_POINTS))))
        self._slots = {point: slot for slot, point in enumerate(rules)}
        self._counts = multiprocessing.RawArray("q", list(rules.values()))
        self._lock = multiprocessing.Lock()

    @property
    def remaining(self) -> Dict[str, int]:
        """point -> remaining fire count (:data:`UNLIMITED` = forever)"""
        return {point: self._counts[slot]
                for point, slot in self._slots.items()}

    def spend(self, point: str) -> bool:
        """Consume one firing of *point*; False once its budget is
        spent.  A lock that a killed worker left held times out rather
        than hanging the caller (the fault then does not fire)."""
        slot = self._slots.get(point)
        if slot is None or not self._lock.acquire(timeout=1.0):
            return False
        try:
            remaining = self._counts[slot]
            if remaining > 0:
                self._counts[slot] = remaining - 1
            return remaining != 0  # UNLIMITED stays at -1
        finally:
            self._lock.release()

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse ``point[:times][,point[:times]...]`` (times default 1,
        ``*`` = unlimited).  Raises ``ValueError`` on unknown points or
        malformed counts."""
        rules: Dict[str, int] = {}
        for chunk in spec.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            point, _, times_text = chunk.partition(":")
            point = point.strip()
            times_text = times_text.strip()
            if not times_text:
                times = 1
            elif times_text == "*":
                times = UNLIMITED
            else:
                try:
                    times = int(times_text)
                except ValueError:
                    raise ValueError(
                        "malformed fault count %r in REPRO_FAULTS "
                        "entry %r (want an integer or '*')"
                        % (times_text, chunk))
                if times < 0:
                    raise ValueError(
                        "negative fault count in %r" % chunk)
            rules[point] = times
        return cls(rules)

    def __bool__(self) -> bool:
        return bool(self._slots)


def plan_from_env() -> Optional[FaultPlan]:
    """The plan described by ``REPRO_FAULTS`` (None when unset/empty)."""
    spec = os.environ.get("REPRO_FAULTS", "")
    if not spec.strip():
        return None
    return FaultPlan.parse(spec)


# ---------------------------------------------------------------------
# Process-wide state
# ---------------------------------------------------------------------

_PLAN: Optional[FaultPlan] = None
_ENV_CONSULTED = False
_FIRED: Dict[str, int] = {}


def install_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install *plan* process-wide (None disables injection).  Also
    suppresses the lazy ``REPRO_FAULTS`` read, so tests own the state
    after the first call."""
    global _PLAN, _ENV_CONSULTED
    _PLAN = plan
    _ENV_CONSULTED = True
    return plan


def reset_faults() -> None:
    """Disable injection and clear fired tallies (tests)."""
    install_plan(None)
    _FIRED.clear()


def _current_plan() -> Optional[FaultPlan]:
    global _PLAN, _ENV_CONSULTED
    if not _ENV_CONSULTED:
        _ENV_CONSULTED = True
        _PLAN = plan_from_env()
    return _PLAN


def active() -> bool:
    """Whether any fault point can still fire.  The first call (of
    this or :func:`should_fire`) reads ``REPRO_FAULTS``; the engine
    calls this before it forks pool workers, so they share the
    parent's plan."""
    plan = _current_plan()
    return bool(plan) and any(times != 0
                              for times in plan.remaining.values())


def should_fire(point: str) -> bool:
    """Consume one firing of *point* if the active plan allows it.

    The single hook production code calls; unknown points raise so a
    typo in an instrumentation site cannot silently never fire.
    """
    if point not in FAULT_POINTS:
        raise ValueError("unregistered fault point %r" % point)
    plan = _current_plan()
    if plan is None or not plan.spend(point):
        return False
    _FIRED[point] = _FIRED.get(point, 0) + 1
    return True


def fired_counts() -> Dict[str, int]:
    """Per-point tally of faults injected in this process."""
    return dict(_FIRED)


def draw_cell_faults(pool: bool) -> Tuple[str, ...]:
    """Consume the worker-level fault budgets for one cell dispatch.

    The *parent* draws before handing a cell to a worker and ships the
    drawn points as plain task arguments, so budgets are spent exactly
    once process-wide — a forked pool re-inheriting the plan can never
    re-fire an exhausted point.  Hangs and poisoned result payloads
    only make sense across a process boundary, so they are only drawn
    for pool dispatches.
    """
    if _current_plan() is None:
        return ()
    points = ["worker.crash"]
    if pool:
        points += ["worker.hang", "artifact.unpicklable"]
    return tuple(point for point in points if should_fire(point))


def hang_seconds() -> float:
    """How long an injected ``worker.hang`` sleeps
    (``REPRO_FAULT_HANG_S``, default 30 — comfortably past any test
    cell timeout while still bounded)."""
    try:
        return float(os.environ.get("REPRO_FAULT_HANG_S", "30"))
    except ValueError:
        return 30.0

