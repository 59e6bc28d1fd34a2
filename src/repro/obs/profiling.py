"""``cProfile`` capture for hot harness stages.

``python -m repro.harness F8 --profile`` wraps each experiment in a
profiler and stores one binary pstats artifact per experiment in the
run's observability directory; inspect them later with::

    python -m pstats .repro-cache/runs/obs-<run id>/profile-F8.pstats

The context manager is a no-op when disabled, so call sites need no
conditionals.
"""

from __future__ import annotations

import cProfile
from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = ["profile_into"]


@contextmanager
def profile_into(path: Optional[str]) -> Iterator[None]:
    """Profile the block into *path* (pstats format); None disables."""
    if path is None:
        yield
        return
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        profiler.dump_stats(path)

