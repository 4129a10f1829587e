"""Deterministic data-parallel sweeps, at two levels.

`parallel_lanes` is the outer level, behind --threads: work splits into a
fixed number of slices independent of the thread count, and the slices go
through `ordered_map` on --threads threads, their results combined in slice
order.  `ordered_map` alone is the inner level, inside one long sweep: it
maps over items in order on as many threads as the process has CPUs (its
affinity mask, not --threads).  It has two callers there: the lane groups of
`cocycle.log_norms_batch`, and the anchor groups of the steering-window
sweeps (`perturb._sweep`), which go one wave of `map_workers()` groups at a
time so that a failing wave ends the sweep.  Each caller splits its work so
that no byte depends on the thread count.

The levels do not nest: a worker of either level runs `ordered_map`
serially in its own thread, so a grid sweep under --threads k runs at most k
threads.  `ordered_map` is the one place a pool is made, and its pool lives
in a `with` block: no thread outlives the call.

A worker may keep reusable buffers in `scratch()`, its thread's dict, for as
long as the outermost `ordered_map` runs: a pool thread's dict ends with the
thread when the pool's `with` block ends, and the calling thread's is dropped
when that call returns.  Outside a worker `scratch()` is a fresh dict, so
nothing is kept.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Optional, TypeVar

import numpy as np

FIXED_CHUNKS = 64

T = TypeVar("T")
R = TypeVar("R")

# .active is true in a worker of either level; .scratch is its scratch() dict
_worker = threading.local()


def cpu_workers() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _in_worker() -> bool:
    return getattr(_worker, "active", False)


def map_workers() -> int:
    """Threads `ordered_map` runs on here: one inside a worker, else the CPUs."""
    return 1 if _in_worker() else cpu_workers()


def scratch() -> dict:
    """The calling worker's dict for buffers it reuses, kept until the
    outermost `ordered_map` ends; a fresh dict outside a worker."""
    return vars(_worker).setdefault("scratch", {}) if _in_worker() else {}


def _as_worker(fn: Callable[[T], R]) -> Callable[[T], R]:
    """fn, with the calling thread marked a worker while it runs."""
    def run(item: T) -> R:
        prev = _in_worker()
        _worker.active = True
        try:
            return fn(item)
        finally:
            _worker.active = prev
    return run


def ordered_map(fn: Callable[[T], R], items: Iterable[T],
                workers: Optional[int] = None) -> list[R]:
    """[fn(x) for x in items], run on `workers` threads (default `map_workers()`:
    the process's CPUs, serial inside a worker).

    Each item runs marked a worker.  An exception surfaces from the earliest
    item that raised, as in the serial loop.  The outermost call ends every
    `scratch()` dict its items used.
    """
    items = list(items)
    run = _as_worker(fn)
    outermost = not _in_worker()
    workers = min(map_workers() if workers is None else workers, len(items))
    try:
        if workers <= 1:
            return [run(x) for x in items]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, items))
    finally:
        if outermost:
            vars(_worker).pop("scratch", None)


def parallel_lanes(fn: Callable[[np.ndarray], np.ndarray], xs: np.ndarray,
                   threads: int = 1) -> np.ndarray:
    """Apply fn to fixed slices of xs and concatenate in slice order."""
    xs = np.asarray(xs)
    n_chunks = min(FIXED_CHUNKS, max(1, xs.shape[0]))
    bounds = np.linspace(0, xs.shape[0], n_chunks + 1).astype(int)
    slices = [xs[bounds[i]:bounds[i + 1]] for i in range(n_chunks) if bounds[i] < bounds[i + 1]]
    return np.concatenate(ordered_map(fn, slices, workers=threads))
