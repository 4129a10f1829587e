"""Deterministic data-parallel sweeps, behind --threads.

`parallel_lanes` splits work into a fixed number of slices independent of the
thread count, and the slices go through `ordered_map` on --threads threads,
their results combined in slice order, so no byte depends on the thread
count.  `ordered_map` is the one place a pool is made, only when it is asked
for more than one thread, and its pool lives in a `with` block: no thread
outlives the call.  Everything else runs on the calling thread.

A worker may keep reusable buffers in `scratch()`, its thread's dict, for as
long as the outermost `ordered_map` runs: a pool thread's dict ends with the
thread when the pool's `with` block ends, and the calling thread's is dropped
when that call returns.  Outside a worker `scratch()` is a fresh dict, so
nothing is kept.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, TypeVar

import numpy as np

FIXED_CHUNKS = 64

T = TypeVar("T")
R = TypeVar("R")

# .active is true in a worker; .scratch is its scratch() dict
_worker = threading.local()


def _in_worker() -> bool:
    return getattr(_worker, "active", False)


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


def ordered_map(fn: Callable[[T], R], items: Iterable[T], workers: int) -> list[R]:
    """[fn(x) for x in items], run on `workers` threads (serially for one).

    Each item runs marked a worker.  An exception surfaces from the earliest
    item that raised, as in the serial loop.  The outermost call ends every
    `scratch()` dict its items used.
    """
    items = list(items)
    run = _as_worker(fn)
    outermost = not _in_worker()
    workers = min(workers, len(items))
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
