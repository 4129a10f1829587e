"""Spans and counts recorded at the public functions of cocyclelab's modules.

The program is not edited: `install` replaces module-level names (and the
copies other modules imported with `from .x import name`) and a few class
attributes with wrappers, inside this process only; `uninstall` puts the
originals back.  Spans are kept in memory and written out as JSON when the run
ends.  A span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import pkgutil
import threading
import time
from typing import Callable, Optional

import numpy as np


class Recorder:
    """In-memory spans (id, name, start, end, parent) and per-thread counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, name, start, end, parent)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counters: list[dict] = []  # one dict per thread, merged on read
        self._lock = threading.Lock()

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []
            st.root = None
            st.counts = {}
            with self._lock:
                self._counters.append(st.counts)
        return st

    def adopt(self, parent: Optional[int]) -> Optional[int]:
        """Make `parent` the parent of top-level spans opened by this thread.

        Returns the previous one, for the caller to restore.
        """
        st = self._state()
        prev, st.root = st.root, parent
        return prev

    def begin(self) -> tuple:
        st = self._state()
        sid = next(self._ids)
        parent = st.stack[-1] if st.stack else st.root
        st.stack.append(sid)
        return sid, parent, time.perf_counter()

    def end(self, name: str, token: tuple) -> None:
        t1 = time.perf_counter()
        sid, parent, t0 = token
        self._state().stack.pop()
        self.spans.append((sid, name, t0, t1, parent))

    def count(self, name: str, amount=1) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + amount

    def counts(self) -> dict:
        out: dict = {}
        with self._lock:
            for c in self._counters:
                for k, v in c.items():
                    out[k] = out.get(k, 0) + v
        return out

    def to_json(self) -> dict:
        selfs = self_times(self.spans)
        return {
            "run_id": self.run_id,
            "counts": self.counts(),
            "spans": [{"id": s, "name": n, "start": t0, "end": t1, "parent": p,
                       "self": selfs[s]} for s, n, t0, t1, p in self.spans],
        }


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given (start, end) pairs."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by its child spans.

    Children of one span may overlap (worker threads), so the covered part is
    the length of the union of the children's intervals clipped to the parent.
    """
    children: dict = {}
    for sid, _, t0, t1, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    return {sid: (t1 - t0) - covered_length(children.get(sid, ()), t0, t1)
            for sid, _, t0, t1, _ in spans}


# -- what gets wrapped ---------------------------------------------------------------
#
# Span targets: (module, dotted attribute, span name).  A dotted attribute is a
# class method; a plain one is a module-level function, replaced in every
# cocyclelab module that holds the same object under that name.

SPAN_TARGETS = [
    ("surgery", "build_config", "surgery.build_config"),
    ("surgery", "assemble_perturbation", "surgery.assemble_perturbation"),
    ("surgery", "verify_growth", "surgery.verify_growth"),
    ("surgery", "PerturbedCocycle.entries", "surgery.perturbed_entries"),
    ("towers", "build_castle", "towers.build_castle"),
    ("towers", "Castle.verify", "towers.castle_verify"),
    ("towers", "visit_freq_bound", "towers.visit_freq_bound"),
    ("basedyn", "inter_union", "basedyn.union"),
    ("basedyn", "sub_union", "basedyn.union"),
    ("basedyn", "translate_union", "basedyn.union"),
    ("exact", "best_denominators", "exact.best_denominators"),
    ("cocycle", "log_norms_batch", "cocycle.log_norms_batch"),
    ("cocycle", "uh_certify", "cocycle.uh_certify"),
    ("cocycle", "ConstantGenerator.entries", "cocycle.entries"),
    ("cocycle", "RotationGenerator.entries", "cocycle.entries"),
    ("cocycle", "SchrodingerGenerator.entries", "cocycle.entries"),
    ("cocycle", "HopfRestrictionGenerator.entries", "cocycle.entries"),
    ("cocycle", "TableGenerator.entries", "cocycle.entries"),
    ("sl2", "exp_traceless_arrays", "sl2.exp_traceless_arrays"),
    ("sl2", "log_sl2_arrays", "sl2.log_sl2_arrays"),
    ("perturb", "choose_steering_window", "perturb.choose_steering_window"),
    ("perturb", "plan_segments", "perturb.plan_segments"),
    ("perturb", "verify_segment", "perturb.verify_segment"),
    ("_parallel", "parallel_lanes", "parallel.parallel_lanes"),
]

# Count-only targets, for functions called too often for a span each.
COUNT_TARGETS = [
    ("sl2", "general_operator_norm", "sl2.general_operator_norm_calls"),
    ("exact", "QuadExt._cmp", "exact.quadext_compares"),
] + [("exact", f"QuadExt.{op}", "exact.quadext_ops") for op in (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "inverse")]


def _span_wrapper(rec: Recorder, fn: Callable, name: str) -> Callable:
    if name == "cocycle.entries":
        @functools.wraps(fn)
        def wrapper(self, xs):
            rec.count("cocycle.entries_elems", int(np.size(xs)))
            tok = rec.begin()
            try:
                return fn(self, xs)
            finally:
                rec.end(name, tok)
        return wrapper
    if name == "cocycle.log_norms_batch":
        @functools.wraps(fn)
        def wrapper(co, anchors, n, *args, **kwargs):
            rec.count("cocycle.log_norms_batch_steps", int(np.size(anchors)) * int(n))
            tok = rec.begin()
            try:
                return fn(co, anchors, n, *args, **kwargs)
            finally:
                rec.end(name, tok)
        return wrapper
    if name == "parallel.parallel_lanes":
        @functools.wraps(fn)
        def wrapper(work, xs, threads=1):
            tok = rec.begin()
            sid, _, t0 = tok

            def chunk(sl):
                prev = rec.adopt(sid)
                ctok = rec.begin()
                try:
                    return work(sl)
                finally:
                    rec.end("parallel.chunk", ctok)
                    rec.adopt(prev)
            try:
                return fn(chunk, xs, threads)
            finally:
                rec.end(name, tok)
                # wall time times the threads offered: the denominator of efficiency
                rec.count("parallel.slot_s", (time.perf_counter() - t0) * max(1, int(threads)))
        return wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tok = rec.begin()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(name, tok)
    return wrapper


def _count_wrapper(rec: Recorder, fn: Callable, name: str) -> Callable:
    counts_of = rec._state  # noqa: SLF001 - hot path, skip a method call

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        c = counts_of().counts
        c[name] = c.get(name, 0) + 1
        return fn(*args, **kwargs)
    return wrapper


class Tracer:
    """Installs span and count wrappers into the loaded cocyclelab modules."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._undo: list[tuple] = []

    def install(self) -> None:
        import cocyclelab

        # import every module first, so each `from .x import name` copy exists
        mods = {info.name: importlib.import_module(f"cocyclelab.{info.name}")
                for info in pkgutil.iter_modules(cocyclelab.__path__)}
        for mod, attr, name in SPAN_TARGETS:
            self._patch(mods, mod, attr, lambda fn, n=name: _span_wrapper(self.rec, fn, n))
        for mod, attr, name in COUNT_TARGETS:
            self._patch(mods, mod, attr, lambda fn, n=name: _count_wrapper(self.rec, fn, n))

    def _patch(self, mods: dict, mod: str, attr: str, make: Callable) -> None:
        home = mods[mod]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, make(orig))
            return
        orig = getattr(home, attr)
        wrapped = make(orig)
        for m in mods.values():
            if getattr(m, attr, None) is orig:
                self._undo.append((m, attr, orig))
                setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


# -- per-layer metrics ------------------------------------------------------------------

# metric name -> (span name, "incl" or "self")
TIME_METRICS = {
    "surgery.build_config_s": ("surgery.build_config", "incl"),
    "surgery.assemble_perturbation_s": ("surgery.assemble_perturbation", "incl"),
    "surgery.verify_growth_s": ("surgery.verify_growth", "incl"),
    "surgery.perturbed_entries_s": ("surgery.perturbed_entries", "self"),
    "towers.build_castle_s": ("towers.build_castle", "incl"),
    "towers.castle_verify_s": ("towers.castle_verify", "incl"),
    "towers.visit_freq_bound_s": ("towers.visit_freq_bound", "incl"),
    "basedyn.union_s": ("basedyn.union", "incl"),
    "exact.best_denominators_s": ("exact.best_denominators", "incl"),
    "cocycle.log_norms_batch_s": ("cocycle.log_norms_batch", "incl"),
    "cocycle.entries_s": ("cocycle.entries", "incl"),
    "cocycle.uh_certify_s": ("cocycle.uh_certify", "incl"),
    "sl2.exp_traceless_arrays_s": ("sl2.exp_traceless_arrays", "incl"),
    "sl2.log_sl2_arrays_s": ("sl2.log_sl2_arrays", "incl"),
    "perturb.choose_steering_window_s": ("perturb.choose_steering_window", "incl"),
    "perturb.plan_segments_s": ("perturb.plan_segments", "incl"),
    "perturb.verify_segment_s": ("perturb.verify_segment", "incl"),
    "parallel.parallel_lanes_s": ("parallel.parallel_lanes", "incl"),
}

# metric name -> span name whose calls it counts
CALL_METRICS = {
    "basedyn.union_calls": "basedyn.union",
    "exact.best_denominators_calls": "exact.best_denominators",
    "cocycle.entries_calls": "cocycle.entries",
}

# metrics read straight from the counters of the same name
COUNTER_METRICS = ("exact.quadext_compares", "exact.quadext_ops",
                   "sl2.general_operator_norm_calls")


def layer_metrics(spans, counts: dict) -> dict:
    """Per-layer values of one traced round, keyed by metric name.

    Inclusive time sums the durations of the outermost spans of a name (a span
    nested in a span of the same name is not counted twice); spans that run
    side by side in worker threads all count, so it is busy time.
    """
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    incl: dict = {}
    own: dict = {}
    calls: dict = {}
    for sid, name, t0, t1, parent in spans:
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + selfs[sid]
        p = parent
        nested = False
        while p is not None and p in by_id:
            if by_id[p][1] == name:
                nested = True
                break
            p = by_id[p][4]
        if not nested:
            incl[name] = incl.get(name, 0.0) + (t1 - t0)
    out = {}
    for metric, (name, kind) in TIME_METRICS.items():
        out[metric] = (incl if kind == "incl" else own).get(name, 0.0)
    for metric, name in CALL_METRICS.items():
        out[metric] = calls.get(name, 0)
    for metric in COUNTER_METRICS:
        out[metric] = counts.get(metric, 0)
    out["cocycle.entries_melems"] = counts.get("cocycle.entries_elems", 0) / 1e6
    lnb = incl.get("cocycle.log_norms_batch", 0.0)
    steps = counts.get("cocycle.log_norms_batch_steps", 0)
    out["cocycle.log_norms_batch_msteps_per_s"] = steps / 1e6 / lnb if lnb > 0 else 0.0
    planning = incl.get("perturb.plan_segments", 0.0) + incl.get("perturb.verify_segment", 0.0)
    verified = calls.get("perturb.verify_segment", 0)
    out["perturb.plans_per_s"] = verified / planning if planning > 0 else 0.0
    slots = counts.get("parallel.slot_s", 0.0)
    out["parallel.efficiency"] = incl.get("parallel.chunk", 0.0) / slots if slots > 0 else 0.0
    return out
