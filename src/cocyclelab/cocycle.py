"""Cocycle products, exponent estimation, growth tests and UH certification.

Long products run through the pairwise tree of `sl2.tree_product`: a fixed
reduction order, independent of any thread count, one vectorized product per
level, and a power-of-two rescale only at the levels whose nodes span a
multiple of 16 steps and at the root.  Grid sweeps chunk lanes and steps, and
build each step chunk's tree from aligned power-of-two blocks of at most
max(min(_MAX_ELEMS, 2^19), lane_chunk) entry elements (one step of a lane
chunk when the lanes alone exceed the cap) and at most 4096 steps: memory is
bounded by one block at any horizon, and the bits are those of the whole
chunk's tree.  The trees write their levels into buffers that each worker
thread keeps until the outermost `_parallel.ordered_map` returns, so the
blocks and slices of one sweep reuse them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._parallel import ordered_map, parallel_lanes
from .basedyn import BasePoint, CircleRotation, wrap_floats
from .errors import CocycleLabError, Overflow
from .sl2 import (
    Mat2,
    _HARD_DRIFT,
    _mul,
    exp_traceless_arrays,
    general_operator_norm,
    log_norm,
    log_sl2_arrays,
    rescale,
    tree_product,
)

_OVERFLOW_LIMIT = 1e300
_WITNESS_EPS = 1e-3  # uh_certify's norm-collapse threshold on (1/n) log ||A_n||
_MAX_ELEMS = 1 << 23  # entry elements per lane and step chunk of log_norms_batch
_BLOCK_ELEMS = 1 << 19  # entry elements per block of log_norms_batch's tree
_BLOCK_STEPS = 1 << 12  # and steps per block, at most
_FIELD_LANES = 1 << 12  # grid points per chunk of uh_certify's candidate field


# -- generators -------------------------------------------------------------------


class Generator:
    """Map from base coordinates to SL(2,R), evaluable on coordinate arrays.

    `entries(xs)` returns the entry arrays (a, b, c, d), each of xs's shape.
    They are read-only to callers: an entry the generator knows without
    evaluating, as Schrodinger's b, c and d, may be a zero-stride view
    (`np.broadcast_to`) that cannot be written, and two entries may be one
    array.  A caller that needs to write copies first.
    """

    def entries(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        raise NotImplementedError


class ConstantGenerator(Generator):
    def __init__(self, mat: Mat2):
        self.mat = mat

    def entries(self, xs):
        shape = np.shape(xs)
        return tuple(np.broadcast_to(np.float64(v), shape) for v in self.mat.entries())


class RotationGenerator(Generator):
    """Rotation-valued generator R_{2 pi (offset + winding * x)}."""

    def __init__(self, offset: float = 0.0, winding: float = 0.0):
        self.offset = float(offset)
        self.winding = float(winding)

    def entries(self, xs):
        xs = np.asarray(xs, dtype=float)
        th = np.multiply(self.winding, xs, out=np.empty(xs.shape))
        np.add(self.offset, th, out=th)
        np.multiply(2.0 * math.pi, th, out=th)
        c = np.cos(th)
        s = np.sin(th, out=th)
        return c, np.negative(s), s, c


class SchrodingerGenerator(Generator):
    """Transfer matrices [[E - 2 lam cos(2 pi x), -1], [1, 0]] (det = 1)."""

    def __init__(self, energy: float, coupling: float):
        self.energy = float(energy)
        self.coupling = float(coupling)

    def entries(self, xs):
        xs = np.asarray(xs, dtype=float)
        a = np.multiply(2.0 * math.pi, xs, out=np.empty(xs.shape))
        np.cos(a, out=a)
        np.multiply(2.0 * self.coupling, a, out=a)
        np.subtract(self.energy, a, out=a)
        return (a, *(np.broadcast_to(v, xs.shape) for v in (-1.0, 1.0, 0.0)))


class HopfRestrictionGenerator(Generator):
    """R_{theta + alpha} diag(2, 1/2) R_{-theta} with theta = 2 pi x."""

    def __init__(self, alpha: float):
        self.alpha = float(alpha)

    def entries(self, xs):
        xs = np.asarray(xs, dtype=float)
        th = np.multiply(2.0 * math.pi, xs, out=np.empty(xs.shape))
        ct, st = np.cos(th), np.sin(th)
        np.add(th, self.alpha, out=th)
        ca = np.cos(th)
        sa = np.sin(th, out=th)
        tmp = np.empty(xs.shape)

        def entry(p, q, combine, r, s):
            """(2 p) q combined with (0.5 r) s, into a new array."""
            out = np.multiply(2.0, p, out=np.empty(xs.shape))
            np.multiply(out, q, out=out)
            np.multiply(0.5, r, out=tmp)
            np.multiply(tmp, s, out=tmp)
            return combine(out, tmp, out=out)

        # R_{th+alpha} @ diag(2, 1/2) @ R_{-th}, expanded entrywise
        return (
            entry(ca, ct, np.add, sa, st),
            entry(ca, st, np.subtract, sa, ct),
            entry(sa, ct, np.subtract, ca, st),
            entry(sa, st, np.add, ca, ct),
        )


class TableGenerator(Generator):
    """Grid table with interpolation in the tangent chart (stays in SL(2,R))."""

    def __init__(self, values: np.ndarray):
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 2 or vals.shape[1] != 4 or vals.shape[0] < 1:
            raise CocycleLabError(f"table must have shape (G, 4) with G >= 1, got {vals.shape}")
        # Mat2's hard gate, row by row (a NaN det fails it too)
        det = vals[:, 0] * vals[:, 3] - vals[:, 1] * vals[:, 2]
        bad = ~(np.abs(det - 1.0) <= np.maximum(_HARD_DRIFT, 1e-14 * (vals * vals).sum(axis=1)))
        if bad.any():
            i = int(np.argmax(bad))
            raise CocycleLabError(f"table row {i} has det {float(det[i])!r}, not 1")
        self.values = vals
        self.size = vals.shape[0]
        self._cols = tuple(np.ascontiguousarray(v) for v in vals.T)  # gathered by take
        a, b, c, d = self._cols
        # step = A_i^{-1} A_{i+1}; its log drives the interpolation
        self._xi = log_sl2_arrays(*_mul(d, -b, -c, a, *np.roll(vals, -1, axis=0).T))

    def entries(self, xs):
        shape = np.shape(xs)
        pos = wrap_floats(np.reshape(xs, -1))  # a new flat array, written in place
        np.multiply(pos, self.size, out=pos)
        idx = pos.astype(int)
        np.minimum(idx, self.size - 1, out=idx)
        t = np.subtract(pos, idx, out=pos)
        ts = [xi.take(idx) for xi in self._xi]
        for v in ts:
            np.multiply(v, t, out=v)
        step = exp_traceless_arrays(*ts)
        out = [np.empty(pos.size) for _ in range(4)] + [ts[0]]  # t1 is spent: the temporary
        ents = _mul(*(col.take(idx) for col in self._cols), *step, out=out)
        return tuple(e.reshape(shape) for e in ents)


def twisted_table(coupling: float, size: int = 4096) -> TableGenerator:
    """Table sampling R_{2 pi x} diag(lam, 1/lam) on a uniform grid.

    Degree one in x, so no continuous invariant splitting can exist over a
    circle rotation regardless of parameters: a positive-exponent generator
    that is never uniformly hyperbolic, at operator norm only lam.  The useful
    non-UH test input at small norms, where Schrodinger coupling cannot go.
    """
    if coupling <= 1.0:
        raise CocycleLabError("coupling must exceed 1")
    th = 2.0 * math.pi * np.arange(size) / size
    c, s = np.cos(th), np.sin(th)
    vals = np.stack([coupling * c, -s / coupling, coupling * s, c / coupling], axis=1)
    return TableGenerator(vals)


# -- the cocycle -------------------------------------------------------------------


class Cocycle:
    """Pair (f, A): a base system and an SL(2,R)-valued generator over it."""

    def __init__(self, base: CircleRotation, generator: Generator):
        self.base = base
        self.generator = generator
        self._sup_norm: Optional[float] = None

    @property
    def sup_norm(self) -> float:
        if self._sup_norm is None:
            xs = self.base.grid_floats()
            a, b, c, d = self.generator.entries(xs)
            # unimodular, so sigma1 >= 1: the floor only removes rounding
            self._sup_norm = max(float(np.max(general_operator_norm(a, b, c, d))), 1.0)
        return self._sup_norm

    def orbit(self, x: BasePoint, n: int) -> np.ndarray:
        """Float positions of x, f(x), ..., f^{n-1}(x)."""
        return self.base.orbit_floats(self.base.float_coords(x)[0], n)

    def entries_along(self, x0, n: int, start: int = 0) -> tuple[np.ndarray, ...]:
        """Generator entry arrays (a, b, c, d) along the float orbit of x0.

        The positions are CircleRotation.orbit_floats(x0, n, start): the shape
        of x0 plus a last axis of n steps.
        """
        pos = self.base.orbit_floats(x0, n, start)
        return tuple(np.asarray(e, dtype=float) for e in self.generator.entries(pos))


def iterate(co: Cocycle, x: BasePoint, n: int) -> Mat2:
    """Ordered product A(f^{n-1} x) ... A(x); n = 0 gives the identity.

    Raises Overflow once intermediate entries pass 1e300; callers needing long
    horizons use the log-scaled routines instead.  The unscaled product loop
    here is the reference that the tests hold the sl2 kernel to.
    """
    if n < 0:
        raise CocycleLabError("iterate needs n >= 0")
    if n == 0:
        return Mat2.identity()
    pos = co.orbit(x, n)
    a, b, c, d = co.generator.entries(pos)
    pa, pb, pc, pd = a[0], b[0], c[0], d[0]
    for j in range(1, n):
        na, nb, nc, nd = a[j], b[j], c[j], d[j]
        pa, pb, pc, pd = (
            na * pa + nb * pc,
            na * pb + nb * pd,
            nc * pa + nd * pc,
            nc * pb + nd * pd,
        )
        if max(abs(pa), abs(pb), abs(pc), abs(pd)) > _OVERFLOW_LIMIT:
            raise Overflow(f"entries beyond 1e300 at step {j + 1}")
    return Mat2(float(pa), float(pb), float(pc), float(pd))


def _blocked_tree(fetch, n: int, block: int):
    """tree_product of the (L, n) entries that fetch(start, count) returns,
    fetched and reduced one aligned block of `block` steps (a power of two)
    at a time, with the same bits as one tree_product over all n steps.

    A complete aligned block is a node of the whole tree, reduced by the same
    pairings.  A partial last block sees, at every level below its root, the
    parity of the whole level, so it is padded alike; above its root the
    whole tree only pads it with the identity, which is exact up to the sign
    of a zero.  The block nodes then combine by one more tree_product: the
    whole tree's upper levels.  The two schedules rescale at different
    levels: each block tree at its root (a last block of one step not at
    all), the upper tree at levels counted from the blocks, the whole tree
    at levels 4, 8, ... and its root.  Power-of-two rescales commute with
    products while no entry overflows or goes subnormal, so every product
    keeps its mantissa and exponent sum under either schedule.  A block or
    upper tree that overflows restarts with every level rescaled, as the
    whole tree does.
    """
    nodes = [tree_product(*fetch(s, min(block, n - s))) for s in range(0, n, block)]
    a, b, c, d, e = (np.stack(v, axis=1) for v in zip(*nodes))
    *top, e_top = tree_product(a, b, c, d)
    return (*top, e_top + e.sum(axis=1))


def _lane_log_norms(co: Cocycle, lanes: np.ndarray, n: int, step_chunk: int,
                    block: int) -> np.ndarray:
    """log ||A_n|| of each lane: step chunks of `_blocked_tree` products,
    carried and rescaled by powers of two."""
    carry = (np.ones(lanes.size), np.zeros(lanes.size), np.zeros(lanes.size), np.ones(lanes.size))
    exp2 = np.zeros(lanes.size, dtype=np.int64)
    for s0 in range(0, n, step_chunk):
        s1 = min(s0 + step_chunk, n)
        *chunk, e_chunk = _blocked_tree(
            lambda s, k: co.entries_along(lanes, k, s0 + s), s1 - s0, block)
        *carry, e_carry = rescale(*_mul(*chunk, *carry))
        exp2 += e_chunk + e_carry
    return log_norm(*carry, exp2)


def log_norms_batch(co: Cocycle, anchors: np.ndarray, n: int) -> np.ndarray:
    """log ||A_n(x)|| for an array of float anchors.

    Lane-chunked, and step-chunked with a carried running product for long
    horizons: each step chunk is one tree product, and the carry is rescaled
    by powers of two like the tree.  `_MAX_ELEMS` fixes these lane and step
    chunks, the carry grouping, and the bits depend on nothing else.  Each
    chunk's tree is built from aligned power-of-two blocks (`_blocked_tree`)
    whose width is max(min(_MAX_ELEMS, 2^19), lane_chunk) elements, one step
    when a lane chunk alone exceeds the cap, as with many lanes and a short
    horizon, and whose length is at most `_BLOCK_STEPS` = 4096 steps.  So
    memory is bounded by one block at any n, and the blocks move no bit.

    The lane chunks run in order on the calling thread, as the items of one
    serial `ordered_map`, so every tree writes its levels into the same
    buffers (`sl2.tree_product`), which live until the outermost
    `ordered_map` returns: across the blocks and chunks of this call, and
    across the slices of a sweep that runs it in a worker.  The 4096-step
    cap is measured.  The `sweep` bench input (64 lanes a slice, 10,000
    steps) has 8192-step blocks without it, and the buffers its two threads
    keep for them raised peak RSS from about 75 to 110 MiB.
    """
    anchors = np.atleast_1d(np.asarray(anchors, dtype=float))
    if n < 1:
        raise CocycleLabError("need n >= 1")
    lane_chunk = max(1, min(anchors.size, max(_MAX_ELEMS // max(n, 1), 256)))
    step_chunk = max(1, _MAX_ELEMS // lane_chunk)
    width = 1 << max(0, (min(_MAX_ELEMS, _BLOCK_ELEMS) // lane_chunk).bit_length() - 1)
    block = min(width, _BLOCK_STEPS)
    chunks = [anchors[lo:lo + lane_chunk] for lo in range(0, anchors.size, lane_chunk)]
    logs = ordered_map(lambda sl: _lane_log_norms(co, sl, n, step_chunk, block), chunks,
                       workers=1)
    return np.concatenate(logs) if logs else np.empty(0)


def lyapunov_estimate(co: Cocycle, x: BasePoint, n: int) -> float:
    """(1/n) log ||A_n(x)||; converges to the exponent on uniquely ergodic bases."""
    x0 = co.base.float_coords(x)[0]
    return float(log_norms_batch(co, np.array([x0]), n)[0]) / n


# -- growth report and uniform test --------------------------------------------------


@dataclass
class GrowthReport:
    n: int
    grid_size: int
    min: float
    max: float
    mean: float
    argmax: float
    values: np.ndarray
    positions: np.ndarray
    margin: float


def growth_sweep(co: Cocycle, n: int, grid: Optional[np.ndarray] = None,
                 threads: int = 1) -> GrowthReport:
    """(1/n) log ||A_n|| over the grid; lanes split over `threads` without
    changing any bit of the result."""
    xs = co.base.grid_floats() if grid is None else np.asarray(grid, dtype=float)
    logs = parallel_lanes(lambda sl: log_norms_batch(co, sl, n), xs, threads)
    # unimodular products have norm >= 1 exactly; clip tree rounding at 0
    vals = np.maximum(logs, 0.0) / n
    diffs = np.abs(np.diff(vals))
    margin = 4.0 * float(diffs.max()) if diffs.size else 0.0
    return GrowthReport(
        n=n,
        grid_size=xs.size,
        min=float(vals.min()),
        max=float(vals.max()),
        mean=float(vals.mean()),
        argmax=float(xs[int(np.argmax(vals))]),
        values=vals,
        positions=xs,
        margin=margin,
    )


def uniform_growth_test(co: Cocycle, eps: float, n: int,
                        threads: int = 1) -> tuple[bool, GrowthReport]:
    """Grid-certified check of ||A_n(x)|| <= e^{eps n} with a Lipschitz margin;
    `threads` splits the sweep's lanes without changing any bit."""
    if eps <= 0 or n < 1:
        raise CocycleLabError("need eps > 0 and n >= 1")
    rep = growth_sweep(co, n, threads=threads)
    return rep.max < eps - rep.margin, rep


# -- uniform hyperbolicity certification ---------------------------------------------


@dataclass
class Certificate:
    """Cone field strictly invariant over n steps, with the center-field expansion."""

    n: int
    cone_angles: np.ndarray  # RP1 angles of cone centers per grid point
    cone_width: float
    expansion: float  # min ||A(x) u(x)|| along the certified field
    margin: float

    @property
    def eps(self) -> float:
        return math.log(max(self.expansion, 1.0 + 1e-12))


@dataclass
class Witness:
    point: BasePoint
    n: int
    value: float  # (1/n) log ||A_n|| at the witness


@dataclass
class Inconclusive:
    reason: str


def _direction_angles(a, b, c, d, theta):
    """Angle of A applied to direction theta (all arrays, RP1 mod pi)."""
    vx, vy = np.cos(theta), np.sin(theta)
    wx = a * vx + b * vy
    wy = c * vx + d * vy
    return np.mod(np.arctan2(wy, wx), math.pi)


def uh_certify(co: Cocycle, grid: Optional[np.ndarray] = None, n_max: int = 64):
    """Semi-decision: invariant-cone Certificate, norm-collapse Witness, or Inconclusive.

    A Witness is a grid point where (1/n_max) log ||A_n_max|| < _WITNESS_EPS.
    """
    xs = co.base.grid_floats() if grid is None else np.asarray(grid, dtype=float)
    G = xs.size
    spacing = 1.0 / G
    theta = _unstable_field(co, xs)

    # roughness of the field and sensitivity of the direction action, x-wise
    field_diff = _angdist(theta, np.roll(theta, -1))
    lip_field = float(field_diff.max()) / spacing
    pre = co.base.orbit_floats(xs, 1, -1)[:, 0]
    a, b, c, d = co.generator.entries(pre)
    prev_idx = np.mod(np.round(pre * G).astype(int), G)
    a2, b2, c2, d2 = co.generator.entries(np.mod(pre + 0.5 * spacing, 1.0))
    act_diff = _angdist(_direction_angles(a2, b2, c2, d2, theta[prev_idx]),
                        _direction_angles(a, b, c, d, theta[prev_idx]))
    lip_act = float(act_diff.max()) / (0.5 * spacing)
    margin = 4.0 * (lip_field + lip_act) * spacing

    ac, bc, cc, dc = co.generator.entries(xs)
    nxt_pos = co.base.orbit_floats(xs, 1, 1)[:, 0]
    nxt_idx = np.mod(np.round(nxt_pos * G).astype(int), G)
    width = max(8.0 * float(field_diff.max()), 4.0 * margin, 1e-6)
    if width < math.pi / 4:
        lo = _direction_angles(ac, bc, cc, dc, theta - width)
        hi = _direction_angles(ac, bc, cc, dc, theta + width)
        ctr = _direction_angles(ac, bc, cc, dc, theta)
        tgt = theta[nxt_idx]
        ok = (
            (_angdist(ctr, tgt) < width / 2)
            & (_angdist(lo, tgt) < width - margin)
            & (_angdist(hi, tgt) < width - margin)
        )
        vx, vy = np.cos(theta), np.sin(theta)
        growth = np.hypot(ac * vx + bc * vy, cc * vx + dc * vy)
        expansion = float(growth.min())
        if bool(ok.all()) and expansion > 1.0 + margin:
            return Certificate(n=1, cone_angles=theta, cone_width=width,
                               expansion=expansion, margin=margin)

    vals = log_norms_batch(co, xs, n_max) / n_max
    k = int(np.argmin(vals))
    if vals[k] < _WITNESS_EPS:
        return Witness(point=co.base.point(float(xs[k])), n=n_max, value=float(vals[k]))
    return Inconclusive(reason="no invariant cone found and no norm collapse at horizon")


def _unstable_field(co: Cocycle, xs: np.ndarray, depth: int = 96) -> np.ndarray:
    """RP1 angles of uh_certify's candidate unstable field at xs: a generic
    direction pushed forward along the true backward orbit of each point
    (contraction makes this exact for genuinely hyperbolic cocycles, garbage
    otherwise -- then the check fails).

    The points go `_FIELD_LANES` at a time, so the (points, depth) entry
    arrays stay a chunk's size: at grid 131072 the whole grid at once made
    the bench `surgery` input peak at 1,781 MiB.  Each point's recurrence is
    its own, elementwise, so the chunks move no bit.
    """
    theta = np.empty(xs.size)
    for lo in range(0, xs.size, _FIELD_LANES):
        part = xs[lo:lo + _FIELD_LANES]
        vx = np.ones(part.size)
        vy = np.zeros(part.size)
        # step k of the transposed entries is the generator at f^{k - depth}(x)
        for a, b, c, d in zip(*(e.T for e in co.entries_along(part, depth, -depth))):
            vx, vy = a * vx + b * vy, c * vx + d * vy
            nrm = np.hypot(vx, vy)
            vx, vy = vx / nrm, vy / nrm
        theta[lo:lo + part.size] = np.mod(np.arctan2(vy, vx), math.pi)
    return theta


def _angdist(t1, t2):
    d = np.mod(t1 - t2, math.pi)
    return np.minimum(d, math.pi - d)
