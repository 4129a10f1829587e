"""Cocycle products, exponent estimation, growth tests and UH certification.

Long products run through the pairwise tree of `sl2.tree_product`: a fixed
reduction order, independent of any thread count, and one vectorized pass per
level.  Grid sweeps chunk lanes and steps, and build each step chunk's tree
from aligned power-of-two blocks of at most max(min(max_elems, 2^19),
lane_chunk) entry elements (one step of a lane chunk when the lanes alone
exceed the cap): memory is bounded by one block at any horizon, and the bits
are those of the whole chunk's tree.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._parallel import parallel_lanes
from .basedyn import BasePoint, CircleRotation
from .errors import CocycleLabError, Overflow
from .sl2 import (
    Mat2,
    _mul,
    _rescale,
    exp_traceless_arrays,
    general_operator_norm,
    log_norm,
    log_sl2_arrays,
    scan_product,
    tree_product,
)

_OVERFLOW_LIMIT = 1e300
_WITNESS_EPS = 1e-3  # uh_certify's norm-collapse threshold on (1/n) log ||A_n||
_BLOCK_ELEMS = 1 << 19  # entry elements per block of log_norms_batch's tree


# -- generators -------------------------------------------------------------------


class Generator:
    """Map from base coordinates to SL(2,R), evaluable on coordinate arrays."""

    def entries(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        raise NotImplementedError


class ConstantGenerator(Generator):
    def __init__(self, mat: Mat2):
        self.mat = mat

    def entries(self, xs):
        xs = np.asarray(xs, dtype=float)
        one = np.ones_like(xs)
        m = self.mat
        return m.a * one, m.b * one, m.c * one, m.d * one


class RotationGenerator(Generator):
    """Rotation-valued generator R_{2 pi (offset + winding * x)}."""

    def __init__(self, offset: float = 0.0, winding: float = 0.0):
        self.offset = float(offset)
        self.winding = float(winding)

    def entries(self, xs):
        xs = np.asarray(xs, dtype=float)
        th = 2.0 * math.pi * (self.offset + self.winding * xs)
        c, s = np.cos(th), np.sin(th)
        return c, -s, s, c


class SchrodingerGenerator(Generator):
    """Transfer matrices [[E - 2 lam cos(2 pi x), -1], [1, 0]] (det = 1)."""

    def __init__(self, energy: float, coupling: float):
        self.energy = float(energy)
        self.coupling = float(coupling)

    def entries(self, xs):
        xs = np.asarray(xs, dtype=float)
        a = self.energy - 2.0 * self.coupling * np.cos(2.0 * math.pi * xs)
        one = np.ones_like(xs)
        return a, -one, one, np.zeros_like(xs)


class HopfRestrictionGenerator(Generator):
    """R_{theta + alpha} diag(2, 1/2) R_{-theta} with theta = 2 pi x."""

    def __init__(self, alpha: float):
        self.alpha = float(alpha)

    def entries(self, xs):
        th = 2.0 * math.pi * np.asarray(xs, dtype=float)
        ca, sa = np.cos(th + self.alpha), np.sin(th + self.alpha)
        ct, st = np.cos(th), np.sin(th)
        # R_{th+alpha} @ diag(2, 1/2) @ R_{-th}, expanded entrywise
        return (
            2.0 * ca * ct + 0.5 * sa * st,
            2.0 * ca * st - 0.5 * sa * ct,
            2.0 * sa * ct - 0.5 * ca * st,
            2.0 * sa * st + 0.5 * ca * ct,
        )


class TableGenerator(Generator):
    """Grid table with interpolation in the tangent chart (stays in SL(2,R))."""

    def __init__(self, values: np.ndarray):
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 2 or vals.shape[1] != 4:
            raise CocycleLabError("table must have shape (G, 4)")
        self.values = vals
        self.size = vals.shape[0]
        a, b, c, d = vals.T
        # step = A_i^{-1} A_{i+1}; its log drives the interpolation
        self._xi = log_sl2_arrays(*_mul(d, -b, -c, a, *np.roll(vals, -1, axis=0).T))

    def entries(self, xs):
        xs = np.mod(np.asarray(xs, dtype=float), 1.0)
        pos = xs * self.size
        idx = np.minimum(pos.astype(int), self.size - 1)
        t = pos - idx
        t1, t2, t3 = (xi[idx] * t for xi in self._xi)
        return _mul(*(self.values[idx, k] for k in range(4)), *exp_traceless_arrays(t1, t2, t3))


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
    of a zero, and rescales it by 2^0.  A last block of one step stays
    unrescaled, and power-of-two rescales commute with products (barring
    subnormals), so the next product has the same mantissa and exponent sum.
    The block nodes then combine by one more tree_product: the whole tree's
    upper levels.
    """
    nodes = [tree_product(*fetch(s, min(block, n - s))) for s in range(0, n, block)]
    a, b, c, d, e = (np.stack(v, axis=1) for v in zip(*nodes))
    *top, e_top = tree_product(a, b, c, d)
    return (*top, e_top + e.sum(axis=1))


def log_norms_batch(co: Cocycle, anchors: np.ndarray, n: int,
                    max_elems: int = 1 << 23) -> np.ndarray:
    """log ||A_n(x)|| for an array of float anchors.

    Lane-chunked, and step-chunked with a carried running product for long
    horizons: each step chunk is one tree product, and the carry is rescaled
    by powers of two like the tree.  `max_elems` fixes these lane and step
    chunks, the carry grouping, and the bits depend on nothing else.  Each
    chunk's tree is built from aligned power-of-two blocks (`_blocked_tree`)
    of at most max(min(max_elems, 2^19), lane_chunk) elements: a block is one
    step long when a lane chunk alone exceeds the cap, as with many lanes and
    a short horizon.  So memory is bounded by one block at any n, and the
    blocks move no bit.
    """
    anchors = np.atleast_1d(np.asarray(anchors, dtype=float))
    if n < 1:
        raise CocycleLabError("need n >= 1")
    out = np.empty(anchors.size, dtype=float)
    lane_chunk = max(1, min(anchors.size, max(max_elems // max(n, 1), 256)))
    step_chunk = max(1, max_elems // lane_chunk)
    block = 1 << max(0, (min(max_elems, _BLOCK_ELEMS) // lane_chunk).bit_length() - 1)
    for lo in range(0, anchors.size, lane_chunk):
        sl = anchors[lo:lo + lane_chunk]
        carry = (np.ones(sl.size), np.zeros(sl.size), np.zeros(sl.size), np.ones(sl.size))
        exp2 = np.zeros(sl.size, dtype=np.int64)
        for s0 in range(0, n, step_chunk):
            s1 = min(s0 + step_chunk, n)
            *chunk, e_chunk = _blocked_tree(
                lambda s, k: co.entries_along(sl, k, s0 + s), s1 - s0, block)
            *carry, e_carry = _rescale(*_mul(*chunk, *carry))
            exp2 += e_chunk + e_carry
        out[lo:lo + lane_chunk] = log_norm(*carry, exp2)
    return out


def log_norm_of_product(co: Cocycle, x: BasePoint, n: int) -> float:
    """Overflow-safe log ||A_n(x)|| by the sequential sl2.scan_product."""
    if n < 1:
        raise CocycleLabError("need n >= 1")
    return float(log_norm(*scan_product(*co.generator.entries(co.orbit(x, n)))))


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

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "n", "log_norm_over_n"])
            for x, v in zip(self.positions, self.values):
                w.writerow([f"{x:.17g}", self.n, f"{v:.17g}"])


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
                        grid: Optional[np.ndarray] = None) -> tuple[bool, GrowthReport]:
    """Grid-certified check of ||A_n(x)|| <= e^{eps n} with a Lipschitz margin."""
    if eps <= 0 or n < 1:
        raise CocycleLabError("need eps > 0 and n >= 1")
    rep = growth_sweep(co, n, grid)
    return rep.max < eps - rep.margin, rep


# -- empirical measures ----------------------------------------------------------------


@dataclass(frozen=True)
class EmpiricalMeasure:
    """(1/n) sum of Dirac masses along the orbit of x."""

    x: BasePoint
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise CocycleLabError("empirical measure needs n >= 1")


def nu_average(co: Cocycle, mu: EmpiricalMeasure, s: int) -> float:
    """Integral of log ||A_s|| against the block-truncated empirical measure.

    With m = floor(n/s): (1/(s m)) * sum_{j < s m} log ||A_s(f^j x)||.  By
    subadditivity it dominates (1/(s m)) * sum_{i < s} log ||A_{s m}(f^i x)||.
    """
    if not 1 <= s <= mu.n:
        raise CocycleLabError("need 1 <= s <= mu.n")
    m = mu.n // s
    anchors = co.orbit(mu.x, s * m)
    vals = log_norms_batch(co, anchors, s)
    return float(vals.sum()) / (s * m)


def empirical_exponent(co: Cocycle, mu: EmpiricalMeasure, s: int) -> float:
    """Per-step growth rate seen by the empirical measure at block size s."""
    return nu_average(co, mu, s) / s


def subexponential_witness_search(co: Cocycle, eps: float,
                                  horizons: Sequence[int],
                                  grid: Optional[np.ndarray] = None):
    """First (x, n) with ||A_n(x)|| >= e^{eps n} at the sampled resolution, else None."""
    if eps <= 0:
        raise CocycleLabError("eps must be positive")
    xs = co.base.grid_floats() if grid is None else np.asarray(grid, dtype=float)
    for n in horizons:
        vals = log_norms_batch(co, xs, int(n)) / int(n)
        k = int(np.argmax(vals))
        if vals[k] >= eps:
            return co.base.point(float(xs[k])), int(n)
    return None


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

    # candidate unstable field at each grid point: push a generic direction
    # forward along the true backward orbit (contraction makes this exact for
    # genuinely hyperbolic cocycles, garbage otherwise -- then the check fails)
    depth = 96
    vx = np.ones(G)
    vy = np.zeros(G)
    # step k of the transposed entries is the generator at f^{k - depth}(x)
    for a, b, c, d in zip(*(e.T for e in co.entries_along(xs, depth, -depth))):
        vx, vy = a * vx + b * vy, c * vx + d * vy
        nrm = np.hypot(vx, vy)
        vx, vy = vx / nrm, vy / nrm
    theta = np.mod(np.arctan2(vy, vx), math.pi)

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


def _angdist(t1, t2):
    d = np.mod(t1 - t2, math.pi)
    return np.minimum(d, math.pi - d)
