"""The base system: a circle rotation.

Every base is a rotation: the Sturmian shift of slope beta is presented by the
rotation by beta, whose orbits it codes, so its cells, castles, first returns
and orbits are the rotation's.

Rotation angles are always exact: the golden and silver means live in Q(sqrt D)
and any other angle is the rational it is given as.  Interval endpoints live in
the angle's field, so disjointness and tiling certificates for towers reduce to
exact comparisons.  Float points (anchors, grids, sampled orbits) stay floats.
Points are stored as (anchor, step index), which makes orbit composition exact:
step(step(x, m), n) == step(x, m + n) always.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import EmptyCell, HorizonExceeded, CocycleLabError
from .exact import (
    GOLDEN_MEAN,
    SILVER_MEAN,
    as_exact,
    best_denominators,
    convergents,
    mod1,
)

FIRST_RETURN_HORIZON = 10**6
COVERING_HORIZON = 10**6
ORBIT_AVOID_HORIZON = 10**5
ORBIT_AVOID_DIST = 1e-7


# -- half-open interval unions ---------------------------------------------------
# An interval union is a tuple of (lo, hi) pairs with lo < hi, sorted, pairwise
# disjoint and non-touching (norm_union merges touching pieces), inside [0, 1).
# Scalars are floats, rationals or QuadExt; they order totally together.
# Other modules query unions only through this section.


def norm_union(parts) -> tuple:
    parts = [(lo, hi) for lo, hi in parts if hi > lo]
    parts.sort(key=lambda p: float(p[0]))
    merged: list = []
    for lo, hi in parts:
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return tuple((lo, hi) for lo, hi in merged)


def union_length(u) -> float:
    return float(sum(float(hi) - float(lo) for lo, hi in u))


def union_contains(u, x) -> bool:
    for lo, hi in u:
        if lo <= x < hi:
            return True
    return False


def inter_union(u1, u2) -> tuple:
    """Intersection of two normalised unions by one sorted sweep.

    Inputs must be sorted, disjoint and non-touching (as norm_union returns
    them); then so is the output, and every endpoint is an input endpoint.
    """
    out = []
    i = j = 0
    while i < len(u1) and j < len(u2):
        (lo1, hi1), (lo2, hi2) = u1[i], u2[j]
        lo = lo1 if lo1 >= lo2 else lo2
        if hi1 <= hi2:
            hi = hi1
            i += 1
        else:
            hi = hi2
            j += 1
        if hi > lo:
            out.append((lo, hi))
    return tuple(out)


def complement(u) -> tuple:
    """The gaps of a normalised union in [0, 1), again a normalised union."""
    gaps = []
    start = 0
    for lo, hi in u:
        if lo > start:
            gaps.append((start, lo))
        start = hi
    if start < 1:
        gaps.append((start, 1))
    return tuple(gaps)


def sub_union(u1, u2) -> tuple:
    """u1 minus u2 for normalised unions: u1 meets the gaps of u2 in [0, 1)."""
    return inter_union(u1, complement(u2))


def locate(lo: np.ndarray, hi: np.ndarray, xs) -> tuple[np.ndarray, np.ndarray]:
    """Lookup of float points in sorted half-open pieces [lo[k], hi[k]).

    Returns, per point of xs (any shape), the index of the last piece starting
    at or before it (clipped into range) and whether the point lies inside that
    piece; `inside` is all False when there are no pieces.
    """
    if lo.size == 0:
        return np.zeros(np.shape(xs), dtype=int), np.zeros(np.shape(xs), dtype=bool)
    idx = np.clip(np.searchsorted(lo, xs, side="right") - 1, 0, lo.size - 1)
    return idx, (xs >= lo[idx]) & (xs < hi[idx])


def bucket_locator(lo: np.ndarray):
    """The index half of `locate` over fixed, non-empty sorted piece starts
    in [0, 1): a function of xs giving exactly locate(lo, hi, xs)[0] for points
    in [0, 1] (np.mod yields 1.0 on tiny negative inputs).  The caller gathers
    the bounds of the piece once for its own inside test.  The bucket of x is
    floor(x 2^k), exact in binary floating point; a table holds the count of
    starts at or before each bucket's left edge, and a point then counts the
    starts inside its bucket up to it, at most the fullest bucket's count of
    one-compare steps.
    """
    size = 1 << max(1, 2 * lo.size - 1).bit_length()  # at least 2 buckets per piece
    count = np.searchsorted(lo, np.arange(size + 1) / size, side="right")
    depth = int(np.diff(count).max())
    lo_next = np.append(lo, np.inf)

    def find(xs):
        xs = np.asarray(xs, dtype=float)
        k = count.take(np.clip(xs * size, 0, size).astype(np.intp))
        for _ in range(depth):
            k += lo_next.take(k) <= xs
        return np.maximum(k - 1, 0)
    return find


def first_overlap(pieces) -> tuple[list, Optional[int]]:
    """Sort (lo, hi) pieces by lower end and find the first overlapping pair.

    Returns the sorted list and the least i with pieces[i] reaching past the
    start of pieces[i + 1] under exact compare, or None when the pieces are
    pairwise disjoint (touching ends are disjoint: the pieces are half-open).
    """
    pieces = sorted(pieces, key=lambda p: float(p[0]))
    for i in range(len(pieces) - 1):
        if not pieces[i][1] <= pieces[i + 1][0]:
            return pieces, i
    return pieces, None


def translate_union(u, delta) -> tuple:
    """Rigid rotation of the union by delta, with wrap splitting at 1."""
    out = []
    for lo, hi in u:
        length = hi - lo
        nlo = mod1(lo + delta)
        nhi = nlo + length
        if nhi <= 1:
            out.append((nlo, nhi))
        else:
            out.append((nlo, _one_like(nlo)))
            out.append((_zero_like(nlo), nhi - 1))
    return norm_union(out)


def column_floors(u, alpha, height: int):
    """(piece, level) of every floor f^j(u), j < height, of a normalised u; floor
    j + 1 is floor j translated by alpha, the same union as u by mod1(j alpha)."""
    for j in range(height):
        floor = translate_union(floor, alpha) if j else u
        for piece in floor:
            yield piece, j


def shrink_union(u, margin) -> tuple:
    return norm_union([(lo + margin, hi - margin) for lo, hi in u])


def float_breaks(u) -> tuple[np.ndarray, np.ndarray]:
    """Lows and highs of a union's pieces as float arrays, the input of locate."""
    return np.array([float(lo) for lo, _ in u]), np.array([float(hi) for _, hi in u])


def _zero_like(x):
    return x - x


def _one_like(x):
    return x - x + 1


def wrap_interval(lo, hi) -> list:
    """[lo, hi) with hi - lo < 1, reduced mod 1 into half-open pieces."""
    zero, one = _zero_like(lo), _one_like(lo)
    if lo >= 0 and hi <= 1:
        return [(lo, hi)]
    if lo < 0:
        return [(zero, hi), (lo + 1, one)]
    return [(lo, one), (zero, hi - 1)]


@dataclass(frozen=True)
class Cell:
    """A normalised interval union of the circle, plus its boundary points.

    The boundary is the finite endpoint set (zero probability for atomless
    invariant measures).
    """

    intervals: tuple  # normalised, as norm_union returns it
    boundary: tuple = ()  # boundary scalars

    @classmethod
    def from_union(cls, u) -> "Cell":
        u = norm_union(u)
        return cls(u, tuple(p for iv in u for p in iv))

    @classmethod
    def full(cls) -> "Cell":
        return cls(((0.0, 1.0),))

    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, x) -> bool:
        return union_contains(self.intervals, x)

    def float_breaks(self) -> tuple[np.ndarray, np.ndarray]:
        """Lows and highs as float arrays for vectorized membership."""
        return float_breaks(self.intervals)

    def contains_floats(self, xs: np.ndarray) -> np.ndarray:
        return locate(*self.float_breaks(), xs)[1]


# -- points and systems -----------------------------------------------------------


@dataclass(frozen=True)
class BasePoint:
    """Orbit point stored as (anchor, index): value = anchor + index * translation."""

    anchor: tuple
    index: int = 0

    def shifted(self, n: int) -> "BasePoint":
        return BasePoint(self.anchor, self.index + n)


def wrap_floats(y) -> np.ndarray:
    """np.mod(y, 1.0) bit for bit for finite floats, as y - floor(y).

    np.mod is fmod, plus 1.0 after a negative remainder, and +0.0 for a zero
    one.  For y >= 0 fmod's remainder is y - floor(y) exactly, and so is this
    subtraction.  For y < 0 both round the real y - floor(y) once, from two
    exact terms.  A zero is +0.0 in both (x - x is +0.0); a tiny negative y
    gives 1.0 in both.

    The floor goes into a new array and the difference into the same one, so
    the caller's y is never written.  A scalar or 0-d y gives a numpy scalar,
    as y - floor(y) does.
    """
    y = np.asarray(y, dtype=float)
    out = np.floor(y)
    return np.subtract(y, out, out=out) if out.ndim else y - out


class CircleRotation:
    """x -> x + alpha mod 1 with alpha irrational.

    alpha is exact: a QuadExt stays in Q(sqrt D) and a number becomes the
    rational it is (a float is a dyadic rational), so all cell arithmetic is
    exact and tower certificates are exact for every angle.  An angle that is
    rational with denominator <= ORBIT_AVOID_HORIZON is rejected.
    """

    def __init__(self, alpha, grid_size: int = 4096):
        self.alpha = mod1(as_exact(alpha))
        if self.alpha == 0:
            raise CocycleLabError("alpha must be irrational in (0, 1)")
        self.grid_size = int(grid_size)
        self._check_irrational()

    @classmethod
    def golden(cls, grid_size: int = 4096) -> "CircleRotation":
        return cls(GOLDEN_MEAN, grid_size=grid_size)

    @classmethod
    def silver(cls, grid_size: int = 4096) -> "CircleRotation":
        return cls(SILVER_MEAN, grid_size=grid_size)

    @property
    def alpha_float(self) -> float:
        return float(self.alpha)

    def lift(self, r):
        """The rational r as a scalar of the angle's field (QuadExt or Fraction)."""
        return _zero_like(self.alpha) + Fraction(r)

    def _check_irrational(self):
        best = None
        for q, err in best_denominators(self.alpha, ORBIT_AVOID_HORIZON):
            if err == 0:
                raise CocycleLabError(f"alpha = {q * self.alpha}/{q} is rational; "
                                      "a minimal rotation needs an irrational angle")
            best = float(err)
        if best is not None and best < 1e-12:
            warnings.warn(
                f"rotation angle within {best:.2e} of a rational with denominator"
                f" <= {ORBIT_AVOID_HORIZON}; minimality assumptions are unreliable",
                stacklevel=3,
            )

    # -- points -----------------------------------------------------------------

    def point(self, x) -> BasePoint:
        return BasePoint(anchor=(mod1(x),), index=0)

    def step(self, x: BasePoint, n: int = 1) -> BasePoint:
        return x.shifted(n)

    def scalar(self, x: BasePoint):
        a0 = x.anchor[0]
        if isinstance(a0, float):  # float points keep their float orbit
            return mod1(a0 + x.index * self.alpha_float)
        return mod1(a0 + x.index * self.alpha)

    def float_coords(self, x: BasePoint) -> tuple[float]:
        return (float(self.scalar(x)),)

    def diameter(self) -> float:
        return 0.5  # of the circle under the arc distance

    def grid_floats(self) -> np.ndarray:
        return np.arange(self.grid_size) / self.grid_size

    def orbit_floats(self, x0, n: int, start: int = 0) -> np.ndarray:
        """The float orbit: x0 + k alpha mod 1 for k = start .. start + n - 1.

        x0 is a float or an array of any shape; the positions run along a new
        last axis.  Each is taken from the anchor with the rounded k * alpha,
        never iterated, so no position depends on how an orbit is chunked.
        The wrap is `wrap_floats`, y - floor(y): np.mod's bits without its
        per-element division and sign fix-up.
        """
        ks = np.arange(start, start + n, dtype=float) * self.alpha_float
        return wrap_floats(np.asarray(x0, dtype=float)[..., None] + ks)

    # -- cells ------------------------------------------------------------------

    def translate_cell(self, cell: Cell, n: int) -> Cell:
        delta = mod1(n * self.alpha)
        return Cell(translate_union(cell.intervals, delta),
                    tuple(mod1(p + delta) for p in cell.boundary))


# -- covering time -----------------------------------------------------------------


def covering_time(rot: CircleRotation, W: Cell) -> int:
    """Smallest m1 (at grid resolution) with union_{j<=m1} f^j(W) = K.

    Certified over every grid point after shrinking W by one grid spacing: the
    bases here are isometries, so a grid point landing in the shrunk cell
    covers its whole half-spacing neighborhood.
    """
    if W.is_empty():
        raise EmptyCell("covering_time needs a non-empty cell")
    if union_length(W.intervals) >= 1.0 - 1e-15:
        return 0  # the whole space needs no iterates and no margin
    shrunk = shrink_union(W.intervals, Fraction(1, rot.grid_size))  # exact margin
    if not shrunk:
        raise EmptyCell("cell below grid resolution after margin")
    lo, hi = float_breaks(shrunk)
    pts, alpha = rot.grid_floats(), rot.alpha_float
    alive = np.arange(pts.size)
    for j in range(COVERING_HORIZON + 1):
        alive = alive[~locate(lo, hi, np.mod(pts[alive] - j * alpha, 1.0))[1]]
        if alive.size == 0:
            return j
    raise HorizonExceeded("no cover within 1e6 iterates")


def exact_covering_time(rot: CircleRotation, W: Cell, horizon: int = 10**5) -> int:
    """Oracle: exact sweep of the union of iterates until total length reaches 1."""
    acc: tuple = ()
    for j in range(horizon + 1):
        acc = norm_union(list(acc) + list(rot.translate_cell(W, j).intervals))
        if len(acc) == 1 and acc[0][0] <= 0 and acc[0][1] >= 1:
            return j
    raise HorizonExceeded("exact covering sweep exhausted")


# -- small-boundary cells -----------------------------------------------------------


def small_boundary_cell(rot: CircleRotation, x0: BasePoint, eps: float) -> Cell:
    """Open cell around x0 of diameter <= 4*eps with orbit-avoiding boundary.

    Endpoints stay at distance > 1e-7 from the first 1e5 forward orbit points
    of x0, which keeps later surgery cuts away from degenerate coincidences.
    """
    if eps <= 0:
        raise CocycleLabError("eps must be positive")
    c = rot.scalar(x0)
    cf = float(c)
    orbit = rot.orbit_floats(cf, ORBIT_AVOID_HORIZON)
    r = rot.lift(_avoiding_radius(orbit, cf, min(2.0 * eps, 0.249)))
    return Cell.from_union(wrap_interval(c - r, c + r))


def _avoiding_radius(orbit: np.ndarray, center: float, r_max: float) -> Fraction:
    """Largest ladder radius whose endpoints clear the orbit by > 1e-7."""
    for k in range(1, 64):
        r = Fraction(r_max).limit_denominator(1 << 20) * Fraction(256 - k, 256)
        rf = float(r)
        if rf <= 0:
            break
        ok = True
        for e in (center - rf, center + rf):
            d = np.abs(np.mod(orbit - e, 1.0))
            d = np.minimum(d, 1.0 - d)
            if float(d.min()) <= ORBIT_AVOID_DIST:
                ok = False
                break
        if ok:
            return r
    raise CocycleLabError("no orbit-avoiding radius found (eps too small for horizon)")


# -- first return ---------------------------------------------------------------------


def _first_entry_below(alpha, h) -> int:
    """Smallest n >= 1 with {n alpha} < h, by the one-sided record walk.

    Record minima of {n alpha} occur exactly at n = n_p + j*q_k where n_p is the
    current positive-side champion and q_k the following negative-side
    denominator; values decrease by |eta_k| per step.  Exact when alpha is.
    """
    if not (float(h) > 0):
        raise CocycleLabError("need h > 0")
    pairs = [(1, mod1(alpha))]  # k = 0 convergent (0, 1)
    for p, q in convergents(alpha, 64):
        pairs.append((q, q * alpha - p))
    n_p, v_p = pairs[0]
    if v_p < h:
        return n_p
    for q, eta in pairs[1:]:
        if not (eta < 0):
            continue
        # positive-side records between this champion and the next convergent
        step = -eta
        jstar = math.floor((v_p - h) / step) + 1  # smallest j with v_p - j*step < h
        jmax = -math.floor(-v_p / step) - 1  # largest j with v_p - j*step > 0
        if jstar <= jmax:
            n = n_p + jstar * q
            if n > FIRST_RETURN_HORIZON:
                raise HorizonExceeded(f"first entry time {n} beyond 1e6")
            return n
        # v_p - jmax*step >= h here: were it below h, jmax would meet jstar's
        # defining inequality, so jstar <= jmax, which has returned above
        n_p, v_p = n_p + jmax * q, v_p - jmax * step
    raise HorizonExceeded("record walk exhausted 64 convergent levels")


def first_return(rot: CircleRotation, U: Cell) -> list[tuple[Cell, int]]:
    """Partition of U into sub-cells of constant first-return time.

    Single intervals use the Slater three-distance closed form (translation
    equivariance reduces [l, l+h) to [0, h)); interval unions and very wide
    cells fall back to exact marching.
    """
    if U.is_empty():
        raise EmptyCell("first_return needs a non-empty cell")
    u = U.intervals
    total = union_length(u)
    if total >= 1.0 - 1e-15:
        return [(Cell.full(), 1)]
    if len(u) == 1 and total <= 0.45:
        lo, hi = u[0]
        h = hi - lo
        alpha = rot.alpha
        n1 = _first_entry_below(alpha, h)
        n2 = _first_entry_below(1 - alpha, h)
        a = mod1(n1 * alpha)
        b = mod1(n2 * alpha) - 1
        zero = _zero_like(h)
        # a - b >= h, so only the middle piece can be empty.  a = {n1 alpha} < h and
        # |b| = {-n2 alpha} < h, so a + |b| < 2h < 1 is {(n1 - n2) alpha} if n1 > n2 and
        # {-(n2 - n1) alpha} if n2 > n1; a + |b| < h would contradict the minimality of
        # n1 or n2.  If n1 = n2, a - b = 1 > h.
        cuts = ((zero, h - a, n1), (h - a, -b, n1 + n2), (-b, h, n2))
        out = [(Cell.from_union([(lo + y0, lo + y1)]), t) for y0, y1, t in cuts if y1 > y0]
        for _, t in out:
            if t > FIRST_RETURN_HORIZON:
                raise HorizonExceeded(f"return time {t} beyond 1e6")
        got = sum((hi_ - lo_ for c, _ in out for lo_, hi_ in c.intervals), zero)
        if got != h:
            raise CocycleLabError("three-distance pieces do not tile the interval")
        return sorted(out, key=lambda p: (p[1], float(p[0].intervals[0][0])))
    return _first_return_marching(rot, U)


def _first_return_marching(rot: CircleRotation, U: Cell) -> list[tuple[Cell, int]]:
    """Exact marching: advance sub-arcs of U, peeling off returning parts."""
    u = U.intervals
    active = [(lo, hi, lo, hi) for lo, hi in u]  # (cur_lo, cur_hi, pre_lo, pre_hi)
    out = []
    alpha = rot.alpha
    for n in range(1, FIRST_RETURN_HORIZON + 1):
        if not active:
            break
        nxt = []
        for clo, chi, plo, phi in active:
            length = chi - clo
            nlo = mod1(clo + alpha)
            segs = []
            if nlo + length <= 1:
                segs.append((nlo, nlo + length, plo))
            else:
                cut = 1 - nlo
                segs.append((nlo, _one_like(nlo), plo))
                segs.append((_zero_like(nlo), length - cut, plo + cut))
            for slo, shi, base in segs:
                cuts = [slo, shi]
                for ulo, uhi in u:
                    if slo < ulo < shi:
                        cuts.append(ulo)
                    if slo < uhi < shi:
                        cuts.append(uhi)
                cuts = sorted(set(cuts), key=float)
                for q0, q1 in zip(cuts[:-1], cuts[1:]):
                    pre0 = base + (q0 - slo)
                    if union_contains(u, q0):
                        out.append((Cell.from_union([(pre0, pre0 + (q1 - q0))]), n))
                    else:
                        nxt.append((q0, q1, pre0, pre0 + (q1 - q0)))
        active = nxt
    if active:
        raise HorizonExceeded("first return beyond 1e6 steps")
    merged: dict[int, list] = {}
    for cell, n in out:
        merged.setdefault(n, []).extend(cell.intervals)
    result = [(Cell.from_union(parts), n) for n, parts in merged.items()]
    return sorted(result, key=lambda p: (p[1], float(p[0].intervals[0][0])))
