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
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise
from operator import itemgetter
from typing import Optional

import numpy as np

from .errors import EmptyCell, HorizonExceeded, CocycleLabError
from .exact import (
    GOLDEN_MEAN,
    SILVER_MEAN,
    _sign,
    as_exact,
    best_denominators,
    convergents,
    coordinate_float,
    coordinates,
    from_coordinates,
    mod1,
)

FIRST_RETURN_HORIZON = 10**6
ORBIT_AVOID_HORIZON = 10**5


# -- half-open interval unions ---------------------------------------------------
# An interval union is a tuple of (lo, hi) pairs with lo < hi, sorted, pairwise
# disjoint and non-touching (norm_union merges touching pieces), inside [0, 1).
# Scalars are floats, rationals or QuadExt; they order totally together.
# Other modules query unions only through this section.


def _sort_exactly(items: list, key) -> None:
    """Sort items in place by the exact scalar key(item): by its float first,
    then, if any neighbours are out of exact order, by exact compare.  float()
    is not monotone on exact scalars (values closer than an ulp round alike,
    and a QuadExt's float is not correctly rounded), but a list it nearly
    sorts costs Timsort few exact compares."""
    items.sort(key=lambda x: float(key(x)))
    if any(key(b) < key(a) for a, b in pairwise(items)):
        items.sort(key=key)


def norm_union(parts) -> tuple:
    parts = [(lo, hi) for lo, hi in parts if hi > lo]
    _sort_exactly(parts, itemgetter(0))
    merged: list = []
    for lo, hi in parts:
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return tuple((lo, hi) for lo, hi in merged)


def union_contains(u, x) -> bool:
    for lo, hi in u:
        if lo <= x < hi:
            return True
    return False


def inter_union(u1, u2) -> tuple:
    """Intersection of two normalised unions by one sorted sweep that gallops.

    Inputs must be sorted, disjoint and non-touching (as norm_union returns
    them); then so is the output, and every endpoint is an input endpoint.
    A piece that ends at or before the other union's current piece starts
    meets nothing more, and neither do the pieces after it that end there
    too: the sweep skips them all by an exact galloping search on the piece
    ends, so a few pieces against hundreds cost a few compares each, not a
    walk through all of them.
    """
    out = []
    i = j = 0
    while i < len(u1) and j < len(u2):
        (lo1, hi1), (lo2, hi2) = u1[i], u2[j]
        lo = lo1 if lo1 >= lo2 else lo2
        if hi1 <= hi2:
            if hi1 > lo:
                out.append((lo, hi1))
                i += 1
            else:  # hi1 <= lo2
                i = _first_end_after(u1, lo2, i + 1)
        elif hi2 > lo:
            out.append((lo, hi2))
            j += 1
        else:  # hi2 <= lo1
            j = _first_end_after(u2, lo1, j + 1)
    return tuple(out)


def _first_end_after(u, x, k: int) -> int:
    """Least m >= k with u[m] ending after x, or len(u); the ends increase.
    Steps of 1, 2, 4, ... from k bracket it, and bisection inside the last
    step finds it: about 2 log2(m - k) exact compares."""
    lo, hi, step = k, k, 1
    while hi < len(u) and not x < u[hi][1]:  # every piece up to hi ends by x
        lo, hi, step = hi + 1, hi + step, 2 * step
    return bisect_right(u, x, lo, min(hi, len(u)), key=itemgetter(1))


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
        k = count.take((xs * size).astype(np.intp), mode="clip")
        for _ in range(depth):
            k += lo_next.take(k) <= xs
        return np.maximum(k - 1, 0)
    return find


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
    """(piece, level) of every floor f^j(u), j < height, of a normalised u: the
    union u rotated by mod1(j alpha), from one walk in integer coordinates
    (`_rotations`), each piece in the field of alpha and u."""
    frame, floors = _rotations(u, alpha, height)
    for j, line in enumerate(floors):
        for lp, lq, hp, hq in _cut_at_seam(line, frame):
            yield (frame.scalar(lp, lq), frame.scalar(hp, hq)), j


def column_float_breaks(u, alpha, height: int) -> tuple[np.ndarray, ...]:
    """Lows, highs and levels of the pieces of column_floors(u, alpha, height),
    in its order, from the same walk, then the lows and highs of their arcs.

    A piece's arc is the piece itself, but for the two pieces into which
    `_cut_at_seam` splits an arc that crosses 0 = 1: [lo, 1) keeps the arc's
    end past 1, and [0, hi) its start below 0.  The floats have the bits of
    float() of the exact ends, and no scalar is built."""
    frame, floors = _rotations(u, alpha, height)
    M, D, fl = frame.M, frame.D, coordinate_float
    lo, hi, level, arc_lo, arc_hi = ([] for _ in range(5))
    for j, line in enumerate(floors):
        pieces = _cut_at_seam(line, frame)
        piece_lo = [fl(lp, lq, M, D) for lp, lq, _, _ in pieces]
        piece_hi = [fl(hp, hq, M, D) for _, _, hp, hq in pieces]
        lo += piece_lo
        hi += piece_hi
        if len(pieces) > len(line):  # the last arc of the line, split at 0 = 1
            lp, lq, hp, hq = line[-1]
            piece_lo[0], piece_hi[-1] = fl(lp - M, lq, M, D), fl(hp, hq, M, D)
        arc_lo += piece_lo
        arc_hi += piece_hi
        level += [j] * len(pieces)
    return (*(np.array(v, dtype=float) for v in (lo, hi)), np.array(level, dtype=int),
            *(np.array(v, dtype=float) for v in (arc_lo, arc_hi)))


def shrink_union(u, margin) -> tuple:
    return norm_union([(lo + margin, hi - margin) for lo, hi in u])


def float_breaks(u) -> tuple[np.ndarray, np.ndarray]:
    """Lows and highs of a union's pieces as float arrays, the input of locate."""
    return np.array([float(lo) for lo, _ in u]), np.array([float(hi) for _, hi in u])


def _zero_like(x):
    return x - x


def _one_like(x):
    return x - x + 1


# -- unions in integer coordinates ---------------------------------------------------
# Exact scalars of one field are written over one common denominator M, as
# integer pairs (P, Q) for (P + Q sqrt D)/M (Q = 0 and D = 0 in a rational
# field).  Rotating a union is then integer addition, an order test is one
# exact._sign, and exact.coordinate_float gives float()'s bits on these
# unreduced coordinates.  An arc (P_lo, Q_lo, P_hi, Q_hi) is [lo, hi).


class _Frame:
    """The common denominator M and the discriminant D (0: rational) of a field's scalars."""

    __slots__ = ("M", "D")

    def __init__(self, M: int, D: int):
        self.M, self.D = M, D

    @classmethod
    def of(cls, scalars) -> "_Frame":
        frame = cls(1, 0)
        for x in scalars:
            _, _, d, D = coordinates(x)
            if D and frame.D and D != frame.D:
                raise ValueError(f"mixed discriminants {frame.D} and {D}")
            frame.M, frame.D = math.lcm(frame.M, d), D or frame.D
        return frame

    def pair(self, x) -> tuple[int, int]:
        p, q, d, _ = coordinates(x)
        k = self.M // d
        return p * k, q * k

    def sign(self, P: int, Q: int) -> int:
        return _sign(P, Q, self.D)

    def scalar(self, P: int, Q: int):
        return from_coordinates(P, Q, self.M, self.D)


def _circle(arcs: list, frame: _Frame) -> Optional[list]:
    """Arcs of the circle, in increasing order of start in [0, 1), from sorted,
    disjoint, non-touching arcs of the line of which only the first may start
    below 0 and only the last end past 1.  The last and the first join when
    they meet across 0 = 1 (a lone arc then covers the circle: None), and a
    first arc that starts below 0 moves up by 1 to the end.  Afterwards only
    the last arc may end past 1."""
    M = frame.M
    lp, lq, hp, hq = arcs[0]
    last_lp, last_lq, last_hp, last_hq = arcs[-1]
    if frame.sign(last_hp - M - lp, last_hq - lq) >= 0:
        return None if len(arcs) == 1 else arcs[1:-1] + [(last_lp, last_lq, hp + M, hq)]
    if frame.sign(lp, lq) < 0:
        return arcs[1:] + [(lp + M, lq, hp + M, hq)]
    return arcs


def _cut_at_seam(arcs: list, frame: _Frame) -> list:
    """The normalised union, as arcs, of arcs of the circle in increasing order
    of start in [0, 1) of which only the last may end past 1: it splits at 1,
    its part past 1 moving to the front."""
    if not arcs:
        return arcs
    M = frame.M
    lp, lq, hp, hq = arcs[-1]
    if frame.sign(hp - M, hq) <= 0:
        return arcs
    return [(0, 0, hp - M, hq)] + arcs[:-1] + [(lp, lq, M, 0)]


def _rotations(u, alpha, height: int):
    """(frame, floors) for a normalised union u: floor j < height is u rotated
    by mod1(j alpha), as a list of arcs of the frame (the endpoints of u and
    alpha, each the exact scalar `as_exact` makes of it) in increasing order
    of start in [0, 1), of which only the last may end past 1: `_cut_at_seam`
    makes the floor's normalised union of them.

    A rotation keeps the cyclic order of u's arcs on the circle (u's pieces,
    with a piece ending at 1 joined to one starting at 0), so a floor is a
    cyclic shift of them: the arcs whose start s has s + delta >= 1, found by
    exact bisection, come first, moved down by 1.  delta steps by alpha and
    drops by 1 where it reaches 1.  The exact work per floor is a few integer
    signs.
    """
    u = [(as_exact(lo), as_exact(hi)) for lo, hi in u]
    alpha = mod1(as_exact(alpha))
    frame = _Frame.of([alpha, *(x for piece in u for x in piece)])
    M, D = frame.M, frame.D
    ap, aq = frame.pair(alpha)
    arcs = _circle([frame.pair(lo) + frame.pair(hi) for lo, hi in u], frame) if u else []

    def floors():
        dp = dq = 0
        for _ in range(height):
            if arcs is None:
                yield [(0, 0, M, 0)]
            else:
                k, top = 0, len(arcs)
                while k < top:
                    mid = (k + top) // 2
                    if _sign(arcs[mid][0] + dp - M, arcs[mid][1] + dq, D) >= 0:
                        top = mid
                    else:
                        k = mid + 1
                yield ([(lp + dp - M, lq + dq, hp + dp - M, hq + dq) for lp, lq, hp, hq in arcs[k:]]
                       + [(lp + dp, lq + dq, hp + dp, hq + dq) for lp, lq, hp, hq in arcs[:k]])
            dp, dq = dp + ap, dq + aq
            if _sign(dp - M, dq, D) >= 0:
                dp -= M
    return frame, floors()


class FrameUnion:
    """A normalised union held as arcs of one frame."""

    __slots__ = ("frame", "arcs")

    def __init__(self, frame: _Frame, arcs: list):
        self.frame, self.arcs = frame, arcs

    def __len__(self) -> int:
        return len(self.arcs)

    def float_lengths(self) -> np.ndarray:
        """float(hi) - float(lo) of every piece, with float()'s bits."""
        M, D = self.frame.M, self.frame.D
        return np.array([coordinate_float(hp, hq, M, D) - coordinate_float(lp, lq, M, D)
                         for lp, lq, hp, hq in self.arcs], dtype=float)

    def exact_length(self, i: int):
        lp, lq, hp, hq = self.arcs[i]
        return self.frame.scalar(hp - lp, hq - lq)

    def intervals(self) -> tuple:
        scalar = self.frame.scalar
        return tuple((scalar(lp, lq), scalar(hp, hq)) for lp, lq, hp, hq in self.arcs)


def neighbourhoods(points):
    """rho -> the normalised union of [p - rho, p + rho) mod 1 over the points,
    as a FrameUnion, for a Fraction rho > 0.

    Each point is the exact scalar `as_exact` makes of it (a float is the
    dyadic rational it is), read mod 1.  The points are sorted once, and
    their gaps taken once; at each rho the neighbourhoods of two neighbours
    join where their gap is at most 2 rho, one integer sign per gap, and the
    runs they make go through `_circle` and `_cut_at_seam`.
    """
    pts = [mod1(as_exact(p)) for p in points]
    _sort_exactly(pts, lambda x: x)
    frame = _Frame.of(pts)
    M, D, sign = frame.M, frame.D, frame.sign
    coords = [frame.pair(p) for p in pts]
    gaps = [(p1 - p0, q1 - q0) for (p0, q0), (p1, q1) in pairwise(coords)]

    def at(rho: Fraction) -> FrameUnion:
        a, b = rho.numerator, rho.denominator
        level, r = _Frame(M * b, D), a * M  # rho is r over the level's denominator M b
        if not coords:
            return FrameUnion(level, [])
        cuts = [i for i, (gp, gq) in enumerate(gaps) if sign(b * gp - 2 * r, b * gq) > 0]
        arcs = [(b * coords[s][0] - r, b * coords[s][1], b * coords[e][0] + r, b * coords[e][1])
                for s, e in zip([0] + [i + 1 for i in cuts], cuts + [len(coords) - 1])]
        circle = _circle(arcs, level)
        return FrameUnion(level, [(0, 0, level.M, 0)] if circle is None
                          else _cut_at_seam(circle, level))
    return at


@dataclass(frozen=True)
class Cell:
    """A normalised interval union of the circle."""

    intervals: tuple  # normalised, as norm_union returns it

    @classmethod
    def from_union(cls, u) -> "Cell":
        return cls(norm_union(u))

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
        return Cell(translate_union(cell.intervals, mod1(n * self.alpha)))


# -- covering time -----------------------------------------------------------------


def covering_time(rot: CircleRotation, W: Cell) -> int:
    """Smallest m1 with union_{j<=m1} f^j(W) = K: the longest first return
    time R to the interval W, less 1.

    Let W_t be the points of W that first return at time t.  The floors
    f^j(W_t), 0 <= j < t, tile the circle, and f^j(W_t) lies in f^j(W), so
    the iterates up to R - 1 cover it.  Take w in W_R.  Were f^{R-1}(w) in
    f^j(W) for some j < R - 1, then f^{R-1-j}(w) would lie in W, and w would
    return before R.  So the top floor f^{R-1}(W_R) misses every f^j(W) with
    j < R - 1, and R - 2 iterates do not cover.
    """
    return max(n for _, n in first_return(rot, W)) - 1


# -- first return ---------------------------------------------------------------------


def _first_entry_below(alpha, h) -> int:
    """Smallest n >= 1 with {n alpha} < h, by the one-sided record walk.

    Record minima of {n alpha} occur exactly at n = n_p + j*q_k where n_p is the
    current positive-side champion and q_k the following negative-side
    denominator; values decrease by |eta_k| per step.  Exact when alpha is.
    """
    if not h > 0:
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
            return n_p + jstar * q
        # v_p - jmax*step >= h here: were it below h, jmax would meet jstar's
        # defining inequality, so jstar <= jmax, which has returned above
        n_p, v_p = n_p + jmax * q, v_p - jmax * step
    raise HorizonExceeded("record walk exhausted 64 convergent levels")


def first_return(rot: CircleRotation, U: Cell) -> list[tuple[Cell, int]]:
    """Partition of an interval U = [l, l + h) of [0, 1] into sub-cells of
    constant first-return time, by the Slater three-distance closed form
    (translation equivariance reduces U to [0, h)), at any width and return
    time.  Pieces that share a return time form one cell, in order of time.
    A cell of two or more pieces raises CocycleLabError.
    """
    if U.is_empty():
        raise EmptyCell("first_return needs a non-empty cell")
    if len(U.intervals) > 1:
        raise CocycleLabError(f"first_return needs one interval, got {len(U.intervals)} pieces")
    lo, hi = U.intervals[0]
    if lo == 0 and hi == 1:
        return [(U, 1)]
    h = hi - lo
    alpha = rot.alpha
    n1 = _first_entry_below(alpha, h)
    n2 = _first_entry_below(1 - alpha, h)
    a = mod1(n1 * alpha)
    b = mod1(n2 * alpha) - 1
    zero = _zero_like(h)
    # a - b = a + |b| >= h, so only the middle piece can be empty: a = {n1 alpha}
    # and |b| = {-n2 alpha} are below h, and if a + |b| < 1 then n1 != n2 and
    # a + |b| is {(n1 - n2) alpha} or {-(n2 - n1) alpha}, below h only against
    # the minimality of n1 or n2.  n1 = n2 (a + |b| = 1) needs 2h > 1; its first
    # and last pieces then share a return time and form one cell.
    cuts = ((zero, h - a, n1), (h - a, -b, n1 + n2), (-b, h, n2))
    parts: dict[int, list] = {}
    for y0, y1, t in cuts:
        if y1 > y0:
            parts.setdefault(t, []).append((lo + y0, lo + y1))
    out = [(Cell.from_union(p), t) for t, p in sorted(parts.items())]
    got = sum((hi_ - lo_ for c, _ in out for lo_, hi_ in c.intervals), zero)
    if got != h:
        raise CocycleLabError("three-distance pieces do not tile the interval")
    return out
