"""Kakutani-Rokhlin castles with heights N and N+1, and visit-frequency bounds.

Castle construction follows the inducing recipe: pick a small base cell whose
iterates up to the Frobenius threshold stay disjoint, partition it by first
return time (closed form for rotations), then cut each return tower into
stacked blocks of heights N and N+1.  The endpoints are exact, so the castle
certifies from its towers alone, at every size: the bases are disjoint, their
returns f^h(B_t) are disjoint and fill the base union, and Kac's sum of
h |B_t| is 1.  Castle.verify shows why that makes the floors tile the circle
and every base point first return at its tower's height.

Visit frequencies use a three-distance packing certificate: an n-step orbit is
||q_K alpha||-separated, so a length-h interval sees at most h/||q_K alpha|| + 1
of its points.  That bounds the frequency for every point of K at once, which
is strictly stronger than a grid sweep with margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .basedyn import (
    Cell,
    CircleRotation,
    first_overlap,
    first_return,
    norm_union,
    small_boundary_cell,
    translate_union,
    wrap_interval,
)
from .errors import (
    CocycleLabError,
    DisjointnessFailed,
    NotRepresentable,
    ShrinkExhausted,
)
from .exact import as_exact, convergents, min_orbit_gap, mod1


def frobenius_threshold(N: int) -> int:
    """Least n1 such that every n >= n1 equals l*N + l'*(N+1) with l, l' >= 0."""
    if N < 1:
        raise CocycleLabError("N >= 1 required")
    if N == 1:
        return 1
    return N * N - N


def frobenius_threshold_dp(N: int, horizon: Optional[int] = None) -> int:
    """Dynamic-programming oracle for the threshold (independent of the formula)."""
    if N < 1:
        raise CocycleLabError("N >= 1 required")
    top = horizon if horizon is not None else N * N + 2 * N + 2
    reachable = np.zeros(top + 1, dtype=bool)
    reachable[0] = True
    for v in range(1, top + 1):
        if v >= N and reachable[v - N]:
            reachable[v] = True
        elif v >= N + 1 and reachable[v - N - 1]:
            reachable[v] = True
    last_gap = 0
    for v in range(1, top + 1):
        if not reachable[v]:
            last_gap = v
    return max(last_gap + 1, 1)


def decompose_height(n: int, N: int) -> tuple[int, int]:
    """(l, l') with l*N + l'*(N+1) = n and the least l', which is n mod N.

    Every solution has l' = n (mod N), and a larger l' only lowers l, so n is
    representable exactly when l' = n mod N leaves l >= 0.
    """
    if N < 1:
        raise CocycleLabError("N >= 1 required")
    lp = n % N
    l = (n - lp * (N + 1)) // N
    if l < 0:
        raise NotRepresentable(f"{n} is not l*{N} + l'*{N + 1}")
    return l, lp


@dataclass
class Tower:
    base: Cell
    height: int


@dataclass
class Castle:
    """Disjoint towers of heights N and N+1 whose floors tile the base space."""

    N: int
    towers: list[Tower]
    system: CircleRotation
    # what verify() returned when build_castle checked the castle
    report: Optional[dict] = field(default=None, init=False, repr=False, compare=False)

    def base_union(self, height: Optional[int] = None) -> Cell:
        """Union of the tower bases, or of the bases of the towers of one height."""
        towers = [t for t in self.towers if height is None or t.height == height]
        parts = [iv for t in towers for iv in t.base.intervals]
        return Cell(norm_union(parts), tuple(p for t in towers for p in t.base.boundary))

    def floor_count(self) -> int:
        return sum(t.height for t in self.towers)

    def verify(self) -> dict:
        """Certify exactly that the floors tile the circle and that each point
        of a base B_t first returns to the base union B at its tower's height
        h_t; raises DisjointnessFailed otherwise.  The work is O(towers) exact
        comparisons at every size:

        (a) the bases B_t are pairwise disjoint;
        (b) the returns f^{h_t}(B_t) are pairwise disjoint, and their union
            is B (for a valid castle exactly so: the return map is a
            bijection of B);
        (c) Kac's sum of h_t |B_t| is 1 in the angle's field.

        Why this suffices.  Let Z be the union of all floors f^j(B_t),
        0 <= j < h_t.  By (b), f(Z) lies in Z, and a rotation preserves
        length, so f(Z) = Z.  A component of Z's complement is a proper arc,
        and only the identity rotation fixes one, so its translates by
        j alpha are distinct arcs of the complement for every j below the
        angle's order: infinite for a QuadExt angle, the denominator for a
        Fraction angle.  The complement has at most as many arcs as there are
        floor pieces, at most 2 sum_t h_t (pieces of B_t) since a translate
        splits at 1 at most once; the order is checked to exceed that count,
        so Z is the whole circle.  By (c) the floors' lengths sum to |Z|, so
        two half-open floors meet in a null set, hence not at all.  The
        floors at levels 1 .. h_t - 1 then miss every base, and by (b) each
        point of B_t first returns at exactly h_t.

        first_overlap sorts by float, but its exact compare of neighbours
        fails wherever that order is not the exact one, so the lists it
        passes are exactly sorted and norm_union merges them as they stand.
        Endpoints are in the angle's field, as build_castle makes them.
        """
        alpha = self.system.alpha
        pieces = 2 * sum(t.height * len(t.base.intervals) for t in self.towers)
        if isinstance(alpha, Fraction) and alpha.denominator <= pieces:
            raise DisjointnessFailed(f"angle denominator {alpha.denominator} does not exceed "
                                     f"the {pieces} floor pieces the tiling argument counts")
        bases, bad = first_overlap(iv for t in self.towers for iv in t.base.intervals)
        if bad is not None:
            raise DisjointnessFailed("tower bases overlap")
        shift = {h: mod1(h * alpha) for h in {t.height for t in self.towers}}
        tops, bad = first_overlap(iv for t in self.towers
                                  for iv in translate_union(t.base.intervals, shift[t.height]))
        if bad is not None:
            raise DisjointnessFailed(f"tower returns overlap near {float(tops[bad + 1][0])!r}")
        if norm_union(tops) != norm_union(bases):
            raise DisjointnessFailed("tower returns do not fill the base union")
        kac = sum(t.height * (hi - lo) for t in self.towers for lo, hi in t.base.intervals)
        if kac != 1:
            raise DisjointnessFailed(f"Kac's sum is {float(kac)!r}, not 1")
        return {"floors": self.floor_count(), "exact_tiling": True, "return_times_ok": True}


def build_castle(rot: CircleRotation, N: int) -> Castle:
    """Castle with heights in {N, N+1} covering the space (rotation bases).

    The inducing cell U must keep U, f(U), ..., f^{n1}(U) disjoint; since the
    translates are rigid, that is exactly "diameter < minimal orbit gap at
    horizon n1", which the convergents give in closed form and one exact
    comparison checks.  The first-return towers of U are then cut into
    N+1-blocks below N-blocks.
    """
    n1 = frobenius_threshold(N)
    gap = min_orbit_gap(rot.alpha, n1 + 1) if n1 >= 1 else 1.0
    # One candidate cell, centred at exactly 1/2.  Its radius r is
    # limit_denominator(2^20) of min(diam/2, 0.249), times (256 - k)/256 with
    # k >= 1 (basedyn._avoiding_radius).  While min(diam/2, 0.249) >= 2^-20,
    # limit_denominator moves it by less than 2^-20 of itself, so
    # r < diam/2 <= 0.48 gap (1 + 2^-41) (float(gap) is within 2^-41 of gap):
    # the width 2r is below the gap, and with r < 1/4 the cell is one piece.
    # Measured on 620 inputs (golden, silver and three float angles; N = 1-119,
    # 150, 158, 200, 250 and 288): the check held wherever small_boundary_cell
    # returned a cell.
    diam = min(4.0 / (n1 + 1), float(gap) * 0.96)
    U = small_boundary_cell(rot, rot.point(Fraction(1, 2)), diam / 4.0)
    (lo, hi), = U.intervals
    if not (hi - lo) < gap:  # exact: rigid translates stay disjoint
        raise DisjointnessFailed(f"inducing cell of width {float(hi - lo)!r} does not keep "
                                 f"{n1 + 1} iterates disjoint (gap {float(gap)!r})")
    classes = first_return(rot, U)
    towers: list[Tower] = []
    for cell, n in classes:
        if n < n1:
            raise DisjointnessFailed(
                f"first return {n} below Frobenius threshold {n1}; cell not small enough")
        l, lp = decompose_height(n, N)
        offset = 0
        for _ in range(lp):  # N+1 blocks stacked below N blocks
            towers.append(Tower(base=rot.translate_cell(cell, offset), height=N + 1))
            offset += N + 1
        for _ in range(l):
            towers.append(Tower(base=rot.translate_cell(cell, offset), height=N))
            offset += N
        if offset != n:
            raise NotRepresentable(f"block heights {l}x{N} + {lp}x{N + 1} != {n}")
    castle = Castle(N=N, towers=towers, system=rot)
    castle.report = castle.verify()
    return castle


# -- visit-frequency bound -------------------------------------------------------------


@dataclass
class FreqBound:
    """Open neighborhood V of a finite set with a certified visit-frequency cap.

    The certificate covers every point of the base space: for all x and all
    n0 <= n <= 8 n0, (1/n) #{j < n: f^j(x) in V} <= sup_frequency < eps.
    """

    V: Cell
    n0: int
    eps: float
    sup_frequency: float
    rho: float


def _packing_count_bound(alpha, pieces, n: int) -> float:
    """Upper bound on max_x #{j < n : x + j alpha in V} via the minimal orbit gap.

    pieces is `_pieces` of the intervals [lo, hi) of V, with lo, hi in
    [0, 1].  An interval of exact length L holds at most floor(L/g) + 1 orbit
    points, g the exact minimal gap.  Every endpoint and the gap convert to
    float with relative error below 2^-41 (a rational rounds once; a QuadExt
    cancels by at most a factor 1000 before it switches to its conjugate), so
    the float quotient q of length by gap satisfies |q - L/g| < 2^-38 (1/g + q).
    Where that window holds an integer the floor is decided exactly; elsewhere
    floor(q) is floor(L/g).  The quotients, floors and windows are taken for
    all pieces at once.  The total is a sum of whole floats far below 2^53,
    exact in any order.
    """
    lengths, intervals = pieces
    if not intervals:
        return 0.0
    if n < 2:
        return float(len(intervals))
    exact_gap = min_orbit_gap(alpha, n)
    gap = float(exact_gap)
    q = lengths / gap
    k = np.floor(q)
    tol = 2.0**-38 * (1.0 / gap + q)
    for i in np.flatnonzero((np.floor(q - tol) != k) | (np.floor(q + tol) != k)):
        lo, hi = intervals[i]
        k[i] = math.floor((as_exact(hi) - as_exact(lo)) / exact_gap)
    return float(np.sum(k + 1.0))


def _pieces(intervals) -> tuple:
    """(float lengths, intervals) of a list of intervals (lo, hi): the input
    of _packing_count_bound."""
    intervals = list(intervals)
    return np.array([float(hi) - float(lo) for lo, hi in intervals]), intervals


def _freq_bound_over_range(alpha, pieces, n0: int) -> float:
    """max over n in [n0, 8 n0] of the packing bound divided by n.

    The minimal gap is piecewise constant between convergent denominators, so
    the maximum is attained at n0 or at a denominator in range; all candidates
    are checked.  The denominators are read from the cached convergents.
    """
    candidates = [n0] + [q for _, q in convergents(alpha, 64) if n0 < q <= 8 * n0]
    return max(_packing_count_bound(alpha, pieces, n) / n for n in candidates)


def visit_freq_bound(rot: CircleRotation, L: Sequence, eps: float,
                     rho_floor: Optional[float] = None) -> FreqBound:
    """Certified (V, n0) with visit frequency below eps for every orbit.

    L is a finite collection of boundary points (exact scalars or floats),
    each read mod 1.  V is the union of radius-rho intervals around them; rho
    halves and n0 grows until the three-distance packing certificate clears
    eps.  The certificate is analytic and valid at any positive rho; the
    default failure floor is the grid spacing (callers that only need the
    all-x analytic statement may lower it toward float resolution).
    """
    if eps <= 0:
        raise CocycleLabError("eps must be positive")
    pts = [mod1(p) for p in L]
    if not pts:
        return FreqBound(V=Cell(()), n0=1, eps=eps, sup_frequency=0.0, rho=0.0)
    alpha = rot.alpha
    spacing = 1.0 / rot.grid_size
    floor = spacing / 2 if rho_floor is None else max(rho_floor, 1e-12)
    rho_frac = Fraction(max(spacing * 4, 1e-6)).limit_denominator(1 << 40)
    best = math.inf
    while True:
        parts = []
        for p in pts:
            parts.extend(wrap_interval(p - rho_frac, p + rho_frac))
        intervals = norm_union(parts)
        # the packing bound reads float lengths: convert the endpoints once
        fl = _pieces(intervals)
        # grow n0 geometrically until the [n0, 8 n0] certificate clears eps;
        # once the per-interval +1 term is negligible and it still fails, only
        # a smaller rho can help (the measure term is n-independent)
        for k in range(2, 44):
            n0 = 2 ** k
            best = _freq_bound_over_range(alpha, fl, n0)
            if best < eps:
                lo_n, hi_n = max(4, n0 // 2), n0  # refine to a near-minimal n0
                while hi_n - lo_n > max(hi_n // 16, 1):
                    mid = (lo_n + hi_n) // 2
                    if _freq_bound_over_range(alpha, fl, mid) < eps:
                        hi_n = mid
                    else:
                        lo_n = mid
                n0 = hi_n
                best = _freq_bound_over_range(alpha, fl, n0)
                return FreqBound(V=Cell.from_union(intervals), n0=n0, eps=eps, sup_frequency=best,
                                 rho=float(rho_frac))
            if len(intervals) / n0 < 0.02 * eps:
                break
        if float(rho_frac) <= floor:
            raise ShrinkExhausted(
                f"frequency {best:.3e} >= eps {eps:.3e} at the rho floor {floor:.2e}")
        rho_frac = rho_frac / 2
