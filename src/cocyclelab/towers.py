"""Kakutani-Rokhlin castles with heights N and N+1, and visit-frequency bounds.

Castle construction follows the inducing recipe: pick a small base cell whose
iterates up to the Frobenius threshold stay disjoint, partition it by first
return time (closed form for rotations), then cut each return tower into
stacked blocks of heights N and N+1.  With exact endpoints the floors tile the
circle exactly, so disjointness and coverage certify by endpoint comparison.

Visit frequencies use a three-distance packing certificate: an n-step orbit is
||q_K alpha||-separated, so a length-h interval sees at most h/||q_K alpha|| + 1
of its points.  That bounds the frequency for every point of K at once, which
is strictly stronger than a grid sweep with margins.
"""

from __future__ import annotations

import csv
import json
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
    float_breaks,
    locate,
    norm_union,
    small_boundary_cell,
    wrap_interval,
)
from .errors import (
    CocycleLabError,
    DisjointnessFailed,
    NotRepresentable,
    ShrinkExhausted,
)
from .exact import as_exact, best_denominators, min_orbit_gap, mod1

_CASTLE_EXACT_FLOOR_LIMIT = 25_000  # full exact floor check below this many floors
_RETURN_SAMPLE_SEED = 7  # seed of the sampled first-return check in Castle.verify
_RETURN_SAMPLES = 10_000  # points of that check, shared among the towers


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
    """(l, l') with l*N + l'*(N+1) = n, maximal l' (= n mod N when feasible)."""
    if N < 1:
        raise CocycleLabError("N >= 1 required")
    lp = n % N
    l = (n - lp * (N + 1)) // N
    if l >= 0 and l * N + lp * (N + 1) == n:
        return l, lp
    for lp in range(n // (N + 1), -1, -1):
        rem = n - lp * (N + 1)
        if rem >= 0 and rem % N == 0:
            return rem // N, lp
    raise NotRepresentable(f"{n} is not l*{N} + l'*{N + 1}")


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

    def all_floors(self):
        """Yield (interval piece, tower index, level) for every floor."""
        for ti, t in enumerate(self.towers):
            for j in range(t.height):
                cell = self.system.translate_cell(t.base, j)
                for piece in cell.intervals:
                    yield piece, ti, j

    def float_floors(self) -> tuple[np.ndarray, np.ndarray]:
        """All floor intervals as float arrays, built by vectorized translation."""
        lows, highs = [], []
        for t in self.towers:
            for lo, hi in t.base.intervals:
                width = float(hi) - float(lo)
                pos = self.system.orbit_floats(float(lo), t.height)
                over = pos + width > 1.0
                lows.append(pos[~over])
                highs.append(pos[~over] + width)
                if over.any():
                    lows.append(pos[over])
                    highs.append(np.ones(int(over.sum())))
                    lows.append(np.zeros(int(over.sum())))
                    highs.append(pos[over] + width - 1.0)
        lo = np.concatenate(lows)
        hi = np.concatenate(highs)
        order = np.argsort(lo, kind="stable")
        return lo[order], hi[order]

    def verify(self) -> dict:
        """Recompute the castle invariants; raises on any failure.

        Exact mode sorts every floor endpoint and asserts a perfect half-open
        tiling of [0, 1).  Above the floor-count limit the tiling check runs
        at float precision instead (the exact statement is structural: floors
        re-chunk the Kakutani tower of the inducing cell, whose disjointness
        was certified by the exact gap comparison); base-cell disjointness
        stays exact at every size.
        """
        n_floors = self.floor_count()
        do_exact = n_floors <= _CASTLE_EXACT_FLOOR_LIMIT
        report = {"floors": n_floors, "exact_tiling": None, "grid_covered": None,
                  "return_times_ok": None}
        if first_overlap(iv for t in self.towers for iv in t.base.intervals)[1] is not None:
            raise DisjointnessFailed("tower bases overlap")
        if do_exact:
            pieces, bad = first_overlap(p for p, _, _ in self.all_floors())
            if bad is not None:
                raise DisjointnessFailed(f"floors overlap near {float(pieces[bad + 1][0])!r}")
            tiles = all(hi1 == lo2 for (lo1, hi1), (lo2, hi2) in zip(pieces[:-1], pieces[1:]))
            tiles = tiles and pieces[0][0] == 0 and pieces[-1][1] == 1
            if not tiles:
                raise DisjointnessFailed("floors do not tile [0, 1) exactly")
            report["exact_tiling"] = True
            flo, fhi = float_breaks(pieces)
        else:
            flo, fhi = self.float_floors()
            if np.any(fhi[:-1] > flo[1:] + 1e-12):
                raise DisjointnessFailed("floors overlap (float check)")
            if np.any(flo[1:] - fhi[:-1] > 1e-9) or flo[0] > 1e-12 or fhi[-1] < 1 - 1e-12:
                raise DisjointnessFailed("floors do not tile [0, 1) (float check)")
            report["exact_tiling"] = False

        # grid coverage with one-spacing margin (also implied by the tiling)
        xs = self.system.grid_floats()
        idx, _ = locate(flo, fhi, xs)
        sp = 1.0 / self.system.grid_size
        covered = (xs >= flo[idx] - sp) & (xs < fhi[idx] + sp)
        if not covered.all():
            raise DisjointnessFailed("grid point not covered by any floor")
        report["grid_covered"] = True

        # sampled first-return times from B to B equal the tower heights
        rng = np.random.default_rng(_RETURN_SAMPLE_SEED)
        blo, bhi = self.base_union().float_breaks()
        per = max(1, _RETURN_SAMPLES // max(len(self.towers), 1))
        checked = 0
        for t in self.towers:
            for lo, hi in t.base.intervals:
                lof, hif = float(lo), float(hi)
                pad = (hif - lof) * 1e-3
                pts = rng.uniform(lof + pad, hif - pad, size=per)
                # in base at steps 1 .. height, one column per step
                inb = locate(blo, bhi, self.system.orbit_floats(pts, t.height, 1))[1]
                early = inb[:, :-1].any(axis=0)
                if early.any():
                    raise DisjointnessFailed(f"orbit re-entered base at step "
                                             f"{int(np.argmax(early)) + 1} < height {t.height}")
                if not inb[:, -1].all():
                    raise DisjointnessFailed(
                        f"orbit failed to return at the tower height {t.height}")
                checked += pts.size
        report["return_times_ok"] = True
        report["sampled"] = checked
        return report

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["base_lo", "base_hi", "height"])
            for t in self.towers:
                for lo, hi in t.base.intervals:
                    w.writerow([f"{float(lo):.17g}", f"{float(hi):.17g}", t.height])


def build_castle(rot: CircleRotation, N: int) -> Castle:
    """Castle with heights in {N, N+1} covering the space (rotation bases).

    The inducing cell U must keep U, f(U), ..., f^{n1}(U) disjoint; since the
    translates are rigid, that is exactly "diameter < minimal orbit gap at
    horizon n1", which the convergents give in closed form.  The cell shrinks
    geometrically from diameter 4/(n1+1) until the exact gap comparison holds;
    its first-return towers are then cut into N+1-blocks below N-blocks.
    """
    n1 = frobenius_threshold(N)
    gap = min_orbit_gap(rot.alpha, n1 + 1) if n1 >= 1 else 1.0
    # center the inducing cell at a generic rational point
    x0 = rot.point(Fraction(1, 2))
    diam = min(4.0 / (n1 + 1), float(gap) * 0.96)
    U = None
    for _ in range(80):
        cand = small_boundary_cell(rot, x0, diam / 4.0)
        lo, hi = cand.intervals[0] if len(cand.intervals) == 1 else (None, None)
        if lo is not None and (hi - lo) < gap:  # exact: rigid translates stay disjoint
            U = cand
            break
        diam /= 2.0
        if diam < 16.0 / 10**9:
            break
    if U is None:
        raise DisjointnessFailed(f"no inducing cell with {n1 + 1} disjoint iterates")
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

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"rho": self.rho, "n0": self.n0, "eps": self.eps,
                       "sup_frequency": self.sup_frequency}, fh, indent=2, sort_keys=True)


def _packing_count_bound(alpha, pieces, n: int) -> float:
    """Upper bound on max_x #{j < n : x + j alpha in V} via the minimal orbit gap.

    pieces holds (float length, lo, hi) per interval [lo, hi) of V, with lo, hi
    in [0, 1].  An interval of exact length L holds at most floor(L/g) + 1
    orbit points, g the exact minimal gap.  Every endpoint and the gap convert
    to float with relative error below 2^-41 (a rational rounds once; a
    QuadExt cancels by at most a factor 1000 before it switches to its
    conjugate), so the float quotient q of length by gap satisfies
    |q - L/g| < 2^-38 (1/g + q).  Where that window holds an integer the
    floor is decided exactly; elsewhere floor(q) is floor(L/g).
    """
    if not pieces:
        return 0.0
    if n < 2:
        return float(len(pieces))
    exact_gap = min_orbit_gap(alpha, n)
    gap = float(exact_gap)
    total = 0.0
    for h, lo, hi in pieces:
        q = h / gap
        k = math.floor(q)
        tol = 2.0**-38 * (1.0 / gap + q)
        if math.floor(q - tol) != k or math.floor(q + tol) != k:
            k = math.floor((as_exact(hi) - as_exact(lo)) / exact_gap)
        total += k + 1.0
    return total


def _pieces(intervals) -> list:
    """(float length, lo, hi) per interval, the input of _packing_count_bound."""
    return [(float(hi) - float(lo), lo, hi) for lo, hi in intervals]


def _freq_bound_over_range(alpha, pieces, n0: int) -> float:
    """max over n in [n0, 8 n0] of the packing bound divided by n.

    The minimal gap is piecewise constant between convergent denominators, so
    the maximum is attained at n0 or at a denominator in range; all candidates
    are checked.
    """
    candidates = [n0]
    for q, _ in best_denominators(alpha, 8 * n0):
        if n0 < q <= 8 * n0:
            candidates.append(q)
    return max(_packing_count_bound(alpha, pieces, n) / n for n in candidates)


def visit_freq_bound(rot: CircleRotation, L: Sequence, eps: float,
                     rho_start: Optional[float] = None,
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
    rho = rho_start if rho_start is not None else max(spacing * 4, 1e-6)
    rho_frac = Fraction(rho).limit_denominator(1 << 40)
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
