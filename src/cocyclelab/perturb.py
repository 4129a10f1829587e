"""Segment perturbation: direction steering, balance profiles, certified plans.

The steering block composes per-step rotations R_phi A with an exact
determinant-preserving rank-one correction once the pullback target comes into
reach: M = A + u d^T with u = t/<d, A^-1 t> - A d maps the incoming direction d
exactly onto t and stays unimodular by the matrix determinant lemma.  Pure
rotation composition cannot cross the repelling direction of a locally
hyperbolic stretch (the reachable set stalls a third of the per-step cap away
from it), so the correction is what makes arbitrary direction pairs reachable.

Every plan is certified by direct recomputation of both contract bounds before
it is returned; nothing relies on the inequality chain that motivated it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .basedyn import BasePoint, Cell, locate
from .cocycle import Cocycle, log_norms_batch
from .errors import (
    BudgetExhausted,
    CertificationFailed,
    CocycleLabError,
    NoBalancedIndex,
    SearchFailed,
    SteeringFailed,
)
from .exact import min_orbit_gap
from .sl2 import (
    Mat2,
    general_operator_norm,
    log_norm,
    scan_lanes,
    scan_product,
    singular_axes_arrays,
)

ANGLE_TOL = 1e-6
_LANE_CHUNK = 256
_WINDOW_CANDIDATES = 64  # steering-window centers scanned by choose_steering_window


# -- data types ---------------------------------------------------------------------


@dataclass
class SteeringBlock:
    anchor: BasePoint
    length: int
    matrices: list[Mat2]
    budget: float
    achieved_error: float
    v: tuple[float, float]
    w: tuple[float, float]


@dataclass
class BalanceProfile:
    x: BasePoint
    N: int
    log_deltas: np.ndarray  # log Delta_j, j = 0..N
    j0: int
    C: float


@dataclass
class EarlyExit:
    pass


@dataclass
class Steered:
    j1: int
    block: SteeringBlock


@dataclass
class SegmentPlan:
    x: BasePoint
    N: int
    eps: float
    branch: Union[EarlyExit, Steered]
    product_log_norm: float
    max_distance: float
    _cocycle: Cocycle

    def to_text(self) -> str:
        x0 = self._cocycle.base.float_coords(self.x)[0]
        tag = "early-exit" if isinstance(self.branch, EarlyExit) else f"steered j1={self.branch.j1} m={self.branch.block.length}"
        lines = [f"# segment x={x0!r} N={self.N} eps={self.eps!r} branch={tag}"]
        ents = plan_entries(self._cocycle, self)
        for j in range(self.N):
            lines.append(" ".join(float(e[j]).hex() for e in ents))
        return "\n".join(lines) + "\n"


def plan_entries(co: Cocycle, plan: SegmentPlan) -> tuple[np.ndarray, ...]:
    """Entry arrays (a, b, c, d) of L_0..L_{N-1} for a plan."""
    pos = co.orbit(plan.x, plan.N)
    ents = [np.array(e, dtype=float) for e in co.generator.entries(pos)]
    if isinstance(plan.branch, Steered):
        j1 = plan.branch.j1
        for k, M in enumerate(plan.branch.block.matrices):
            vals = M.entries()
            for i in range(4):
                ents[i][j1 + k] = vals[i]
    return tuple(ents)


# -- steering core -------------------------------------------------------------------


def _pullback_targets(ea, eb, ec, ed, wx, wy):
    """Targets T_j, j = 0..m: T_m = w, T_j = unit(A_j^{-1} T_{j+1}). Arrays (L, m+1)."""
    L, m = ea.shape
    tx = np.empty((L, m + 1))
    ty = np.empty((L, m + 1))
    tx[:, m], ty[:, m] = wx, wy
    for j in range(m - 1, -1, -1):
        # A^{-1} = [[d, -b], [-c, a]] for unimodular A
        nx = ed[:, j] * tx[:, j + 1] - eb[:, j] * ty[:, j + 1]
        ny = -ec[:, j] * tx[:, j + 1] + ea[:, j] * ty[:, j + 1]
        nrm = np.hypot(nx, ny)
        tx[:, j], ty[:, j] = nx / nrm, ny / nrm
    return tx, ty


def _steer_batch(co: Cocycle, anchors: np.ndarray, vx, vy, wx, wy, eps: float, m: int):
    """Steer each lane's v to w in exactly m steps.

    Returns (block entry arrays (L, m, 4), max distance per lane, angular error
    per lane).  Greedy capped rotations toward the pullback target; exact
    rank-one correction and coasting once within reach.
    """
    L = np.size(anchors)
    ea, eb, ec, ed = co.entries_along(anchors, m)
    tx, ty = _pullback_targets(ea, eb, ec, ed, wx, wy)

    out = np.empty((L, m, 4))
    dx, dy = np.array(vx, dtype=float), np.array(vy, dtype=float)
    done = np.zeros(L, dtype=bool)
    max_dist = np.zeros(L)
    cap_scale = eps * (1.0 - 1e-9)
    for j in range(m):
        a, b, c, d = ea[:, j], eb[:, j], ec[:, j], ed[:, j]
        mdx = a * dx + b * dy
        mdy = c * dx + d * dy
        # exact rank-one correction onto the pullback target
        t1, t2 = tx[:, j + 1], ty[:, j + 1]
        den = dx * (d * t1 - b * t2) + dy * (-c * t1 + a * t2)  # <d, A^{-1} t>
        safe = np.abs(den) > 1e-12
        beta = np.where(safe, 1.0 / np.where(safe, den, 1.0), 0.0)
        ux_ = beta * t1 - mdx
        uy_ = beta * t2 - mdy
        unrm = np.hypot(ux_, uy_)
        correct = (~done) & safe & (unrm < cap_scale)
        # greedy rotation fallback
        anorm = np.maximum(general_operator_norm(a, b, c, d), 1.0)  # unimodular A
        cap = 2.0 * np.arcsin(np.minimum(cap_scale / (2.0 * anorm), 1.0))
        psi = np.arctan2(mdy, mdx)
        tau = np.arctan2(t2, t1)
        delta = np.mod(tau - psi, math.pi)
        delta = np.where(delta > math.pi / 2, delta - math.pi, delta)
        phi = np.clip(delta, -cap, cap)
        phi = np.where(done | correct, 0.0, phi)
        cphi, sphi = np.cos(phi), np.sin(phi)

        na = np.where(correct, a + ux_ * dx, cphi * a - sphi * c)
        nb = np.where(correct, b + ux_ * dy, cphi * b - sphi * d)
        nc = np.where(correct, c + uy_ * dx, sphi * a + cphi * c)
        nd = np.where(correct, d + uy_ * dy, sphi * b + cphi * d)
        out[:, j, 0], out[:, j, 1], out[:, j, 2], out[:, j, 3] = na, nb, nc, nd

        step_dist = np.where(correct, unrm, 2.0 * np.sin(np.abs(phi) / 2.0) * anorm)
        step_dist = np.where(done, 0.0, step_dist)
        max_dist = np.maximum(max_dist, step_dist)

        ndx = na * dx + nb * dy
        ndy = nc * dx + nd * dy
        nrm = np.hypot(ndx, ndy)
        dx, dy = ndx / nrm, ndy / nrm
        done = done | correct
    err = np.arctan2(np.abs(dx * wy - dy * wx), np.abs(dx * wx + dy * wy))
    return out, max_dist, err


def steer_direction(co: Cocycle, x: BasePoint, v: Sequence[float], w: Sequence[float],
                    eps: float, m_max: int) -> SteeringBlock:
    """Block of minimal length m <= m_max steering direction v to w at budget eps."""
    if eps <= 0:
        raise CocycleLabError("eps must be positive")
    nv = math.hypot(*v)
    nw = math.hypot(*w)
    if nv == 0 or nw == 0:
        raise CocycleLabError("directions must be nonzero")
    vx, vy = v[0] / nv, v[1] / nv
    wx, wy = w[0] / nw, w[1] / nw
    cross = abs(vx * wy - vy * wx)
    if cross <= 1e-15 and vx * wx + vy * wy != 0:
        return SteeringBlock(anchor=x, length=0, matrices=[], budget=eps,
                             achieved_error=0.0, v=(vx, vy), w=(wx, wy))
    x0 = co.base.float_coords(x)[0]
    anchors = np.array([x0])
    last_err = math.inf
    for m in range(1, m_max + 1):
        ents, dist, err = _steer_batch(co, anchors, np.array([vx]), np.array([vy]),
                                       np.array([wx]), np.array([wy]), eps, m)
        last_err = float(err[0])
        if last_err <= ANGLE_TOL:
            mats = [Mat2(*(float(ents[0, j, k]) for k in range(4))) for j in range(m)]
            return SteeringBlock(anchor=x, length=m, matrices=mats, budget=eps,
                                 achieved_error=last_err, v=(vx, vy), w=(wx, wy))
    raise BudgetExhausted(f"angular error {last_err:.2e} after m_max={m_max} steps")


# -- balance profile -------------------------------------------------------------------


def _balance(ents, C: float):
    """Per lane of the (L, N) entry arrays of A(f^j x): log ||A_j(x)|| and
    log Delta_j = log ||A_j(x)|| - log ||A_{N-j}(f^j x)|| for j = 0..N, and the
    least balanced index j0, |log Delta_j0| < log C (-1 where there is none).

    Two running sl2.scan_lanes scans.  The suffix S_j = A_{N-1} ... A_j grows
    by right multiplication, so it is scanned as its transpose A_j^T ...
    A_{N-1}^T (same norm) over the reversed, transposed steps.
    """
    ea, eb, ec, ed = ents
    _, pre = scan_lanes(ea, eb, ec, ed, running=True)
    _, suf = scan_lanes(ea[:, ::-1], ec[:, ::-1], eb[:, ::-1], ed[:, ::-1], running=True)
    log_d = pre - suf[:, ::-1]
    inside = np.abs(log_d) < math.log(C)
    return pre, log_d, np.where(inside.any(axis=1), np.argmax(inside, axis=1), -1)


def balance_profile(co: Cocycle, x: BasePoint, N: int, C: float) -> BalanceProfile:
    """Delta_j = ||A_j(x)|| / ||A_{N-j}(f^j x)|| with the smallest balanced index."""
    if N < 1:
        raise CocycleLabError("N >= 1 required")
    if C <= co.sup_norm:
        raise NoBalancedIndex(f"C = {C} below sup norm {co.sup_norm}")
    x0 = co.base.float_coords(x)[0]
    _, log_d, j0 = _balance(co.entries_along(np.array([x0]), N), C)
    if j0[0] < 0:
        raise NoBalancedIndex("no index with C^-1 < Delta_j < C; C below precondition?")
    return BalanceProfile(x=x, N=N, log_deltas=log_d[0], j0=int(j0[0]), C=C)


# -- N selection -------------------------------------------------------------------------


def perturbation_constant(co: Cocycle, eps: float) -> float:
    """C = eps + sup_x ||A(x)|| + 1e-9, the minimal valid profile constant."""
    return eps + co.sup_norm + 1e-9


def choose_N(co: Cocycle, eps: float, c: float, m1: int) -> int:
    """Smallest N with C^{4 m1 + 1} < e^{eps N} / sqrt(2) and eps N > c."""
    if eps <= 0:
        raise CocycleLabError("eps must be positive")
    C = perturbation_constant(co, eps)
    base = max(((4 * m1 + 1) * math.log(C) + 0.5 * math.log(2.0)) / eps, c / eps)
    N = max(1, math.floor(base))
    while (4 * m1 + 1) * math.log(C) >= eps * N - 0.5 * math.log(2.0) or eps * N <= c:
        N += 1
    return N


# -- steering window -------------------------------------------------------------------


def _direction_grid(k: int) -> tuple[np.ndarray, np.ndarray]:
    ang = (np.arange(k) + 0.5) * math.pi / k
    return np.cos(ang), np.sin(ang)


def _window_sweep_ok(co: Cocycle, anchors: np.ndarray, eps: float, m: int, k: int) -> np.ndarray:
    """Per anchor: all k*k direction pairs steer within tolerance at length m.

    One _steer_batch call over every (pair, anchor) lane.
    """
    cx, sx = _direction_grid(k)
    A = anchors.size
    vx = np.repeat(np.tile(cx, k), A)
    vy = np.repeat(np.tile(sx, k), A)
    wx = np.repeat(np.repeat(cx, k), A)
    wy = np.repeat(np.repeat(sx, k), A)
    anc = np.tile(anchors, k * k)
    _, dist, err = _steer_batch(co, anc, vx, vy, wx, wy, eps, m)
    return ((err <= ANGLE_TOL) & (dist < eps)).reshape(k * k, A).all(axis=0)


def choose_steering_window(co: Cocycle, eps: float) -> tuple[Cell, int]:
    """Open window W and block length m certified by a direction-pair sweep.

    Candidate centers are ranked by finite-product norm collapse (steering is
    cheapest where the cocycle is least hyperbolic).  Two translates of an
    interval by i alpha and j alpha are disjoint exactly when ||(i - j) alpha||
    is at least its width, so W, f(W), ..., f^{m-1}(W) are pairwise disjoint
    exactly when the width of W is at most min ||q alpha|| over 0 < q < m, the
    exact minimal gap of m orbit points (exact.min_orbit_gap): one exact
    comparison certifies it.  A full-size window is 0.9 times the gap of m + 1
    points wide, at most 0.1.  The construction needs only some open
    neighbourhood of a steerable point, so when no full-size window
    certifies, the whole (m, center) scan is repeated with the window
    half-width halved, down to the grid spacing.  The first pass is the
    full-size scan, so any input it certifies gets the same (W, m) as a
    search without halvings.  The 8x8 sweep at the centers does not depend
    on the window size: it runs once per m, over all centers in one batch.
    A sweep's verdict is per point, so every point is swept at most once per
    (m, direction grid), however many windows share it.
    """
    if eps <= 0:
        raise CocycleLabError("eps must be positive")
    rot = co.base
    alpha = rot.alpha
    m_cap = 10 * math.ceil(1.0 / eps)
    xs = rot.grid_floats()
    probe = log_norms_batch(co, xs, 16)
    order = np.argsort(probe, kind="stable")
    centers = [float(xs[i]) for i in order[: _WINDOW_CANDIDATES // 2]]
    centers += [float(xs[int(i)]) for i in
                np.linspace(0, xs.size - 1, _WINDOW_CANDIDATES - len(centers)).astype(int)]
    centers = list(dict.fromkeys(Fraction(c).limit_denominator(1 << 24) for c in centers))
    center_floats = np.array([float(c) for c in centers])

    # per-step reach never exceeds the rotation cap at the smallest image norm
    # plus the correction cone; skip block lengths that cannot make a half turn
    reach = 2.0 * math.asin(min(1.0, eps * co.sup_norm / 2.0)) \
        + math.atan(eps * co.sup_norm)
    m_floor = max(1, math.ceil((math.pi / 2.0) / max(reach, 1e-9)))

    ladder = sorted({min(max(m_floor, m), m_cap) for m in
                     (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, m_cap)})
    spacing = Fraction(1, rot.grid_size)
    full_half = {}
    for m in ladder:
        gap = float(min_orbit_gap(alpha, m + 1)) if m > 1 else 0.49
        full_half[m] = Fraction(min(gap * 0.45, 0.05)).limit_denominator(1 << 24)
    verdicts: dict = {}  # (m, k) -> {point: sweep verdict}; a verdict is per lane

    def sweep_ok(points: np.ndarray, m: int, k: int) -> np.ndarray:
        """_window_sweep_ok, sweeping only the points not yet swept at (m, k)."""
        seen = verdicts.setdefault((m, k), {})
        new = [p for p in dict.fromkeys(points.tolist()) if p not in seen]
        if new:
            seen.update(zip(new, _window_sweep_ok(co, np.array(new), eps, m, k).tolist()))
        return np.array([seen[p] for p in points.tolist()])

    narrowest = Fraction(1)
    for halvings in itertools.count():
        halves = {m: h / (1 << halvings) for m, h in full_half.items()
                  if h / (1 << halvings) > spacing}
        if not halves:
            break
        narrowest = min(narrowest, *halves.values())
        for m, half in halves.items():
            for c, ok in zip(centers, sweep_ok(center_floats, m, 8)):
                lo, hi = c - half, c + half
                if not ok or lo < 0 or hi > 1:
                    continue
                if not (m == 1 or hi - lo <= min_orbit_gap(alpha, m)):
                    continue
                inside = xs[(xs >= float(lo)) & (xs < float(hi))]
                if inside.size == 0:
                    inside = np.array([float(c)])
                if inside.size > 256:
                    inside = inside[:: inside.size // 256 + 1]
                if sweep_ok(inside, m, 8).all() and sweep_ok(inside, m, 32).all():
                    return Cell.from_union([(rot.lift(lo), rot.lift(hi))]), m
    if halvings:
        sizes = (f"half-widths {float(max(full_half.values())):.3g} down to {float(narrowest):.3g} "
                 f"(full size and {halvings - 1} halvings, floor grid spacing 1/{rot.grid_size})")
    else:
        sizes = f"no window size above grid spacing 1/{rot.grid_size}"
    raise SearchFailed(f"no certified window after scanning {_WINDOW_CANDIDATES} candidates, "
                       f"m <= {m_cap}, {sizes}")


# -- segment plans ------------------------------------------------------------------------


def plan_segment(co: Cocycle, x: BasePoint, eps: float, N: int, W: Cell,
                 m1: int, m: int) -> SegmentPlan:
    plans = plan_segments(co, [x], eps, N, W, m1, m)
    return plans[0]


def plan_segments(co: Cocycle, xs: Sequence[BasePoint], eps: float, N: int, W: Cell,
                  m1: int, m: int) -> list[SegmentPlan]:
    """Certified segment plans at many anchors, vectorized in lane chunks."""
    if eps <= 0 or N < 1:
        raise CocycleLabError("need eps > 0 and N >= 1")
    points = list(xs)
    anchors = np.array([co.base.float_coords(p)[0] for p in points])
    out: list[Optional[SegmentPlan]] = [None] * len(points)
    for lo in range(0, anchors.size, _LANE_CHUNK):
        hi = min(lo + _LANE_CHUNK, anchors.size)
        _plan_chunk(co, points[lo:hi], anchors[lo:hi], eps, N, W, m1, m, out, lo)
    return out  # type: ignore[return-value]


def _plan_chunk(co, points, anchors, eps, N, W, m1, m, out, base_idx):
    L = anchors.size
    # one generator evaluation, shared by the scans, the masked products and
    # the certification
    pos = co.base.orbit_floats(anchors, N)
    ents = tuple(np.asarray(e, dtype=float) for e in co.generator.entries(pos))
    pre, _, j0 = _balance(ents, perturbation_constant(co, eps))
    if (j0 < 0).any():
        bad = int(np.argmax(j0 < 0))
        raise NoBalancedIndex(f"anchor {anchors[bad]}: no balanced index (C too small?)")

    # j1: the first step in [j0, j0 + m1] that lands in W; nothing to prove
    # where the unperturbed product already meets the bound
    trivially_small = pre[:, N] < 0.999 * eps * N
    steps = np.arange(N)[None, :]
    hit = locate(*W.float_breaks(), pos)[1] & ~trivially_small[:, None] \
        & (steps >= j0[:, None]) & (steps <= (j0 + m1)[:, None])
    j1 = np.where(hit.any(axis=1), np.argmax(hit, axis=1), -1)

    early = (j1 < 0) | (j1 + m > N)
    steered_lanes = np.flatnonzero(~early)

    # scaled prefix X = A_{j1}(x) and suffix Z = A_{N-j1-m}(f^{j1+m} x) per steered lane
    blocks: dict[int, SteeringBlock] = {}
    if steered_lanes.size:
        Xe, Ze = _masked_products(ents, N, j1, m, steered_lanes)
        ux, uy, sx, sy, _, degX = singular_axes_arrays(*Xe)
        # v = s_{X^{-1}} = direction of X u_X; degenerate X: any direction works
        vx_ = Xe[0] * ux + Xe[1] * uy
        vy_ = Xe[2] * ux + Xe[3] * uy
        nrm = np.hypot(vx_, vy_)
        vx_, vy_ = vx_ / nrm, vy_ / nrm
        vx_ = np.where(degX, 1.0, vx_)
        vy_ = np.where(degX, 0.0, vy_)
        _, _, szx, szy, _, degZ = singular_axes_arrays(*Ze)
        szx = np.where(degZ, 1.0, szx)
        szy = np.where(degZ, 0.0, szy)
        # each block is steered from its own anchor f^{j1}(x)
        block_ents, _, err = _steer_batch(co, pos[steered_lanes, j1[steered_lanes]],
                                          vx_, vy_, szx, szy, eps, m)
        bad = err > ANGLE_TOL
        if bad.any():
            k = int(np.argmax(bad))
            raise SteeringFailed(
                f"anchor {anchors[steered_lanes[k]]}: steering error {err[k]:.2e} at m={m}"
            )
        for i, lane in enumerate(steered_lanes):
            mats = [Mat2(*(float(block_ents[i, j, k]) for k in range(4))) for j in range(m)]
            pt = points[lane]
            blocks[lane] = SteeringBlock(
                anchor=co.base.step(pt, int(j1[lane])), length=m, matrices=mats,
                budget=eps, achieved_error=float(err[i]),
                v=(float(vx_[i]), float(vy_[i])), w=(float(szx[i]), float(szy[i])),
            )

    # certify all lanes with one batched scan over the actual L matrices
    prod_logs, max_dists = _certify_chunk(ents, j1, m, early, blocks)
    for lane in range(L):
        if early[lane]:
            branch: Union[EarlyExit, Steered] = EarlyExit()
        else:
            branch = Steered(j1=int(j1[lane]), block=blocks[lane])
        pl = float(prod_logs[lane])
        md = float(max_dists[lane])
        if pl >= eps * N:
            raise CertificationFailed(
                f"anchor {anchors[lane]}: log product norm {pl:.3f} >= eps*N = {eps * N:.3f}"
                + (" (early exit)" if early[lane] else "")
            )
        if md >= eps:
            raise CertificationFailed(f"anchor {anchors[lane]}: distance {md:.3e} >= eps")
        out[base_idx + lane] = SegmentPlan(
            x=points[lane], N=N, eps=eps, branch=branch,
            product_log_norm=pl, max_distance=md, _cocycle=co,
        )


def _masked_products(ents, N, j1, m, lanes):
    """Mantissa entries of X (prefix to j1) and Z (suffix from j1+m) per lane.

    One sl2.scan_lanes scan each over the chunk's entry arrays, with the steps
    outside the range set to the identity.
    """
    ents = [e[lanes] for e in ents]
    j1s = j1[lanes][:, None]

    def scan(lo, hi, active):
        # identity steps leave a product bitwise unchanged, so columns that
        # are inactive in every lane are dropped
        steps = np.arange(lo, hi)[None, :]
        masked = (np.where(active(steps), e[:, lo:hi], one)
                  for e, one in zip(ents, (1.0, 0.0, 0.0, 1.0)))
        return scan_lanes(*masked)[0][:4]

    X = scan(0, int(j1s.max()), lambda j: j < j1s)
    Z = scan(int(j1s.min()) + m, N, lambda j: j >= j1s + m)
    return X, Z


def _certify_chunk(ents, j1, m, early, blocks):
    """Recompute max_j ||L_j - A(f^j x)|| and log ||L_{N-1}...L_0|| per lane
    from the chunk's generator entries, which are left unchanged."""
    max_dist = np.zeros(early.size)
    lanes = np.flatnonzero(~early)
    if lanes.size:
        ents = [e.copy() for e in ents]  # the steered slots are overwritten
        mats = np.array([[M.entries() for M in blocks[lane].matrices] for lane in lanes])
        rows, cols = lanes[:, None], j1[lanes][:, None] + np.arange(m)[None, :]
        diffs = (mats[:, :, k] - e[rows, cols] for k, e in enumerate(ents))
        max_dist[lanes] = general_operator_norm(*diffs).max(axis=1)
        for k, e in enumerate(ents):
            e[rows, cols] = mats[:, :, k]
    return log_norm(*scan_lanes(*ents)[0]), max_dist


@dataclass
class SegmentReport:
    max_distance: float
    product_log_norm: float
    eps: float
    N: int

    @property
    def passes(self) -> bool:
        return self.max_distance < self.eps and self.product_log_norm < self.eps * self.N


def verify_segment(co: Cocycle, plan: SegmentPlan) -> SegmentReport:
    """Independent recomputation of both plan bounds from the raw matrices."""
    ents = plan_entries(co, plan)
    gen = co.generator.entries(co.orbit(plan.x, plan.N))
    dist = float(general_operator_norm(*(e - np.asarray(g, dtype=float)
                                         for e, g in zip(ents, gen))).max())
    return SegmentReport(max_distance=dist, product_log_norm=float(log_norm(*scan_product(*ents))),
                         eps=plan.eps, N=plan.N)
