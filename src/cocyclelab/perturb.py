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
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .basedyn import BasePoint, Cell, covering_time, locate
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
# lanes of one window-sweep group: 256 anchors at k = 8, 16 at k = 32
_SWEEP_LANES = 1 << 14
_PROBE = 16  # spread anchors an early-exiting window sweep tries first (_sweep)


# -- data types ---------------------------------------------------------------------


@dataclass
class SteeringBlock:
    length: int
    matrices: list[Mat2]
    budget: float
    achieved_error: float


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
    return _overlay_block(co.generator.entries(co.orbit(plan.x, plan.N)), plan)


def _overlay_block(gen, plan: SegmentPlan) -> tuple[np.ndarray, ...]:
    """Float copies of the generator entry arrays gen, with a steered plan's
    block written over its slots j1 .. j1 + m - 1."""
    ents = tuple(np.array(e, dtype=float) for e in gen)
    if isinstance(plan.branch, Steered):
        j1 = plan.branch.j1
        mats = np.array([M.entries() for M in plan.branch.block.matrices])
        for e, col in zip(ents, mats.T):
            e[j1:j1 + col.size] = col
    return ents


# -- steering core -------------------------------------------------------------------


def _mod_pi(x):
    """np.mod(x, pi) bit for bit, from one fmod.

    np.mod is fmod, plus pi after a negative remainder, and +0.0 for a zero
    one.  Adding (r < 0) pi does both: r + pi where r < 0, and r + 0.0
    elsewhere, which turns -0.0 into +0.0 and leaves every other r (a nan
    too) as it is.  It skips the quotient that np.mod also computes.
    """
    r = np.fmod(x, math.pi)
    r += (r < 0) * math.pi
    return r


def _steer_batch(ents, vx, vy, wx, wy, eps: float):
    """Steer v to w in exactly m steps over the generator entry arrays
    ents = (a, b, c, d), each (A, m): step j of anchor i is ents[.][i, j].

    v and w broadcast against the anchor axis, and the lanes are their
    broadcast shape: (A,) for one (v, w) per anchor, (k, k, A) for the
    window sweep's w of shape (k, 1, 1) and v of shape (1, k, 1).  The work
    is split by what it depends on.  Per (anchor, step): the operator norm
    and the rotation cap.  Per (w, anchor, step): the pullback targets
    T_m = w, T_j = unit(A_j^{-1} T_{j+1}), the unnormalized A_j^{-1} T_{j+1}
    that the correction's denominator <d, A^{-1} t> pairs with d, and the
    target angle.  Per lane: greedy capped rotations toward the target, then
    the exact rank-one correction and coasting once it is within reach.
    Every value is the same elementwise expression as over tiled lanes, so
    each lane has the bits it has when its anchor and w are repeated.

    A generator: it yields each step's block entries (a, b, c, d) as lane
    arrays, then (max distance, angular error) per lane.  A caller that only
    needs the verdict keeps the last item, and no block is held in memory.
    """
    ea, eb, ec, ed = ents
    m = ea.shape[1]
    shape = np.broadcast_shapes(np.shape(vx), np.shape(wx), ea.shape[:1])
    # targets: tx[j], ty[j] = T_j; ix[j], iy[j] = A_j^{-1} T_{j+1}
    # (A^{-1} = [[d, -b], [-c, a]] for unimodular A)
    tx, ty, ix, iy = [None] * (m + 1), [None] * (m + 1), [None] * m, [None] * m
    tx[m], ty[m] = np.asarray(wx, dtype=float), np.asarray(wy, dtype=float)
    for j in range(m - 1, -1, -1):
        ix[j] = ed[:, j] * tx[j + 1] - eb[:, j] * ty[j + 1]
        iy[j] = -ec[:, j] * tx[j + 1] + ea[:, j] * ty[j + 1]
        nrm = np.hypot(ix[j], iy[j])
        tx[j], ty[j] = ix[j] / nrm, iy[j] / nrm
    cap_scale = eps * (1.0 - 1e-9)
    anorms = np.maximum(general_operator_norm(ea, eb, ec, ed), 1.0)  # unimodular A
    caps = 2.0 * np.arcsin(np.minimum(cap_scale / (2.0 * anorms), 1.0))

    dx, dy = np.asarray(vx, dtype=float), np.asarray(vy, dtype=float)
    done = np.zeros(shape, dtype=bool)
    max_dist = np.zeros(shape)
    for j in range(m):
        a, b, c, d = ea[:, j], eb[:, j], ec[:, j], ed[:, j]
        anorm, cap = anorms[:, j], caps[:, j]
        mdx = a * dx + b * dy
        mdy = c * dx + d * dy
        # exact rank-one correction onto the pullback target
        t1, t2 = tx[j + 1], ty[j + 1]
        den = dx * ix[j] + dy * iy[j]  # <d, A^{-1} t>
        safe = np.abs(den) > 1e-12
        beta = np.where(safe, 1.0 / np.where(safe, den, 1.0), 0.0)
        ux_ = beta * t1 - mdx
        uy_ = beta * t2 - mdy
        unrm = np.hypot(ux_, uy_)
        correct = (~done) & safe & (unrm < cap_scale)
        # greedy rotation fallback
        psi = np.arctan2(mdy, mdx)
        delta = _mod_pi(np.arctan2(t2, t1) - psi)
        delta = np.where(delta > math.pi / 2, delta - math.pi, delta)
        phi = np.clip(delta, -cap, cap)
        phi = np.where(done | correct, 0.0, phi)
        cphi, sphi = np.cos(phi), np.sin(phi)

        na = np.where(correct, a + ux_ * dx, cphi * a - sphi * c)
        nb = np.where(correct, b + ux_ * dy, cphi * b - sphi * d)
        nc = np.where(correct, c + uy_ * dx, sphi * a + cphi * c)
        nd = np.where(correct, d + uy_ * dy, sphi * b + cphi * d)
        yield na, nb, nc, nd

        step_dist = np.where(correct, unrm, 2.0 * np.sin(np.abs(phi) / 2.0) * anorm)
        step_dist = np.where(done, 0.0, step_dist)
        max_dist = np.maximum(max_dist, step_dist)

        ndx = na * dx + nb * dy
        ndy = nc * dx + nd * dy
        nrm = np.hypot(ndx, ndy)
        dx, dy = ndx / nrm, ndy / nrm
        done = done | correct
    err = np.arctan2(np.abs(dx * wy - dy * wx), np.abs(dx * wx + dy * wy))
    yield max_dist, err


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
        return SteeringBlock(length=0, matrices=[], budget=eps, achieved_error=0.0)
    # one generator evaluation: orbit positions are taken from the anchor,
    # so the first m columns are the entries along the orbit's first m steps
    ents = co.entries_along(np.array([co.base.float_coords(x)[0]]), m_max)
    last_err = math.inf
    for m in range(1, m_max + 1):
        *steps, (_, err) = _steer_batch(tuple(e[:, :m] for e in ents), vx, vy, wx, wy, eps)
        last_err = float(err[0])
        if last_err <= ANGLE_TOL:
            mats = [Mat2(*(float(e[0]) for e in step)) for step in steps]
            return SteeringBlock(length=m, matrices=mats, budget=eps, achieved_error=last_err)
    raise BudgetExhausted(f"angular error {last_err:.2e} after m_max={m_max} steps")


# -- balance profile -------------------------------------------------------------------


def _balance(ents, C: float):
    """Per lane of the (L, N) entry arrays of A(f^j x): log ||A_j(x)|| and
    log Delta_j = log ||A_j(x)|| - log ||A_{N-j}(f^j x)|| for j = 0..N, and the
    least balanced index j0, |log Delta_j0| < log C (-1 where there is none).

    One running sl2.scan_lanes scan over 2L lanes: the first L are the
    prefixes, the last L the suffixes S_j = A_{N-1} ... A_j.  A suffix grows
    by right multiplication, so it is scanned as its transpose A_j^T ...
    A_{N-1}^T (same norm) over the reversed, transposed steps.
    """
    L, N = ents[0].shape
    transposed = (ents[0], ents[2], ents[1], ents[3])

    def fetch(s, k):
        return [np.concatenate((e[:, s:s + k], t[:, N - s - k:N - s][:, ::-1]))
                for e, t in zip(ents, transposed)]

    _, logs = scan_lanes(fetch, 2 * L, N, running=True)
    pre, suf = logs[:L], logs[L:]
    log_d = pre - suf[:, ::-1]
    log_c = math.log(C)
    inside = (log_d > -log_c) & (log_d < log_c)  # |log_d| < log C, without an |.| array
    return pre, log_d, np.where(inside.any(axis=1), np.argmax(inside, axis=1), -1)


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


def plan_constants(co: Cocycle, eps: float) -> tuple[float, Cell, int, int, int]:
    """(c, W, m, m1, N) in proof order: c = log(sup||A|| + eps) + 1e-9, the
    steering window W with its block length m, m1 = max(covering time of W, m)
    and N = `choose_N`."""
    c = math.log(co.sup_norm + eps) + 1e-9
    W, m = choose_steering_window(co, eps)
    m1 = max(covering_time(co.base, W), m)  # the early-exit chain needs m <= m1
    return c, W, m, m1, choose_N(co, eps, c, m1)


# -- steering window -------------------------------------------------------------------


def _direction_grid(k: int) -> tuple[np.ndarray, np.ndarray]:
    ang = (np.arange(k) + 0.5) * math.pi / k
    return np.cos(ang), np.sin(ang)


def _window_sweep_ok(co: Cocycle, anchors: np.ndarray, eps: float, m: int, k: int) -> np.ndarray:
    """Per anchor: all k*k direction pairs steer within tolerance at length m.

    One _steer_batch call over the generator entries of each anchor, with w
    of shape (k, 1, 1) and v of shape (1, k, 1): the lanes are (w, v, anchor),
    the order in which reshape(k*k, A) reads the pairs.  Only the verdict is
    kept, so no block entries are stored.
    """
    cx, sx = _direction_grid(k)
    steering = _steer_batch(co.entries_along(anchors, m), cx[None, :, None], sx[None, :, None],
                            cx[:, None, None], sx[:, None, None], eps)
    dist, err = deque(steering, maxlen=1)[0]
    return ((err <= ANGLE_TOL) & (dist < eps)).reshape(k * k, anchors.size).all(axis=0)


def _coarse_to_fine(n: int) -> list[int]:
    """range(n) in bit-reversed index order (0, n/2, n/4, 3n/4, ... for a
    power of two), so that every prefix is spread over the whole range."""
    bits = (n - 1).bit_length()
    order = (int(format(i, f"0{bits}b")[::-1], 2) for i in range(1 << bits))
    return [i for i in order if i < n]


def _sweep(co: Cocycle, points: np.ndarray, eps: float, m: int, k: int, seen: dict,
           stop: bool) -> bool:
    """Whether every point steers at (m, k), with the verdicts cached in seen.

    Without stop every point not yet in seen is swept, in order, in groups
    of _SWEEP_LANES // (k*k) anchors (at least one), each group one
    _window_sweep_ok call on the calling thread, and every verdict swept
    goes into seen.  With stop, a known failing point returns False at
    once, and the first group that holds a failing point returns False: the
    rest is never swept.  When more than _PROBE points are unswept, they go
    in coarse-to-fine (bit-reversed index) order, and the first group is the
    first _PROBE of them, spread over the set: a probe.  Failing points come
    in contiguous runs, so the probe rejects most failing sets.  A verdict
    is per anchor, so neither the order nor the group size moves one.
    """
    pts = points.tolist()
    if stop and not all(seen.get(p, True) for p in pts):
        return False
    new = [p for p in dict.fromkeys(pts) if p not in seen]
    size = max(1, _SWEEP_LANES // (k * k))
    cuts = list(range(0, len(new), size))
    if stop and len(new) > _PROBE:
        new = [new[i] for i in _coarse_to_fine(len(new))]
        cuts = [0, *range(_PROBE, len(new), size)]
    for lo, hi in zip(cuts, cuts[1:] + [len(new)]):
        group = new[lo:hi]
        ok = _window_sweep_ok(co, np.array(group), eps, m, k)
        seen.update(zip(group, ok.tolist()))
        if stop and not ok.all():
            return False
    return all(seen[p] for p in pts)


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
    on the window size: it runs once per m, over all centers.  A sweep's
    verdict is per point, so every point is swept at most once per
    (m, direction grid), however many windows share it.  A sweep of A points
    over a k x k grid is _steer_batch calls over groups of points: the
    generator, the operator norms and the rotation caps are evaluated once
    per point, the pullback targets once per (w, point), and only the
    steering recurrence once per (w, v, point) lane, each with the bits it
    has over k*k tiled copies.

    A window's inside points need only one failing point to fail, so their
    sweeps (8x8 in full, then 32x32) stop early (_sweep).  A sweep of more
    than 16 points first probes 16 of them, spread over the set in
    bit-reversed index order, in one call, and a failing probe ends the
    check.  Failing points come in contiguous runs: on the plans input
    (Schrodinger 1.2, grid 2048, eps 0.18) failing windows fail on runs of
    4 to 86 of their 103 to 167 inside points, so the probe rejects nearly
    every failing window.  The rest go in the same order, one group of
    about 2^14 lanes (_SWEEP_LANES // (k*k) points) at a time, and the first
    group that holds a failing point ends the check.  A group of 2^14 lanes
    keeps a 32x32 sweep's arrays at 128 KiB each; at 2^11 lanes the
    per-call overhead eats the saving.  The center sweep needs every
    verdict and runs the same groups, in input order, to the end.  Every lane of
    _steer_batch is elementwise, so a point's verdict, and with it (W, m),
    does not depend on the order, the group size or how far a sweep ran.
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
    verdicts: dict = {}  # (m, k) -> {point: sweep verdict}; a verdict is per anchor

    narrowest = Fraction(1)
    for halvings in itertools.count():
        halves = {m: h / (1 << halvings) for m, h in full_half.items()
                  if h / (1 << halvings) > spacing}
        if not halves:
            break
        narrowest = min(narrowest, *halves.values())
        for m, half in halves.items():
            seen = verdicts.setdefault((m, 8), {})
            _sweep(co, center_floats, eps, m, 8, seen, stop=False)
            for c, cf in zip(centers, center_floats.tolist()):
                lo, hi = c - half, c + half
                if not seen[cf] or lo < 0 or hi > 1:
                    continue
                if not (m == 1 or hi - lo <= min_orbit_gap(alpha, m)):
                    continue
                # hi - lo = 2 half > 2 spacing, so the window holds at least two
                # grid points and inside is never empty
                inside = xs[(xs >= float(lo)) & (xs < float(hi))]
                if inside.size > 256:
                    inside = inside[:: inside.size // 256 + 1]
                if all(_sweep(co, inside, eps, m, k, verdicts.setdefault((m, k), {}), stop=True)
                       for k in (8, 32)):
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
    plans: list[SegmentPlan] = []
    for lo in range(0, anchors.size, _LANE_CHUNK):
        hi = lo + _LANE_CHUNK
        plans += _plan_chunk(co, points[lo:hi], anchors[lo:hi], eps, N, W, m1, m)
    return plans


def _plan_chunk(co, points, anchors, eps, N, W, m1, m) -> list[SegmentPlan]:
    L = anchors.size
    # one generator evaluation, shared by the scans, the masked products, the
    # steering blocks and the certification
    pos = co.base.orbit_floats(anchors, N)
    ents = tuple(np.asarray(e, dtype=float) for e in co.generator.entries(pos))
    # only the full product's log is read from the profile, so the
    # whole-chunk profile arrays are dropped before the window lookup
    pre, _, j0 = _balance(ents, perturbation_constant(co, eps))
    full_log = pre[:, N].copy()
    del pre, _
    if (j0 < 0).any():
        bad = int(np.argmax(j0 < 0))
        raise NoBalancedIndex(f"anchor {anchors[bad]}: no balanced index (C too small?)")

    # j1: the first step in [j0, j0 + m1] that lands in W; nothing to prove
    # where the unperturbed product already meets the bound
    trivially_small = full_log < 0.999 * eps * N
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
        # each block is steered from the plan's own slots j1 .. j1 + m - 1
        rows, cols = steered_lanes[:, None], j1[steered_lanes][:, None] + np.arange(m)
        *steps, (_, err) = _steer_batch(tuple(e[rows, cols] for e in ents),
                                        vx_, vy_, szx, szy, eps)
        block_ents = np.array(steps).transpose(2, 0, 1).tolist()  # (lane, step, entry)
        bad = err > ANGLE_TOL
        if bad.any():
            k = int(np.argmax(bad))
            raise SteeringFailed(
                f"anchor {anchors[steered_lanes[k]]}: steering error {err[k]:.2e} at m={m}"
            )
        for i, lane in enumerate(steered_lanes):
            blocks[lane] = SteeringBlock(length=m, matrices=[Mat2(*step) for step in block_ents[i]],
                                         budget=eps, achieved_error=float(err[i]))

    # certify all lanes with one batched scan over the actual L matrices
    prod_logs, max_dists = _certify_chunk(ents, j1, m, early, blocks)
    plans = []
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
        plans.append(SegmentPlan(x=points[lane], N=N, eps=eps, branch=branch,
                                 product_log_norm=pl, max_distance=md, _cocycle=co))
    return plans


def _masked_products(ents, N, j1, m, lanes):
    """Mantissa entries of X (prefix to j1) and Z (suffix from j1+m) per lane.

    One sl2.scan_lanes scan each over the given lanes of the chunk's entry
    arrays, with the steps outside the range set to the identity group by
    group as the scan fetches them.
    """
    j1s = j1[lanes][:, None]

    def scan(lo, hi, active):
        # identity steps leave a product bitwise unchanged, so columns that
        # are inactive in every lane are dropped
        def fetch(s, k):
            on = active(np.arange(lo + s, lo + s + k))
            return [np.where(on, e[lanes, lo + s:lo + s + k], one)
                    for e, one in zip(ents, (1.0, 0.0, 0.0, 1.0))]
        return scan_lanes(fetch, lanes.size, hi - lo)[0][:4]

    X = scan(0, int(j1s.max()), lambda j: j < j1s)
    Z = scan(int(j1s.min()) + m, N, lambda j: j >= j1s + m)
    return X, Z


def _certify_chunk(ents, j1, m, early, blocks):
    """Recompute max_j ||L_j - A(f^j x)|| and log ||L_{N-1}...L_0|| per lane
    from the chunk's generator entries, which are left unchanged: the scan
    copies each group of steps that holds steered slots and overlays them."""
    L, N = ents[0].shape
    max_dist = np.zeros(L)
    lanes = np.flatnonzero(~early)
    mats = np.array([[M.entries() for M in blocks[lane].matrices] for lane in lanes])
    mats = mats.reshape(lanes.size, m, 4)
    rows, cols = np.broadcast_arrays(lanes[:, None], j1[lanes][:, None] + np.arange(m))
    diffs = (mats[:, :, k] - e[rows, cols] for k, e in enumerate(ents))
    max_dist[lanes] = general_operator_norm(*diffs).max(axis=1)

    def fetch(s, k):
        group = [e[:, s:s + k] for e in ents]
        at = (cols >= s) & (cols < s + k)
        if at.any():
            group = [np.array(g) for g in group]
            for g, v in zip(group, mats[at].T):
                g[rows[at], cols[at] - s] = v
        return group

    return log_norm(*scan_lanes(fetch, L, N)[0]), max_dist


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
    """Independent recomputation of both plan bounds from the raw matrices.

    The orbit and the generator are evaluated once; the plan's matrices are
    their entries with the steered block overlaid, as plan_entries gives them.
    """
    pos = co.orbit(plan.x, plan.N)
    gen = tuple(np.asarray(g, dtype=float) for g in co.generator.entries(pos))
    ents = _overlay_block(gen, plan)
    dist = float(general_operator_norm(*(e - g for e, g in zip(ents, gen))).max())
    return SegmentReport(max_distance=dist, product_log_norm=float(log_norm(*scan_product(*ents))),
                         eps=plan.eps, N=plan.N)
