import itertools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocyclelab import _parallel
from cocyclelab import basedyn as bd
from cocyclelab import cocycle as cy
from cocyclelab import perturb as pb
from cocyclelab.errors import BudgetExhausted, CocycleLabError, NoBalancedIndex, SearchFailed
from cocyclelab.exact import QuadExt, min_orbit_gap
from cocyclelab.sl2 import Mat2, general_operator_norm, log_norm, scan_product


def golden(grid=1024):
    return bd.CircleRotation.golden(grid_size=grid)


def identity_cocycle():
    return cy.Cocycle(golden(), cy.ConstantGenerator(Mat2.identity()))


def weak_schrodinger(grid=2048, lam=1.2):
    return cy.Cocycle(golden(grid), cy.SchrodingerGenerator(0.0, lam))


def translates_disjoint(rot, W, m):
    """Oracle: W, f(W), ..., f^{m-1}(W) pairwise disjoint, by translating and sorting."""
    pieces = [iv for j in range(m) for iv in rot.translate_cell(W, j).intervals]
    return bd.first_overlap(pieces)[1] is None


def block_distances(co, x, blk):
    if not blk.matrices:
        return 0.0
    pos = co.orbit(x, blk.length)
    ga, gb, gc, gd = co.generator.entries(pos)
    return max(general_operator_norm(M.a - ga[j], M.b - gb[j], M.c - gc[j], M.d - gd[j])
               for j, M in enumerate(blk.matrices))


@dataclass
class BalanceProfile:
    x: bd.BasePoint
    N: int
    log_deltas: np.ndarray  # log Delta_j, j = 0..N
    j0: int
    C: float


def balance_profile(co, x, N, C):
    """Delta_j = ||A_j(x)|| / ||A_{N-j}(f^j x)|| with the smallest balanced
    index, from the planner's own pb._balance."""
    if N < 1:
        raise CocycleLabError("N >= 1 required")
    if C <= co.sup_norm:
        raise NoBalancedIndex(f"C = {C} below sup norm {co.sup_norm}")
    x0 = co.base.float_coords(x)[0]
    _, log_d, j0 = pb._balance(co.entries_along(np.array([x0]), N), C)
    if j0[0] < 0:
        raise NoBalancedIndex("no index with C^-1 < Delta_j < C; C below precondition?")
    return BalanceProfile(x=x, N=N, log_deltas=log_d[0], j0=int(j0[0]), C=C)


def block_image(blk, v):
    d = np.array(v, dtype=float)
    for M in blk.matrices:
        d = M.to_array() @ d
        d = d / np.hypot(*d)
    return d


class TestSteerDirection:
    def test_collinear_is_empty(self):
        co = identity_cocycle()
        blk = pb.steer_direction(co, co.base.point(0.2), (1, 0), (-2, 0), 0.1, 10)
        assert blk.length == 0 and blk.achieved_error == 0.0

    def test_identity_quarter_turn_m(self):
        co = identity_cocycle()
        phimax = 2 * math.asin(0.1)
        want_m = math.ceil((math.pi / 2) / phimax)
        blk = pb.steer_direction(co, co.base.point(0.3), (1, 0), (0, 1), 0.2, 40)
        assert blk.length == want_m
        assert blk.achieved_error <= 1e-6
        assert block_distances(co, co.base.point(0.3), blk) < 0.2
        d = block_image(blk, (1.0, 0.0))
        assert abs(d[0]) < 1e-9  # collinear with (0, 1)

    def test_budget_exhausted(self):
        co = identity_cocycle()
        with pytest.raises(BudgetExhausted):
            pb.steer_direction(co, co.base.point(0.3), (1, 0), (0, 1), 0.05, 3)

    def test_block_invariants_random(self):
        rng = np.random.default_rng(4)
        co = weak_schrodinger()
        for _ in range(30):
            a1, a2 = rng.uniform(0, math.pi, 2)
            x = co.base.point(float(rng.uniform()))
            blk = pb.steer_direction(co, x, (math.cos(a1), math.sin(a1)),
                                     (math.cos(a2), math.sin(a2)), 0.3, 48)
            assert block_distances(co, x, blk) < 0.3
            d = block_image(blk, (math.cos(a1), math.sin(a1)))
            cross = abs(d[0] * math.sin(a2) - d[1] * math.cos(a2))
            assert math.asin(min(1.0, cross)) <= 1e-6

    def test_contracting_start_cheaper_than_expanding(self):
        # a direction near the local contracting axis has short images, so
        # perturbations swing it cheaply; starting near the expanding axis the
        # dynamics pins it and steering needs more steps
        rng = np.random.default_rng(6)
        co = cy.Cocycle(golden(512), cy.SchrodingerGenerator(0.0, 3.0))
        cheaper = 0
        total = 0
        for _ in range(100):
            x = co.base.point(float(rng.uniform()))
            probe = cy.iterate(co, x, 10)
            from cocyclelab.sl2 import operator_norm
            from sl2_axes import singular_axes

            if operator_norm(probe) < 1.5:
                continue
            ax = singular_axes(probe)
            w = (math.cos(1.0), math.sin(1.0))

            def min_m(v):
                try:
                    return pb.steer_direction(co, x, v, w, 0.35, 28).length
                except BudgetExhausted:
                    return 99

            total += 1
            if min_m(ax.s) <= min_m(ax.u):
                cheaper += 1
        assert total > 50
        assert cheaper >= 0.9 * total


def reference_steer_batch(co, anchors, vx, vy, wx, wy, eps, m):
    """The kernel over tiled lanes, one anchor, v and w per lane, as it was
    before the per-anchor work was hoisted: the bitwise reference."""
    L = np.size(anchors)
    ea, eb, ec, ed = co.entries_along(anchors, m)
    tx = np.empty((L, m + 1))
    ty = np.empty((L, m + 1))
    tx[:, m], ty[:, m] = wx, wy
    for j in range(m - 1, -1, -1):
        nx = ed[:, j] * tx[:, j + 1] - eb[:, j] * ty[:, j + 1]
        ny = -ec[:, j] * tx[:, j + 1] + ea[:, j] * ty[:, j + 1]
        nrm = np.hypot(nx, ny)
        tx[:, j], ty[:, j] = nx / nrm, ny / nrm

    out = np.empty((L, m, 4))
    dx, dy = np.array(vx, dtype=float), np.array(vy, dtype=float)
    done = np.zeros(L, dtype=bool)
    max_dist = np.zeros(L)
    cap_scale = eps * (1.0 - 1e-9)
    for j in range(m):
        a, b, c, d = ea[:, j], eb[:, j], ec[:, j], ed[:, j]
        mdx = a * dx + b * dy
        mdy = c * dx + d * dy
        t1, t2 = tx[:, j + 1], ty[:, j + 1]
        den = dx * (d * t1 - b * t2) + dy * (-c * t1 + a * t2)
        safe = np.abs(den) > 1e-12
        beta = np.where(safe, 1.0 / np.where(safe, den, 1.0), 0.0)
        ux_ = beta * t1 - mdx
        uy_ = beta * t2 - mdy
        unrm = np.hypot(ux_, uy_)
        correct = (~done) & safe & (unrm < cap_scale)
        anorm = np.maximum(general_operator_norm(a, b, c, d), 1.0)
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


class CountingGenerator(cy.Generator):
    """Wraps a generator and counts the positions it is evaluated at, from any
    number of threads."""

    def __init__(self, inner):
        self.inner = inner
        self.positions = 0
        self._lock = threading.Lock()

    def entries(self, xs):
        with self._lock:
            self.positions += np.size(xs)
        return self.inner.entries(xs)


_STEER_GENERATORS = {
    "schrodinger": cy.SchrodingerGenerator(0.0, 2.0),
    "twisted-table": cy.twisted_table(2.0, 512),
    "hopf": cy.HopfRestrictionGenerator(0.7),
    "rotation": cy.RotationGenerator(0.05, 1.0),
}


def _block_array(blocks):
    """The kernel's per-step (a, b, c, d) lane arrays as (lanes, m, 4)."""
    m = len(blocks)
    return np.array(blocks).reshape(m, 4, -1).transpose(2, 0, 1)


class TestSteerKernel:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(_STEER_GENERATORS)), st.integers(1, 16),
           st.sampled_from([4, 8]), st.floats(0.05, 1.0),
           st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=5))
    def test_sweep_layout_matches_tiled_reference(self, name, m, k, eps, anchors):
        """The window sweep's (w, v, anchor) lanes have the tiled lanes' bits."""
        co = cy.Cocycle(golden(), _STEER_GENERATORS[name])
        anchors = np.array(anchors)
        A = anchors.size
        cx, sx = pb._direction_grid(k)
        *blocks, (dist, err) = pb._steer_batch(co.entries_along(anchors, m),
                                               cx[None, :, None], sx[None, :, None],
                                               cx[:, None, None], sx[:, None, None], eps)
        assert dist.shape == err.shape == (k, k, A) and len(blocks) == m
        want = reference_steer_batch(
            co, np.tile(anchors, k * k), np.repeat(np.tile(cx, k), A),
            np.repeat(np.tile(sx, k), A), np.repeat(np.repeat(cx, k), A),
            np.repeat(np.repeat(sx, k), A), eps, m)
        got = (_block_array(blocks), dist.reshape(-1), err.reshape(-1))
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(_STEER_GENERATORS)), st.integers(1, 16),
           st.floats(0.05, 1.0), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_lane_layout_matches_reference(self, name, m, eps, L, seed):
        """One (anchor, v, w) per lane, as plans steer: the reference's bits."""
        co = cy.Cocycle(golden(), _STEER_GENERATORS[name])
        rng = np.random.default_rng(seed)
        anchors = rng.uniform(0, 1, L)
        va, wa = rng.uniform(0, math.pi, (2, L))
        vx, vy, wx, wy = np.cos(va), np.sin(va), np.cos(wa), np.sin(wa)
        *blocks, (dist, err) = pb._steer_batch(co.entries_along(anchors, m), vx, vy, wx, wy, eps)
        want = reference_steer_batch(co, anchors, vx, vy, wx, wy, eps, m)
        for g, w in zip((_block_array(blocks), dist, err), want):
            assert np.array_equal(g, w)

    def test_sweep_evaluates_generator_once_per_anchor(self):
        gen = CountingGenerator(cy.SchrodingerGenerator(0.0, 1.2))
        co = cy.Cocycle(golden(), gen)
        anchors, m, k = np.linspace(0.05, 0.95, 10), 12, 8
        pb._window_sweep_ok(co, anchors, 0.3, m, k)
        assert gen.positions == anchors.size * m  # not k * k * anchors.size * m

    def test_steer_direction_matches_per_length_evaluation(self):
        # the generator runs once at m_max; each trial length m reads its
        # first m columns, which are the entries a length-m evaluation gives
        co = cy.Cocycle(golden(), cy.twisted_table(2.0, 512))
        x, v, w, eps = co.base.point(0.3141), (1.0, 0.2), (-0.3, 1.0), 0.2
        blk = pb.steer_direction(co, x, v, w, eps, 64)
        nv, nw = math.hypot(*v), math.hypot(*w)
        x0 = np.array([co.base.float_coords(x)[0]])
        ref, _, err = reference_steer_batch(
            co, x0, np.array([v[0] / nv]), np.array([v[1] / nv]),
            np.array([w[0] / nw]), np.array([w[1] / nw]), eps, blk.length)
        assert blk.achieved_error == float(err[0])
        assert [M.entries() for M in blk.matrices] == [tuple(r) for r in ref[0].tolist()]


class TestBalanceProfile:
    def test_constant_diag_closed_form(self):
        co = cy.Cocycle(golden(), cy.ConstantGenerator(Mat2(2, 0, 0, 0.5)))
        prof = balance_profile(co, co.base.point(0.2), 10,
                                  pb.perturbation_constant(co, 0.1))
        want = np.log(4.0) * (np.arange(11) - 5)
        assert np.max(np.abs(prof.log_deltas - want)) < 1e-9
        assert prof.j0 == 5

    def test_rotation_trivial(self):
        co = cy.Cocycle(golden(), cy.RotationGenerator(0.07, 0.0))
        prof = balance_profile(co, co.base.point(0.4), 12,
                                  pb.perturbation_constant(co, 0.1))
        assert np.max(np.abs(prof.log_deltas)) < 1e-7
        assert prof.j0 == 0

    def test_endpoint_product_random_anchors(self):
        rng = np.random.default_rng(9)
        co = weak_schrodinger()
        C = pb.perturbation_constant(co, 0.2)
        logC = math.log(C)
        for _ in range(100):
            prof = balance_profile(co, co.base.point(float(rng.uniform())), 40, C)
            # Delta_N * Delta_0 = 1
            assert abs(prof.log_deltas[0] + prof.log_deltas[-1]) < 1e-8 * max(
                1.0, abs(prof.log_deltas[-1]))
            # ratio bounds and the balanced index window
            steps = np.diff(prof.log_deltas)
            assert np.all(np.abs(steps) < 2 * logC)
            assert abs(prof.log_deltas[prof.j0]) < logC
            # smallest such index
            assert not np.any(np.abs(prof.log_deltas[:prof.j0]) < logC)

    def test_bad_constant_raises(self):
        co = cy.Cocycle(golden(), cy.ConstantGenerator(Mat2(2, 0, 0, 0.5)))
        with pytest.raises(NoBalancedIndex):
            balance_profile(co, co.base.point(0.1), 10, 1.5)


class TestChooseN:
    def test_formula_example(self):
        co = cy.Cocycle(golden(), cy.ConstantGenerator(Mat2(3.0, 0, 0, 1 / 3.0)))
        c = math.log(3.1) + 1e-9
        N = pb.choose_N(co, 0.1, c, 5)
        C = 0.1 + 3.0 + 1e-9
        want = math.ceil(max(((4 * 5 + 1) * math.log(C) + 0.5 * math.log(2)) / 0.1,
                             c / 0.1))
        assert N == want
        assert (4 * 5 + 1) * math.log(C) < 0.1 * N - 0.5 * math.log(2)
        assert 0.1 * N > c

    def test_monotone_in_m1(self):
        co = cy.Cocycle(golden(), cy.ConstantGenerator(Mat2(2, 0, 0, 0.5)))
        c = math.log(2.2)
        Ns = [pb.choose_N(co, 0.1, c, m1) for m1 in (1, 3, 5, 10, 30)]
        assert Ns == sorted(Ns)


def reference_choose_steering_window(co, eps):
    """The window search as it was before its sweeps were grouped: every
    not-yet-seen point of a sweep in one _window_sweep_ok call, swept to the
    end.  The reference for (W, m) and the SearchFailed message."""
    if eps <= 0:
        raise CocycleLabError("eps must be positive")
    rot = co.base
    alpha = rot.alpha
    m_cap = 10 * math.ceil(1.0 / eps)
    xs = rot.grid_floats()
    probe = cy.log_norms_batch(co, xs, 16)
    order = np.argsort(probe, kind="stable")
    centers = [float(xs[i]) for i in order[: pb._WINDOW_CANDIDATES // 2]]
    centers += [float(xs[int(i)]) for i in
                np.linspace(0, xs.size - 1, pb._WINDOW_CANDIDATES - len(centers)).astype(int)]
    centers = list(dict.fromkeys(Fraction(c).limit_denominator(1 << 24) for c in centers))
    center_floats = np.array([float(c) for c in centers])
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
    verdicts: dict = {}

    def sweep_ok(points, m, k):
        seen = verdicts.setdefault((m, k), {})
        new = [p for p in dict.fromkeys(points.tolist()) if p not in seen]
        if new:
            seen.update(zip(new, pb._window_sweep_ok(co, np.array(new), eps, m, k).tolist()))
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
                    return bd.Cell.from_union([(rot.lift(lo), rot.lift(hi))]), m
    if halvings:
        sizes = (f"half-widths {float(max(full_half.values())):.3g} down to {float(narrowest):.3g} "
                 f"(full size and {halvings - 1} halvings, floor grid spacing 1/{rot.grid_size})")
    else:
        sizes = f"no window size above grid spacing 1/{rot.grid_size}"
    raise SearchFailed(f"no certified window after scanning {pb._WINDOW_CANDIDATES} candidates, "
                       f"m <= {m_cap}, {sizes}")


# window-search inputs; the last finds no window, at any size, and sweeps
# window insides before it fails
_SEARCH_INPUTS = {
    "identity": (identity_cocycle, 0.2),
    "schrodinger-1.2": (weak_schrodinger, 0.3),
    "twisted-1.2": (lambda: cy.Cocycle(golden(1024), cy.twisted_table(1.2, 1024)), 0.5),
    "no-window": (lambda: weak_schrodinger(128, 3.0), 0.1),
}


def search_result(search, co, eps):
    """(exact W intervals, m), or the SearchFailed message."""
    try:
        W, m = search(co, eps)
    except SearchFailed as e:
        return str(e)
    return W.intervals, m


@pytest.fixture(scope="module")
def reference_windows():
    """Reference search results by input name, filled on first use."""
    return {}


class TestChooseWindow:
    def test_identity_small_m(self):
        co = identity_cocycle()
        W, m = pb.choose_steering_window(co, 0.2)
        phimax = 2 * math.asin(0.2 / 2)
        assert m <= math.ceil(math.pi / phimax)
        assert all(isinstance(p, QuadExt) for iv in W.intervals for p in iv)
        # iterates disjoint, exactly
        assert translates_disjoint(co.base, W, m)

    def test_weak_schrodinger_window(self):
        co = weak_schrodinger()
        W, m = pb.choose_steering_window(co, 0.3)
        assert translates_disjoint(co.base, W, m)
        assert m <= 10 * math.ceil(1 / 0.3)
        # full sweep at the returned window really passes
        xs = co.base.grid_floats()
        lo, hi = W.float_breaks()
        inside = xs[(xs >= lo[0]) & (xs < hi[0])]
        assert pb._window_sweep_ok(co, inside[:64], 0.3, m, 32).all()

    def test_strong_schrodinger_window_below_full_size(self):
        # at coupling 3 and eps 0.1 no full-size window steers throughout
        # (about a quarter of its grid points do), but a smaller
        # neighbourhood of a steerable center does
        co = weak_schrodinger(lam=3.0)
        W, m = pb.choose_steering_window(co, 0.1)
        assert translates_disjoint(co.base, W, m)
        assert m <= 10 * math.ceil(1 / 0.1)
        xs = co.base.grid_floats()
        lo, hi = W.float_breaks()
        inside = xs[(xs > lo[0]) & (xs < hi[0])]
        assert inside.size > 0
        assert pb._window_sweep_ok(co, inside, 0.1, m, 32).all()

    def test_batched_sweep_equals_single_sweeps(self):
        # the centre sweep runs all centres in one batch; each anchor's verdict
        # is the one its own single-anchor sweep gives
        co = weak_schrodinger(lam=3.0)
        anchors = np.linspace(0.0, 1.0, 24, endpoint=False) + 0.013
        for m in (8, 16):
            batch = pb._window_sweep_ok(co, anchors, 0.1, m, 8)
            single = [bool(pb._window_sweep_ok(co, anchors[i:i + 1], 0.1, m, 8)[0])
                      for i in range(anchors.size)]
            assert batch.shape == anchors.shape and batch.tolist() == single
            assert 0 < sum(single) < anchors.size  # both verdicts occur

    @pytest.mark.parametrize("one_anchor", [False, True], ids=["groups", "one-anchor"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(_SEARCH_INPUTS))
    def test_search_equals_reference(self, monkeypatch, reference_windows, name, workers,
                                     one_anchor):
        """Grouped, early-exiting sweeps give the reference's (W, m), or its
        SearchFailed message, at any worker count and group size."""
        make, eps = _SEARCH_INPUTS[name]
        if name not in reference_windows:
            reference_windows[name] = search_result(reference_choose_steering_window, make(), eps)
        want = reference_windows[name]
        assert isinstance(want, str) == (name == "no-window")
        monkeypatch.setattr(_parallel, "cpu_workers", lambda: workers)
        if one_anchor:
            monkeypatch.setattr(pb, "_SWEEP_LANES", 1)
        assert search_result(pb.choose_steering_window, make(), eps) == want

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_stops_after_first_failing_wave(self, monkeypatch, workers):
        co = weak_schrodinger(lam=3.0)
        anchors = np.linspace(0.0, 1.0, 24, endpoint=False) + 0.013
        ok = pb._window_sweep_ok(co, anchors, 0.1, 8, 8)
        pts = np.concatenate([anchors[~ok][:1], anchors[ok]])  # only the first fails
        want = [(p, i > 0) for i, p in enumerate(pts.tolist())]
        monkeypatch.setattr(pb, "_SWEEP_LANES", 1)  # one anchor per group
        monkeypatch.setattr(_parallel, "cpu_workers", lambda: workers)
        seen: dict = {}
        assert not pb._sweep(co, pts, 0.1, 8, 8, seen, stop=True)
        assert list(seen.items()) == want[:workers]  # the first wave, in order
        assert not pb._sweep(co, pts, 0.1, 8, 8, seen, stop=True)  # a known failure
        assert len(seen) == workers
        # without stop every point is swept, in order
        seen = {}
        assert not pb._sweep(co, pts, 0.1, 8, 8, seen, stop=False)
        assert list(seen.items()) == want
        seen = {}
        assert pb._sweep(co, pts[1:], 0.1, 8, 8, seen, stop=True)
        assert list(seen.items()) == want[1:]

    def test_early_exit_evaluates_fewer_positions(self):
        """On the plans input the search evaluates the generator at fewer
        positions than the reference, which sweeps every window's inside
        points to the end."""
        results, positions = [], []
        for search in (reference_choose_steering_window, pb.choose_steering_window):
            gen = CountingGenerator(cy.SchrodingerGenerator(0.0, 1.2))
            results.append(search_result(search, cy.Cocycle(golden(2048), gen), 0.18))
            positions.append(gen.positions)
        assert results[0] == results[1]
        assert positions[1] < positions[0]


_ANGLES = st.sampled_from([bd.CircleRotation.golden(grid_size=64),
                           bd.CircleRotation.silver(grid_size=64),
                           bd.CircleRotation(0.7320508075688772, grid_size=64)])


class TestWindowDisjointness:
    @settings(max_examples=150, deadline=None)
    @given(_ANGLES, st.integers(2, 64), st.fractions(0, 1, max_denominator=10**6),
           st.sampled_from([Fraction(0), Fraction(1, 10**12), Fraction(-1, 10**12),
                            Fraction(1, 3), Fraction(-1, 3)]))
    def test_gap_comparison_matches_translates(self, rot, m, t, rel):
        """The m translates of one interval are disjoint exactly when its width
        is at most the least gap of m orbit points, the comparison that
        choose_steering_window makes."""
        gap = min_orbit_gap(rot.alpha, m)
        width = gap * (1 + rel)  # rel = 0: exactly the gap
        lo = rot.lift(t) * (1 - width)
        W = bd.Cell.from_union([(lo, lo + width)])
        assert (width <= gap) == translates_disjoint(rot, W, m)


class TestPlans:
    def test_rotation_early_exit(self):
        co = cy.Cocycle(golden(), cy.RotationGenerator(0.11, 0.0))
        W = bd.Cell.from_union([(QuadExt(0, 0, 5), QuadExt(Fraction(1, 20), 0, 5))])
        plan = pb.plan_segment(co, co.base.point(0.37), 0.1, 60, W, 30, 4)
        assert isinstance(plan.branch, pb.EarlyExit)
        assert plan.max_distance == 0.0
        assert plan.product_log_norm < 0.1 * 60
        rep = pb.verify_segment(co, plan)
        assert rep.passes and rep.max_distance == 0.0

    def test_weak_schrodinger_certified_plans(self):
        co = weak_schrodinger()
        eps = 0.18
        W, m = pb.choose_steering_window(co, eps)
        m1 = max(bd.covering_time(co.base, W), m)
        c = math.log(co.sup_norm + eps) + 1e-9
        N = pb.choose_N(co, eps, c, m1)
        rng = np.random.default_rng(41)
        pts = [co.base.point(float(u)) for u in rng.uniform(0, 1, size=120)]
        plans = pb.plan_segments(co, pts, eps, N, W, m1, m)
        branches = {type(p.branch).__name__ for p in plans}
        assert "Steered" in branches  # the steering machinery is exercised
        for p in plans:
            rep = pb.verify_segment(co, p)
            assert rep.passes
            assert rep.max_distance < eps
            assert rep.product_log_norm < eps * N
            if isinstance(p.branch, pb.Steered):
                # unsteered slots equal the generator exactly
                ents = pb.plan_entries(co, p)
                pos = co.orbit(p.x, N)
                ga, gb, gc, gd = co.generator.entries(pos)
                j1, mm = p.branch.j1, p.branch.block.length
                outside = np.ones(N, dtype=bool)
                outside[j1:j1 + mm] = False
                assert np.array_equal(ents[0][outside], np.asarray(ga)[outside])
        # j1 is the first step in [j0, j0 + m1] whose position lies in W
        for p in [p for p in plans if isinstance(p.branch, pb.Steered)][:10]:
            j0 = balance_profile(co, p.x, N, pb.perturbation_constant(co, eps)).j0
            pos = co.orbit(p.x, N)
            in_w = [j for j in range(j0, min(j0 + m1, N - 1) + 1)
                    if W.contains_floats(pos[j:j + 1])[0]]
            assert p.branch.j1 == in_w[0]

    def test_verify_evaluates_each_position_once(self):
        gen = CountingGenerator(cy.SchrodingerGenerator(0.0, 1.2))
        co = cy.Cocycle(golden(2048), gen)
        W = bd.Cell.from_union([(0.36, 0.41)])
        pts = [co.base.point(float(u)) for u in np.random.default_rng(5).uniform(0, 1, 20)]
        plans = pb.plan_segments(co, pts, 0.18, 100, W, 40, 12)
        assert {type(p.branch) for p in plans} == {pb.EarlyExit, pb.Steered}
        for plan in plans:
            before = gen.positions
            rep = pb.verify_segment(co, plan)
            assert gen.positions - before == plan.N
            ents = pb.plan_entries(co, plan)
            assert rep.product_log_norm == float(log_norm(*scan_product(*ents)))

    def test_plans_evaluate_each_position_once(self):
        """plan_segments evaluates the generator at N positions per anchor: the
        steering blocks read the plan's own slots, not a second evaluation."""
        gen = CountingGenerator(cy.SchrodingerGenerator(0.0, 1.2))
        co = cy.Cocycle(golden(2048), gen)
        W = bd.Cell.from_union([(0.36, 0.41)])
        pts = [co.base.point(float(u)) for u in np.random.default_rng(5).uniform(0, 1, 300)]
        plans = pb.plan_segments(co, pts, 0.18, 100, W, 40, 12)
        assert {type(p.branch) for p in plans} == {pb.EarlyExit, pb.Steered}
        # the one sup-norm sweep over the grid, then N positions per anchor
        assert gen.positions == co.base.grid_size + len(pts) * 100

    def test_blocks_steered_from_the_plan_slots(self, monkeypatch):
        """Each steered plan's block is steered from the generator entries at
        its own slots j1 .. j1 + m - 1, bitwise, and is the kernel's output."""
        co = weak_schrodinger()
        W = bd.Cell.from_union([(0.36, 0.41)])
        calls = []
        steer = pb._steer_batch

        def spy(ents, *args):
            calls.append(([np.array(e) for e in ents], args))
            return steer(ents, *args)

        monkeypatch.setattr(pb, "_steer_batch", spy)
        pts = [co.base.point(float(u)) for u in np.random.default_rng(7).uniform(0, 1, 300)]
        N, m = 100, 12
        plans = pb.plan_segments(co, pts, 0.18, N, W, 40, m)
        steered = [p for p in plans if isinstance(p.branch, pb.Steered)]
        rows = [(ents, args, i) for ents, args in calls for i in range(ents[0].shape[0])]
        assert len(calls) == 2 and len(rows) == len(steered) > 0  # one call per lane chunk
        for p, (ents, args, i) in zip(steered, rows):
            j1 = p.branch.j1
            gen = co.generator.entries(co.orbit(p.x, N))
            for e, g in zip(ents, gen):
                assert np.array_equal(e[i], np.asarray(g, dtype=float)[j1:j1 + m])
            lane = tuple(e[i:i + 1] for e in ents)
            *steps, _ = steer(lane, *(np.asarray(a)[i:i + 1] for a in args[:4]), args[4])
            assert [M.entries() for M in p.branch.block.matrices] == \
                [tuple(float(v[0]) for v in step) for step in steps]

    def test_injected_violation_fails_verification(self):
        co = weak_schrodinger()
        W, m = bd.Cell.from_union([(0.4, 0.45)]), 6
        plan = pb.plan_segment(co, co.base.point(0.9), 0.3, 50, W, 25, m)
        rep = pb.verify_segment(co, plan)
        assert rep.passes
        # tamper: multiply one slot by diag(3, 1/3)
        tampered = pb.SegmentPlan(
            x=plan.x, N=plan.N, eps=plan.eps,
            branch=pb.Steered(j1=10, block=pb.SteeringBlock(
                length=1,
                matrices=[Mat2(*(cy.iterate(co, co.base.step(plan.x, 10), 1)
                                 @ Mat2(3.0, 0, 0, 1 / 3.0)).entries())],
                budget=plan.eps, achieved_error=0.0)),
            product_log_norm=plan.product_log_norm, max_distance=plan.max_distance,
            _cocycle=co)
        rep2 = pb.verify_segment(co, tampered)
        assert rep2.max_distance > plan.eps

    def test_orthogonal_frame_bound_chain(self):
        # max(||M u||, ||M s||) < T / sqrt(2) over an orthonormal frame
        # forces ||M|| < T: the final step of the segment-norm argument
        rng = np.random.default_rng(31)
        for _ in range(200):
            t1, t2, t = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi), \
                rng.uniform(0, 2.0)
            m = (Mat2(math.cos(t1), -math.sin(t1), math.sin(t1), math.cos(t1))
                 @ Mat2(math.exp(t), 0, 0, math.exp(-t))
                 @ Mat2(math.cos(t2), -math.sin(t2), math.sin(t2), math.cos(t2)))
            ang = rng.uniform(0, math.pi)
            u = (math.cos(ang), math.sin(ang))
            s = (-math.sin(ang), math.cos(ang))
            mu = math.hypot(*m.apply(u))
            ms = math.hypot(*m.apply(s))
            from cocyclelab.sl2 import operator_norm

            assert operator_norm(m) <= math.sqrt(2) * max(mu, ms) + 1e-12

    def test_serialization_roundtrip(self):
        co = weak_schrodinger()
        W, m = bd.Cell.from_union([(0.4, 0.45)]), 6
        plan = pb.plan_segment(co, co.base.point(0.123), 0.3, 40, W, 25, m)
        text = plan.to_text()
        lines = text.strip().splitlines()
        assert lines[0].startswith("# segment")
        assert len(lines) == 1 + plan.N
        ents = pb.plan_entries(co, plan)
        for j, line in enumerate(lines[1:]):
            vals = [float.fromhex(tok) for tok in line.split()]
            assert vals == [float(e[j]) for e in ents]  # bit-exact round trip
