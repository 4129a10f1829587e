import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocyclelab import basedyn as bd
from cocyclelab import cocycle as cy
from cocyclelab import perturb as pb
from cocyclelab.errors import BudgetExhausted, NoBalancedIndex
from cocyclelab.exact import QuadExt, min_orbit_gap
from cocyclelab.sl2 import Mat2, general_operator_norm


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
            from cocyclelab.sl2 import operator_norm, singular_axes

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


class TestBalanceProfile:
    def test_constant_diag_closed_form(self):
        co = cy.Cocycle(golden(), cy.ConstantGenerator(Mat2(2, 0, 0, 0.5)))
        prof = pb.balance_profile(co, co.base.point(0.2), 10,
                                  pb.perturbation_constant(co, 0.1))
        want = np.log(4.0) * (np.arange(11) - 5)
        assert np.max(np.abs(prof.log_deltas - want)) < 1e-9
        assert prof.j0 == 5

    def test_rotation_trivial(self):
        co = cy.Cocycle(golden(), cy.RotationGenerator(0.07, 0.0))
        prof = pb.balance_profile(co, co.base.point(0.4), 12,
                                  pb.perturbation_constant(co, 0.1))
        assert np.max(np.abs(prof.log_deltas)) < 1e-7
        assert prof.j0 == 0

    def test_endpoint_product_random_anchors(self):
        rng = np.random.default_rng(9)
        co = weak_schrodinger()
        C = pb.perturbation_constant(co, 0.2)
        logC = math.log(C)
        for _ in range(100):
            prof = pb.balance_profile(co, co.base.point(float(rng.uniform())), 40, C)
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
            pb.balance_profile(co, co.base.point(0.1), 10, 1.5)


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
            j0 = pb.balance_profile(co, p.x, N, pb.perturbation_constant(co, eps)).j0
            pos = co.orbit(p.x, N)
            in_w = [j for j in range(j0, min(j0 + m1, N - 1) + 1)
                    if W.contains_floats(pos[j:j + 1])[0]]
            assert p.branch.j1 == in_w[0]

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
                anchor=co.base.step(plan.x, 10), length=1,
                matrices=[Mat2(*(cy.iterate(co, co.base.step(plan.x, 10), 1)
                                 @ Mat2(3.0, 0, 0, 1 / 3.0)).entries())],
                budget=plan.eps, achieved_error=0.0, v=(1, 0), w=(1, 0))),
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
