import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocyclelab import basedyn as bd
from cocyclelab import cli
from cocyclelab.errors import CocycleLabError, EmptyCell
from cocyclelab.exact import (GOLDEN_MEAN, QuadExt, best_denominators, convergents,
                              min_orbit_gap)


def golden(grid=1024):
    return bd.CircleRotation.golden(grid_size=grid)


def qe(x) -> QuadExt:
    return QuadExt(Fraction(x).limit_denominator(10**9), 0, 5)


def sturmian(grid):
    """The golden Sturmian shift as the CLI builds it: the rotation by its slope."""
    return cli.build_base({"base": {"variant": "sturmian", "alpha": None, "grid": grid}})


def word(rot, x, length):
    """Coding oracle: x's Sturmian word, its orbit coded against [1 - beta, 1)."""
    pos = rot.orbit_floats(float(rot.scalar(x)), length)
    return "".join(str(b) for b in (pos >= 1.0 - rot.alpha_float).astype(int))


def cylinder(rot, x, depth):
    """Coding oracle: the parameter interval of the points sharing x's depth-`depth`
    word, a clopen set of the shift (hence no boundary)."""
    t, beta = rot.scalar(x), rot.alpha
    breaks = [p for j in range(depth) for p in (bd.mod1(-j * beta), bd.mod1(1 - beta - j * beta))]
    lo, hi = t - t, t - t + 1
    for p in breaks:
        if lo < p <= t:
            lo = p
        if t < p < hi:
            hi = p
    return bd.Cell(bd.norm_union([(lo, hi)]))


class TestStep:
    def test_addition_mod_one(self):
        # 0.3 is rational, so the near-rational minimality diagnostic fires
        with pytest.warns(UserWarning, match="rational"):
            rot = bd.CircleRotation(0.3, grid_size=64)
        x = rot.point(0.9)
        got = rot.float_coords(rot.step(x, 1))[0]
        assert abs(got - 0.2) < 1e-12

    def test_zero_is_identity(self):
        rot = golden()
        x = rot.point(0.37)
        assert rot.step(x, 0) == x

    def test_inverse_exact(self):
        rot = golden()
        x = rot.point(0.12345)
        assert rot.step(rot.step(x, 5), -5) == x

    def test_composition_exact(self):
        rot = golden()
        x = rot.point(0.7)
        assert rot.step(rot.step(x, 7), 11) == rot.step(x, 18)

    def test_grid_permutation(self):
        # one rotation step permutes the uniform grid up to one spacing
        rot = golden(grid=512)
        xs = rot.grid_floats()
        moved = np.sort(np.mod(xs + rot.alpha_float, 1.0))
        assert np.max(np.abs(moved - xs)) <= 1.0 / 512 + 1e-12


class TestOrbitFloats:
    @pytest.mark.parametrize("shape", [(), (3,), (3, 2)])
    @pytest.mark.parametrize("start", [-7, 0, 5])
    def test_matches_scalar_formula_bitwise(self, shape, start):
        rot = golden()
        alpha = rot.alpha_float
        x0 = np.random.default_rng(11).uniform(0, 1, shape)
        got = rot.orbit_floats(x0 if shape else float(x0), 6, start)
        assert got.shape == shape + (6,)
        for idx in np.ndindex(*shape):
            for k in range(6):
                want = np.mod(float(x0[idx]) + float(start + k) * alpha, 1.0)
                assert got[idx + (k,)].tobytes() == np.float64(want).tobytes()

    def test_sturmian_delegates_to_rotation(self):
        st = sturmian(256)
        xs = np.array([[0.1, 0.7], [0.25, 0.999]])
        assert isinstance(st, bd.CircleRotation)
        rot = bd.CircleRotation.golden(grid_size=256)
        assert np.array_equal(st.orbit_floats(xs, 5, -2), rot.orbit_floats(xs, 5, -2))


class TestExactFloatCompare:
    def test_irrational_against_its_float(self):
        f = float(GOLDEN_MEAN)
        # (sqrt 5 - 1)/2 < q  <=>  5 < (2q + 1)^2 for q > 0, in exact rationals
        below = 5 < (2 * Fraction(f) + 1) ** 2
        assert GOLDEN_MEAN != f
        assert (GOLDEN_MEAN < f, GOLDEN_MEAN > f) == (below, not below)
        assert (GOLDEN_MEAN <= f, GOLDEN_MEAN >= f) == (below, not below)

    def test_rationals_compare_exactly_and_hash_alike(self):
        quarter = QuadExt(Fraction(1, 4), 0, 5)
        assert quarter == 0.25 and hash(quarter) == hash(0.25)
        third = QuadExt(Fraction(1, 3), 0, 5)
        assert third != 1 / 3  # the float 1/3 is a dyadic rational below 1/3
        assert third > 1 / 3


# Doubles as angles: each is the dyadic rational it is.
_DOUBLES = st.floats(min_value=2.0**-40, max_value=1.0, exclude_max=True)


class TestContinuedFractions:
    @settings(max_examples=100, deadline=None)
    @given(_DOUBLES)
    def test_last_convergent_is_the_double(self, x):
        p, q = convergents(Fraction(x), 200)[-1]
        assert Fraction(p, q) == x

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=2.0**-8, max_value=1.0, exclude_max=True),
           st.integers(1, 600))
    def test_best_denominators_match_brute_force(self, x, n):
        # below the first denominator q_1 = floor(1/x) the minimum is at q = 1
        alpha = Fraction(x)
        brute = min(abs(q * alpha - round(q * alpha)) for q in range(1, n + 1))
        pairs = best_denominators(alpha, n)
        assert (pairs[-1][1] if pairs else alpha) == brute == min_orbit_gap(alpha, n + 1)


class TestCells:
    def test_union_algebra(self):
        u1 = bd.norm_union([(0.1, 0.4), (0.5, 0.7)])
        u2 = bd.norm_union([(0.3, 0.6)])
        assert bd.inter_union(u1, u2) == ((0.3, 0.4), (0.5, 0.6))
        assert bd.sub_union(u1, u2) == ((0.1, 0.3), (0.6, 0.7))
        assert bd.union_length(u1) == pytest.approx(0.5)

    def test_translate_wraps(self):
        u = bd.translate_union(((0.8, 0.95),), 0.15)
        assert len(u) == 2
        assert u[0][0] == 0.0 and u[0][1] == pytest.approx(0.1)
        assert u[1][0] == pytest.approx(0.95) and u[1][1] == 1.0

    def test_contains_floats(self):
        cell = bd.Cell.from_union([(0.2, 0.3), (0.6, 0.75)])
        xs = np.array([0.1, 0.25, 0.3, 0.7, 0.75, 0.9])
        got = cell.contains_floats(xs)
        assert got.tolist() == [False, True, False, True, False, False]


# Normalised unions (sorted, disjoint, non-touching) from distinct sorted
# points paired off.  Exact points are r + k*golden mod 1 in Q(sqrt 5); float
# points are multiples of 2^-10, so float sums and midpoints are exact too.
_EXACT_POINTS = st.tuples(st.integers(0, 63), st.integers(-6, 6)).map(
    lambda rk: bd.mod1(Fraction(rk[0], 64) + rk[1] * GOLDEN_MEAN))
_FLOAT_POINTS = st.integers(0, 1024).map(lambda k: k / 1024)


def _unions(points, one):
    def pair_off(pts):
        pts = sorted(set(pts))
        return tuple(zip(pts[0::2], pts[1::2]))
    return st.lists(st.one_of(points, st.just(one)), max_size=10).map(pair_off)


_EXACT_UNIONS = _unions(_EXACT_POINTS, QuadExt(1, 0, 5))
_FLOAT_UNIONS = _unions(_FLOAT_POINTS, 1.0)


def _assert_normalised(u):
    for lo, hi in u:
        assert 0 <= lo < hi <= 1
    for (_, hi1), (lo2, _) in zip(u[:-1], u[1:]):
        assert hi1 < lo2


def _probes(*unions):
    """Every endpoint in [0, 1) and the midpoint between neighbouring ones."""
    pts = sorted({p for u in unions for iv in u for p in iv if p < 1} | {Fraction(0)})
    return pts + [(a + b) / 2 for a, b in zip(pts, pts[1:] + [Fraction(1)])]


class TestUnionAlgebra:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(st.tuples(_EXACT_UNIONS, _EXACT_UNIONS),
                     st.tuples(_FLOAT_UNIONS, _FLOAT_UNIONS)))
    def test_inter_and_sub_pointwise(self, us):
        u1, u2 = us
        inter, sub = bd.inter_union(u1, u2), bd.sub_union(u1, u2)
        for out in (inter, sub):
            _assert_normalised(out)
            ends = [p for iv in u1 + u2 for p in iv]
            assert all(any(p == e for e in ends) for iv in out for p in iv)
        for x in _probes(u1, u2, inter, sub):
            in1, in2 = bd.union_contains(u1, x), bd.union_contains(u2, x)
            assert bd.union_contains(inter, x) == (in1 and in2)
            assert bd.union_contains(sub, x) == (in1 and not in2)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.tuples(_EXACT_UNIONS, _EXACT_POINTS),
                     st.tuples(_FLOAT_UNIONS, _FLOAT_POINTS)))
    def test_translate_pointwise(self, ud):
        u, delta = ud
        out = bd.translate_union(u, delta)
        _assert_normalised(out)
        for x in _probes(u, out):
            assert bd.union_contains(out, x) == bd.union_contains(u, bd.mod1(x - delta))

    def test_locate_matches_brute_force(self):
        lo = np.array([0.1, 0.25, 0.5, 0.875])
        hi = np.array([0.2, 0.5, 0.75, 1.0])  # [0.25, 0.5) and [0.5, 0.75) touch
        xs = np.concatenate([lo, hi, [0.0, 0.05, 0.3, 0.8, 0.9, 0.999],
                             np.nextafter([0.2, 0.5], 0)]).reshape(4, 4)
        idx, inside = bd.locate(lo, hi, xs)
        assert idx.shape == inside.shape == xs.shape
        for x, k, hit in zip(xs.ravel(), idx.ravel(), inside.ravel()):
            assert k == max([i for i in range(lo.size) if lo[i] <= x], default=0)
            assert hit == any(a <= x < b for a, b in zip(lo, hi))

    def test_locate_without_pieces(self):
        idx, inside = bd.locate(np.array([]), np.array([]), np.zeros((3, 2)))
        assert idx.shape == inside.shape == (3, 2)
        assert not inside.any()

    def test_first_overlap(self):
        touching = [(0.5, 0.7), (0.1, 0.3), (0.3, 0.5)]
        assert bd.first_overlap(touching) == ([(0.1, 0.3), (0.3, 0.5), (0.5, 0.7)], None)
        q = [(qe(0.6), qe(0.7)), (qe(0.1), qe(0.3)), (qe(0.3), GOLDEN_MEAN)]
        pieces, bad = bd.first_overlap(q)
        assert bad == 1 and pieces[bad] == q[2]  # [0.3, 0.618...) runs past 0.6


class TestCoveringTime:
    def test_full_space(self):
        rot = golden()
        assert bd.covering_time(rot, bd.Cell.full()) == 0

    def test_matches_exact_oracle(self):
        rot = golden(grid=2048)
        for h in (0.3, 0.11, 0.037):
            W = bd.Cell.from_union([(qe(0), qe(h))])
            grid_m1 = bd.covering_time(rot, W)
            exact_m1 = bd.exact_covering_time(rot, W)
            assert exact_m1 <= grid_m1 <= exact_m1 + 3

    def test_three_distance_bound(self):
        rot = golden(grid=4096)
        qs = [q for _, q in convergents(rot.alpha, 25)]
        for h in (0.2, 0.05, 0.013):
            W = bd.Cell.from_union([(qe(0), qe(h))])
            m1 = bd.exact_covering_time(rot, W)
            q_bound = next(q for q in qs if 1.0 / q < h)
            # covering needs at least enough translates to fill length 1
            assert m1 >= math.ceil(1.0 / h) - 1
            assert m1 <= q_bound + int(1.0 / h) + 2

    def test_monotone_in_window(self):
        rot = golden(grid=2048)
        small = bd.Cell.from_union([(qe(0.1), qe(0.2))])
        big = bd.Cell.from_union([(qe(0.05), qe(0.3))])
        assert bd.covering_time(rot, big) <= bd.covering_time(rot, small)

    def test_empty_cell(self):
        rot = golden()
        with pytest.raises(EmptyCell):
            bd.covering_time(rot, bd.Cell.from_union([]))


class TestSmallBoundaryCell:
    def test_contains_and_diameter(self):
        rot = golden()
        x0 = rot.point(Fraction(1, 2))
        cell = bd.small_boundary_cell(rot, x0, 0.1)
        assert cell.contains(float(rot.scalar(x0)))
        lo, hi = cell.intervals[0]
        assert float(hi) - float(lo) <= 4 * 0.1
        assert float(lo) > 0.3 and float(hi) < 0.7

    def test_boundary_avoids_orbit(self):
        rot = golden()
        x0 = rot.point(Fraction(1, 3))
        cell = bd.small_boundary_cell(rot, x0, 0.02)
        orbit = rot.orbit_floats(1.0 / 3.0, 10**5)
        for p in cell.boundary:
            d = np.abs(np.mod(orbit - float(p), 1.0))
            d = np.minimum(d, 1.0 - d)
            assert float(d.min()) > 1e-7

    def test_sturmian_cylinder(self):
        st = sturmian(512)
        x0 = st.point(Fraction(1, 3))
        cyl = cylinder(st, x0, 4)
        assert cyl.boundary == ()  # clopen cylinder
        assert cyl.contains(float(st.scalar(x0)))
        # small-boundary cells over the shift are the rotation's
        rot = bd.CircleRotation.golden(grid_size=512)
        want = bd.small_boundary_cell(rot, rot.point(Fraction(1, 3)), 0.1)
        assert bd.small_boundary_cell(st, x0, 0.1) == want


class TestFirstReturn:
    def test_full_space(self):
        rot = golden()
        out = bd.first_return(rot, bd.Cell.full())
        assert len(out) == 1 and out[0][1] == 1

    def test_golden_unit_interval_two_times(self):
        rot = golden()
        U = bd.Cell.from_union([(QuadExt(0, 0, 5), GOLDEN_MEAN)])
        out = bd.first_return(rot, U)
        assert sorted(n for _, n in out) == [1, 2]
        # pieces partition U exactly
        total = sum(float(hi) - float(lo) for c, _ in out for lo, hi in c.intervals)
        assert abs(total - float(GOLDEN_MEAN)) < 1e-15

    def test_at_most_three_return_times(self):
        rot = golden()
        for l, h in [(0.0, 0.1), (0.33, 0.05), (0.7, 0.021)]:
            U = bd.Cell.from_union([(qe(l), qe(l + h))])
            out = bd.first_return(rot, U)
            times = [n for _, n in out]
            assert len(set(times)) <= 3
            big = max(times)
            assert big == max(times) and (big in (times[0] + times[1], times[0], times[1])
                                          if len(times) == 3 else True)

    def test_closed_form_matches_marching(self):
        rot = golden()
        for l, h in [(0.0, 0.1), (0.25, 0.07), (0.9, 0.08)]:
            U = bd.Cell.from_union([(qe(l), qe(l + h))])
            a = bd.first_return(rot, U)
            b = bd._first_return_marching(rot, U)
            assert [(n, float(c.intervals[0][0])) for c, n in a] == pytest.approx(
                [(n, float(c.intervals[0][0])) for c, n in b])

    def test_silver_rotation(self):
        rot = bd.CircleRotation.silver(grid_size=512)
        U = bd.Cell.from_union([(QuadExt(Fraction(1, 10), 0, 2),
                                 QuadExt(Fraction(1, 5), 0, 2))])
        out = bd.first_return(rot, U)
        march = bd._first_return_marching(rot, U)
        assert [(n, float(c.intervals[0][0])) for c, n in out] == pytest.approx(
            [(n, float(c.intervals[0][0])) for c, n in march])

    def test_towers_tile_exactly(self):
        # Kac: sum of return times weighted by piece length is the full circle
        rot = golden()
        U = bd.Cell.from_union([(qe(0.2), qe(0.35))])
        out = bd.first_return(rot, U)
        kac = sum(n * (float(c.intervals[0][1]) - float(c.intervals[0][0]))
                  for c, n in out)
        assert abs(kac - 1.0) < 1e-12

    def test_union_cell_marching(self):
        rot = golden()
        U = bd.Cell.from_union([(qe(0.1), qe(0.15)), (qe(0.6), qe(0.63))])
        out = bd.first_return(rot, U)
        # spot-check each piece by direct orbit iteration from its midpoint
        for cell, n in out:
            lo, hi = cell.intervals[0]
            mid = (float(lo) + float(hi)) / 2
            pos = mid
            for k in range(1, n + 1):
                pos = (pos + rot.alpha_float) % 1.0
                inside = U.contains_floats(np.array([pos]))[0]
                assert inside == (k == n)


class TestSturmian:
    def test_word_matches_rotation_coding(self):
        st = sturmian(256)
        x = st.point(0.2)
        w = word(st, x, 10)
        beta = st.alpha_float
        expect = "".join(
            "1" if (0.2 + j * beta) % 1.0 >= 1 - beta else "0" for j in range(10))
        assert w == expect

    def test_shift_moves_word(self):
        st = sturmian(256)
        x = st.point(0.2)
        assert word(st, x, 9)[1:] == word(st, st.step(x, 1), 8)


class TestDiagnostics:
    def test_near_rational_warns(self):
        with pytest.warns(UserWarning):
            bd.CircleRotation(0.5 + 1e-14, grid_size=64)

    @pytest.mark.parametrize("alpha,name", [(0.5, "1/2"), (0.25, "1/4"),
                                            (Fraction(3, 7), "3/7"), (1.0, "irrational")])
    def test_rational_angle_rejected(self, alpha, name):
        with pytest.raises(CocycleLabError, match=name):
            bd.CircleRotation(alpha, grid_size=64)
