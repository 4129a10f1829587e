import math
import operator
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



class FractionPairQuadExt:
    """The Fraction-pair QuadExt as first written: the oracle for the integer one."""

    __slots__ = ("a", "b", "D")

    def __init__(self, a, b, D: int):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.D = int(D)

    def _coerce(self, other) -> "FractionPairQuadExt":
        if isinstance(other, FractionPairQuadExt):
            if other.D != self.D:
                raise ValueError(f"mixed discriminants {self.D} and {other.D}")
            return other
        if isinstance(other, (int, Fraction)):
            return FractionPairQuadExt(other, 0, self.D)
        return NotImplemented  # type: ignore[return-value]

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FractionPairQuadExt(self.a + o.a, self.b + o.b, self.D)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FractionPairQuadExt(self.a - o.a, self.b - o.b, self.D)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FractionPairQuadExt(o.a - self.a, o.b - self.b, self.D)

    def __neg__(self):
        return FractionPairQuadExt(-self.a, -self.b, self.D)

    def __mul__(self, other):
        if isinstance(other, FractionPairQuadExt):
            if other.D != self.D:
                raise ValueError("mixed discriminants")
            return FractionPairQuadExt(
                self.a * other.a + self.b * other.b * self.D,
                self.a * other.b + self.b * other.a,
                self.D,
            )
        if isinstance(other, (int, Fraction)):
            return FractionPairQuadExt(self.a * other, self.b * other, self.D)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "FractionPairQuadExt":
        # (a + b sqrt D)^-1 = (a - b sqrt D) / (a^2 - b^2 D); denominator != 0
        # since D is not a perfect square.
        den = self.a * self.a - self.b * self.b * self.D
        if den == 0:
            raise ZeroDivisionError("zero element of Q(sqrt D)")
        return FractionPairQuadExt(self.a / den, -self.b / den, self.D)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionPairQuadExt(self.a / other, self.b / other, self.D)
        if isinstance(other, FractionPairQuadExt):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    # -- order ----------------------------------------------------------------

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 against b^2 D
        lhs, rhs = a * a, b * b * self.D
        if a > 0:  # b < 0
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return 1 if lhs < rhs else (-1 if lhs > rhs else 0)

    def _cmp(self, other) -> int:
        if isinstance(other, float):
            other = Fraction(other)  # exact: every finite float is a dyadic rational
        o = self._coerce(other)
        return (self - o).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, (int, float, Fraction, FractionPairQuadExt)):
            return self._cmp(other) == 0
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.D))

    # -- real-number interface --------------------------------------------------

    def __float__(self) -> float:
        fa = float(self.a)
        fb = float(self.b) * math.sqrt(self.D)
        naive = fa + fb
        # near-cancellation (e.g. q*alpha - p at deep convergents): go through
        # the conjugate, whose float value has no cancellation
        if abs(naive) > 1e-3 * (abs(fa) + abs(fb)) or naive == 0.0 and fa == 0.0:
            return naive
        num = self.a * self.a - self.b * self.b * self.D
        den = fa - fb
        if den == 0.0:
            return naive
        return float(num) / den

    def __floor__(self) -> int:
        n = math.floor(float(self))
        # float estimate can be off by one near integers; fix exactly
        while self._cmp(n) < 0:
            n -= 1
        while self._cmp(n + 1) >= 0:
            n += 1
        return n

    def __repr__(self):
        return f"QuadExt({self.a}, {self.b}, sqrt{self.D})"


# -- the integer QuadExt against its Fraction-pair reference -------------------------

_NUMERATORS = st.integers(-2**70, 2**70)
_RATIONALS = st.builds(Fraction, _NUMERATORS, st.integers(1, 2**40))
_COORDS = st.one_of(st.just(Fraction(0)), _NUMERATORS.map(Fraction), _RATIONALS)
_SCALARS = st.one_of(_NUMERATORS, st.integers(-3, 3), _RATIONALS)
# sqrt(D) - floor(sqrt(D)) for D = 2, 3, 5, as (a, b) of a + b sqrt(D)
_ANGLES = {2: (-1, 1), 3: (-1, 1), 5: (Fraction(-1, 2), Fraction(1, 2))}


def _pair(a, b, D):
    return QuadExt(a, b, D), FractionPairQuadExt(a, b, D)


def _near_tie(D, k):
    """q_k theta - p_k for the k-th convergent of theta = sqrt(D) mod 1, in both classes."""
    x, rx = _pair(*_ANGLES[D], D)
    p, q = convergents(x, 60)[k - 1]
    return q * x - p, q * rx - p


def _agrees(got, want):
    """got is the integer QuadExt of the same value and coordinates as want."""
    assert isinstance(got, QuadExt) and got.D == want.D
    assert type(got.a) is Fraction and type(got.b) is Fraction
    assert (got.a, got.b) == (want.a, want.b)


def _same_real_interface(x, r):
    assert float(x).hex() == float(r).hex()
    # the reference floor walks from a float estimate one step per compare,
    # so far from 0 its own order decides: floor(r) is the k with k <= r < k + 1
    k = math.floor(x)
    assert r - k >= 0 and r - (k + 1) < 0
    if abs(float(r)) < 2**40:
        assert k == math.floor(r)
    assert hash(x) == hash(r) and repr(x) == repr(r)
    _agrees(x, r)


def _same_order(x, r, others):
    """x and r compare alike, both ways round, with each scalar of others."""
    for g in others:
        rg = g.a + g.b * FractionPairQuadExt(0, 1, g.D) if isinstance(g, QuadExt) else g
        assert x._cmp(g) == r._cmp(rg)
        assert (g < x, g == x, g > x) == (rg < r, rg == r, rg > r)


class TestQuadExtOracle:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from([2, 3, 5]), _COORDS, _COORDS, _COORDS, _COORDS, _SCALARS,
           st.floats(allow_nan=False, allow_infinity=False), st.integers(1, 60))
    def test_matches_fraction_pairs(self, D, a1, b1, a2, b2, n, f, k):
        (x, rx), (y, ry) = _pair(a1, b1, D), _pair(a2, b2, D)
        _same_real_interface(x, rx)
        _agrees(-x, -rx)
        for op in (operator.add, operator.sub, operator.mul):
            _agrees(op(x, y), op(rx, ry))
            _agrees(op(x, n), op(rx, n))
            _agrees(op(n, x), op(n, rx))
        if ry != 0:
            _agrees(x / y, rx / ry)
        if n != 0:
            _agrees(x / n, rx / n)
        if rx != 0:
            _agrees(x.inverse(), rx.inverse())
            _agrees(n / x, n / rx)
        # exact ties: x with itself, its float with itself, b = 0 with its rational
        _same_order(x, rx, (y, n, f, float(x), x + 0, rx.a, QuadExt(rx.a, 0, D)))
        _same_real_interface(x * y, rx * ry)
        e, re = _near_tie(D, k)
        _same_real_interface(e, re)
        _same_real_interface(-e, -re)
        _same_order(e, re, (float(e), math.nextafter(float(e), 1.0), Fraction(float(e)), 0))

    @pytest.mark.parametrize("D", sorted(_ANGLES))
    def test_deep_convergent_near_ties(self, D):
        for k in range(1, 61):
            e, re = _near_tie(D, k)
            _same_real_interface(e, re)
            _same_real_interface(-e, -re)
            f = float(e)
            _same_order(e, re, (f, math.nextafter(f, -1.0), math.nextafter(f, 1.0),
                                Fraction(f), 0, -e, e + 0))
            # exact ties across int, Fraction, float and a rational QuadExt
            t = QuadExt(Fraction(f), 0, D)
            for g in (f, Fraction(f), t, e - e + Fraction(f)):
                assert t._cmp(g) == 0 and hash(t) == hash(g)

    def test_mixed_discriminants_and_zero_raise(self):
        x, y, zero = QuadExt(1, 1, 2), QuadExt(1, 1, 5), QuadExt(0, 0, 5)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv,
                   operator.lt, operator.eq):
            with pytest.raises(ValueError):
                op(x, y)
        for bad in (lambda: zero.inverse(), lambda: y / zero, lambda: 1 / zero,
                    lambda: Fraction(1, 3) / zero, lambda: y / 0, lambda: y / Fraction(0)):
            with pytest.raises(ZeroDivisionError):
                bad()


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

    @pytest.mark.parametrize("kind", ["orbit", "crowded", "clustered"])
    def test_bucket_locator_equals_locate(self, kind):
        rng = np.random.default_rng(3)
        if kind == "orbit":  # region-like pieces: short intervals at orbit points
            lo = np.sort(np.mod(np.arange(300) * 0.6180339887498949, 1.0))
            hi = lo + 0.5 * np.min(np.diff(lo))
        elif kind == "crowded":  # one bucket holds several piece starts
            lo = np.sort(np.concatenate([rng.uniform(0, 1, 40),
                                         0.5 + np.arange(6) / 1024, [0.0]]))
            hi = np.append(lo[1:], 1.0)
            hi[::3] = lo[::3] + 1e-4  # gaps after some pieces
        else:  # more starts in one bucket than bisection steps
            lo = np.concatenate([[0.0], 0.25 + np.arange(64) * 1e-9, [0.5]])
            hi = np.append(lo[1:], 0.75)
        size = 1 << max(1, 2 * lo.size - 1).bit_length()
        edges = np.arange(size + 1) / size
        xs = np.concatenate([lo, hi, edges, np.nextafter(edges, 0), np.nextafter(lo, 0),
                             [0.0, 1.0, np.nextafter(1.0, 0)], rng.uniform(0, 1, 2000)])
        xs = xs[(xs >= 0) & (xs <= 1)]
        xs = xs[: xs.size // 4 * 4].reshape(4, -1)  # drops random points only
        if kind == "crowded":
            assert np.bincount((lo * size).astype(int)).max() >= 3
        idx, inside = bd.bucket_locator(lo, hi)(xs)
        want_idx, want_inside = bd.locate(lo, hi, xs)
        assert idx.shape == xs.shape
        assert np.array_equal(idx, want_idx) and np.array_equal(inside, want_inside)

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
