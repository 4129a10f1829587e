import bisect
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cocyclelab import basedyn as bd
from cocyclelab import cli
from cocyclelab.errors import CocycleLabError, EmptyCell
from cocyclelab.exact import (GOLDEN_MEAN, QuadExt, as_exact, best_denominators, convergents,
                              min_orbit_gap, mod1)
from disjoint import first_overlap
from oracles import exact_covering_time, first_return_marching

ROTATIONS = {"golden": bd.CircleRotation.golden(), "silver": bd.CircleRotation.silver(),
             "float": bd.CircleRotation(0.7320508075688772)}


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


class TestMod1:
    @pytest.mark.parametrize("x, want", [
        (-1e-20, 0.0), (-5e-17, 0.0), (-0.0, 0.0), (-1.0, 0.0), (-3.0, 0.0), (2.0, 0.0),
        (0.25, 0.25), (-0.25, 0.75), (1.5, 0.5), (-2.0**-53, 1.0 - 2.0**-53),
    ])
    def test_float_cases(self, x, want):
        r = mod1(x)
        assert type(r) is float and r == want and math.copysign(1.0, r) == 1.0

    @settings(max_examples=400, deadline=None)
    @given(st.floats(min_value=-2.0**52, max_value=2.0**52)
           | st.floats(min_value=-2.0**-40, max_value=2.0**-40))
    def test_float_in_unit_interval(self, x):
        """A float lands in [0, 1), never -0.0, and differs from x by an
        integer up to the one rounding of adding 1.0 (at most 2^-53)."""
        r = mod1(x)
        assert 0.0 <= r < 1.0 and math.copysign(1.0, r) == 1.0
        diff = Fraction(r) - Fraction(x)
        assert abs(diff - round(diff)) <= Fraction(1, 2**53)

    def test_exact_scalars_keep_their_type(self):
        assert mod1(Fraction(-1, 3)) == Fraction(2, 3)
        assert mod1(-7) == 0 and type(mod1(-7)) is int
        assert mod1(QuadExt(-1, 1, 5)) == QuadExt(-2, 1, 5)


def _np_mod_bits(y):
    """wrap_floats(y) has np.mod's bits, leaves y as it was and shares no
    memory with it."""
    y = np.asarray(y, dtype=float)
    before = y.copy()
    got, want = bd.wrap_floats(y), np.mod(y, 1.0)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert y.tobytes() == before.tobytes() and not np.shares_memory(got, y)


# |y| from 2^-1074 to 2^60, of either sign
_MAGNITUDES = st.builds(lambda m, e, sign: sign * m * 2.0**e,
                        st.floats(1.0, 2.0, exclude_max=True), st.integers(-1074, 60),
                        st.sampled_from([1.0, -1.0]))
# integers up to 2^60 and their neighbours one ulp away
_INTEGERS = st.builds(lambda k, step: float(np.nextafter(float(k), step * math.inf))
                      if step else float(k), st.integers(-2**60, 2**60), st.sampled_from([-1, 0, 1]))


class TestWrapFloats:
    """wrap_floats, y - floor(y), is np.mod(y, 1.0) bit for bit."""

    def test_cases(self):
        ints = np.array([0.0, 1.0, 2.0, 3.0, 2.0**52, 2.0**53, 2.0**60, 12345.0])
        ints = np.concatenate([ints, -ints])
        _np_mod_bits(np.concatenate([
            [-0.0, 5e-324, -5e-324, 2.0**-1022, -2.0**-1022, -1e-20, -5e-17,
             -2.0**-53, -2.0**-54, 0.5, -0.5, 0.75, -0.25],
            ints, np.nextafter(ints, np.inf), np.nextafter(ints, -np.inf)]))
        assert bd.wrap_floats(-1e-20) == 1.0  # as np.mod: 1.0, not 0.0 (mod1 gives 0.0)

    @pytest.mark.parametrize("y", [-1e-20, 0.75, np.float64(-2.5), np.asarray(-0.0),
                                   np.asarray(3.25)], ids=repr)
    def test_scalars_give_numpy_scalars(self, y):
        """A scalar or 0-d y gives a numpy scalar, as y - floor(y) does."""
        a = np.asarray(y, dtype=float)
        got, want = bd.wrap_floats(y), a - np.floor(a)
        assert type(got) is type(want) is np.float64
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(_MAGNITUDES | _INTEGERS | st.sampled_from([0.0, -0.0]), min_size=1,
                    max_size=32))
    def test_equals_np_mod(self, ys):
        _np_mod_bits(ys)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=8),
           st.integers(-3, 3) | st.integers(-2**40, 2**40), st.integers(1, 40))
    def test_orbit_floats_equal_np_mod(self, x0, start, n):
        """Orbit positions, negative start included (uh_certify steps back
        with start=-1), carry np.mod's bits."""
        rot = golden()
        ks = np.arange(start, start + n, dtype=float) * rot.alpha_float
        want = np.mod(np.asarray(x0)[..., None] + ks, 1.0)
        assert rot.orbit_floats(np.asarray(x0), n, start).tobytes() == want.tobytes()


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
        assert sum(hi - lo for lo, hi in u1) == pytest.approx(0.5)

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


def _pair_off(pts):
    pts = sorted(set(pts))
    return tuple(zip(pts[0::2], pts[1::2]))


def _unions(points, one):
    return st.lists(st.one_of(points, st.just(one)), max_size=10).map(_pair_off)


_EXACT_UNIONS = _unions(_EXACT_POINTS, QuadExt(1, 0, 5))
_FLOAT_UNIONS = _unions(_FLOAT_POINTS, 1.0)


def _many_pieces(point, seed):
    """A union of 200 to 239 pieces: 400 to 479 distinct points paired off."""
    rng = np.random.default_rng(seed)
    return _pair_off(point(int(k)) for k in rng.choice(4096, int(rng.integers(400, 480)),
                                                       replace=False))


def _lopsided(points, point):
    """(u1, u2) in either order: 1 to 3 pieces against 200 or more."""
    few = st.lists(points, min_size=2, max_size=6).map(_pair_off).filter(len)
    many = st.integers(0, 2**32).map(lambda seed: _many_pieces(point, seed))
    return st.tuples(few, many, st.booleans()).map(lambda t: t[:2] if t[2] else t[1::-1])


# distinct indices k < 4096 give distinct points
_LOPSIDED = st.one_of(
    _lopsided(_EXACT_POINTS, lambda k: mod1(Fraction(k >> 4, 256) + ((k & 15) - 8) * GOLDEN_MEAN)),
    _lopsided(_FLOAT_POINTS, lambda k: k / 4096))


def _contains(u, x) -> bool:
    """x in the normalised union u, by bisection on the piece starts."""
    k = bisect.bisect_right(u, x, key=operator.itemgetter(0))
    return k > 0 and x < u[k - 1][1]


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
                     st.tuples(_FLOAT_UNIONS, _FLOAT_UNIONS), _LOPSIDED))
    def test_inter_and_sub_pointwise(self, us):
        """Lopsided inputs make the sweep skip runs of pieces in either union."""
        u1, u2 = us
        inter, sub = bd.inter_union(u1, u2), bd.sub_union(u1, u2)
        ends = {p for iv in u1 + u2 for p in iv}  # equal values hash alike
        for out in (inter, sub):
            _assert_normalised(out)
            assert all(p in ends for iv in out for p in iv)
        for x in _probes(u1, u2, inter, sub):
            in1, in2 = _contains(u1, x), _contains(u2, x)
            assert _contains(inter, x) == (in1 and in2)
            assert _contains(sub, x) == (in1 and not in2)

    def test_norm_union_orders_lows_exactly(self):
        """Lows that round to one double merge in their exact order."""
        a = GOLDEN_MEAN - Fraction(1, 2)
        b = a + Fraction(1, 2**70)
        assert float(a) == float(b)
        c, d = a + Fraction(1, 10), a + Fraction(1, 5)
        assert bd.norm_union([(b, c), (a, d)]) == ((a, d),)
        tiny = (a, a + Fraction(1, 2**71))
        assert bd.norm_union([(b, c), tiny]) == (tiny, (b, c))

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.tuples(_EXACT_UNIONS, _EXACT_POINTS),
                     st.tuples(_FLOAT_UNIONS, _FLOAT_POINTS)))
    def test_translate_pointwise(self, ud):
        u, delta = ud
        out = bd.translate_union(u, delta)
        _assert_normalised(out)
        for x in _probes(u, out):
            assert bd.union_contains(out, x) == bd.union_contains(u, bd.mod1(x - delta))

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(ROTATIONS)),
           st.lists(st.tuples(st.integers(0, 63), st.integers(-6, 6)), max_size=10),
           st.booleans(), st.integers(1, 200))
    def test_column_floors_are_translated_cells(self, angle, points, seam, height):
        """The walk gives the per-floor oracle translate_union(u, mod1(j alpha)),
        piece by piece and in the angle's field, and floats with the bits of
        float() of those pieces and of their arcs.  With `seam`, u has a piece starting at 0 and
        one ending at 1, which every nonzero rotation joins (u = [0, 1) when
        nothing lies between).  Floor -k puts a point {k alpha}, k < 0 (r = 0),
        exactly on 1."""
        rot = ROTATIONS[angle]
        inner = sorted({mod1(rot.lift(Fraction(r, 64)) + k * rot.alpha) for r, k in points})
        if seam:
            inner = inner[1:] if inner and inner[0] == 0 else inner
            inner = [rot.lift(0), *inner[:len(inner) // 2 * 2], rot.lift(1)]
        u = tuple(zip(inner[0::2], inner[1::2]))
        want = [(p, j) for j in range(height)
                for p in bd.translate_union(u, mod1(j * rot.alpha))]
        got = list(bd.column_floors(u, rot.alpha, height))
        assert got == want
        assert all(type(x) is type(rot.alpha) for piece, _ in got for x in piece)
        lo, hi, level, arc_lo, arc_hi = bd.column_float_breaks(u, rot.alpha, height)
        assert [x.hex() for x in lo.tolist()] == [float(p[0]).hex() for p, _ in want]
        assert [x.hex() for x in hi.tolist()] == [float(p[1]).hex() for p, _ in want]
        assert level.tolist() == [j for _, j in want]
        # pieces of one floor at 0 and at 1 are one arc, cut at the seam
        arcs = []
        for j in range(height):
            floor = [list(p) for p, k in want if k == j]
            if len(floor) > 1 and floor[0][0] == 0 and floor[-1][1] == 1:
                floor[0][0], floor[-1][1] = floor[-1][0] - 1, floor[0][1] + 1
            arcs += floor
        assert [x.hex() for x in arc_lo.tolist()] == [float(a).hex() for a, _ in arcs]
        assert [x.hex() for x in arc_hi.tolist()] == [float(b).hex() for _, b in arcs]

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(ROTATIONS)),
           st.lists(st.tuples(st.integers(0, 63), st.integers(-2, 2)), min_size=1, max_size=12),
           st.integers(1, 32), st.booleans())
    def test_neighbourhoods_equal_per_point_union(self, angle, points, s, floats):
        """Each rho level equals the union of the per-point pieces of
        [p - rho, p + rho), wrapped mod 1 and normalised, and its float lengths
        have the bits of float() of those pieces.  Points r/64 and rho = s/128
        make neighbourhoods touch, end on 1 or start on 0 exactly; float points
        enter as the dyadic rationals they are."""
        rot = ROTATIONS[angle]
        pts = [mod1(rot.lift(Fraction(r, 64)) + k * rot.alpha) for r, k in points]
        if floats:
            pts = [r / 64 - k for r, k in points]  # read mod 1
        rho = Fraction(s, 128)
        parts = []
        for p in pts:
            p = mod1(as_exact(p))
            lo, hi, zero = p - rho, p + rho, 0 * p
            if lo < 0:
                parts += [(zero, hi), (lo + 1, zero + 1)]
            elif hi > 1:
                parts += [(lo, zero + 1), (zero, hi - 1)]
            else:
                parts.append((lo, hi))
        want = bd.norm_union(parts)
        got = bd.neighbourhoods(pts)(rho)
        assert got.intervals() == want and len(got) == len(want)
        assert all(type(x) is type(want[0][0]) for piece in got.intervals() for x in piece)
        assert [x.hex() for x in got.float_lengths().tolist()] == [
            (float(hi) - float(lo)).hex() for lo, hi in want]
        assert [got.exact_length(i) for i in range(len(got))] == [hi - lo for lo, hi in want]

    @pytest.mark.parametrize("alpha", [None, math.sqrt(2) - 1], ids=["golden", "float-angle"])
    def test_column_floors_split_at_one(self, alpha):
        rot = golden() if alpha is None else bd.CircleRotation(alpha, grid_size=64)
        # the top piece reaches 1 and the next floor wraps it past 1
        u = ((rot.lift(Fraction(1, 10)), rot.lift(Fraction(3, 10))),
             (rot.lift(Fraction(7, 10)), rot.lift(1)))
        floors = list(bd.column_floors(u, rot.alpha, 9))
        want = [(p, j) for j in range(9) for p in rot.translate_cell(bd.Cell(u), j).intervals]
        assert floors == want
        assert [p for p, j in floors if j == 0] == list(u)
        split = [j for j in range(9) if sum(lvl == j for _, lvl in floors) > len(u)]
        assert split and all(type(p[0]) is type(u[0][0]) for p, _ in floors)

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
        idx = bd.bucket_locator(lo)(xs)
        want_idx, want_inside = bd.locate(lo, hi, xs)
        assert idx.shape == xs.shape
        assert np.array_equal(idx, want_idx)
        assert np.array_equal((xs >= lo[idx]) & (xs < hi[idx]), want_inside)

    def test_first_overlap(self):
        """The tests' disjointness oracle (tests/disjoint.py): touching pieces
        are disjoint, an overlap is found, and lows 2^-70 apart, which round
        to one double, come out in exact order and disjoint."""
        touching = [(0.5, 0.7), (0.1, 0.3), (0.3, 0.5)]
        assert first_overlap(touching) == ([(0.1, 0.3), (0.3, 0.5), (0.5, 0.7)], None)
        q = [(qe(0.6), qe(0.7)), (qe(0.1), qe(0.3)), (qe(0.3), GOLDEN_MEAN)]
        pieces, bad = first_overlap(q)
        assert bad == 1 and pieces[bad] == q[2]  # [0.3, 0.618...) runs past 0.6
        a = GOLDEN_MEAN - Fraction(1, 2)
        b, c = a + Fraction(1, 2**70), a + Fraction(1, 10)
        assert float(a) == float(b)
        assert first_overlap([(b, c), (a, a + Fraction(1, 2**71))]) == (
            [(a, a + Fraction(1, 2**71)), (b, c)], None)


class TestCoveringTime:
    def test_full_space(self):
        rot = golden()
        assert bd.covering_time(rot, bd.Cell.from_union([(rot.lift(0), rot.lift(1))])) == 0

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(["golden", "silver", "float"]), st.integers(1, 1000),
           st.integers(0, 10**6))
    @example("golden", 1, 0)
    @example("float", 1000, 0)
    def test_matches_exact_oracle(self, angle, width, start):
        """The longest first return less 1 is the exact covering sweep's m1,
        for W = [l, l + h) with h = width/10^3 from 10^-3 to the whole circle."""
        rot = (bd.CircleRotation(0.7320508075688772) if angle == "float"
               else getattr(bd.CircleRotation, angle)())
        l = rot.lift(Fraction(start % (1001 - width), 1000))
        W = bd.Cell.from_union([(l, l + rot.lift(Fraction(width, 1000)))])
        assert bd.covering_time(rot, W) == exact_covering_time(rot, W)

    def test_three_distance_bound(self):
        rot = golden(grid=4096)
        qs = [q for _, q in convergents(rot.alpha, 25)]
        for h in (0.2, 0.05, 0.013):
            W = bd.Cell.from_union([(qe(0), qe(h))])
            m1 = exact_covering_time(rot, W)
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


class TestFirstReturn:
    def test_full_space(self):
        rot = golden()
        U = bd.Cell.from_union([(rot.lift(0), rot.lift(1))])
        assert bd.first_return(rot, U) == [(U, 1)]

    @pytest.mark.parametrize("angle", ["golden", "silver"])
    def test_just_short_of_the_circle(self, angle):
        """U = [0, 1 - 2^-60) is not the circle: its points near 1 return at
        time 2.  Its first return equals marching's, and it covers the circle
        after one step."""
        rot = getattr(bd.CircleRotation, angle)()
        U = bd.Cell.from_union([(rot.lift(0), rot.lift(1 - Fraction(1, 2**60)))])
        out = bd.first_return(rot, U)
        assert out == first_return_marching(rot, U)
        assert [n for _, n in out] == [1, 2]
        assert bd.covering_time(rot, U) == 1

    def test_union_rejected(self):
        rot = golden()
        U = bd.Cell.from_union([(qe(0.1), qe(0.15)), (qe(0.6), qe(0.63))])
        with pytest.raises(CocycleLabError, match="one interval, got 2 pieces"):
            bd.first_return(rot, U)

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
        """The three-distance cells equal the marching partition exactly, on
        five angles, for widths 0 < h < 1; where 2h > 1 and n1 = n2, two
        pieces of one return time form one cell in both."""
        rng = np.random.default_rng(7)
        for angle in ("golden", "silver", 0.7320508075688772, 0.41421356, 0.4871234567):
            rot = (getattr(bd.CircleRotation, angle)() if isinstance(angle, str)
                   else bd.CircleRotation(angle))
            hs = rng.uniform(0, 1, 60)
            cells = [(0.0, 0.1), (0.25, 0.07), (0.9, 0.08)] + list(zip(rng.uniform(0, 1 - hs), hs))
            for l, h in cells:
                lo = rot.lift(Fraction(l).limit_denominator(10**9))
                hi = lo + rot.lift(Fraction(h).limit_denominator(10**9))
                U = bd.Cell.from_union([(lo, hi)])
                assert bd.first_return(rot, U) == first_return_marching(rot, U)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(["golden", "silver"]), st.integers(1, 3000),
           st.booleans())
    def test_first_entry_below_equals_exact_scan(self, angle, k, irrational):
        """The record walk's n is the first n >= 1 with {n alpha} < h, found
        by stepping {n alpha} exactly; h is k/10^4, or that times alpha."""
        alpha = getattr(bd.CircleRotation, angle)().alpha
        h = Fraction(k, 10_000) * (alpha if irrational else 1)
        n, v = 1, alpha
        while not v < h:
            n, v = n + 1, mod1(v + alpha)
        assert bd._first_entry_below(alpha, h) == n

    def test_silver_rotation(self):
        rot = bd.CircleRotation.silver(grid_size=512)
        U = bd.Cell.from_union([(QuadExt(Fraction(1, 10), 0, 2),
                                 QuadExt(Fraction(1, 5), 0, 2))])
        out = bd.first_return(rot, U)
        march = first_return_marching(rot, U)
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

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(["golden", "silver", "float"]), st.integers(100, 10**6 - 1),
           st.data())
    def test_pieces_tile_and_return_exactly(self, angle, width, data):
        """The three-distance pieces of U = [l, l + h) have exact lengths
        summing to h, and each piece's translate by its return time lies
        inside U; h runs from 10^-4 to just below 1."""
        rot = (bd.CircleRotation(0.7320508075688772) if angle == "float"
               else getattr(bd.CircleRotation, angle)())
        l = rot.lift(Fraction(data.draw(st.integers(0, 10**6 - width)), 10**6))
        h = rot.lift(Fraction(width, 10**6))
        U = bd.Cell.from_union([(l, l + h)])
        out = bd.first_return(rot, U)
        assert sum(hi - lo for c, _ in out for lo, hi in c.intervals) == h
        for cell, n in out:
            assert bd.sub_union(bd.translate_union(cell.intervals, mod1(n * rot.alpha)),
                                U.intervals) == ()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(["golden", "silver", "float"]), st.integers(100, 5 * 10**5 - 1),
           st.integers(1, 3000), st.booleans())
    @example("golden", 100, 5, True)
    @example("silver", 100, 3, True)
    @example("float", 100, 7, True)
    def test_three_distance_gap_is_at_least_h(self, angle, width, k, orbit_width):
        """a - b >= h for a = {n1 alpha} and b = {n2 alpha} - 1, n1 and n2 the
        first entries below h from either side, so `first_return` has no case
        a - b < h; where a - b == h its middle piece is empty.  h is width/10^6
        or {k alpha}, inside [10^-4, 1/2); the examples take k where
        a - b == h, which random k rarely hit."""
        rot = (bd.CircleRotation(0.7320508075688772) if angle == "float"
               else getattr(bd.CircleRotation, angle)())
        alpha = rot.alpha
        h = mod1(k * alpha) if orbit_width else rot.lift(Fraction(width, 10**6))
        assume(10**-4 <= h and 2 * h < 1)
        a = mod1(bd._first_entry_below(alpha, h) * alpha)
        b = mod1(bd._first_entry_below(1 - alpha, h) * alpha) - 1
        assert a - b >= h
        out = bd.first_return(rot, bd.Cell.from_union([(h - h, h)]))
        assert len(out) == (2 if a - b == h else 3)

    @pytest.mark.parametrize("k", [k for k in range(1, 40)
                                   if mod1(k * GOLDEN_MEAN) + Fraction(12, 35) < 1])
    def test_marching_orders_cuts_exactly(self, k):
        """U = [a, a + 1/7) and [a + 1/7 + 2^-70, a + 12/35), a = {k alpha} on the
        golden rotation: the gap's ends round to one double.  The marching
        oracle's partition tiles U exactly, with U's exact length, and each piece's
        return lies in U."""
        rot = golden()
        a = mod1(k * rot.alpha)
        gap = a + Fraction(1, 7)
        U = bd.Cell.from_union([(a, gap), (gap + Fraction(1, 2**70), a + Fraction(12, 35))])
        out = first_return_marching(rot, U)
        pieces = [iv for cell, _ in out for iv in cell.intervals]
        assert bd.norm_union(pieces) == U.intervals
        assert sum(hi - lo for lo, hi in pieces) == sum(hi - lo for lo, hi in U.intervals)
        for cell, n in out:
            assert bd.sub_union(bd.translate_union(cell.intervals, mod1(n * rot.alpha)),
                                U.intervals) == ()

    def test_union_cell_marching(self):
        """The marching oracle on a union of two intervals."""
        rot = golden()
        U = bd.Cell.from_union([(qe(0.1), qe(0.15)), (qe(0.6), qe(0.63))])
        out = first_return_marching(rot, U)
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
