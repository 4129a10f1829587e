"""Exact arithmetic in quadratic fields Q(sqrt(D)), plus continued-fraction helpers.

Every rotation angle is exact: the golden and silver means live in Q(sqrt(D)),
and any other angle is the rational it is given as (a float is the dyadic
rational it already is).  Interval endpoints for rotation bases live in the
angle's field, so all cell, tower and castle certifications reduce to exact
sign computations, on elements of Q(sqrt(D)) or on rationals.

An element is stored as three integers: (p + q*sqrt(D))/d with d > 0 and
gcd(p, q, d) = 1.  A ring operation is integer arithmetic plus one gcd, and a
comparison is the sign of A + B*sqrt(D) for cross-multiplied integers A, B:
when A and B have opposite signs, the larger of A^2 and B^2 D wins.  No
rational object is built on either path.  floor comes from one integer
square root; QuadExt documents both it and the rounding of float().
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction


def _make(p: int, q: int, d: int, D: int) -> "QuadExt":
    """(p + q sqrt D)/d in lowest terms; d != 0 (a negative d flips all signs)."""
    if d < 0:
        p, q, d = -p, -q, -d
    g = math.gcd(p, q, d)
    if g != 1:
        p, q, d = p // g, q // g, d // g
    x = object.__new__(QuadExt)
    x.p, x.q, x.d, x.D = p, q, d, D
    return x


def _sign(A: int, B: int, D: int) -> int:
    """Sign of A + B*sqrt(D) for integers A, B and a non-square D."""
    if B == 0:
        return (A > 0) - (A < 0)
    sb = 1 if B > 0 else -1
    if A == 0 or (A > 0) == (B > 0):
        return sb
    # opposite signs; A^2 == B^2 D is impossible for non-square D
    return -sb if A * A > B * B * D else sb


def _same_D(x: "QuadExt", y: "QuadExt") -> int:
    if x.D != y.D:
        raise ValueError(f"mixed discriminants {x.D} and {y.D}")
    return x.D


class QuadExt:
    """a + b*sqrt(D) with rational a, b and a fixed non-square D >= 2.

    Stored as integers (p + q*sqrt(D))/d, d > 0, gcd(p, q, d) = 1, so equal
    values have equal coordinates; a and b are the Fractions p/d and q/d.
    Arithmetic mixes with int and Fraction; comparisons also take floats,
    each the dyadic rational it is.

    floor is exact from s = isqrt(q^2 D): q^2 D is not a square, so q sqrt(D)
    lies strictly between s and s + 1 for q > 0 (between -s - 1 and -s for
    q < 0).  As floor(x/d) = floor(floor(x)/d) for an integer d > 0,
    floor((p + q sqrt D)/d) is (p + s)//d, or (p - s - 1)//d.

    float() is fa + fb with fa = p/d and fb = (q/d)*sqrt(D); near
    cancellation it divides the rounded norm (p^2 - q^2 D)/d^2 by the float
    conjugate fa - fb instead.  Each int/int true division is correctly
    rounded, so it equals float(Fraction(p, d)), and float() has the bits of
    the same formula on rational coordinates.  The result is not correctly
    rounded (hundreds of ulps off on some castle endpoints), but castle.csv,
    the region starts and the certificates are written from these bits, so a
    correctly rounded float() moves artifact bytes: a change of its own.
    """

    __slots__ = ("p", "q", "d", "D")

    def __init__(self, a, b, D: int):
        a, b = Fraction(a), Fraction(b)
        da, db = a.denominator, b.denominator
        d = da * db // math.gcd(da, db)
        # lcm of reduced denominators: gcd(p, q, d) = 1 already
        self.p, self.q, self.d = a.numerator * (d // da), b.numerator * (d // db), d
        self.D = int(D)

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.d)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.d)

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, QuadExt):
            e, d = other.d, self.d
            return _make(self.p * e + other.p * d, self.q * e + other.q * d, d * e,
                         _same_D(self, other))
        if isinstance(other, (int, Fraction)):
            n, m = other.numerator, other.denominator
            return _make(self.p * m + n * self.d, self.q * m, self.d * m, self.D)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, QuadExt):
            e, d = other.d, self.d
            return _make(self.p * e - other.p * d, self.q * e - other.q * d, d * e,
                         _same_D(self, other))
        if isinstance(other, (int, Fraction)):
            n, m = other.numerator, other.denominator
            return _make(self.p * m - n * self.d, self.q * m, self.d * m, self.D)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            n, m = other.numerator, other.denominator
            return _make(n * self.d - self.p * m, -self.q * m, self.d * m, self.D)
        return NotImplemented

    def __neg__(self):
        return _make(-self.p, -self.q, self.d, self.D)

    def __mul__(self, other):
        if isinstance(other, QuadExt):
            D = _same_D(self, other)
            p, q, r, s = self.p, self.q, other.p, other.q
            return _make(p * r + q * s * D, p * s + q * r, self.d * other.d, D)
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return _make(self.p * n, self.q * n, self.d * other.denominator, self.D)
        return NotImplemented

    __rmul__ = __mul__

    def _norm(self) -> int:
        # d^2 times the field norm a^2 - b^2 D; zero only at zero, D being non-square
        n = self.p * self.p - self.q * self.q * self.D
        if n == 0:
            raise ZeroDivisionError("zero element of Q(sqrt D)")
        return n

    def inverse(self) -> "QuadExt":
        # d/(p + q sqrt D) = d (p - q sqrt D)/(p^2 - q^2 D)
        d = self.d
        return _make(d * self.p, -d * self.q, self._norm(), self.D)

    def __truediv__(self, other):
        if isinstance(other, QuadExt):
            D = _same_D(self, other)
            p, q, r, s = self.p, self.q, other.p, other.q
            e = other.d
            return _make((p * r - q * s * D) * e, (q * r - p * s) * e,
                         self.d * other._norm(), D)
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of QuadExt by zero")
            n, m = other.numerator, other.denominator
            return _make(self.p * m, self.q * m, self.d * n, self.D)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            n, m = other.numerator, other.denominator
            k = n * self.d
            return _make(k * self.p, -k * self.q, m * self._norm(), self.D)
        return NotImplemented

    # -- order ----------------------------------------------------------------

    def sign(self) -> int:
        return _sign(self.p, self.q, self.D)

    def _cmp(self, other) -> int:
        if isinstance(other, QuadExt):
            e, d = other.d, self.d
            return _sign(self.p * e - other.p * d, self.q * e - other.q * d,
                         _same_D(self, other))
        if isinstance(other, (int, Fraction)):
            n, m = other.numerator, other.denominator
        elif isinstance(other, float):
            # exact: every finite float is a dyadic rational
            n, m = other.as_integer_ratio()
        else:
            raise TypeError(f"cannot compare QuadExt with {type(other).__name__}")
        return _sign(self.p * m - n * self.d, self.q * m, self.D)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, (int, float, Fraction, QuadExt)):
            return self._cmp(other) == 0
        return NotImplemented

    def __hash__(self):
        if self.q == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.D))

    # -- real-number interface --------------------------------------------------

    def __float__(self) -> float:
        p, q, d = self.p, self.q, self.d
        fa = p / d
        fb = q / d * math.sqrt(self.D)
        naive = fa + fb
        # near-cancellation (e.g. q*alpha - p at deep convergents): go through
        # the conjugate, whose float value has no cancellation
        if abs(naive) > 1e-3 * (abs(fa) + abs(fb)) or naive == 0.0 and fa == 0.0:
            return naive
        den = fa - fb
        if den == 0.0:
            return naive
        return (p * p - q * q * self.D) / (d * d) / den

    def __floor__(self) -> int:
        p, q = self.p, self.q
        if q == 0:
            return p // self.d
        s = math.isqrt(q * q * self.D)
        return (p + s if q > 0 else p - s - 1) // self.d

    def __repr__(self):
        return f"QuadExt({self.a}, {self.b}, sqrt{self.D})"


GOLDEN_MEAN = QuadExt(Fraction(-1, 2), Fraction(1, 2), 5)  # (sqrt 5 - 1)/2
SILVER_MEAN = QuadExt(-1, 1, 2)  # sqrt 2 - 1


# -- scalar helpers usable on float, rational and QuadExt --------------------------


def as_exact(x):
    """x as an exact scalar: QuadExt and rationals as given, other numbers as their double."""
    return x if isinstance(x, (QuadExt, int, Fraction)) else Fraction(float(x))


def mod1(x):
    """Reduce to [0, 1); exact for QuadExt and rationals, fmod-based for floats."""
    if isinstance(x, (QuadExt, int, Fraction)):
        return x - math.floor(x)
    r = math.fmod(x, 1.0)
    return r + 1.0 if r < 0 else r


# -- continued fractions --------------------------------------------------------


def continued_fraction(alpha, depth: int) -> list[int]:
    """Partial quotients of alpha in (0,1): [a1, a2, ...], alpha = 1/(a1 + 1/(a2 + ...)).

    Exact: a float is expanded as the dyadic rational it is, so a rational
    alpha stops after its last quotient and a QuadExt one is eventually
    periodic.
    """
    quots: list[int] = []
    x = as_exact(alpha)
    for _ in range(depth):
        if x == 0:
            break
        y = 1 / x
        a = math.floor(y)
        quots.append(a)
        x = y - a
    return quots


@functools.lru_cache(maxsize=256)
def convergents(alpha, depth: int) -> tuple[tuple[int, int], ...]:
    """Convergent pairs (p_k, q_k) of alpha in (0,1), k = 1..depth (memoised)."""
    out: list[tuple[int, int]] = []
    p0, q0 = 1, 0
    p1, q1 = 0, 1
    for a in continued_fraction(alpha, depth):
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        out.append((p1, q1))
    return tuple(out)


def best_denominators(alpha, limit: int) -> list[tuple[int, object]]:
    """(q_k, |q_k alpha - p_k|) for all convergent denominators q_k <= limit.

    The second component keeps the scalar type of alpha (QuadExt stays exact).
    ||q alpha|| over 1 <= q <= n is minimized at the largest q_k <= n, which is
    what the min-gap and frequency certificates rely on.
    """
    out = []
    for p, q in convergents(alpha, 64):
        if q > limit:
            break
        err = q * alpha - p
        if err < 0:
            err = -err
        out.append((q, err))
    return out


@functools.lru_cache(maxsize=256, typed=True)  # a float angle never shares an exact one's gap
def min_orbit_gap(alpha, n: int):
    """Exact minimal gap of the n points {0, alpha, ..., (n-1) alpha} mod 1.

    Equals ||q_K alpha|| for the largest convergent denominator q_K <= n - 1,
    or alpha = ||alpha|| when n - 1 is below q_1 = a_1 (then alpha < 1/2 and
    every q < a_1 has ||q alpha|| >= alpha).  Returns in the scalar type of
    alpha; n >= 2 required.
    """
    if n < 2:
        raise ValueError("need at least two orbit points")
    best = alpha
    for q, err in best_denominators(alpha, n - 1):
        best = err
    return best
