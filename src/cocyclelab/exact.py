"""Exact arithmetic in quadratic fields Q(sqrt(D)), plus continued-fraction helpers.

Every rotation angle is exact: the golden and silver means live in Q(sqrt(D)),
and any other angle is the rational it is given as (a float is the dyadic
rational it already is).  Interval endpoints for rotation bases live in the
angle's field, so all cell, tower and castle certifications reduce to exact
sign computations, on a + b*sqrt(D) with rational a, b or on rationals.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


class QuadExt:
    """a + b*sqrt(D) with rational a, b and a fixed non-square D >= 2."""

    __slots__ = ("a", "b", "D")

    def __init__(self, a, b, D: int):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.D = int(D)

    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.D != self.D:
                raise ValueError(f"mixed discriminants {self.D} and {other.D}")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(other, 0, self.D)
        return NotImplemented  # type: ignore[return-value]

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b, self.D)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt(self.a - o.a, self.b - o.b, self.D)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt(o.a - self.a, o.b - self.b, self.D)

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.D)

    def __mul__(self, other):
        if isinstance(other, QuadExt):
            if other.D != self.D:
                raise ValueError("mixed discriminants")
            return QuadExt(
                self.a * other.a + self.b * other.b * self.D,
                self.a * other.b + self.b * other.a,
                self.D,
            )
        if isinstance(other, (int, Fraction)):
            return QuadExt(self.a * other, self.b * other, self.D)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        # (a + b sqrt D)^-1 = (a - b sqrt D) / (a^2 - b^2 D); denominator != 0
        # since D is not a perfect square.
        den = self.a * self.a - self.b * self.b * self.D
        if den == 0:
            raise ZeroDivisionError("zero element of Q(sqrt D)")
        return QuadExt(self.a / den, -self.b / den, self.D)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadExt(self.a / other, self.b / other, self.D)
        if isinstance(other, QuadExt):
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
        if isinstance(other, (int, float, Fraction, QuadExt)):
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
