"""Exact arithmetic in quadratic fields Q(sqrt(D)), plus continued-fraction
helpers and exact products of 2x2 matrices of doubles.

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
square root; QuadExt documents both it and the rounding of float().  A
product of doubles is a power of two times an integer matrix, so a column of
them multiplies exactly in Python integers (`column_suffixes`).
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
    """Sign of A + B*sqrt(D) for integers A, B and a non-square D (any D when B = 0)."""
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

    float() is `coordinate_float(p, q, d, D)`: fa + fb with fa = p/d and
    fb = (q/d)*sqrt(D); near cancellation it divides the rounded norm
    (p^2 - q^2 D)/d^2 by the float conjugate fa - fb instead.  Each int/int
    true division is correctly rounded, so it equals float(Fraction(p, d)),
    float() has the bits of the same formula on rational coordinates, and
    the helper gives the same bits on coordinates not in lowest terms, as
    the integer walks of `basedyn` hold them.  The result is not correctly
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
        return coordinate_float(self.p, self.q, self.d, self.D)

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


# -- integer coordinates ----------------------------------------------------------


def coordinates(x) -> tuple[int, int, int, int]:
    """(p, q, d, D) with x = (p + q sqrt D)/d: a QuadExt's own, and q = D = 0
    for an int or a Fraction."""
    if isinstance(x, QuadExt):
        return x.p, x.q, x.d, x.D
    return x.numerator, 0, x.denominator, 0


def from_coordinates(p: int, q: int, d: int, D: int):
    """The scalar (p + q sqrt D)/d, d > 0: a QuadExt in lowest terms, or the
    Fraction p/d when D = 0 (then q = 0)."""
    return _make(p, q, d, D) if D else Fraction(p, d)


def coordinate_float(p: int, q: int, d: int, D: int) -> float:
    """float((p + q sqrt D)/d) for d > 0, as QuadExt.__float__ documents it.

    The value is read only through int/int true divisions, each correctly
    rounded, and through float operations on their results, so coordinates
    (kp, kq, kd) give the bits of (p, q, d) for every k > 0; with q = 0 the
    result is p/d, the bits of float(Fraction(p, d)).
    """
    fa = p / d
    fb = q / d * math.sqrt(D)
    naive = fa + fb
    # near-cancellation (e.g. q*alpha - p at deep convergents): go through
    # the conjugate, whose float value has no cancellation
    if abs(naive) > 1e-3 * (abs(fa) + abs(fb)) or naive == 0.0 and fa == 0.0:
        return naive
    den = fa - fb
    if den == 0.0:
        return naive
    return (p * p - q * q * D) / (d * d) / den


# -- scalar helpers usable on float, rational and QuadExt --------------------------


def as_exact(x):
    """x as an exact scalar: QuadExt and rationals as given, other numbers as their double."""
    return x if isinstance(x, (QuadExt, int, Fraction)) else Fraction(float(x))


def mod1(x):
    """Reduce to [0, 1); exact for QuadExt and rationals, fmod-based for floats.

    For a float, fmod is exact and adding 1.0 to a negative remainder rounds
    once.  A remainder in [-2^-54, 0) rounds up to 1.0, which is 0.0 on the
    circle, and a zero result is +0.0.
    """
    if isinstance(x, (QuadExt, int, Fraction)):
        return x - math.floor(x)
    r = math.fmod(x, 1.0)
    r = r + 1.0 if r < 0 else r
    return 0.0 if r == 1.0 else r + 0.0  # -0.0 + 0.0 is +0.0


# -- exact 2x2 products of doubles ------------------------------------------------


def column_suffixes(a, b, c, d):
    """The suffixes L_{h-1} ... L_j, j < h, of a column of h doubles
    L_j = [[a[j], b[j]], [c[j], d[j]]] (L_0 applied first), and an upper
    bound on log sigma1 of the whole product L_{h-1} ... L_0.

    One right-to-left pass in Python integers: a double is an integer times
    a power of two (`as_integer_ratio`), so L_j is 2^-t_j times an integer
    matrix, and the suffix P_j = P_{j+1} L_j is exactly 2^E times the
    integer matrix [[A, B], [C, D]], E = -sum t_i.  Row j is P_j rounded to
    (pa, pb, pc, pd, e): the largest integer is k bits long, each integer
    is floored to a multiple of 2^(k-64) and scaled by 2^-k, so the largest
    |p| lies in [0.5, 1], each p is within 2^-53 of 2^-k times its integer,
    and e = E + k.

    The bound: sigma1^2 = 2^2E (g + sqrt(g^2 - 4 det^2))/2 with the integers
    g = A^2 + B^2 + C^2 + D^2 and det = AD - BC, and sqrt(x) <= isqrt(x) + 1,
    so sigma1^2 <= 2^(2E-1) m for the integer m = g + isqrt(.) + 1.  Rounding
    m up to q 2^s with q of 53 bits, r = q 2^-53 in [0.5, 1] is a double and
    log sigma1 <= (log r + X log 2)/2 for the integer X = s + 2E + 52.  In
    doubles, log(r) is within one ulp of its |value| <= 0.7 (libm), X is
    exact, X * log(2.0) within two ulps, and the sum within one more: the
    error is below 2^-51 (0.7 + |X log 2|), and the result adds 2^-50 times
    that, then steps one float up to absorb the last addition's rounding.
    """
    ldexp, rows = math.ldexp, []  # written out: generator expressions here doubled the time
    A, B, C, D, E = 1, 0, 0, 1, 0
    for wa, wb, wc, wd in reversed(list(zip(a, b, c, d))):
        (na, da), (nb, db), (nc, dc), (nd, dd) = (wa.as_integer_ratio(), wb.as_integer_ratio(),
                                                  wc.as_integer_ratio(), wd.as_integer_ratio())
        t = max(da, db, dc, dd)  # a power of two, the common denominator
        la, lb, lc, ld = na * (t // da), nb * (t // db), nc * (t // dc), nd * (t // dd)
        A, B, C, D = A * la + B * lc, A * lb + B * ld, C * la + D * lc, C * lb + D * ld
        E -= t.bit_length() - 1
        k = max(A.bit_length(), B.bit_length(), C.bit_length(), D.bit_length())
        s = max(k - 64, 0)
        x = s - k
        rows.append((ldexp(A >> s, x), ldexp(B >> s, x), ldexp(C >> s, x), ldexp(D >> s, x), E + k))
    rows.reverse()
    g = A * A + B * B + C * C + D * D
    det = A * D - B * C
    m = g + math.isqrt((g - 2 * det) * (g + 2 * det)) + 1
    s = m.bit_length() - 53
    q = -(-m >> s) if s > 0 else m << -s
    log_x = (s + 2 * E + 52) * math.log(2.0)
    bound = 0.5 * (math.log(math.ldexp(q, -53)) + log_x)
    return rows, math.nextafter(bound + 2.0**-50 * (0.7 + abs(log_x)), math.inf)


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
