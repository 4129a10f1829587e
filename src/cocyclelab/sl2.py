"""Closed-form 2x2 unimodular matrix algebra.

Everything here is branch-explicit double precision: products with determinant
renormalization, the closed-form SVD through the squared Frobenius norm, a
principal log/exp chart on traceless matrices used for continuous blending,
and the one kernel for long products.

Long products are rescaled by powers of two (`frexp`/`ldexp`), which is exact
in binary floating point: a product is a mantissa matrix, largest entry in
[0.5, 1), times 2^E with E an integer sum, and its bits do not depend on how
often or where it was rescaled.  log ||.|| splits the power of two off sigma1
first and multiplies the integer exponent by log 2 once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAxes, DeterminantError, LogDomain

_RENORM_DRIFT = 1e-12
_HARD_DRIFT = 1e-9
_ROTATION_TOL = 1e-8  # axes undefined when operator norm <= 1 + this


@dataclass(frozen=True)
class Mat2:
    """Element of SL(2,R), row-major entries a b / c d.

    Construction renormalizes by 1/sqrt(det) when |det - 1| drifts past 1e-12
    and refuses entries with drift beyond 1e-9 (that signals a bug upstream,
    not roundoff).
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        drift = abs(det - 1.0)
        if drift <= _RENORM_DRIFT:
            return
        if not all(math.isfinite(v) for v in (self.a, self.b, self.c, self.d)):
            raise DeterminantError("non-finite entries")
        # the float det of a big-entry matrix carries cancellation noise of
        # order g * eps_mach; the hard gate scales with it, else it would
        # reject legitimately unimodular long products, and renormalizing by a
        # noise-dominated det would inject error rather than remove drift
        g = self.a * self.a + self.b * self.b + self.c * self.c + self.d * self.d
        noise = g * 1e-14
        if drift > max(_HARD_DRIFT, noise):
            raise DeterminantError(f"det = {det!r} out of tolerance")
        if det <= 0.25 or noise * 8.0 >= drift:
            return
        s = 1.0 / math.sqrt(det)
        object.__setattr__(self, "a", self.a * s)
        object.__setattr__(self, "b", self.b * s)
        object.__setattr__(self, "c", self.c * s)
        object.__setattr__(self, "d", self.d * s)

    @classmethod
    def normalized(cls, a: float, b: float, c: float, d: float) -> "Mat2":
        """Project arbitrary entries with positive determinant into SL(2,R)."""
        det = a * d - b * c
        if det <= 0.0 or not math.isfinite(det):
            raise DeterminantError(f"cannot normalize det = {det!r}")
        s = 1.0 / math.sqrt(det)
        return cls(a * s, b * s, c * s, d * s)

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1.0, 0.0, 0.0, 1.0)

    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def trace(self) -> float:
        return self.a + self.d

    def inv(self) -> "Mat2":
        return Mat2(self.d, -self.b, -self.c, self.a)

    def apply(self, v: tuple[float, float]) -> tuple[float, float]:
        x, y = v
        return (self.a * x + self.b * y, self.c * x + self.d * y)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return compose(self, other)

    def to_array(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]])

    def entries(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class SingularAxes:
    """Expanding/contracting unit axes and the operator norm of a matrix."""

    u: tuple[float, float]
    s: tuple[float, float]
    norm: float


@dataclass(frozen=True)
class TangentVec:
    """Traceless 2x2 matrix t1 t2 / t3 -t1 (trace is zero by representation)."""

    t1: float
    t2: float
    t3: float

    def scale(self, f: float) -> "TangentVec":
        return TangentVec(self.t1 * f, self.t2 * f, self.t3 * f)

    def norm(self) -> float:
        return float(general_operator_norm(self.t1, self.t2, self.t3, -self.t1))


def compose(A: Mat2, B: Mat2) -> Mat2:
    """Matrix product A @ B."""
    return Mat2(
        A.a * B.a + A.b * B.c,
        A.a * B.b + A.b * B.d,
        A.c * B.a + A.d * B.c,
        A.c * B.b + A.d * B.d,
    )


def operator_norm(A: Mat2) -> float:
    """Largest singular value; >= 1 for unimodular matrices."""
    g = A.a * A.a + A.b * A.b + A.c * A.c + A.d * A.d
    if g <= 2.0:
        return 1.0
    # sigma1^2 = (g + sqrt((g-2)(g+2)))/2, written to keep precision near g = 2
    return math.sqrt((g + math.sqrt((g - 2.0) * (g + 2.0))) / 2.0)


def _sigma1_squared(a, b, c, d):
    """(sigma1^2, det) of [[a, b], [c, d]], entrywise over arrays or floats."""
    g = a * a + b * b + c * c + d * d
    det = a * d - b * c
    disc = np.maximum((g - 2.0 * det) * (g + 2.0 * det), 0.0)
    return (g + np.sqrt(disc)) / 2.0, det


def general_operator_norm(a, b, c, d):
    """Largest singular value of arbitrary 2x2 matrices (no det assumption).

    Entrywise over arrays or floats.  Exact power-of-two scaling of the
    entries scales the result exactly.
    """
    return np.sqrt(np.maximum(_sigma1_squared(a, b, c, d)[0], 0.0))


def _axis_sign(v: tuple[float, float]) -> tuple[float, float]:
    # nonnegative first coordinate, first positive nonzero coordinate if zero
    x, y = v
    if x < 0.0 or (x == 0.0 and y < 0.0):
        return (-x, -y)
    return (x, y)


def singular_axes(A: Mat2) -> SingularAxes:
    """Expanding and contracting unit singular vectors with the operator norm.

    Requires operator_norm(A) > 1 + 1e-8; below that A is within tolerance of
    a rotation and the axes are numerically meaningless.
    """
    nrm = operator_norm(A)
    if nrm <= 1.0 + _ROTATION_TOL:
        raise DegenerateAxes(f"norm {nrm} within rotation tolerance")
    # A^T A = [[p, r], [r, q]]; u is its top eigenvector
    p = A.a * A.a + A.c * A.c
    q = A.b * A.b + A.d * A.d
    r = A.a * A.b + A.c * A.d
    lam = nrm * nrm
    v1 = (r, lam - p)
    v2 = (lam - q, r)
    n1 = v1[0] * v1[0] + v1[1] * v1[1]
    n2 = v2[0] * v2[0] + v2[1] * v2[1]
    vx, vy = v1 if n1 >= n2 else v2
    nv = math.hypot(vx, vy)
    if nv == 0.0:  # p == q and r == 0: scalar A^T A, cannot happen past the gate
        raise DegenerateAxes("isotropic A^T A")
    u = _axis_sign((vx / nv, vy / nv))
    s = _axis_sign((-u[1], u[0]))
    return SingularAxes(u=u, s=s, norm=nrm)


def rotation(theta: float) -> Mat2:
    """Counterclockwise rotation by theta radians."""
    c, s = math.cos(theta), math.sin(theta)
    return Mat2(c, -s, s, c)


_TRACE_FLOOR = -2.0 + 1e-6


def log_map(A: Mat2) -> TangentVec:
    """Principal logarithm of A as a traceless tangent vector.

    Defined for trace(A) > -2 + 1e-6: log A = kappa * (A - (tr A / 2) Id) with
    kappa = acosh(t)/sqrt(t^2-1) (hyperbolic), acos(t)/sqrt(1-t^2) (elliptic),
    t = tr A / 2; the two branches share the series 1 - e/3 + 2e^2/15 at t = 1+e.
    """
    tr = A.trace()
    if tr <= _TRACE_FLOOR:
        raise LogDomain(f"trace {tr} <= -2 + 1e-6")
    t = tr / 2.0
    e = t - 1.0
    if abs(e) < 1e-6:
        kappa = 1.0 - e / 3.0 + 2.0 * e * e / 15.0
    elif t > 1.0:
        u = math.sqrt(t * t - 1.0)
        kappa = math.asinh(u) / u  # acosh(t) = asinh(sqrt(t^2-1)) for t >= 1
    else:
        u = math.sqrt(1.0 - t * t)
        kappa = math.acos(t) / u
    return TangentVec(kappa * (A.a - t), kappa * A.b, kappa * A.c)


def exp_map(v: TangentVec) -> Mat2:
    """Exponential of the traceless matrix v; inverse of log_map on its domain."""
    q = v.t1 * v.t1 + v.t2 * v.t3  # v^2 = q * Id
    if abs(q) < 1e-8:
        alpha = 1.0 + q / 2.0 + q * q / 24.0
        beta = 1.0 + q / 6.0 + q * q / 120.0
    elif q > 0.0:
        r = math.sqrt(q)
        alpha = math.cosh(r)
        beta = math.sinh(r) / r
    else:
        r = math.sqrt(-q)
        alpha = math.cos(r)
        beta = math.sin(r) / r
    return Mat2(
        alpha + beta * v.t1,
        beta * v.t2,
        beta * v.t3,
        alpha - beta * v.t1,
    )


def singular_axes_arrays(a, b, c, d):
    """Vectorized singular axes: (ux, uy, sx, sy, norm, degenerate_mask).

    Scale-invariant, so callers may pass rescaled products.  Lanes whose
    normalized operator norm is within rotation tolerance are flagged; their
    axes default to the coordinate frame.
    """
    a, b, c, d = (np.asarray(v, dtype=float) for v in (a, b, c, d))
    lam, det = _sigma1_squared(a, b, c, d)
    sig1 = np.sqrt(np.maximum(lam, 1e-300))
    sig2 = np.abs(det) / np.maximum(sig1, 1e-300)
    ratio = sig1 / np.maximum(sig2, 1e-300)
    degenerate = np.sqrt(np.maximum(ratio, 1.0)) <= 1.0 + _ROTATION_TOL
    p = a * a + c * c
    q = b * b + d * d
    r = a * b + c * d
    v1x, v1y = r, lam - p
    v2x, v2y = lam - q, r
    pick1 = v1x * v1x + v1y * v1y >= v2x * v2x + v2y * v2y
    ux = np.where(pick1, v1x, v2x)
    uy = np.where(pick1, v1y, v2y)
    nrm = np.hypot(ux, uy)
    safe = nrm > 0
    ux = np.where(safe, ux / np.where(safe, nrm, 1.0), 1.0)
    uy = np.where(safe, uy / np.where(safe, nrm, 1.0), 0.0)
    flip = (ux < 0) | ((ux == 0) & (uy < 0))
    sign = np.where(flip, -1.0, 1.0)
    ux, uy = ux * sign, uy * sign
    ux = np.where(degenerate, 1.0, ux)
    uy = np.where(degenerate, 0.0, uy)
    sx, sy = -uy, ux
    flip_s = (sx < 0) | ((sx == 0) & (sy < 0))
    sign_s = np.where(flip_s, -1.0, 1.0)
    return ux, uy, sx * sign_s, sy * sign_s, np.sqrt(ratio), degenerate


# -- vectorized tangent chart (hot paths: blending, table interpolation) --------


def exp_traceless_arrays(t1, t2, t3):
    """exp_map on arrays of tangent coordinates; returns entry arrays a, b, c, d."""
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    t3 = np.asarray(t3, dtype=float)
    q = t1 * t1 + t2 * t3
    small = np.abs(q) < 1e-8
    qs = np.where(small, 0.0, q)
    rp = np.sqrt(np.where(qs > 0, qs, 1.0))
    rn = np.sqrt(np.where(qs < 0, -qs, 1.0))
    alpha = np.where(
        small,
        1.0 + q / 2.0 + q * q / 24.0,
        np.where(qs > 0, np.cosh(rp), np.cos(rn)),
    )
    beta = np.where(
        small,
        1.0 + q / 6.0 + q * q / 120.0,
        np.where(qs > 0, np.sinh(rp) / rp, np.sin(rn) / rn),
    )
    return alpha + beta * t1, beta * t2, beta * t3, alpha - beta * t1


def log_sl2_arrays(a, b, c, d):
    """log_map on arrays of SL(2,R) entries; caller guarantees trace > -2 + 1e-6."""
    a = np.asarray(a, dtype=float)
    d = np.asarray(d, dtype=float)
    t = (a + d) / 2.0
    if np.any(t <= _TRACE_FLOOR / 2.0):  # t <= -1 + 5e-7
        bad = float(np.min(t))
        raise LogDomain(f"trace/2 = {bad} <= -1 + 5e-7 in array log")
    e = t - 1.0
    small = np.abs(e) < 1e-6
    ts = np.where(small, 2.0, t)  # safe placeholder outside branch
    up = np.sqrt(np.maximum(ts * ts - 1.0, 1e-300))
    un = np.sqrt(np.maximum(1.0 - ts * ts, 1e-300))
    kappa = np.where(
        small,
        1.0 - e / 3.0 + 2.0 * e * e / 15.0,
        np.where(ts > 1.0, np.arcsinh(up) / up, np.arccos(np.clip(ts, -1.0, 1.0)) / un),
    )
    return kappa * (a - t), kappa * np.asarray(b, dtype=float), kappa * np.asarray(c, dtype=float)


# -- long products: one kernel, exact power-of-two rescaling --------------------

LN2 = math.log(2.0)
# steps between rescales; the bits do not depend on it while 16 consecutive
# steps grow by less than 2^500, which keeps sigma1 of a partial product finite
_STRIDE = 16


def _mul(a1, b1, c1, d1, a0, b0, c0, d0):
    """[[a1, b1], [c1, d1]] @ [[a0, b0], [c0, d0]], entrywise over arrays or floats."""
    return a1 * a0 + b1 * c0, a1 * b0 + b1 * d0, c1 * a0 + d1 * c0, c1 * b0 + d1 * d0


def _rescale(a, b, c, d):
    """Entry arrays times 2^-e with the largest |entry| in [0.5, 1), and e."""
    _, e = np.frexp(np.maximum(np.maximum(np.abs(a), np.abs(b)),
                               np.maximum(np.abs(c), np.abs(d))))
    return np.ldexp(a, -e), np.ldexp(b, -e), np.ldexp(c, -e), np.ldexp(d, -e), e


def log_norm(a, b, c, d, e):
    """log sigma1(2^e [[a, b], [c, d]]), entrywise over arrays or floats.

    sigma1 scales exactly with the entries, and its power of two is split off
    before the log, so every power-of-two scaling of the same product gives
    the same bits while the squared entries stay finite (|entries| < 2^511).
    """
    m, k = np.frexp(general_operator_norm(a, b, c, d))
    return np.log(m) + (e + k) * LN2


def scan_product(a, b, c, d):
    """M_{n-1} ... M_0 of one sequence of entries (index 0 applied first).

    Pure-Python floats, one step at a time.  Returns (pa, pb, pc, pd, E): the
    product is 2^E times the mantissa matrix.  Bitwise equal to the unscaled
    product times 2^-E while that does not overflow, and to scan_lanes.
    """
    a, b, c, d = (np.asarray(v, dtype=float).tolist() for v in (a, b, c, d))
    pa, pb, pc, pd, e = 1.0, 0.0, 0.0, 1.0, 0
    for s in range(0, len(a), _STRIDE):
        t = s + _STRIDE
        for na, nb, nc, nd in zip(a[s:t], b[s:t], c[s:t], d[s:t]):
            pa, pb, pc, pd = _mul(na, nb, nc, nd, pa, pb, pc, pd)
        _, k = math.frexp(max(abs(pa), abs(pb), abs(pc), abs(pd)))
        pa, pb, pc, pd = (math.ldexp(v, -k) for v in (pa, pb, pc, pd))
        e += k
    return pa, pb, pc, pd, e


def scan_lanes(a, b, c, d, running: bool = False):
    """scan_product for every row of (L, n) entry arrays, vectorized over rows.

    Returns ((pa, pb, pc, pd, E), logs): per-row mantissas and exponents, and
    with `running` the (L, n+1) array of log ||M_{j-1} ... M_0||, j = 0..n
    (None otherwise).  Row i is bitwise equal to scan_product of row i.
    """
    L, n = a.shape
    pa, pb, pc, pd = np.ones(L), np.zeros(L), np.zeros(L), np.ones(L)
    e = np.zeros(L, dtype=np.int64)
    logs = np.zeros((L, n + 1)) if running else None
    for s in range(0, n, _STRIDE):
        for j in range(s, min(s + _STRIDE, n)):
            pa, pb, pc, pd = _mul(a[:, j], b[:, j], c[:, j], d[:, j], pa, pb, pc, pd)
            if running:
                logs[:, j + 1] = log_norm(pa, pb, pc, pd, e)
        pa, pb, pc, pd, k = _rescale(pa, pb, pc, pd)
        e += k
    return (pa, pb, pc, pd, e), logs


def tree_product(a, b, c, d):
    """Ordered products along the last axis of (L, n) arrays, pairwise.

    Pairs combine as M[2k+1] @ M[2k] (index 0 applied first), an odd level is
    padded with the identity on the late side, and every level is rescaled.
    The reduction order is fixed, independent of chunking or thread counts.
    Returns per-lane (pa, pb, pc, pd, E) like scan_lanes.
    """
    e = np.zeros(a.shape[0], dtype=np.int64)
    while a.shape[1] > 1:
        if a.shape[1] % 2 == 1:
            a, b, c, d = (np.concatenate([v, np.full((v.shape[0], 1), one)], axis=1)
                          for v, one in zip((a, b, c, d), (1.0, 0.0, 0.0, 1.0)))
        a, b, c, d, k = _rescale(*_mul(a[:, 1::2], b[:, 1::2], c[:, 1::2], d[:, 1::2],
                                       a[:, 0::2], b[:, 0::2], c[:, 0::2], d[:, 0::2]))
        e += k.sum(axis=1)
    return a[:, 0], b[:, 0], c[:, 0], d[:, 0], e
