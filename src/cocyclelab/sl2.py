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

from ._parallel import scratch
from .errors import DeterminantError, LogDomain

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
class TangentVec:
    """Traceless 2x2 matrix t1 t2 / t3 -t1 (trace is zero by representation)."""

    t1: float
    t2: float
    t3: float


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


def _by_branch(x, branches):
    """The outputs of the branch functions over x, each element's from the
    branch whose mask holds it; branches are (mask, fn, point), the masks
    disjoint and covering x.

    The branch holding the most elements runs on the whole array, with no
    boolean gather or scatter, after the elements of the others are set to
    `point`, a value in its own domain; each other branch with elements runs
    on those alone and overwrites them.  Every element's value is its own
    branch's elementwise expression, as with every branch on its own
    elements.
    """
    counts = [np.count_nonzero(mask) for mask, _, _ in branches]
    main = counts.index(max(counts))
    mask, fn, point = branches[main]
    outs = fn(x if counts[main] == x.size else np.where(mask, x, point))
    for i, (mask, fn, _) in enumerate(branches):
        if i != main and counts[i]:
            for o, v in zip(outs, fn(x[mask])):
                o[mask] = v
    return outs


def _exp_series(q):
    return 1.0 + q / 2.0 + q * q / 24.0, 1.0 + q / 6.0 + q * q / 120.0


def _exp_hyperbolic(q):
    r = np.sqrt(q)
    return np.cosh(r), np.sinh(r) / r


def _exp_elliptic(q):
    r = np.sqrt(-q)
    return np.cos(r), np.sin(r) / r


def exp_traceless_arrays(t1, t2, t3):
    """exp_map on arrays of tangent coordinates; returns entry arrays a, b, c, d.

    Each element takes one branch of q = t1^2 + t2 t3: the series where
    |q| < 1e-8, cosh and sinh where q > 0, cos and sin where q < 0, and each
    transcendental is evaluated only on its own branch's elements
    (`_by_branch`; a twisted table's steps are elliptic but where |q| < 1e-8,
    next to its nodes).
    """
    t1, t2, t3 = (np.asarray(t, dtype=float) for t in (t1, t2, t3))
    q = np.asarray(t1 * t1 + t2 * t3)
    small = np.abs(q) < 1e-8
    hyp = ~small & (q > 0)
    ell = ~(small | hyp)
    alpha, beta = _by_branch(q, ((ell, _exp_elliptic, -1.0), (hyp, _exp_hyperbolic, 1.0),
                                 (small, _exp_series, 0.0)))
    return alpha + beta * t1, beta * t2, beta * t3, alpha - beta * t1


def _log_series(t):
    e = t - 1.0
    return (1.0 - e / 3.0 + 2.0 * e * e / 15.0,)


def _log_hyperbolic(t):
    u = np.sqrt(np.maximum(t * t - 1.0, 1e-300))
    return (np.arcsinh(u) / u,)


def _log_elliptic(t):
    u = np.sqrt(np.maximum(1.0 - t * t, 1e-300))
    return (np.arccos(np.clip(t, -1.0, 1.0)) / u,)


def log_sl2_arrays(a, b, c, d):
    """log_map on arrays of SL(2,R) entries; caller guarantees trace > -2 + 1e-6.

    Each element takes one branch of t = trace/2: the series where
    |t - 1| < 1e-6, arcsinh where t > 1, arccos otherwise, and each
    transcendental is evaluated only on its own branch's elements
    (`_by_branch`).
    """
    a = np.asarray(a, dtype=float)
    d = np.asarray(d, dtype=float)
    t = np.asarray((a + d) / 2.0)
    if np.any(t <= _TRACE_FLOOR / 2.0):  # t <= -1 + 5e-7
        bad = float(np.min(t))
        raise LogDomain(f"trace/2 = {bad} <= -1 + 5e-7 in array log")
    small = np.abs(t - 1.0) < 1e-6
    hyp = ~small & (t > 1.0)
    ell = ~(small | hyp)
    (kappa,) = _by_branch(t, ((ell, _log_elliptic, 0.0), (hyp, _log_hyperbolic, 2.0),
                              (small, _log_series, 1.0)))
    return kappa * (a - t), kappa * np.asarray(b, dtype=float), kappa * np.asarray(c, dtype=float)


# -- long products: one kernel, exact power-of-two rescaling --------------------

LN2 = math.log(2.0)
# steps between rescales: the scans rescale after every 16 steps, tree_product
# at the levels whose nodes span a multiple of 16 steps.  One growth condition
# keeps the bits of both those of rescaling after every product: 16
# consecutive steps grow by less than 2^500, so no entry of a partial product,
# nor its sigma1, overflows.  The tree's raw inputs may break it, so a tree
# whose root comes out non-finite restarts with every level rescaled
_STRIDE = 16


def _mul(a1, b1, c1, d1, a0, b0, c0, d0, out=None):
    """[[a1, b1], [c1, d1]] @ [[a0, b0], [c0, d0]], entrywise over arrays or floats.

    With `out`, four arrays of the result's shape and a temporary of that
    shape, the same products and sums are written into the four, which are
    returned.
    """
    if out is None:
        return a1 * a0 + b1 * c0, a1 * b0 + b1 * d0, c1 * a0 + d1 * c0, c1 * b0 + d1 * d0
    *res, tmp = out
    for r, (x1, x0, y1, y0) in zip(res, ((a1, a0, b1, c0), (a1, b0, b1, d0),
                                          (c1, a0, d1, c0), (c1, b0, d1, d0))):
        np.multiply(x1, x0, out=r)
        np.multiply(y1, y0, out=tmp)
        np.add(r, tmp, out=r)
    return tuple(res)


def rescale(a, b, c, d):
    """Entry arrays times 2^-e with the largest |entry| in [0.5, 1), and e."""
    _, e = np.frexp(np.maximum(np.maximum(np.abs(a), np.abs(b)),
                               np.maximum(np.abs(c), np.abs(d))))
    return np.ldexp(a, -e), np.ldexp(b, -e), np.ldexp(c, -e), np.ldexp(d, -e), e


def _rescale_into(m, tmp, ex):
    """`rescale` of the four entry arrays m in place, through a float
    temporary and an int exponent array of their shape; returns the exponent
    sums along the last axis."""
    a, b, c, d = m
    # the largest |entry| is max(a, b, c, d, -min(a, b, c, d)): no |.| arrays
    np.minimum(a, b, out=tmp)
    np.minimum(tmp, c, out=tmp)
    np.minimum(tmp, d, out=tmp)
    np.negative(tmp, out=tmp)
    for v in m:
        np.maximum(tmp, v, out=tmp)
    np.frexp(tmp, out=(tmp, ex))
    k = ex.sum(axis=-1)
    np.negative(ex, out=ex)
    for v in m:
        np.ldexp(v, ex, out=v)
    return k


def log_norm(a, b, c, d, e):
    """log sigma1(2^e [[a, b], [c, d]]), entrywise over arrays or floats.

    sigma1 scales exactly with the entries.  The power of two of the largest
    |entry| is split off before the squares (`rescale`), and sigma1's own
    before the log, so the squares stay finite at any finite entries and
    every power-of-two scaling of the same product gives the same bits.  A
    mantissa matrix, largest |entry| in [0.5, 1), is not scaled at all.
    """
    a, b, c, d, k0 = rescale(a, b, c, d)
    m, k = np.frexp(general_operator_norm(a, b, c, d))
    return np.log(m) + (e + k0 + k) * LN2


def scan_product(a, b, c, d):
    """M_{n-1} ... M_0 of one sequence of entries (index 0 applied first).

    Pure-Python floats, one step at a time.  Returns (pa, pb, pc, pd, E): the
    product is 2^E times the mantissa matrix.  Bitwise equal to the unscaled
    product times 2^-E while that does not overflow, and to scan_lanes.  The
    step is `_mul`'s expressions and the rescale `rescale`'s, written out
    inline: a function call per step costs about a fifth of the loop.  A
    step updates the product one column at a time, (pa, pc) and then
    (pb, pd), as two pair assignments, which CPython makes without building
    a tuple: the same expressions in the same order, and about a tenth less
    time on 800 steps than one four-tuple assignment.
    """
    a, b, c, d = (np.asarray(v, dtype=float).tolist() for v in (a, b, c, d))
    pa, pb, pc, pd, e = 1.0, 0.0, 0.0, 1.0, 0
    for s in range(0, len(a), _STRIDE):
        t = s + _STRIDE
        for na, nb, nc, nd in zip(a[s:t], b[s:t], c[s:t], d[s:t]):
            pa, pc = na * pa + nb * pc, nc * pa + nd * pc
            pb, pd = na * pb + nb * pd, nc * pb + nd * pd
        _, k = math.frexp(max(abs(pa), abs(pb), abs(pc), abs(pd)))
        pa, pb, pc, pd = (math.ldexp(pa, -k), math.ldexp(pb, -k),
                          math.ldexp(pc, -k), math.ldexp(pd, -k))
        e += k
    return pa, pb, pc, pd, e


def scan_lanes(fetch, lanes: int, n: int, running: bool = False):
    """scan_product for each of `lanes` rows of n steps, vectorized over rows.

    fetch(start, count) returns the entries (a, b, c, d) of steps start ..
    start + count - 1 as four (lanes, count) arrays, zero strides allowed.
    It is called once per group of _STRIDE steps, in order, so a caller can
    mask, overlay or gather each group without materialising all n steps.
    Returns ((pa, pb, pc, pd, E), logs): per-row mantissas and exponents,
    and with `running` the (lanes, n+1) array of log ||M_{j-1} ... M_0||,
    j = 0..n (None otherwise).  Row i is bitwise equal to scan_product of
    row i.

    A group is one (g, 2, 2, lanes) block of steps, each step's 2x2 lane
    matrices contiguous.  A step is three ufunc calls over the (2, 2, lanes)
    product P: M[:, :1] P[:1], M[:, 1:] P[1:] and their sum, which are
    `_mul`'s products and sums in `_mul`'s order.  Step j writes its product
    into slot j of a second block and reads its P from slot j - 1, the last
    slot standing for the product before the group, so the views of every
    step are made once.  A running scan then takes one `log_norm` pass per
    group over the kept products, before the group's rescale: one max of
    |P| over the 2x2 axes, one frexp and one ldexp, as in `rescale`.
    """
    block = np.empty((_STRIDE, 2, 2, lanes))
    kept = np.zeros((_STRIDE, 2, 2, lanes))
    kept[-1, 0, 0] = kept[-1, 1, 1] = 1.0  # the product before the first group
    t0, t1 = np.empty((2, 2, lanes)), np.empty((2, 2, lanes))
    steps = [(m[:, :1], m[:, 1:], kept[j - 1][:1], kept[j - 1][1:], kept[j])
             for j, m in enumerate(block)]
    slots = (block[:, 0, 0], block[:, 0, 1], block[:, 1, 0], block[:, 1, 1])
    e = np.zeros(lanes, dtype=np.int64)
    logs = np.zeros((lanes, n + 1)) if running else None
    p = kept[-1]
    for s in range(0, n, _STRIDE):
        g = min(_STRIDE, n - s)  # only the last group can be short
        for slot, v in zip(slots, fetch(s, g)):
            slot[:g] = np.transpose(v)
        for m0, m1, p0, p1, out in steps[:g]:
            np.multiply(m0, p0, out=t0)
            np.multiply(m1, p1, out=t1)
            np.add(t0, t1, out=out)
        if running:
            q = kept[:g]
            logs[:, s + 1:s + g + 1] = log_norm(q[:, 0, 0], q[:, 0, 1], q[:, 1, 0], q[:, 1, 1], e).T
        p = kept[g - 1]
        _, k = np.frexp(np.abs(p).max(axis=(0, 1)))
        np.ldexp(p, -k, out=p)
        e += k
    return (*(v.copy() for v in (p[0, 0], p[0, 1], p[1, 0], p[1, 1])), e), logs


def _level_sets(lanes: int, n: int):
    """The calling worker's two buffer sets for a tree over (lanes, n) entries.

    A set is five float arrays, four entry arrays and a product temporary,
    with an int exponent array of the same size.  The first set holds level
    1, the second level 2, each with a spare column per lane; later levels
    alternate between them.  A set too small for this tree is replaced by
    one of the size it needs.
    """
    sets = scratch().setdefault("tree_levels", [None, None])
    for i, width in enumerate(((n + 1) // 2, (n + 3) // 4)):
        size = lanes * (width + 1)
        if sets[i] is None or sets[i][1].size < size:
            sets[i] = ([np.empty(size) for _ in range(5)], np.empty(size, dtype=np.intc))
    return sets


def tree_product(a, b, c, d):
    """Ordered products along the last axis of (L, n) arrays, pairwise.

    Pairs combine as M[2k+1] @ M[2k] (index 0 applied first), and an odd level
    is padded with the identity on the late side.  Only the levels whose nodes
    span a multiple of _STRIDE steps, and the root, are rescaled; the levels
    between run `_mul` alone.  Under _STRIDE's growth condition no entry
    overflows, so the bits are those of rescaling every level.  The raw inputs
    are not bounded, and a non-finite entry persists through every product and
    rescale to the root: a non-finite root restarts the same loop with every
    level rescaled.  The reduction order is fixed, independent of chunking or
    thread counts.  Returns per-lane (pa, pb, pc, pd, E) like scan_lanes, as
    new arrays.

    Every level is written, with numpy `out=`, into the two buffer sets of
    `_level_sets`, level 1 into the first, level 2 into the second, and so
    on alternately.  A worker keeps them for its next trees
    (`_parallel.scratch`), so a long sweep's many trees allocate nothing per
    level.  A level is stored in rows of even length: an odd level's spare
    column holds the identity, its pad, so the next level pairs whole rows,
    which numpy runs as one strided loop.  An odd n pads the caller's input
    instead by writing its last column as I @ M[n-1], the products and sums
    of the padded pair.
    """
    L, n = a.shape
    sets = _level_sets(L, n)
    # the strided pass overflows quietly; the restart warns as numpy is set to
    for stride, quiet in ((_STRIDE, "ignore"), (1, None)):
        m, w, e, level = (a, b, c, d), n, np.zeros(L, dtype=np.int64), 0
        with np.errstate(over=quiet, invalid=quiet):
            while w > 1:
                h = (w + 1) // 2
                rows, ex = sets[level % 2]
                row = h + h % 2
                out = [r[:L * row].reshape(L, row) for r in rows[:4]]
                tmp = rows[4][:L * h].reshape(L, h)
                if m[0].shape[1] % 2 == 0:  # a buffer's rows, or an even n
                    _mul(*(v[:, 1::2] for v in m), *(v[:, 0::2] for v in m),
                         out=[o[:, :h] for o in out] + [tmp])
                else:
                    _mul(*(v[:, 1::2] for v in m), *(v[:, 0:w - 1:2] for v in m),
                         out=[o[:, :h - 1] for o in out] + [tmp[:, :h - 1]])
                    _mul(1.0, 0.0, 0.0, 1.0, *(v[:, w - 1] for v in m),
                         out=[o[:, h - 1] for o in out] + [tmp[:, h - 1]])
                if h % 2:
                    for o, one in zip(out, (1.0, 0.0, 0.0, 1.0)):
                        o[:, h] = one
                m, w = out, h
                level += 1
                if (1 << level) % stride == 0 or h == 1:
                    e += _rescale_into([o[:, :h] for o in m], tmp,
                                       ex[:L * h].reshape(L, h))
        if all(np.isfinite(v[:, 0]).all() for v in m):
            break
    return (*(v[:, 0].copy() for v in m), e)
