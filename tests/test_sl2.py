import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cocyclelab import _parallel
from cocyclelab import basedyn as bd
from cocyclelab import cocycle as cy
from cocyclelab import perturb as pb
from cocyclelab.errors import DeterminantError, LogDomain
from cocyclelab.exact import QuadExt, column_suffixes
from cocyclelab.sl2 import (
    Mat2,
    TangentVec,
    _mul,
    compose,
    exp_map,
    exp_traceless_arrays,
    log_map,
    general_operator_norm,
    log_norm,
    log_sl2_arrays,
    operator_norm,
    rescale,
    rotation,
    scan_lanes,
    scan_product,
    singular_axes_arrays,
    tree_product,
)
from oracles import exp_traceless_masked, log_sl2_masked, mpmath_log_norm
from sl2_axes import DegenerateAxes, singular_axes

# fixed examples, no example database: the suite stays reproducible
KERNEL = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def random_sl2(rng, count, t_max=3.0):
    """KAK sampling R(t1) diag(e^t, e^-t) R(t2); covers all of SL(2,R)."""
    t1 = rng.uniform(0, 2 * math.pi, count)
    t2 = rng.uniform(0, 2 * math.pi, count)
    t = rng.uniform(0.0, t_max, count)
    c1, s1, c2, s2 = np.cos(t1), np.sin(t1), np.cos(t2), np.sin(t2)
    e, f = np.exp(t), np.exp(-t)
    a = c1 * e * c2 - s1 * f * s2
    b = -c1 * e * s2 - s1 * f * c2
    c = s1 * e * c2 + c1 * f * s2
    d = -s1 * e * s2 + c1 * f * c2
    return a, b, c, d


def reference_tree_product(a, b, c, d):
    """tree_product with every level rescaled: the oracle for the strided tree."""
    e = np.zeros(a.shape[0], dtype=np.int64)
    while a.shape[1] > 1:
        if a.shape[1] % 2 == 1:
            a, b, c, d = (np.concatenate([v, np.full((v.shape[0], 1), one)], axis=1)
                          for v, one in zip((a, b, c, d), (1.0, 0.0, 0.0, 1.0)))
        a, b, c, d, k = rescale(*_mul(a[:, 1::2], b[:, 1::2], c[:, 1::2], d[:, 1::2],
                                       a[:, 0::2], b[:, 0::2], c[:, 0::2], d[:, 0::2]))
        e += k.sum(axis=1)
    return a[:, 0], b[:, 0], c[:, 0], d[:, 0], e


def matrix_distance(A: Mat2, B: Mat2) -> float:
    """Operator-norm distance ||A - B||."""
    return float(general_operator_norm(A.a - B.a, A.b - B.b, A.c - B.c, A.d - B.d))


def brute_norm_and_axis(m: Mat2, samples: int = 10_000):
    phi = np.arange(samples) * (2 * math.pi / samples)
    vx, vy = np.cos(phi), np.sin(phi)
    wx = m.a * vx + m.b * vy
    wy = m.c * vx + m.d * vy
    norms = np.hypot(wx, wy)
    k = int(np.argmax(norms))
    return float(norms[k]), float(phi[k])


def expm_taylor(M: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring exponential, independent of the closed form."""
    k = max(0, int(np.ceil(np.log2(max(np.abs(M).sum(), 1e-30)))) + 4)
    A = M / (2.0 ** k)
    out = np.eye(2)
    term = np.eye(2)
    for i in range(1, 24):
        term = term @ A / i
        out = out + term
    for _ in range(k):
        out = out @ out
    return out


class TestCompose:
    def test_identity(self):
        B = Mat2(1.5, 0.25, 0.5, (1 + 0.25 * 0.5) / 1.5)
        assert compose(Mat2.identity(), B) == B

    def test_diagonal(self):
        d = compose(Mat2(2, 0, 0, 0.5), Mat2(2, 0, 0, 0.5))
        assert d.entries() == (4.0, 0.0, 0.0, 0.25)

    def test_rotation_group_law(self):
        got = compose(rotation(math.pi / 3), rotation(math.pi / 6))
        want = ((0.0, -1.0), (1.0, 0.0))
        for g, wrow in zip((got.a, got.b, got.c, got.d), (0, -1, 1, 0)):
            assert abs(g - wrow) < 1e-12

    def test_rotation_additivity_random(self):
        rng = np.random.default_rng(3)
        for t1, t2 in rng.uniform(-6, 6, size=(50, 2)):
            got = rotation(t1) @ rotation(t2)
            want = rotation(t1 + t2)
            assert matrix_distance(got, want) < 1e-12

    def test_determinant_maintained_long_product(self):
        # rotation-dominated chain keeps entries bounded while dets churn
        shear = Mat2(1.0, 0.35, 0.0, 1.0)
        unshear = shear.inv()
        gens = (rotation(0.7), shear, rotation(-0.31), unshear)
        acc = Mat2.identity()
        for i in range(10**6):
            acc = gens[i & 3] @ acc
        assert abs(acc.det() - 1.0) <= 1e-6

    def test_hard_failure(self):
        with pytest.raises(DeterminantError):
            Mat2(2.0, 0.0, 0.0, 0.5000001)


class TestOperatorNorm:
    def test_diagonal(self):
        assert operator_norm(Mat2(2, 0, 0, 0.5)) == 2.0

    def test_rotations(self):
        for t in (0.0, 0.3, math.pi / 2, 2.5):
            assert operator_norm(rotation(t)) == 1.0

    def test_shear_golden_ratio(self):
        # largest eigenvalue of A^T A for [[1,1],[0,1]] via the quadratic formula
        got = operator_norm(Mat2(1, 1, 0, 1))
        lam = (3 + math.sqrt(5)) / 2
        assert abs(got - math.sqrt(lam)) < 1e-14
        assert abs(got - (1 + math.sqrt(5)) / 2) < 1e-12

    def test_against_gram_eigen_oracle(self):
        rng = np.random.default_rng(5)
        a, b, c, d = random_sl2(rng, 20_000)
        p = a * a + c * c
        q = b * b + d * d
        r = a * b + c * d
        lam = (p + q) / 2 + np.sqrt(((p - q) / 2) ** 2 + r * r)
        want = np.sqrt(lam)
        got = np.array([operator_norm(Mat2(*e)) for e in zip(a, b, c, d)])
        assert np.max(np.abs(got - want) / want) < 1e-10


class TestSingularAxes:
    def test_diagonal(self):
        ax = singular_axes(Mat2(2, 0, 0, 0.5))
        assert ax.u == (1.0, 0.0)
        assert ax.s == (0.0, 1.0)
        assert ax.norm == 2.0

    def test_example_family_axis(self):
        # R_{t+a} diag(2,1/2) R_{-t} expands along (cos t, sin t)
        for t, a in [(0.3, 0.5), (2.0, 1.1), (4.4, 0.01)]:
            m = rotation(t + a) @ Mat2(2, 0, 0, 0.5) @ rotation(-t)
            ax = singular_axes(m)
            want = (math.cos(t), math.sin(t))
            dot = abs(ax.u[0] * want[0] + ax.u[1] * want[1])
            assert abs(dot - 1.0) < 1e-12

    def test_rotation_degenerate(self):
        with pytest.raises(DegenerateAxes):
            singular_axes(rotation(math.pi / 4))

    def test_invariants_random(self):
        rng = np.random.default_rng(7)
        a, b, c, d = random_sl2(rng, 2_000, t_max=4.0)
        for e in zip(a, b, c, d):
            m = Mat2(*e)
            nrm = operator_norm(m)
            if nrm <= 1 + 1e-8:
                continue
            ax = singular_axes(m)
            assert abs(ax.u[0] * ax.s[0] + ax.u[1] * ax.s[1]) <= 1e-9
            au = m.apply(ax.u)
            as_ = m.apply(ax.s)
            assert abs(math.hypot(*au) - ax.norm) <= 1e-9 * ax.norm
            assert abs(math.hypot(*as_) - 1.0 / ax.norm) <= 1e-9 / ax.norm
            # A u is collinear with the contracting axis of A^{-1}
            s_inv = singular_axes(m.inv()).s
            cross = au[0] * s_inv[1] - au[1] * s_inv[0]
            assert abs(cross) / math.hypot(*au) <= 1e-9
            # norm times norm at the contracting axis is 1 (unimodularity)
            assert abs(ax.norm * math.hypot(*as_) - 1.0) <= 1e-8

    def test_brute_force_direction(self):
        rng = np.random.default_rng(9)
        a, b, c, d = random_sl2(rng, 200, t_max=2.5)
        for e in zip(a, b, c, d):
            m = Mat2(*e)
            if operator_norm(m) < 1.05:
                continue
            bn, bphi = brute_norm_and_axis(m)
            ax = singular_axes(m)
            ang = math.atan2(ax.u[1], ax.u[0])
            diff = abs((bphi - ang + math.pi / 2) % math.pi - math.pi / 2)
            assert diff <= 2 * math.pi * 1e-4

    def test_array_variant_agrees(self):
        rng = np.random.default_rng(13)
        a, b, c, d = random_sl2(rng, 500)
        ux, uy, sx, sy, nrm, deg = singular_axes_arrays(a, b, c, d)
        for i in range(a.size):
            if deg[i]:
                continue
            ax = singular_axes(Mat2(a[i], b[i], c[i], d[i]))
            assert abs(ux[i] - ax.u[0]) < 1e-9 and abs(uy[i] - ax.u[1]) < 1e-9
            assert abs(nrm[i] - ax.norm) / ax.norm < 1e-9


def reference_exp_traceless_arrays(t1, t2, t3):
    """exp_traceless_arrays as first written: every transcendental on every element."""
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


def reference_log_sl2_arrays(a, b, c, d):
    """log_sl2_arrays as first written: arcsinh and arccos on every element."""
    a = np.asarray(a, dtype=float)
    d = np.asarray(d, dtype=float)
    t = (a + d) / 2.0
    if np.any(t <= (-2.0 + 1e-6) / 2.0):
        raise LogDomain("trace/2 <= -1 + 5e-7 in array log")
    e = t - 1.0
    small = np.abs(e) < 1e-6
    ts = np.where(small, 2.0, t)
    up = np.sqrt(np.maximum(ts * ts - 1.0, 1e-300))
    un = np.sqrt(np.maximum(1.0 - ts * ts, 1e-300))
    kappa = np.where(
        small,
        1.0 - e / 3.0 + 2.0 * e * e / 15.0,
        np.where(ts > 1.0, np.arcsinh(up) / up, np.arccos(np.clip(ts, -1.0, 1.0)) / un),
    )
    return kappa * (a - t), kappa * np.asarray(b, dtype=float), kappa * np.asarray(c, dtype=float)


def _near(x):
    """x and its neighbours a few ulps away on either side."""
    return (st.integers(-4, 4).map(lambda k: x + k * float(np.spacing(x)))
            | st.just(float(np.nextafter(x, 0.0))))


# q = t1^2 + t2 t3 at 0, around the series threshold +-1e-8, and away from it
_Q = (st.sampled_from([0.0, 1e-8, -1e-8]) | _near(1e-8) | _near(-1e-8)
      | st.floats(-1e-7, 1e-7) | st.floats(-30.0, 30.0))
# trace/2 around 1 (the series threshold 1e-6 on either side), around -1 above
# the domain floor -1 + 5e-7, and across the domain
_T = (_near(1.0) | _near(1.0 + 1e-6) | _near(1.0 - 1e-6) | _near(-1.0 + 6e-7)
      | st.floats(1.0 - 1e-5, 1.0 + 1e-5) | st.floats(-0.99999, 8.0))


def _same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.shape(g) == np.shape(w) and np.array_equal(g, w)
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


class TestBranchKernels:
    """The array tangent-chart kernels evaluate each transcendental only on
    its own branch's elements, with the bits of evaluating all of them."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(_Q, st.floats(-3.0, 3.0) | st.just(0.0),
                              st.sampled_from([1.0, -1.0, 0.5, 4.0]) | st.floats(0.1, 8.0)),
                    min_size=1, max_size=48))
    def test_exp_equals_reference(self, rows):
        # t2 t3 = q - t1^2; with t1 = 0 and a power-of-two t2, q is hit exactly
        q, t1, t2 = (np.array(v) for v in zip(*rows))
        t3 = (q - t1 * t1) / t2
        _same_bits(exp_traceless_arrays(t1, t2, t3), reference_exp_traceless_arrays(t1, t2, t3))

    def test_exp_shapes(self):
        for args in ((0.1, 0.2, -0.3), (0.0, 0.0, 0.0), (0.0, 1.0, 1e-8), (0.0, 1.0, -1e-8),
                     ([[0.1, 0.2]], [[0.2], [0.1]], -0.3), (np.zeros((2, 3)), 1.0, 2.0)):
            _same_bits(exp_traceless_arrays(*args), reference_exp_traceless_arrays(*args))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(_T, st.floats(-2.0, 2.0), st.floats(-3.0, 3.0),
                              st.floats(-3.0, 3.0)), min_size=1, max_size=48))
    def test_log_equals_reference(self, rows):
        t, s, b, c = (np.array(v) for v in zip(*rows))
        a, d = t + s, t - s
        keep = (a + d) / 2.0 > (-2.0 + 1e-6) / 2.0  # inside the domain
        args = (a[keep], b[keep], c[keep], d[keep])
        _same_bits(log_sl2_arrays(*args), reference_log_sl2_arrays(*args))

    def test_log_shapes_and_domain(self):
        for args in ((1.0, 0.1, 0.0, 1.0), (2.0, 1.0, 1.0, 1.0), (0.3, 0.2, -0.1, -0.2),
                     ([[1.0, 2.0]], 0.5, 0.5, [[1.0], [0.99]])):
            _same_bits(log_sl2_arrays(*args), reference_log_sl2_arrays(*args))
        with pytest.raises(LogDomain):
            log_sl2_arrays([1.0, -1.0], 0.0, 0.0, [1.0, -1.0])


def _branch_draw(rng, kind, size, cuts, span):
    """size values on one side of the cut points, or across them: 'low'
    below cuts[0], 'mid' between the cuts, 'high' above cuts[1], 'mixed'
    all three with the cuts themselves and their neighbouring floats."""
    lo, hi = cuts
    pick = {"low": lambda k: rng.uniform(span[0], lo, k),
            "mid": lambda k: rng.uniform(lo, hi, k),
            "high": lambda k: rng.uniform(hi, span[1], k)}
    if kind != "mixed":
        return pick[kind](size)
    edges = [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(lo, np.inf),
             np.nextafter(hi, -np.inf), np.nextafter(hi, np.inf)]
    vals = np.concatenate([edges] + [pick[k](size) for k in ("low", "mid", "high")])
    return rng.permutation(vals)


class TestBranchesWithoutGathers:
    """exp_traceless_arrays and log_sl2_arrays run their largest branch on
    the whole array: the bits of the masked bodies (tests/oracles.py) on
    inputs of one branch and of all three, long enough for numpy's vector
    loops."""

    @KERNEL
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["low", "mid", "high", "mixed"]),
           size=st.sampled_from([1, 7, 300, 5000]))
    def test_exp_equals_masked(self, seed, kind, size):
        rng = np.random.default_rng(seed)
        q = _branch_draw(rng, kind, size, (-1e-8, 1e-8), (-30.0, 30.0))
        t1 = rng.uniform(-3.0, 3.0, q.size) * rng.integers(0, 2, q.size)  # half of them 0
        t2 = rng.choice([1.0, -1.0, 0.5, 4.0], q.size)
        t3 = (q - t1 * t1) / t2
        _same_bits(exp_traceless_arrays(t1, t2, t3), exp_traceless_masked(t1, t2, t3))

    @KERNEL
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["low", "mid", "high", "mixed"]),
           size=st.sampled_from([1, 7, 300, 5000]))
    def test_log_equals_masked(self, seed, kind, size):
        rng = np.random.default_rng(seed)
        t = _branch_draw(rng, kind, size, (1.0 - 1e-6, 1.0 + 1e-6), (-1.0 + 6e-7, 8.0))
        s = rng.uniform(-2.0, 2.0, t.size)
        a, d = t + s, t - s
        keep = (a + d) / 2.0 > (-2.0 + 1e-6) / 2.0  # inside the domain
        args = (a[keep], rng.uniform(-3.0, 3.0, t.size)[keep],
                rng.uniform(-3.0, 3.0, t.size)[keep], d[keep])
        _same_bits(log_sl2_arrays(*args), log_sl2_masked(*args))

    def test_twisted_table_entries_equal_masked(self, monkeypatch):
        """The table's steps are elliptic but for |q| < 1e-8 near its nodes:
        20,000 random points give the masked body's bits."""
        table = cy.twisted_table(1.2, 1024)
        xs = np.random.default_rng(0).random(20_000)
        got = table.entries(xs)
        monkeypatch.setattr(cy, "exp_traceless_arrays", exp_traceless_masked)
        _same_bits(got, table.entries(xs))


class TestTangentChart:
    def test_log_identity(self):
        v = log_map(Mat2.identity())
        assert (v.t1, v.t2, v.t3) == (0.0, 0.0, 0.0)

    def test_exp_diagonal_group(self):
        for t in (0.1, 1.0, -2.0):
            m = exp_map(TangentVec(t, 0.0, 0.0))
            assert abs(m.a - math.exp(t)) < 1e-12 * math.exp(abs(t))
            assert abs(m.d - math.exp(-t)) < 1e-12

    def test_log_domain(self):
        with pytest.raises(LogDomain):
            log_map(Mat2(-2.5, 0, 0, -0.4))

    def test_array_log_domain_matches_scalar(self):
        # the array log has log_map's domain, trace > -2 + 1e-6
        def array_log(m):
            return tuple(float(e[0]) for e in log_sl2_arrays(*([v] for v in m.entries())))

        want = log_map(rotation(2.5))  # trace -1.60
        got = array_log(rotation(2.5))
        assert max(abs(g - w) for g, w in zip(got, (want.t1, want.t2, want.t3))) < 1e-12
        for tr in (-2.0 + 2e-6, -2.0 + 0.5e-6):
            t = tr / 2.0
            m = Mat2(t, t * t - 1.0, 1.0, t)  # det 1, trace tr
            for log in (log_map, array_log):
                if tr > -2.0 + 1e-6:
                    log(m)
                else:
                    with pytest.raises(LogDomain):
                        log(m)
        # every interpolation step of this table is a rotation by 2.5 rad
        cy.TableGenerator(np.array([rotation(2.5 * k).entries() for k in range(64)]))

    def test_rotation_log(self):
        v = log_map(rotation(0.7))
        assert abs(v.t1) < 1e-15
        assert abs(v.t2 + 0.7) < 1e-12
        assert abs(v.t3 - 0.7) < 1e-12

    def test_roundtrip_near_identity(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        count = 0
        while count < 1000:
            t1, t2, t3 = rng.uniform(-0.25, 0.25, 3)
            m = exp_map(TangentVec(t1, t2, t3))
            if matrix_distance(m, Mat2.identity()) >= 0.5:
                continue
            count += 1
            back = exp_map(log_map(m))
            worst = max(worst, max(abs(x - y) for x, y in zip(back.entries(), m.entries())))
        assert worst < 1e-9

    def test_exp_against_scaling_squaring(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            t1, t2, t3 = rng.uniform(-1.5, 1.5, 3)
            got = exp_map(TangentVec(t1, t2, t3)).to_array()
            want = expm_taylor(np.array([[t1, t2], [t3, -t1]]))
            assert np.max(np.abs(got - want)) < 1e-9


class TestProductKernel:
    """The one product kernel: exact power-of-two rescaling, three paths."""

    @KERNEL
    @given(x0=st.floats(0.0, 1.0, exclude_max=True), energy=st.floats(-3.0, 3.0),
           coupling=st.floats(0.0, 2.5), n=st.integers(1, 120))
    def test_scan_equals_unscaled_product(self, x0, energy, coupling, n):
        # step norms stay below 9, so 9^120 ~ 1e114 never overflows
        co = cy.Cocycle(bd.CircleRotation.golden(grid_size=64),
                        cy.SchrodingerGenerator(energy, coupling))
        x = co.base.point(x0)
        *mant, e = scan_product(*co.generator.entries(co.orbit(x, n)))
        assert tuple(math.ldexp(v, e) for v in mant) == cy.iterate(co, x, n).entries()
        assert 0.5 <= max(abs(v) for v in mant) < 1.0

    @staticmethod
    def assert_rows_equal_scalar_scans(ents, running):
        """scan_lanes over the (L, n) arrays ents, fetched by slices, equals
        scan_product row by row, and every running log equals log_norm of
        the scan of its prefix."""
        lanes, n = ents[0].shape
        (*mant, e), logs = scan_lanes(lambda s, k: [v[:, s:s + k] for v in ents], lanes, n,
                                      running=running)
        for i in range(lanes):
            want = scan_product(*(v[i] for v in ents))
            assert tuple(float(v[i]) for v in mant) + (int(e[i]),) == want
            if not running:
                assert logs is None
                continue
            assert logs.shape == (lanes, n + 1)
            for j in range(n + 1):  # every running value is a scan of its prefix
                assert logs[i, j] == log_norm(*scan_product(*(v[i, :j] for v in ents)))

    @KERNEL
    @given(seed=st.integers(0, 2**32 - 1), lanes=st.integers(1, 6), n=st.integers(0, 70),
           t_max=st.floats(0.0, 20.0), running=st.booleans())
    # no step, one step, a group less one, one group, one step past it, two groups and one
    @example(seed=1, lanes=3, n=0, t_max=3.0, running=True)
    @example(seed=2, lanes=3, n=1, t_max=3.0, running=True)
    @example(seed=3, lanes=3, n=15, t_max=11.0, running=True)
    @example(seed=4, lanes=3, n=16, t_max=11.0, running=True)
    @example(seed=5, lanes=3, n=17, t_max=11.0, running=True)
    @example(seed=6, lanes=3, n=33, t_max=11.0, running=True)
    @example(seed=7, lanes=3, n=33, t_max=20.0, running=False)
    def test_lane_scan_equals_scalar_scan(self, seed, lanes, n, t_max, running):
        # step norms up to e^20 < 2^29: 16 steps between rescales stay below 2^500
        rng = np.random.default_rng(seed)
        ents = [v.reshape(lanes, n) for v in random_sl2(rng, lanes * n, t_max)]
        self.assert_rows_equal_scalar_scans(ents, running)

    @pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 33])
    def test_lane_scan_of_zero_stride_entries(self, n):
        """Schrodinger entries: b, c, d are broadcast constants with zero
        strides, as the generator returns them."""
        co = cy.Cocycle(bd.CircleRotation.golden(grid_size=64), cy.SchrodingerGenerator(0.3, 1.7))
        ents = co.entries_along(np.array([0.0, 0.137, 0.5, 0.91]), n)
        assert all(v.strides == (0, 0) for v in ents[1:])
        self.assert_rows_equal_scalar_scans(ents, running=True)

    def test_lane_scan_fetches_each_group_once(self):
        """fetch sees the groups of _STRIDE steps in order, the last one short."""
        calls = []
        ents = [v.reshape(2, 40) for v in random_sl2(np.random.default_rng(9), 80)]

        def fetch(s, k):
            calls.append((s, k))
            return [v[:, s:s + k] for v in ents]

        scan_lanes(fetch, 2, 40, running=True)
        assert calls == [(0, 16), (16, 16), (32, 8)]

    def test_running_log_of_a_fast_group(self):
        """16 steps of diag(2^20, 2^-20): the running log at step j is 20 j log 2,
        and step 13's product, 2^260, is still far inside _STRIDE's bound."""
        ents = [np.full((1, 16), v) for v in (2.0**20, 0.0, 0.0, 2.0**-20)]
        with np.errstate(over="ignore", invalid="ignore"):
            _, logs = scan_lanes(lambda s, k: [v[:, s:s + k] for v in ents], 1, 16, running=True)
        assert np.allclose(logs[0], 20 * np.arange(17) * math.log(2.0), rtol=1e-12)

    @KERNEL
    @given(seed=st.integers(0, 2**32 - 1), lanes=st.integers(1, 4), n=st.integers(1, 3000),
           t_max=st.sampled_from((0.0, 1.0, 3.0, 20.0)), stretch=st.sampled_from((None, 1e30)))
    @example(seed=1, lanes=2, n=1, t_max=3.0, stretch=None)  # no level at all
    @example(seed=2, lanes=2, n=2, t_max=3.0, stretch=None)  # the root alone
    @example(seed=3, lanes=3, n=16, t_max=20.0, stretch=None)  # the root is the first checkpoint
    @example(seed=4, lanes=3, n=17, t_max=20.0, stretch=None)  # a checkpoint below the root
    @example(seed=5, lanes=1, n=255, t_max=3.0, stretch=None)
    @example(seed=6, lanes=2, n=257, t_max=3.0, stretch=None)
    @example(seed=7, lanes=4, n=2047, t_max=20.0, stretch=None)
    @example(seed=8, lanes=1, n=2049, t_max=1.0, stretch=None)
    # R(0.3) diag(1e30, 1e-30) overflows in 16 steps: the every-level restart
    @example(seed=0, lanes=1, n=4096, t_max=0.0, stretch=1e30)
    def test_strided_tree_equals_every_level_tree(self, seed, lanes, n, t_max, stretch):
        # step norms up to e^20 < 2^29: 16 steps between rescales stay below 2^500
        if stretch is None:
            ents = random_sl2(np.random.default_rng(seed), lanes * n, t_max)
        else:
            r = rotation(0.3)
            ents = (r.a * stretch, r.b / stretch, r.c * stretch, r.d / stretch)
        ents = [np.broadcast_to(v, lanes * n).reshape(lanes, n) for v in ents]
        for g, w in zip(tree_product(*ents), reference_tree_product(*ents)):
            assert g.tobytes() == w.tobytes()  # signed zeros count too

    @KERNEL
    @given(seed=st.integers(0, 2**32 - 1),
           shapes=st.lists(st.tuples(st.integers(1, 5), st.integers(1, 700)),
                           min_size=2, max_size=6))
    @example(seed=1, shapes=[(64, 1808), (64, 3), (2, 4097), (64, 1808)])
    def test_worker_trees_reuse_buffers(self, seed, shapes):
        """One worker's trees, shapes growing and shrinking, share its level
        buffers: each equals the every-level tree, and no result changes
        when a later tree overwrites the buffers.  The buffers end with the
        outermost ordered_map."""
        rng = np.random.default_rng(seed)
        trees = [[v.reshape(lanes, n) for v in random_sl2(rng, lanes * n, 20.0)]
                 for lanes, n in shapes]

        def run(_):
            got = []
            for ents in trees:
                got.append(tree_product(*ents))
                assert "tree_levels" in _parallel.scratch()
            return got, [tuple(v.tobytes() for v in g) for g in got]

        [(got, saved)] = _parallel.ordered_map(run, [0], workers=1)
        assert not hasattr(_parallel._worker, "scratch")
        for g, bits, ents in zip(got, saved, trees):
            assert tuple(v.tobytes() for v in g) == bits
            assert bits == tuple(w.tobytes() for w in reference_tree_product(*ents))

    def test_threads_keep_their_own_buffers(self):
        """Four pool threads, more than the CPUs, switching often, each
        reusing its own buffers over trees of other shapes."""
        rng = np.random.default_rng(41)
        trees = [[v.reshape(lanes, n) for v in random_sl2(rng, lanes * n, 20.0)]
                 for lanes, n in [(3, 1000), (5, 257), (1, 4097), (2, 33), (4, 2048), (3, 1)] * 4]
        want = [tree_product(*ents) for ents in trees]
        idents = set()

        def run(ents):
            idents.add(threading.get_ident())
            return tree_product(*ents)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            got = _parallel.ordered_map(run, trees, workers=4)
        finally:
            sys.setswitchinterval(interval)
        assert threading.get_ident() not in idents
        for g, w in zip(got, want, strict=True):
            assert [v.tobytes() for v in g] == [v.tobytes() for v in w]

    def test_restart_after_warm_call(self):
        # R(0.3) diag(1e30, 1e-30) overflows in 16 steps: the every-level
        # restart, here in buffers that a strided tree has just used
        r = rotation(0.3)
        stretched = [np.full((2, 4096), v) for v in (r.a * 1e30, r.b / 1e30, r.c * 1e30, r.d / 1e30)]
        warm = [v.reshape(2, 3000) for v in random_sl2(np.random.default_rng(5), 6000)]

        def run(_):
            tree_product(*warm)
            return tree_product(*stretched)

        [got] = _parallel.ordered_map(run, [0], workers=1)
        for g, w in zip(got, reference_tree_product(*stretched)):
            assert g.tobytes() == w.tobytes()

    def test_second_tree_allocates_no_levels(self):
        ents = [v.reshape(64, 4096) for v in random_sl2(np.random.default_rng(6), 64 * 4096)]

        def run(_):
            tree_product(*ents)
            tracemalloc.start()
            try:
                tree_product(*ents)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        [peak] = _parallel.ordered_map(run, [0], workers=1)
        assert peak < ents[0].nbytes / 8

    @KERNEL
    @given(seed=st.integers(0, 2**32 - 1), lanes=st.integers(1, 4),
           log_block=st.integers(0, 6), n=st.integers(1, 193))
    @example(seed=1, lanes=3, log_block=3, n=8)  # exactly one block
    @example(seed=2, lanes=3, log_block=3, n=9)  # one step past a block
    @example(seed=3, lanes=2, log_block=2, n=9)  # a partial last block of length 1
    @example(seed=4, lanes=2, log_block=2, n=11)  # a partial last block of length 3
    def test_blocked_tree_equals_tree_product(self, seed, lanes, log_block, n):
        block = 1 << log_block
        n = 1 + (n - 1) % (3 * block + 1)  # 1 to 3 blocks + 1 steps
        ents = [v.reshape(lanes, n) for v in random_sl2(np.random.default_rng(seed), lanes * n)]
        got = cy._blocked_tree(lambda s, k: tuple(v[:, s:s + k] for v in ents), n, block)
        for g, w in zip(got, tree_product(*ents)):
            assert np.array_equal(g, w)

    def test_plan_log_norm_equals_verification(self):
        """plan_segments' batched scan and verify_segment's scalar scan agree bitwise."""
        co = cy.Cocycle(bd.CircleRotation.golden(grid_size=2048),
                        cy.SchrodingerGenerator(0.0, 1.2))
        rng = np.random.default_rng(3)
        pts = [co.base.point(float(u)) for u in rng.uniform(0, 1, size=12)]
        # the window choose_steering_window finds for this input at eps = 0.18
        lo, hi = Fraction(9598985, 26542848), Fraction(10930249, 26542848)
        W = bd.Cell.from_union([(QuadExt(lo, 0, 5), QuadExt(hi, 0, 5))])
        steered = pb.plan_segments(co, pts, 0.18, 800, W, 33, 12)
        early = pb.plan_segments(co, pts, 0.3, 50, W, 25, 6)
        assert all(isinstance(p.branch, pb.Steered) for p in steered)
        assert all(isinstance(p.branch, pb.EarlyExit) for p in early)
        for plan in steered + early:
            assert plan.product_log_norm == pb.verify_segment(co, plan).product_log_norm

    def test_log_norms_batch_against_mpmath(self, monkeypatch):
        mpmath = pytest.importorskip("mpmath")
        co = cy.Cocycle(bd.CircleRotation.golden(grid_size=64), cy.SchrodingerGenerator(0.3, 2.0))
        n = 3755
        anchors = np.array([0.05, 0.41, 0.77])
        # a small element budget forces several step chunks and the carried
        # product, each chunk in blocks: 1365 steps a chunk, 1024 a block, so
        # the chunks are 1024 + 341, 1024 + 341 and 1024 + 1 steps
        monkeypatch.setattr(cy, "_MAX_ELEMS", 1 << 12)
        got = cy.log_norms_batch(co, anchors, n)
        with mpmath.workdps(50):
            for x0, val in zip(anchors, got):
                a, b, c, d = (np.asarray(v, dtype=float).tolist()
                              for v in co.generator.entries(co.base.orbit_floats(x0, n)))
                pa, pb_, pc, pd = (mpmath.mpf(v) for v in (1, 0, 0, 1))
                for na, nb, nc, nd in zip(a, b, c, d):
                    pa, pb_, pc, pd = (na * pa + nb * pc, na * pb_ + nb * pd,
                                       nc * pa + nd * pc, nc * pb_ + nd * pd)
                g = pa * pa + pb_ * pb_ + pc * pc + pd * pd
                det = pa * pd - pb_ * pc
                ref = mpmath.log(mpmath.sqrt((g + mpmath.sqrt((g - 2 * det) * (g + 2 * det))) / 2))
                assert abs(float(ref) - float(val)) <= 1e-12 * n


class TestColumnSuffixes:
    """`exact.column_suffixes` against suffix products in Fractions and log
    sigma1 in mpmath."""

    @KERNEL
    @given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 40), spread=st.integers(0, 60))
    @example(seed=1, h=1, spread=0)  # one matrix
    @example(seed=2, h=30, spread=60)  # entries 2^-60 .. 2^60 apart, and zeros
    def test_rows_and_bound(self, seed, h, spread):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(seed)
        ents = [v.copy() for v in random_sl2(rng, h, t_max=4.0)]
        scale = np.ldexp(1.0, rng.integers(-spread, spread + 1, h))
        ents[1] *= scale  # conjugation by diag(s, 1): still unimodular
        ents[2] /= scale
        ents[rng.integers(4)][rng.integers(h)] = 0.0
        rows, bound = column_suffixes(*(v.tolist() for v in ents))
        assert len(rows) == h
        exact = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        for j in range(h - 1, -1, -1):
            a, b, c, d = (Fraction(float(v[j])) for v in ents)
            exact = [[exact[0][0] * a + exact[0][1] * c, exact[0][0] * b + exact[0][1] * d],
                     [exact[1][0] * a + exact[1][1] * c, exact[1][0] * b + exact[1][1] * d]]
            *mant, e = rows[j]
            assert 0.5 <= max(abs(p) for p in mant) <= 1.0
            scaled = [x / Fraction(2) ** e for x in (*exact[0], *exact[1])]
            assert all(abs(Fraction(p) - x) <= Fraction(1, 2**53) for p, x in zip(mant, scaled))
        ref = mpmath_log_norm(*ents, dps=60)
        with mpmath.workdps(60):
            assert bound >= ref and float(bound - ref) <= 1e-14 * max(1.0, abs(bound))
