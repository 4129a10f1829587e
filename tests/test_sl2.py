import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cocyclelab import basedyn as bd
from cocyclelab import cocycle as cy
from cocyclelab import perturb as pb
from cocyclelab.errors import DegenerateAxes, DeterminantError, LogDomain
from cocyclelab.exact import QuadExt
from cocyclelab.sl2 import (
    Mat2,
    TangentVec,
    compose,
    exp_map,
    log_map,
    general_operator_norm,
    log_norm,
    log_sl2_arrays,
    operator_norm,
    rotation,
    scan_lanes,
    scan_product,
    singular_axes,
    singular_axes_arrays,
    tree_product,
)

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

    @KERNEL
    @given(seed=st.integers(0, 2**32 - 1), lanes=st.integers(1, 6), n=st.integers(0, 70),
           t_max=st.floats(0.0, 20.0))
    def test_lane_scan_equals_scalar_scan(self, seed, lanes, n, t_max):
        # step norms up to e^20 < 2^29: 16 steps between rescales stay below 2^500
        rng = np.random.default_rng(seed)
        ents = [v.reshape(lanes, n) for v in random_sl2(rng, lanes * n, t_max)]
        (*mant, e), logs = scan_lanes(*ents, running=True)
        for i in range(lanes):
            want = scan_product(*(v[i] for v in ents))
            assert tuple(float(v[i]) for v in mant) + (int(e[i]),) == want
            assert logs[i, n] == log_norm(*want)
            for j in range(n + 1):  # every running value is a scan of its prefix
                assert logs[i, j] == log_norm(*scan_product(*(v[i, :j] for v in ents)))

    @KERNEL
    @given(seed=st.integers(0, 2**32 - 1), lanes=st.integers(1, 4),
           log_block=st.integers(0, 4), n=st.integers(1, 49))
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

    def test_log_norms_batch_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        co = cy.Cocycle(bd.CircleRotation.golden(grid_size=64), cy.SchrodingerGenerator(0.3, 2.0))
        n = 3755
        anchors = np.array([0.05, 0.41, 0.77])
        # a small element budget forces several step chunks and the carried
        # product, each chunk in blocks: 1365 steps a chunk, 1024 a block, so
        # the chunks are 1024 + 341, 1024 + 341 and 1024 + 1 steps
        got = cy.log_norms_batch(co, anchors, n, max_elems=1 << 12)
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
