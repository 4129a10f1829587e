import math
import tracemalloc

import numpy as np
import pytest

from cocyclelab import basedyn as bd
from cocyclelab import cli
from cocyclelab import cocycle as cy
from cocyclelab.errors import Overflow
from cocyclelab.sl2 import Mat2, operator_norm


def golden(grid=1024):
    return bd.CircleRotation.golden(grid_size=grid)


def const_diag(grid=1024):
    return cy.Cocycle(golden(grid), cy.ConstantGenerator(Mat2(2.0, 0.0, 0.0, 0.5)))


def rotation_valued(grid=1024, winding=0.0):
    return cy.Cocycle(golden(grid), cy.RotationGenerator(offset=0.048, winding=winding))


def schrodinger(lam, grid=1024, energy=0.0):
    return cy.Cocycle(golden(grid), cy.SchrodingerGenerator(energy, lam))


class TestIterate:
    def test_constant_diagonal_cube(self):
        co = const_diag()
        m = cy.iterate(co, co.base.point(0.3), 3)
        assert m.entries() == (8.0, 0.0, 0.0, 0.125)

    def test_zero_steps_identity(self):
        co = schrodinger(1.5)
        assert cy.iterate(co, co.base.point(0.2), 0) == Mat2.identity()

    def test_cocycle_identity_random(self):
        # entrywise error relative to the product scale (entries reach 1e10
        # at these horizons, so an absolute tolerance would be meaningless)
        rng = np.random.default_rng(2)
        co = schrodinger(1.5)
        worst = 0.0
        for _ in range(100):
            x0 = float(rng.uniform())
            m, n = int(rng.integers(1, 50)), int(rng.integers(1, 50))
            x = co.base.point(x0)
            lhs = cy.iterate(co, x, m + n)
            rhs = cy.iterate(co, co.base.step(x, m), n) @ cy.iterate(co, x, m)
            scale = max(1.0, max(abs(v) for v in lhs.entries()))
            worst = max(worst, max(abs(p - q) for p, q in
                                   zip(lhs.entries(), rhs.entries())) / scale)
        assert worst < 1e-8

    def test_overflow_raises(self):
        co = const_diag()
        with pytest.raises(Overflow):
            cy.iterate(co, co.base.point(0.1), 1200)


class TestLogNorms:
    def test_constant_diagonal_exact(self):
        co = const_diag()
        got = cy.log_norm_of_product(co, co.base.point(0.25), 1000)
        assert abs(got - 1000 * math.log(2)) < 1e-9 * 1000

    def test_rotation_valued_zero(self):
        co = rotation_valued(winding=0.7)
        got = cy.log_norm_of_product(co, co.base.point(0.77), 500)
        assert abs(got) < 1e-10

    def test_matches_direct_product(self):
        rng = np.random.default_rng(5)
        co = schrodinger(1.3)
        for _ in range(40):
            x = co.base.point(float(rng.uniform()))
            n = int(rng.integers(1, 200))
            direct = math.log(operator_norm(cy.iterate(co, x, n)))
            scaled = cy.log_norm_of_product(co, x, n)
            tree = float(cy.log_norms_batch(co, np.array([co.base.float_coords(x)[0]]), n)[0])
            assert abs(direct - scaled) <= 1e-8 * max(1.0, abs(direct))
            assert abs(direct - tree) <= 1e-8 * max(1.0, abs(direct))

    def test_peak_memory_flat_in_n(self):
        """The chunk tree is built block by block, so the traced peak of a
        96-lane sweep stays put while n grows fourfold."""
        co = cy.Cocycle(golden(), cy.twisted_table(1.2))
        xs = np.arange(96) / 96
        peaks = []
        for n in (1 << 15, 1 << 17):
            tracemalloc.start()
            try:
                cy.log_norms_batch(co, xs, n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0]

    def test_bounds_properties(self):
        # 0 <= log||A_n|| <= n log sup over random samples
        rng = np.random.default_rng(8)
        co = schrodinger(2.0)
        s = math.log(co.sup_norm)
        for _ in range(25):
            x = co.base.point(float(rng.uniform()))
            n = int(rng.integers(1, 300))
            v = cy.log_norm_of_product(co, x, n)
            assert -1e-12 <= v <= n * s + 1e-9

    def test_subadditivity(self):
        rng = np.random.default_rng(13)
        co = schrodinger(2.0)
        for _ in range(40):
            x0 = float(rng.uniform())
            m, n = int(rng.integers(1, 120)), int(rng.integers(1, 120))
            x = co.base.point(x0)
            whole = cy.log_norm_of_product(co, x, m + n)
            first = cy.log_norm_of_product(co, x, m)
            second = cy.log_norm_of_product(co, co.base.step(x, m), n)
            assert whole <= first + second + 1e-8


class TestLyapunov:
    def test_constant_diag_every_n(self):
        co = const_diag()
        for n in (1, 7, 100, 10**6):
            got = cy.lyapunov_estimate(co, co.base.point(0.4), n)
            assert abs(got - math.log(2)) < 1e-9

    def test_rotation_zero(self):
        co = rotation_valued()
        assert abs(cy.lyapunov_estimate(co, co.base.point(0.1), 10**6)) < 1e-3

    def test_schrodinger_lam5_positive_stable(self):
        co = schrodinger(5.0, grid=512)
        anchors = np.linspace(0.05, 0.95, 10)
        vals = np.array([cy.lyapunov_estimate(co, co.base.point(float(a)), 10**6)
                         for a in anchors])
        assert np.all(vals > 0)
        assert vals.max() - vals.min() < 2e-3
        again = cy.lyapunov_estimate(co, co.base.point(0.05), 2 * 10**6)
        assert abs(again - vals[0]) < 1e-3


class TestUniformGrowthTest:
    def test_rotation_passes(self):
        co = rotation_valued(winding=1.0)
        for eps in (0.01, 0.1):
            ok, rep = cy.uniform_growth_test(co, eps, 100)
            assert ok and rep.max < 1e-9

    def test_constant_diag_fails(self):
        co = const_diag()
        for n in (10, 200):
            ok, rep = cy.uniform_growth_test(co, 0.5, n)
            assert not ok
            assert abs(rep.max - math.log(2)) < 1e-12

    def test_report_csv(self, tmp_path):
        co = rotation_valued()
        _, rep = cy.uniform_growth_test(co, 0.1, 50)
        path = tmp_path / "growth.csv"
        rep.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,n,log_norm_over_n"
        assert len(lines) == 1 + rep.grid_size

    def test_pass_implies_small_exponent(self):
        # property-level restatement of (b) => (c) on uniquely ergodic bases
        cocycles = [rotation_valued(winding=0.3), schrodinger(0.4)]
        for co in cocycles:
            for eps, n in [(0.05, 200), (0.02, 400)]:
                ok, rep = cy.uniform_growth_test(co, eps, n)
                if ok:
                    est = cy.lyapunov_estimate(co, co.base.point(0.123), 10 * n)
                    assert est < eps + rep.margin + 1e-9


class TestUhCertify:
    def test_constant_diag_certificate(self):
        res = cy.uh_certify(const_diag())
        assert isinstance(res, cy.Certificate)
        assert abs(res.expansion - 2.0) < 1e-9

    def test_rotation_never_certificate(self):
        res = cy.uh_certify(cy.Cocycle(golden(), cy.RotationGenerator(offset=0.3 / (2 * math.pi))))
        assert isinstance(res, (cy.Witness, cy.Inconclusive))

    def test_hopf_example_certificate(self):
        alpha = 2 * math.pi * golden().alpha_float
        co = cy.Cocycle(golden(4096), cy.HopfRestrictionGenerator(alpha=alpha))
        res = cy.uh_certify(co)
        assert isinstance(res, cy.Certificate)
        assert res.expansion >= 2 - 1e-6

    def test_certificate_implies_growth_witness(self):
        # mutual exclusion: a certificate forces growth witnesses at its rate
        for co in (const_diag(), cy.Cocycle(golden(2048), cy.HopfRestrictionGenerator(
                alpha=2 * math.pi * golden().alpha_float))):
            res = cy.uh_certify(co)
            assert isinstance(res, cy.Certificate)
            found = cy.subexponential_witness_search(co, res.eps, [res.n, 4 * res.n, 64])
            assert found is not None

    def test_weak_coupling_inconclusive(self):
        res = cy.uh_certify(schrodinger(1.105))
        assert not isinstance(res, cy.Certificate)


class TestEmpirical:
    def test_constant_diag_any_s(self):
        co = const_diag()
        mu = cy.EmpiricalMeasure(co.base.point(0.3), 64)
        for s in (1, 4, 8, 64):
            assert abs(cy.empirical_exponent(co, mu, s) - math.log(2)) < 1e-12

    def test_proof_inequality_chain(self):
        # nu-average of log||A_s|| dominates the block-product average
        rng = np.random.default_rng(17)
        co = schrodinger(2.0)
        for _ in range(100):
            x = co.base.point(float(rng.uniform()))
            n = int(rng.integers(8, 200))
            s = int(rng.integers(1, max(2, n // 2)))
            mu = cy.EmpiricalMeasure(x, n)
            m = n // s
            lhs = cy.nu_average(co, mu, s)
            rhs = sum(cy.log_norm_of_product(co, co.base.step(x, i), s * m)
                      for i in range(s)) / (s * m)
            assert lhs >= rhs - 1e-8

    def test_single_block(self):
        # s = n leaves one block of every orbit translate
        co = schrodinger(1.5)
        x = co.base.point(0.21)
        mu = cy.EmpiricalMeasure(x, 32)
        got = cy.empirical_exponent(co, mu, 32)
        want = sum(cy.log_norm_of_product(co, co.base.step(x, j), 32)
                   for j in range(32)) / (32 * 32)
        assert abs(got - want) < 1e-10


class TestWitnessSearch:
    def test_constant_diag_found_everywhere(self):
        co = const_diag()
        for n in (10, 50, 200):
            found = cy.subexponential_witness_search(co, 0.1, [n])
            assert found is not None and found[1] == n

    def test_rotation_none(self):
        co = rotation_valued()
        assert cy.subexponential_witness_search(co, 0.1, [10, 100]) is None

    def test_schrodinger_found_at_half_exponent(self):
        co = schrodinger(5.0, grid=512)
        est = cy.lyapunov_estimate(co, co.base.point(0.1), 10**5)
        found = cy.subexponential_witness_search(co, 0.5 * est, [64, 256])
        assert found is not None


class TestEntriesAlong:
    @pytest.mark.parametrize("base", [golden(), cli.build_base(
        {"base": {"variant": "sturmian", "alpha": None, "grid": 1024}})],
        ids=["rotation", "sturmian"])
    def test_generator_at_orbit_positions(self, base):
        co = cy.Cocycle(base, cy.twisted_table(1.3, 512))
        xs = np.array([[0.1, 0.5, 0.9], [0.25, 0.75, 0.0]])
        got = co.entries_along(xs, 7, -3)
        want = co.generator.entries(base.orbit_floats(xs, 7, -3))
        for g, w in zip(got, want):
            assert g.shape == (2, 3, 7)
            assert np.array_equal(g, w)


class TestTableGenerator:
    def test_interpolation_stays_unimodular(self):
        gen = cy.twisted_table(1.3, 512)
        xs = np.random.default_rng(3).uniform(0, 1, 2000)
        a, b, c, d = gen.entries(xs)
        assert np.max(np.abs(a * d - b * c - 1.0)) < 1e-12

    def test_matches_samples_at_nodes(self):
        gen = cy.twisted_table(1.3, 512)
        xs = np.arange(512) / 512
        a, b, c, d = gen.entries(xs)
        th = 2 * math.pi * xs
        assert np.max(np.abs(a - 1.3 * np.cos(th))) < 1e-12
        assert np.max(np.abs(d - np.cos(th) / 1.3)) < 1e-12

    def test_positive_exponent_not_uh(self):
        co = cy.Cocycle(golden(512), cy.twisted_table(1.5, 512))
        est = cy.lyapunov_estimate(co, co.base.point(0.123), 10**5)
        assert est > 1e-3  # at least log((lam + 1/lam)/2) in the limit
        assert not isinstance(cy.uh_certify(co), cy.Certificate)
