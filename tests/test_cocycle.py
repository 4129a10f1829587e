import dataclasses
import math
import threading
import time
import tracemalloc
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cocyclelab import _parallel
from cocyclelab import basedyn as bd
from cocyclelab import cli
from cocyclelab import cocycle as cy
from cocyclelab import perturb as pb
from cocyclelab import surgery as sg
from cocyclelab.basedyn import BasePoint
from cocyclelab.errors import CocycleLabError, Overflow
from cocyclelab.sl2 import Mat2, _mul, exp_traceless_arrays, log_norm, operator_norm, scan_product


# -- test-local helpers: sequential log-norms, empirical measures, witnesses -----


def log_norm_of_product(co: cy.Cocycle, x: BasePoint, n: int) -> float:
    """Overflow-safe log ||A_n(x)|| by the sequential sl2.scan_product."""
    if n < 1:
        raise CocycleLabError("need n >= 1")
    return float(log_norm(*scan_product(*co.generator.entries(co.orbit(x, n)))))


@dataclass(frozen=True)
class EmpiricalMeasure:
    """(1/n) sum of Dirac masses along the orbit of x."""

    x: BasePoint
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise CocycleLabError("empirical measure needs n >= 1")


def nu_average(co: cy.Cocycle, mu: EmpiricalMeasure, s: int) -> float:
    """Integral of log ||A_s|| against the block-truncated empirical measure.

    With m = floor(n/s): (1/(s m)) * sum_{j < s m} log ||A_s(f^j x)||.  By
    subadditivity it dominates (1/(s m)) * sum_{i < s} log ||A_{s m}(f^i x)||.
    """
    if not 1 <= s <= mu.n:
        raise CocycleLabError("need 1 <= s <= mu.n")
    m = mu.n // s
    anchors = co.orbit(mu.x, s * m)
    vals = cy.log_norms_batch(co, anchors, s)
    return float(vals.sum()) / (s * m)


def empirical_exponent(co: cy.Cocycle, mu: EmpiricalMeasure, s: int) -> float:
    """Per-step growth rate seen by the empirical measure at block size s."""
    return nu_average(co, mu, s) / s


def subexponential_witness_search(co: cy.Cocycle, eps: float, horizons: Sequence[int],
                                  grid: Optional[np.ndarray] = None):
    """First (x, n) with ||A_n(x)|| >= e^{eps n} at the sampled resolution, else None."""
    if eps <= 0:
        raise CocycleLabError("eps must be positive")
    xs = co.base.grid_floats() if grid is None else np.asarray(grid, dtype=float)
    for n in horizons:
        vals = cy.log_norms_batch(co, xs, int(n)) / int(n)
        k = int(np.argmax(vals))
        if vals[k] >= eps:
            return co.base.point(float(xs[k])), int(n)
    return None


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
        got = log_norm_of_product(co, co.base.point(0.25), 1000)
        assert abs(got - 1000 * math.log(2)) < 1e-9 * 1000

    def test_rotation_valued_zero(self):
        co = rotation_valued(winding=0.7)
        got = log_norm_of_product(co, co.base.point(0.77), 500)
        assert abs(got) < 1e-10

    def test_matches_direct_product(self):
        rng = np.random.default_rng(5)
        co = schrodinger(1.3)
        for _ in range(40):
            x = co.base.point(float(rng.uniform()))
            n = int(rng.integers(1, 200))
            direct = math.log(operator_norm(cy.iterate(co, x, n)))
            scaled = log_norm_of_product(co, x, n)
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
            v = log_norm_of_product(co, x, n)
            assert -1e-12 <= v <= n * s + 1e-9

    def test_subadditivity(self):
        rng = np.random.default_rng(13)
        co = schrodinger(2.0)
        for _ in range(40):
            x0 = float(rng.uniform())
            m, n = int(rng.integers(1, 120)), int(rng.integers(1, 120))
            x = co.base.point(x0)
            whole = log_norm_of_product(co, x, m + n)
            first = log_norm_of_product(co, x, m)
            second = log_norm_of_product(co, co.base.step(x, m), n)
            assert whole <= first + second + 1e-8


class TestLaneGroups:
    """Long sweeps chunk their lanes and steps with the same bits."""

    @pytest.mark.parametrize("lanes", [1, 3, 97])
    @pytest.mark.parametrize("family", ["schrodinger", "table"])
    def test_bits_independent_of_workers(self, monkeypatch, family, lanes):
        """Blocks of 2^9 elements give the bits of blocks of 2^13, and a
        sweep of them the same bits at --threads 1 and 2."""
        co = (schrodinger(1.3) if family == "schrodinger"
              else cy.Cocycle(golden(), cy.twisted_table(1.2, 256)))
        xs = np.random.default_rng(lanes).uniform(0.0, 1.0, lanes)
        # 2^13 elements fix the step chunks: 2730 steps for 3 lanes, 84 for
        # 97; n spans several, each split into many blocks of at most 2^9
        # elements (128 steps, 4 steps)
        n = {1: 5000, 3: 6000, 97: 300}[lanes]
        monkeypatch.setattr(cy, "_MAX_ELEMS", 1 << 13)
        whole = cy.log_norms_batch(co, xs, n)  # blocks of up to 2^13
        monkeypatch.setattr(cy, "_BLOCK_ELEMS", 1 << 9)
        blocked = cy.log_norms_batch(co, xs, n)
        swept = [_parallel.parallel_lanes(lambda sl: cy.log_norms_batch(co, sl, n), xs, threads)
                 for threads in (1, 2)]
        assert np.all(np.isfinite(whole)) and np.all(whole > 0.0)
        assert np.array_equal(blocked, whole)
        assert np.array_equal(swept[0], swept[1])

    @pytest.mark.parametrize("lanes,n", [(2048, 16), (3, 200_000), (96, 3 * 4096)],
                             ids=["probe", "estimate", "three-blocks"])
    def test_short_trees_stay_serial(self, monkeypatch, lanes, n):
        """A short tree is one lane chunk on one thread: the 16-step probe,
        the 3-lane exponent estimate (two blocks), 96 lanes over three blocks
        of 4096 steps."""
        calls = []
        real = cy.ordered_map

        def recording(fn, items, workers):
            items = list(items)
            calls.append(([g.size for g in items], workers))
            return real(fn, items, workers)

        monkeypatch.setattr(cy, "ordered_map", recording)
        cy.log_norms_batch(schrodinger(1.3), np.arange(lanes) / lanes, n)
        assert calls == [([lanes], 1)]

    @pytest.mark.parametrize("lanes,n,block", [
        (64, 10_000, 4096), (3, 200_000, 4096), (96, 245_761, 4096), (2048, 16, 256)],
        ids=["sweep-slice", "estimate", "direct-sweep", "probe"])
    def test_blocks_at_most_4096_steps(self, monkeypatch, lanes, n, block):
        """A block is at most 4096 steps, and each of these inputs is one
        lane chunk: one step loop over all its lanes, on the calling thread."""
        seen = []

        def record(co, g, n_, step_chunk, blk):
            seen.append((g.size, blk, threading.current_thread()))
            return np.zeros(g.size)

        monkeypatch.setattr(cy, "_lane_log_norms", record)
        cy.log_norms_batch(schrodinger(1.3), np.arange(lanes) / lanes, n)
        assert seen == [(lanes, block, threading.current_thread())]

    def test_tree_buffers_live_for_the_outermost_call(self, monkeypatch):
        """Every tree of a serial sweep writes into one set of buffers, and
        the sweep's return drops them, as does a top-level log_norms_batch."""
        seen = []
        real = cy.tree_product

        def spy(*ents):
            out = real(*ents)
            seen.append(_parallel.scratch()["tree_levels"][0][1])
            return out

        monkeypatch.setattr(cy, "tree_product", spy)
        co = schrodinger(1.3)
        xs = np.arange(128) / 128  # 64 slices of two lanes: 3 blocks and a top each
        cy.growth_sweep(co, 9000, xs, threads=1)
        assert len(seen) == 4 * 64 and all(s is seen[0] for s in seen)
        assert not hasattr(_parallel._worker, "scratch")
        seen.clear()
        cy.log_norms_batch(co, xs[:3], 9000)
        assert len(seen) == 4 and all(s is seen[0] for s in seen)
        assert not hasattr(_parallel._worker, "scratch")


class TestOrderedMap:
    @pytest.fixture
    def pools(self, monkeypatch):
        """max_workers of every pool _parallel starts."""
        started = []
        real = _parallel.ThreadPoolExecutor

        def counting(*args, **kwargs):
            started.append(kwargs["max_workers"])
            return real(*args, **kwargs)

        monkeypatch.setattr(_parallel, "ThreadPoolExecutor", counting)
        return started

    def test_results_in_item_order(self, pools):
        def slow_first(i):
            time.sleep(0.02 * (5 - i))
            return i * i
        assert _parallel.ordered_map(slow_first, range(6), 2) == [i * i for i in range(6)]
        assert pools == [2]

    def test_earliest_error_surfaces(self, pools):
        def fail(i):
            if i in (1, 3):
                time.sleep(0.1 if i == 1 else 0.0)  # the later item fails first
                raise ValueError(f"item {i}")
            return i
        with pytest.raises(ValueError, match="item 1"):
            _parallel.ordered_map(fail, range(5), 2)

    def test_serial_inside_parallel_lanes(self, monkeypatch, pools):
        co = cy.Cocycle(golden(), cy.twisted_table(1.2, 256))
        xs = np.arange(128) / 128  # 64 slices of two lanes
        # 2 lanes in 3072 elements: step chunks of 1536 in blocks of 128
        n = 300
        monkeypatch.setattr(cy, "_MAX_ELEMS", 3 * 1024)
        monkeypatch.setattr(cy, "_BLOCK_ELEMS", 1 << 8)
        want = np.concatenate([cy.log_norms_batch(co, xs[i:i + 2], n)
                               for i in range(0, 128, 2)])
        assert pools == []  # log_norms_batch runs on the calling thread
        for threads in (1, 2):
            pools.clear()
            got = _parallel.parallel_lanes(lambda sl: cy.log_norms_batch(co, sl, n), xs, threads)
            # parallel_lanes' own pool only: no pool inside its workers
            assert pools == ([] if threads == 1 else [2])
            assert np.array_equal(got, want)


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
        # the report of rotation_valued() at eps 0.1, n 50, as `growth-test` writes it
        _, rep = cy.uniform_growth_test(rotation_valued(), 0.1, 50)
        cli.main(["growth-test", "--out", str(tmp_path), "--generator.family=rotation",
                  "--generator.offset=0.048", "--eps=0.1", "--n=50", "--base.grid=1024"])
        lines = (tmp_path / "growth.csv").read_text().strip().splitlines()
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
            found = subexponential_witness_search(co, res.eps, [res.n, 4 * res.n, 64])
            assert found is not None

    def test_weak_coupling_inconclusive(self):
        res = cy.uh_certify(schrodinger(1.105))
        assert not isinstance(res, cy.Certificate)


class TestEmpirical:
    def test_constant_diag_any_s(self):
        co = const_diag()
        mu = EmpiricalMeasure(co.base.point(0.3), 64)
        for s in (1, 4, 8, 64):
            assert abs(empirical_exponent(co, mu, s) - math.log(2)) < 1e-12

    def test_proof_inequality_chain(self):
        # nu-average of log||A_s|| dominates the block-product average
        rng = np.random.default_rng(17)
        co = schrodinger(2.0)
        for _ in range(100):
            x = co.base.point(float(rng.uniform()))
            n = int(rng.integers(8, 200))
            s = int(rng.integers(1, max(2, n // 2)))
            mu = EmpiricalMeasure(x, n)
            m = n // s
            lhs = nu_average(co, mu, s)
            rhs = sum(log_norm_of_product(co, co.base.step(x, i), s * m)
                      for i in range(s)) / (s * m)
            assert lhs >= rhs - 1e-8

    def test_single_block(self):
        # s = n leaves one block of every orbit translate
        co = schrodinger(1.5)
        x = co.base.point(0.21)
        mu = EmpiricalMeasure(x, 32)
        got = empirical_exponent(co, mu, 32)
        want = sum(log_norm_of_product(co, co.base.step(x, j), 32)
                   for j in range(32)) / (32 * 32)
        assert abs(got - want) < 1e-10


class TestWitnessSearch:
    def test_constant_diag_found_everywhere(self):
        co = const_diag()
        for n in (10, 50, 200):
            found = subexponential_witness_search(co, 0.1, [n])
            assert found is not None and found[1] == n

    def test_rotation_none(self):
        co = rotation_valued()
        assert subexponential_witness_search(co, 0.1, [10, 100]) is None

    def test_schrodinger_found_at_half_exponent(self):
        co = schrodinger(5.0, grid=512)
        est = cy.lyapunov_estimate(co, co.base.point(0.1), 10**5)
        found = subexponential_witness_search(co, 0.5 * est, [64, 256])
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

    @pytest.mark.parametrize("make,match", [
        (lambda: cy.TableGenerator(np.ones((0, 4))), "shape"),
        (lambda: cy.twisted_table(1.2, 0), "shape"),
        (lambda: cy.TableGenerator(np.ones((3, 3))), "shape"),
        (lambda: cy.TableGenerator(np.array([[2.0, 0.0, 0.0, 3.0]])), "row 0 has det 6.0")],
        ids=["empty", "twisted-empty", "three-columns", "det-six"])
    def test_rejects_empty_or_misshapen_table(self, make, match):
        with pytest.raises(CocycleLabError, match=match):
            make()


# -- generator outputs: the old expressions as an oracle, and read-only callers ------


def oracle_entries(gen, xs):
    """The generators' entry expressions as they were before they wrote into
    their own buffers: every entry a full array, every step a new one."""
    xs = np.asarray(xs, dtype=float)
    if type(gen) is cy.ConstantGenerator:
        one = np.ones_like(xs)
        m = gen.mat
        return m.a * one, m.b * one, m.c * one, m.d * one
    if type(gen) is cy.RotationGenerator:
        th = 2.0 * math.pi * (gen.offset + gen.winding * xs)
        c, s = np.cos(th), np.sin(th)
        return c, -s, s, c
    if type(gen) is cy.SchrodingerGenerator:
        a = gen.energy - 2.0 * gen.coupling * np.cos(2.0 * math.pi * xs)
        one = np.ones_like(xs)
        return a, -one, one, np.zeros_like(xs)
    if type(gen) is cy.HopfRestrictionGenerator:
        th = 2.0 * math.pi * xs
        ca, sa = np.cos(th + gen.alpha), np.sin(th + gen.alpha)
        ct, st_ = np.cos(th), np.sin(th)
        return (2.0 * ca * ct + 0.5 * sa * st_, 2.0 * ca * st_ - 0.5 * sa * ct,
                2.0 * sa * ct - 0.5 * ca * st_, 2.0 * sa * st_ + 0.5 * ca * ct)
    assert type(gen) is cy.TableGenerator
    pos = (xs - np.floor(xs)) * gen.size
    idx = np.minimum(pos.astype(int), gen.size - 1)
    t = pos - idx
    t1, t2, t3 = (xi.take(idx) * t for xi in gen._xi)
    return _mul(*(col.take(idx) for col in gen._cols), *exp_traceless_arrays(t1, t2, t3))


_FAMILIES = {
    "constant": cy.ConstantGenerator(Mat2(2, 0, 0, 0.5)),
    "constant-rotation": cy.ConstantGenerator(Mat2(0.6, -0.8, 0.8, 0.6)),
    "rotation-still": cy.RotationGenerator(),
    "rotation": cy.RotationGenerator(0.05, 1.0),
    "rotation-winding": cy.RotationGenerator(0.3, -2.0),
    "schrodinger": cy.SchrodingerGenerator(0.0, 1.2),
    "schrodinger-energy": cy.SchrodingerGenerator(2.5, 3.0),
    "hopf": cy.HopfRestrictionGenerator(0.7),
    "table-one-row": cy.TableGenerator(np.array([[2.0, 0.0, 0.0, 0.5]])),
    "table": cy.TableGenerator(np.array([[2.0, 0.0, 0.0, 0.5], [1.0, 1.0, 0.0, 1.0],
                                         [1.0, 0.0, 1.0, 1.0]])),
    "twisted-table": cy.twisted_table(1.3, 512),
}

# positions at 0, just below 1, at 1.0, negative, and anywhere in [-4, 4]
_POSITIONS = st.sampled_from([0.0, -0.0, float(np.nextafter(1.0, 0.0)), 1.0, -1e-20, -0.25,
                              -1.0, -2.5]) | st.floats(-4.0, 4.0)
_SHAPES = st.sampled_from([(), (0,)]) | st.tuples(st.integers(1, 9)) \
    | st.tuples(st.integers(1, 4), st.integers(1, 9))


class TestEntriesMatchOracle:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(_FAMILIES)), hnp.arrays(np.float64, _SHAPES, elements=_POSITIONS),
           st.booleans())
    def test_bitwise(self, family, xs, transpose):
        """Every entry has the oracle's bits and xs's shape, shares no memory
        with xs, and xs is left as it was (a transposed xs is not contiguous)."""
        gen = _FAMILIES[family]
        xs = xs.T if transpose else xs
        before = xs.copy()
        got = gen.entries(xs)
        assert len(got) == 4
        for g, w in zip(got, oracle_entries(gen, before)):
            assert np.shape(g) == xs.shape
            assert np.asarray(g).tobytes() == np.asarray(w, dtype=float).tobytes()
            assert not np.shares_memory(g, xs)
        assert xs.tobytes() == before.tobytes()

    def test_known_entries_are_zero_stride_views(self):
        xs = np.linspace(0.0, 1.0, 64).reshape(4, 16)
        a, *rest = _FAMILIES["schrodinger"].entries(xs)
        assert a.flags.writeable and a.strides != (0, 0)
        for v, want in zip(rest, (-1.0, 1.0, 0.0)):
            assert v.strides == (0, 0) and not v.flags.writeable
            assert np.array_equal(v, np.full(xs.shape, want))
        for v in _FAMILIES["constant"].entries(xs):
            assert v.strides == (0, 0) and not v.flags.writeable


class ReadOnlyOutputs(cy.Generator):
    """A generator whose outputs are read-only copies of another's: a caller
    that writes into one raises."""

    def __init__(self, inner):
        self.inner = inner

    def entries(self, xs):
        outs = []
        for e in self.inner.entries(xs):
            e = np.array(e, dtype=float)
            e.setflags(write=False)
            outs.append(e)
        return tuple(outs)


def bits(value):
    """A comparable form of a result: arrays by their bytes, floats by hex,
    dataclasses field by field (a plan's cocycle left out)."""
    if isinstance(value, np.ndarray):
        return value.shape, value.dtype.str, value.tobytes()
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (list, tuple)):
        return tuple(bits(v) for v in value)
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(bits(getattr(value, f.name))
                                           for f in dataclasses.fields(value)
                                           if f.name != "_cocycle")
    return repr(value)


def outcome(fn):
    """bits of fn(), or the program's own error (a CocycleLabError) by type
    and message.  Any other exception, as a write into a read-only array
    raises, propagates."""
    try:
        return bits(fn())
    except CocycleLabError as e:
        return type(e).__name__, str(e)


class TestCallersDoNotWrite:
    """Every caller of a generator reads its outputs only: through read-only
    copies, each runs without error and with the same bits."""

    @staticmethod
    def runs(co):
        grid = co.base.grid_floats()
        W = bd.Cell.from_union([(0.36, 0.41)])
        pts = [co.base.point(float(u)) for u in np.random.default_rng(5).uniform(0, 1, 20)]

        def plans():
            ps = pb.plan_segments(co, pts, 0.18, 100, W, 40, 12)
            return [(p.to_text(), p) for p in ps], [pb.verify_segment(co, p) for p in ps]
        return [
            outcome(lambda: cy.log_norms_batch(co, np.linspace(0.0, 1.0, 7), 3000)),
            outcome(lambda: cy.growth_sweep(co, 500, threads=2)),
            outcome(lambda: cy.uh_certify(co, grid[::2])),
            outcome(lambda: pb.steer_direction(co, co.base.point(0.3), (1.0, 0.0), (0.0, 1.0),
                                               0.3, 40)),
            outcome(plans),
        ]

    @pytest.mark.parametrize("family", ["constant", "rotation", "schrodinger", "hopf", "table",
                                        "twisted-table"])
    def test_same_bits_through_read_only_outputs(self, family):
        base = golden(256)
        gen = _FAMILIES[family]
        want = self.runs(cy.Cocycle(base, gen))
        assert self.runs(cy.Cocycle(base, ReadOnlyOutputs(gen))) == want

    def test_surgery(self):
        grid = np.arange(8) / 8

        def run(gen):
            co = cy.Cocycle(golden(512), gen)
            cfg, pc, cert = sg.run_surgery(co, 0.5, verify_grid=grid)
            xs = co.base.grid_floats()
            return bits((cert, pc.block_logs, pc.sup_distance, pc.entries(xs), pc.bump(xs),
                         cfg.N, cfg.n0))
        gen = cy.twisted_table(1.2, 1024)
        assert run(ReadOnlyOutputs(gen)) == run(gen)
