import json
from fractions import Fraction

import numpy as np
import pytest

from cocyclelab import basedyn as bd
from cocyclelab import towers as tw
from cocyclelab.errors import NotRepresentable, ShrinkExhausted
from cocyclelab.exact import QuadExt, min_orbit_gap


def measured_visit_frequency(rot, V, x0: float, n: int) -> float:
    """Oracle: direct Birkhoff visit count of one orbit."""
    return float(V.contains_floats(rot.orbit_floats(x0, n)).sum()) / n


class TestFrobenius:
    def test_n_equals_one(self):
        assert tw.frobenius_threshold(1) == 1

    def test_formula_small(self):
        assert tw.frobenius_threshold(3) == 6
        assert tw.frobenius_threshold(10) == 90

    def test_five_not_representable_for_n3(self):
        with pytest.raises(NotRepresentable):
            tw.decompose_height(5, 3)

    def test_formula_matches_dp(self):
        for N in range(2, 31):
            assert tw.frobenius_threshold(N) == tw.frobenius_threshold_dp(N)


class TestDecompose:
    def test_exact_heights(self):
        assert tw.decompose_height(10, 10) == (1, 0)
        assert tw.decompose_height(21, 10) == (1, 1)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(3)
        for N in (2, 3, 7, 11, 20):
            n1 = tw.frobenius_threshold(N)
            for n in rng.integers(n1, n1 + 1000, size=50):
                l, lp = tw.decompose_height(int(n), N)
                assert l >= 0 and lp >= 0
                assert l * N + lp * (N + 1) == n
                assert lp == n % N  # maximal-l' rule

    def test_unrepresentable(self):
        with pytest.raises(NotRepresentable):
            tw.decompose_height(7, 5)


class TestCastle:
    @pytest.mark.parametrize("mk,N", [("golden", 3), ("golden", 10), ("silver", 3),
                                      ("silver", 10), ("float", 3), ("float", 5),
                                      ("float", 10)])
    def test_contract(self, mk, N):
        if mk == "float":  # a double angle is the dyadic rational it is
            rot = bd.CircleRotation(0.7320508075688772)
        else:
            rot = getattr(bd.CircleRotation, mk)(grid_size=2048)
        castle = tw.build_castle(rot, N)
        assert sorted({t.height for t in castle.towers}) in ([N, N + 1], [N])
        # base endpoints live in the angle's field: QuadExt for golden/silver
        assert {type(p) for t in castle.towers for iv in t.base.intervals
                for p in iv} == {type(rot.alpha)}
        report = castle.verify()
        assert report["exact_tiling"] is True
        assert report["grid_covered"] is True
        assert report["return_times_ok"] is True

    def test_degenerate_height_one(self):
        rot = bd.CircleRotation.golden(grid_size=1024)
        castle = tw.build_castle(rot, 1)
        assert {t.height for t in castle.towers} <= {1, 2}
        castle.verify()

    def test_first_return_from_base_union_matches_heights(self):
        # directly measured return times from B equal the tower heights
        rot = bd.CircleRotation.golden(grid_size=2048)
        castle = tw.build_castle(rot, 5)
        B = castle.base_union()
        alpha = rot.alpha_float
        blo, bhi = B.float_breaks()
        rng = np.random.default_rng(11)
        for t in castle.towers:
            lo, hi = t.base.intervals[0]
            pts = rng.uniform(float(lo) + 1e-12, float(hi) - 1e-12, 40)
            for k in range(1, t.height + 1):
                pos = np.mod(pts + k * alpha, 1.0)
                idx = np.clip(np.searchsorted(blo, pos, side="right") - 1, 0, blo.size - 1)
                inb = (pos >= blo[idx]) & (pos < bhi[idx])
                assert inb.all() if k == t.height else not inb.any()

    def test_kac_identity(self):
        rot = bd.CircleRotation.silver(grid_size=1024)
        castle = tw.build_castle(rot, 7)
        total = sum(t.height * (float(hi) - float(lo))
                    for t in castle.towers for lo, hi in t.base.intervals)
        assert abs(total - 1.0) < 1e-12

    def test_csv_export(self, tmp_path):
        rot = bd.CircleRotation.golden(grid_size=1024)
        castle = tw.build_castle(rot, 4)
        path = tmp_path / "castle.csv"
        castle.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "base_lo,base_hi,height"
        assert len(lines) >= 1 + len(castle.towers)

    def test_sturmian_castle_clopen(self):
        st = bd.SturmianShift(bd.GOLDEN_MEAN, window_depth=8, grid_size=1024)
        castle = tw.build_castle(st, 3)
        castle.verify()


class TestFreqBound:
    def test_empty_set(self):
        rot = bd.CircleRotation.golden(grid_size=1024)
        fb = tw.visit_freq_bound(rot, [], 0.05)
        assert fb.sup_frequency == 0.0 and fb.V.is_empty()

    def test_single_point_golden(self):
        rot = bd.CircleRotation.golden(grid_size=1024)
        fb = tw.visit_freq_bound(rot, [0.0], 0.1)
        assert fb.sup_frequency < 0.1
        assert fb.V.contains(0.0)
        # certificate dominates measured Birkhoff frequencies over the range
        worst = 0.0
        for x0 in (0.0, 0.1234, 0.777, 1.0 - 1e-9):
            for n in (fb.n0, 2 * fb.n0, 8 * fb.n0):
                worst = max(worst, measured_visit_frequency(rot, fb.V, x0, n))
        assert worst <= fb.sup_frequency + 1e-12

    def test_limiting_frequency_scale(self):
        # by unique ergodicity the limiting frequency is the measure 2 rho,
        # and the certificate comes in at that scale
        rot = bd.CircleRotation.golden(grid_size=1024)
        fb = tw.visit_freq_bound(rot, [0.3], 0.1)
        assert 2 * fb.rho <= fb.sup_frequency <= 0.1
        long_freq = measured_visit_frequency(rot, fb.V, 0.05, 200_000)
        assert abs(long_freq - 2 * fb.rho) < 0.3 * (2 * fb.rho) + 1e-4

    def test_doubling_points_at_fixed_rho(self):
        rot = bd.CircleRotation.golden(grid_size=1024)
        f1 = tw.visit_freq_bound(rot, [0.0], 0.1, rho_start=0.001)
        f2 = tw.visit_freq_bound(rot, [0.0, 0.5], 0.1, rho_start=0.001)
        assert f1.rho == f2.rho
        assert f2.sup_frequency <= 2 * f1.sup_frequency + 1e-12

    def test_shrink_exhausted(self):
        rot = bd.CircleRotation.golden(grid_size=64)
        pts = list(np.arange(32) / 32.0)
        with pytest.raises(ShrinkExhausted):
            tw.visit_freq_bound(rot, pts, 1e-4)

    def test_reproducible_bitwise(self):
        rot = bd.CircleRotation.golden(grid_size=1024)
        a = tw.visit_freq_bound(rot, [0.1, 0.6], 0.05)
        b = tw.visit_freq_bound(rot, [0.1, 0.6], 0.05)
        assert a.sup_frequency == b.sup_frequency
        assert a.n0 == b.n0 and a.rho == b.rho

    def test_json_roundtrip(self, tmp_path):
        rot = bd.CircleRotation.golden(grid_size=1024)
        fb = tw.visit_freq_bound(rot, [0.25], 0.2)
        path = tmp_path / "freq.json"
        fb.to_json(path)
        data = json.loads(path.read_text())
        assert data["n0"] == fb.n0
        assert data["sup_frequency"] == fb.sup_frequency

    def test_gap_cache_keeps_float_and_exact_angles_apart(self, monkeypatch):
        # a float golden angle must not hand its float gap to the exact one,
        # whose castle test (hi - lo) < gap has to stay exact
        monkeypatch.setattr(tw, "_GAP_CACHE", {})
        tw.visit_freq_bound(bd.CircleRotation(float(bd.GOLDEN_MEAN)), [0.3], 0.1)
        gap = tw._min_gap_cached(bd.CircleRotation.golden().alpha, 21)
        assert isinstance(gap, QuadExt) and gap == min_orbit_gap(bd.GOLDEN_MEAN, 21)
        assert isinstance(tw._min_gap_cached(float(bd.GOLDEN_MEAN), 21), float)

    def test_packing_bound_floor_is_exact(self):
        # an interval a hair longer than k minimal gaps can hold k + 1 orbit
        # points; its float length-to-gap quotient often rounds below k
        tiny = Fraction(1, 10**30)
        for n in (50, 500, 5000):
            gap = min_orbit_gap(bd.GOLDEN_MEAN, n)
            for i in range(0, 16, 3):
                lo = QuadExt(Fraction(i, 16), 0, 5)
                for k in range(1, 30):
                    hi = lo + k * gap + tiny
                    if hi > 1:
                        break
                    bound = tw._packing_count_bound(bd.GOLDEN_MEAN, tw._pieces([(lo, hi)]), n)
                    assert bound == k + 1, (n, i, k)

    def test_packing_bound_is_rigorous(self):
        # the per-interval packing count dominates true counts for every x
        rot = bd.CircleRotation.golden(grid_size=1024)
        alpha = rot.alpha
        intervals = bd.norm_union([(Fraction(1, 5), Fraction(1, 5) + Fraction(1, 50))])
        rng = np.random.default_rng(7)
        for n in (50, 500, 5000):
            bound = tw._packing_count_bound(alpha, tw._pieces(intervals), n)
            for x0 in rng.uniform(0, 1, 5):
                pos = rot.orbit_floats(float(x0), n)
                cnt = int(((pos >= 0.2) & (pos < 0.22)).sum())
                assert cnt <= bound
