import json
import math
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cocyclelab import basedyn as bd
from cocyclelab import cli
from cocyclelab import towers as tw
from cocyclelab.errors import (DisjointnessFailed, HorizonExceeded, NotRepresentable,
                               ShrinkExhausted)
from cocyclelab.exact import QuadExt, as_exact, best_denominators, min_orbit_gap, mod1
from disjoint import first_overlap


def sturmian(grid):
    """The golden Sturmian shift as the CLI builds it: the rotation by its slope."""
    return cli.build_base({"base": {"variant": "sturmian", "alpha": None, "grid": grid}})


def rotation(mk: str, grid: int = 2048):
    """The golden or silver rotation, or ("float") the dyadic rational a double angle is."""
    if mk == "float":
        return bd.CircleRotation(0.7320508075688772, grid_size=grid)
    return getattr(bd.CircleRotation, mk)(grid_size=grid)


def per_floor_tiling(castle) -> None:
    """Oracle for Castle.verify: build every floor f^j(B_t), j < h_t, exactly,
    sort them and require that they tile [0, 1) end to end, and that each
    base translated by its height lands inside the base union.  Raises
    DisjointnessFailed otherwise."""
    alpha = castle.system.alpha
    pieces, bad = first_overlap(
        p for t in castle.towers for p, _ in bd.column_floors(t.base.intervals, alpha, t.height))
    if bad is not None:
        raise DisjointnessFailed(f"floors overlap near {float(pieces[bad + 1][0])!r}")
    tiles = bool(pieces) and pieces[0][0] == 0 and pieces[-1][1] == 1 and all(
        hi1 == lo2 for (_, hi1), (lo2, _) in zip(pieces[:-1], pieces[1:]))
    if not tiles:
        raise DisjointnessFailed("floors do not tile [0, 1) exactly")
    B = castle.base_union().intervals
    for t in castle.towers:
        if bd.sub_union(bd.translate_union(t.base.intervals, mod1(t.height * alpha)), B):
            raise DisjointnessFailed(f"a base of height {t.height} does not return into B")


def full_report(castle) -> dict:
    return {"floors": sum(t.height for t in castle.towers), "exact_tiling": True,
            "return_times_ok": True}


TINY = Fraction(1, 2**60)
MUTATIONS = {  # one tower's (intervals, height) -> the mutated pair
    "base_shifted": lambda u, h: (((u[0][0] + TINY, u[0][1] + TINY),), h),
    "height_up": lambda u, h: (u, h + 1),
    "height_down": lambda u, h: (u, h - 1),
    "top_lowered": lambda u, h: (((u[0][0], u[0][1] - TINY),), h),
}


def mutated(castle, kind: str):
    """The castle with MUTATIONS[kind] applied to its middle one-interval tower."""
    towers = list(castle.towers)
    singles = [i for i, t in enumerate(towers) if len(t.base.intervals) == 1]
    k = singles[len(singles) // 2]
    u, h = MUTATIONS[kind](towers[k].base.intervals, towers[k].height)
    towers[k] = tw.Tower(bd.Cell(u), h)
    return tw.Castle(N=castle.N, towers=towers, system=castle.system)


def pieces_of(intervals) -> tuple:
    """(float lengths, exact length of piece i) of a list of intervals (lo, hi):
    the input of _packing_count_bound that `visit_freq_bound` gives it."""
    intervals = list(intervals)
    return (np.array([float(hi) - float(lo) for lo, hi in intervals], dtype=float),
            lambda i: as_exact(intervals[i][1]) - as_exact(intervals[i][0]))


def scalar_packing_count_bound(alpha, intervals, n: int) -> float:
    """The packing bound one piece at a time: the oracle for the array form."""
    if not intervals:
        return 0.0
    if n < 2:
        return float(len(intervals))
    exact_gap = min_orbit_gap(alpha, n)
    gap = float(exact_gap)
    total = 0.0
    for lo, hi in intervals:
        q = (float(hi) - float(lo)) / gap
        k = math.floor(q)
        tol = 2.0**-38 * (1.0 / gap + q)
        if math.floor(q - tol) != k or math.floor(q + tol) != k:
            k = math.floor((as_exact(hi) - as_exact(lo)) / exact_gap)
        total += k + 1.0
    return total


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
        assert tw.decompose_height(12, 3) == (4, 0)  # the least l', not (0, 3)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(3)
        for N in (2, 3, 7, 11, 20):
            n1 = tw.frobenius_threshold(N)
            for n in rng.integers(n1, n1 + 1000, size=50):
                l, lp = tw.decompose_height(int(n), N)
                assert l >= 0 and lp >= 0
                assert l * N + lp * (N + 1) == n
                assert lp == n % N  # the least l'

    def test_unrepresentable(self):
        with pytest.raises(NotRepresentable):
            tw.decompose_height(7, 5)


class TestCastle:
    @pytest.mark.parametrize("mk,N", [("golden", 3), ("golden", 10), ("silver", 3),
                                      ("silver", 10), ("float", 3), ("float", 5),
                                      ("float", 10)])
    def test_contract(self, mk, N):
        rot = rotation(mk)
        castle = tw.build_castle(rot, N)
        assert sorted({t.height for t in castle.towers}) in ([N, N + 1], [N])
        # base endpoints live in the angle's field: QuadExt for golden/silver
        assert {type(p) for t in castle.towers for iv in t.base.intervals
                for p in iv} == {type(rot.alpha)}
        assert castle.verify() == full_report(castle)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(["golden", "silver", "float"]), st.integers(1, 40),
           st.sampled_from([64, 1024, 4096, 10_000]))
    def test_verify_agrees_with_per_floor_oracle(self, mk, N, grid):
        castle = tw.build_castle(rotation(mk, grid), N)
        assert castle.report == castle.verify() == full_report(castle)
        per_floor_tiling(castle)

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(["golden", "silver", "float"]), st.integers(1, 300))
    @example("golden", 300)
    @example("float", 300)
    def test_one_inducing_cell_suffices(self, mk, N):
        """build_castle tries a single inducing cell; up to N = 300 its exact
        gap check holds and the castle tiles."""
        castle = tw.build_castle(rotation(mk, 1024), N)
        assert {t.height for t in castle.towers} <= {N, N + 1}
        assert castle.report == full_report(castle)

    @pytest.mark.parametrize("kind", sorted(MUTATIONS))
    @pytest.mark.parametrize("N", [1, 3, 10, 25])
    @pytest.mark.parametrize("mk", ["golden", "silver", "float"])
    def test_mutation_rejected(self, mk, N, kind):
        """A base moved by 2^-60 with its length kept (Kac cannot see it), a
        height off by one, or a base's upper end lowered by 2^-60: the
        tower-level check and the per-floor oracle both reject it."""
        bad = mutated(tw.build_castle(rotation(mk), N), kind)
        with pytest.raises(DisjointnessFailed):
            bad.verify()
        with pytest.raises(DisjointnessFailed):
            per_floor_tiling(bad)

    def test_rational_angle_needs_denominator_above_floor_pieces(self):
        """Rotation by 1/2 with one base [0, 1/4) of height 4: the bases are
        disjoint, f^4 fixes the base and Kac's sum is 1, yet the floors repeat.
        The denominator 2 does not exceed the 8 floor pieces, so verify
        refuses before the tower checks."""
        quarter = (Fraction(0), Fraction(1, 4))
        castle = tw.Castle(N=4, towers=[tw.Tower(bd.Cell((quarter,)), 4)],
                           system=SimpleNamespace(alpha=Fraction(1, 2)))
        with pytest.raises(DisjointnessFailed, match="denominator 2 does not exceed the 8"):
            castle.verify()
        with pytest.raises(DisjointnessFailed):
            per_floor_tiling(castle)

    def test_kac_sum_rejects_a_circle_covered_twice(self):
        """One tower on the whole circle with height 2: its return f^2 maps the
        base onto itself, so only Kac's sum, 2, sees the floors overlap."""
        rot = bd.CircleRotation.golden()
        whole = (rot.lift(0), rot.lift(1))
        castle = tw.Castle(N=2, towers=[tw.Tower(bd.Cell((whole,)), 2)], system=rot)
        with pytest.raises(DisjointnessFailed, match="Kac's sum is 2.0, not 1"):
            castle.verify()
        with pytest.raises(DisjointnessFailed):
            per_floor_tiling(castle)

    @pytest.mark.parametrize("reversed_copy", [False, True])
    def test_kac_sum_rejects_a_duplicated_tower(self, reversed_copy):
        """A one-piece tower listed twice: its returns still fill the base
        union, so only Kac's sum sees that its floors are covered twice.  A
        third copy with its piece reversed, (hi, lo), is empty: it must not
        take the copy's length back off the sum."""
        castle = tw.build_castle(bd.CircleRotation.golden(), 10)
        t = next(t for t in castle.towers if len(t.base.intervals) == 1)
        extra = [t] + [tw.Tower(bd.Cell((t.base.intervals[0][::-1],)), t.height)] * reversed_copy
        twice = tw.Castle(N=10, towers=castle.towers + extra, system=castle.system)
        with pytest.raises(DisjointnessFailed, match="Kac's sum is 1.0"):
            twice.verify()
        with pytest.raises(DisjointnessFailed):
            per_floor_tiling(twice)

    @pytest.mark.parametrize("N,floors", [(87, 57_314), (158, 150_050)])
    def test_large_castles_tile_exactly(self, N, floors):
        """The surgery's castles at eps = 0.5 and 0.4 are certified exactly."""
        castle = tw.build_castle(bd.CircleRotation.golden(grid_size=1024), N)
        assert castle.report == {"floors": floors, "exact_tiling": True,
                                 "return_times_ok": True}

    @pytest.mark.parametrize("mk,towers", [("golden", 8_542), ("silver", 9_924)])
    def test_castle_at_n_1335(self, mk, towers):
        """The coupling-2 surgery at eps = 0.21 needs N = 1,335: its castle
        builds and certifies exactly in under 2 s of CPU time."""
        start = time.process_time()
        castle = tw.build_castle(rotation(mk, 1024), 1335)
        assert time.process_time() - start < 2.0
        assert len(castle.towers) == towers and castle.report == full_report(castle)

    def test_return_bound_refuses_a_near_rational_angle(self, monkeypatch):
        """0.1234567891 is within 1.2e-9 of 10/81: at N = 10 the inducing cell's
        longest return is 24,125,429, beyond max(10^6, 64 n1), and build_castle
        refuses it at once instead of cutting millions of towers."""
        monkeypatch.setattr(tw, "decompose_height",
                            lambda n, N: pytest.fail(f"return {n} cut into towers"))
        start = time.process_time()
        with pytest.raises(HorizonExceeded, match="first return 24125429 exceeds .* 1000000"):
            tw.build_castle(bd.CircleRotation(0.1234567891, grid_size=1024), 10)
        assert time.process_time() - start < 1.0

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.floats(2.0**-40, 0.249))
    @example(2.0**-20)
    @example(math.nextafter(2.0**-20, 0))
    @example(0.249)
    def test_cell_radius(self, r_max):
        """The radius lies in (0.99 r_max, r_max), so the cell [1/2 - r, 1/2 + r)
        is one piece narrower than diam = 2 r_max, at every scale; from 2^-20
        up it is limit_denominator(2^20) of r_max times 255/256."""
        r = tw._cell_radius(r_max)
        assert Fraction(99, 100) * Fraction(r_max) < r < Fraction(r_max)
        half = Fraction(1, 2)
        assert len(bd.Cell.from_union([(half - r, half + r)]).intervals) == 1
        if r_max >= 2.0**-20:
            assert r == Fraction(r_max).limit_denominator(1 << 20) * Fraction(255, 256)

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
        total = sum(t.height * (hi - lo) for t in castle.towers for lo, hi in t.base.intervals)
        assert isinstance(total, QuadExt) and total == 1  # exact in Q(sqrt 2)

    def test_csv_export(self, tmp_path):
        rot = bd.CircleRotation.golden(grid_size=1024)
        castle = tw.build_castle(rot, 4)
        assert cli.main(["castle", "--out", str(tmp_path), "--castle_n=4",
                         "--base.grid=1024"]) == 0
        lines = (tmp_path / "castle.csv").read_text().strip().splitlines()
        assert lines[0] == "base_lo,base_hi,height"
        assert len(lines) >= 1 + len(castle.towers)

    def test_sturmian_castle_clopen(self):
        castle = tw.build_castle(sturmian(1024), 3)
        castle.verify()

    def test_sturmian_castle_is_the_rotation_castle(self):
        st = tw.build_castle(sturmian(1024), 5)
        rot = tw.build_castle(bd.CircleRotation.golden(grid_size=1024), 5)
        assert st.towers == rot.towers  # intervals and boundaries, exactly


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
        rot = bd.CircleRotation.golden(grid_size=4000)  # first rho 4 / 4000 = 0.001
        f1 = tw.visit_freq_bound(rot, [0.0], 0.1)
        f2 = tw.visit_freq_bound(rot, [0.0, 0.5], 0.1)
        assert f1.rho == f2.rho
        assert f2.sup_frequency <= 2 * f1.sup_frequency + 1e-12

    def test_shrink_exhausted(self):
        rot = bd.CircleRotation.golden(grid_size=64)
        pts = list(np.arange(32) / 32.0)
        with pytest.raises(ShrinkExhausted):
            tw.visit_freq_bound(rot, pts, 1e-4)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([bd.CircleRotation.golden(grid_size=1024).alpha, QuadExt(-1, 1, 2)]),
           st.integers(1, 10**6) | st.integers(1, 10**12), st.integers(-1, 1),
           st.lists(st.fractions(0, 1, max_denominator=10**4), min_size=2, max_size=6))
    def test_range_bound_reads_the_best_denominators(self, alpha, n0, shift, ends):
        """The candidates taken from the cached convergents are those that
        best_denominators(alpha, 8 n0) lists, so the bound is the same float.
        n0 also lands next to a convergent denominator."""
        if shift:
            n0 = max(1, min(q for q, _ in best_denominators(alpha, 10**13) if q >= n0) + shift)
        ends = sorted(ends)
        pieces = pieces_of(list(zip(ends[::2], ends[1::2])))
        want = max(tw._packing_count_bound(alpha, pieces, n) / n for n in
                   [n0] + [q for q, _ in best_denominators(alpha, 8 * n0) if q > n0])
        assert tw._freq_bound_over_range(alpha, pieces, n0).hex() == want.hex()

    def test_reproducible_bitwise(self):
        rot = bd.CircleRotation.golden(grid_size=1024)
        a = tw.visit_freq_bound(rot, [0.1, 0.6], 0.05)
        b = tw.visit_freq_bound(rot, [0.1, 0.6], 0.05)
        assert a.sup_frequency == b.sup_frequency
        assert a.n0 == b.n0 and a.rho == b.rho

    def test_json_roundtrip(self, tmp_path):
        rot = bd.CircleRotation.golden(grid_size=1024)
        fb = tw.visit_freq_bound(rot, [0.25], 0.2)
        assert cli.main(["freq-bound", "--out", str(tmp_path), "--base.grid=1024",
                         "--freq_points=[0.25]", "--freq_eps=0.2"]) == 0
        data = json.loads((tmp_path / "freq.json").read_text())
        assert data["n0"] == fb.n0
        assert data["sup_frequency"] == fb.sup_frequency

    def test_gap_cache_keeps_float_and_exact_angles_apart(self):
        # a float golden angle must not hand its float gap to the exact one,
        # whose castle test (hi - lo) < gap has to stay exact, nor take the gap
        # of the exact rational it equals
        min_orbit_gap.cache_clear()
        float_rot = bd.CircleRotation(float(bd.GOLDEN_MEAN))
        tw.visit_freq_bound(float_rot, [0.3], 0.1)
        min_orbit_gap(float_rot.alpha, 21)
        gap = min_orbit_gap(bd.CircleRotation.golden().alpha, 21)
        assert isinstance(gap, QuadExt) and gap == min_orbit_gap.__wrapped__(bd.GOLDEN_MEAN, 21)
        assert isinstance(min_orbit_gap(float(bd.GOLDEN_MEAN), 21), float)

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
                    bound = tw._packing_count_bound(bd.GOLDEN_MEAN, pieces_of([(lo, hi)]), n)
                    assert bound == k + 1, (n, i, k)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 6000), data=st.data())
    def test_packing_bound_equals_scalar_loop(self, n, data):
        # lengths on, a hair off, and away from whole multiples of the gap
        gap = min_orbit_gap(bd.GOLDEN_MEAN, max(n, 2))
        tiny = Fraction(1, 10**30)
        intervals = []
        for _ in range(data.draw(st.integers(0, 12))):
            lo = QuadExt(Fraction(data.draw(st.integers(0, 999)), 1000), 0, 5)
            k = data.draw(st.integers(1, 60))
            kind = data.draw(st.sampled_from(["multiple", "above", "below", "free"]))
            hi = {"multiple": lo + k * gap, "above": lo + k * gap + tiny,
                  "below": lo + k * gap - tiny,
                  "free": lo + Fraction(data.draw(st.integers(1, 10**6)), 10**7)}[kind]
            if hi <= 1:
                intervals.append((lo, hi))
        got = tw._packing_count_bound(bd.GOLDEN_MEAN, pieces_of(intervals), n)
        assert got == scalar_packing_count_bound(bd.GOLDEN_MEAN, intervals, n)

    def test_packing_bound_is_rigorous(self):
        # the per-interval packing count dominates true counts for every x
        rot = bd.CircleRotation.golden(grid_size=1024)
        alpha = rot.alpha
        intervals = bd.norm_union([(Fraction(1, 5), Fraction(1, 5) + Fraction(1, 50))])
        rng = np.random.default_rng(7)
        for n in (50, 500, 5000):
            bound = tw._packing_count_bound(alpha, pieces_of(intervals), n)
            for x0 in rng.uniform(0, 1, 5):
                pos = rot.orbit_floats(float(x0), n)
                cnt = int(((pos >= 0.2) & (pos < 0.22)).sum())
                assert cnt <= bound
