import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from cocyclelab import basedyn as bd
from cocyclelab import cli
from cocyclelab import cocycle as cy
from cocyclelab import surgery as sg
from cocyclelab.errors import CertificationFailed, NotApplicable, ResolutionExceeded
from cocyclelab.exact import QuadExt, mod1
from cocyclelab.perturb import EarlyExit, Steered, plan_entries, plan_segments
from cocyclelab.sl2 import (Mat2, _mul, exp_traceless_arrays, general_operator_norm, log_norm,
                             log_sl2_arrays, scan_product)


def golden(grid=1024):
    return bd.CircleRotation.golden(grid_size=grid)


def reference_entries(pc, xs):
    """The blended map as first written: the generator at every point, the
    table copied over the interiors, the blend in the collars."""
    flat = np.asarray(xs, dtype=float).reshape(-1)
    ga, gb, gc, gd = (np.asarray(e, dtype=float) for e in pc.original.generator.entries(flat))
    idx, inside = bd.locate(pc.region_lo, pc.region_hi, flat)
    t = np.clip(np.minimum(flat - pc.region_lo[idx], pc.region_hi[idx] - flat)
                / pc.blend_width, 0.0, 1.0)
    beta = np.where(inside, t * t * (3.0 - 2.0 * t), 0.0)
    ta, tb, tc, td = (col[idx] for col in pc._table)
    out = [ga.copy(), gb.copy(), gc.copy(), gd.copy()]
    full = inside & (t >= 1.0)
    for o, v in zip(out, (ta, tb, tc, td)):
        o[full] = v[full]
    mid = inside & (t < 1.0) & (beta > 0.0)
    if mid.any():
        g = [v[mid] for v in (ga, gb, gc, gd)]
        t1, t2, t3 = log_sl2_arrays(*_mul(g[3], -g[1], -g[2], g[0],
                                          ta[mid], tb[mid], tc[mid], td[mid]))
        bme = beta[mid]
        for o, v in zip(out, _mul(*g, *exp_traceless_arrays(t1 * bme, t2 * bme, t3 * bme))):
            o[mid] = v
    return tuple(o.reshape(np.shape(xs)) for o in out)


def reference_bump(pc, xs):
    flat = np.asarray(xs, dtype=float).reshape(-1)
    idx, inside = bd.locate(pc.region_lo, pc.region_hi, flat)
    t = np.clip(np.minimum(flat - pc.region_lo[idx], pc.region_hi[idx] - flat)
                / pc.blend_width, 0.0, 1.0)
    return np.where(inside, t * t * (3.0 - 2.0 * t), 0.0).reshape(np.shape(xs))


def reference_regions(pc):
    """The region table as first built: per label, its column as float tuples
    and one translate_union per floor into one list of rows carrying their
    matrices, then a second loop over the rep pieces for the base table.
    The exact floor pieces are pairwise disjoint: the small-N oracle of the
    disjointness that `PerturbedCocycle` derives from the castle."""
    co, cfg = pc.original, pc.cfg
    label_keys = sorted(cfg.rep_pieces.keys())
    key_index = {k: i for i, k in enumerate(label_keys)}
    lo_list, hi_list, mats, pieces = [], [], [], []
    block_logs = np.zeros(len(label_keys))
    for key in label_keys:
        h, _ = key
        plan = pc.plans[key]
        ents = plan_entries(co, plan)
        col = [(float(ents[0][j]), float(ents[1][j]), float(ents[2][j]), float(ents[3][j]))
               for j in range(plan.N)]
        if h == plan.N + 1:
            x0 = co.base.float_coords(plan.x)[0]
            col.append(tuple(float(e[0]) for e in co.entries_along(x0, 1, plan.N)))
        block_logs[key_index[key]] = log_norm(*scan_product(*zip(*col)))
        for j in range(h):
            for lo, hi in bd.translate_union(cfg.rep_pieces[key], mod1(j * co.base.alpha)):
                lo_list.append(float(lo))
                hi_list.append(float(hi))
                mats.append(col[j])
                pieces.append((lo, hi))
    assert bd.first_overlap(pieces)[1] is None
    order = np.argsort(np.array(lo_list), kind="stable")
    base_lo, base_hi, base_lab = [], [], []
    for key in label_keys:
        for lo, hi in cfg.rep_pieces[key]:
            base_lo.append(float(lo))
            base_hi.append(float(hi))
            base_lab.append(key_index[key])
    border = np.argsort(np.array(base_lo), kind="stable")
    return {"region_lo": np.array(lo_list)[order], "region_hi": np.array(hi_list)[order],
            "region_mat": np.array(mats)[order], "base_lo": np.array(base_lo)[border],
            "base_hi": np.array(base_hi)[border], "base_label": np.array(base_lab)[border],
            "block_logs": block_logs}


def castle_base_arrays(castle):
    """Float castle-base pieces sorted by start, with their tower heights."""
    lo, hi, hgt = [], [], []
    for t in castle.towers:
        for l, h in t.base.intervals:
            lo.append(float(l))
            hi.append(float(h))
            hgt.append(t.height)
    order = np.argsort(np.array(lo), kind="stable")
    return np.array(lo)[order], np.array(hi)[order], np.array(hgt)[order]


def reference_collect_visits(pc, cfg, xs, n):
    """Per lane: sorted castle-base visit steps with V-flags, labels (the
    level-0 region rows, looked up outside V) and tower heights; every orbit
    position bisected against the castle base."""
    blo, bhi, bheights = castle_base_arrays(cfg.castle)
    base = pc.region_level == 0
    plo, phi, plab = pc.region_lo[base], pc.region_hi[base], pc.region_label[base]
    vlo, vhi = cfg.freq.V.float_breaks()
    all_lane, all_step, all_flag, all_label, all_height = [], [], [], [], []
    chunk = max(256, (1 << 20) // max(xs.size, 1))
    for s0 in range(0, n, chunk):
        pos = np.mod(np.asarray(xs, dtype=float)[..., None]
                     + np.arange(s0, s0 + min(chunk, n - s0), dtype=float)
                     * pc.original.base.alpha_float, 1.0)
        bidx, in_b = bd.locate(blo, bhi, pos)
        lanes, offs = np.nonzero(in_b)
        if lanes.size == 0:
            continue
        hit_pos = pos[lanes, offs]
        hit_height = bheights[bidx[lanes, offs]]
        hit_v = bd.locate(vlo, vhi, hit_pos)[1]
        pidx, in_piece = bd.locate(plo, phi, hit_pos)
        lab = np.where(in_piece, plab[pidx], -1)
        assert not np.any(~hit_v & (lab < 0)), "visit outside V but in no table piece"
        all_lane.append(lanes)
        all_step.append(s0 + offs)
        all_flag.append(hit_v)
        all_label.append(lab)
        all_height.append(hit_height)
    if not all_lane:
        return [[]] * xs.size, [[]] * xs.size, [[]] * xs.size, [[]] * xs.size
    lanes = np.concatenate(all_lane)
    steps = np.concatenate(all_step)
    flags = np.concatenate(all_flag)
    labs = np.concatenate(all_label)
    hgts = np.concatenate(all_height)
    order = np.lexsort((steps, lanes))
    lanes, steps, flags, labs, hgts = (v[order] for v in (lanes, steps, flags, labs, hgts))
    bounds = np.searchsorted(lanes, np.arange(xs.size + 1))
    return tuple([v[bounds[i]:bounds[i + 1]] for i in range(xs.size)]
                 for v in (steps, flags, labs, hgts))


def reference_structural(pc, cfg, xs, n):
    """The block-decomposition replay, per lane: (1/n) times head and tail at
    the sup rate, each block based in V at the sup rate, each other block at
    its label's column log-norm.  Asserts the castle's structure on the way:
    head and tail of at most N+1 steps, gaps in {N, N+1} equal to the tower
    heights and, outside V, to the label heights.  Returns the structural
    values and the V-based block counts."""
    co, N = pc.original, cfg.N
    s = math.log(max(co.sup_norm + pc.sup_distance, 1.0 + 1e-12))
    structural = np.zeros(xs.size)
    vcounts = np.zeros(xs.size, dtype=int)
    for lane, (vs, fl, labs, hts) in enumerate(zip(*reference_collect_visits(pc, cfg, xs, n))):
        assert len(vs) > 0, f"orbit of {xs[lane]} never hit the castle base"
        p, q = int(vs[0]), n - int(vs[-1])
        assert p <= N + 1 and q <= N + 1, (p, q)
        gaps = np.diff(vs)
        assert np.all((gaps == N) | (gaps == N + 1)), f"gap not in {{N, N+1}} at x={xs[lane]}"
        assert np.array_equal(hts[:-1], gaps), "tower height does not match visit gap"
        fl, labs = fl[:-1], labs[:-1]
        assert np.array_equal(pc.label_heights[labs[~fl]], gaps[~fl])
        contrib = np.where(fl, gaps * s, pc.block_logs[np.maximum(labs, 0)])
        structural[lane] = ((p + q) * s + float(contrib.sum())) / n
        vcounts[lane] = int(fl.sum())
    return structural, vcounts


def check_uniform_bound(co, cfg, pc, cert, xs):
    """Per lane at the certificate's horizon: the V-based block frequency is
    at most the certified sf, and direct <= structural <= U.  The direct
    values are the certificate's own sweep over xs."""
    n = cert.n
    direct = cert.direct
    assert direct.shape == xs.shape
    assert float(direct.max()) == cert.max_direct
    structural, vcounts = reference_structural(pc, cfg, xs, n)
    assert np.all(vcounts / n <= cfg.freq.sup_frequency)
    assert np.all(direct <= structural + 1e-9)
    assert np.all(structural <= cert.uniform_bound + 1e-12)
    assert cert.uniform_bound == cert.head_tail + cert.table_rate + cert.v_blocks
    assert cert.passed and cert.dominance_ok


@pytest.fixture(scope="module")
def pipeline():
    """One full surgery run shared by the checks below (the expensive part)."""
    co = cy.Cocycle(golden(1024), cy.twisted_table(1.2, 1024))
    cfg = sg.build_config(co, 0.4)
    pc = sg.assemble_perturbation(co, cfg)
    n = int(max(cfg.n0, (cfg.N + 1) / cfg.eps)) + 1
    cert = sg.verify_growth(pc, cfg, n, grid=np.arange(96) / 96)
    return co, cfg, pc, cert


class TestContinuityModulus:
    def test_constant_generator_diameter(self):
        co = cy.Cocycle(golden(), cy.ConstantGenerator(Mat2(2, 0, 0, 0.5)))
        assert sg.continuity_modulus(co, 0.1) == co.base.diameter()

    def test_lipschitz_scale(self):
        co = cy.Cocycle(golden(2048), cy.SchrodingerGenerator(0.0, 1.5))
        delta = sg.continuity_modulus(co, 0.3)
        # rotations are isometries: delta ~ eps / (4 Lip), Lip ~ 2 pi * 2 lam
        lip = 2 * math.pi * 2 * 1.5
        assert 0.1 * 0.3 / lip < delta < 10 * 0.3 / lip
        # the certified condition actually holds on sampled pairs
        xs = np.linspace(0, 1, 400, endpoint=False)
        a, b, c, d = co.generator.entries(xs)
        a2, b2, c2, d2 = co.generator.entries(np.mod(xs + 0.9 * delta, 1.0))
        dist = general_operator_norm(a - a2, b - b2, c - c2, d - d2)
        assert float(dist.max()) < 0.3

    def test_halving_keeps_certificate(self):
        co = cy.Cocycle(golden(2048), cy.SchrodingerGenerator(0.0, 1.5))
        delta = sg.continuity_modulus(co, 0.3)
        for frac in (0.5, 0.25):
            d2 = delta * frac
            xs = np.linspace(0, 1, 400, endpoint=False)
            a, b, c, d = co.generator.entries(xs)
            a2, b2, c2, d2_ = co.generator.entries(np.mod(xs + d2, 1.0))
            dist = general_operator_norm(a - a2, b - b2, c - c2, d - d2_)
            assert float(dist.max()) < 0.3

    def test_resolution_exceeded(self):
        co = cy.Cocycle(golden(64), cy.SchrodingerGenerator(0.0, 3.0))
        with pytest.raises(ResolutionExceeded):
            sg.continuity_modulus(co, 0.001)


def test_column_matrices_equal_plan_entries_and_top_slot():
    """A label column is one generator evaluation with the block overlaid:
    bitwise the plan's entries, then the generator at the top slot, also for
    steered plans (the surgery inputs above steer none)."""
    co = cy.Cocycle(golden(2048), cy.SchrodingerGenerator(0.0, 1.2))
    pts = [co.base.point(float(u)) for u in np.random.default_rng(3).uniform(0, 1, 40)]
    plans = plan_segments(co, pts, 0.18, 100, bd.Cell.from_union([(0.36, 0.41)]), 40, 12)
    assert {type(p.branch) for p in plans} == {EarlyExit, Steered}
    for plan in plans:
        col = np.array(plan_entries(co, plan))
        top = np.array(co.entries_along(co.base.float_coords(plan.x)[0], 1, plan.N))
        assert np.array_equal(sg._column_matrices(co, plan, plan.N), col)
        assert np.array_equal(sg._column_matrices(co, plan, plan.N + 1), np.hstack([col, top]))


class TestGates:
    def test_rotation_not_applicable(self):
        co = cy.Cocycle(golden(), cy.RotationGenerator(0.07, 0.0))
        with pytest.raises(NotApplicable, match="exponent"):
            sg.build_config(co, 0.1)

    def test_uh_certified_not_applicable(self):
        co = cy.Cocycle(golden(), cy.ConstantGenerator(Mat2(2, 0, 0, 0.5)))
        with pytest.raises(NotApplicable, match="UH-certified"):
            sg.build_config(co, 0.1)


@pytest.mark.slow
class TestPipeline:
    def test_config_invariants(self, pipeline):
        co, cfg, pc, cert = pipeline
        assert math.exp(cfg.c) > co.sup_norm + cfg.eps
        assert cfg.eps * cfg.N > cfg.c
        assert cfg.m <= cfg.m1
        for cell in cfg.cover:
            lo, hi = cell.intervals[0]
            assert float(hi) - float(lo) < cfg.delta
            assert isinstance(lo, QuadExt) and isinstance(hi, QuadExt)
        assert cfg.freq.sup_frequency < cfg.eps / (cfg.N + 1)
        # V contains every boundary point with margin
        for p in cfg.boundary_points:
            assert cfg.freq.V.contains_floats(np.array([float(p)]))[0]

    def test_sup_distance_bound(self, pipeline):
        co, cfg, pc, cert = pipeline
        bound = math.exp(cfg.c) * (math.exp(cfg.c) + 1.0) * cfg.eps
        assert 0 < pc.sup_distance < bound

    def test_interior_values_bitwise(self, pipeline):
        co, cfg, pc, cert = pipeline
        # at region interiors the blended map equals the table matrix bitwise
        k = np.argmax(pc.region_hi - pc.region_lo)
        mid = (pc.region_lo[k] + pc.region_hi[k]) / 2.0
        a, b, c, d = pc.entries(np.array([mid]))
        assert (float(a[0]), float(b[0]), float(c[0]), float(d[0])) == tuple(
            float(col[k]) for col in pc._table)

    def test_regions_equal_reference_body(self, pipeline):
        """Rows over one matrix column per label give the region table first
        built, bit for bit: the bounds, each row's matrix, the level-0 rows
        and the block log-norms."""
        co, cfg, pc, cert = pipeline
        want = reference_regions(pc)
        base = pc.region_level == 0
        got = {"region_lo": pc.region_lo, "region_hi": pc.region_hi,
               "region_mat": np.stack(pc._table, axis=1), "base_lo": pc.region_lo[base],
               "base_hi": pc.region_hi[base], "base_label": pc.region_label[base],
               "block_logs": pc.block_logs}
        assert base.sum() < pc.region_lo.size and len(pc.plans) > 1
        for name, w in want.items():
            g = got[name]
            assert g.dtype == w.dtype and g.shape == w.shape, name
            assert g.tobytes() == w.tobytes(), name

    def test_rep_piece_past_its_base_rejected(self, pipeline):
        """The last rep piece of height N inside one castle base piece, widened
        to 2^-60 past that piece's end: its regions could meet another floor."""
        co, cfg, pc, cert = pipeline
        h = cfg.N
        base = cfg.castle.base_union(h).intervals
        within = [(k, iv, b) for k, u in cfg.rep_pieces.items() if k[0] == h for iv in u
                  for b in base if b[0] <= iv[0] < iv[1] <= b[1] < 1]
        key, (lo, hi), (_, top) = max(within, key=lambda w: w[1][0])
        wide = (lo, top + Fraction(1, 2**60))
        rep = dict(cfg.rep_pieces)
        rep[key] = tuple(wide if iv == (lo, hi) else iv for iv in rep[key])
        with pytest.raises(CertificationFailed, match=f"height {h} leave the castle base"):
            sg.PerturbedCocycle(co, dataclasses.replace(cfg, rep_pieces=rep), pc.plans)

    @pytest.mark.parametrize("top", [False, True], ids=["N", "N+1"])
    def test_overlapping_labels_of_one_height_rejected(self, pipeline, top):
        """One label's first rep piece copied into another label of the same
        height: both columns would perturb the same floors."""
        co, cfg, pc, cert = pipeline
        h = cfg.N + top
        k1, k2 = [k for k in sorted(cfg.rep_pieces) if k[0] == h][:2]
        rep = dict(cfg.rep_pieces)
        rep[k2] = bd.norm_union(rep[k2] + rep[k1][:1])
        with pytest.raises(CertificationFailed, match=f"height {h} overlap"):
            sg.PerturbedCocycle(co, dataclasses.replace(cfg, rep_pieces=rep), pc.plans)

    def test_entries_equal_reference_body(self, pipeline):
        """Table gathers in the interiors and the generator only where needed
        give the bits of the evaluate-everywhere body."""
        co, cfg, pc, cert = pipeline
        w = pc.blend_width
        orbit = co.base.orbit_floats(np.arange(16) / 16 + 0.01, 4096)
        collar = np.concatenate([np.mod(edge + off, 1.0) for edge, sign in
                                 ((pc.region_lo, 1), (pc.region_hi, -1))
                                 for off in sign * np.array([0.0, 0.25 * w, 0.999 * w, 1.5 * w])])
        gaps = pc.region_hi[:-1] + 0.5 * (pc.region_lo[1:] - pc.region_hi[:-1])
        edges = np.array([0.0, 1.0, np.nextafter(1.0, 0.0)])
        bump = pc.bump(collar)
        assert ((bump > 0) & (bump < 1)).any() and (bump == 1).any()
        assert not bd.locate(pc.region_lo, pc.region_hi, gaps)[1].all()  # outside every region
        # more than one slice and not a multiple of it, as lanes and flat
        lanes = co.base.orbit_floats(np.array([0.03, 0.41, 0.77]), sg._SLICE + 6)
        long = co.base.orbit_floats(0.37, 3 * sg._SLICE + 17)
        for xs in (orbit, collar, gaps, edges, lanes, long):
            got, want = pc.entries(xs), reference_entries(pc, xs)
            for g, v in zip(got, want):
                assert g.shape == v.shape and g.tobytes() == v.tobytes()
            assert pc.bump(xs).tobytes() == reference_bump(pc, xs).tobytes()

    def test_outside_regions_unperturbed(self, pipeline):
        co, cfg, pc, cert = pipeline
        vals = cfg.freq.V.intervals
        probe = float(vals[0][0]) + cfg.freq.rho * 0.5  # deep inside V
        a, b, c, d = pc.entries(np.array([probe]))
        ga, gb, gc, gd = co.generator.entries(np.array([probe]))
        assert float(a[0]) == float(ga[0]) and float(d[0]) == float(gd[0])

    def test_blend_continuity(self, pipeline):
        co, cfg, pc, cert = pipeline
        # sample across one region edge: jump bounded by 2 eps + generator step
        k = int(np.argmax(pc.region_hi - pc.region_lo))
        edge = pc.region_lo[k]
        xs = edge + np.linspace(-2, 2, 101) * pc.blend_width
        a, b, c, d = pc.entries(np.mod(xs, 1.0))
        jumps = general_operator_norm(np.diff(a), np.diff(b), np.diff(c), np.diff(d))
        assert float(jumps.max()) < 2.1 * cfg.eps

    def test_certificate(self, pipeline):
        co, cfg, pc, cert = pipeline
        assert cert.passed
        assert cert.max_direct + cert.margin < cert.bound
        assert cert.uniform_bound < cert.bound
        assert cert.dominance_ok
        assert cert.visit_freq_sup == cfg.freq.sup_frequency < cert.visit_freq_cap
        # the measured figures: head/tail, table rate, V-based blocks
        assert cert.head_tail < 1e-3 and 0.0 < cert.table_rate < cert.v_blocks < 0.2

    def test_structural_dominates_direct(self, pipeline):
        """The replay at the 96 grid lanes of the eps = 0.4 input sits
        between the direct sweep and U."""
        co, cfg, pc, cert = pipeline
        check_uniform_bound(co, cfg, pc, cert, np.arange(96) / 96)

    def test_structural_dominates_direct_bench_input(self):
        """The same at eps = 0.5, the benchmark's surgery input."""
        co = cy.Cocycle(golden(1024), cy.twisted_table(1.2, 1024))
        cfg, pc, cert = sg.run_surgery(co, 0.5, verify_grid=np.arange(96) / 96)
        assert cfg.N == 87
        check_uniform_bound(co, cfg, pc, cert, np.arange(96) / 96)

    def test_exports(self, pipeline, tmp_path, monkeypatch):
        """`surgery`'s artifacts of the fixture's run, written by the command
        itself: its `run_surgery` call returns the fixture's objects."""
        co, cfg, pc, cert = pipeline
        monkeypatch.setattr(sg, "run_surgery", lambda *args, **kwargs: (cfg, pc, cert))
        assert cli.main(["surgery", "--out", str(tmp_path), "--generator.family=twisted-table",
                         "--generator.coupling=1.2", "--eps=0.4", "--base.grid=1024",
                         "--surgery.verify_grid=64"]) == 0
        growth = (tmp_path / "surgery_growth.csv").read_text().strip().splitlines()
        assert growth[0] == "x,log_growth_before,log_growth_after"
        assert len(growth) == 65
        lines = (tmp_path / "surgery_table.csv").read_text().strip().splitlines()
        assert lines[0] == "x,a,b,c,d,bump"
        assert len(lines) == 1 + co.base.grid_size
        data = json.loads((tmp_path / "surgery.json").read_text())
        assert data["pass"] is True
        assert data["horizon"] == cert.n
