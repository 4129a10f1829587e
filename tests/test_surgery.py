import dataclasses
import hashlib
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cocyclelab import _parallel
from cocyclelab import basedyn as bd
from cocyclelab import cli
from cocyclelab import cocycle as cy
from cocyclelab import surgery as sg
from cocyclelab.errors import (CertificationFailed, CocycleLabError, NotApplicable,
                               ResolutionExceeded)
from cocyclelab.exact import QuadExt, column_suffixes, mod1
from cocyclelab.perturb import (EarlyExit, Steered, choose_steering_window, plan_entries,
                                plan_segments)
from cocyclelab.sl2 import Mat2, _mul, exp_traceless_arrays, general_operator_norm, log_sl2_arrays
from disjoint import first_overlap
from oracles import (certify_distance_one_shot, distance_probes, mpmath_log_norm,
                     reference_log_norms, reference_walk)


def golden(grid=1024):
    return bd.CircleRotation.golden(grid_size=grid)


def reference_entries(pc, xs):
    """The blended map as first written: the generator at every point, the
    table copied over the interiors, the blend in the collars at the ends
    of the regions' arcs."""
    flat = np.asarray(xs, dtype=float).reshape(-1)
    ga, gb, gc, gd = (np.asarray(e, dtype=float) for e in pc.original.generator.entries(flat))
    flat = np.mod(flat, 1.0)  # 1.0 is 0.0 on the circle
    idx, inside = bd.locate(pc.region_lo, pc.region_hi, flat)
    t = np.clip(np.minimum(flat - pc.arc_lo[idx], pc.arc_hi[idx] - flat)
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
    flat = np.mod(np.asarray(xs, dtype=float).reshape(-1), 1.0)
    idx, inside = bd.locate(pc.region_lo, pc.region_hi, flat)
    t = np.clip(np.minimum(flat - pc.arc_lo[idx], pc.arc_hi[idx] - flat)
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
        block_logs[key_index[key]] = column_suffixes(*zip(*col))[1]
        for j in range(h):
            for lo, hi in bd.translate_union(cfg.rep_pieces[key], mod1(j * co.base.alpha)):
                lo_list.append(float(lo))
                hi_list.append(float(hi))
                mats.append(col[j])
                pieces.append((lo, hi))
    assert first_overlap(pieces)[1] is None
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


@pytest.fixture(scope="module")
def bench_pipeline():
    """The benchmark's surgery input, eps = 0.5, run once for the checks that read it."""
    co = cy.Cocycle(golden(1024), cy.twisted_table(1.2, 1024))
    cfg, pc, cert = sg.run_surgery(co, 0.5, verify_grid=np.arange(96) / 96)
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

    def test_structural_dominates_direct_bench_input(self, bench_pipeline):
        """The same at eps = 0.5, the benchmark's surgery input."""
        co, cfg, pc, cert = bench_pipeline
        assert cfg.N == 87
        check_uniform_bound(co, cfg, pc, cert, np.arange(96) / 96)

    def test_bench_regions_and_freq_bound_pinned(self, bench_pipeline):
        """The region arrays and the visit-frequency certificate derived from
        the exact sets at the benchmark's input, with the digests that one
        exact `translate_union` per floor gives.  `_table` is not pinned: its
        bits depend on libm."""
        co, cfg, pc, cert = bench_pipeline
        digests = {name: hashlib.sha1(getattr(pc, name).astype(dtype).tobytes()).hexdigest()
                   for name, dtype in (("region_lo", "<f8"), ("region_hi", "<f8"),
                                       ("region_label", "<i8"), ("region_level", "<i8"))}
        assert digests == {"region_lo": "b3ce491cb7e8d62851fc305fdae2037e4edc0ef0",
                           "region_hi": "a7b9ddbea2413434b0506323b301c5ade1cef352",
                           "region_label": "84c582c8a892b5efa54e3e17ca3ddc5c5994a500",
                           "region_level": "91abe35e60b53d7067f16b76700b9a883a3e715b"}
        fb = cfg.freq
        assert (fb.rho, fb.n0, fb.sup_frequency.hex(), len(fb.V.intervals)) == (
            2.0**-19, 245760, "0x1.6cccccccccccdp-8", 605)

    def test_bench_direct_sweep_pinned(self, bench_pipeline):
        """The direct sweep of the benchmark's input, 96 lanes over the
        245,761-step horizon: every lane's bits.  Like `_table`, they depend
        on libm."""
        co, cfg, pc, cert = bench_pipeline
        assert cert.n == 245_761 and cert.direct.size == 96
        assert hashlib.sha1(cert.direct.tobytes()).hexdigest() == \
            "fa52d4ecb556fa48249f2de04fcce85a28efd559"

    @pytest.mark.parametrize("tail", [80, 83])
    def test_sweep_bytes_independent_of_workers(self, bench_pipeline, tail):
        """The direct sweep gives the same bytes in one call and over the
        slices of --threads 1 and 2, as the `surgery` command runs it.  The
        horizon ends in `tail` steps past 2 * 4096."""
        co, cfg, pc, cert = bench_pipeline
        xs, n = (np.arange(96) + 0.37) / 96, 2 * 4096 + tail
        runs = [pc.log_norms(xs, n)]
        for threads in (1, 2):
            runs.append(_parallel.parallel_lanes(lambda sl: pc.log_norms(sl, n), xs, threads))
        assert runs[0].tobytes() == runs[1].tobytes() == runs[2].tobytes()
        assert np.isfinite(runs[0]).all()

    def test_certify_distance_streams_slices(self, bench_pipeline, monkeypatch):
        """certify_distance evaluates the generator on at most `_SLICE` points a
        call, visits every probe, and its sup equals the one-shot oracle's bit
        for bit.  The slice is cut to 1000 points, below the bench input's
        8R + G probes."""
        co, cfg, pc, cert = bench_pipeline
        assert 8 * pc.region_lo.size + co.base.grid_size > 1000
        monkeypatch.setattr(sg, "_SLICE", 1000)
        want = certify_distance_one_shot(pc)
        sizes, probed = [], []
        generator_entries, blended_entries = pc.original.generator.entries, pc.entries

        def generator(xs):
            sizes.append(np.size(xs))
            return generator_entries(xs)

        def blended(xs):
            probed.append(np.array(xs))
            return blended_entries(xs)

        monkeypatch.setattr(pc.original.generator, "entries", generator)
        monkeypatch.setattr(pc, "entries", blended)
        sup = pc.certify_distance()
        assert 0 < max(sizes) <= 1000
        assert np.array_equal(np.unique(np.concatenate(probed)), distance_probes(pc))
        assert sup == pc.sup_distance and sup.hex() == want.hex()

    def test_bench_cover_edges_avoid_base_endpoints(self, bench_pipeline):
        """The cover cells tile [0, 1) at edges i/k, and no edge with
        0 < i < k is an endpoint of a tower base."""
        co, cfg, pc, cert = bench_pipeline
        k = len(cfg.cover)
        assert [c.intervals for c in cfg.cover] == [
            ((co.base.lift(Fraction(i, k)), co.base.lift(Fraction(i + 1, k))),) for i in range(k)]
        ends = {p for t in cfg.castle.towers for iv in t.base.intervals for p in iv}
        assert not any(co.base.lift(Fraction(i, k)) in ends for i in range(1, k))

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


def interior_points(pc, k):
    """k points spread over the region interiors."""
    r = np.linspace(0, pc.region_lo.size - 1, k).astype(int)
    return (pc.region_lo[r] + pc.region_hi[r]) / 2.0


def gap_points(pc):
    """Points outside every region: the middles of the gaps between them."""
    gap = np.flatnonzero(pc.region_hi[:-1] < pc.region_lo[1:])
    return (pc.region_hi[gap] + pc.region_lo[gap + 1]) / 2.0


def sweep_lanes(pc):
    """Lanes at the circle's ends and across the seam, in collars, one blend
    width inside arcs and a float either side, outside every region, inside
    regions, and at random."""
    w = pc.blend_width
    rng = np.random.default_rng(5)
    collars = np.concatenate([pc.region_lo[::997] + 0.5 * w, pc.region_hi[::991] - 0.25 * w])
    reach = np.concatenate([pc.arc_lo[::499] + w, pc.arc_hi[::499] - w])
    reach = np.mod(np.concatenate([reach, np.nextafter(reach, -1.0), np.nextafter(reach, 2.0)]), 1.0)
    outside = gap_points(pc)
    assert outside.size and not bd.locate(pc.region_lo, pc.region_hi, outside)[1].any()
    return np.concatenate([[0.0, w / 4, 1.0 - w / 2, np.nextafter(1.0, 0.0)], collars, reach,
                           outside[::50], interior_points(pc, 24), rng.random(24)])


def window_nodes(pc, xs, n):
    """The nodes of `PerturbedCocycle._windows`, joined into arrays (lane,
    start, region) in order of lane and then of start."""
    parts = []
    for start, region in pc._windows(xs, n):
        lane, k = np.nonzero(region > -2)
        parts.append((lane, start[lane, k], region[lane, k]))
    lane, start, region = (np.concatenate(v) for v in zip(*parts))
    order = np.lexsort((start, lane))
    return lane[order], start[order], region[order]


class TestColumnWalk:
    """`PerturbedCocycle.log_norms`, the direct sweep, against the pairwise
    tree over the blended map's own entries and against one tree per lane
    over the whole walk, and the walk's nodes."""

    @pytest.mark.parametrize("n", [1, 64, 87, 200, 2 * 4096 + 77])
    def test_equals_tree_of_entries(self, bench_pipeline, n):
        co, cfg, pc, cert = bench_pipeline
        xs = sweep_lanes(pc)
        got, want = pc.log_norms(xs, n), cy.log_norms_batch(pc.cocycle, xs, n)
        assert np.abs(got - want).max() <= 1e-13 * (n + 8)

    def test_suffix_stretches_are_table_interiors(self, bench_pipeline):
        """The nodes tile each lane's steps, and each step of a stretch that
        a suffix row serves passes `_bounds`' interior test in a region of
        the stretch's label, one level up per step: its entries are that
        label's table matrices."""
        co, cfg, pc, cert = bench_pipeline
        xs, n = sweep_lanes(pc), 20_000
        lane, start, region = window_nodes(pc, xs, n)
        served = region >= 0
        end = start + np.where(served, pc._to_top.take(np.maximum(region, 0)), sg._CHUNK)
        first = np.r_[True, lane[1:] != lane[:-1]]
        last = np.r_[lane[1:] != lane[:-1], True]
        assert np.array_equal(lane[first], np.arange(xs.size)) and (start[first] == 0).all()
        assert np.array_equal(start[~first], end[~last]) and (end[last] >= n).all()
        assert (end[served] <= n).all() and 0.6 < served.mean() < 1.0
        r = region[served]
        steps = np.arange(pc.label_heights.max())
        live = steps < pc._to_top[r][:, None]
        pos = bd.wrap_floats(xs[lane[served], None]
                             + (start[served, None] + steps) * co.base.alpha_float)
        node = np.flatnonzero(served)[7]
        assert np.array_equal(pos[7, :pc._to_top[region[node]]],
                              co.base.orbit_floats(xs[lane[node]], pc._to_top[region[node]],
                                                   start[node]))
        idx, t = pc._bounds(pos[live])
        assert (t >= 1.0).all()
        assert np.array_equal(pc.region_label[idx], np.broadcast_to(pc.region_label[r][:, None],
                                                                    live.shape)[live])
        assert np.array_equal(pc.region_level[idx], (pc.region_level[r][:, None] + steps)[live])

    @pytest.mark.parametrize("windows", [1, 2])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_equals_reference_at_window_edges(self, bench_pipeline, windows, offset):
        """Bit for bit the sweep of one tree per lane over all its nodes, at
        the horizon where lane 0 ends with 256 windows + offset nodes: just
        before, at and just after a window's end.  The horizon is the start
        of that node in a longer walk whose n + 1 lies in the same binade."""
        co, cfg, pc, cert = bench_pipeline
        xs, k = sweep_lanes(pc), 256 * windows + offset
        n = int(reference_walk(pc, xs[:1], (1 << (14 + windows)) - 2)[1][k])
        assert np.count_nonzero(reference_walk(pc, xs[:1], n)[0] == 0) == k
        got, want = pc.log_norms(xs, n), reference_log_norms(pc, xs, n)
        assert got.tobytes() == want.tobytes()

    def test_peak_memory_flat_in_n(self, bench_pipeline):
        """The sweep reduces each window of the walk as the walk runs, so
        the traced peak over 96 lanes stays put while n grows fourfold.  A
        walk that keeps every node until the end held 17.1 MiB at 2^16 steps
        and 23.2 MiB at 2^18."""
        co, cfg, pc, cert = bench_pipeline
        xs = np.arange(96) / 96
        peaks = []
        for n in (1 << 16, 1 << 18):
            tracemalloc.start()
            try:
                pc.log_norms(xs, n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0]

    @pytest.mark.parametrize("n", [0, -5])
    def test_needs_positive_horizon(self, bench_pipeline, n):
        """As `cocycle.log_norms_batch`: no sweep below one step."""
        co, cfg, pc, cert = bench_pipeline
        with pytest.raises(CocycleLabError, match="need n >= 1"):
            pc.log_norms(np.array([0.1, 0.2]), n)

    def test_no_lanes(self, bench_pipeline):
        """No anchors, no lanes: an empty array, as `cocycle.log_norms_batch`."""
        co, cfg, pc, cert = bench_pipeline
        got = pc.log_norms(np.array([]), 1000)
        assert got.shape == (0,) and got.dtype == float

    @pytest.mark.parametrize("fixture", ["pipeline", "bench_pipeline"])
    def test_seam_has_no_collar(self, fixture, request):
        """One floor arc crosses 0 = 1 and is cut into a first and a last
        region of the same label and level, whose collars are measured from
        the arc's far ends: at x = 0, w/4 and 1 - w/2 the bump is 1 and the
        entries are the table matrix."""
        co, cfg, pc, cert = request.getfixturevalue(fixture)
        w = pc.blend_width
        assert pc.region_lo[0] == 0.0 and pc.region_hi[-1] == 1.0
        assert pc.arc_lo[0] < -w and pc.arc_hi[-1] > 1.0 + w
        assert pc.region_label[0] == pc.region_label[-1]
        assert pc.region_level[0] == pc.region_level[-1]
        cut = (pc.arc_lo != pc.region_lo) | (pc.arc_hi != pc.region_hi)
        assert np.flatnonzero(cut).tolist() == [0, pc.region_lo.size - 1]
        xs = np.array([0.0, w / 4, 1.0 - w / 2])
        assert pc.bump(xs).tolist() == [1.0, 1.0, 1.0]
        row = np.array([0, 0, pc.region_lo.size - 1])
        for got, col in zip(pc.entries(xs), pc._table):
            assert got.tobytes() == col[row].tobytes()


def test_no_pool_without_threads(monkeypatch):
    """Only --threads makes a thread pool: the window search on the plans
    input and the whole bench surgery run on the calling thread, and
    parallel_lanes at threads=2 starts one pool of two."""
    pools = []
    real = _parallel.ThreadPoolExecutor

    def counting(*args, **kwargs):
        pools.append(kwargs["max_workers"])
        return real(*args, **kwargs)

    monkeypatch.setattr(_parallel, "ThreadPoolExecutor", counting)
    plans = cy.Cocycle(golden(2048), cy.SchrodingerGenerator(0.0, 1.2))
    W, m = choose_steering_window(plans, 0.18)
    assert m == 12 and pools == []
    bench = cy.Cocycle(golden(1024), cy.twisted_table(1.2, 1024))
    cfg, pc, cert = sg.run_surgery(bench, 0.5, verify_grid=np.arange(96) / 96)
    assert cert.passed and pools == []
    _parallel.parallel_lanes(lambda sl: cy.log_norms_batch(bench, sl, 64), np.arange(128) / 128, 2)
    assert pools == [2]


def test_non_finite_lane_fails_dominance(bench_pipeline, monkeypatch):
    """A lane of the sweep at -inf is no lane under U."""
    co, cfg, pc, cert = bench_pipeline
    lanes = cert.direct * cert.n
    lanes[7] = -np.inf
    monkeypatch.setattr(pc, "log_norms", lambda xs, n: lanes.copy())
    got = sg.verify_growth(pc, cfg, cert.n, grid=np.arange(96) / 96)
    assert not got.dominance_ok and not got.passed


def steered_build(co, eps: float, N: int):
    """build_config and assemble_perturbation at N, with the visit-frequency
    budget 0.015/(N + 1) at a rho floor of 1e-12 (the formula's N and budget
    give no certificate on the steered fixtures)."""
    plan_constants, visit_freq_bound = sg.plan_constants, sg.visit_freq_bound
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sg, "plan_constants", lambda co, eps: (*plan_constants(co, eps)[:4], N))
        mp.setattr(sg, "visit_freq_bound", lambda base, bnd, eps, rho_floor=None:
                   visit_freq_bound(base, bnd, 0.015 / (N + 1), rho_floor=1e-12))
        cfg = sg.build_config(co, eps, force=True)
        pc = sg.assemble_perturbation(co, cfg)
    return cfg, pc


@pytest.fixture(scope="module")
def steered_surgery():
    """The perturbed twisted table at coupling 4, grid 1024, eps = 0.72,
    N = 144 (`steered_build`), so that most of its plans steer."""
    return steered_build(cy.Cocycle(golden(1024), cy.twisted_table(4.0, 1024)), 0.72, 144)


@pytest.fixture(scope="module")
def steered_schrodinger():
    """Schrodinger lambda = 1.5 at E = 0, grid 1024, eps = 0.3, N = 120
    (`steered_build`): every plan steers."""
    return steered_build(cy.Cocycle(golden(1024), cy.SchrodingerGenerator(0.0, 1.5)), 0.3, 120)


def test_steered_fixture_steers(steered_surgery, steered_schrodinger):
    cfg, pc = steered_surgery
    assert cfg.N == 144 and pc.region_lo.size == 46_801
    assert sum(isinstance(p.branch, Steered) for p in pc.plans.values()) == 149
    cfg, pc = steered_schrodinger
    assert cfg.N == 120 and len(pc.plans) == 338
    assert all(isinstance(p.branch, Steered) for p in pc.plans.values())


@pytest.mark.parametrize("fixture", ["steered_surgery", "steered_schrodinger"])
def test_block_logs_bound_column_products(fixture, request):
    """Every label's `block_logs` is at or above log sigma1 of a 120-digit
    mpmath product of its column.  The float log_norm(*scan_product(*col))
    reads below it on 69 of the 149 and 133 of the 338 labels."""
    pytest.importorskip("mpmath")
    cfg, pc = request.getfixturevalue(fixture)
    keys = sorted(cfg.rep_pieces)
    assert pc.block_logs.size == len(keys)
    for key, bound in zip(keys, pc.block_logs):
        col = sg._column_matrices(pc.original, pc.plans[key], key[0])
        assert bound >= mpmath_log_norm(*col, dps=120), key


def test_direct_sweep_matches_mpmath_when_plans_steer(steered_surgery):
    """On lane x = 0.51 at n = 8192 steps, the direct sweep is within 1 nat
    of an 80-digit mpmath product of the same doubles, 4085.27 nats.  The
    pairwise tree over the entries reads 65 nats above it."""
    pytest.importorskip("mpmath")
    _, pc = steered_surgery
    n, x = 8192, np.array([0.51])
    got = float(pc.log_norms(x, n)[0])
    ref = float(mpmath_log_norm(*(e[0] for e in pc.cocycle.entries_along(x, n)), dps=80))
    assert abs(got - ref) < 1.0


def test_steered_sweep_equals_reference(steered_surgery):
    """On the steered fixture at n = 8192, the window sweep is bit for bit
    one tree per lane over all its nodes.  Both read -inf on the same 9 of
    the 1,645 lanes (`test_cancelling_lane_is_finite`)."""
    _, pc = steered_surgery
    xs = sweep_lanes(pc)
    with np.errstate(divide="ignore"):
        got, want = pc.log_norms(xs, 8192), reference_log_norms(pc, xs, 8192)
    assert got.tobytes() == want.tobytes()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="one float product of two nodes cancels to the zero matrix")
def test_cancelling_lane_is_finite(steered_surgery):
    """Lane 117 of `sweep_lanes` on the steered fixture, at n = 8192, is
    finite and within 1 nat of an 80-digit product of the same doubles
    (4059.683).  It reads -inf, as do 8 more of the 1,645 lanes: the cause
    is total cancellation in one float product, not underflow.  In the
    pairwise tree over the lane's entries with every level rescaled
    (`sl2._STRIDE = 1`), a node at level 8 (256 steps) is already exactly
    zero, and with every level rescaled all 9 lanes of the window sweep
    still read -inf.  The sequential `scan_product` reads 4081.95."""
    pytest.importorskip("mpmath")
    _, pc = steered_surgery
    n, x = 8192, np.array([0.1919402892662036])
    with np.errstate(divide="ignore"):
        got = float(pc.log_norms(x, n)[0])
    ref = float(mpmath_log_norm(*(e[0] for e in pc.cocycle.entries_along(x, n)), dps=80))
    assert math.isfinite(got) and abs(got - ref) < 1.0


def test_steered_sweep_at_n0(steered_surgery):
    """The certificate's own sweep at the steered fixture's horizon n0 + 1,
    6,291,457 steps over the 96 lanes i/96: every lane finite and under U."""
    cfg, pc = steered_surgery
    n = cfg.n0 + 1
    assert n == 6_291_457
    cert = sg.verify_growth(pc, cfg, n, grid=np.arange(96) / 96)
    assert np.isfinite(cert.direct).all() and cert.dominance_ok
    assert cert.max_direct <= cert.uniform_bound
