import math

import numpy as np
import pytest

from cocyclelab import basedyn as bd
from cocyclelab import cocycle as cy
from cocyclelab import surgery as sg
from cocyclelab.errors import NotApplicable, ResolutionExceeded
from cocyclelab.exact import QuadExt
from cocyclelab.sl2 import (Mat2, _mul, exp_traceless_arrays, general_operator_norm,
                             log_sl2_arrays)


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
    ta, tb, tc, td = (pc.region_mat[idx, k] for k in range(4))
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
        assert (float(a[0]), float(b[0]), float(c[0]), float(d[0])) == tuple(pc.region_mat[k])

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
        for xs in (orbit, collar, gaps, edges):
            got, want = pc.entries(xs), reference_entries(pc, xs)
            for g, v in zip(got, want):
                assert g.shape == v.shape and g.tobytes() == v.tobytes()

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
        assert cert.structural_max < cert.bound
        assert cert.dominance_ok
        assert cert.visit_freq_max < cert.visit_freq_cap
        assert all(int(k) <= cfg.N + 1 for k in cert.decomposition["p"])
        assert all(int(k) <= cfg.N + 1 for k in cert.decomposition["q"])

    def test_structural_dominates_direct(self, pipeline):
        co, cfg, pc, cert = pipeline
        assert cert.structural_max >= cert.max_direct - 1e-9

    def test_exports(self, pipeline, tmp_path):
        co, cfg, pc, cert = pipeline
        table = tmp_path / "table.csv"
        pc.export_table(table, grid=np.arange(64) / 64)
        lines = table.read_text().strip().splitlines()
        assert lines[0] == "x,a,b,c,d,bump"
        assert len(lines) == 65
        certf = tmp_path / "cert.json"
        cert.to_json(certf)
        import json

        data = json.loads(certf.read_text())
        assert data["pass"] is True
        assert data["horizon"] == cert.n
