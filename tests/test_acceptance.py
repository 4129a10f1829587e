"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Criterion 1 is implemented faithfully as stated and is expected to fail at
the plan stage (the double-precision alignment floor).  Criterion 4's input is
uniformly hyperbolic, so it checks the verdict the dichotomy requires there:
the surgery refuses the input and no growth certificate is issued.  Both
analyses are written out in docs/acceptance.md.  Run with `pytest -s
tests/test_acceptance.py` to see every line.
"""

import filecmp
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cocyclelab import basedyn as bd
from cocyclelab import cocycle as cy
from cocyclelab import perturb as pb
from cocyclelab import scenarios as sc
from cocyclelab import surgery as sg
from cocyclelab import towers as tw
from cocyclelab.errors import CocycleLabError, NotApplicable
from cocyclelab.sl2 import Mat2, operator_norm, singular_axes_arrays

PKG = Path(__file__).resolve().parents[1]


def report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    return line


def test_criterion_1_segment_contract():
    """Schrodinger lam=3, E=0, eps=0.1, N from choose_N, 1000 anchors, 100%."""
    t0 = time.time()
    co = cy.Cocycle(bd.CircleRotation.golden(grid_size=2048),
                    cy.SchrodingerGenerator(0.0, 3.0))
    eps = 0.1
    stage = "steering window"
    try:
        W, m = pb.choose_steering_window(co, eps)
        stage = "covering time"
        m1 = max(bd.covering_time(co.base, W), m)
        stage = "choose_N"
        c = math.log(co.sup_norm + eps) + 1e-9
        N = pb.choose_N(co, eps, c, m1)
        stage = f"plans at N={N}"
        rng = np.random.default_rng(12345)
        pts = [co.base.point(float(u)) for u in rng.uniform(0, 1, size=1000)]
        plans = pb.plan_segments(co, pts, eps, N, W, m1, m)
        verified = sum(1 for p in plans if pb.verify_segment(co, p).passes)
        elapsed = time.time() - t0
        ok = verified == 1000 and elapsed < 60
        report(1, ok, f"{verified}/1000 verified at N={N} in {elapsed:.1f}s")
        assert ok
    except CocycleLabError as e:
        elapsed = time.time() - t0
        report(1, False, f"{stage} failed after {elapsed:.1f}s: "
                         f"{type(e).__name__}: {e}")
        raise AssertionError(
            f"criterion 1 unattainable as stated ({stage}: {type(e).__name__}); "
            "see docs/acceptance.md: a steering block would have to align "
            "directions to within exp(-(chi - eps) * N) with N from choose_N in "
            "the thousands, while double precision removes at most ~36.7 nats"
        ) from e


def test_criterion_2_castle_contract():
    t0 = time.time()
    details = []
    for mk in ("golden", "silver"):
        for N in (3, 10, 25):
            rot = getattr(bd.CircleRotation, mk)(grid_size=10_000)
            castle = tw.build_castle(rot, N)
            rep = castle.verify()
            assert rep == {"floors": sum(t.height for t in castle.towers),
                           "exact_tiling": True, "return_times_ok": True}, (mk, N)
            heights = sorted({t.height for t in castle.towers})
            assert set(heights) <= {N, N + 1}, (mk, N, heights)
            details.append(f"{mk} N={N}: {len(castle.towers)} towers")
    elapsed = time.time() - t0
    ok = elapsed < 30
    report(2, ok, f"6 castles exact ({'; '.join(details[:2])}, ...) in {elapsed:.1f}s")
    assert ok, f"castle runtime {elapsed:.1f}s >= 30s"


def test_criterion_3_frobenius_threshold():
    for N in range(2, 51):
        formula = tw.frobenius_threshold(N)
        assert formula == N * N - N, N
        assert formula == tw.frobenius_threshold_dp(N), N
    report(3, True, "threshold N^2 - N matches exhaustive DP for 2 <= N <= 50")


def test_criterion_4_end_to_end_surgery():
    """Constant diag(2, 1/2) over the golden rotation at eps=0.1, grid 4096.

    The input is uniformly hyperbolic, the dichotomy's other horn, and the
    surgery's hypothesis (a non-UH cocycle) excludes it.  The end-to-end
    verdict is therefore: the gate refuses it on its UH certificate, so no
    growth certificate is issued, and every eps-perturbation stays UH with
    exponent above a quarter of the estimate (docs/acceptance.md).
    """
    t0 = time.time()
    co = cy.Cocycle(bd.CircleRotation.golden(grid_size=4096),
                    cy.ConstantGenerator(Mat2(2.0, 0.0, 0.0, 0.5)))
    eps = 0.1
    with pytest.raises(NotApplicable, match="UH-certified") as gate:
        sg.build_config(co, eps)
    cert = cy.uh_certify(co)
    assert isinstance(cert, cy.Certificate), cert
    assert abs(cert.expansion - 2.0) < 1e-12, cert.expansion
    pre = cy.lyapunov_estimate(co, co.base.point(0.1), 4096)
    assert abs(pre - math.log(2)) < 1e-9, pre

    # ||E|| <= eps moves each coordinate of a vector in the cone |y| <= |x| by
    # at most eps*sqrt(2)*|x|, so every eps-perturbation maps the cone into
    # |y| <= ratio*|x| and grows |x| by at least `floor` per step
    gen = co.generator.mat
    assert gen.b == 0.0 and gen.c == 0.0
    slack = eps * math.sqrt(2.0)
    floor = abs(gen.a) - slack
    ratio = (abs(gen.d) + slack) / floor
    assert ratio < 1.0, ratio
    assert math.log(floor) > 0.25 * pre, (math.log(floor), pre)

    elapsed = time.time() - t0
    ok = elapsed < 600
    report(4, ok, f"UH horn: gate refuses ({gate.value}); expansion "
                  f"{cert.expansion:.12g}, estimate {pre:.12f}; every {eps}-perturbation "
                  f"keeps cone ratio {ratio:.3f} and exponent >= {math.log(floor):.3f} "
                  f"> 0.25 * estimate ({elapsed:.1f}s)")
    assert ok, f"runtime {elapsed:.1f}s >= 600s"


@pytest.mark.slow
def test_criterion_4s_supplementary_end_to_end():
    """The same pipeline on an admissible input: degree-one table generator.

    Not a spec criterion; runs the full surgery (castle at N = 158, analytic
    frequency bound, blended cocycle) on an input that satisfies the standing
    hypotheses, and checks that its certificate holds.  The certificate is
    vacuous: sup||A|| = 1.2 gives log||A_N|| <= 0.1823 N < 0.999 eps N, so all
    162 segment plans exit early and none is steered, and the certified bound
    (3c+2) eps = 1.36 lies far above the gate's exponent estimate 0.0165.
    """
    t0 = time.time()
    co = cy.Cocycle(bd.CircleRotation.golden(grid_size=1024),
                    cy.twisted_table(1.2, 1024))
    cfg, pc, cert = sg.run_surgery(co, 0.4, verify_grid=np.arange(96) / 96)
    ok = cert.passed and pc.sup_distance < math.exp(cfg.c) * (math.exp(cfg.c) + 1) * 0.4
    report("4s", ok, f"N={cfg.N}, sup-dist {pc.sup_distance:.4f}, direct "
                     f"{cert.max_direct:.4f} < bound {cert.bound:.4f}, "
                     f"horizon {cert.n} ({time.time() - t0:.0f}s)")
    assert ok


def test_criterion_5_subexp_consistency():
    rot = bd.CircleRotation.golden(grid_size=1024)
    for gen in (cy.RotationGenerator(0.0732, 0.0), cy.RotationGenerator(0.01, 1.0)):
        co = cy.Cocycle(rot, gen)
        for eps in (0.01, 0.1):
            ok, rep = cy.uniform_growth_test(co, eps, 100)
            assert ok, (eps, rep.max)
        est = cy.lyapunov_estimate(co, co.base.point(0.2), 10**6)
        assert abs(est) < 1e-3
    co = cy.Cocycle(rot, cy.ConstantGenerator(Mat2(2.0, 0.0, 0.0, 0.5)))
    ok, rep = cy.uniform_growth_test(co, 0.5, 100)
    assert not ok
    est = cy.lyapunov_estimate(co, co.base.point(0.3), 10**6)
    assert abs(est - math.log(2)) < 1e-9
    report(5, True, "rotation cocycles uniformly subexponential; "
                    f"diag(2,1/2) fails at 0.5 with estimate {est:.12f}")


def test_criterion_6_axes_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(20260808)
    count, vecs = 10**5, 10**4
    t1 = rng.uniform(0, 2 * math.pi, count)
    t2 = rng.uniform(0, 2 * math.pi, count)
    # keep the brute-force oracle itself well-posed: near-rotation matrices
    # have flat norm profiles and no meaningful maximizing direction
    t = rng.uniform(0.005, 3.0, count)
    c1, s1, c2, s2 = np.cos(t1), np.sin(t1), np.cos(t2), np.sin(t2)
    e, f = np.exp(t), np.exp(-t)
    a = c1 * e * c2 - s1 * f * s2
    b = -c1 * e * s2 - s1 * f * c2
    c = s1 * e * c2 + c1 * f * s2
    d = -s1 * e * s2 + c1 * f * c2

    # ||A v||^2 on the uniform vector grid, evaluated for all matrices at once
    phi = np.arange(vecs) * (2 * math.pi / vecs)
    trig = np.stack([np.cos(2 * phi), np.sin(2 * phi)])  # (2, vecs)
    amp = np.stack([(a * a + c * c - b * b - d * d) / 2, a * b + c * d], axis=1)
    ux, uy, sx, sy, nrm, deg = singular_axes_arrays(a, b, c, d)
    uang = np.mod(np.arctan2(uy, ux), math.pi)
    worst = 0.0
    chunk = 4000
    for lo in range(0, count, chunk):
        sl = slice(lo, min(lo + chunk, count))
        vals = amp[sl] @ trig  # argmax of the non-constant part of ||A v||^2
        k = np.argmax(vals, axis=1)
        diff = np.abs(np.mod(phi[k], math.pi) - uang[sl])
        diff = np.minimum(diff, math.pi - diff)
        keep = ~deg[sl]
        if keep.any():
            worst = max(worst, float(diff[keep].max()))
    assert worst <= 2 * math.pi * 1e-4, worst

    p = a * a + c * c
    q = b * b + d * d
    r = a * b + c * d
    lam = (p + q) / 2 + np.sqrt(((p - q) / 2) ** 2 + r * r)
    want = np.sqrt(lam)
    got = np.array([operator_norm(Mat2(*ent)) for ent in zip(a, b, c, d)])
    rel = float(np.max(np.abs(got - want) / want))
    assert rel < 1e-10, rel
    elapsed = time.time() - t0
    ok = elapsed < 30
    report(6, ok, f"axes within {worst:.2e} rad, norms within {rel:.2e} rel "
                  f"({elapsed:.1f}s)")
    assert ok, f"runtime {elapsed:.1f}s >= 30s"


def test_criterion_7_hopf_scenario():
    cert = sc.certify_restricted_uh(2 * math.pi * float(bd.GOLDEN_MEAN),
                                    grid_size=4096)
    ok = cert.expansion >= 2 - 1e-6 and cert.winding == 1
    report(7, ok, f"expansion {cert.expansion:.9f}, winding {cert.winding}")
    assert ok


def _run_cli(args, cwd):
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = str(PKG / "src")
    return subprocess.run([sys.executable, "-m", "cocyclelab.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)


def test_criterion_8_thread_determinism(tmp_path):
    """Artifact-producing acceptance runs repeat bitwise under --threads 1 and 8.

    Criterion 1 terminates in a certified failure and criterion 4 in the
    surgery's UH gate; neither emits artifacts, so the comparison covers the
    artifact-producing runs.
    """
    cases = [
        ["exponent", "--generator.family=constant", "--generator.entries=[2,0,0,0.5]",
         "--n=500", "--base.grid=4096"],
        ["growth-test", "--generator.family=rotation", "--generator.winding=1.0",
         "--eps=0.01", "--n=100", "--base.grid=4096"],
        ["castle", "--castle_n=10", "--base.grid=4096"],
        ["freq-bound", "--freq_points=[0.0]", "--freq_eps=0.1", "--base.grid=4096"],
        ["demo-hopf", "--base.grid=4096"],
    ]
    for case in cases:
        r1 = _run_cli([case[0], "--out", f"t1_{case[0]}", "--threads", "1", *case[1:]],
                      tmp_path)
        r8 = _run_cli([case[0], "--out", f"t8_{case[0]}", "--threads", "8", *case[1:]],
                      tmp_path)
        assert r1.returncode == r8.returncode, case[0]
        d1 = tmp_path / f"t1_{case[0]}"
        d8 = tmp_path / f"t8_{case[0]}"
        names = sorted(p.name for p in d1.iterdir())
        assert names == sorted(p.name for p in d8.iterdir())
        for name in names:
            assert filecmp.cmp(d1 / name, d8 / name, shallow=False), (case[0], name)
    report(8, True, f"{len(cases)} artifact runs bitwise identical at threads 1 and 8")
