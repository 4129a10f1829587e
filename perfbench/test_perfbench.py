"""Tests of the benchmark's own code: span arithmetic, wrapping, and that each
workload check rejects a deliberately corrupted output.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from cocyclelab import basedyn, cli, cocycle, perturb, sl2, surgery, towers  # noqa: E402


# -- spans ------------------------------------------------------------------------------


def test_self_time_subtracts_union_of_children():
    spans = [
        (1, "p", 0.0, 10.0, None),
        (2, "a", 1.0, 3.0, 1),
        (3, "b", 2.0, 5.0, 1),    # overlaps a: a worker thread
        (4, "c", 9.0, 12.0, 1),   # runs past its parent: clipped to [9, 10]
        (5, "g", 1.5, 2.5, 2),
    ]
    st = tracing.self_times(spans)
    assert st[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert st[2] == pytest.approx(1.0)
    assert st[3] == pytest.approx(3.0)
    assert st[4] == pytest.approx(3.0)
    assert st[5] == pytest.approx(1.0)


def test_covered_length_disjoint_and_nested():
    assert tracing.covered_length([(0, 1), (2, 3), (2.5, 2.7)], 0, 10) == pytest.approx(2.0)
    assert tracing.covered_length([], 0, 1) == 0.0


def test_inclusive_time_counts_outermost_span_once():
    spans = [
        (1, "cocycle.log_norms_batch", 0.0, 4.0, None),
        (2, "cocycle.log_norms_batch", 1.0, 2.0, 1),
        (3, "surgery.perturbed_entries", 5.0, 9.0, None),
        (4, "cocycle.entries", 6.0, 8.0, 3),
    ]
    m = tracing.layer_metrics(spans, {"cocycle.log_norms_batch_steps": 8_000_000})
    assert m["cocycle.log_norms_batch_s"] == pytest.approx(4.0)
    assert m["cocycle.log_norms_batch_msteps_per_s"] == pytest.approx(2.0)
    assert m["surgery.perturbed_entries_s"] == pytest.approx(2.0)  # self time
    assert m["cocycle.entries_s"] == pytest.approx(2.0)


def test_worker_spans_adopt_the_parallel_parent():
    rec = tracing.Recorder("t")
    tok = rec.begin()

    def work():
        prev = rec.adopt(tok[0])
        inner = rec.begin()
        rec.count("n", 2)
        rec.end("child", inner)
        rec.adopt(prev)

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    rec.end("parent", tok)
    assert [s[4] for s in rec.spans if s[1] == "child"] == [tok[0], tok[0]]
    assert rec.counts() == {"n": 4}
    assert json.loads(json.dumps(rec.to_json()))["run_id"] == "t"


def test_tracer_wraps_imported_copies_and_restores_them():
    originals = (basedyn.inter_union, surgery.inter_union, towers.Castle.verify)
    assert surgery.inter_union is basedyn.inter_union
    rec = tracing.Recorder("t")
    tracer = tracing.Tracer(rec)
    tracer.install()
    try:
        assert surgery.inter_union is basedyn.inter_union is not originals[0]
        towers.build_castle(basedyn.CircleRotation.golden(grid_size=512), 3)
    finally:
        tracer.uninstall()
    assert (basedyn.inter_union, surgery.inter_union, towers.Castle.verify) == originals
    names = {s[1]: s for s in rec.spans}
    build, verify = names["towers.build_castle"], names["towers.castle_verify"]
    assert verify[4] == build[0]  # Castle.verify runs inside build_castle
    m = tracing.layer_metrics(rec.spans, rec.counts())
    assert m["exact.quadext_compares"] > 0 and m["exact.quadext_ops"] > 0
    assert m["exact.best_denominators_calls"] > 0


def test_benchmark_json_names_every_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    produced = set(tracing.layer_metrics([], {})) | {"trace.overhead_s"}
    assert names == produced


# -- checks reject corrupted outputs -------------------------------------------------------


def test_exact_sign_matches_floats():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b = (checks.Fraction(int(v), 7) for v in rng.integers(-50, 50, size=2))
        expect = float(a) + float(b) * math.sqrt(5)
        assert checks.quad_sign(a, b, 5) == (expect > 0) - (expect < 0)


def test_castle_check_rejects_a_removed_floor():
    base = basedyn.CircleRotation.golden(grid_size=10_000)
    castle = towers.build_castle(base, 10)
    checks.check_castle(castle, 10, np.random.default_rng(1))
    short = [towers.Tower(t.base, t.height) for t in castle.towers]
    k = next(i for i, t in enumerate(short) if t.height == 11)
    short[k] = towers.Tower(short[k].base, 10)  # heights still in {N, N+1}
    with pytest.raises(checks.CheckFailed, match="Kac"):
        checks.castle_invariants(short, 10, 5)
    with pytest.raises(checks.CheckFailed, match="first return"):
        checks.marched_return_times(short, base.alpha_float, np.random.default_rng(1), 8)


@pytest.fixture(scope="module")
def plans():
    base = basedyn.CircleRotation.golden(grid_size=2048)
    co = cocycle.Cocycle(base, cocycle.SchrodingerGenerator(0.0, 1.2))
    eps = 0.18
    W, m = perturb.choose_steering_window(co, eps)
    m1 = max(basedyn.covering_time(base, W), m)
    N = perturb.choose_N(co, eps, math.log(co.sup_norm + eps) + 1e-9, m1)
    xs = [base.point(float(x)) for x in np.random.default_rng(3).random(6)]
    return co, perturb.plan_segments(co, xs, eps, N, W, m1, m)


def test_plans_check_rejects_a_perturbed_matrix(plans):
    co, ps = plans
    checks.check_plans(co, ps, 0.0, 1.2, "golden", np.random.default_rng(0), sample=len(ps))
    plan = next(p for p in ps if isinstance(p.branch, perturb.Steered))
    mats = plan.branch.block.matrices
    mats[0] = sl2.rotation(0.3) @ mats[0]  # unimodular, but far from A
    with pytest.raises(checks.CheckFailed, match=r"\|\|L_j - A\|\|"):
        checks.check_plans(co, ps, 0.0, 1.2, "golden", np.random.default_rng(0),
                           sample=len(ps))


def test_sweep_check_rejects_values_below_log_lambda(tmp_path, capsys):
    n, grid = 300, 256
    argv = ["exponent", "--threads", "2", "--out", str(tmp_path), f"--base.grid={grid}",
            "--generator.coupling=3", f"--n={n}"]
    assert cli.main(argv) == 0
    summary, xs, vals = checks.read_sweep(tmp_path)
    kw = dict(n=n, grid=grid, energy=0.0, coupling=3.0, lanes=2,
              alpha=basedyn.CircleRotation.golden(grid_size=grid).alpha_float)
    checks.check_sweep(summary, xs, vals, rng=np.random.default_rng(0), **kw)
    low = vals - 0.02
    summary["mean"] = float(low.mean())
    with pytest.raises(checks.CheckFailed, match="Herman"):
        checks.check_sweep(summary, xs, low, rng=np.random.default_rng(0), **kw)
    one = vals.copy()
    one[7] += 1e-9
    with pytest.raises(checks.CheckFailed, match="mpmath"):
        checks.check_sweep(summary | {"mean": float(one.mean())}, xs, one,
                           rng=np.random.default_rng(0), **kw | {"lanes": grid})


def test_sequential_log_norm_matches_mpmath():
    rng = np.random.default_rng(5)
    th = rng.random(3000) * 2 * math.pi
    a, b, c, d = 2.5 * np.cos(th), -np.ones_like(th), np.ones_like(th), np.zeros_like(th)
    with checks.mpmath.workdps(checks.MP_DIGITS):
        ref = checks.mp_product(tuple(checks.mpmath.mpf(float(v[j])) for v in (a, b, c, d))
                                for j in range(th.size))
        expect = float(checks.mpmath.log(checks.mp_opnorm(*ref)))
    assert checks.sequential_log_norm(a, b, c, d) == pytest.approx(expect, rel=1e-12)
