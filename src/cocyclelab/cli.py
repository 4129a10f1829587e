"""Experiment runner CLI.

One JSON config drives every subcommand; any leaf key is overridable on the
command line as --key=value (dotted paths for nesting).  Artifacts are CSV for
curves and JSON for certificates, written with full-precision decimals and
sorted keys so reruns are bitwise identical.  Exit codes: 0 success, 1 a
certified check failed, 2 configuration or runtime error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Optional

import numpy as np

from . import basedyn, cocycle, perturb, scenarios, surgery, towers
from ._parallel import parallel_lanes
from .errors import CocycleLabError, ConfigError, NotApplicable
from .exact import GOLDEN_MEAN
from .sl2 import Mat2, general_operator_norm

ENV_OUT = "COCYCLELAB_OUT"

DEFAULT_CONFIG: dict = {
    "base": {"variant": "golden", "alpha": None, "grid": 4096, "window_depth": 16},
    "generator": {"family": "schrodinger", "energy": 0.0, "coupling": 3.0,
                  "offset": 0.0, "winding": 0.0, "alpha": None,
                  "entries": [2.0, 0.0, 0.0, 0.5], "table_size": 1024,
                  "table_path": None},
    "eps": 0.1,
    "n": 1000,
    "horizons": [100, 400, 1600],
    "anchor": 0.1234567,
    "seed": 0,
    "threads": 1,
    "steer": {"v_angle": 0.0, "w_angle": 1.2, "m_max": 64},
    "castle_n": 10,
    "freq_points": [0.0],
    "freq_eps": 0.1,
    "surgery": {"verify_grid": 96, "horizon": None, "force": False},
    "out": None,
}


def _merge(dst: dict, src: dict) -> dict:
    for k, v in src.items():
        if isinstance(v, dict) and isinstance(dst.get(k), dict):
            _merge(dst[k], v)
        else:
            dst[k] = v
    return dst


def _set_path(cfg: dict, dotted: str, raw: str) -> None:
    node = cfg
    parts = dotted.split(".")
    for p in parts[:-1]:
        if p not in node or not isinstance(node[p], dict):
            node[p] = {}
        node = node[p]
    try:
        node[parts[-1]] = json.loads(raw)
    except json.JSONDecodeError:
        node[parts[-1]] = raw


def load_config(path: Optional[str], overrides: list[str]) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            _merge(cfg, json.loads(p.read_text()))
        except json.JSONDecodeError as e:
            raise ConfigError(f"config parse error in {path}: line {e.lineno} col {e.colno}: {e.msg}")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, _, val = item.partition("=")
        _set_path(cfg, key.strip().lstrip("-"), val)
    _check_config(cfg)
    return cfg


def _check_config(cfg: dict) -> None:
    """Reject values that no command can run with, before any work starts."""
    b = cfg["base"]
    try:
        eps = float(cfg["eps"])
        grid = b["grid"]
        grid_ok = int(grid) == grid and grid >= 1
        angles = [float(b[k]) for k in ("alpha", "beta") if b.get(k) is not None]
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"eps, base.grid and base angles must be numbers: {e}")
    if not (math.isfinite(eps) and eps > 0):
        raise ConfigError(f"eps must be finite and positive, got {cfg['eps']!r}")
    if not all(map(math.isfinite, angles)):
        raise ConfigError(f"base angles must be finite, got {angles}")
    if not grid_ok:
        raise ConfigError(f"base.grid must be an integer >= 1, got {grid!r}")


def build_base(cfg: dict) -> basedyn.BaseSystem:
    b = cfg["base"]
    variant = b.get("variant", "golden")
    grid = int(b.get("grid", 4096))
    if variant == "golden":
        return basedyn.CircleRotation.golden(grid_size=grid)
    if variant == "silver":
        return basedyn.CircleRotation.silver(grid_size=grid)
    if variant == "circle":
        alpha = b.get("alpha")
        if alpha is None:
            raise ConfigError("base.alpha required for variant 'circle'")
        return basedyn.CircleRotation(float(alpha), grid_size=grid)
    if variant == "sturmian":
        beta = b.get("beta", b.get("alpha"))
        return basedyn.SturmianShift(GOLDEN_MEAN if beta is None else float(beta),
                                     window_depth=int(b.get("window_depth", 16)),
                                     grid_size=grid)
    raise ConfigError(f"unknown base variant {variant!r}")


def build_generator(cfg: dict) -> cocycle.Generator:
    g = cfg["generator"]
    fam = g.get("family", "schrodinger")
    if fam == "schrodinger":
        return cocycle.SchrodingerGenerator(float(g.get("energy", 0.0)),
                                            float(g.get("coupling", 3.0)))
    if fam == "rotation":
        return cocycle.RotationGenerator(float(g.get("offset", 0.0)),
                                         float(g.get("winding", 0.0)))
    if fam == "constant":
        e = [float(v) for v in g.get("entries", [2.0, 0.0, 0.0, 0.5])]
        return cocycle.ConstantGenerator(Mat2.normalized(*e))
    if fam == "example":
        alpha = g.get("alpha")
        if alpha is None:
            alpha = 2.0 * math.pi * float(GOLDEN_MEAN)
        return cocycle.HopfRestrictionGenerator(alpha=float(alpha))
    if fam == "twisted-table":
        return cocycle.twisted_table(float(g.get("coupling", 1.2)),
                                     int(g.get("table_size", 1024)))
    if fam == "table":
        path = g.get("table_path")
        if not path or not Path(path).exists():
            raise ConfigError(f"generator.table_path missing or not found: {path}")
        vals = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(1, 2, 3, 4))
        return cocycle.TableGenerator(vals)
    raise ConfigError(f"unknown generator family {fam!r}")


def build_cocycle(cfg: dict) -> cocycle.Cocycle:
    return cocycle.Cocycle(build_base(cfg), build_generator(cfg))


def out_dir(cfg: dict) -> Path:
    out = cfg.get("out") or os.environ.get(ENV_OUT) or "cocyclelab-out"
    p = Path(out)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- subcommands ----------------------------------------------------------------


def cmd_exponent(cfg: dict) -> int:
    co = build_cocycle(cfg)
    rep = cocycle.growth_sweep(co, int(cfg["n"]), threads=int(cfg["threads"]))
    out = out_dir(cfg)
    rep.to_csv(out / "exponent.csv")
    _write_json(out / "exponent.json", {
        "n": rep.n, "grid": rep.grid_size, "min": rep.min, "max": rep.max,
        "mean": rep.mean, "argmax": rep.argmax})
    print(f"exponent sweep n={rep.n}: mean {rep.mean:.6f}, max {rep.max:.6f}")
    return 0


def cmd_growth_test(cfg: dict) -> int:
    co = build_cocycle(cfg)
    rep = cocycle.growth_sweep(co, int(cfg["n"]), threads=int(cfg["threads"]))
    eps = float(cfg["eps"])
    ok = rep.max < eps - rep.margin
    out = out_dir(cfg)
    rep.to_csv(out / "growth.csv")
    _write_json(out / "growth.json", {
        "eps": eps, "n": rep.n, "max": rep.max, "margin": rep.margin, "pass": ok})
    print(f"uniform growth test at eps={eps}, n={rep.n}: {'PASS' if ok else 'FAIL'} "
          f"(max {rep.max:.6f}, margin {rep.margin:.2e})")
    return 0 if ok else 1


def cmd_uh_check(cfg: dict) -> int:
    co = build_cocycle(cfg)
    res = cocycle.uh_certify(co)
    out = out_dir(cfg)
    payload: dict[str, Any] = {"kind": type(res).__name__}
    if isinstance(res, cocycle.Certificate):
        payload.update(expansion=res.expansion, n=res.n, cone_width=res.cone_width)
    elif isinstance(res, cocycle.Witness):
        payload.update(n=res.n, value=res.value)
    else:
        payload.update(reason=res.reason)
    _write_json(out / "uh.json", payload)
    print(f"uh-check: {payload}")
    return 0


def cmd_steer(cfg: dict) -> int:
    co = build_cocycle(cfg)
    s = cfg["steer"]
    v = (math.cos(float(s["v_angle"])), math.sin(float(s["v_angle"])))
    w = (math.cos(float(s["w_angle"])), math.sin(float(s["w_angle"])))
    x = co.base.point(float(cfg["anchor"]))
    blk = perturb.steer_direction(co, x, v, w, float(cfg["eps"]), int(s["m_max"]))
    dist = 0.0
    if blk.matrices:
        gen = co.generator.entries(co.orbit(x, blk.length))
        mats = np.array([M.entries() for M in blk.matrices])
        dist = float(general_operator_norm(*(mats[:, k] - g for k, g in enumerate(gen))).max())
    out = out_dir(cfg)
    _write_json(out / "steer.json", {
        "m": blk.length, "achieved_error": blk.achieved_error,
        "budget": blk.budget, "max_distance": dist})
    print(f"steering block: m={blk.length}, error={blk.achieved_error:.2e}")
    return 0


def cmd_plan_segment(cfg: dict) -> int:
    co = build_cocycle(cfg)
    eps = float(cfg["eps"])
    W, m = perturb.choose_steering_window(co, eps)
    m1 = max(basedyn.covering_time(co.base, W), m)
    c = math.log(co.sup_norm + eps) + 1e-9
    N = perturb.choose_N(co, eps, c, m1)
    x = co.base.point(float(cfg["anchor"]))
    plan = perturb.plan_segment(co, x, eps, N, W, m1, m)
    rep = perturb.verify_segment(co, plan)
    out = out_dir(cfg)
    (out / "segment.txt").write_text(plan.to_text())
    _write_json(out / "segment.json", {
        "N": N, "m": m, "m1": m1, "branch": type(plan.branch).__name__,
        "max_distance": rep.max_distance, "product_log_norm": rep.product_log_norm,
        "eps_N": eps * N, "pass": rep.passes})
    print(f"segment plan N={N} branch={type(plan.branch).__name__}: "
          f"dist {rep.max_distance:.3e} < {eps}, log-norm {rep.product_log_norm:.3f} < {eps * N:.3f}")
    return 0 if rep.passes else 1


def cmd_castle(cfg: dict) -> int:
    base = build_base(cfg)
    N = int(cfg["castle_n"])
    castle = towers.build_castle(base, N)
    out = out_dir(cfg)
    castle.to_csv(out / "castle.csv")
    _write_json(out / "castle.json", {
        "N": N, "towers": len(castle.towers), "floors": castle.floor_count(),
        "heights": sorted({t.height for t in castle.towers}), **castle.report})
    print(f"castle N={N}: {len(castle.towers)} towers, heights "
          f"{sorted({t.height for t in castle.towers})}")
    return 0


def cmd_freq_bound(cfg: dict) -> int:
    base = build_base(cfg)
    pts = [float(p) for p in cfg["freq_points"]]
    fb = towers.visit_freq_bound(base, pts, float(cfg["freq_eps"]))
    out = out_dir(cfg)
    fb.to_json(out / "freq.json")
    print(f"freq bound: rho={fb.rho:.3e}, n0={fb.n0}, sup={fb.sup_frequency:.3e}")
    return 0


def cmd_surgery(cfg: dict) -> int:
    co = build_cocycle(cfg)
    s = cfg["surgery"]
    eps = float(cfg["eps"])
    out = out_dir(cfg)
    threads = int(cfg["threads"])
    try:
        scfg = surgery.build_config(co, eps, force=bool(s.get("force", False)))
    except NotApplicable as e:
        _write_json(out / "surgery.json", {"applicable": False, "reason": str(e)})
        print(f"surgery not applicable: {e}")
        return 1
    pc = surgery.assemble_perturbation(co, scfg)
    n = s.get("horizon") or int(max(scfg.n0, (scfg.N + 1) / eps)) + 1
    gsize = int(s.get("verify_grid", 96))
    grid = np.arange(gsize) / gsize
    cert = surgery.verify_growth(pc, scfg, int(n), grid=grid)

    before = parallel_lanes(lambda sl: cocycle.log_norms_batch(co, sl, 2048), grid, threads) / 2048
    after = parallel_lanes(lambda sl: cocycle.log_norms_batch(pc.cocycle, sl, 2048), grid, threads) / 2048
    with open(out / "surgery_growth.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "log_growth_before", "log_growth_after"])
        for row in zip(grid, before, after):
            w.writerow([f"{v:.17g}" for v in row])
    pc.export_table(out / "surgery_table.csv")
    cert.to_json(out / "surgery.json")
    print(f"surgery: N={scfg.N}, sup-dist {pc.sup_distance:.4f}, "
          f"certificate {'PASS' if cert.passed else 'FAIL'} "
          f"(direct {cert.max_direct:.4f} vs bound {cert.bound:.4f})")
    return 0 if cert.passed else 1


def cmd_demo_hopf(cfg: dict) -> int:
    alpha = cfg.get("hopf_alpha")
    if alpha is None:
        alpha = 2.0 * math.pi * float(GOLDEN_MEAN)
    cert = scenarios.certify_restricted_uh(float(alpha), grid_size=int(cfg["base"]["grid"]))
    out = out_dir(cfg)
    scenarios.export_unstable_field(cert, out / "hopf_field.csv")
    _write_json(out / "hopf.json", {
        "expansion": cert.expansion, "winding": cert.winding,
        "cone_width": cert.cone_width})
    print(f"hopf: expansion {cert.expansion:.9f}, winding {cert.winding}")
    return 0


def cmd_selftest(cfg: dict) -> int:
    failures = 0

    def check(name: str, fn) -> None:
        nonlocal failures
        try:
            fn()
            print(f"  ok   {name}")
        except Exception as e:  # noqa: BLE001 - report and count
            failures += 1
            print(f"  FAIL {name}: {type(e).__name__}: {e}")

    from .sl2 import exp_map, log_map, operator_norm, rotation as rot_m

    check("rotation group law", lambda: _assert(
        abs((rot_m(0.7) @ rot_m(0.9)).a - rot_m(1.6).a) < 1e-12))
    check("operator norm golden ratio", lambda: _assert(
        abs(operator_norm(Mat2(1, 1, 0, 1)) - (1 + math.sqrt(5)) / 2) < 1e-12))
    check("exp/log roundtrip", lambda: _assert(
        abs(exp_map(log_map(Mat2(1.2, 0.3, 0.1, (1 + 0.3 * 0.1) / 1.2))).a - 1.2) < 1e-9))
    check("frobenius formula vs dp", lambda: _assert(all(
        towers.frobenius_threshold(N) == towers.frobenius_threshold_dp(N)
        for N in (2, 5, 12))))

    rotg = basedyn.CircleRotation.golden(grid_size=512)
    check("castle N=3", lambda: towers.build_castle(rotg, 3))
    check("first return two times", lambda: _assert(
        sorted(n for _, n in basedyn.first_return(
            rotg, basedyn.Cell.from_union([(rotg.lift(0), rotg.alpha)]))) == [1, 2]))
    co = cocycle.Cocycle(rotg, cocycle.ConstantGenerator(Mat2(2, 0, 0, 0.5)))
    check("uh certificate constant diag", lambda: _assert(
        isinstance(cocycle.uh_certify(co), cocycle.Certificate)))
    check("hopf winding", lambda: _assert(
        scenarios.certify_restricted_uh(2 * math.pi * float(GOLDEN_MEAN), 2048).winding == 1))
    print("selftest:", "PASS" if failures == 0 else f"{failures} FAILURES")
    return 0 if failures == 0 else 1


def _assert(cond: bool) -> None:
    if not cond:
        raise AssertionError("check failed")


COMMANDS = {
    "exponent": cmd_exponent,
    "growth-test": cmd_growth_test,
    "uh-check": cmd_uh_check,
    "steer": cmd_steer,
    "plan-segment": cmd_plan_segment,
    "castle": cmd_castle,
    "freq-bound": cmd_freq_bound,
    "surgery": cmd_surgery,
    "demo-hopf": cmd_demo_hopf,
    "selftest": cmd_selftest,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cocyclelab",
        description="Cocycle laboratory: exponents, castles, certified perturbations.",
        epilog="Any config key is overridable as --key=value (dotted paths, "
               "e.g. --base.grid=2048 --generator.coupling=3).")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--threads", type=int, default=None,
                        help="grid-sweep parallelism (results are thread-count independent)")
    parser.add_argument("--out", default=None, help=f"output dir (or ${ENV_OUT})")
    args, extra = parser.parse_known_args(argv)
    overrides = []
    for item in extra:
        if item.startswith("--") and "=" in item:
            overrides.append(item[2:])
        else:
            print(f"config error: unrecognized argument {item!r} "
                  "(overrides look like --key=value)", file=sys.stderr)
            return 2
    try:
        cfg = load_config(args.config, overrides)
        if args.threads is not None:
            cfg["threads"] = args.threads
        if args.out is not None:
            cfg["out"] = args.out
        return COMMANDS[args.command](cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except CocycleLabError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
