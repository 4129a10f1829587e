"""Experiment runner CLI.

One JSON config drives every subcommand; any leaf key is overridable on the
command line as --key=value (dotted paths for nesting).  A key that
DEFAULT_CONFIG does not have, or a value of another type than the key's
default, is a configuration error.  Artifacts are CSV for curves and JSON for
certificates, and this module is the one that reads and writes files: every
CSV goes through `_write_csv` (floats as .17g, which round-trip exactly, ints
as they are) and every JSON through `_write_json` (sorted keys, a final
newline), so reruns are bitwise identical; the one other artifact is
`plan-segment`'s plan text.  A command makes the output directory once, after
its inputs are built and before any work; a path the run cannot use (config
file, table file, output directory or an artifact in it) exits 2 naming it.
Exit codes: 0 success, 1 a certified check failed, 2 configuration or runtime
error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings
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
    "base": {"variant": "golden", "alpha": None, "grid": 4096},
    "generator": {"family": "schrodinger", "energy": 0.0, "coupling": 3.0,
                  "offset": 0.0, "winding": 0.0, "alpha": None,
                  "entries": [2.0, 0.0, 0.0, 0.5], "table_size": 1024,
                  "table_path": None},
    "eps": 0.1,
    "n": 1000,
    "anchor": 0.1234567,
    "threads": 1,
    "steer": {"v_angle": 0.0, "w_angle": 1.2, "m_max": 64},
    "castle_n": 10,
    "freq_points": [0.0],
    "freq_eps": 0.1,
    "surgery": {"verify_grid": 96, "horizon": None, "force": False},
    "hopf_alpha": None,
    "out": None,
}


def _merge(dst: dict, src: dict, prefix: str = "") -> None:
    """Overwrite dst's leaves with src's; every key of src must be one of dst's."""
    for k, v in src.items():
        if k not in dst:
            raise ConfigError(f"unknown config key {prefix + k!r}")
        if isinstance(v, dict) != isinstance(dst[k], dict):
            what = "must" if isinstance(dst[k], dict) else "cannot"
            raise ConfigError(f"config key {prefix + k!r} {what} be an object")
        if isinstance(v, dict):
            _merge(dst[k], v, f"{prefix}{k}.")
        else:
            dst[k] = v


def _set_path(cfg: dict, dotted: str, raw: str) -> None:
    try:
        val = json.loads(raw)
    except json.JSONDecodeError:
        val = raw
    for part in reversed(dotted.split(".")):
        val = {part: val}
    _merge(cfg, val)


def _read_text(path: Path, what: str) -> str:
    """The UTF-8 text of a file the run reads; an unreadable one is a ConfigError naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{what} {str(path)!r} is not UTF-8 text (byte {e.start})") from None
    except OSError as e:
        raise ConfigError(f"{what} {str(path)!r}: {e.strerror}") from None


def load_config(path: Optional[str], overrides: list[str]) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path:
        try:
            loaded = json.loads(_read_text(Path(path), "config file"))
        except json.JSONDecodeError as e:
            raise ConfigError(f"config parse error in {path}: line {e.lineno} col {e.colno}: {e.msg}")
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        _merge(cfg, loaded)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, _, val = item.partition("=")
        _set_path(cfg, key.strip().lstrip("-"), val)
    _check_types(cfg, DEFAULT_CONFIG)
    _check_config(cfg)
    return cfg


# The value type of each key whose default is None; every other key takes its
# default's type.  A None default also admits null.
_NULLABLE = {"base.alpha": float, "generator.alpha": float, "generator.table_path": str,
             "surgery.horizon": int, "hopf_alpha": float, "out": str}


def _number(v, integral: bool = False) -> bool:
    """v is a finite JSON number (not a boolean), and a whole one if asked."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        f = float(v)
    except OverflowError:
        return False
    return math.isfinite(f) and (f.is_integer() or not integral)


_KINDS = {
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: _number(v, integral=True)),
    float: ("a finite number", _number),
    str: ("a string", lambda v: isinstance(v, str)),
    list: ("a list of finite numbers", lambda v: isinstance(v, list) and all(map(_number, v))),
}


def _check_types(cfg: dict, default: dict, prefix: str = "") -> None:
    """Every leaf of cfg has its default's type (or _NULLABLE's); names the key if not."""
    for k, d in default.items():
        key, v = prefix + k, cfg[k]
        if isinstance(d, dict):
            _check_types(v, d, key + ".")
        elif not (d is None and v is None):
            what, ok = _KINDS[_NULLABLE[key] if d is None else type(d)]
            if not ok(v):
                raise ConfigError(f"config key {key!r} must be {what}, got {v!r}")


def _check_config(cfg: dict) -> None:
    """Reject values that no command can run with, before any work starts."""
    eps, grid = cfg["eps"], cfg["base"]["grid"]
    if not eps > 0:
        raise ConfigError(f"eps must be positive, got {eps!r}")
    if not grid >= 1:
        raise ConfigError(f"base.grid must be an integer >= 1, got {grid!r}")
    if not cfg["threads"] >= 1:
        raise ConfigError(f"threads must be an integer >= 1, got {cfg['threads']!r}")
    if not cfg["n"] >= 1:
        raise ConfigError(f"n must be an integer >= 1, got {cfg['n']!r}")
    if not cfg["castle_n"] >= 1:
        raise ConfigError(f"castle_n must be an integer >= 1, got {cfg['castle_n']!r}")
    if not cfg["freq_eps"] > 0:
        raise ConfigError(f"freq_eps must be positive, got {cfg['freq_eps']!r}")
    if not cfg["steer"]["m_max"] >= 1:
        raise ConfigError(f"steer.m_max must be an integer >= 1, got {cfg['steer']['m_max']!r}")
    if len(cfg["generator"]["entries"]) != 4:
        raise ConfigError(f"generator.entries must be 4 numbers a, b, c, d, "
                          f"got {cfg['generator']['entries']!r}")
    if not cfg["generator"]["table_size"] >= 1:
        raise ConfigError(f"generator.table_size must be an integer >= 1, "
                          f"got {cfg['generator']['table_size']!r}")
    verify_grid, horizon = cfg["surgery"]["verify_grid"], cfg["surgery"]["horizon"]
    if not verify_grid >= 1:
        raise ConfigError(f"surgery.verify_grid must be an integer >= 1, got {verify_grid!r}")
    if horizon is not None and not horizon >= 1:
        raise ConfigError(f"surgery.horizon must be null or an integer >= 1, got {horizon!r}")


def build_base(cfg: dict) -> basedyn.CircleRotation:
    b = cfg["base"]
    variant, grid = b["variant"], int(b["grid"])
    if variant == "golden":
        return basedyn.CircleRotation.golden(grid_size=grid)
    if variant == "silver":
        return basedyn.CircleRotation.silver(grid_size=grid)
    if variant == "circle":
        if b["alpha"] is None:
            raise ConfigError("base.alpha required for variant 'circle'")
        return basedyn.CircleRotation(float(b["alpha"]), grid_size=grid)
    if variant == "sturmian":  # the shift is presented by the rotation by its slope
        beta = GOLDEN_MEAN if b["alpha"] is None else float(b["alpha"])
        return basedyn.CircleRotation(beta, grid_size=grid)
    raise ConfigError(f"unknown base variant {variant!r}")


def build_generator(cfg: dict) -> cocycle.Generator:
    g = cfg["generator"]
    fam = g["family"]
    if fam == "schrodinger":
        return cocycle.SchrodingerGenerator(float(g["energy"]), float(g["coupling"]))
    if fam == "rotation":
        return cocycle.RotationGenerator(float(g["offset"]), float(g["winding"]))
    if fam == "constant":
        return cocycle.ConstantGenerator(Mat2.normalized(*(float(v) for v in g["entries"])))
    if fam == "example":
        alpha = g["alpha"]
        if alpha is None:
            alpha = 2.0 * math.pi * float(GOLDEN_MEAN)
        return cocycle.HopfRestrictionGenerator(alpha=float(alpha))
    if fam == "twisted-table":
        return cocycle.twisted_table(float(g["coupling"]), int(g["table_size"]))
    if fam == "table":
        path = g["table_path"]
        if not path or not Path(path).exists():
            raise ConfigError(f"generator.table_path missing or not found: {path}")
        try:
            # data rows as loadtxt reads them: after the header, comments cut,
            # blank lines skipped; its own ragged-row message counts file lines
            lines = _read_text(Path(path), "generator.table_path").splitlines()
            data = [ln for ln in (raw.split("#")[0] for raw in lines[1:]) if ln.strip()]
            bad = next((i for i, ln in enumerate(data) if ln.count(",") != 4), None)
            if bad is None:
                with warnings.catch_warnings():  # an empty table is reported below
                    warnings.simplefilter("ignore", UserWarning)
                    vals = np.loadtxt(lines, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as e:  # a non-numeric cell
            raise ConfigError(f"generator.table_path {path!r}: {e}") from None
        if bad is not None:
            raise ConfigError(f"generator.table_path {path!r}: row {bad} has "
                              f"{data[bad].count(',') + 1} columns, not the 5 of x,a,b,c,d")
        if vals.size == 0:
            raise ConfigError(f"generator.table_path {path!r} holds no table rows")
        rows = vals.shape[0]
        off = ~(np.abs(vals[:, 0] - np.arange(rows) / rows) <= 1e-9)  # a NaN x is off too
        if off.any():
            i = int(np.argmax(off))
            raise ConfigError(f"generator.table_path {path!r}: row {i} has x = "
                              f"{float(vals[i, 0])!r}, not {i}/{rows}")
        try:
            return cocycle.TableGenerator(vals[:, 1:])
        except CocycleLabError as e:  # a row off the determinant gate
            raise ConfigError(f"generator.table_path {path!r}: {e}") from None
    raise ConfigError(f"unknown generator family {fam!r}")


def build_cocycle(cfg: dict) -> cocycle.Cocycle:
    return cocycle.Cocycle(build_base(cfg), build_generator(cfg))


def out_dir(cfg: dict) -> Path:
    out = cfg["out"] or os.environ.get(ENV_OUT) or "cocyclelab-out"
    p = Path(out)
    try:
        p.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # a file in the way, or a parent that is not a directory
        raise ConfigError(f"output directory {out!r}: {e.strerror}") from None
    return p


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row] for row in rows)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_growth_csv(path: Path, rep: cocycle.GrowthReport) -> None:
    _write_csv(path, ["x", "n", "log_norm_over_n"],
               ((x, rep.n, v) for x, v in zip(rep.positions, rep.values)))


# -- subcommands ----------------------------------------------------------------


def cmd_exponent(cfg: dict) -> int:
    co = build_cocycle(cfg)
    out = out_dir(cfg)
    rep = cocycle.growth_sweep(co, int(cfg["n"]), threads=int(cfg["threads"]))
    _write_growth_csv(out / "exponent.csv", rep)
    _write_json(out / "exponent.json", {
        "n": rep.n, "grid": rep.grid_size, "min": rep.min, "max": rep.max,
        "mean": rep.mean, "argmax": rep.argmax})
    print(f"exponent sweep n={rep.n}: mean {rep.mean:.6f}, max {rep.max:.6f}")
    return 0


def cmd_growth_test(cfg: dict) -> int:
    co = build_cocycle(cfg)
    out = out_dir(cfg)
    eps = float(cfg["eps"])
    ok, rep = cocycle.uniform_growth_test(co, eps, int(cfg["n"]), threads=int(cfg["threads"]))
    _write_growth_csv(out / "growth.csv", rep)
    _write_json(out / "growth.json", {
        "eps": eps, "n": rep.n, "max": rep.max, "margin": rep.margin, "pass": ok})
    print(f"uniform growth test at eps={eps}, n={rep.n}: {'PASS' if ok else 'FAIL'} "
          f"(max {rep.max:.6f}, margin {rep.margin:.2e})")
    return 0 if ok else 1


def cmd_uh_check(cfg: dict) -> int:
    co = build_cocycle(cfg)
    out = out_dir(cfg)
    res = cocycle.uh_certify(co)
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
    out = out_dir(cfg)
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
    _write_json(out / "steer.json", {
        "m": blk.length, "achieved_error": blk.achieved_error,
        "budget": blk.budget, "max_distance": dist})
    print(f"steering block: m={blk.length}, error={blk.achieved_error:.2e}")
    return 0


def cmd_plan_segment(cfg: dict) -> int:
    co = build_cocycle(cfg)
    out = out_dir(cfg)
    eps = float(cfg["eps"])
    _, W, m, m1, N = perturb.plan_constants(co, eps)
    x = co.base.point(float(cfg["anchor"]))
    plan = perturb.plan_segment(co, x, eps, N, W, m1, m)
    rep = perturb.verify_segment(co, plan)
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
    out = out_dir(cfg)
    N = int(cfg["castle_n"])
    castle = towers.build_castle(base, N)
    _write_csv(out / "castle.csv", ["base_lo", "base_hi", "height"],
               ((float(lo), float(hi), t.height) for t in castle.towers
                for lo, hi in t.base.intervals))
    _write_json(out / "castle.json", {
        "N": N, "towers": len(castle.towers), "floors": castle.floor_count(),
        "heights": sorted({t.height for t in castle.towers}), **castle.report})
    print(f"castle N={N}: {len(castle.towers)} towers, heights "
          f"{sorted({t.height for t in castle.towers})}")
    return 0


def cmd_freq_bound(cfg: dict) -> int:
    base = build_base(cfg)
    out = out_dir(cfg)
    pts = [float(p) for p in cfg["freq_points"]]
    fb = towers.visit_freq_bound(base, pts, float(cfg["freq_eps"]))
    _write_json(out / "freq.json", {"rho": fb.rho, "n0": fb.n0, "eps": fb.eps,
                                    "sup_frequency": fb.sup_frequency})
    print(f"freq bound: rho={fb.rho:.3e}, n0={fb.n0}, sup={fb.sup_frequency:.3e}")
    return 0


def cmd_surgery(cfg: dict) -> int:
    co = build_cocycle(cfg)
    out = out_dir(cfg)
    s = cfg["surgery"]
    threads = int(cfg["threads"])
    gsize = int(s["verify_grid"])
    grid = np.arange(gsize) / gsize
    try:
        scfg, pc, cert = surgery.run_surgery(
            co, float(cfg["eps"]), verify_grid=grid,
            horizon=None if s["horizon"] is None else int(s["horizon"]), force=bool(s["force"]))
    except NotApplicable as e:
        _write_json(out / "surgery.json", {"applicable": False, "reason": str(e)})
        print(f"surgery not applicable: {e}")
        return 1

    before = parallel_lanes(lambda sl: cocycle.log_norms_batch(co, sl, 2048), grid, threads) / 2048
    after = parallel_lanes(lambda sl: pc.log_norms(sl, 2048), grid, threads) / 2048
    _write_csv(out / "surgery_growth.csv", ["x", "log_growth_before", "log_growth_after"],
               zip(grid, before, after))
    xs = co.base.grid_floats()
    _write_csv(out / "surgery_table.csv", ["x", "a", "b", "c", "d", "bump"],
               zip(xs, *pc.entries(xs), pc.bump(xs)))
    _write_json(out / "surgery.json", {
        "horizon": cert.n, "grid": cert.grid_size, "max_direct": cert.max_direct,
        "margin": cert.margin, "uniform_bound": cert.uniform_bound,
        "uniform_head_tail": cert.head_tail, "uniform_table_rate": cert.table_rate,
        "uniform_v_blocks": cert.v_blocks, "bound": cert.bound, "pass": cert.passed,
        "visit_freq_sup": cert.visit_freq_sup, "visit_freq_cap": cert.visit_freq_cap,
        "dominance_ok": cert.dominance_ok})
    print(f"surgery: N={scfg.N}, sup-dist {pc.sup_distance:.4f}, "
          f"certificate {'PASS' if cert.passed else 'FAIL'} "
          f"(direct {cert.max_direct:.4f} vs bound {cert.bound:.4f})")
    return 0 if cert.passed else 1


def cmd_demo_hopf(cfg: dict) -> int:
    out = out_dir(cfg)
    alpha = cfg["hopf_alpha"]
    if alpha is None:
        alpha = 2.0 * math.pi * float(GOLDEN_MEAN)
    cert = scenarios.certify_restricted_uh(float(alpha), grid_size=int(cfg["base"]["grid"]))
    G = cert.field.angles.size
    _write_csv(out / "hopf_field.csv", ["theta", "direction_angle"],
               ((2.0 * math.pi * i / G, ang) for i, ang in enumerate(cert.field.angles)))
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
                        help="threads for grid sweeps, >= 1 (results are thread-count independent)")
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
    if args.threads is not None:  # checked like the config key, and wins over it
        overrides.append(f"threads={args.threads}")
    try:
        cfg = load_config(args.config, overrides)
        if args.out is not None:
            cfg["out"] = args.out
        return COMMANDS[args.command](cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (CocycleLabError, OSError) as e:  # only this module does file I/O
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
