"""Independent checks of each workload's outputs.

Each check recomputes what it can without the program's own kernels: exact
sums over Q(sqrt D) from the raw endpoint coordinates, first returns by
marching float orbits, and 2x2 products in mpmath at 40 digits.  Random probes
come from the benchmark's seed.  A check raises CheckFailed with the first
violation it finds.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction

import mpmath
import numpy as np

MP_DIGITS = 40


class CheckFailed(Exception):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# -- exact arithmetic in Q(sqrt D), on (a, b) pairs ----------------------------------


def quad_pair(x) -> tuple[Fraction, Fraction]:
    """Rational coordinates (a, b) of an exact endpoint a + b sqrt(D)."""
    return Fraction(x.a), Fraction(x.b)


def quad_sign(a: Fraction, b: Fraction, D: int) -> int:
    """Sign of a + b sqrt(D), exactly."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa or sb
    if sa == 0:
        return sb
    # opposite signs: the term with the larger square wins
    diff = a * a - b * b * D
    return sa if diff > 0 else (sb if diff < 0 else 0)


def castle_invariants(towers, N: int, D: int) -> None:
    """Heights in {N, N+1}, bases exactly disjoint, Kac sum exactly 1."""
    kac_a, kac_b = Fraction(0), Fraction(0)
    bases = []
    for t in towers:
        require(t.height in (N, N + 1), f"tower height {t.height} not in {{{N}, {N + 1}}}")
        for lo, hi in t.base.intervals:
            (la, lb), (ha, hb) = quad_pair(lo), quad_pair(hi)
            require(quad_sign(ha - la, hb - lb, D) > 0, "empty or reversed tower base")
            kac_a += t.height * (ha - la)
            kac_b += t.height * (hb - lb)
            bases.append((float(lo), (la, lb), (ha, hb)))
    require((kac_a, kac_b) == (1, 0),
            f"Kac sum of height x |base| is {kac_a} + {kac_b} sqrt{D}, not 1")
    bases.sort(key=lambda b: b[0])
    require(quad_sign(*bases[0][1], D) >= 0, "a tower base starts below 0")
    require(quad_sign(1 - bases[-1][2][0], -bases[-1][2][1], D) >= 0, "a tower base ends above 1")
    for (_, _, (ha, hb)), (_, (la, lb), _) in zip(bases[:-1], bases[1:]):
        require(quad_sign(la - ha, lb - hb, D) >= 0, "tower bases overlap")


def marched_return_times(towers, alpha: float, rng, per_tower: int) -> None:
    """Seeded points of each tower base first return to the base after `height` steps."""
    lo = np.array([float(l) for t in towers for l, _ in t.base.intervals])
    hi = np.array([float(h) for t in towers for _, h in t.base.intervals])
    order = np.argsort(lo)
    lo, hi = lo[order], hi[order]
    top = max(t.height for t in towers) + 1
    for t in towers:
        for l, h in t.base.intervals:
            l, h = float(l), float(h)
            pad = (h - l) * 1e-6
            x = rng.uniform(l + pad, h - pad, size=per_tower)
            first = np.zeros(per_tower, dtype=int)
            for k in range(1, top + 1):
                pos = np.mod(x + k * alpha, 1.0)
                i = np.clip(np.searchsorted(lo, pos, side="right") - 1, 0, lo.size - 1)
                back = (pos >= lo[i]) & (pos < hi[i]) & (first == 0)
                first[back] = k
            require(bool(np.all(first == t.height)),
                    f"marched first return {sorted(set(first.tolist()))} != height {t.height}")


# -- mpmath products ------------------------------------------------------------------


def mp_alpha(variant: str):
    return (mpmath.sqrt(5) - 1) / 2 if variant == "golden" else mpmath.sqrt(2) - 1


def mp_opnorm(a, b, c, d):
    """Largest singular value of [[a, b], [c, d]] in mpmath."""
    g = a * a + b * b + c * c + d * d
    det = a * d - b * c
    disc = (g - 2 * det) * (g + 2 * det)
    return mpmath.sqrt((g + mpmath.sqrt(max(disc, 0))) / 2)


def mp_schrodinger(x, energy: float, coupling: float):
    return (mpmath.mpf(energy) - 2 * mpmath.mpf(coupling) * mpmath.cos(2 * mpmath.pi * x),
            mpmath.mpf(-1), mpmath.mpf(1), mpmath.mpf(0))


def mp_product(mats):
    """Ordered product M_{n-1} ... M_0 of mpmath 4-tuples."""
    pa, pb, pc, pd = (mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(1))
    for a, b, c, d in mats:
        pa, pb, pc, pd = a * pa + b * pc, a * pb + b * pd, c * pa + d * pc, c * pb + d * pd
    return pa, pb, pc, pd


def mp_schrodinger_growth(positions: np.ndarray, energy: float, coupling: float) -> float:
    """(1/n) log ||A_n|| for Schrodinger matrices at the given n orbit positions."""
    with mpmath.workdps(MP_DIGITS):
        mats = (mp_schrodinger(mpmath.mpf(float(x)), energy, coupling) for x in positions)
        return float(mpmath.log(mp_opnorm(*mp_product(mats))) / positions.size)


# -- workload checks --------------------------------------------------------------------


def check_castle(castle, N: int, rng, per_tower: int = 8) -> None:
    alpha = castle.system.alpha
    castle_invariants(castle.towers, N, alpha.D)
    marched_return_times(castle.towers, float(alpha), rng, per_tower)


def check_plans(co, plans, energy: float, coupling: float, variant: str, rng,
                sample: int = 4) -> None:
    """mpmath recomputation of the contract on a seeded sample of plans.

    Checks max_j ||L_j - A(f^j x)|| < eps, log ||L_{N-1}...L_0|| < eps N,
    det L_j = 1 within 1e-12, and that unsteered slots equal the generator
    bitwise.
    """
    from cocyclelab.perturb import Steered, plan_entries

    steered = [i for i, p in enumerate(plans) if isinstance(p.branch, Steered)]
    pick = rng.choice(steered, size=min(sample // 2, len(steered)), replace=False).tolist()
    rest = [i for i in range(len(plans)) if i not in pick]
    pick += rng.choice(rest, size=min(sample - len(pick), len(rest)), replace=False).tolist()
    for i in pick:
        plan = plans[i]
        ents = [np.asarray(e, dtype=float) for e in plan_entries(co, plan)]
        gen = [np.asarray(e, dtype=float) for e in co.generator.entries(co.orbit(plan.x, plan.N))]
        slot = np.zeros(plan.N, dtype=bool)
        if isinstance(plan.branch, Steered):
            j1 = plan.branch.j1
            slot[j1:j1 + plan.branch.block.length] = True
        for e, g in zip(ents, gen):
            require(np.array_equal(e[~slot], g[~slot]),
                    f"plan {i}: an unsteered slot differs from the generator")
        x0 = float(co.base.float_coords(plan.x)[0])
        with mpmath.workdps(MP_DIGITS):
            alpha = mp_alpha(variant)
            mats = []
            dist = mpmath.mpf(0)
            for j in range(plan.N):
                L = tuple(mpmath.mpf(float(e[j])) for e in ents)
                A = mp_schrodinger(mpmath.frac(mpmath.mpf(x0) + j * alpha), energy, coupling)
                require(abs(L[0] * L[3] - L[1] * L[2] - 1) < 1e-12, f"plan {i}: det L_{j} != 1")
                dist = max(dist, mp_opnorm(*(l - a for l, a in zip(L, A))))
                mats.append(L)
            log_norm = mpmath.log(mp_opnorm(*mp_product(mats)))
        require(dist < plan.eps, f"plan {i}: max ||L_j - A|| = {float(dist):.6g} >= eps")
        require(log_norm < plan.eps * plan.N,
                f"plan {i}: log ||L_N-1...L_0|| = {float(log_norm):.6g} >= eps N")


def read_sweep(out_dir) -> tuple[dict, np.ndarray, np.ndarray]:
    """The `exponent` command's artifacts: summary, positions, values."""
    summary = json.loads((out_dir / "exponent.json").read_text())
    with open(out_dir / "exponent.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    xs = np.array([float(r[0]) for r in rows])
    vals = np.array([float(r[2]) for r in rows])
    require(all(int(r[1]) == summary["n"] for r in rows), "horizon column disagrees with n")
    return summary, xs, vals


def herman_tolerance(vals: np.ndarray) -> float:
    """Quadrature bound for the grid mean: total variation / grid size (Koksma)."""
    return float(np.abs(np.diff(np.concatenate([vals, vals[:1]]))).sum()) / vals.size


def check_sweep(summary: dict, xs: np.ndarray, vals: np.ndarray, *, n: int, grid: int,
                energy: float, coupling: float, alpha: float, rng, lanes: int = 1) -> None:
    """Herman's bound on the grid mean, and sampled lanes against mpmath.

    The mpmath product runs over the same float orbit positions x0 + k alpha
    mod 1 as the program, so it measures the product's own rounding.  Against
    the exact rotation some lanes differ by about 1e-9, from the positions.
    """
    require(summary["n"] == n and summary["grid"] == grid and vals.size == grid,
            "sweep size differs from its input")
    require(np.array_equal(xs, np.arange(grid) / grid), "sweep positions are not the grid")
    require(abs(summary["mean"] - float(vals.mean())) <= 1e-12, "summary mean disagrees with csv")
    floor = math.log(coupling) - herman_tolerance(vals)
    require(float(vals.mean()) >= floor,
            f"grid mean {vals.mean():.9f} below Herman's bound log(lambda) - tol = {floor:.9f}")
    for i in rng.choice(grid, size=lanes, replace=False):
        positions = np.mod(xs[i] + np.arange(n, dtype=float) * alpha, 1.0)
        ref = mp_schrodinger_growth(positions, energy, coupling)
        require(abs(ref - float(vals[i])) <= 1e-11,
                f"lane {i}: sweep {vals[i]!r} vs mpmath {ref!r}")


def check_surgery(co, cfg, pc, cert, n: int, rng, probes: int = 4096,
                  anchors: int = 2, orbits: int = 8) -> None:
    require(cert.passed, "growth certificate did not pass")
    eps = cfg.eps
    # sup distance and determinant on fresh probes, blend collars included
    k = min(probes // 2, pc.region_lo.size)
    which = rng.choice(pc.region_lo.size, size=k, replace=False)
    width = np.minimum(pc.region_hi[which] - pc.region_lo[which], 2 * pc.blend_width)
    xs = np.concatenate([rng.random(probes - k),
                         np.mod(pc.region_lo[which] + rng.random(k) * width, 1.0)])
    pa, pb, pc_, pd = (np.asarray(e, dtype=float) for e in pc.entries(xs))
    ga, gb, gc, gd = (np.asarray(e, dtype=float) for e in co.generator.entries(xs))
    diff = np.stack([pa - ga, pb - gb, pc_ - gc, pd - gd], axis=1).reshape(-1, 2, 2)
    dist = float(np.linalg.norm(diff, ord=2, axis=(1, 2)).max())
    bound = math.exp(cfg.c) * (math.exp(cfg.c) + 1.0) * eps
    require(dist < bound, f"probe sup ||A~ - A|| = {dist:.6g} >= e^c(e^c+1) eps = {bound:.6g}")
    det_err = float(np.abs(pa * pd - pb * pc_ - 1.0).max())
    require(det_err <= 1e-9, f"det A~ off 1 by {det_err:.3g}")
    # sequential products at off-grid anchors, rescaled by exact powers of two
    alpha = float(co.base.alpha)
    limit = (3.0 * cfg.c + 2.0) * eps
    for x0 in rng.random(anchors):
        pos = np.mod(x0 + np.arange(n, dtype=float) * alpha, 1.0)
        growth = sequential_log_norm(*(np.asarray(e, dtype=float) for e in pc.entries(pos))) / n
        require(growth < limit, f"(1/n) log ||A~_n({x0})|| = {growth:.6g} >= (3c+2) eps")
    # visit frequency of seeded orbits to V at the horizon
    vlo = np.array([float(lo) for lo, _ in cfg.freq.V.intervals])
    vhi = np.array([float(hi) for _, hi in cfg.freq.V.intervals])
    cap = eps / (cfg.N + 1)
    for x0 in rng.random(orbits):
        pos = np.mod(x0 + np.arange(n, dtype=float) * alpha, 1.0)
        i = np.clip(np.searchsorted(vlo, pos, side="right") - 1, 0, vlo.size - 1)
        freq = float(((pos >= vlo[i]) & (pos < vhi[i])).sum()) / n
        require(freq < cap, f"orbit of {x0}: V-frequency {freq:.6g} >= eps/(N+1) = {cap:.6g}")
    check_castle(cfg.castle, cfg.N, rng)


def sequential_log_norm(a, b, c, d) -> float:
    """log ||M_{n-1} ... M_0||, one step at a time, rescaled by powers of two."""
    pa, pb, pc, pd = 1.0, 0.0, 0.0, 1.0
    exp2 = 0
    for na, nb, nc, nd in zip(a.tolist(), b.tolist(), c.tolist(), d.tolist()):
        pa, pb, pc, pd = na * pa + nb * pc, na * pb + nb * pd, nc * pa + nd * pc, nc * pb + nd * pd
        _, e = math.frexp(max(abs(pa), abs(pb), abs(pc), abs(pd)))
        if e > 64:
            pa, pb, pc, pd = (math.ldexp(v, -e) for v in (pa, pb, pc, pd))
            exp2 += e
    g = pa * pa + pb * pb + pc * pc + pd * pd
    det = pa * pd - pb * pc
    top = math.sqrt((g + math.sqrt(max((g - 2 * det) * (g + 2 * det), 0.0))) / 2)
    return exp2 * math.log(2.0) + math.log(top)
