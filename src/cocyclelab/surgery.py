"""End-to-end growth surgery: plan table, continuous blending, growth certificate.

Pipeline stages mirror the constructive argument: gate out inputs that are
already uniformly hyperbolic or already subexponential; assemble the constants
(steering window, covering time, N, castle, continuity modulus, boundary
neighborhood V with a visit-frequency certificate); lay certified segment
matrices on the castle columns cut away from V; blend continuously through the
tangent chart; then certify growth twice -- directly, and through the
block-decomposition bookkeeping.

Two nested scales around the cut set make the bookkeeping sound in floating
point: visits are counted against the outer neighborhood V, while the bump
dies on the inner half-size copy.  A block whose base point avoids V therefore
runs entirely through exact table matrices.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .basedyn import (
    Cell,
    CircleRotation,
    bucket_locator,
    complement,
    covering_time,
    first_overlap,
    float_breaks,
    inter_union,
    locate,
    shrink_union,
    translate_union,
)
from .cocycle import (
    Certificate,
    Cocycle,
    Generator,
    log_norms_batch,
    uh_certify,
)
from .errors import (
    BlendBoundViolated,
    CertificationFailed,
    CocycleLabError,
    DecompositionFailed,
    NotApplicable,
    ResolutionExceeded,
)
from .exact import mod1
from .perturb import (
    SegmentPlan,
    choose_N,
    choose_steering_window,
    plan_entries,
    plan_segments,
)
from .sl2 import (
    _mul,
    exp_traceless_arrays,
    general_operator_norm,
    log_norm,
    log_sl2_arrays,
    scan_product,
)
from .towers import Castle, FreqBound, build_castle, visit_freq_bound

EXPONENT_FLOOR = 1e-3
_UH_N_MAX = 64  # horizon of the UH gate's norm-collapse probe


# -- continuity modulus ---------------------------------------------------------------


def continuity_modulus(co: Cocycle, eps: float) -> float:
    """Largest grid-certified delta with d(x,y) < delta forcing the generator
    values along any number of orbit steps to stay eps-close.

    The base is an isometry, so the condition reduces to the generator's own
    modulus, whatever the number of steps; the Lipschitz estimate is sampled
    adjacent grid differences times the safety factor 4.
    """
    if eps <= 0:
        raise CocycleLabError("eps must be positive")
    xs = co.base.grid_floats()
    spacing = 1.0 / xs.size
    ents = (np.asarray(e, dtype=float) for e in co.generator.entries(xs))
    step_norm = general_operator_norm(*(np.diff(np.concatenate([e, e[:1]])) for e in ents))
    lip = float(step_norm.max()) / spacing
    diam = co.base.diameter()
    if lip <= 0.0:
        return diam
    delta = min(eps / (4.0 * lip), diam)
    if delta < 4.0 * spacing:
        raise ResolutionExceeded(
            f"continuity modulus {delta:.3e} below 4 grid spacings ({4 * spacing:.3e})")
    return delta


# -- configuration ----------------------------------------------------------------------


@dataclass
class SurgeryConfig:
    eps: float
    c: float
    N: int
    W: Cell
    m: int
    m1: int
    delta: float
    castle: Castle
    cover: list[Cell]  # disjointified U_i
    freq: FreqBound
    V_inner: Cell
    reps: dict  # (height, cover index) -> base point at the middle of its widest rep piece
    rep_pieces: dict  # (height, cover index) -> interval union of B_l ^ U_i \ V_inner
    boundary_points: list
    blend_width: float

    @property
    def n0(self) -> int:
        return self.freq.n0

    @property
    def growth_bound(self) -> float:
        return (3.0 * self.c + 2.0) * self.eps


def _exponent_estimate(co: Cocycle, horizon: int = 200_000) -> float:
    anchors = np.array([0.1234567, 0.5678901, 0.9012345])
    vals = log_norms_batch(co, anchors, horizon) / horizon
    return float(vals.max())


def build_config(co: Cocycle, eps: float, *, force: bool = False) -> SurgeryConfig:
    """Assemble all surgery constants and structures in proof order.

    Raises NotApplicable when the input is UH-certified (the dichotomy's other
    horn) or when its exponent estimate is already below 1e-3; `force` skips
    the gate for diagnostics.
    """
    if eps <= 0:
        raise CocycleLabError("eps must be positive")
    base = co.base
    if not force:
        res = uh_certify(co, n_max=_UH_N_MAX)
        if isinstance(res, Certificate):
            raise NotApplicable(
                f"cocycle is UH-certified (expansion {res.expansion:.6g}); "
                "uniform hyperbolicity is the dichotomy's other horn")
        est = _exponent_estimate(co)
        if est <= EXPONENT_FLOOR:
            raise NotApplicable(
                f"exponent estimate {est:.3e} <= {EXPONENT_FLOOR}; already near subexponential")

    c = math.log(co.sup_norm + eps) + 1e-9
    W, m = choose_steering_window(co, eps)
    m1 = max(covering_time(base, W), m)  # the early-exit chain needs m <= m1
    N = choose_N(co, eps, c, m1)
    castle = build_castle(base, N)
    delta = continuity_modulus(co, eps)

    cover = _cover_cells(base, castle, delta)
    by_height = {h: castle.base_union(h) for h in (N, N + 1)}
    pieces = {}
    bnd: list = []
    for h, Bl in by_height.items():
        for i, Ui in enumerate(cover):
            inter = inter_union(Bl.intervals, Ui.intervals)
            if inter:
                pieces[(h, i)] = inter
                bnd.extend(p for iv in inter for p in iv)
    freq = visit_freq_bound(base, bnd, eps / (N + 1), rho_floor=1e-8)
    rho = freq.rho
    spacing = 1.0 / base.grid_size
    inner_shift = Fraction(min(rho / 2.0, 2.0 * spacing)).limit_denominator(1 << 48)
    blend_width = float(inner_shift) / 2.0
    V_inner = Cell(shrink_union(freq.V.intervals, inner_shift))

    reps: dict = {}
    rep_pieces: dict = {}
    outside = complement(V_inner.intervals)  # built once for every piece
    for key, inter in pieces.items():
        cut = inter_union(inter, outside)
        if not cut:
            continue
        lo, hi = float_breaks(cut)
        k = int(np.argmax(hi - lo))
        reps[key] = base.point((lo[k] + hi[k]) / 2.0)
        rep_pieces[key] = cut
    if not reps:
        raise CocycleLabError("every base piece fell inside V; resolution too coarse")
    return SurgeryConfig(eps=eps, c=c, N=N, W=W, m=m, m1=m1, delta=delta,
                         castle=castle, cover=cover, freq=freq, V_inner=V_inner,
                         reps=reps, rep_pieces=rep_pieces, boundary_points=bnd,
                         blend_width=blend_width)


def _cover_cells(base: CircleRotation, castle: Castle, delta: float) -> list[Cell]:
    """Half-open tiling of K by k cells of diameter < delta, avoiding B-endpoints."""
    bpoints = [p for t in castle.towers for p in t.base.boundary]
    k = max(2, math.ceil(1.0 / (0.95 * delta)) + 1)
    for _ in range(64):
        edges = [Fraction(i, k) for i in range(k)]
        # equal values hash alike across int, Fraction, float and rational QuadExt
        if set(edges).isdisjoint(bpoints):
            break
        k += 1
    return [Cell.from_union([(base.lift(Fraction(i, k)), base.lift(Fraction(i + 1, k)))])
            for i in range(k)]


# -- assembled perturbation ----------------------------------------------------------


class PerturbedCocycle(Generator):
    """The blended cocycle: piecewise segment table over castle columns.

    Evaluation at a point: locate the region piece; in the interior (bump = 1)
    the value IS the table matrix bitwise; in the blend-width collar at the
    piece edges the tangent chart interpolates back to the unperturbed
    generator, and everywhere else the generator itself applies.  So the
    generator is evaluated only at collar points and points outside every
    region, and interiors are one gather from the table.  Regions are found
    through a bucket table over the sorted region starts
    (`basedyn.bucket_locator`), with exactly the answers of `basedyn.locate`.
    It is the generator of `self.cocycle`, the perturbed cocycle over the
    same base.
    """

    def __init__(self, co: Cocycle, cfg: SurgeryConfig, plans: dict):
        self.original = co
        self.cfg = cfg
        self.plans = plans
        self.blend_width = cfg.blend_width
        self._build_regions()
        self.cocycle = Cocycle(co.base, self)
        self.sup_distance = float("nan")  # set by certify_distance

    def _build_regions(self):
        co, cfg = self.original, self.cfg
        rot = co.base
        lo_list: list[float] = []
        hi_list: list[float] = []
        mats: list[tuple[float, float, float, float]] = []
        label_keys: list[tuple] = sorted(cfg.rep_pieces.keys())
        key_index = {k: i for i, k in enumerate(label_keys)}
        exact_pieces = []
        block_logs = np.zeros(len(label_keys))
        for key in label_keys:
            h, i = key
            plan = self.plans[key]
            col = _column_matrices(co, cfg, plan, h)
            block_logs[key_index[key]] = log_norm(*scan_product(*zip(*col)))
            base_union = cfg.rep_pieces[key]
            for j in range(h):
                delta_j = mod1(j * rot.alpha)
                shifted = translate_union(base_union, delta_j)
                for lo, hi in shifted:
                    exact_pieces.append((lo, hi))
                    lo_list.append(float(lo))
                    hi_list.append(float(hi))
                    mats.append(col[j])
        order = np.argsort(np.array(lo_list), kind="stable")
        self.region_lo = np.array(lo_list)[order]
        self.region_hi = np.array(hi_list)[order]
        self.region_mat = np.array(mats)[order]
        self._locate = bucket_locator(self.region_lo, self.region_hi)
        self.label_keys = label_keys
        self.block_logs = block_logs
        # exact disjointness of all regions ("these sets are disjoint")
        if first_overlap(exact_pieces)[1] is not None:
            raise CertificationFailed("perturbation regions overlap")
        # base pieces (column 0) for structural block lookup
        base_lo, base_hi, base_lab = [], [], []
        for key in label_keys:
            for lo, hi in cfg.rep_pieces[key]:
                base_lo.append(float(lo))
                base_hi.append(float(hi))
                base_lab.append(key_index[key])
        order = np.argsort(np.array(base_lo), kind="stable")
        self.base_lo = np.array(base_lo)[order]
        self.base_hi = np.array(base_hi)[order]
        self.base_label = np.array(base_lab)[order]

    # -- evaluation -------------------------------------------------------------

    def _locate_bump(self, xs: np.ndarray):
        """Region index, inside flag, collar coordinate t in [0, 1] and bump at xs.

        There is at least one region: build_config keeps only non-empty pieces.
        """
        idx, inside = self._locate(xs)
        t = np.minimum(xs - self.region_lo[idx], self.region_hi[idx] - xs) / self.blend_width
        t = np.clip(t, 0.0, 1.0)
        return idx, inside, t, np.where(inside, t * t * (3.0 - 2.0 * t), 0.0)

    def bump(self, xs: np.ndarray) -> np.ndarray:
        return self._locate_bump(np.asarray(xs, dtype=float))[3]

    def entries(self, xs: np.ndarray):
        xs = np.asarray(xs, dtype=float)
        flat = xs.reshape(-1)
        idx, inside, t, beta = self._locate_bump(flat)
        out = [self.region_mat[idx, k] for k in range(4)]
        # the table holds in region interiors; the generator is evaluated only
        # where the output needs it: in the collars and outside every region
        rest = np.flatnonzero(~(inside & (t >= 1.0)))
        g = [np.asarray(e, dtype=float) for e in self.original.generator.entries(flat[rest])]
        for o, v in zip(out, g):
            o[rest] = v
        mid = inside[rest] & (beta[rest] > 0.0)
        if mid.any():
            # xi = log(A^-1 M), blended by beta, applied back through A
            blend = rest[mid]
            g = [v[mid] for v in g]
            t1, t2, t3 = log_sl2_arrays(*_mul(g[3], -g[1], -g[2], g[0],
                                              *(self.region_mat[idx[blend], k] for k in range(4))))
            bme = beta[blend]
            for o, v in zip(out, _mul(*g, *exp_traceless_arrays(t1 * bme, t2 * bme, t3 * bme))):
                o[blend] = v
        return tuple(o.reshape(xs.shape) for o in out)

    # -- certificates ------------------------------------------------------------

    def certify_distance(self) -> float:
        """Measured sup ||A~ - A|| over the grid plus region-edge probes."""
        cfg = self.cfg
        xs = [self.original.base.grid_floats()]
        w = self.blend_width
        for off in (0.25 * w, 0.5 * w, 0.999 * w, 1.5 * w):
            xs.append(np.mod(self.region_lo + off, 1.0))
            xs.append(np.mod(self.region_hi - off, 1.0))
        probe = np.unique(np.concatenate(xs))
        pa, pb, pc, pd = self.entries(probe)
        ga, gb, gc, gd = (np.asarray(e, dtype=float)
                          for e in self.original.generator.entries(probe))
        dist = general_operator_norm(pa - ga, pb - gb, pc - gc, pd - gd)
        self.sup_distance = float(dist.max())
        bound = math.exp(cfg.c) * (math.exp(cfg.c) + 1.0) * cfg.eps
        if self.sup_distance >= bound:
            raise BlendBoundViolated(
                f"sup distance {self.sup_distance:.6g} >= e^c(e^c+1) eps = {bound:.6g}")
        return self.sup_distance

    def export_table(self, path, grid: Optional[np.ndarray] = None) -> None:
        xs = self.original.base.grid_floats() if grid is None else np.asarray(grid)
        a, b, c, d = self.entries(xs)
        bump = self.bump(xs)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "a", "b", "c", "d", "bump"])
            for row in zip(xs, a, b, c, d, bump):
                w.writerow([f"{v:.17g}" for v in row])


def _column_matrices(co: Cocycle, cfg: SurgeryConfig, plan: SegmentPlan, height: int):
    """Entries of L_{l,i,j}, j < height; the extra top slot copies the generator."""
    ents = plan_entries(co, plan)
    col = [(float(ents[0][j]), float(ents[1][j]), float(ents[2][j]), float(ents[3][j]))
           for j in range(plan.N)]
    if height == plan.N + 1:
        x0 = co.base.float_coords(plan.x)[0]
        col.append(tuple(float(e[0]) for e in co.entries_along(x0, 1, plan.N)))
    return col


def assemble_perturbation(co: Cocycle, cfg: SurgeryConfig) -> PerturbedCocycle:
    """Plan every (height, cover cell) column, lay the table, blend and certify."""
    keys = sorted(cfg.reps.keys())
    plans = plan_segments(co, [cfg.reps[k] for k in keys], cfg.eps, cfg.N,
                          cfg.W, cfg.m1, cfg.m)
    plan_map = dict(zip(keys, plans))
    pc = PerturbedCocycle(co, cfg, plan_map)
    pc.certify_distance()
    return pc


# -- growth certificate -------------------------------------------------------------------


@dataclass
class GrowthCertificate:
    n: int
    grid_size: int
    max_direct: float  # max over grid of (1/n) log ||A~_n||
    margin: float
    structural_max: float  # max over grid of the block-decomposition bound / n
    bound: float  # (3c + 2) eps
    passed: bool
    visit_freq_max: float
    visit_freq_cap: float
    dominance_ok: bool
    decomposition: dict = field(default_factory=dict)

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "horizon": self.n,
                "grid": self.grid_size,
                "max_direct": self.max_direct,
                "margin": self.margin,
                "structural_max": self.structural_max,
                "bound": self.bound,
                "pass": self.passed,
                "visit_freq_max": self.visit_freq_max,
                "visit_freq_cap": self.visit_freq_cap,
                "dominance_ok": self.dominance_ok,
                "decomposition": self.decomposition,
            }, fh, indent=2, sort_keys=True)


def _castle_base_arrays(castle: Castle):
    lo, hi, hgt = [], [], []
    for t in castle.towers:
        for l, h in t.base.intervals:
            lo.append(float(l))
            hi.append(float(h))
            hgt.append(t.height)
    order = np.argsort(np.array(lo), kind="stable")
    return np.array(lo)[order], np.array(hi)[order], np.array(hgt)[order]


def _collect_visits(pc: PerturbedCocycle, cfg: SurgeryConfig, xs: np.ndarray, n: int):
    """Per lane: sorted castle-base visit steps with V-flags, labels, heights.

    Detection runs against the full castle base (V-parts included); the region
    label is looked up only for visits outside V, where the table pieces cover.
    """
    blo, bhi, bheights = _castle_base_arrays(cfg.castle)
    plo, phi = pc.base_lo, pc.base_hi
    vlo, vhi = cfg.freq.V.float_breaks()
    all_lane, all_step, all_flag, all_label, all_height = [], [], [], [], []
    chunk = max(256, (1 << 22) // max(xs.size, 1))
    for s0 in range(0, n, chunk):
        pos = pc.original.base.orbit_floats(xs, min(chunk, n - s0), s0)
        bidx, in_b = locate(blo, bhi, pos)
        lanes, offs = np.nonzero(in_b)
        if lanes.size == 0:
            continue
        hit_pos = pos[lanes, offs]
        hit_height = bheights[bidx[lanes, offs]]
        hit_v = locate(vlo, vhi, hit_pos)[1]
        pidx, in_piece = locate(plo, phi, hit_pos)
        lab = np.where(in_piece, pc.base_label[pidx], -1)
        if np.any(~hit_v & (lab < 0)):
            k = int(np.argmax(~hit_v & (lab < 0)))
            raise DecompositionFailed(
                f"visit at {hit_pos[k]} outside V but not in any table piece")
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
    visits = [steps[bounds[i]:bounds[i + 1]] for i in range(xs.size)]
    vflags = [flags[bounds[i]:bounds[i + 1]] for i in range(xs.size)]
    labels = [labs[bounds[i]:bounds[i + 1]] for i in range(xs.size)]
    heights = [hgts[bounds[i]:bounds[i + 1]] for i in range(xs.size)]
    return visits, vflags, labels, heights


def verify_growth(pc: PerturbedCocycle, cfg: SurgeryConfig, n: int,
                  grid: Optional[np.ndarray] = None) -> GrowthCertificate:
    """Two independent growth checks at horizon n over the given grid.

    (i) direct: chunked tree products of the blended cocycle;
    (ii) structural: castle-base visits along each orbit must be spaced in
    {N, N+1}; V-visits are counted against the frequency certificate; blocks
    based outside V contribute their certified table-product norms, everything
    else the measured sup norm.  The certificate passes only if both values
    stay under (3c + 2) eps and the structural bound dominates the direct one.
    """
    co = pc.original
    if n <= max(cfg.n0, (cfg.N + 1) / cfg.eps):
        raise CocycleLabError(f"horizon n = {n} must exceed max(n0, (N+1)/eps)")
    xs = co.base.grid_floats() if grid is None else np.asarray(grid, dtype=float)
    direct = log_norms_batch(pc.cocycle, xs, n) / n
    diffs = np.abs(np.diff(direct))
    margin = 4.0 * float(diffs.max()) if diffs.size else 0.0

    sup_tilde = math.log(max(co.sup_norm + pc.sup_distance, 1.0 + 1e-12))
    N = cfg.N
    visits, vflags, labels, heights = _collect_visits(pc, cfg, xs, n)
    structural = np.zeros(xs.size)
    vcounts = np.zeros(xs.size, dtype=int)
    p_hist: dict[int, int] = {}
    q_hist: dict[int, int] = {}
    r_list = np.zeros(xs.size, dtype=int)
    for lane in range(xs.size):
        vs = np.asarray(visits[lane])
        if vs.size == 0:
            raise DecompositionFailed(f"orbit of {xs[lane]} never hit the castle base")
        p = int(vs[0])
        if p > N + 1:
            raise DecompositionFailed(f"first base visit at {p} > N+1")
        q = n - int(vs[-1])
        if q > N + 1:
            raise DecompositionFailed(f"tail segment {q} > N+1")
        gaps = np.diff(vs)
        if gaps.size and not np.all((gaps == N) | (gaps == N + 1)):
            bad = int(gaps[(gaps != N) & (gaps != N + 1)][0])
            raise DecompositionFailed(
                f"base-visit gap {bad} not in {{{N}, {N + 1}}} at x={xs[lane]}")
        hts = np.asarray(heights[lane])[:-1]
        if gaps.size and not np.array_equal(hts, gaps):
            raise DecompositionFailed("tower height does not match visit gap")
        fl = np.asarray(vflags[lane])[:-1]
        labs = np.asarray(labels[lane])[:-1]
        contrib = np.where(fl, gaps * sup_tilde,
                           pc.block_logs[np.maximum(labs, 0)] if labs.size else 0.0)
        structural[lane] = ((p + q) * sup_tilde + float(contrib.sum())) / n
        vcounts[lane] = int(fl.sum())
        r_list[lane] = vs.size - 1
        p_hist[p] = p_hist.get(p, 0) + 1
        q_hist[q] = q_hist.get(q, 0) + 1

    freq_cap = cfg.eps / (N + 1)
    freq_max = float((vcounts / n).max())
    dominance = bool(np.all(structural + 1e-9 >= direct))
    bound = cfg.growth_bound
    passed = bool(
        (direct.max() + margin < bound)
        and (structural.max() < bound)
        and (freq_max < freq_cap)
        and dominance
    )
    return GrowthCertificate(
        n=n,
        grid_size=xs.size,
        max_direct=float(direct.max()),
        margin=margin,
        structural_max=float(structural.max()),
        bound=bound,
        passed=passed,
        visit_freq_max=freq_max,
        visit_freq_cap=freq_cap,
        dominance_ok=dominance,
        decomposition={
            "p": {str(k): v for k, v in sorted(p_hist.items())},
            "q": {str(k): v for k, v in sorted(q_hist.items())},
            "r_min": int(r_list.min()),
            "r_max": int(r_list.max()),
        },
    )


def run_surgery(co: Cocycle, eps: float, *, verify_grid: Optional[np.ndarray] = None,
                horizon: Optional[int] = None, force: bool = False):
    """Full pipeline: config, assembly, growth certificate.

    Returns (config, perturbed cocycle, certificate).  The default horizon is
    the smallest valid one, max(n0, (N+1)/eps) + 1.
    """
    cfg = build_config(co, eps, force=force)
    pc = assemble_perturbation(co, cfg)
    n = horizon if horizon is not None else int(max(cfg.n0, (cfg.N + 1) / cfg.eps)) + 1
    cert = verify_growth(pc, cfg, n, grid=verify_grid)
    return cfg, pc, cert
