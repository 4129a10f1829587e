"""End-to-end growth surgery: plan table, continuous blending, growth certificate.

Pipeline stages mirror the constructive argument: gate out inputs that are
already uniformly hyperbolic or already subexponential; assemble the constants
(steering window, covering time, N, castle, continuity modulus, boundary
neighborhood V with a visit-frequency certificate); lay certified segment
matrices on the castle columns cut away from V; blend continuously through the
tangent chart; then certify growth by the paper's inequality chain, a
closed-form bound that holds for every x (`GrowthCertificate`), with a direct
sweep at grid points as a float cross-check that must stay under it.

Two nested scales around the cut set make the chain sound in floating
point: visits are counted against the outer neighborhood V, while the bump
dies on the inner half-size copy.  A block whose base point avoids V therefore
runs entirely through exact table matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .basedyn import (
    Cell,
    CircleRotation,
    bucket_locator,
    column_floors,
    complement,
    first_overlap,
    float_breaks,
    inter_union,
    norm_union,
    shrink_union,
    sub_union,
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
    NotApplicable,
    ResolutionExceeded,
)
from .perturb import (
    SegmentPlan,
    _overlay_block,
    plan_constants,
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
_SLICE = 1 << 15  # points per slice of PerturbedCocycle.entries (see there)
_ESTIMATE_HORIZON = 200_000  # steps of the exponent-estimate gate


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


def _exponent_estimate(co: Cocycle) -> float:
    anchors = np.array([0.1234567, 0.5678901, 0.9012345])
    vals = log_norms_batch(co, anchors, _ESTIMATE_HORIZON) / _ESTIMATE_HORIZON
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

    c, W, m, m1, N = plan_constants(co, eps)
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
    V_inner = shrink_union(freq.V.intervals, inner_shift)

    reps: dict = {}
    rep_pieces: dict = {}
    outside = complement(V_inner)  # built once for every piece
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
                         castle=castle, cover=cover, freq=freq,
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
    generator, and everywhere else the generator itself applies.  It is the
    generator of `self.cocycle`, the perturbed cocycle over the same base.
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
        """Regions are the floors of the label columns: rows (region_lo, region_hi,
        region_label, region_level) over one (4, height) matrix column per label.

        Region (h, i, j) is f^j(P_{h,i}), j < h, for the rep pieces P_{h,i} of
        label (h, i).  Checked exactly here: for each h in {N, N+1} the P_{h,i}
        are pairwise disjoint and lie in B_h, the bases of the height-h towers.
        The castle floors f^j(B_t) are pairwise disjoint (`Castle.verify`), so
        regions with (h, j) != (h', j') lie in distinct floors, and the others
        are images of disjoint P_{h,i}, P_{h,i'} under the injective f^j.
        """
        co, cfg = self.original, self.cfg
        label_keys: list[tuple] = sorted(cfg.rep_pieces.keys())
        for h in (cfg.N, cfg.N + 1):
            reps = [iv for key in label_keys if key[0] == h for iv in cfg.rep_pieces[key]]
            if first_overlap(reps)[1] is not None:
                raise CertificationFailed(f"rep pieces of height {h} overlap")
            if sub_union(norm_union(reps), cfg.castle.base_union(h).intervals):
                raise CertificationFailed(f"rep pieces of height {h} leave the castle base")
        cols = [_column_matrices(co, self.plans[key], key[0]) for key in label_keys]
        floors = [(piece, label, level) for label, key in enumerate(label_keys)
                  for piece, level in column_floors(cfg.rep_pieces[key], co.base.alpha, key[0])]
        pieces, labels, levels = zip(*floors)
        lo, hi = float_breaks(pieces)
        order = np.argsort(lo, kind="stable")
        self.region_lo, self.region_hi = lo[order], hi[order]
        self.region_label = np.array(labels)[order]
        self.region_level = np.array(levels)[order]
        heights = [col.shape[1] for col in cols]
        row = (np.cumsum(heights) - heights)[self.region_label] + self.region_level
        self._table = tuple(entry.take(row) for entry in np.concatenate(cols, axis=1))
        self._locate = bucket_locator(self.region_lo)
        self.block_logs = np.array([log_norm(*scan_product(*col)) for col in cols])
        self.label_heights = np.array(heights)

    # -- evaluation -------------------------------------------------------------

    def _bounds(self, xs: np.ndarray):
        """Region index, its bounds and the unclipped collar coordinate at flat
        xs (build_config keeps only non-empty pieces, so a region exists)."""
        idx = self._locate(xs)
        lo, hi = self.region_lo.take(idx), self.region_hi.take(idx)
        return idx, lo, hi, np.minimum(xs - lo, hi - xs) / self.blend_width

    @staticmethod
    def _bump(xs, lo, hi, t):
        t = np.clip(t, 0.0, 1.0)
        return np.where((xs >= lo) & (xs < hi), t * t * (3.0 - 2.0 * t), 0.0)

    def bump(self, xs: np.ndarray) -> np.ndarray:
        flat = np.asarray(xs, dtype=float).reshape(-1)
        return self._bump(flat, *self._bounds(flat)[1:]).reshape(np.shape(xs))

    def entries(self, xs: np.ndarray):
        """(a, b, c, d) of the blended map at xs, any shape.

        The points go in slices of `_SLICE` = 2^15 into the four output
        arrays.  A slice's temporaries are then 256 KiB each, and its few
        dozen elementwise passes stay in a core's 2 MiB L2 cache; on the
        `surgery` bench sweep 2^15 measured fastest among 2^13 .. 2^19.  Per
        slice: one bucket lookup and one gather of the region bounds, the
        table matrix gathered from its contiguous columns, then, only at the
        points that are not region interiors (t < 1, about a tenth of an
        orbit), the generator, the bump and the blend.

        The four outputs are the rows of one array.  In the direct sweep of
        `verify_growth` that is one 6 MiB allocation per 4096-step block of
        48 lanes, not four of 1.5 MiB.  glibc maps the first one and, once it
        is freed, raises its mmap and trim thresholds above it, so later
        blocks and their slices reuse heap pages.  With four arrays the
        thresholds stayed near 1.5 MiB, the heap was trimmed between blocks,
        and a `surgery` round's sweep faulted 14-151 k pages in again instead
        of 8 k, varying from one process to the next.
        """
        flat = np.asarray(xs, dtype=float).reshape(-1)
        out = tuple(np.empty((4, flat.size)))
        for s in range(0, flat.size, _SLICE):
            self._entries_slice(flat[s:s + _SLICE], [o[s:s + _SLICE] for o in out])
        return tuple(o.reshape(np.shape(xs)) for o in out)

    def _entries_slice(self, xs, out):
        idx, lo, hi, t = self._bounds(xs)
        for o, col in zip(out, self._table):
            col.take(idx, out=o, mode="clip")  # unbuffered into out; idx is in range
        # t >= 1 forces lo < x < hi, so these are exactly the interiors, where
        # the table holds; elsewhere the generator, blended in the collars
        rest = np.flatnonzero(~(t >= 1.0))
        if rest.size == 0:
            return
        xr = xs[rest]
        g = [np.asarray(e, dtype=float) for e in self.original.generator.entries(xr)]
        for o, v in zip(out, g):
            o[rest] = v
        beta = self._bump(xr, lo[rest], hi[rest], t[rest])
        mid = np.flatnonzero(beta > 0.0)
        if mid.size:
            # xi = log(A^-1 M), blended by beta, applied back through A
            g = [v[mid] for v in g]
            blend = idx[rest[mid]]
            xi = log_sl2_arrays(*_mul(g[3], -g[1], -g[2], g[0],
                                      *(col.take(blend) for col in self._table)))
            for o, v in zip(out, _mul(*g, *exp_traceless_arrays(*(v * beta[mid] for v in xi)))):
                o[rest[mid]] = v

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


def _column_matrices(co: Cocycle, plan: SegmentPlan, height: int) -> np.ndarray:
    """Entries of L_{l,i,j}, j < height, as a (4, height) array; a top slot copies the generator.

    One generator evaluation along the plan's orbit: every position is taken
    from the anchor, so the first N columns are the plan's own slots.
    """
    x0 = co.base.float_coords(plan.x)[0]
    return np.array(_overlay_block(co.entries_along(x0, height), plan))


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
    """The paper's inequality chain, a uniform bound U, and a float cross-check.

    For every x and every n >= n* = max(n0, (N+1)/eps), cut the orbit
    segment of length n at its castle-base visits into a head, blocks and a tail:

      (1/n) log||A~_n(x)|| <= 2(N+1) s/n + max_l (bl_l/h_l)^+ + sf (N+1) s = U,

    s = log(sup||A|| + sup_distance), bl_l = `block_logs[l]`, h_l the height
    of label l and sf = `freq.sup_frequency`.
    - The castle floors tile K with heights in {N, N+1}, so the head and the
      tail each take at most N+1 steps, of norm at most e^s.
    - A block based outside V runs through table matrices only (module
      docstring): label l's block adds at most bl_l over h_l steps, and the
      blocks take at most n steps in all.
    - A block based in V adds at most (N+1) s, and for n >= n0 at most sf n
      blocks start in V: cut n into pieces of length in [n0, 2 n0), each
      under the frequency certificate of [n0, 8 n0].
    The head/tail term falls as n grows, so U at n bounds every longer horizon.

    Trust of the inputs: the castle's tiling (`Castle.verify`) and the
    regions' disjointness (`PerturbedCocycle`) are certified exactly at every
    size; sf is analytic; sup||A|| and `sup_distance` are grid-sampled;
    `block_logs` are float products.  `max_direct` is the float sweep at the grid points,
    `margin` four times its largest neighbour step, and `dominance_ok` says
    every lane stays under U.  `direct` keeps the lanes, which `surgery.json`
    does not hold.
    """

    n: int
    grid_size: int
    max_direct: float  # max over grid of (1/n) log ||A~_n||
    margin: float
    uniform_bound: float  # U, the sum of the three terms below
    head_tail: float  # 2 (N+1) s / n
    table_rate: float  # max_l (bl_l / h_l)^+
    v_blocks: float  # sf (N+1) s
    bound: float  # (3c + 2) eps
    passed: bool
    visit_freq_sup: float
    visit_freq_cap: float
    dominance_ok: bool
    direct: np.ndarray = field(repr=False, compare=False)  # per grid point


def verify_growth(pc: PerturbedCocycle, cfg: SurgeryConfig, n: int,
                  grid: Optional[np.ndarray] = None) -> GrowthCertificate:
    """The uniform bound U at horizon n, and the direct sweep over the grid.

    Passes when U and the sweep plus its margin stay under (3c + 2) eps, the
    certified visit frequency under eps/(N+1), and every lane under U.
    """
    co = pc.original
    if n <= max(cfg.n0, (cfg.N + 1) / cfg.eps):
        raise CocycleLabError(f"horizon n = {n} must exceed max(n0, (N+1)/eps)")
    xs = co.base.grid_floats() if grid is None else np.asarray(grid, dtype=float)
    direct = log_norms_batch(pc.cocycle, xs, n) / n
    diffs = np.abs(np.diff(direct))
    margin = 4.0 * float(diffs.max()) if diffs.size else 0.0

    s = math.log(max(co.sup_norm + pc.sup_distance, 1.0 + 1e-12))
    sf = cfg.freq.sup_frequency
    head_tail = 2.0 * (cfg.N + 1) * s / n
    table_rate = max(float((pc.block_logs / pc.label_heights).max()), 0.0)
    v_blocks = sf * (cfg.N + 1) * s
    uniform = head_tail + table_rate + v_blocks
    freq_cap = cfg.eps / (cfg.N + 1)
    dominance = bool(np.all(direct <= uniform + 1e-9))
    bound = cfg.growth_bound
    passed = bool(
        (direct.max() + margin < bound)
        and (uniform < bound)
        and (sf < freq_cap)
        and dominance
    )
    return GrowthCertificate(
        n=n,
        grid_size=xs.size,
        max_direct=float(direct.max()),
        margin=margin,
        uniform_bound=uniform,
        head_tail=head_tail,
        table_rate=table_rate,
        v_blocks=v_blocks,
        bound=bound,
        passed=passed,
        visit_freq_sup=sf,
        visit_freq_cap=freq_cap,
        dominance_ok=dominance,
        direct=direct,
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
