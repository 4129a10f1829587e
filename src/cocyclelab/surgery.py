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
runs entirely through exact table matrices, across the seam 0 = 1 too.
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
    column_float_breaks,
    complement,
    float_breaks,
    inter_union,
    norm_union,
    shrink_union,
    sub_union,
    wrap_floats,
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
from .exact import column_suffixes
from .sl2 import (
    _mul,
    exp_traceless_arrays,
    general_operator_norm,
    log_norm,
    log_sl2_arrays,
    tree_product,
)
from .towers import Castle, FreqBound, build_castle, visit_freq_bound

EXPONENT_FLOOR = 1e-3
_UH_N_MAX = 64  # horizon of the UH gate's norm-collapse probe
_SLICE = 1 << 15  # points per slice of PerturbedCocycle.entries (see there)
_ESTIMATE_HORIZON = 200_000  # steps of the exponent-estimate gate
_CHUNK = 64  # steps of a direct-sweep node that no suffix row serves
_BATCH = 128  # such chunks per call of the blended map; 256 faulted 60 k pages a bench sweep
_WINDOW = 256  # walk iterations, nodes per lane, reduced at a time by the direct sweep


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
        anchors = np.array([0.1234567, 0.5678901, 0.9012345])
        est = float((log_norms_batch(co, anchors, _ESTIMATE_HORIZON) / _ESTIMATE_HORIZON).max())
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
    """Half-open tiling of K by k cells of diameter < delta whose edges i/k,
    0 < i < k, avoid the tower base endpoints.  Edge 0 is not tested: it is
    the seam at which a wrapped base is cut."""
    bpoints = [p for t in castle.towers for iv in t.base.intervals for p in iv]
    k = max(2, math.ceil(1.0 / (0.95 * delta)) + 1)
    for _ in range(64):
        edges = [Fraction(i, k) for i in range(1, k)]
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
    ends of the piece's arc the tangent chart interpolates back to the
    unperturbed generator, and everywhere else the generator itself applies.
    A piece's arc is the piece, but for the two pieces of a floor arc that
    `basedyn._cut_at_seam` splits at 0 = 1: the seam gets no collar.  It is
    the generator of `self.cocycle`, the perturbed cocycle over the same base.

    Each label column is multiplied exactly once (`exact.column_suffixes`):
    `block_logs` is the bound on the whole column, and each region keeps the
    rounded suffix from its level to the column top.  Long products along
    orbits (`log_norms`, the direct sweep) are a column walk over these
    rows, reduced in aligned windows of 256 nodes a lane as it runs: the
    bits of one tree per lane, in memory flat in the horizon.  A point at
    least a blend width plus a drift inside its region's arc stays a blend
    width inside the image arcs up the column: f is a rotation, the float
    orbit strays from the exact one by at most 2 ulp(n) + h 2^-54 over a
    column of h steps within n steps, and a float arc end from the exact
    one by less than 2^-40 (`exact.coordinate_float` reads the naive sum
    only below a 1000-fold cancellation).  So each point of the stretch
    passes `_bounds`' interior test in the image region, its entries are
    the column's table matrices, and the suffix row is their product.
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
        region_label, region_level, and the arc ends arc_lo, arc_hi) over one
        (4, height) matrix column per label.

        Region (h, i, j) is f^j(P_{h,i}), j < h, for the rep pieces P_{h,i} of
        label (h, i).  Checked exactly here: for each h in {N, N+1} the P_{h,i}
        are pairwise disjoint (their lengths sum to their union's) and lie in
        B_h, the bases of the height-h towers.
        The castle floors f^j(B_t) are pairwise disjoint (`Castle.verify`), so
        regions with (h, j) != (h', j') lie in distinct floors, and the others
        are images of disjoint P_{h,i}, P_{h,i'} under the injective f^j.
        """
        co, cfg = self.original, self.cfg
        label_keys: list[tuple] = sorted(cfg.rep_pieces.keys())
        for h in (cfg.N, cfg.N + 1):
            reps = [iv for key in label_keys if key[0] == h for iv in cfg.rep_pieces[key]]
            union = norm_union(reps)
            if sum(hi - lo for lo, hi in reps) != sum(hi - lo for lo, hi in union):
                raise CertificationFailed(f"rep pieces of height {h} overlap")
            if sub_union(union, cfg.castle.base_union(h).intervals):
                raise CertificationFailed(f"rep pieces of height {h} leave the castle base")
        cols = [_column_matrices(co, self.plans[key], key[0]) for key in label_keys]
        breaks = [column_float_breaks(cfg.rep_pieces[key], co.base.alpha, key[0])
                  for key in label_keys]
        labels = np.repeat(np.arange(len(label_keys)), [b[2].size for b in breaks])
        lo, hi, levels, arc_lo, arc_hi = (np.concatenate(b) for b in zip(*breaks))
        order = np.argsort(lo, kind="stable")
        (self.region_lo, self.region_hi, self.region_label, self.region_level, self.arc_lo,
         self.arc_hi) = (v[order] for v in (lo, hi, labels, levels, arc_lo, arc_hi))
        self.label_heights = heights = np.array([col.shape[1] for col in cols])
        row = (np.cumsum(heights) - heights)[self.region_label] + self.region_level
        self._table = tuple(entry.take(row) for entry in np.concatenate(cols, axis=1))
        self._locate = bucket_locator(self.region_lo)
        bounds, suffixes = [], []
        for col in cols:  # one column's rows as Python objects at a time
            rows, bound = column_suffixes(*col.tolist())
            bounds.append(bound)
            suffixes.append(np.array(rows))
        self.block_logs = np.array(bounds)
        # (pa, pb, pc, pd, E) per region, E an integer in a float
        self._suffix = tuple(np.concatenate(suffixes).T.take(row, axis=1))
        self._to_top = heights[self.region_label] - self.region_level

    # -- evaluation -------------------------------------------------------------

    def _bounds(self, xs: np.ndarray):
        """Region index and the unclipped collar coordinate at flat xs: the
        distance to the nearer end of the region's arc, in blend widths
        (build_config keeps only non-empty pieces, so a region exists).  It
        is at most 0 outside the region but at x = 1.0, which a region cut
        at the seam reads as 0.0."""
        idx = self._locate(xs)
        reach = np.minimum(xs - self.arc_lo.take(idx), self.arc_hi.take(idx) - xs)
        return idx, reach / self.blend_width

    @staticmethod
    def _bump(t):
        t = np.clip(t, 0.0, 1.0)
        return t * t * (3.0 - 2.0 * t)

    def bump(self, xs: np.ndarray) -> np.ndarray:
        flat = np.asarray(xs, dtype=float).reshape(-1)
        return self._bump(self._bounds(flat)[1]).reshape(np.shape(xs))

    def entries(self, xs: np.ndarray):
        """(a, b, c, d) of the blended map at xs, any shape.

        The points go in slices of `_SLICE` = 2^15 into the four output
        arrays.  A slice's temporaries are then 256 KiB each, and its few
        dozen elementwise passes stay in a core's 2 MiB L2 cache; on the
        `surgery` bench sweep 2^15 measured fastest among 2^13 .. 2^19.  Per
        slice: one bucket lookup and one gather of the region's arc ends,
        the table matrix gathered from its contiguous columns, then, only at
        the points that are not region interiors (t < 1, about a tenth of an
        orbit), the generator, the bump and the blend.

        The four outputs are the rows of one array, one allocation, not
        four.  glibc maps a large one and, once it is freed, raises its mmap
        and trim thresholds above it, so later calls and their slices reuse
        heap pages.  With four arrays of 1.5 MiB a call the thresholds stayed
        there, the heap was trimmed between calls, and a `surgery` round
        faulted 14-151 k pages in again instead of 8 k.
        """
        flat = np.asarray(xs, dtype=float).reshape(-1)
        out = tuple(np.empty((4, flat.size)))
        for s in range(0, flat.size, _SLICE):
            self._entries_slice(flat[s:s + _SLICE], [o[s:s + _SLICE] for o in out])
        return tuple(o.reshape(np.shape(xs)) for o in out)

    def _entries_slice(self, xs, out):
        idx, t = self._bounds(xs)
        for o, col in zip(out, self._table):
            col.take(idx, out=o, mode="clip")  # unbuffered into out; idx is in range
        # t >= 1 forces x a blend width inside the region's arc, so these are
        # exactly the interiors, where the table holds; elsewhere the
        # generator, blended in the collars
        rest = np.flatnonzero(~(t >= 1.0))
        if rest.size == 0:
            return
        xr = xs[rest]
        g = [np.asarray(e, dtype=float) for e in self.original.generator.entries(xr)]
        for o, v in zip(out, g):
            o[rest] = v
        beta = self._bump(t[rest])
        mid = np.flatnonzero(beta > 0.0)
        if mid.size:
            # xi = log(A^-1 M), blended by beta, applied back through A
            g = [v[mid] for v in g]
            blend = idx[rest[mid]]
            xi = log_sl2_arrays(*_mul(g[3], -g[1], -g[2], g[0],
                                      *(col.take(blend) for col in self._table)))
            for o, v in zip(out, _mul(*g, *exp_traceless_arrays(*(v * beta[mid] for v in xi)))):
                o[rest[mid]] = v

    # -- the direct sweep ---------------------------------------------------------

    def log_norms(self, xs: np.ndarray, n: int) -> np.ndarray:
        """log ||A~_n(x)|| at float anchors xs over their float orbits: the
        direct sweep.  A window of the walk (`_windows`) is an aligned block
        of `_WINDOW` = 256 nodes of every lane: suffix rows, chunk products
        (`_BATCH` chunks a call) and the identity past a lane's end.  One
        tree_product reduces it to a root per lane, and one more the roots.
        As in `cocycle._blocked_tree`, a block's tree is a subtree of the
        lane's tree over all its nodes, the identity pads are that tree's
        odd-level pads, and power-of-two rescales commute: the bits are one
        tree's per lane.  The memory is one window and one batch, and five
        floats per lane and window.  It all runs on the calling thread: on the
        bench sweep, chunk batches on two threads took 0.47 s against 0.40.
        """
        x0 = np.atleast_1d(np.asarray(xs, dtype=float))
        if n < 1:
            raise CocycleLabError("need n >= 1")
        roots = []
        for start, region in self._windows(x0, n):
            nodes = [np.where(region >= 0, v.take(region, mode="clip"), one)
                     for v, one in zip(self._suffix, (1.0, 0.0, 0.0, 1.0, 0.0))]
            chunk = np.flatnonzero(region == -1)
            for c in (chunk[s:s + _BATCH] for s in range(0, chunk.size, _BATCH)):
                for v, p in zip(nodes, self._chunk_products(x0[c // _WINDOW], start.take(c), n)):
                    v.put(c, p)
            *root, e = tree_product(*nodes[:4])
            roots.append((*root, e + nodes[4].sum(axis=1)))
        if not roots:
            return np.empty(0)
        a, b, c, d, e = (np.stack(v, axis=1) for v in zip(*roots))
        *top, e_top = tree_product(a, b, c, d)
        return log_norm(*top, e_top + e.sum(axis=1))

    def _windows(self, x0: np.ndarray, n: int):
        """The walk of lanes x0 over n steps, `_WINDOW` iterations at a time:
        (lanes, _WINDOW) arrays (start, region) of each lane's node in each
        iteration.  A lane's point, taken from its anchor as `orbit_floats`
        takes it, starts a node of its region's suffix row where it lies a
        blend width plus the drift (class docstring) inside the region's arc
        and the column ends within n; any other node is a chunk of `_CHUNK`
        steps, region -1.  Past a lane's end the region is -2.
        """
        alpha = self.original.base.alpha_float
        drift = 2.0**-36 + 4.0 * math.ulp(n + 1.0) + int(self.label_heights.max()) * 2.0**-53
        reach = 1.0 + drift / self.blend_width  # in blend widths, as `_bounds` measures
        steps, active = np.zeros(x0.size, dtype=np.int64), np.arange(x0.size)
        while active.size:
            start, region = np.zeros((x0.size, _WINDOW), np.int64), np.full((x0.size, _WINDOW), -2)
            for k in range(_WINDOW):
                s = steps.take(active)
                r, t = self._bounds(wrap_floats(x0.take(active) + s * alpha))
                top = self._to_top.take(r)
                inside = (t >= reach) & (top <= n - s)
                start[active, k], region[active, k] = s, np.where(inside, r, -1)
                steps[active] = s + np.where(inside, top, _CHUNK)
                active = active[steps.take(active) < n]
                if not active.size:
                    break
            yield start, region

    def _chunk_products(self, anchors: np.ndarray, start: np.ndarray, n: int):
        """tree_product (pa, pb, pc, pd, E) of the entries of each chunk of
        `_CHUNK` steps from step start[i] of anchor anchors[i], with the
        identity at step n and past it."""
        k = start[:, None] + np.arange(_CHUNK)
        ents = self.entries(wrap_floats(anchors[:, None] + k * self.original.base.alpha_float))
        return tree_product(*(np.where(k < n, v, one) for v, one in zip(ents, (1.0, 0.0, 0.0, 1.0))))

    # -- certificates ------------------------------------------------------------

    def certify_distance(self) -> float:
        """Measured sup ||A~ - A|| over the grid plus region-edge probes.

        The probes are the grid and, per offset, the region lows and highs
        moved into the regions.  Each of these nine arrays goes through in
        slices of `_SLICE` points, the blended map and the generator one
        slice at a time, with a running max: a max is exact, so the slicing
        moves no bit, while the transients stay a slice's size.  On the
        coupling-4, eps=0.72, N=288 table (318,101 regions) one call over all
        probes raised the process's peak RSS from 97 to 528 MiB (2-vCPU VM).
        """
        cfg = self.cfg
        w = self.blend_width

        def probes():
            yield self.original.base.grid_floats()
            for off in (0.25 * w, 0.5 * w, 0.999 * w, 1.5 * w):
                yield np.mod(self.region_lo + off, 1.0)
                yield np.mod(self.region_hi - off, 1.0)

        maxima = []
        for xs in probes():
            for s in range(0, xs.size, _SLICE):
                part = xs[s:s + _SLICE]
                pa, pb, pc, pd = self.entries(part)
                ga, gb, gc, gd = (np.asarray(e, dtype=float)
                                  for e in self.original.generator.entries(part))
                maxima.append(general_operator_norm(pa - ga, pb - gb, pc - gc, pd - gd).max())
        self.sup_distance = float(np.max(maxima))
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
    `block_logs` are exact over the stored doubles, rounded up
    (`exact.column_suffixes`), and those doubles are A~'s values on the
    blocks, a floor arc cut at the seam 0 = 1 included.  `max_direct` is the
    float sweep at the grid points (`PerturbedCocycle.log_norms`), `margin`
    four times its largest neighbour step, and `dominance_ok` says every
    lane is finite and under U.  `direct` keeps the lanes, which
    `surgery.json` does not hold.
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
    direct = pc.log_norms(xs, n) / n
    diffs = np.abs(np.diff(direct))
    margin = 4.0 * float(diffs.max()) if diffs.size else 0.0

    s = math.log(max(co.sup_norm + pc.sup_distance, 1.0 + 1e-12))
    sf = cfg.freq.sup_frequency
    head_tail = 2.0 * (cfg.N + 1) * s / n
    table_rate = max(float((pc.block_logs / pc.label_heights).max()), 0.0)
    v_blocks = sf * (cfg.N + 1) * s
    uniform = head_tail + table_rate + v_blocks
    freq_cap = cfg.eps / (cfg.N + 1)
    dominance = bool(np.isfinite(direct).all() and np.all(direct <= uniform + 1e-9))
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
