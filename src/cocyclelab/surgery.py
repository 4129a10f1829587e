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
import threading
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
    _STRIDE,
    _mul,
    exp_traceless_arrays,
    general_operator_norm,
    log_norm,
    log_sl2_arrays,
    scan_product,
    tree_product,
)
from .towers import Castle, FreqBound, build_castle, visit_freq_bound

EXPONENT_FLOOR = 1e-3
_UH_N_MAX = 64  # horizon of the UH gate's norm-collapse probe
_SLICE = 1 << 15  # points per slice of PerturbedCocycle.entries (see there)
_ESTIMATE_HORIZON = 200_000  # steps of the exponent-estimate gate
_ENTRY_CAP = 2.0**31  # |entries| below it: no product of _STRIDE steps overflows


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
    piece edges the tangent chart interpolates back to the unperturbed
    generator, and everywhere else the generator itself applies.  It is the
    generator of `self.cocycle`, the perturbed cocycle over the same base.

    Long products along orbits (`orbit_product`, the direct sweep's blocks)
    come from 16-step leaves.  The leaf of region r is tree_product of the
    table matrices of the chain r, s(r), ..., s^15(r), where s(r) is the
    region located at f of r's midpoint, a guess that crosses tower tops.  A
    16-step node of a block takes its first point's leaf only where all 16
    points pass `_bounds`' interior test in the predicted regions, which are
    then the regions the locator returns: the entries there are exactly those
    table matrices, and the leaf is the node that the block's tree computes,
    rescaled at its level 4 as that tree is.  Every other node (collars,
    points outside every region, a wrong guess) goes through `entries` and
    tree levels 1-4, and levels 5 and up run through tree_product over the
    nodes, so every node, and the block, keeps the bits of tree_product over
    the block's entries.  The leaf table belongs to this evaluator, not to
    the proof: `build_config`, `assemble_perturbation` and U never build it;
    the first orbit product does, once, under a lock.
    """

    def __init__(self, co: Cocycle, cfg: SurgeryConfig, plans: dict):
        self.original = co
        self.cfg = cfg
        self.plans = plans
        self.blend_width = cfg.blend_width
        self._build_regions()
        self.cocycle = Cocycle(co.base, self)
        self.sup_distance = float("nan")  # set by certify_distance
        self._leaves: Optional[_Leaves] = None  # built by the first orbit_product
        self._leaf_lock = threading.Lock()

    def _build_regions(self):
        """Regions are the floors of the label columns: rows (region_lo, region_hi,
        region_label, region_level) over one (4, height) matrix column per label.

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
        lo, hi, levels = (np.concatenate(b) for b in zip(*breaks))
        labels = np.repeat(np.arange(len(label_keys)), [b[2].size for b in breaks])
        order = np.argsort(lo, kind="stable")
        self.region_lo, self.region_hi = lo[order], hi[order]
        self.region_label = labels[order]
        self.region_level = levels[order]
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

    # -- 16-step leaves -----------------------------------------------------------

    def _successors(self) -> np.ndarray:
        """s(r): the region located at f of region r's midpoint.  A float
        guess that nothing trusts: `orbit_product` tests every point."""
        mid = (self.region_lo + self.region_hi) / 2.0
        return self._locate(self.original.base.orbit_floats(mid, 1, 1)[:, 0])

    def _leaf_table(self) -> _Leaves:
        """The leaf table, built under a lock by the first caller."""
        with self._leaf_lock:
            if self._leaves is None:
                self._leaves = self._build_leaves()
        return self._leaves

    def _build_leaves(self) -> _Leaves:
        """Per region r, tree_product of the table matrices of the chain r,
        s(r), ..., s^15(r), built _SLICE / 16 regions at a time, so that no
        (regions x 16) array exists; and the bounds of r's interior.

        A float x passes `_bounds`' interior test for region r,
        min(x - lo, hi - x) / blend_width >= 1, exactly when inner_lo[r] <= x
        <= inner_hi[r]: each side of the test is monotone in x, and
        `_least_passing` finds where it turns.  A leaf is usable when every
        region of its chain is followed, in float order, by a region starting
        at or after its end (hi[r] <= lo[r + 1]), so that a point inside it
        is located there.  When a table entry reaches _ENTRY_CAP no leaf is
        usable.
        """
        succ = self._successors()
        lo, hi, w = self.region_lo, self.region_hi, self.blend_width
        separated = np.append(hi[:-1] <= lo[1:], True)
        bounded = all(np.abs(col).max() < _ENTRY_CAP for col in self._table)
        size = lo.size
        usable = np.empty(size, dtype=bool)
        nodes = [np.empty(size) for _ in range(4)] + [np.empty(size, dtype=np.int64)]
        step = _SLICE // _STRIDE
        for s in range(0, size, step):
            chain = np.empty((_STRIDE, min(step, size - s)), dtype=np.intp)
            chain[0] = np.arange(s, s + chain.shape[1])
            for j in range(1, _STRIDE):
                succ.take(chain[j - 1], out=chain[j])
            usable[s:s + chain.shape[1]] = separated.take(chain).all(axis=0) & bounded
            for out, v in zip(nodes, tree_product(*(col.take(chain.T) for col in self._table))):
                out[s:s + chain.shape[1]] = v
        return _Leaves(succ, usable, _least_passing(lo, w), -_least_passing(-hi, w), tuple(nodes))

    def orbit_product(self, base, x0, n, start=0):
        """`Generator.orbit_product`, bit for bit, from the leaf table.

        A node of 16 steps takes its region r0's leaf where the leaf is usable
        and each of its points x_j lies inside the predicted region
        r_j = s^j(r0) as `_bounds` tests it.  `_entries_slice` then gives x_j
        the table matrix of r_j, and the leaf is tree_product of those
        matrices: the block tree's level-4 node, rescaled at its root as the
        block tree rescales level 4.  Every other node gets the entries of its
        points and the same tree_product.  tree_product over the nodes then
        runs the block's levels 5 and up with their rescales
        (`cocycle._blocked_tree`).  With every entry below _ENTRY_CAP no tree
        here or in the whole block overflows, so none restarts; a block whose
        length is not a multiple of 16, or whose entries reach the cap, goes
        through `Generator.orbit_product` whole.
        """
        if n % _STRIDE:
            return super().orbit_product(base, x0, n, start)
        leaves = self._leaf_table()
        pos = base.orbit_floats(x0, n, start)
        rows = pos.reshape(-1, _STRIDE)  # one row per node
        cols = np.ascontiguousarray(rows.T)
        head = r = self._locate(cols[0])
        ok = leaves.usable.take(head)
        for j, x in enumerate(cols):
            if j:
                r = leaves.succ.take(r)
            ok &= leaves.inner_lo.take(r) <= x
            ok &= x <= leaves.inner_hi.take(r)
        nodes = [v.take(head) for v in leaves.nodes]
        slow = np.flatnonzero(~ok)
        for s in range(0, slow.size, _SLICE // _STRIDE):  # _SLICE points at a time
            part = slow[s:s + _SLICE // _STRIDE]
            ents = [np.asarray(v, dtype=float) for v in self.entries(rows[part])]
            if not all(np.abs(v).max() < _ENTRY_CAP for v in ents):
                return super().orbit_product(base, x0, n, start)
            for out, v in zip(nodes, tree_product(*ents)):
                out[part] = v
        *nodes, e = (v.reshape(pos.shape[0], -1) for v in nodes)
        *top, e_top = tree_product(*nodes)
        return (*top, e_top + e.sum(axis=1))

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


@dataclass(frozen=True)
class _Leaves:
    """`PerturbedCocycle`'s leaf table: per region, the successor guess s,
    whether its leaf may be used, the bounds of its interior and its leaf
    (pa, pb, pc, pd, E)."""

    succ: np.ndarray
    usable: np.ndarray
    inner_lo: np.ndarray
    inner_hi: np.ndarray
    nodes: tuple


def _least_passing(lo: np.ndarray, w: float) -> np.ndarray:
    """Per element, the least float x with (x - lo) / w >= 1 in floats, or
    inf where a few ulp steps from lo + w do not find it.  The test is
    monotone in x, so the x returned passes and the float below it fails,
    which is checked."""
    def passes(x):
        return (x - lo) / w >= 1.0

    x = lo + w
    for _ in range(4):
        below = np.nextafter(x, -np.inf)
        x = np.where(passes(below), below, x)
        x = np.where(passes(x), x, np.nextafter(x, np.inf))
    return np.where(passes(x) & ~passes(np.nextafter(x, -np.inf)), x, np.inf)


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
