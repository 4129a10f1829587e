"""The tests' oracles.

For first returns and covering times of a rotation: exact marching and an
exact covering sweep, both independent of the three-distance closed form
that `basedyn.first_return` uses.  For the planner: the whole-copy versions
of `perturb._masked_products` and `perturb._certify_chunk`, which mask or
overlay full (L, N) copies of the entry arrays before one scan.  For the
surgery: `certify_distance` as one generator call over every probe, and the
direct sweep as a whole walk whose nodes are merged by one tree per lane.  For
the tangent chart: `sl2.exp_traceless_arrays` and `sl2.log_sl2_arrays` with
every branch gathered and scattered by its mask.  For long products: log
sigma1 of the product of a sequence of doubles in mpmath.
"""

import math
from bisect import bisect_left, bisect_right

import numpy as np

from cocyclelab import basedyn as bd
from cocyclelab.errors import HorizonExceeded
from cocyclelab.exact import mod1
from cocyclelab.errors import LogDomain
from cocyclelab.sl2 import _TRACE_FLOOR, general_operator_norm, log_norm, scan_lanes, tree_product
from cocyclelab.surgery import _CHUNK


def first_return_marching(rot: bd.CircleRotation, U: bd.Cell,
                          horizon: int = bd.FIRST_RETURN_HORIZON) -> list[tuple[bd.Cell, int]]:
    """Partition of the union U by first-return time, by exact marching:
    advance sub-arcs of U one step at a time, peeling off the parts that
    land in U.  Cells come merged per return time, in order of time."""
    u = U.intervals
    active = [(lo, hi, lo, hi) for lo, hi in u]  # (cur_lo, cur_hi, pre_lo, pre_hi)
    out = []
    alpha = rot.alpha
    for n in range(1, horizon + 1):
        if not active:
            break
        nxt = []
        for clo, chi, plo, phi in active:
            length = chi - clo
            nlo = mod1(clo + alpha)
            segs = []
            if nlo + length <= 1:
                segs.append((nlo, nlo + length, plo))
            else:
                cut = 1 - nlo
                segs.append((nlo, bd._one_like(nlo), plo))
                segs.append((bd._zero_like(nlo), length - cut, plo + cut))
            for slo, shi, base in segs:
                cuts = [slo, shi]
                for ulo, uhi in u:
                    if slo < ulo < shi:
                        cuts.append(ulo)
                    if slo < uhi < shi:
                        cuts.append(uhi)
                cuts = sorted(set(cuts))
                for q0, q1 in zip(cuts[:-1], cuts[1:]):
                    pre0 = base + (q0 - slo)
                    if bd.union_contains(u, q0):
                        out.append((bd.Cell.from_union([(pre0, pre0 + (q1 - q0))]), n))
                    else:
                        nxt.append((q0, q1, pre0, pre0 + (q1 - q0)))
        active = nxt
    if active:
        raise HorizonExceeded(f"first return beyond {horizon} steps")
    merged: dict[int, list] = {}
    for cell, n in out:
        merged.setdefault(n, []).extend(cell.intervals)
    result = [(bd.Cell.from_union(parts), n) for n, parts in merged.items()]
    return sorted(result, key=lambda p: (p[1], p[0].intervals[0][0]))


def exact_covering_time(rot: bd.CircleRotation, W: bd.Cell, horizon: int = 10**5) -> int:
    """Least m with f^0(W), ..., f^m(W) covering the circle, by an exact
    sweep: each iterate's pieces join the sorted union of the earlier ones,
    found by bisection and merged with every piece they meet or touch."""
    los: list = []  # the union so far, as disjoint, non-touching [los[i], his[i])
    his: list = []
    for j in range(horizon + 1):
        for lo, hi in rot.translate_cell(W, j).intervals:
            i, k = bisect_left(his, lo), bisect_right(los, hi)  # pieces i .. k-1 meet [lo, hi]
            if i < k:
                lo, hi = min(lo, los[i]), max(hi, his[k - 1])
            los[i:k], his[i:k] = [lo], [hi]
        if len(los) == 1 and los[0] <= 0 and his[0] >= 1:
            return j
    raise HorizonExceeded("exact covering sweep exhausted")


def scan_whole(a, b, c, d):
    """sl2.scan_lanes of (L, n) entry arrays held whole."""
    return scan_lanes(lambda s, k: [v[:, s:s + k] for v in (a, b, c, d)], *a.shape)[0]


def masked_products_whole(ents, N, j1, m, lanes):
    """`perturb._masked_products` over masked (lanes, steps) copies."""
    ents = [e[lanes] for e in ents]
    j1s = j1[lanes][:, None]

    def scan(lo, hi, active):
        steps = np.arange(lo, hi)[None, :]
        return scan_whole(*(np.where(active(steps), e[:, lo:hi], one)
                            for e, one in zip(ents, (1.0, 0.0, 0.0, 1.0))))[:4]

    return scan(0, int(j1s.max()), lambda j: j < j1s), \
        scan(int(j1s.min()) + m, N, lambda j: j >= j1s + m)


def certify_chunk_whole(ents, j1, m, early, blocks):
    """`perturb._certify_chunk` over a whole copy of the entries with the
    steered blocks written in."""
    max_dist = np.zeros(early.size)
    lanes = np.flatnonzero(~early)
    ents = [np.array(e) for e in ents]
    if lanes.size:
        mats = np.array([[M.entries() for M in blocks[lane].matrices] for lane in lanes])
        rows, cols = lanes[:, None], j1[lanes][:, None] + np.arange(m)[None, :]
        diffs = (mats[:, :, k] - e[rows, cols] for k, e in enumerate(ents))
        max_dist[lanes] = general_operator_norm(*diffs).max(axis=1)
        for k, e in enumerate(ents):
            e[rows, cols] = mats[:, :, k]
    return log_norm(*scan_whole(*ents)), max_dist


def distance_probes(pc) -> np.ndarray:
    """The sorted distinct probes of a PerturbedCocycle's sup distance: the
    grid and the region edges moved in by four offsets."""
    w = pc.blend_width
    xs = [pc.original.base.grid_floats()]
    for off in (0.25 * w, 0.5 * w, 0.999 * w, 1.5 * w):
        xs.append(np.mod(pc.region_lo + off, 1.0))
        xs.append(np.mod(pc.region_hi - off, 1.0))
    return np.unique(np.concatenate(xs))


def certify_distance_one_shot(pc) -> float:
    """sup ||A~ - A|| over `distance_probes`, in one call each of the blended
    map and the generator."""
    probe = distance_probes(pc)
    pa, pb, pc_, pd = pc.entries(probe)
    ga, gb, gc, gd = (np.asarray(e, dtype=float) for e in pc.original.generator.entries(probe))
    return float(general_operator_norm(pa - ga, pb - gb, pc_ - gc, pd - gd).max())


def reference_walk(pc, x0: np.ndarray, n: int):
    """The direct sweep's nodes of lanes x0 over n steps, the whole walk at
    once, as arrays (lane, start, region) in order of lane and then of start:
    a suffix row where the lane's point lies a blend width plus the drift
    inside its region's arc and the column ends within n, else a chunk of
    `surgery._CHUNK` steps, region -1."""
    alpha = pc.original.base.alpha_float
    drift = 2.0**-36 + 4.0 * math.ulp(n + 1.0) + int(pc.label_heights.max()) * 2.0**-53
    reach = 1.0 + drift / pc.blend_width
    steps = np.zeros(x0.size, dtype=np.int64)
    active = np.arange(x0.size, dtype=np.int32)
    nodes = []
    while active.size:
        start = steps.take(active)
        r, t = pc._bounds(bd.wrap_floats(x0.take(active) + start * alpha))
        top = pc._to_top.take(r)
        inside = (t >= reach) & (top <= n - start)
        nodes.append((active, start, np.where(inside, r, -1).astype(np.int32)))
        steps[active] = start + np.where(inside, top, _CHUNK)
        active = active[steps.take(active) < n]
    lane, start, region = (np.concatenate(v) for v in zip(*nodes))
    order = np.argsort(lane, kind="stable")
    return lane.take(order), start.take(order), region.take(order)


def reference_log_norms(pc, xs, n: int) -> np.ndarray:
    """`PerturbedCocycle.log_norms` as one tree_product per lane over all of
    the lane's nodes from `reference_walk`, every chunk evaluated first."""
    x0 = np.atleast_1d(np.asarray(xs, dtype=float))
    lane, start, region = reference_walk(pc, x0, n)
    chunk = np.flatnonzero(region < 0)
    parts = [pc._chunk_products(x0.take(lane[c]), start[c], n)
             for c in np.array_split(chunk, max(1, chunk.size // 512))]
    chunks = [np.concatenate(v) for v in zip(*parts)]
    cuts = np.searchsorted(lane, np.arange(x0.size + 1))
    firsts = np.searchsorted(chunk, cuts)
    out = np.empty(x0.size)
    for i in range(x0.size):
        r = region[cuts[i]:cuts[i + 1]]
        nodes = [v.take(r) for v in pc._suffix]  # -1 reads the last row: a chunk's place
        for v, c in zip(nodes, chunks):
            v[r < 0] = c[firsts[i]:firsts[i + 1]]
        *top, e = tree_product(*(v[None] for v in nodes[:4]))
        out[i] = log_norm(*top, e + nodes[4].sum())[0]
    return out


def exp_traceless_masked(t1, t2, t3):
    """`sl2.exp_traceless_arrays`, each branch on its own masked elements."""
    t1, t2, t3 = (np.asarray(t, dtype=float) for t in (t1, t2, t3))
    q = np.asarray(t1 * t1 + t2 * t3)
    alpha, beta = np.empty_like(q), np.empty_like(q)
    small = np.abs(q) < 1e-8
    hyp = ~small & (q > 0)
    ell = ~(small | hyp)
    qs = q[small]
    alpha[small], beta[small] = 1.0 + qs / 2.0 + qs * qs / 24.0, 1.0 + qs / 6.0 + qs * qs / 120.0
    r = np.sqrt(q[hyp])
    alpha[hyp], beta[hyp] = np.cosh(r), np.sinh(r) / r
    r = np.sqrt(-q[ell])
    alpha[ell], beta[ell] = np.cos(r), np.sin(r) / r
    return alpha + beta * t1, beta * t2, beta * t3, alpha - beta * t1


def log_sl2_masked(a, b, c, d):
    """`sl2.log_sl2_arrays`, each branch on its own masked elements."""
    a = np.asarray(a, dtype=float)
    d = np.asarray(d, dtype=float)
    t = np.asarray((a + d) / 2.0)
    if np.any(t <= _TRACE_FLOOR / 2.0):
        raise LogDomain(f"trace/2 = {float(np.min(t))} <= -1 + 5e-7 in array log")
    e = t - 1.0
    kappa = np.empty_like(t)
    small = np.abs(e) < 1e-6
    hyp = ~small & (t > 1.0)
    ell = ~(small | hyp)
    es, th, te = e[small], t[hyp], t[ell]
    kappa[small] = 1.0 - es / 3.0 + 2.0 * es * es / 15.0
    u = np.sqrt(np.maximum(th * th - 1.0, 1e-300))
    kappa[hyp] = np.arcsinh(u) / u
    u = np.sqrt(np.maximum(1.0 - te * te, 1e-300))
    kappa[ell] = np.arccos(np.clip(te, -1.0, 1.0)) / u
    return kappa * (a - t), kappa * np.asarray(b, dtype=float), kappa * np.asarray(c, dtype=float)


def mpmath_log_norm(a, b, c, d, dps: int):
    """log sigma1 of M_{n-1} ... M_0 for the doubles M_j = [[a[j], b[j]],
    [c[j], d[j]]], an mpmath number of `dps` digits, and with sigma1 from
    the determinant of the product itself."""
    import mpmath

    with mpmath.workdps(dps):
        pa, pb, pc, pd = (mpmath.mpf(v) for v in (1, 0, 0, 1))
        for na, nb, nc, nd in zip(*(np.asarray(v, dtype=float).tolist() for v in (a, b, c, d))):
            pa, pb, pc, pd = (na * pa + nb * pc, na * pb + nb * pd,
                              nc * pa + nd * pc, nc * pb + nd * pd)
        g = pa * pa + pb * pb + pc * pc + pd * pd
        det = pa * pd - pb * pc
        return mpmath.log(mpmath.sqrt((g + mpmath.sqrt((g - 2 * det) * (g + 2 * det))) / 2))
