"""The tests' oracles for first returns and covering times of a rotation:
exact marching and an exact covering sweep, both independent of the
three-distance closed form that `basedyn.first_return` uses."""

from bisect import bisect_left, bisect_right

from cocyclelab import basedyn as bd
from cocyclelab.errors import HorizonExceeded
from cocyclelab.exact import mod1


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
