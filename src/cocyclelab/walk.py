"""Segmented walks: the node sequence of many lanes, walked by segments in
lockstep and stitched where consecutive walkers meet.

A lane's walk is a sequence of nodes, each starting where the one before it
ends, from step 0 to a horizon n.  The next node depends only on the lane
and the step it starts at: `node(anchors, steps)` gives, for lanes' anchors
and node starts, each node's region (-1 for a chunk) and the start of the
node after it.  One walker a lane takes one lockstep step per node, tens of
thousands of steps of numpy calls over a few lanes on a long horizon; here
each lane has many walkers from spaced steps, and the lane's walk is
stitched from theirs (`_round`).  The nodes, their bits and their order are
those of one walker a lane.  `surgery.PerturbedCocycle` walks its direct
sweep this way.
"""

from __future__ import annotations

import numpy as np

SEGMENTS = 32  # walkers of a lane in a round
LOOKAHEAD = 1  # longest nodes a walker goes past its segment to meet the next, at most a segment's


def windows(node, x0: np.ndarray, n: int, longest: int, chunk: int, window: int):
    """The walks of lanes x0 over n steps, `window` nodes at a time:
    (lanes, window) arrays (start, region) of each lane's next nodes, the
    region -2 past a lane's end.  A node of region -1, a chunk, is `chunk`
    steps long, and no node is longer than `longest` steps.

    The walk runs in rounds (`_round`).  A lane walks in a round while it
    holds fewer than a window of nodes, with as many walkers as fill one,
    and a window is yielded once every lane holds one or has ended.  The
    nodes wait in one (lanes, width) buffer, width about two windows, and a
    window is a view of it, valid until the next one is asked for: the
    memory is that buffer and one round, at any n.
    """
    base = np.zeros(x0.size, np.int64)  # each lane's first node not yet walked
    held = np.zeros(x0.size, np.int64)  # nodes walked and not yet yielded, per lane
    start = np.empty((x0.size, 2 * window), np.int64)
    region, head = np.empty((x0.size, 2 * window), np.int32), 0
    while True:
        todo = np.flatnonzero((base < n) & (held < window))
        if todo.size:
            added, s, r, base[todo] = _round(node, x0.take(todo), base.take(todo),
                                             window - held.take(todo), n, longest, chunk, window)
            need = max(int(held.max()), int((held.take(todo) + added).max()), window)
            if need > start.shape[1]:
                start, region = (np.concatenate([v, np.empty((x0.size, need - v.shape[1]),
                                                             v.dtype)], axis=1)
                                 for v in (start, region))
            if head + need > start.shape[1]:
                head = _to_front(held, head, start, region)
            at = _ranges(todo * start.shape[1] + head + held.take(todo), added)
            start.ravel()[at], region.ravel()[at] = s, r
            held[todo] += added
            del at, s, r  # the window's consumer runs while this frame waits
        while held.any() and np.all((held >= window) | (base >= n)):
            if head + window > start.shape[1]:  # only ended lanes hold nodes
                head = _to_front(held, head, start, region)
            view = np.s_[:, head:head + window]
            past = np.arange(window) >= held[:, None]
            start[view][past], region[view][past] = 0, -2
            yield start[view], region[view]
            head, held = head + window, np.maximum(held - window, 0)
        if not held.any() and (base >= n).all():
            return


def _to_front(held: np.ndarray, head: int, *buffers) -> int:
    """Move the nodes each lane holds from column head to column 0 of the
    buffers; the new head."""
    kept = int(held.max())
    for v in buffers:
        v[:, :kept] = v[:, head:head + kept]
    return 0


def _ranges(lo: np.ndarray, size: np.ndarray) -> np.ndarray:
    """lo[i] .. lo[i] + size[i] - 1, for each i in turn, as one array."""
    return np.arange(int(size.sum())) - np.repeat(np.cumsum(size) - size - lo, size)


def _round(node, x0: np.ndarray, base: np.ndarray, short: np.ndarray, n: int, longest: int,
           chunk: int, window: int):
    """One round of the walks of lanes x0, each from its node at step base
    and short[i] nodes short of a window: per lane the count of nodes
    walked, then their (start, region) in order of lane and of start, and
    per lane the start of its first node not walked.

    Walker w of a lane starts at step base + w seg, for a segment of seg
    steps: the `SEGMENTS`-th part of a window of longest nodes, rounded up
    to a multiple of `chunk`.  All walkers step in lockstep, one node a
    step, over their segment and `LOOKAHEAD` longest nodes past it.  A
    segment has that many nodes at least, so a lane gets the walkers that
    fill its window.  Walker 0 starts at a node of the lane's walk, so its
    nodes are the walk's.  Once a walker w on the walk has a node that
    walker w + 1 also has, the two go on alike from that node, so the walk
    is walker w's nodes up to that node, then walker w + 1's; the first
    shared node is past the node where walker w joined, for that starts
    less than `LOOKAHEAD` longest nodes, at most a segment, past walker w's
    start, and walker w + 1 starts at its segment end.  Where two walkers
    share no node, the lane's round ends with the first one's nodes, and
    the next round starts at the node after them.  A segment is a multiple
    of `chunk`, so on a run of chunks from a lane's base every walker that
    starts on the run meets the walk.

    Once half of the walkers have passed their segment and look-ahead,
    those leave the loop, so the stragglers, walkers on runs of chunks,
    step alone.
    """
    span = -(-window // SEGMENTS)  # longest nodes in a segment
    seg = chunk * -(-span * longest // chunk)
    lane_walkers = -(-short // span)
    lanes, segs = x0.size, int(min(lane_walkers.max(), -(-(n - base.min()) // seg)))
    # a lane's walkers past its count start at n, and have no node
    w = np.arange(segs)
    first = np.where(w < lane_walkers[:, None], base[:, None] + seg * w, n).ravel()
    limit = np.minimum(first + seg + LOOKAHEAD * longest, n)  # nodes start below it
    walkers = first.size
    # a row a node, a column a walker.  A walker that leaves the loop writes
    # its next start; the rows after it keep the largest start, so every
    # column is sorted.  Rows for chunks and short nodes in turn, and more
    # if a walker needs them
    rows = 2 * ((seg + LOOKAHEAD * longest) // chunk + 1)
    start = np.full((rows, walkers), np.iinfo(np.int64).max)
    region = np.empty((rows, walkers), np.int32)
    live, anchors, steps, stops = np.arange(walkers), np.repeat(x0, segs), first, limit
    k = 0
    while live.size:
        if k + 1 == start.shape[0]:
            start = np.concatenate([start, np.full_like(start, np.iinfo(np.int64).max)])
            region = np.concatenate([region, np.empty_like(region)])
        r, nxt = node(anchors, steps)
        if live.size == walkers:
            start[k], region[k] = steps, r
        else:
            start[k, live], region[k, live] = steps, r
        steps = nxt
        k += 1
        going = steps < stops
        if 2 * np.count_nonzero(going) <= going.size:
            start[k, live[~going]] = steps[~going]
            live, anchors, steps, stops = (v[going] for v in (live, anchors, steps, stops))
    start, region = start[:k + 1], region[:k + 1]
    flat, cols = start.ravel(), np.arange(walkers)
    count = (start < limit).sum(axis=0)  # nodes per walker
    # walker w's first node that walker w + 1 has: node meet[w], there node at[w]
    meet, at = np.full(walkers, k), np.zeros(walkers, np.int64)
    if segs > 1:
        lead = (start < first + seg).sum(axis=0)  # nodes before the segment end
        tail = np.where(cols % segs < segs - 1, np.maximum(count - lead, 0), 0)
        j, w = _ranges(lead, tail), np.repeat(cols, tail)
        want = flat.take(j * walkers + w)
        lo, hi = np.zeros(j.size, np.int64), np.full(j.size, k)
        while (lo < hi).any():  # the first node of walker w + 1 at or past want
            mid = (lo + hi) // 2
            right = flat.take(mid * walkers + w + 1) < want
            lo, hi = np.where(right, mid + 1, lo), np.where(right, hi, mid)
        hit = flat.take(lo * walkers + w + 1) == want
        w, j, lo = w[hit], j[hit], lo[hit]
        once = np.diff(w, prepend=-1) != 0
        meet[w[once]], at[w[once]] = j[once], lo[once]
    met = (meet < k).reshape(lanes, segs)
    on = np.ones((lanes, segs), bool)
    on[:, 1:] = np.logical_and.accumulate(met[:, :-1], axis=1)
    entry = np.zeros((lanes, segs), np.int64)
    entry[:, 1:] = at.reshape(lanes, segs)[:, :-1]
    stop = np.where(on & met, meet.reshape(lanes, segs), count.reshape(lanes, segs))
    size = np.where(on, stop - entry, 0).ravel()
    nodes = _ranges(entry.ravel(), size) * walkers + np.repeat(cols, size)
    last = np.arange(lanes) * segs + on.sum(axis=1) - 1
    after = flat.take(count.take(last) * walkers + last)
    return (size.reshape(lanes, segs).sum(axis=1), flat.take(nodes),
            region.ravel().take(nodes), after)
