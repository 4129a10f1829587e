"""The tests' disjointness oracle for half-open pieces (lo, hi) whose
endpoints are floats or exact scalars."""

from operator import itemgetter
from typing import Optional

from cocyclelab import basedyn as bd


def first_overlap(pieces) -> tuple[list, Optional[int]]:
    """Sort (lo, hi) pieces by lower end and find the first overlapping pair.

    Returns the exactly sorted list and the least i with pieces[i] reaching
    past the start of pieces[i + 1] under exact compare, or None when the
    pieces are pairwise disjoint (touching ends are disjoint: the pieces are
    half-open).  The sort is `basedyn._sort_exactly`: were a list left out of
    exact order, a piece would start after the next one, so it would reach
    past that start and fail the neighbour compare, never pass it.
    """
    pieces = list(pieces)
    bd._sort_exactly(pieces, itemgetter(0))
    for i in range(len(pieces) - 1):
        if not pieces[i][1] <= pieces[i + 1][0]:
            return pieces, i
    return pieces, None
