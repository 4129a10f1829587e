"""Scalar singular axes of one SL(2,R) matrix: the oracle that the tests hold
`sl2.singular_axes_arrays` and the scenario generators to."""

import math
from dataclasses import dataclass

from cocyclelab.errors import CocycleLabError
from cocyclelab.sl2 import _ROTATION_TOL, Mat2, operator_norm


class DegenerateAxes(CocycleLabError):
    """Singular axes requested for a matrix within tolerance of a rotation."""


@dataclass(frozen=True)
class SingularAxes:
    """Expanding/contracting unit axes and the operator norm of a matrix."""

    u: tuple[float, float]
    s: tuple[float, float]
    norm: float


def _axis_sign(v: tuple[float, float]) -> tuple[float, float]:
    # nonnegative first coordinate, first positive nonzero coordinate if zero
    x, y = v
    if x < 0.0 or (x == 0.0 and y < 0.0):
        return (-x, -y)
    return (x, y)


def singular_axes(A: Mat2) -> SingularAxes:
    """Expanding and contracting unit singular vectors with the operator norm.

    Requires operator_norm(A) > 1 + 1e-8; below that A is within tolerance of
    a rotation and the axes are numerically meaningless.
    """
    nrm = operator_norm(A)
    if nrm <= 1.0 + _ROTATION_TOL:
        raise DegenerateAxes(f"norm {nrm} within rotation tolerance")
    # A^T A = [[p, r], [r, q]]; u is its top eigenvector
    p = A.a * A.a + A.c * A.c
    q = A.b * A.b + A.d * A.d
    r = A.a * A.b + A.c * A.d
    lam = nrm * nrm
    v1 = (r, lam - p)
    v2 = (lam - q, r)
    n1 = v1[0] * v1[0] + v1[1] * v1[1]
    n2 = v2[0] * v2[0] + v2[1] * v2[1]
    vx, vy = v1 if n1 >= n2 else v2
    nv = math.hypot(vx, vy)
    if nv == 0.0:  # p == q and r == 0: scalar A^T A, cannot happen past the gate
        raise DegenerateAxes("isotropic A^T A")
    u = _axis_sign((vx / nv, vy / nv))
    s = _axis_sign((-u[1], u[0]))
    return SingularAxes(u=u, s=s, norm=nrm)
