"""The S^3 counterexample scenario: certified hyperbolicity on the invariant
circle and the winding-number obstruction to extending its splitting.

The sphere is modeled as pairs of complex numbers modulo positive scaling; the
map (z, w) -> (e^{i a} z, e^{i a} (z + w)) fixes the circle {z = 0}, where it
rotates by a and the cocycle takes the displayed rotation-diagonal-rotation
form.  The unstable field over that circle winds, so no continuous splitting
can extend over the solid torus it bounds -- reported here as an exact degree
computation rather than an open-ended search on S^3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .basedyn import CircleRotation
from .cocycle import Certificate, Cocycle, HopfRestrictionGenerator, uh_certify
from .errors import CertificationFailed, CocycleLabError, LiftFailed
from .sl2 import Mat2, rotation


@dataclass(frozen=True)
class HopfSystem:
    """(z, w) -> (e^{i alpha} z, e^{i alpha}(z + w)) mod R_+, alpha/2pi irrational."""

    alpha: float

    def step(self, z: complex, w: complex) -> tuple[complex, complex]:
        rot_ = complex(math.cos(self.alpha), math.sin(self.alpha))
        nz, nw = rot_ * z, rot_ * (z + w)
        scale = math.sqrt(abs(nz) ** 2 + abs(nw) ** 2)
        if scale == 0.0:
            raise CocycleLabError("origin is not a point of S^3")
        return nz / scale, nw / scale

    def on_invariant_circle(self, theta: float) -> tuple[complex, complex]:
        return 0j, complex(math.cos(theta), math.sin(theta))


def hopf_generator(theta: float, alpha: float) -> Mat2:
    """R_{theta+alpha} diag(2, 1/2) R_{-theta}, the cocycle on the circle {z=0}."""
    return rotation(theta + alpha) @ Mat2(2.0, 0.0, 0.0, 0.5) @ rotation(-theta)


@dataclass
class DirectionField:
    """Directions in RP^1 sampled over the circle parameter theta = 2 pi x."""

    angles: np.ndarray  # RP1 angles in [0, pi), one per uniform grid point

    def __post_init__(self):
        d = np.abs(np.diff(np.concatenate([self.angles, self.angles[:1]])))
        d = np.minimum(d, math.pi - d)
        if d.size and float(d.max()) >= math.pi / 4:
            raise LiftFailed(f"adjacent direction jump {d.max():.3f} >= pi/4")


def winding_number(field: DirectionField) -> int:
    """Degree of the field over one loop: lifted total turn in units of 2 pi.

    The lift chooses each increment within (-pi/2, pi/2]; a field tracing
    (cos theta, sin theta) makes two half-turns and has degree 1.
    """
    ang = field.angles
    inc = np.mod(np.diff(np.concatenate([ang, ang[:1]])) + math.pi / 2, math.pi) - math.pi / 2
    total = float(inc.sum())
    return int(round(total / (2.0 * math.pi)))


@dataclass
class HopfCertificate:
    expansion: float
    winding: int
    field: DirectionField
    cone_width: float


def certify_restricted_uh(alpha: float, grid_size: int = 4096) -> HopfCertificate:
    """UH certificate of the restricted cocycle plus the degree of its E^u field.

    The base angle alpha is the rotation by alpha/(2 pi) on the parameter
    circle; certification must succeed (the example is exactly hyperbolic with
    orthogonal axes), so a failure raises instead of returning.
    """
    frac = (alpha / (2.0 * math.pi)) % 1.0
    if frac == 0.0:
        raise CocycleLabError("alpha must not be a multiple of 2 pi")
    base = CircleRotation(frac, grid_size=grid_size)
    co = Cocycle(base, HopfRestrictionGenerator(alpha=alpha))
    res = uh_certify(co, n_max=8)
    if not isinstance(res, Certificate):
        raise CertificationFailed(
            f"restricted Hopf cocycle did not certify: {type(res).__name__}")
    field = DirectionField(angles=res.cone_angles)
    return HopfCertificate(
        expansion=res.expansion,
        winding=winding_number(field),
        field=field,
        cone_width=res.cone_width,
    )
