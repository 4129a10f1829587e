"""Exception types shared across the package."""


class CocycleLabError(Exception):
    """Base class for all package errors."""


class DeterminantError(CocycleLabError):
    """Matrix determinant drifted beyond the hard 1e-9 tolerance."""


class LogDomain(CocycleLabError):
    """No principal real logarithm: trace <= -2 + 1e-6."""


class EmptyCell(CocycleLabError):
    """Operation requires a non-empty open cell."""


class HorizonExceeded(CocycleLabError):
    """Orbit computation exceeded its iteration horizon."""


class Overflow(CocycleLabError):
    """Direct matrix product left the representable range (use log-scaled ops)."""


class BudgetExhausted(CocycleLabError):
    """Steering failed to reach the target within m_max steps at the given budget."""


class NoBalancedIndex(CocycleLabError):
    """Balance profile found no index in the (1/C, C) window; C below precondition."""


class SteeringFailed(CocycleLabError):
    """Segment plan could not build a valid steering block."""


class SearchFailed(CocycleLabError):
    """Steering-window scan exhausted all candidates."""


class NotRepresentable(CocycleLabError):
    """Height not representable as l*N + l'*(N+1)."""


class DisjointnessFailed(CocycleLabError):
    """No sufficiently small base cell with disjoint iterates was found."""


class ShrinkExhausted(CocycleLabError):
    """Frequency certificate failed down to the resolution floor."""


class ResolutionExceeded(CocycleLabError):
    """Continuity modulus fell below 4 grid spacings."""


class NotApplicable(CocycleLabError):
    """Surgery precondition failed: cocycle UH-certified or exponent near zero."""


class BlendBoundViolated(CocycleLabError):
    """Perturbed cocycle exceeded the certified sup-distance bound."""


class CertificationFailed(CocycleLabError):
    """A contract recomputation failed (segment bounds, UH certificate, ...)."""


class LiftFailed(CocycleLabError):
    """Direction field has adjacent jumps >= pi/4; angle lifting undefined."""


class ConfigError(CocycleLabError):
    """Invalid experiment configuration."""
