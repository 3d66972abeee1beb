"""Exception types raised by the numerical layers."""


class WHFactorError(Exception):
    """Base class for all errors raised by this package."""


class NearSingular(WHFactorError):
    """A matrix inverse was requested where |det| is below the floor."""

    def __init__(self, x, absdet, floor):
        self.x = x
        self.absdet = absdet
        self.floor = floor
        super().__init__(f"matrix nearly singular at x={x!r}: |det|={absdet:.3e} < {floor:.3e}")


class QuadratureNotConverged(WHFactorError):
    """Panel doubling moved a reported integral by more than the allowance, or
    a quadrature table would exceed the node budget."""


class TooCloseToAxis(WHFactorError):
    """Off-axis evaluation requested within the boundary-value margin."""


class NoLimit(WHFactorError):
    """Tail extrapolation did not settle within tolerance."""


class ArgumentJump(WHFactorError):
    """Phase increment between neighbouring grid points stayed too large."""


class NearZero(WHFactorError):
    """A winding-number integrand dipped below the modulus floor."""


class NotSolvable(WHFactorError):
    """A correction step was requested although its solvability check failed."""


class PolicyConflict(WHFactorError):
    """A constant policy targeted entries that are not free."""


class OrderExceeded(WHFactorError):
    """An assembly order beyond the achieved number of steps was requested."""


class NoUnstablePair(WHFactorError):
    """No index pair with gap >= 2 exists, so no singular perturbation."""
