"""Exception types shared across the package.

The CLI maps these onto exit codes: numerical failures (SingularHankel, BlowUp,
BranchCutError) exit 2, identity-check failures exit 3, usage
errors exit 1.
"""


class CoulombGasError(Exception):
    """Base class for all package errors."""


class DomainError(CoulombGasError, ValueError):
    """Input outside the mathematical domain of an operation."""


class NoValidRoot(CoulombGasError, ArithmeticError):
    """The modulus cubic has no admissible root; usually a mis-classified regime."""


class BranchCutError(CoulombGasError, ValueError):
    """Evaluation point lies on (or too close to) the branch cut of the inverse map."""


class SingularHankel(CoulombGasError, ArithmeticError):
    """Moment determinant vanished to working precision."""


class BlowUp(CoulombGasError, RuntimeError):
    """ODE solution left the basin of the bounded Painleve II solution."""


class GridTooShort(CoulombGasError, ValueError):
    """Requested evaluation point lies outside the computed solution grid."""


class IdentityCheckFailure(CoulombGasError, RuntimeError):
    """A cross-route identity check exceeded its tolerance (CLI exit code 3)."""
