"""Exception types shared across the package, and the CLI's exit codes.

The CLI maps these onto exit codes: numerical failures (SingularHankel, BlowUp,
BranchCutError) exit 2, identity-check failures exit 3, usage
errors exit 1.
"""

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IDENTITY = 3


class UsageError(Exception):
    """Bad flag values detected after argparse accepted the syntax."""


class CoulombGasError(Exception):
    """Base class for all package errors."""


class DomainError(CoulombGasError, ValueError):
    """Input outside the mathematical domain of an operation."""


class NoValidRoot(CoulombGasError, ArithmeticError):
    """The modulus cubic has no admissible root; usually a mis-classified regime."""


class BranchCutError(CoulombGasError, ValueError):
    """Evaluation point lies on (or too close to) the branch cut of the inverse map."""


class SingularHankel(CoulombGasError, ArithmeticError):
    """A pivot of a scaled Gram factor was <= 0 at working precision."""


class BlowUp(CoulombGasError, RuntimeError):
    """ODE solution left the basin of the bounded Painleve II solution."""


class GridTooShort(CoulombGasError, ValueError):
    """Requested evaluation point lies outside the computed solution grid."""


class IdentityCheckFailure(CoulombGasError, RuntimeError):
    """A cross-route identity check exceeded its tolerance (CLI exit code 3)."""
