"""Left-edge large deviations for the Laguerre unitary ensemble.

The smallest eigenvalue of the LUE with rectangular parameter alpha sits at
the hard-won Marchenko-Pastur edge lambda_- = (sqrt(alpha+1) - 1)^2.  Pushing
it to t > lambda_- costs a rate Phi(t) N^2; the subleading constant Psi(t)
rides along.  Both come from the planar-gas free energy through the change of
variables (a, c) = (sqrt(t/alpha), 1/alpha): conditioning the smallest
eigenvalue above t is the radial slice of conditioning a planar charge at
radius a, and t > lambda_- lands exactly in the simply connected droplet
phase.  An independent route to the same leading order is the constrained
Coulomb gas action S(t) built from the conditioned spectral density on
[t, U(t)]; Phi(t) = S(t) - S(lambda_-) is checked numerically, never assumed.

Pulled to t < lambda_- the probability is 1 - o(1); the exact finite-n column
reports log P = 0 for t <= 0, where the gap event is almost sure.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, NoValidRoot
from .freeenergy import ZETA_PRIME_MINUS_ONE, energy_post, energy_pre, fconst
from .geometry import Regime, solve_q


class LUEParams(NamedTuple):
    """Rectangular parameter and the spectral edges it induces."""

    alpha: float
    lambda_minus: float
    lambda_plus: float

    @classmethod
    def from_alpha(cls, alpha: float) -> "LUEParams":
        if alpha < 0.0:
            raise DomainError(f"alpha must be nonnegative, got {alpha}")
        root = math.sqrt(alpha + 1.0)
        return cls(alpha=alpha, lambda_minus=(root - 1.0) ** 2,
                   lambda_plus=(root + 1.0) ** 2)


def mp_density(params: LUEParams, x: float) -> float:
    """Equilibrium density (1/2pi) sqrt((l+ - x)(x - l-))/x; zero off-support."""
    if x <= 0.0 or x <= params.lambda_minus or x >= params.lambda_plus:
        return 0.0
    return math.sqrt((params.lambda_plus - x) * (x - params.lambda_minus)) / (
        2.0 * math.pi * x)


def _planar_args(t: float, alpha: float) -> tuple[float, float, float]:
    """The planar image (a, c, q) of (t, alpha): insertion radius a = sqrt(t/alpha),
    inverse charge c = 1/alpha, and the modulus q = solve_q(a, c)."""
    if alpha <= 0.0:
        raise DomainError(f"rate functions need alpha > 0, got {alpha}")
    lam_minus = LUEParams.from_alpha(alpha).lambda_minus
    if t <= lam_minus:
        raise DomainError(
            f"pushed regime needs t > lambda_- = {lam_minus}, got t = {t}")
    a, c = math.sqrt(t / alpha), 1.0 / alpha
    try:
        return a, c, solve_q(a, c)
    except NoValidRoot as exc:
        # the failed root names the planar (a, c); report the (t, alpha) given
        raise DomainError(
            f"no rate function at alpha = {alpha!r}, t = {t!r}: its planar "
            "image a = sqrt(t/alpha), c = 1/alpha has no admissible modulus "
            "root in double precision") from exc


def phi_psi(t: float, alpha: float) -> tuple[float, float]:
    """(phi(t, alpha), psi(t, alpha)) from one modulus solve."""
    a, c, q = _planar_args(t, alpha)
    return (alpha * alpha * (energy_pre(a, c, q) - energy_post(a, c)),
            fconst(a, c, Regime.PRE, q) - fconst(a, c, Regime.POST))


def phi(t: float, alpha: float) -> float:
    """Rate of the pushed gap event: alpha^2 times the planar energy excess."""
    return phi_psi(t, alpha)[0]


def psi(t: float, alpha: float) -> float:
    """Constant-order correction: the planar free-energy constant across phases."""
    return phi_psi(t, alpha)[1]


def kc_theta(t: float, alpha: float) -> float:
    """Auxiliary angle of the constrained-gas cubic."""
    if alpha <= 0.0:
        raise DomainError(f"constrained action needs alpha > 0, got {alpha}")
    if t <= 0.0:
        raise DomainError(f"constrained action needs t > 0, got {t}")
    shifted = t + 2.0 * (alpha + 2.0)
    radicand = (shifted ** 3 - 27.0 * alpha * alpha * t) / (27.0 * alpha * alpha * t)
    if radicand < 0.0:
        raise DomainError(f"angle radicand negative at t = {t}, alpha = {alpha}")
    return math.atan(math.sqrt(radicand))


def kc_U(t: float, alpha: float) -> float:
    """Right edge of the spectral density conditioned on the gap (t, infinity)."""
    theta = kc_theta(t, alpha)
    shifted = t + 2.0 * (alpha + 2.0)
    return (4.0 / 3.0) * shifted * math.cos((theta + 2.0 * math.pi) / 3.0) ** 2


def kc_action(t: float, alpha: float) -> float:
    """Constrained Coulomb gas action S(t); Phi(t) = S(t) - S(lambda_-)."""
    u = kc_U(t, alpha)
    sqrt_u, sqrt_t = math.sqrt(u), math.sqrt(t)
    return ((u + t) / 2.0 - (u - t) ** 2 / 32.0
            + (alpha / 4.0) * (sqrt_u - sqrt_t) ** 2
            - math.log((u - t) / 4.0)
            + (alpha * alpha / 4.0) * math.log(t * u)
            - alpha * (alpha + 2.0) * math.log((sqrt_u + sqrt_t) / 2.0))


def constrained_support(t: float, alpha: float) -> tuple[float, float]:
    """Support [t, U(t)] of the density conditioned on the gap."""
    lam_minus = LUEParams.from_alpha(alpha).lambda_minus
    if t <= lam_minus:
        raise DomainError(
            f"constrained support needs t > lambda_- = {lam_minus}, got t = {t}")
    return t, kc_U(t, alpha)


def constrained_density(t: float, alpha: float, x: float) -> float:
    """Spectral density on [t, U(t)] conditioned on the gap event."""
    lo, hi = constrained_support(t, alpha)
    if not lo < x < hi:
        raise DomainError(f"x = {x} outside the constrained support ({lo}, {hi})")
    return (math.sqrt(hi - x) / (2.0 * math.pi * math.sqrt(x - lo))
            * (x - alpha * math.sqrt(t / hi)) / x)


def phi_large_t(t: float, alpha: float) -> float:
    """Far-field asymptote t - alpha log t of the rate function."""
    return t - alpha * math.log(t)


def ldp_log_probability(n: int, alpha: float, t: float) -> float:
    """log P[smallest eigenvalue > t] through constant order at size n:
    -Phi n^2 - log(alpha n)/12 + zeta'(-1) + Psi."""
    return ldp_log_probability_from(n, alpha, *phi_psi(t, alpha))


def ldp_log_probability_from(n: int, alpha: float, rate: float,
                             const: float) -> float:
    """ldp_log_probability from the (phi, psi) = (rate, const) of phi_psi,
    for a caller that already has them."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    # constant-order terms summed first, then added: the order fixes the last bits
    return (-rate * n * n
            + (-math.log(alpha * n) / 12.0 + ZETA_PRIME_MINUS_ONE + const))


def exact_log_gap_probability(n: int, alpha: float, t: float) -> float:
    """Finite-n log P[smallest eigenvalue > t] from exact moments.

    Needs alpha*n to be an integer (the weight exponent counts zero modes).
    Its one Hankel determinant runs at 256 bits, and deep in the pushed
    regime it keeps fewer digits than that.
    For t <= 0 the gap event is almost sure, so log P = 0 exactly.
    """
    if t <= 0.0:
        return 0.0
    # the exact oracle loads on first use: the rate functions above do not
    # need it
    from .exactfiniten import lue_log_gap_probability

    alpha_n = alpha * n
    nearest = round(alpha_n)
    if abs(alpha_n - nearest) > 1e-9:
        raise DomainError(
            f"exact comparison needs integer alpha*n, got {alpha_n}")
    return float(lue_log_gap_probability(n, int(nearest), Fraction(t), n))
