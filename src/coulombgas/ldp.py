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


def phi_psi_grid(ts, alpha: float) -> tuple[list[float], list[float]]:
    """(phi, psi) at each t of ts, one modulus solve per point.

    Everything that depends on alpha alone (lambda_-, c, the post-critical
    energy up to its -c a^2 term, the post-critical constant) is formed
    once, in the same float operations the scalar formulas use.
    """
    if alpha <= 0.0:
        raise DomainError(f"rate functions need alpha > 0, got {alpha}")
    lam_minus = LUEParams.from_alpha(alpha).lambda_minus
    c, alpha2 = 1.0 / alpha, alpha * alpha
    # energy_post(a, c) subtracts c*a*a last, so it equals this head minus
    # c*a*a bit for bit (tests/test_ldp.py holds the two routes equal)
    post_head = energy_post(0.0, c)
    post_const = fconst(0.0, c, Regime.POST)
    phis, psis = [], []
    for t in ts:
        if t <= lam_minus:
            raise DomainError(
                f"pushed regime needs t > lambda_- = {lam_minus}, got t = {t}")
        # the planar image: insertion radius a = sqrt(t/alpha), charge c
        a = math.sqrt(t / alpha)
        try:
            q = solve_q(a, c)
        except NoValidRoot as exc:
            # the failed root names the planar (a, c); report the (t, alpha)
            raise DomainError(
                f"no rate function at alpha = {alpha!r}, t = {t!r}: its "
                "planar image a = sqrt(t/alpha), c = 1/alpha has no "
                "admissible modulus root in double precision") from exc
        phis.append(alpha2 * (energy_pre(a, c, q) - (post_head - c * a * a)))
        psis.append(fconst(a, c, Regime.PRE, q) - post_const)
    return phis, psis


def phi_psi(t: float, alpha: float) -> tuple[float, float]:
    """(phi(t, alpha), psi(t, alpha)) from one modulus solve."""
    (rate,), (const,) = phi_psi_grid((t,), alpha)
    return rate, const


def phi(t: float, alpha: float) -> float:
    """Rate of the pushed gap event: alpha^2 times the planar energy excess."""
    return phi_psi(t, alpha)[0]


def psi(t: float, alpha: float) -> float:
    """Constant-order correction: the planar free-energy constant across phases."""
    return phi_psi(t, alpha)[1]


def kc_U_grid(ts, alpha: float) -> list[float]:
    """Right edge U(t) of the spectral density conditioned on the gap
    (t, infinity), at each t of ts, through the constrained-gas cubic's
    auxiliary angle."""
    if alpha <= 0.0:
        raise DomainError(f"constrained action needs alpha > 0, got {alpha}")
    shift, scale = 2.0 * (alpha + 2.0), 27.0 * alpha * alpha
    out = []
    for t in ts:
        if t <= 0.0:
            raise DomainError(f"constrained action needs t > 0, got {t}")
        shifted = t + shift
        radicand = (shifted ** 3 - scale * t) / (scale * t)
        if radicand < 0.0:
            raise DomainError(
                f"angle radicand negative at t = {t}, alpha = {alpha}")
        theta = math.atan(math.sqrt(radicand))
        out.append((4.0 / 3.0) * shifted
                   * math.cos((theta + 2.0 * math.pi) / 3.0) ** 2)
    return out


def kc_U(t: float, alpha: float) -> float:
    """Right edge of the spectral density conditioned on the gap (t, infinity)."""
    return kc_U_grid((t,), alpha)[0]


def kc_action_grid(ts, alpha: float) -> list[float]:
    """Constrained Coulomb gas action S(t) at each t of ts."""
    us = kc_U_grid(ts, alpha)
    quarter, quarter2 = alpha / 4.0, alpha * alpha / 4.0
    log_weight = alpha * (alpha + 2.0)
    out = []
    for t, u in zip(ts, us):
        sqrt_u, sqrt_t = math.sqrt(u), math.sqrt(t)
        out.append((u + t) / 2.0 - (u - t) ** 2 / 32.0
                   + quarter * (sqrt_u - sqrt_t) ** 2
                   - math.log((u - t) / 4.0)
                   + quarter2 * math.log(t * u)
                   - log_weight * math.log((sqrt_u + sqrt_t) / 2.0))
    return out


def kc_action(t: float, alpha: float) -> float:
    """Constrained Coulomb gas action S(t); Phi(t) = S(t) - S(lambda_-)."""
    return kc_action_grid((t,), alpha)[0]


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
