"""Left-edge large deviations for the Laguerre unitary ensemble.

The smallest eigenvalue of the LUE with rectangular parameter alpha sits at
the hard-won Marchenko-Pastur edge lambda_- = (sqrt(alpha+1) - 1)^2.  Pushing
it to t > lambda_- costs a rate Phi(t) N^2; the subleading constant Psi(t)
rides along.  Both come from the planar-gas free energy through the change of
variables (a, c) = (sqrt(t/alpha), 1/alpha): conditioning the smallest
eigenvalue above t is the radial slice of conditioning a planar charge at
radius a, and t > lambda_- lands in the simply connected droplet phase, which
decides each t through its planar image.  An independent route to the same
leading order is the constrained Coulomb gas action S(t) built from the
conditioned spectral density on [t, U(t)]; Phi(t) = S(t) - S(lambda_-) is
checked numerically, never assumed.

Pulled to t < lambda_- the probability is 1 - o(1).
"""
from __future__ import annotations

import math

from .errors import DomainError
from .freeenergy import (ZETA_PRIME_MINUS_ONE, energy_post, energy_pre,
                         fconst_post, fconst_pre)
from .geometry import a_cri, in_double_range, solve_modulus


def lambda_minus(alpha: float) -> float:
    """Marchenko-Pastur left edge (sqrt(alpha+1) - 1)^2, formed without its
    cancellation as alpha a_cri(1/alpha)^2, within 4 eps relative; an
    alpha > 0 whose edge underflows to 0 is refused."""
    if alpha < 0.0:
        raise DomainError(f"alpha must be nonnegative, got {alpha}")
    if alpha == 0.0:
        return 0.0
    edge = alpha * a_cri(1.0 / alpha) ** 2
    if edge == 0.0:
        raise DomainError(
            f"alpha = {alpha!r} is too small: lambda_- = (sqrt(alpha+1) - 1)^2 "
            "underflows to 0")
    return edge


def phi_psi_grid(ts, alpha: float) -> tuple[list[float], list[float]]:
    """(Phi(t), Psi(t)) at each t of ts from one modulus solve per point:
    alpha^2 times the planar energy excess, and the planar free-energy
    constant across phases.

    Everything that depends on alpha alone (lambda_-, c, the post-critical
    energy up to its -c a^2 term, the post-critical constant) is formed
    once, in the same float operations the scalar formulas use.  A t whose
    planar image is post-critical or out of geometry.in_double_range is
    refused by name; lambda_- only names the edge.  Phi is within 1e-10
    relative for 1e-3 <= alpha <= 1e5, t >= 2 lambda_- (worst 5.7e-11 on a
    log grid), with fewer digits nearer lambda_-, where it falls like
    (t - lambda_-)^3.  Psi is within 2 eps of max(1, |Psi|) for
    1e-15 <= alpha <= 1e8, t >= lambda_- (1 + 1e-10).
    """
    # lambda_minus refuses a negative alpha before the rate functions do
    lam_minus = lambda_minus(alpha)
    if alpha <= 0.0:
        raise DomainError(f"rate functions need alpha > 0, got {alpha}")
    c, alpha2 = 1.0 / alpha, alpha * alpha
    # energy_post(a, c) subtracts c*a*a last, so it equals this head minus
    # c*a*a bit for bit (tests/test_ldp.py holds the two routes equal)
    post_head = energy_post(0.0, c)
    post_const = fconst_post(c)
    phis, psis = [], []
    for t in ts:
        # the planar image: insertion radius a = sqrt(t/alpha), charge c
        a = math.sqrt(t / alpha) if t > 0.0 else 0.0
        phi = psi = math.nan
        if in_double_range(a, c):
            gaps = solve_modulus(a, c) if a > 0.0 else None
            if gaps is None:
                raise DomainError(
                    f"t = {t!r} at alpha = {alpha!r} has a post-critical "
                    "planar image, outside the pushed regime; lambda_- = "
                    f"{lam_minus!r}")
            q, v, w = gaps
            phi = alpha2 * (energy_pre(a, c, q, w) - (post_head - c * a * a))
            psi = fconst_pre(a, q, v, w) - post_const
        if not math.isfinite(phi + psi):
            raise DomainError(
                f"no rate function at alpha = {alpha!r}, t = {t!r}: its "
                "planar image a = sqrt(t/alpha), c = 1/alpha is out of "
                "double precision's reach")
        psis.append(psi)
        # Phi >= 0, but up to ~1e-4 lambda_- above the edge, where Phi is
        # below alpha^2 times the rounding of the two O(1) energies, their
        # difference can round below 0; 0 is then as near the truth
        phis.append(max(phi, 0.0))
    return phis, psis


def kc_U_grid(ts, alpha: float) -> list[float]:
    """Right edge U(t) of the spectral density conditioned on the gap
    (t, infinity) at each t of ts: the root of U (U - s)^2 = 4 alpha^2 t,
    s = t + 2 alpha + 4, via tan^2 theta = s^3/(27 alpha^2 t) - 1.  Its
    numerator is x^2 (x + 9 alpha) + 108 alpha^2, x = t - alpha + 4 (exact
    where it cancels), no term < 0: U is within 8 eps relative (7.3 eps
    measured, alpha = 1e-15..1e18, t = lambda_- (1 + 1e-15)..1e5 lambda_+)."""
    if alpha <= 0.0:
        raise DomainError(f"constrained action needs alpha > 0, got {alpha}")
    shift, scale = 2.0 * (alpha + 2.0), 27.0 * alpha * alpha
    nine, floor = 9.0 * alpha, 108.0 * alpha * alpha
    out = []
    for t in ts:
        if t <= 0.0:
            raise DomainError(f"constrained action needs t > 0, got {t}")
        shifted = t + shift
        x = (t - alpha) + 4.0
        radicand = (x * x * (x + nine) + floor) / (scale * t)
        if not math.isfinite(radicand):
            raise DomainError("constrained action overflows in double "
                              f"precision at t = {t!r}, alpha = {alpha!r}")
        theta = math.atan(math.sqrt(radicand))
        out.append((4.0 / 3.0) * shifted
                   * math.cos((theta + 2.0 * math.pi) / 3.0) ** 2)
    return out


def kc_rate_grid(ts, alpha: float) -> list[float]:
    """S(t) - S(lambda_-) of the constrained Coulomb gas action S at each t
    of ts, which Phi(t) equals; lambda_- goes last, so a bad t is named.
    Within 1e-10 relative for 0.1 <= alpha <= 1e4, t >= 2 lambda_- (worst
    8.2e-12 on a log grid); elsewhere its two actions can cancel to no digit."""
    ts = [*ts, lambda_minus(alpha)]
    us = kc_U_grid(ts, alpha)
    quarter, quarter2 = alpha / 4.0, alpha * alpha / 4.0
    log_weight = alpha * (alpha + 2.0)
    actions = []
    for t, u in zip(ts, us):
        if u <= t:
            raise DomainError(
                f"no constrained action at alpha = {alpha!r}, t = {t!r}: "
                f"its right edge U(t) = {u!r} does not exceed t in double "
                "precision")
        sqrt_u, sqrt_t = math.sqrt(u), math.sqrt(t)
        actions.append((u + t) / 2.0 - (u - t) ** 2 / 32.0
                       + quarter * (sqrt_u - sqrt_t) ** 2
                       - math.log((u - t) / 4.0)
                       + quarter2 * math.log(t * u)
                       - log_weight * math.log((sqrt_u + sqrt_t) / 2.0))
    *actions, edge = actions
    # as with Phi, just above the edge the two O(alpha^2 log alpha) actions
    # can round their difference below 0, and 0 is then as near the truth
    return [max(action - edge, 0.0) for action in actions]


def ldp_log_probability(n: int, alpha: float, rate: float,
                        const: float) -> float:
    """log P[smallest eigenvalue > t] through constant order at size n,
    -Phi n^2 - log(alpha n)/12 + zeta'(-1) + Psi, from the
    (Phi, Psi) = (rate, const) that phi_psi_grid gives at t."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    # constant-order terms summed first, then added: the order fixes the last bits
    return (-rate * n * n
            + (-math.log(alpha * n) / 12.0 + ZETA_PRIME_MINUS_ONE + const))
