"""Energies, Robin constants, and the large-N free-energy expansion.

All closed forms are functions of (a, c) and, pre-critically, of the modulus
q = q(a, c) from the geometry module. Regime is always an explicit argument;
nothing here re-classifies, so callers can evaluate both branches at one (a, c)
(that is how the large-deviation rate function is built).

The expansion of log Z_N reads

    -I N^2 + (1/2) N log N + (log(2pi)/2 - 1) N + ((6-chi)/12) log N
        + log(2pi)/2 + chi zeta'(-1) + F(a,c) + E_N

with chi = 0 for the doubly connected (post-critical) droplet and chi = 1 for
the simply connected (pre-critical) one. Post-critically E_N is an explicit
Bernoulli tail; pre-critically only its O(1/N) class is known.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError
from .geometry import Regime, critical_values, pre_geometry, solve_q

#: zeta'(-1) = 1/12 - log(Glaisher), 30 significant digits
ZETA_PRIME_MINUS_ONE = -0.165421143700450929213919660243

LOG_2PI = math.log(2.0 * math.pi)


def bernoulli_numbers(n_max: int) -> list[Fraction]:
    """B_0 .. B_n_max as exact rationals (Akiyama-Tanigawa; B_1 = +1/2 convention)."""
    if n_max > 64:
        raise DomainError(f"Bernoulli table capped at B_64, requested B_{n_max}")
    rows = [Fraction(0)] * (n_max + 1)
    out = []
    for m in range(n_max + 1):
        rows[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            rows[j - 1] = j * (rows[j - 1] - rows[j])
        out.append(rows[0])
    return out


@functools.cache
def _bernoulli() -> list[Fraction]:
    # built on first use, so importing this module stays cheap
    return bernoulli_numbers(64)


class ExpansionTerms(NamedTuple):
    n2: float
    nlogn: float
    n_coeff: float
    logn: float
    const: float
    tail: tuple[tuple[int, float], ...]  # (power of N, coefficient)
    chi: int
    error_class: str


class ExpansionResult(NamedTuple):
    terms: ExpansionTerms
    log_z: float


def energy_post(a: float, c: float) -> float:
    """Equilibrium energy in the annular phase; also the subtracted reference in Phi."""
    if a < 0 or c <= 0:
        raise DomainError(f"need a >= 0 and c > 0, got a={a}, c={c}")
    return (0.75 + 1.5 * c + 0.5 * c * c * math.log(c)
            - 0.5 * (c + 1.0) ** 2 * math.log(c + 1.0) - c * a * a)


def energy_pre(a: float, c: float, q: float | None = None) -> float:
    """Equilibrium energy in the simply connected phase; q = solve_q(a, c) if not given."""
    if q is None:
        q = solve_q(a, c)
    q2 = q * q
    a2 = a * a
    return (0.375 + a2 / 8.0 + 3.0 / (8.0 * a2 * q2 * q2) - 5.0 / (8.0 * q2)
            + (0.75 + a2 / 8.0) * a2 * q2 - 0.375 * a2 * a2 * q2 * q2
            + math.log(2.0 * a * q) + 2.0 * c * math.log(2.0 * a * q2)
            + c * c * math.log(1.0 + a2 * q2 - 2.0 * a2 * q2 * q2)
            - (c + 1.0) ** 2 * math.log(1.0 + a2 * q2))


def re_g_at_a(a: float, c: float) -> float:
    """Re g(a) for the pre-critical g-function, the only g value the energy needs."""
    q = solve_q(a, c)
    t = a * a * q * q
    u = 1.0 + t
    return (t / 2.0 - 0.5 + math.log(u / (2.0 * a * q * q))
            + c * math.log(u / (u - 2.0 * t * q * q)))


def robin_constant(a: float, c: float, regime: Regime) -> float:
    if regime is Regime.POST:
        return 0.5 * (c + 1.0) * (1.0 - math.log(c + 1.0))
    if regime is Regime.PRE:
        q = solve_q(a, c)
        t = a * a * q * q
        return (c * math.log(q) - (c + 1.0) * math.log((1.0 + t) / (2.0 * a * q))
                + 0.75 + a * a / 4.0 + c / 2.0
                - (a * a / 4.0 + c + 0.75) * t + t * t / 2.0)
    raise DomainError(f"robin_constant needs Post or Pre, got {regime}")


def potential_integral(a: float, c: float, regime: Regime) -> float:
    """(1/2) * integral of Q against the equilibrium measure."""
    if regime is Regime.POST:
        return (c + 0.25 + 0.5 * c * c * math.log(c)
                - 0.5 * c * (1.0 + c) * math.log(1.0 + c) - c * a * a)
    if regime is Regime.PRE:
        q = solve_q(a, c)
        t = a * a * q * q
        return (0.375 + a * a / 4.0 + c / 2.0
                - (a * a / 4.0 + c + 0.5) * t + 0.375 * t * t
                - c * re_g_at_a(a, c))
    raise DomainError(f"potential_integral needs Post or Pre, got {regime}")


def d_energy_pre_da(a: float, c: float) -> float:
    q = solve_q(a, c)
    q2 = q * q
    t = a * a * q2
    return -(1.0 - t) * (2.0 - q2 - t * q2) / (2.0 * a * q2)


def d_fconst_pre_da(a: float, c: float) -> float:
    q = solve_q(a, c)
    q2 = q * q
    a4q4 = (a * a * q2) ** 2
    a4q6 = a4q4 * q2
    return -q2 * (1.0 - a4q4) ** 2 / (8.0 * a * (1.0 - q2) * (1.0 - a4q6) ** 2)


def fconst(a: float, c: float, regime: Regime, q: float | None = None) -> float:
    """The O(1) geometry-dependent constant F(a, c) of the expansion.

    Pre-critically q is the modulus, solve_q(a, c) if not given.
    """
    if regime is Regime.POST:
        return math.log(c / (1.0 + c)) / 12.0
    if regime is Regime.PRE:
        if q is None:
            q = solve_q(a, c)
        q2 = q * q
        t = a * a * q2
        return (math.log((1.0 + t - 2.0 * t * q2) ** 4
                         / ((1.0 + t) ** 4 * (1.0 - q2) ** 3 * (1.0 - t * t * q2)))
                / 24.0)
    raise DomainError(f"fconst needs Post or Pre, got {regime}")


def detzeta_log(a: float, c: float, regime: Regime) -> float:
    """log of the zeta-regularized Laplacian determinant on the droplet complement.

    Post: -(1/6) log(c/(1+c)). Pre: (1/12) log(R^4 f'(1/z+) f'(1/z-) / f'(1/q)^2),
    evaluated from the conformal data; equals -2 * fconst in both phases.
    """
    if regime is Regime.POST:
        return -math.log(c / (1.0 + c)) / 6.0
    if regime is Regime.PRE:
        g = pre_geometry(a, c)

        def f_prime(w: complex) -> complex:
            return g.R + g.kappa / (w - g.q) ** 2

        prod = f_prime(1.0 / g.z_plus) * f_prime(1.0 / g.z_minus)  # conjugate pair
        val = g.R ** 4 * prod.real / f_prime(1.0 / g.q).real ** 2
        return math.log(val) / 12.0
    raise DomainError(f"detzeta_log needs Post or Pre, got {regime}")


def _tail_coefficient(c: float, j: int) -> float:
    """Coefficient of N^(-j) in the annular-phase Bernoulli tail.

    Odd j = 2k-1 carries B_{2k}/(2k(2k-1)); even j = 2k carries the
    c-dependent (B_{2k+2}/(4k(k+1)))((c+1)^(-2k) - c^(-2k)).
    """
    if j % 2:
        k = (j + 1) // 2
        return float(_bernoulli()[2 * k]) / (2 * k * (2 * k - 1))
    k = j // 2
    return (float(_bernoulli()[2 * k + 2]) / (4 * k * (k + 1))
            * ((c + 1.0) ** (-2 * k) - c ** (-2 * k)))


def _post_tail(c: float, M: int) -> tuple[tuple[int, float], ...]:
    # E_N through order N^(-M); the truncation index is the inverse power
    return tuple((-j, _tail_coefficient(c, j)) for j in range(1, M + 1))


def expansion(N: int, a: float, c: float, regime: Regime, M: int = 2) -> ExpansionResult:
    """Structured coefficients of log Z_N and their evaluated sum at this N."""
    if N < 1 or M < 0:
        raise DomainError(f"need N >= 1 and M >= 0, got N={N}, M={M}")
    if regime is Regime.POST:
        chi = 0
        energy = energy_post(a, c)
        tail = _post_tail(c, M)
        err = f"O(N^{-(M + 1)})"
    elif regime is Regime.PRE:
        chi = 1
        energy = energy_pre(a, c)
        tail = ()
        err = "O(N^-1)"
    else:
        raise DomainError(f"expansion needs Post or Pre, got {regime}")
    terms = ExpansionTerms(
        n2=-energy,
        nlogn=0.5,
        n_coeff=LOG_2PI / 2.0 - 1.0,
        logn=(6 - chi) / 12.0,
        const=LOG_2PI / 2.0 + chi * ZETA_PRIME_MINUS_ONE + fconst(a, c, regime),
        tail=tail,
        chi=chi,
        error_class=err,
    )
    val = (terms.n2 * N * N + terms.nlogn * N * math.log(N) + terms.n_coeff * N
           + terms.logn * math.log(N) + terms.const
           + sum(coef * N ** p for p, coef in terms.tail))
    return ExpansionResult(terms, val)


def first_omitted_tail_term(N: int, c: float, M: int) -> float:
    """Magnitude of the leading dropped term of the annular-phase tail."""
    return abs(_tail_coefficient(c, M + 1) * float(N) ** (-(M + 1)))


def barnes_logG(n: int) -> float:
    """log G(n) at a positive integer n, by exact big-integer recursion.

    G(z+1) = Gamma(z) G(z) with G(1) = G(2) = 1, so G(n) = prod_{k=1}^{n-2} k!.
    """
    if n <= 0 or not float(n).is_integer():
        raise DomainError(f"barnes_logG needs a positive integer, got {n}")
    acc = 1
    fact = 1
    for k in range(1, int(n) - 1):
        fact *= k
        acc *= fact
    return math.log(acc) if acc > 1 else 0.0


def reference_logZ(N: int, c: float) -> float:
    """Exact log Z_N(0, c) for integer cN, via big-integer Barnes recursion."""
    if N < 1:
        raise DomainError(f"need N >= 1, got {N}")
    m = c * N
    if abs(m - round(m)) > 1e-9:
        raise DomainError(f"exact reference needs integer cN, got cN={m}")
    m = int(round(m))
    return (math.log(math.factorial(N)) + barnes_logG(N + m + 1) - barnes_logG(m + 1)
            - ((m / N + 0.5) * N * N + 0.5 * N) * math.log(N))


def charpoly_moment_asymp(z_abs: float, c: float, N: int) -> float:
    """log E|det(G_N - z)|^{2cN}: the N^2, log N, and O(1) terms plus the post tail.

    The post tail runs through N^-4.  The branch is selected by |z| against
    sqrt(c+1) - sqrt(c). The pre-critical prefactor uses (F^2-1)^3, the form
    consistent with the free-energy constant (and the only one with the
    correct |z| -> infinity limit).
    """
    if z_abs < 0 or c <= 0:
        raise DomainError(f"need |z| >= 0 and c > 0, got {z_abs}, {c}")
    a_cri = critical_values(c).a_cri
    if z_abs == a_cri:
        raise DomainError("|z| = a_cri sits on the phase boundary")
    if z_abs < a_cri:
        H = (c * z_abs * z_abs - 1.5 * c + 0.5 * (c + 1.0) ** 2 * math.log(c + 1.0)
             - 0.5 * c * c * math.log(c))
        logG = math.log(c / (1.0 + c)) / 12.0
        tail = sum(float(_bernoulli()[2 * k + 2]) / (4 * k * (k + 1))
                   * ((c + 1.0) ** (-2 * k) - c ** (-2 * k) - 1.0) * N ** (-2 * k)
                   for k in (1, 2))
        return math.log(N) / 12.0 - ZETA_PRIME_MINUS_ONE + logG + H * N * N + tail
    geom = pre_geometry(z_abs, c)
    F = 1.0 / geom.q  # F(|z|) = 1/q at the insertion point
    z2 = z_abs * z_abs
    F2 = F * F
    H = (0.375 - z2 / 8.0 - 3.0 * F2 * F2 / (8.0 * z2) + 5.0 * F2 / 8.0
         - (0.75 + z2 / 8.0) * z2 / F2 + 0.375 * z2 * z2 / (F2 * F2)
         + (2.0 * c * c - 1.0) * math.log(F)
         + (c + 1.0) ** 2 * math.log(F2 + z2)
         - (2.0 * c + 1.0) * math.log(2.0 * z_abs)
         - c * c * math.log(F2 * F2 + z2 * F2 - 2.0 * z2))
    logG = (math.log(F2 * F2 * (F2 * F2 + z2 * F2 - 2.0 * z2) ** 4
                     / ((F2 + z2) ** 4 * (F2 - 1.0) ** 3 * (F2 * F2 * F2 - z2 * z2)))
            / 24.0)
    return logG + H * N * N
