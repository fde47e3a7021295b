"""Energies, Robin constants, and the large-N free-energy expansion.

The closed forms are named by phase (energy_post, energy_pre, fconst_post,
fconst_pre) and take no droplet record. Pre-critically they take q and the
gaps they read, v = 1 - q^2 and w = 1 - a^2 q^2, of geometry.solve_modulus,
from a record or from ldp.phi_psi_grid's one solve per point, and never
form a gap as 1 minus a number near 1. expansion alone takes the phase, because
painleve.critical_expansion evaluates the annular expansion at a_s > a_cri
when s < 0. detzeta_log is defined by one droplet and reads its record, as
does charpoly_moment_asymp, given |z| alone.

The expansion of log Z_N reads

    -I N^2 + (1/2) N log N + (log(2pi)/2 - 1) N + ((6-chi)/12) log N
        + log(2pi)/2 + chi zeta'(-1) + F(a,c) + E_N

with chi = 0 for the doubly connected (post-critical) droplet and chi = 1 for
the simply connected (pre-critical) one. Post-critically E_N is an explicit
Bernoulli tail; pre-critically only its O(1/N) class is known.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError
from .geometry import Droplet, Regime, droplet, solve_modulus

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


class Expansion(NamedTuple):
    log_z: float  # the terms summed at this N
    n2: float
    nlogn: float
    n_coeff: float
    logn: float
    const: float
    tail: tuple[tuple[int, float], ...]  # (power of N, coefficient)
    chi: int
    error_class: str


def energy_post(a: float, c: float) -> float:
    """Equilibrium energy in the annular phase; also the subtracted reference
    in Phi.  Within 16 eps of max(1, |E|) for c <= 1e300 (terms of order
    c log c cancel by up to a factor 5 where E crosses 0 near c = 3)."""
    if a < 0 or c <= 0:
        raise DomainError(f"need a >= 0 and c > 0, got a={a}, c={c}")
    if c > 1.0:  # c^2 log c - (c+1)^2 log(c+1) without its cancellation
        head = 0.75 + 1.5 * c - 0.5 * ((2.0 * c + 1.0) * math.log(c) + (
            c + 1.0) * ((c + 1.0) * math.log1p(1.0 / c)))
    else:
        head = (0.75 + 1.5 * c + 0.5 * c * c * math.log(c)
                - 0.5 * (c + 1.0) ** 2 * math.log(c + 1.0))
    energy = head - c * a * a
    if math.isfinite(energy):
        return energy
    raise DomainError(f"the annular energy overflows a double at a={a}, c={c}")


def energy_pre(a: float, c: float, q: float, w: float) -> float:
    """Equilibrium energy in the simply connected phase, within 24 eps of
    max(1, |E|) (15 eps measured near the edge at c = 3, where terms of size
    5 sum to E ~ -1).  With t = a^2 q^2 the a^2 terms are a^2 w^2 (4 - w)/
    (8 t^2), and the c^2 log terms are combined in one log1p."""
    t = (a * q) ** 2
    # 1 - y = (w + 2t v)/(1 + t); y rounds to 1 only at a = 1 with q rounded
    # to 1, where w = v and log(1 - y) is log(3w/2)
    y = 2.0 * t * q * q / (1.0 + t)
    return (a * a * w * w * (4.0 - w) / (8.0 * t * t) + 0.75 - 0.375 * w * w
            + math.log(2.0 * a * q) + 2.0 * c * math.log(2.0 * a * q * q)
            + c * c * (math.log1p(-y) if y < 1.0 else math.log(1.5 * w))
            - (2.0 * c + 1.0) * math.log1p(t))


def re_g_at_a(a: float, c: float, q: float, w: float) -> float:
    """Re g(a) for the pre-critical g-function, the only g value the energy
    needs; log(1 - y) as in energy_pre."""
    t = (a * q) ** 2
    y = 2.0 * t * q * q / (1.0 + t)
    return (-0.5 * w + math.log((2.0 - w) / (2.0 * a * q * q))
            - c * (math.log1p(-y) if y < 1.0 else math.log(1.5 * w)))


def d_energy_pre_da(a: float, q: float, v: float, w: float) -> float:
    # -(1 - t)(2 - q^2 (1 + t))/(2 a q^2), with 2 - q^2 (1 + t) = w + v (2 - w)
    return -w * (w + v * (2.0 - w)) / (2.0 * a * q * q)


def d_fconst_pre_da(a: float, q: float, v: float, w: float) -> float:
    # -q^2 (1 - t^2)^2/(8 a (1 - q^2)(1 - t^2 q^2)^2), with 1 - t^2 = w (2 - w)
    # and 1 - t^2 q^2 = w (2 - w) + t^2 v
    t = (a * q) ** 2
    ww = w * (2.0 - w)
    return -q * q * ww * ww / (8.0 * a * v * (ww + t * t * v) ** 2)


def fconst_post(c: float) -> float:
    """The O(1) geometry-dependent constant F(a, c) of the expansion in the
    annular phase, where it does not depend on a."""
    return math.log(c / (1.0 + c)) / 12.0


def fconst_pre(a: float, q: float, v: float, w: float) -> float:
    """The O(1) constant F(a, c) in the simply connected phase, within 2 eps
    of max(1, |F|): log((1 + t - 2t q^2)^4/((1 + t)^4 v^3 (1 - t^2 q^2)))/24
    with t = a^2 q^2, 1 + t - 2t q^2 = w + 2t v and 1 - t^2 q^2 = w (2 - w)
    + t^2 v, in ratios near 1 so that nothing underflows."""
    t = (a * q) ** 2
    r = (w + 2.0 * t * v) / (2.0 - w)
    return math.log((r / v) ** 3 * (r / (w * (2.0 - w) + t * t * v))) / 24.0


def detzeta_log(geom: Droplet) -> float:
    """log of the zeta-regularized Laplacian determinant on the droplet
    complement, within 2 eps of max(1, |log det|).

    Post: -(1/6) log(c/(1+c)). Pre: (1/12) log(R^4 |f'(1/z+)|^2 / f'(1/q)^2)
    with z+ = q + i y, y^2 = kappa/R, from the conformal data in the gaps:
    1 - q z+ = v - i q y and kappa - R v = -a q v give |f'(1/z+)| =
    2 a q v^(3/2) sqrt(v + q^2 w (2 - w))/((2 - w) |v - i q y|^2), with
    |v - i q y|^2 = v m/(2 - w) and f'(1/q) = m/(2 a q v), m = (2 - w) v +
    q^2 w.  Equals -2 * fconst_post(c) or -2 * fconst_pre."""
    if geom.regime is Regime.POST:
        return -math.log(geom.c / (1.0 + geom.c)) / 6.0
    q2, v, w = geom.q * geom.q, geom.v, geom.w
    m = (2.0 - w) * v + q2 * w
    return math.log(((2.0 - w) * v / m) ** 3
                    * (2.0 - w) * (v + q2 * w * (2.0 - w)) / m) / 12.0


#: largest annular-phase tail order M: the N^-M term needs B_(M+1) (odd M)
#: or B_(M+2) (even M), and the table stops at B_64
MAX_TAIL_ORDER = 63


def _tail_coefficients(c: float, js: range) -> list[float]:
    """Coefficients of N^(-j) in the annular-phase Bernoulli tail, j in js.

    Odd j = 2k-1 carries B_{2k}/(2k(2k-1)); even j = 2k carries the
    c-dependent (B_{2k+2}/(4k(k+1)))((c+1)^(-2k) - c^(-2k)).  One table is
    built, up to the largest index these read.
    """
    bern = bernoulli_numbers(max((j + 2 - j % 2 for j in js), default=0))
    out = []
    # c^(-2k) past the double range raises, or its Bernoulli factor makes it inf
    try:
        for j in js:
            if j % 2:
                k = (j + 1) // 2
                out.append(float(bern[2 * k]) / (2 * k * (2 * k - 1)))
            else:
                k = j // 2
                out.append(float(bern[2 * k + 2]) / (4 * k * (k + 1))
                           * ((c + 1.0) ** (-2 * k) - c ** (-2 * k)))
        if all(map(math.isfinite, out)):
            return out
    except OverflowError:
        pass
    raise DomainError(f"the tail through N^-{max(js)} overflows a double at "
                      f"c={c}")


def expansion(N: int, a: float, c: float, regime: Regime, M: int = 2) -> Expansion:
    """Structured coefficients of log Z_N and their evaluated sum at this N."""
    if N < 1 or M < 0:
        raise DomainError(f"need N >= 1 and M >= 0, got N={N}, M={M}")
    if regime is Regime.POST:
        if M > MAX_TAIL_ORDER:
            raise DomainError(
                f"tail order M = {M} is past the cap {MAX_TAIL_ORDER}: the "
                "annular-phase Bernoulli tail stops at B_64")
        chi = 0
        energy = energy_post(a, c)
        f = fconst_post(c)
        # E_N through order N^(-M); the truncation index is the inverse power
        js = range(1, M + 1)
        tail = tuple(zip((-j for j in js), _tail_coefficients(c, js)))
        err = f"O(N^{-(M + 1)})"
    else:
        chi = 1
        q, v, w = solve_modulus(a, c)
        energy = energy_pre(a, c, q, w)
        f = fconst_pre(a, q, v, w)
        tail = ()
        err = "O(N^-1)"
    n2, n_coeff = -energy, LOG_2PI / 2.0 - 1.0
    logn = (6 - chi) / 12.0
    const = LOG_2PI / 2.0 + chi * ZETA_PRIME_MINUS_ONE + f
    log_z = (n2 * N * N + 0.5 * N * math.log(N) + n_coeff * N
             + logn * math.log(N) + const
             + sum(coef * N ** p for p, coef in tail))
    return Expansion(log_z=log_z, n2=n2, nlogn=0.5, n_coeff=n_coeff,
                     logn=logn, const=const, tail=tail, chi=chi,
                     error_class=err)


def first_omitted_tail_term(N: int, c: float, M: int) -> float:
    """Magnitude of the leading dropped term of the annular-phase tail."""
    if M >= MAX_TAIL_ORDER:
        raise DomainError(
            f"tail order M = {M} is past the cap {MAX_TAIL_ORDER - 1} for "
            f"its first omitted term: N^-{M + 1} needs a Bernoulli number "
            "past B_64")
    [coef] = _tail_coefficients(c, range(M + 1, M + 2))
    return abs(coef * float(N) ** (-(M + 1)))


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
    return math.log(acc)


def reference_logZ(N: int, m: int) -> float:
    """Exact log Z_N(0, c) at the integer charge m = cN, via big-integer
    Barnes recursion."""
    if N < 1 or m < 0:
        raise DomainError(f"need N >= 1 and m >= 0, got N={N}, m={m}")
    return (math.log(math.factorial(N)) + barnes_logG(N + m + 1) - barnes_logG(m + 1)
            - ((m / N + 0.5) * N * N + 0.5 * N) * math.log(N))


def charpoly_moment_asymp(z_abs: float, c: float, N: int) -> float:
    """log E|det(G_N - z)|^{2cN} = log Z_N(|z|, c) - log Z_N(0, 0) from the
    expansion through O(1), plus the annular-phase tail through N^-4.

    Ginibre's Z_N(0, 0) has energy 3/4, chi = 1 and the even tail terms
    B_(2k+2)/(4k(k+1)) N^-2k; the phase is that of the charge at |z|.
    """
    if z_abs < 0 or c <= 0:
        raise DomainError(f"need |z| >= 0 and c > 0, got {z_abs}, {c}")
    geom = droplet(z_abs, c)
    if geom.regime is Regime.PRE:
        return ((0.75 - energy_pre(z_abs, c, geom.q, geom.w)) * N * N
                + fconst_pre(z_abs, geom.q, geom.v, geom.w))
    bern = bernoulli_numbers(6)
    tail = sum((coef - float(bern[2 * k + 2]) / (4 * k * (k + 1))) * N ** (-2 * k)
               for k, coef in zip((1, 2), _tail_coefficients(c, (2, 4))))
    return ((0.75 - energy_post(z_abs, c)) * N * N + math.log(N) / 12.0
            - ZETA_PRIME_MINUS_ONE + fconst_post(c) + tail)
