"""Test-only oracles: quadratures and series that the package never calls.

Each one is a second route to a value `coulombgas` has in closed form or by
another method (a normalisation, a far-field coefficient, an exact
recursion, a moment summed term by term in rationals, the contour-Hankel
route to log Z_N and p_N, a determinant and solve in rationals, a table
rendered by the json and csv modules alone, the Tracy-Widom distribution
as a Fredholm determinant), so the tests can compare the two.  The
Marchenko-Pastur and constrained spectral densities live here too: only the
tests integrate them.  So do the identities and helpers that no command
reaches (the Robin constant and potential integral, a single contour
moment, the exact characteristic-polynomial moment, the far-field asymptote
of the rate function, the 1/z coefficient of R11 written out in the
modulus, the inverse phase boundary c_cri(a), the Painleve series hm_q and
its Airy boundary profile): the CLI does not compile them.  Keeping them here keeps their scipy imports out of the
modules the CLI loads at start-up.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import math
import warnings
from decimal import Decimal
from fractions import Fraction
from typing import Optional

import numpy as np
from mpmath import mp
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import airy

from numpy.polynomial import chebyshev as cheb

from coulombgas import painleve
from coulombgas.errors import DomainError, GridTooShort
from coulombgas.exactfiniten import decimal_context, moment_table
from coulombgas.freeenergy import (LOG_2PI, ZETA_PRIME_MINUS_ONE,
                                   bernoulli_numbers, re_g_at_a)
from coulombgas.geometry import PreGeometry, Regime, solve_modulus
from coulombgas.ldp import kc_U_grid, lambda_minus

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(96)


def radial_energy(w, r0: Optional[float] = None, r1: Optional[float] = None,
                  search_hi: float = 50.0) -> float:
    """Energy I = w(r1) - log r1 - (1/4) int_{r0}^{r1} r w'(r)^2 dr for radial w.

    The droplet is the annulus r0 <= |z| <= r1 fixed by r0 w'(r0) = 0 and
    r1 w'(r1) = 2. Pass r0/r1 explicitly or let bisection find them. Independent
    oracle for the a = 0 closed forms; w must be smooth on (0, search_hi).
    """

    def wprime(r: float) -> float:
        # step shrinks with r so profiles with a log singularity at 0 stay in domain
        h = min(1e-6, 0.5 * r) if r > 0 else 1e-6
        return (w(r + h) - w(r - h)) / (2.0 * h)

    def edge(r: float) -> float:
        return r * wprime(r)

    if r1 is None:
        r1 = brentq(lambda r: edge(r) - 2.0, 1e-3, search_hi, xtol=1e-13)
    if r0 is None:
        lo = 1e-6 * r1
        grid = [lo * (r1 * (1.0 - 1e-9) / lo) ** (k / 200.0) for k in range(201)]
        vals = [edge(r) for r in grid]
        r0 = 0.0
        for rleft, rright, vleft, vright in zip(grid, grid[1:], vals, vals[1:]):
            if vleft == 0.0:
                r0 = rleft
                break
            if vleft * vright < 0.0:
                r0 = brentq(edge, rleft, rright, xtol=1e-13)
                break
        else:
            if abs(vals[0]) > 1e-6:
                raise DomainError("no inner edge: r w'(r) has no zero in (0, r1)")
    val, est = quad(lambda r: r * wprime(r) ** 2, r0, r1, limit=200)
    if est > 1e-8:
        raise ArithmeticError(f"radial quadrature did not converge: error {est}")
    return w(r1) - math.log(r1) - 0.25 * val


def barnes_series_logG(x: float, terms: int = 10) -> float:
    """Asymptotic series for log G(x), truncated at its smallest term."""
    bernoulli = bernoulli_numbers(2 * terms + 2)
    z = x - 1.0  # series is for log G(z+1)
    out = (z * z / 2.0 * math.log(z) - 0.75 * z * z + LOG_2PI / 2.0 * z
           - math.log(z) / 12.0 + ZETA_PRIME_MINUS_ONE)
    prev = math.inf
    for k in range(1, terms + 1):
        t = float(bernoulli[2 * k + 2]) / (4 * k * (k + 1)) * z ** (-2 * k)
        if abs(t) > prev:
            break  # divergent tail reached; stop at the smallest term
        out += t
        prev = abs(t)
    return out


def mp_edges(alpha: float) -> tuple[float, float]:
    """Marchenko-Pastur support edges (l-, l+) = ((sqrt(alpha+1) -+ 1)^2)."""
    return lambda_minus(alpha), (math.sqrt(alpha + 1.0) + 1.0) ** 2


def mp_density(alpha: float, x: float) -> float:
    """Equilibrium density (1/2pi) sqrt((l+ - x)(x - l-))/x; zero off-support."""
    lo, hi = mp_edges(alpha)
    if x <= 0.0 or x <= lo or x >= hi:
        return 0.0
    return math.sqrt((hi - x) * (x - lo)) / (2.0 * math.pi * x)


def phi_large_t(t: float, alpha: float) -> float:
    """Far-field asymptote t - alpha log t of the rate function."""
    return t - alpha * math.log(t)


def constrained_support(t: float, alpha: float) -> tuple[float, float]:
    """Support [t, U(t)] of the density conditioned on the gap."""
    lam_minus = lambda_minus(alpha)
    if t <= lam_minus:
        raise DomainError(
            f"constrained support needs t > lambda_- = {lam_minus}, got t = {t}")
    return t, kc_U_grid((t,), alpha)[0]


def constrained_density(t: float, alpha: float, x: float) -> float:
    """Spectral density on [t, U(t)] conditioned on the gap event."""
    lo, hi = constrained_support(t, alpha)
    if not lo < x < hi:
        raise DomainError(f"x = {x} outside the constrained support ({lo}, {hi})")
    return (math.sqrt(hi - x) / (2.0 * math.pi * math.sqrt(x - lo))
            * (x - alpha * math.sqrt(t / hi)) / x)


def mp_total_mass(alpha: float) -> float:
    """Integral of mp_density via x = l- + (l+ - l-) sin^2(phi).

    The substitution absorbs both inverse-square-root edges; the remaining
    integrand is analytic in phi, so fixed Gauss-Legendre converges fast.
    """
    lo, hi = mp_edges(alpha)
    width = hi - lo
    phi_nodes = 0.25 * math.pi * (_GL_NODES + 1.0)
    sin2 = np.sin(phi_nodes) ** 2
    x = lo + width * sin2
    integrand = (width ** 2 / math.pi) * sin2 * np.cos(phi_nodes) ** 2 / x
    return float(0.25 * math.pi * _GL_WEIGHTS @ integrand)


def constrained_mass(t: float, alpha: float) -> float:
    """Integral of constrained_density via x = t + (U - t) sin^2(phi)."""
    lo, hi = constrained_support(t, alpha)
    width = hi - lo
    phi_nodes = 0.25 * math.pi * (_GL_NODES + 1.0)
    x = lo + width * np.sin(phi_nodes) ** 2
    integrand = (width / math.pi) * np.cos(phi_nodes) ** 2 * (
        x - alpha * math.sqrt(t / hi)) / x
    return float(0.25 * math.pi * _GL_WEIGHTS @ integrand)


def g_large_z_coefficient(geom: PreGeometry) -> float:
    """C1 in g(z) = log z - C1/z + O(1/z^2) for the simply connected phase."""
    a, q = geom.a, geom.q
    return (1.0 / (4.0 * a) + a / 2.0 - 1.0 / (2.0 * a * q * q)
            - a ** 3 * q ** 4 / 4.0)


def g_increment(geom: PreGeometry, z1: complex, z2: complex) -> complex:
    """g(z2) - g(z1) in the simply connected phase, by mpmath.quad at 30 digits.

    Integrates the defining derivative
    2 g'(z) = a - c/(z-a) + (c+1)/z - a (z-b) S(z)/((z-a) z) along the
    segment [z1, z2], with S(z) = sqrt((z-beta)(z-beta_bar)) cut on the
    vertical segment [beta_bar, beta] and ~ z at infinity.  The segment must
    avoid the cut, the points 0 and a, and (for comparison with the
    principal log z) the negative real axis.
    """
    with mp.workdps(30):
        a, c, b = mp.mpf(geom.a), mp.mpf(geom.c), mp.mpf(geom.b)
        x0, y0 = mp.mpf(geom.beta.real), mp.mpf(geom.beta.imag)

        def g_prime(z):
            dz = z - x0
            s = dz * mp.sqrt(1 + (y0 / dz) ** 2)
            return (a - c / (z - a) + (c + 1) / z - a * (z - b) * s / ((z - a) * z)) / 2

        start, delta = mp.mpc(z1), mp.mpc(z2) - mp.mpc(z1)
        return complex(delta * mp.quad(lambda u: g_prime(start + u * delta), [0, 1]))


def airy_ai(x: float) -> float:
    """Ai(x) from mpmath at 117 bits, rounded once: the boundary profile of
    the Hastings-McLeod transcendent."""
    with mp.workprec(117):
        return float(mp.airyai(x))


def airy_ai_prime(x: float) -> float:
    """Ai'(x), from scipy.special.airy."""
    return float(airy(x)[1])


def fraction_moment(N: int, m: int, a, k: int) -> Fraction:
    """nu_k/(2 pi i) as an exact Fraction, summed term by term in rationals.

    The coefficient of z^(m+N-1-k) in (z-a)^m e^(-N a z), with a taken at its
    exact value; zero for k >= m+N.
    """
    a = Fraction(a)
    p = m + N - 1 - k
    total = Fraction(0)
    for j in range(min(m, p) + 1):
        total += (Fraction(math.comb(m, j)) * (-a) ** (m - j)
                  * (-N * a) ** (p - j) / math.factorial(p - j))
    return total


def contour_hankel(N: int, m: int, a) -> tuple:
    """(det H, monic p_N coefficients) exactly in rationals, from the contour
    moments of Balogh, Bertola, Lee and McLaughlin: a route to log Z_N and
    p_N that shares no code with the package's Gram route.

    H_ik = nu_(i+k) for i, k < N, and p_N = z^N + sum_k c_k z^k with
    H c = -(nu_N, ..., nu_(2N-1)); Z_N = N! prod_(k<N) (m+k)!/N^(m+k+1)
    |det H|.  At a = 0, H is the exchange matrix, whose leading minors but
    the last vanish, so the elimination must swap rows.
    """
    nu = [fraction_moment(N, m, a, k) for k in range(2 * N)]
    det, coeffs = fraction_solve([nu[i:i + N] for i in range(N)],
                                 [-v for v in nu[N:]])
    return det, coeffs + [Fraction(1)]


def reference_render(table: dict, fmt: str) -> str:
    """A CLI table as json.dumps(indent=2) or csv.DictWriter writes it.

    This is the repository's only json/csv table writer: the package
    writes every table through its own columnar writer, and the tests
    compare that text with this one.  CSV flattens each {"re", "im"} value
    into <key>_re and <key>_im columns and drops other nested values; the
    header is every key in order of first appearance, and a row without a
    key leaves its field empty.
    """
    if fmt == "json":
        return json.dumps(table, indent=2, allow_nan=False) + "\n"
    rows = []
    for row in table.get("rows", []):
        flat = {}
        for key, value in row.items():
            if isinstance(value, dict) and set(value) == {"re", "im"}:
                flat[f"{key}_re"] = value["re"]
                flat[f"{key}_im"] = value["im"]
            elif not isinstance(value, (dict, list)):
                flat[key] = value
        rows.append(flat)
    header: list[str] = []
    for row in rows:
        header.extend(k for k in row if k not in header)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def column_rows(columns: dict) -> list[dict]:
    """The dict rows of a CLI table given as a dict of equal-length value
    lists: row i takes entry i of each list, a complex one as {"re", "im"}."""
    return [{key: ({"re": value.real, "im": value.imag}
                   if isinstance(value, complex) else value)
             for key, value in zip(columns, values)}
            for values in zip(*columns.values())]


def fraction_solve(matrix: list, rhs: Optional[list] = None) -> tuple:
    """det(matrix) and the solution of matrix x = rhs, exactly in Fractions.

    Plain Gaussian elimination on rationals: the pivot of each column is its
    first nonzero entry at or below the diagonal, so no rounding and no
    pivot rule is involved.  The solution is None without rhs or for a
    singular matrix.
    """
    n = len(matrix)
    rows = [[Fraction(v) for v in row] + ([Fraction(rhs[i])] if rhs else [])
            for i, row in enumerate(matrix)]
    det = Fraction(1)
    for j in range(n):
        piv = next((r for r in range(j, n) if rows[r][j]), None)
        if piv is None:
            return Fraction(0), None
        if piv != j:
            rows[j], rows[piv] = rows[piv], rows[j]
            det = -det
        det *= rows[j][j]
        for r in range(j + 1, n):
            f = rows[r][j] / rows[j][j]
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[j])]
    if not rhs:
        return det, None
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        x[i] = (rows[i][n] - sum(rows[i][c] * x[c] for c in range(i + 1, n))) / rows[i][i]
    return det, x


def robin_constant(a: float, c: float, regime: Regime) -> float:
    if regime is Regime.POST:
        return 0.5 * (c + 1.0) * (1.0 - math.log(c + 1.0))
    q = solve_modulus(a, c)[0]
    t = a * a * q * q
    return (c * math.log(q) - (c + 1.0) * math.log((1.0 + t) / (2.0 * a * q))
            + 0.75 + a * a / 4.0 + c / 2.0
            - (a * a / 4.0 + c + 0.75) * t + t * t / 2.0)


def potential_integral(a: float, c: float, regime: Regime) -> float:
    """(1/2) * integral of Q against the equilibrium measure."""
    if regime is Regime.POST:
        return (c + 0.25 + 0.5 * c * c * math.log(c)
                - 0.5 * c * (1.0 + c) * math.log(1.0 + c) - c * a * a)
    q, _, w = solve_modulus(a, c)
    t = a * a * q * q
    return (0.375 + a * a / 4.0 + c / 2.0
            - (a * a / 4.0 + c + 0.5) * t + 0.375 * t * t
            - c * re_g_at_a(a, c, q, w))


def contour_moment(N: int, m: int, a, k: int,
                   precision_bits: int = 256) -> Decimal:
    """nu_k/(2 pi i), correctly rounded at the context precision; zero (with
    a warning) for k >= m+N."""
    if k < 0:
        raise DomainError(f"moment index must be nonnegative, got {k}")
    if k >= m + N:
        warnings.warn(f"moment index k={k} >= m+N={m + N}; residue is zero")
        return Decimal(0)
    moment = fraction_moment(N, m, a, k)
    return decimal_context(precision_bits).divide(moment.numerator,
                                                  moment.denominator)


def exact_charpoly_moment(N: int, m: int, z_abs: float,
                          precision_bits: int = 256) -> Decimal:
    """E|det(G_N - z)|^(2m) = Z_N(|z|, m/N) / Z_N(0, 0), evaluated exactly."""
    ctx = decimal_context(precision_bits)
    return ctx.exp(ctx.subtract(
        moment_table(N, m, abs(z_abs), precision_bits).log_z,
        moment_table(N, 0, 0, precision_bits).log_z))


def res_r11_infinity(geom: PreGeometry, N: int) -> float:
    """The 1/z coefficient of R11 written out in the modulus:
    -q^2 (1 - a^4 q^4)^2 / (16 a (1 - q^2)(1 - a^4 q^6)^2 N)."""
    a, q = geom.a, geom.q
    num = q * q * (1.0 - a ** 4 * q ** 4) ** 2
    den = 16.0 * a * (1.0 - q * q) * (1.0 - a ** 4 * q ** 6) ** 2 * N
    return -num / den


def c_cri_at(a: float) -> float:
    """The charge c at which a sits on the phase boundary, the inverse of
    geometry.a_cri(c)."""
    if not 0.0 < a < 1.0:
        raise DomainError(f"c_cri(a) is defined for 0 < a < 1, got {a}")
    return (1.0 - a * a) ** 2 / (4.0 * a * a)


def pre_reference(a: float, c: float) -> tuple:
    """(q, 1 - a^2 q^2, kappa, energy_pre) at pre-critical (a, c) as mpf,
    to about 40 digits at every a up to the double range.

    w = 1 - a^2 q^2 is the root in (0, 1) of (a^2/2) w (2 - w) =
    (1 - w)^2 (2c + w), the modulus cubic in w with its a^2 terms cancelled
    by hand, found by bisection in log w so that it keeps its digits where
    w ~ 2c/a^2 lies far below a double's rounding.  kappa and the energy are
    geometry.droplet's and freeenergy.energy_pre's closed forms, with
    2 log10(a) more digits for the cancellation among the energy's a^2 terms.
    """
    with mp.workdps(40 + 2 * max(0, int(math.log10(a)))):
        a, c = mp.mpf(a), mp.mpf(c)
        a2 = a * a
        # the two sides cross once in (0, 1), above min(1/2, c/(2a^2));
        # bisect to about 15 digits, then Newton doubles them per step
        lo, hi = min(mp.mpf(1) / 4, c / (4 * a2)), mp.mpf(1)
        for _ in range(64):
            w = mp.sqrt(lo * hi)
            if a2 / 2 * w * (2 - w) < (1 - w) ** 2 * (2 * c + w):
                lo = w
            else:
                hi = w
        for _ in range(4):
            w -= ((a2 / 2 * w * (2 - w) - (1 - w) ** 2 * (2 * c + w))
                  / ((1 - w) * (a2 + 4 * c + 2 * w) - (1 - w) ** 2))
        q2 = (1 - w) / a2
        q = mp.sqrt(q2)
        kappa = (1 - q2) * w / (2 * a * q)
        return +q, +w, +kappa, +_energy_pre(a, c, q)


def _energy_pre(a, c, q):
    """freeenergy.energy_pre's closed form in its original terms, for mpf
    a, c and q at the working precision."""
    a2, q2 = a * a, q * q
    return (mp.mpf(3) / 8 + a2 / 8 + 3 / (8 * a2 * q2 * q2) - 5 / (8 * q2)
            + (mp.mpf(3) / 4 + a2 / 8) * a2 * q2
            - mp.mpf(3) / 8 * a2 * a2 * q2 * q2
            + mp.log(2 * a * q) + 2 * c * mp.log(2 * a * q2)
            + c * c * mp.log(1 + a2 * q2 - 2 * a2 * q2 * q2)
            - (c + 1) ** 2 * mp.log(1 + a2 * q2))


def modulus_reference(a: float, c: float) -> tuple:
    """(q, 1 - q^2, 1 - a^2 q^2) at pre-critical (a, c) as mpf, to about 60
    digits.  w = 1 - a^2 q^2 is the one root in (0, 1) of h = (a^2/2)
    w (1 + s) - s^2 (2c + w), s = 1 - w, the cubic in s = a^2 q^2 written
    in w: h < 0 at w = c/(a^2 + 4c), where h < a^2 w - 2c s^2, and h > 0
    at s = a/(2 sqrt(a^2 + 2c + 1)), where h > (a^2/2)(1 - s^2) - (2c + 1)
    s^2.  The root is bisected in u = log(w/s), which keeps the digits of
    both w and s, to 12 digits at 20, and polished by Newton's method at 80,
    each plus those that h's terms cancel, about log10(a^2/c) of them at tiny c,
    and those that s = 1 - w loses at tiny a, log10(1/a^2); a sign change
    of h beside it and s < a^2 (the pre-critical root) are checked."""
    def h(w, s):
        return a2 * w * (1 + s) / 2 - s * s * (2 * c_ + w)

    def ws(u):
        e = mp.exp(-u)
        return 1 / (1 + e), e / (1 + e)

    log_a2 = 2.0 * math.log10(a)
    extra = max(0, int(log_a2 - math.log10(c))) + max(0, int(-log_a2))
    with mp.workdps(20 + extra):
        a2, c_ = mp.mpf(a) ** 2, mp.mpf(c)
        s_hi = mp.sqrt(a2 / (a2 + 2 * c_ + 1)) / 2
        lo, hi = mp.log(c_ / (a2 + 3 * c_)), mp.log((1 - s_hi) / s_hi)
        while hi - lo > (1 + abs(lo) + abs(hi)) * mp.mpf(10) ** -12:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if h(*ws(mid)) < 0 else (lo, mid)
    with mp.workdps(80 + extra):
        a2, c_ = mp.mpf(a) ** 2, mp.mpf(c)
        w, s = ws(mp.mpf(lo))
        for _ in range(20):
            step = h(w, s) / (s * (a2 + 4 * c_ + 2 - 3 * s))
            w, s = w - step, s + step
            if abs(step) < 4 * mp.eps * min(w, s):
                break
        gap = min(w, s) * mp.mpf(10) ** -60
        assert h(w - gap, s + gap) < 0 < h(w + gap, s - gap) and s < a2
        return +mp.sqrt(s / a2), +(a2 - 1 + w) / a2, +w


def fconst_pre_reference(v, w):
    """freeenergy.fconst_pre's F as an mpf from modulus_reference's gaps v
    and w, at 80 digits: log((w + 2tv)^4/((2 - w)^4 v^3 (w (2 - w) +
    t^2 v)))/24 with t = 1 - w."""
    with mp.workdps(80):
        t = 1 - w
        return (4 * mp.log(w + 2 * t * v) - 4 * mp.log(2 - w)
                - 3 * mp.log(v) - mp.log(w * (2 - w) + t * t * v)) / 24


def energy_post_reference(a: float, c: float):
    """freeenergy.energy_post(a, c) as an mpf, the same formula at 60
    digits plus the log10(c) its c^2 log terms cancel."""
    with mp.workdps(60 + max(0, int(math.log10(c)))):
        return +_energy_post(mp.mpf(a), mp.mpf(c))


def _energy_post(a, c):
    return (mp.mpf(3) / 4 + 3 * c / 2 + c * c * mp.log(c) / 2
            - (c + 1) ** 2 * mp.log(c + 1) / 2 - c * a * a)


@functools.lru_cache(maxsize=None)
def phi_psi_reference(t: float, alpha: float) -> tuple:
    """ldp.phi_psi_grid's (Phi, Psi) at t as mpf, at 90 digits, from the
    float planar image a = sqrt(t/alpha), c = 1/alpha that phi_psi_grid
    forms: Phi = alpha^2 (E_pre - E_post) with q from modulus_reference,
    since the difference falls like (t - lambda_-)^3 and pre_reference's
    40 digits cannot carry it, and Psi = fconst_pre_reference(v, w) -
    log(c/(1 + c))/12."""
    a, c = math.sqrt(t / alpha), 1.0 / alpha
    q, v, w = modulus_reference(a, c)
    with mp.workdps(90):
        a, c = mp.mpf(a), mp.mpf(c)
        phi = mp.mpf(alpha) ** 2 * (_energy_pre(a, c, q) - _energy_post(a, c))
        return +phi, fconst_pre_reference(v, w) - mp.log(c / (1 + c)) / 12


def lambda_minus_reference(alpha: float):
    """ldp.lambda_minus's (sqrt(alpha+1) - 1)^2 as an mpf, at 60 digits
    plus the -log10(alpha) it cancels."""
    with mp.workdps(60 + max(0, -int(math.log10(alpha)))):
        return +(mp.sqrt(mp.mpf(alpha) + 1) - 1) ** 2


def kc_rate_reference(t: float, alpha: float):
    """ldp.kc_rate_grid's S(t) - S(lambda_-) as an mpf, at 90 digits, with
    U from kc_U_reference and lambda_- from lambda_minus_reference."""
    with mp.workdps(90):
        return _kc_action(mp.mpf(t), alpha) - _kc_edge_action(alpha)


@functools.lru_cache(maxsize=None)
def _kc_edge_action(alpha: float):
    with mp.workdps(90):
        return _kc_action(lambda_minus_reference(alpha), alpha)


def _kc_action(t, alpha: float):
    # the constrained action S(t) at the working precision, for an mpf t
    u, al = kc_U_reference(t, alpha), mp.mpf(alpha)
    su, st = mp.sqrt(u), mp.sqrt(t)
    return ((u + t) / 2 - (u - t) ** 2 / 32 + al / 4 * (su - st) ** 2
            - mp.log((u - t) / 4) + al * al / 4 * mp.log(t * u)
            - al * (al + 2) * mp.log((su + st) / 2))


def kc_U_reference(t: float, alpha: float):
    """ldp.kc_U_grid's right edge U(t) as an mpf, at 90 digits: the root in
    (s/3, s) of U (U - s)^2 = 4 alpha^2 t with s = t + 2 alpha + 4, where
    the left side falls from 4 s^3/27 to 0, by bisection: prec + 1 halvings
    take the bracket's width 2s/3 below eps times the root, which is > s/3."""
    with mp.workdps(90):
        t, alpha = mp.mpf(t), mp.mpf(alpha)
        s, rhs = t + 2 * alpha + 4, 4 * alpha * alpha * t
        lo, hi = s / 3, s
        for _ in range(mp.prec + 1):
            mid = (lo + hi) / 2
            if mid * (mid - s) ** 2 > rhs:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def is_pre_reference(a: float, c: float) -> bool:
    """Whether a > a_cri(c) = sqrt(c+1) - sqrt(c), at 80 digits, as
    1/(sqrt(c+1) + sqrt(c)) so that no c cancels it."""
    with mp.workdps(80):
        return mp.mpf(a) > 1 / (mp.sqrt(mp.mpf(c) + 1) + mp.sqrt(mp.mpf(c)))


def hm_q(sol: painleve.TWSolution, s):
    """The transcendent on [S_MIN, S_MAX], summed from its Chebyshev series:
    a float s gives a float and an array an array.
    """
    s = np.asarray(s, dtype=float)
    if np.any((s < painleve.S_MIN) | (s > painleve.S_MAX)):
        raise GridTooShort(f"s outside the solved range "
                           f"[{painleve.S_MIN}, {painleve.S_MAX}]")
    values = cheb.chebval((s - painleve._MID) / painleve._HALF, sol.coeffs)
    return values if np.ndim(values) else float(values)


def tw_cdf_fredholm(s: float, nodes: int = 60) -> float:
    """F(s) = det(I - K_Ai) on L^2(s, inf), by Nystrom discretisation
    (Bornemann, "On the numerical evaluation of Fredholm determinants",
    Math. Comp. 79 (2010)).

    The Airy kernel K(x, y) = (Ai(x) Ai'(y) - Ai'(x) Ai(y)) / (x - y), with
    K(x, x) = Ai'(x)^2 - x Ai(x)^2, comes from scipy.special.airy; the
    Gauss-Legendre nodes u on (-1, 1) map to x = s + 10 tan(pi (u + 1) / 4).
    Nothing here touches the Painleve II route.
    """
    u, w = np.polynomial.legendre.leggauss(nodes)
    angle = np.pi * (u + 1.0) / 4.0
    x = s + 10.0 * np.tan(angle)
    root = np.sqrt(w * 2.5 * np.pi / np.cos(angle) ** 2)
    ai, aip, _, _ = airy(x)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    kernel = (ai[:, None] * aip[None, :] - aip[:, None] * ai[None, :]) / diff
    np.fill_diagonal(kernel, aip * aip - x * ai * ai)
    return float(np.linalg.det(np.eye(nodes) - root[:, None] * kernel * root[None, :]))
