"""Test-only oracles: quadratures and series that the package never calls.

Each one is a second route to a value `coulombgas` has in closed form or by
another method (a normalisation, a far-field coefficient, an exact
recursion, a moment summed term by term in rationals or in integers, the
contour-Hankel route to log Z_N and p_N, a determinant and solve in
rationals, a table rendered by the json and csv modules alone, the
Tracy-Widom distribution as a Fredholm determinant), so the tests can
compare the two.  The Marchenko-Pastur and
constrained spectral densities live here too: only the tests integrate
them.  So do the identities and helpers that no command reaches (the Robin
constant and potential integral, a single contour moment, the inverse
phase boundary c_cri(a), the regime-dispatching g, the Painleve series
hm_q): the CLI does not compile them.  Keeping them here keeps their scipy
imports out of the modules the CLI loads at start-up.
"""
from __future__ import annotations

import csv
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
from coulombgas.exactfiniten import ExactContext, decimal_context
from coulombgas.freeenergy import (LOG_2PI, ZETA_PRIME_MINUS_ONE,
                                   bernoulli_numbers, re_g_at_a)
from coulombgas.geometry import PreGeometry, Regime, solve_q
from coulombgas.ldp import LUEParams, kc_U
from coulombgas.opasymp import GEvaluator

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


def mp_density(params: LUEParams, x: float) -> float:
    """Equilibrium density (1/2pi) sqrt((l+ - x)(x - l-))/x; zero off-support."""
    if x <= 0.0 or x <= params.lambda_minus or x >= params.lambda_plus:
        return 0.0
    return math.sqrt((params.lambda_plus - x) * (x - params.lambda_minus)) / (
        2.0 * math.pi * x)


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


def mp_total_mass(params: LUEParams) -> float:
    """Integral of mp_density via x = l- + (l+ - l-) sin^2(phi).

    The substitution absorbs both inverse-square-root edges; the remaining
    integrand is analytic in phi, so fixed Gauss-Legendre converges fast.
    """
    lo, hi = params.lambda_minus, params.lambda_plus
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


def term_moments(N: int, m: int, a, ks) -> list:
    """nu_k/(2 pi i) for each k in ks as the pair (num, den) of Python ints
    that `horner_moments` must return, summed term by term.

    With a = A/D exactly and p = m+N-1-k,

        num = (-1)^(m+p) sum_{j <= min(m, p)} C(m,j) A^(m+p-2j) D^(2j)
                                              N^(p-j) p!/(p-j)!,
        den = D^(m+p) p!,

    and (0, 1) for p < 0 (k >= m+N).
    """
    A, D = Fraction(a).as_integer_ratio()
    out = []
    for k in ks:
        p = m + N - 1 - k
        if p < 0:
            out.append((0, 1))
            continue
        num, falling = 0, 1  # falling = p!/(p-j)!
        for j in range(min(m, p) + 1):
            num += (math.comb(m, j) * falling * N ** (p - j)
                    * D ** (2 * j) * A ** (m + p - 2 * j))
            falling *= p - j
        if (m + p) % 2:
            num = -num
        out.append((num, D ** (m + p) * math.factorial(p)))
    return out


def horner_moments(ctx: ExactContext, ks) -> list:
    """nu_k/(2 pi i) for each k in ks, as an exact pair (num, den), den > 0,
    by Horner's rule.

    With a = A/D exactly (D a power of two for a float a) and p = m+N-1-k,

        nu_k = (-1)^(m+p) sum_{j <= r} c_j A^(m+p-2j) D^(2j) / (D^(m+p) p!),
        c_j = C(m,j) N^(p-j) p!/(p-j)!,  r = min(m, p),

    a ratio of Python ints.  The sum is A^(m+p-2r) S_r with S_0 = c_0 = N^p
    and S_j = S_(j-1) A^2 + c_j D^(2j) (Horner's rule, homogeneous in A^2
    and D^2); c_(j+1) = c_j (m-j)(p-j) / ((j+1) N) exactly, and D^(2j) is a
    left shift times a power of D's odd part, which is 1 for a float a.
    0**0 == 1 keeps a = 0 exact, and p < 0 (k >= m+N) gives an exact zero.
    """
    N, m = ctx.N, ctx.m
    A, D = Fraction(ctx.a).as_integer_ratio()
    X = A * A
    twos = (D & -D).bit_length() - 1  # D = 2^twos * odd
    odd_sq = (D >> twos) ** 2
    out = []
    for k in ks:
        p = m + N - 1 - k
        if p < 0:
            out.append((0, 1))
            continue
        r = min(m, p)
        c = s = N ** p
        odd_pow = 1
        for j in range(r):
            c = c * (m - j) * (p - j) // ((j + 1) * N)
            odd_pow *= odd_sq
            s = s * X + ((c * odd_pow) << (2 * twos * (j + 1)))
        num = s * A ** (m + p - 2 * r)
        if (m + p) % 2:
            num = -num
        out.append((num, D ** (m + p) * math.factorial(p)))
    return out


def contour_hankel(N: int, m: int, a) -> tuple:
    """(det H, monic p_N coefficients) exactly in rationals, from the contour
    moments of Balogh, Bertola, Lee and McLaughlin: a route to log Z_N and
    p_N that shares no code with the package's Gram route.

    H_ik = nu_(i+k) for i, k < N, and p_N = z^N + sum_k c_k z^k with
    H c = -(nu_N, ..., nu_(2N-1)); Z_N = N! prod_(k<N) (m+k)!/N^(m+k+1)
    |det H|.  At a = 0, H is the exchange matrix, whose leading minors but
    the last vanish, so the elimination must swap rows.
    """
    nu = [Fraction(num, den) for num, den in horner_moments(
        ExactContext(N, m, a), range(2 * N))]
    det, coeffs = fraction_solve([nu[i:i + N] for i in range(N)],
                                 [-v for v in nu[N:]])
    return det, coeffs + [Fraction(1)]


def reference_render(table: dict, fmt: str) -> str:
    """A CLI table as json.dumps(indent=2) or csv.DictWriter writes it.

    CSV flattens each {"re", "im"} value into <key>_re and <key>_im columns
    and drops other nested values; the header is every key in order of
    first appearance, and a row without a key leaves its field empty.
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


def column_rows(columns: list) -> list[dict]:
    """The dict rows of a CLI column table of (key, kind, value lists)
    triples: row i takes entry i of each column, and of a complex column's
    two lists as {"re": re[i], "im": im[i]}."""
    count = len(columns[0][2][0]) if columns else 0
    return [{key: ({"re": values[0][i], "im": values[1][i]}
                   if kind is complex else values[0][i])
             for key, kind, values in columns} for i in range(count)]


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


def contour_moment(ctx: ExactContext, k: int) -> Decimal:
    """nu_k/(2 pi i), correctly rounded at the context precision; zero (with
    a warning) for k >= m+N."""
    if k < 0:
        raise DomainError(f"moment index must be nonnegative, got {k}")
    if k >= ctx.m + ctx.N:
        warnings.warn(f"moment index k={k} >= m+N={ctx.m + ctx.N}; residue is zero")
        return Decimal(0)
    return decimal_context(ctx.precision_bits).divide(
        *horner_moments(ctx, (k,))[0])


def c_cri_at(a: float) -> float:
    """The charge c at which a sits on the phase boundary, the inverse of
    geometry.critical_values(c).a_cri."""
    if not 0.0 < a < 1.0:
        raise DomainError(f"c_cri(a) is defined for 0 < a < 1, got {a}")
    return (1.0 - a * a) ** 2 / (4.0 * a * a)


def g(evaluator: GEvaluator, z: complex) -> complex:
    """The evaluator's g-function in its own phase."""
    if evaluator.params.regime is Regime.POST:
        return evaluator.g_post(z)
    return evaluator.g_pre(z)


def hm_q(sol: painleve.TWSolution, s):
    """The transcendent on [S_MIN, S_MAX], summed from its Chebyshev series.

    Like q2_tail_integral, a float s gives a float and an array an array.
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
