"""Test-only oracles: quadratures and series that the package never calls.

Each one is a second route to a value `coulombgas` has in closed form or by
another method (a normalisation, a far-field coefficient, an exact
recursion, a moment summed term by term in rationals, a table rendered
by the json and csv modules alone), so the tests can compare the two.
Keeping them here keeps their scipy imports out of the modules the CLI
loads at start-up.
"""
from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import airy

from coulombgas.errors import DomainError
from coulombgas.freeenergy import LOG_2PI, ZETA_PRIME_MINUS_ONE, bernoulli_numbers
from coulombgas.geometry import PreGeometry
from coulombgas.ldp import LUEParams, constrained_support

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


def mp_total_mass(params: LUEParams) -> float:
    """Integral of ldp.mp_density via x = l- + (l+ - l-) sin^2(phi).

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
    """Integral of ldp.constrained_density via x = t + (U - t) sin^2(phi)."""
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
