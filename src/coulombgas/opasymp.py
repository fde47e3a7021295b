"""Exterior asymptotics of the planar monic orthogonal polynomials.

Outside the droplet the degree-N polynomial behaves like e^{N g(z)} times an
algebraic prefactor.  The annular phase has the closed form
g(z) = log z + c log(z/(z-a)).  In the simply connected phase g is the
primitive with g(z) - log z -> 0 at infinity of

    2 g'(z) = a - c/(z-a) + (c+1)/z - y(z),
    y(z) = a (z-b) S(z) / ((z-a) z),

where S is the square root with a vertical cut that the exterior conformal
inverse F also uses.  The droplet exterior is the image of |w| > 1 under the
rational map f(w) = R w - kappa/(w-q) - kappa/q, so (g' - 1/z) f' is
rational in w = F(z): simple poles with residues -1 at w1 (where f(w1) = 0),
+1 at q, -r at w2 and +r at 0, plus a double pole d/(w-q)^2.  The residues
sum to zero, and the primitive that vanishes at infinity is elementary:

    g(z) = log z + log((1 - q/w)/(1 - w1/w)) - r log(1 - w2/w) - d/(w - q),

with t = a^2 q^2, w1 = (2 t q^2 - t + 1)/(q (1 + t)), w2 = 2 t q/(1 + t),
r = (t-1)(2 t q^2 - t - 1)/(4 t q^2) and d = (q^2 - 1)(t - 1)/(2 q).  The
logarithms take their principal branches.  tests/oracles.py integrates g'
itself at 30 digits along segments in the cut plane as an independent check.

The annular prefactor carries a two-pole rational dressing R1(z) R2(z) built
from the coefficients gamma11, gamma12 of the local coordinate at the cut
endpoints.  Their fractional powers follow the principal branch of the
grouped argument exactly as printed in the closed forms; that choice is
pinned by an audit of the branch-sensitive 1/z coefficient of R11 against
freeenergy.d_fconst_pre_da(a, c)/(2N), the 1/N part of A11 (see tests).

Exterior gate: the polynomial formulas take only |z| > exterior_radius(geom),
1.15 times a radius that encloses the droplet, the charge a and the cut.  In
the annular phase that radius is the outer circle sqrt(1+c).  In the simply
connected one it is b = R/q: with t = a^2 q^2,

    b - |beta| = a (1 - q^2),
    b - a = (1 - t)/(2 a q^2),
    max_{|w|=1} |f(w)| = |f(-1)| = b - a (1 - q),

all positive for 0 < q < 1 and t < 1.  The last holds because
f(w) = w (R - kappa u/q) with u = 1/(w - q), and for |w| = 1 the point u runs
over the circle through -1/(1+q) and 1/(1-q), centred at q/(1 - q^2); R q/kappa
lies right of that centre, so u = -1/(1+q), at w = -1, is farthest from it.
g itself refuses only z in {0, a} and points on the cut, since it extends
continuously up to the droplet.
"""
from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .errors import DomainError
from .geometry import (Droplet, PreGeometry, Regime, _sqrt_through_cut,
                       inverse_F)

EXTERIOR_MARGIN = 1.15


def exterior_radius(geom: Droplet) -> float:
    """The exterior gate's radius in the droplet's phase (see above)."""
    if geom.regime is Regime.POST:
        # a < 1 and the skeleton end beta < b, beta b = 1 + c, lie inside
        return EXTERIOR_MARGIN * geom.outer_radius
    # b exceeds |beta|, a and the boundary's modulus (see above)
    return EXTERIOR_MARGIN * geom.b


def require_exterior(geom: Droplet, z: complex) -> None:
    """Refuse z on or inside the exterior gate with a DomainError."""
    radius = exterior_radius(geom)
    if abs(z) <= radius:
        raise DomainError(
            f"|z| = {abs(z):.6g} inside the exterior gate radius "
            f"{radius:.6g}")


def g(geom: Droplet, z: complex) -> complex:
    """g in the droplet's phase, singular at 0 and a.

    Annular: the closed form log z + c log(z/(z-a)).  Simply connected: the
    closed form through w = F(z); inverse_F raises BranchCutError for z on
    the cut.
    """
    z = complex(z)
    if z == 0.0 or z == geom.a:
        raise DomainError(f"g is singular at z = {z}")
    if geom.regime is Regime.POST:
        return cmath.log(z) + geom.c * cmath.log(z / (z - geom.a))
    w = inverse_F(geom, z)
    q = geom.q
    t = (geom.a * q) ** 2
    w1 = (2.0 * t * q * q - t + 1.0) / (q * (1.0 + t))
    w2 = 2.0 * t * q / (1.0 + t)
    r = (t - 1.0) * (2.0 * t * q * q - t - 1.0) / (4.0 * t * q * q)
    d = (q * q - 1.0) * (t - 1.0) / (2.0 * q)
    return (cmath.log(z) + cmath.log((1.0 - q / w) / (1.0 - w1 / w))
            - r * cmath.log(1.0 - w2 / w) - d / (w - q))


class RHCoefficients(NamedTuple):
    """Dressing coefficients of the two-pole rational correction."""

    gamma11: complex
    gamma12: complex
    h11: tuple  # 2x2 matrices as ((m00, m01), (m10, m11))
    h12: tuple
    beta: complex
    beta_bar: complex


def rh_coefficients(geom: PreGeometry, N: int) -> RHCoefficients:
    """Local-coordinate coefficients and the h-matrices at size N.

    gamma11 is the principal 2/3 power of the grouped argument; gamma11^{3/2}
    then reproduces the argument halved exactly, which is what the residue
    identity requires.  The h-matrices are the pole parts that make the
    local matching matrix holomorphic at the cut endpoints; tests rederive
    them from that holomorphy requirement by Cauchy extraction, which pins
    every entry including the relative phase of the off-diagonal.
    """
    if N < 1:
        raise DomainError(f"need N >= 1, got {N}")
    a = geom.a
    beta, beta_bar, b = geom.beta, geom.beta_bar, geom.b
    root_gap = cmath.sqrt(beta_bar - beta)
    grouped = a * (beta_bar - b) * root_gap / ((beta_bar - a) * beta_bar)
    gamma11 = (grouped / 2.0) ** (2.0 / 3.0)
    gamma12 = 0.8 * (1.0 / (beta_bar - b) + 0.5 / (beta_bar - beta)
                     - 1.0 / (beta_bar - a) - 1.0 / beta_bar) * gamma11

    rk_quarter = (geom.R * geom.kappa) ** 0.25
    rk_half = math.sqrt(geom.R * geom.kappa)
    diag = 3.0 * gamma11 - 10.0j * rk_half * gamma12
    off = (19.0j * gamma11 - 30.0 * rk_half * gamma12) / 3.0
    pref11 = (1.0 + 1.0j) / (128.0 * math.sqrt(2.0) * rk_quarter
                             * gamma11 ** 2.5 * N)
    h11 = _scaled(pref11, ((diag, off), (off, -diag)))
    pref12 = 5.0 * rk_quarter / (48.0 * math.sqrt(2.0) * gamma11 ** 1.5 * N)
    h12 = _scaled(pref12, ((-1.0 + 1.0j, 1.0 + 1.0j), (1.0 + 1.0j, 1.0 - 1.0j)))
    return RHCoefficients(gamma11=gamma11, gamma12=gamma12, h11=h11, h12=h12,
                          beta=beta, beta_bar=beta_bar)


def _scaled(factor: complex, m: tuple) -> tuple:
    return tuple(tuple(factor * x for x in row) for row in m)


def _dressing(h1: tuple, h2: tuple, dz: complex) -> tuple:
    # the rows of I + h1/dz + h2/dz^2 that h1 and h2 hold
    return tuple(tuple((1.0 if i == j else 0.0) + x1 / dz + x2 / dz ** 2
                       for j, (x1, x2) in enumerate(zip(r1, r2)))
                 for i, (r1, r2) in enumerate(zip(h1, h2)))


def r_entries(coeffs: RHCoefficients, z: complex) -> tuple[complex, complex]:
    """R11 and R12, the first row of R1(z) R2(z) - I; each is O(1/z) far out
    and O(1/N) throughout.

    R2 = I + conj(h11)/dz2 + conj(h12)/dz2^2 with dz2 = z - beta, and R1
    conjugates h11 and h12 by R2, so R1 R2 = R2 (I + h11/dz1 + h12/dz1^2)
    with dz1 = z - beta_bar, and R2 is never inverted.
    """
    z = complex(z)
    if z == coeffs.beta or z == coeffs.beta_bar:
        raise DomainError(f"rational dressing has a pole at z = {z}")
    [(a, b)] = _dressing([[x.conjugate() for x in coeffs.h11[0]]],
                         [[x.conjugate() for x in coeffs.h12[0]]],
                         z - coeffs.beta)
    (e, f), (g, h) = _dressing(coeffs.h11, coeffs.h12, z - coeffs.beta_bar)
    # the first row of R2 (I + h11/dz1 + h12/dz1^2), minus I
    return a * e + b * g - 1.0, a * f + b * h


def r11_residue_probe(coeffs: RHCoefficients) -> complex:
    """1/z coefficient of R11 by the circle average of z R11(z).

    The average runs over 512 points on |z| = 1000.  Aliasing only folds in
    Laurent orders beyond 512, which are down by (|beta|/1000)^512: zero to
    double precision.
    """
    n = 512
    total = 0.0 + 0.0j
    for k in range(n):
        zk = 1e3 * cmath.exp(2j * math.pi * k / n)
        total += r_entries(coeffs, zk)[0] * zk
    return total / n


def p_asymp(geom: Droplet, z: complex, N: int) -> complex:
    """Exterior main term of the monic degree-N orthogonal polynomial.

    Annular phase: z^N (z/(z-a))^{cN}, relative error O(N^-inf).
    Simply connected phase:
    (sqrt(R F')(1 + R11) - sqrt(kappa F')/(F - q) R12) e^{Ng},
    relative error O(N^-2).
    """
    if N < 1:
        raise DomainError(f"need N >= 1, got {N}")
    z = complex(z)
    require_exterior(geom, z)
    if geom.regime is Regime.POST:
        return cmath.exp(N * g(geom, z))
    coeffs = rh_coefficients(geom, N)
    r11, r12 = r_entries(coeffs, z)
    f_val = inverse_F(geom, z)
    s_val = _sqrt_through_cut(z, geom.beta.real, geom.beta.imag)
    f_prime = (1.0 + (z - geom.beta.real) / s_val) / (2.0 * geom.R)
    prefactor = (cmath.sqrt(geom.R * f_prime) * (1.0 + r11)
                 - cmath.sqrt(geom.kappa * f_prime) / (f_val - geom.q) * r12)
    return prefactor * cmath.exp(N * g(geom, z))


def a11_asymp(N: int, a: float, c: float, regime: Regime) -> float:
    """Asymptotic subleading coefficient of the monic polynomial; 2N times
    it is d/da of the log partition function.

    Annular phase: c a N up to super-polynomially small terms.
    Simply connected phase: (F'/N - N E')/2 from the a-derivatives of the
    pre-critical energy E and free-energy constant F; the 1/N term F'/(2N)
    is the 1/z coefficient of R11, which report's residue_r11 probes.
    """
    if N < 1:
        raise DomainError(f"need N >= 1, got {N}")
    if regime is Regime.POST:
        return c * a * N
    # freeenergy loads here, so op-compare does not compile it
    from .freeenergy import d_energy_pre_da, d_fconst_pre_da

    return (d_fconst_pre_da(a, c) / N - N * d_energy_pre_da(a, c)) / 2.0
