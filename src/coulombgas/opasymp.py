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
pinned by an audit against the closed-form 1/z coefficient of R11, which is
branch-sensitive (see tests).

Exterior gate: evaluation points for the polynomial formulas must satisfy
|z| > 1.15 * max(|beta|, a, outer droplet extent, and in the simply
connected phase b).  The gate is a circumscribed-radius proxy, not the true
exterior region;
points it accepts are outside every tested droplet, but the true domain is
the complement of the motherbody, which has no constructive description
here.  The g methods themselves only refuse z in {0, a} and points on the
cut, since g extends continuously up to the droplet.
"""
from __future__ import annotations

import cmath
import math
from typing import NamedTuple, Union

from .errors import DomainError
from .geometry import (ModelParams, PostGeometry, PreGeometry, Regime,
                       _sqrt_through_cut, conformal_f, inverse_F,
                       post_geometry, pre_geometry)

EXTERIOR_MARGIN = 1.15


def _droplet_outer_extent(geom: Union[PreGeometry, PostGeometry]) -> float:
    if isinstance(geom, PostGeometry):
        return geom.outer_radius
    step = 2.0 * math.pi / 256
    return max(abs(conformal_f(geom, cmath.exp(1j * (k * step))))
               for k in range(256))


class GEvaluator(NamedTuple):
    """Regime-aware g-function with an immutable geometry snapshot."""

    params: ModelParams
    geom: Union[PreGeometry, PostGeometry]
    exterior_radius: float

    @classmethod
    def build(cls, a: float, c: float) -> "GEvaluator":
        params = ModelParams.resolve(a, c)
        if params.regime is Regime.AT_CRITICALITY:
            raise DomainError(
                f"a = {a} is at the phase boundary; no exterior expansion applies")
        if params.regime is Regime.PRE:
            geom: Union[PreGeometry, PostGeometry] = pre_geometry(a, c)
            bound = max(abs(geom.beta), a, geom.b, _droplet_outer_extent(geom))
        else:
            geom = post_geometry(a, c)
            # b is outside the closed-loop skeleton here, so it does not bound it
            bound = max(abs(geom.beta), a, _droplet_outer_extent(geom))
        return cls(params=params, geom=geom,
                   exterior_radius=EXTERIOR_MARGIN * bound)

    def require_exterior(self, z: complex) -> None:
        if abs(z) <= self.exterior_radius:
            raise DomainError(
                f"|z| = {abs(z):.6g} inside the exterior gate radius "
                f"{self.exterior_radius:.6g}")

    def _require_off_charges(self, z: complex) -> None:
        if z == 0.0 or z == self.params.a:
            raise DomainError(f"g is singular at z = {z}")

    def g_post(self, z: complex) -> complex:
        """Closed form log z + c log(z/(z-a)) of the annular phase."""
        z = complex(z)
        self._require_off_charges(z)
        return cmath.log(z) + self.params.c * cmath.log(z / (z - self.params.a))

    def g_pre(self, z: complex) -> complex:
        """Closed form of the simply connected phase, through w = F(z).

        inverse_F raises BranchCutError for z on the cut.
        """
        z = complex(z)
        self._require_off_charges(z)
        w = inverse_F(self.geom, z)
        q = self.geom.q
        t = (self.params.a * q) ** 2
        w1 = (2.0 * t * q * q - t + 1.0) / (q * (1.0 + t))
        w2 = 2.0 * t * q / (1.0 + t)
        r = (t - 1.0) * (2.0 * t * q * q - t - 1.0) / (4.0 * t * q * q)
        d = (q * q - 1.0) * (t - 1.0) / (2.0 * q)
        return (cmath.log(z) + cmath.log((1.0 - q / w) / (1.0 - w1 / w))
                - r * cmath.log(1.0 - w2 / w) - d / (w - q))

    def g(self, z: complex) -> complex:
        if self.params.regime is Regime.POST:
            return self.g_post(z)
        return self.g_pre(z)


class RHCoefficients(NamedTuple):
    """Dressing coefficients of the two-pole rational correction."""

    gamma11: complex
    gamma12: complex
    h11: tuple  # 2x2 matrices as ((m00, m01), (m10, m11))
    h12: tuple
    h21: tuple
    h22: tuple
    beta: complex
    beta_bar: complex
    N: int


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
                          h21=_conj(h11), h22=_conj(h12),
                          beta=beta, beta_bar=beta_bar, N=N)


def _scaled(factor: complex, m: tuple) -> tuple:
    return tuple(tuple(factor * x for x in row) for row in m)


def _conj(m: tuple) -> tuple:
    return tuple(tuple(x.conjugate() for x in row) for row in m)


def _dressing(h1: tuple, h2: tuple, dz: complex) -> tuple:
    # I + h1/dz + h2/dz^2
    return tuple(tuple((1.0 if i == j else 0.0) + h1[i][j] / dz
                       + h2[i][j] / dz ** 2 for j in range(2)) for i in range(2))


def r_entries(coeffs: RHCoefficients, z: complex) -> tuple[complex, complex,
                                                           complex, complex]:
    """Entries of R1(z) R2(z) - I; each is O(1/z) far out and O(1/N) throughout.

    R1 conjugates h11 and h12 by R2, so R1 R2 = R2 (I + h11/dz1 + h12/dz1^2)
    with dz1 = z - beta_bar, and R2 is never inverted.
    """
    z = complex(z)
    if z == coeffs.beta or z == coeffs.beta_bar:
        raise DomainError(f"rational dressing has a pole at z = {z}")
    (a, b), (c, d) = _dressing(coeffs.h21, coeffs.h22, z - coeffs.beta)
    (e, f), (g, h) = _dressing(coeffs.h11, coeffs.h12, z - coeffs.beta_bar)
    # the 2x2 product R2 (I + h11/dz1 + h12/dz1^2), minus I
    return a * e + b * g - 1.0, a * f + b * h, c * e + d * g, c * f + d * h - 1.0


def res_r11_infinity(geom: PreGeometry, N: int) -> float:
    """Closed-form 1/z coefficient of R11: -q^2(1-a^4q^4)^2 / (16a(1-q^2)(1-a^4q^6)^2 N)."""
    a, q = geom.a, geom.q
    num = q * q * (1.0 - a ** 4 * q ** 4) ** 2
    den = 16.0 * a * (1.0 - q * q) * (1.0 - a ** 4 * q ** 6) ** 2 * N
    return -num / den


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


class PAsympResult(NamedTuple):
    value: complex
    error_class: str  # relative error order of the omitted terms


def p_asymp(evaluator: GEvaluator, z: complex, N: int) -> PAsympResult:
    """Exterior main term of the monic degree-N orthogonal polynomial.

    Annular phase: z^N (z/(z-a))^{cN}, relative error O(N^-inf).
    Simply connected phase:
    (sqrt(R F')(1 + R11) - sqrt(kappa F')/(F - q) R12) e^{Ng},
    relative error O(N^-2).
    """
    if N < 1:
        raise DomainError(f"need N >= 1, got {N}")
    z = complex(z)
    evaluator.require_exterior(z)
    if evaluator.params.regime is Regime.POST:
        return PAsympResult(value=cmath.exp(N * evaluator.g_post(z)),
                            error_class="N^-inf")
    geom = evaluator.geom
    coeffs = rh_coefficients(geom, N)
    r11, r12, _, _ = r_entries(coeffs, z)
    f_val = inverse_F(geom, z)
    s_val = _sqrt_through_cut(z, geom.beta.real, geom.beta.imag)
    f_prime = (1.0 + (z - geom.beta.real) / s_val) / (2.0 * geom.R)
    prefactor = (cmath.sqrt(geom.R * f_prime) * (1.0 + r11)
                 - cmath.sqrt(geom.kappa * f_prime) / (f_val - geom.q) * r12)
    return PAsympResult(value=prefactor * cmath.exp(N * evaluator.g_pre(z)),
                        error_class="N^-2")


def a11_asymp(N: int, a: float, c: float, regime: Regime) -> float:
    """Asymptotic subleading coefficient of the monic polynomial.

    Annular phase: c a N up to super-polynomially small terms.
    Simply connected phase: the leading slope equals -C1 from the g
    expansion, and the 1/N term is the closed-form 1/z coefficient of R11.
    """
    if N < 1:
        raise DomainError(f"need N >= 1, got {N}")
    if regime is Regime.POST:
        return c * a * N
    if regime is not Regime.PRE:
        raise DomainError("coefficient asymptotics need a definite phase")
    geom = pre_geometry(a, c)
    q = geom.q
    lead = (1.0 - a * a * q * q) * (2.0 - q * q - a * a * q ** 4) / (4.0 * a * q * q)
    return lead * N + res_r11_infinity(geom, N)


def dlogZ_da(N: int, a: float, c: float, regime: Regime) -> float:
    """d/da of the log partition function: 2N times the coefficient asymptote."""
    return 2.0 * N * a11_asymp(N, a, c, regime)
