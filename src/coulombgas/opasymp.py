"""Exterior asymptotics of the planar monic orthogonal polynomials.

Outside the droplet the degree-N polynomial behaves like e^{N g(z)} times an
algebraic prefactor.  The annular phase has the closed form
g(z) = log z + c log(z/(z-a)); the simply connected phase needs quadrature:
g is recovered from its derivative

    2 g'(z) = a - c/(z-a) + (c+1)/z - y(z),
    y(z) = a (z-b) S(z) / ((z-a) z),

anchored at infinity, which sidesteps the additive constant entirely.  S is
the same square root with a vertical cut used by the exterior conformal
inverse, so the two agree branch for branch.

Anchoring needs care in doubles: h = g' - 1/z decays like 1/z^2, but its
formula subtracts O(1)-sized terms, so beyond |z| ~ 1e8 the roundoff noise
swamps the true value and naive quadrature to a far anchor diverges.
Instead the Laurent coefficients of h are extracted once by a Cauchy circle
average at a clean moderate radius; their termwise antiderivative P (with
P(infinity) = 0) evaluates g = log z + P(z) exactly on the far side, and
quadrature only ever runs on the bounded ray leg inside the switch radius.

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
here.  The g methods themselves only refuse z in {0, a} and paths that cross
the cut, since g extends continuously up to the droplet.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np
from scipy.integrate import quad

from .errors import BranchCutError, DomainError, SingularR2
from .geometry import (ModelParams, PostGeometry, PreGeometry, Regime,
                       _sqrt_through_cut, conformal_f, inverse_F,
                       post_geometry, pre_geometry)

EXTERIOR_MARGIN = 1.15
DEFAULT_QUAD_TOL = 1e-12


def _segment_distance(p0: complex, p1: complex, q0: complex, q1: complex) -> float:
    # distance between 2D segments [p0,p1] and [q0,q1]; 0 when they intersect
    def cross(u: complex, v: complex) -> float:
        return u.real * v.imag - u.imag * v.real

    d1, d2 = p1 - p0, q1 - q0
    s1 = cross(d1, q0 - p0)
    s2 = cross(d1, q1 - p0)
    s3 = cross(d2, p0 - q0)
    s4 = cross(d2, p1 - q0)
    if (s1 * s2 < 0.0) and (s3 * s4 < 0.0):
        return 0.0

    def point_seg(p: complex, a: complex, b: complex) -> float:
        ab = b - a
        denom = abs(ab) ** 2
        if denom == 0.0:
            return abs(p - a)
        t = max(0.0, min(1.0, ((p - a).real * ab.real + (p - a).imag * ab.imag) / denom))
        return abs(p - (a + t * ab))

    return min(point_seg(p0, q0, q1), point_seg(p1, q0, q1),
               point_seg(q0, p0, p1), point_seg(q1, p0, p1))


def _droplet_outer_extent(geom: Union[PreGeometry, PostGeometry]) -> float:
    if isinstance(geom, PostGeometry):
        return geom.outer_radius
    thetas = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    return max(abs(conformal_f(geom, cmath.exp(1j * t))) for t in thetas)


def _g_prime_pre(geom: PreGeometry, c: float, w: complex) -> complex:
    a = geom.a
    s = _sqrt_through_cut(w, geom.beta.real, geom.beta.imag)
    y = a * (w - geom.b) * s / ((w - a) * w)
    return 0.5 * (a - c / (w - a) + (c + 1.0) / w - y)


def _far_coefficients(geom: PreGeometry, c: float, radius: float) -> tuple:
    """Laurent coefficients d_2..d_15 of h(w) = g'(w) - 1/w at infinity.

    Cauchy circle averages d_j = mean_k h(w_k) w_k^j over 1024 points;
    aliasing folds in only orders past 1024, down by (bound/radius)^1024.
    Roundoff in d_j scales like eps * radius^{j-2}, which the w^{1-j} decay
    of the series overwhelms at any evaluation point beyond twice the
    sampling radius.
    """
    n = 1024
    ws = [radius * cmath.exp(2j * math.pi * k / n) for k in range(n)]
    hs = [_g_prime_pre(geom, c, w) - 1.0 / w for w in ws]
    return tuple(sum(h * w ** j for h, w in zip(hs, ws)) / n for j in range(2, 16))


@dataclass(frozen=True)
class GEvaluator:
    """Regime-aware g-function with an immutable geometry snapshot.

    Pure evaluation.  In the simply connected phase the far expansion of
    g' - 1/w is tabulated once at construction; past switch_radius the series
    primitive alone gives g, and inside it only a bounded ray is integrated
    numerically.  The construction anchors at infinity exactly.
    """

    params: ModelParams
    geom: Union[PreGeometry, PostGeometry]
    exterior_radius: float
    far_coefficients: tuple = ()
    switch_radius: float = 0.0

    @classmethod
    def build(cls, a: float, c: float) -> "GEvaluator":
        params = ModelParams.resolve(a, c)
        if params.regime is Regime.AT_CRITICALITY:
            raise DomainError(
                f"a = {a} is at the phase boundary; no exterior expansion applies")
        far: tuple = ()
        switch = 0.0
        if params.regime is Regime.PRE:
            geom: Union[PreGeometry, PostGeometry] = pre_geometry(a, c)
            bound = max(abs(geom.beta), a, geom.b, _droplet_outer_extent(geom))
            sample_radius = 8.0 * bound
            far = _far_coefficients(geom, c, sample_radius)
            switch = 2.0 * sample_radius
        else:
            geom = post_geometry(a, c)
            # b is outside the closed-loop skeleton here, so it does not bound it
            bound = max(abs(geom.beta), a, _droplet_outer_extent(geom))
        return cls(params=params, geom=geom,
                   exterior_radius=EXTERIOR_MARGIN * bound,
                   far_coefficients=far, switch_radius=switch)

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

    def _h(self, w: complex) -> complex:
        return _g_prime_pre(self.geom, self.params.c, w) - 1.0 / w

    def _series_primitive(self, w: complex) -> complex:
        # P(w) = sum_j d_j w^{1-j}/(1-j), the antiderivative of the far series
        # of h that vanishes at infinity; Horner in 1/w
        u = 1.0 / w
        acc = 0.0 + 0.0j
        for j in range(len(self.far_coefficients) + 1, 1, -1):
            acc = acc * u + self.far_coefficients[j - 2] / (1.0 - j)
        return acc * u

    def _quad_complex(self, func, lo: float, hi: float) -> complex:
        # scipy's complex_func path drops the sign of a reversed interval
        # (seen in scipy 1.17), so integrate lo < hi and orient here
        value = complex(quad(func, min(lo, hi), max(lo, hi),
                             epsabs=DEFAULT_QUAD_TOL, epsrel=DEFAULT_QUAD_TOL,
                             limit=200, complex_func=True)[0])
        return -value if hi < lo else value

    def _guard_ray(self, z: complex, z_ref: complex) -> None:
        geom = self.geom
        scale = max(1.0, abs(geom.beta), abs(z))
        if _segment_distance(z, z_ref, geom.beta_bar, geom.beta) < 1e-9 * scale:
            raise BranchCutError(
                f"integration ray from {z} crosses the cut [{geom.beta_bar}, {geom.beta}]")

    def _ray_integral(self, z: complex) -> complex:
        # int_{switch}^{z} (g'(w) - 1/w) dw along the radial ray, with
        # rho = r/v so the far leg becomes a smooth integral over v in (0, 1]
        r = abs(z)
        direction = z / r

        def integrand(v: float) -> complex:
            return self._h(direction * (r / v)) * (r / v ** 2)

        return -direction * self._quad_complex(integrand, r / self.switch_radius, 1.0)

    def g_pre(self, z: complex, path: str = "ray") -> complex:
        """Simply-connected-phase g, anchored at infinity via the far series.

        Past switch_radius the series primitive is the whole answer.  Inside,
        the remaining radial leg is integrated numerically; path="arc" swings
        along the switch circle from the positive real axis first (for the
        path-independence check).  Both paths are homotopic in the cut plane.
        """
        z = complex(z)
        self._require_off_charges(z)
        if path not in ("ray", "arc"):
            raise DomainError(f"path must be 'ray' or 'arc', got {path!r}")
        r = abs(z)
        if r >= self.switch_radius:
            return cmath.log(z) + self._series_primitive(z)
        z_switch = self.switch_radius * z / r
        self._guard_ray(z, z_switch)
        if path == "ray":
            return (cmath.log(z) + self._series_primitive(z_switch)
                    + self._ray_integral(z))

        theta = cmath.phase(z)

        def arc_integrand(phi: float) -> complex:
            w = self.switch_radius * cmath.exp(1j * phi)
            return self._h(w) * 1j * w

        return (cmath.log(z) + self._series_primitive(complex(self.switch_radius))
                + self._quad_complex(arc_integrand, 0.0, theta)
                + self._ray_integral(z))

    def g(self, z: complex, path: str = "ray") -> complex:
        if self.params.regime is Regime.POST:
            return self.g_post(z)
        return self.g_pre(z, path=path)


class RHCoefficients(NamedTuple):
    """Dressing coefficients of the two-pole rational correction."""

    gamma11: complex
    gamma12: complex
    h11: np.ndarray
    h12: np.ndarray
    h21: np.ndarray
    h22: np.ndarray
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
    h11 = pref11 * np.array([[diag, off], [off, -diag]], dtype=complex)
    pref12 = 5.0 * rk_quarter / (48.0 * math.sqrt(2.0) * gamma11 ** 1.5 * N)
    h12 = pref12 * np.array([[-1.0 + 1.0j, 1.0 + 1.0j],
                             [1.0 + 1.0j, 1.0 - 1.0j]], dtype=complex)
    return RHCoefficients(gamma11=gamma11, gamma12=gamma12, h11=h11, h12=h12,
                          h21=np.conj(h11), h22=np.conj(h12),
                          beta=beta, beta_bar=beta_bar, N=N)


def _inv2(m: np.ndarray) -> np.ndarray:
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det) < 1e-30:
        raise SingularR2(f"|det R2| = {abs(det):.3e} below invertibility floor")
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex) / det


def r_entries(coeffs: RHCoefficients, z: complex) -> tuple[complex, complex,
                                                           complex, complex]:
    """Entries of R1(z) R2(z) - I; each is O(1/z) far out and O(1/N) throughout."""
    z = complex(z)
    if z == coeffs.beta or z == coeffs.beta_bar:
        raise DomainError(f"rational dressing has a pole at z = {z}")
    eye = np.eye(2, dtype=complex)
    dz2 = z - coeffs.beta
    r2 = eye + coeffs.h21 / dz2 + coeffs.h22 / dz2 ** 2
    r2_inv = _inv2(r2)
    dz1 = z - coeffs.beta_bar
    r1 = eye + (r2 @ coeffs.h11 @ r2_inv) / dz1 + (r2 @ coeffs.h12 @ r2_inv) / dz1 ** 2
    prod = r1 @ r2 - eye
    return prod[0, 0], prod[0, 1], prod[1, 0], prod[1, 1]


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
