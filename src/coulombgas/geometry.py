"""Phase classification and droplet geometry for the point-charge planar gas.

The model is the 2D Coulomb gas in the potential |z|^2 - 2c log|z - a| with a >= 0,
c > 0. Depending on how far the charge sits from the origin the droplet is either
doubly connected (post-critical: an annulus-like region between two circles) or
simply connected (pre-critical: the image of the unit circle under a rational
conformal map). The transition happens at a_cri = sqrt(c+1) - sqrt(c).

Pre-critical geometry is controlled by the modulus q in (0,1), the admissible root
of the cubic (in u = q^2)

    u^3 - (a^2 + 4c + 2)/(2 a^2) u^2 + 1/(2 a^4) = 0,

subject to 0 < u < 1 and kappa > 0. Everything else (conformal radius R, kappa,
the map f and its inverse F, the endpoints beta, beta_bar) is closed-form in q.
"""
from __future__ import annotations

import cmath
import enum
import math
from typing import Callable, NamedTuple

from .errors import BranchCutError, DomainError, NoValidRoot

#: half-width of the AtCriticality window in a - a_cri
TAU = 1e-12


class Regime(enum.Enum):
    POST = "post"
    PRE = "pre"
    AT_CRITICALITY = "at-criticality"


class CriticalValues(NamedTuple):
    a_cri: float
    c_cri_at: Callable[[float], float]


def critical_values(c: float) -> CriticalValues:
    """Critical charge location for given c, and the inverse boundary map a -> c_cri."""
    if c <= 0:
        raise DomainError(f"c must be positive, got {c}")
    a_cri = math.sqrt(c + 1.0) - math.sqrt(c)

    def c_cri_at(a: float) -> float:
        if not 0.0 < a < 1.0:
            raise DomainError(f"c_cri(a) is defined for 0 < a < 1, got {a}")
        return (1.0 - a * a) ** 2 / (4.0 * a * a)

    return CriticalValues(a_cri, c_cri_at)


def classify(a: float, c: float) -> Regime:
    """Resolve the phase of (a, c). a = 0 counts as post-critical by convention."""
    if a < 0:
        raise DomainError(f"a must be nonnegative, got {a}")
    if c <= 0:
        raise DomainError(f"c must be positive, got {c}")
    a_cri = critical_values(c).a_cri
    if a < a_cri - TAU:
        return Regime.POST
    if a > a_cri + TAU:
        return Regime.PRE
    return Regime.AT_CRITICALITY


class ModelParams(NamedTuple):
    a: float
    c: float
    regime: Regime

    @classmethod
    def resolve(cls, a: float, c: float) -> "ModelParams":
        return cls(a=float(a), c=float(c), regime=classify(a, c))


class PreGeometry(NamedTuple):
    a: float
    c: float
    q: float
    R: float
    kappa: float
    beta: complex
    beta_bar: complex
    b: float
    z_plus: complex
    z_minus: complex


class PostGeometry(NamedTuple):
    a: float
    c: float
    outer_radius: float
    inner_center: float
    inner_radius: float
    beta: float
    b: float


def solve_q(a: float, c: float) -> float:
    """Admissible modulus q in (0, 1] for pre-critical (a, c); q = 1 exactly at a_cri.

    u = q^2 is the middle real root of u^3 - p u^2 + r = 0 (k = 1 in the
    trigonometric form): the smallest root is negative, since the cubic is
    r > 0 at u = 0, and the largest exceeds 2p/3, so u > 1 or a^2 u > 1 there.
    """
    if a <= 0 or c <= 0:
        raise DomainError(f"solve_q needs a > 0 and c > 0, got a={a}, c={c}")
    p = (a * a + 4.0 * c + 2.0) / (2.0 * a * a)
    r = 1.0 / (2.0 * a ** 4)
    P = -p * p / 3.0
    Q = -2.0 * p ** 3 / 27.0 + r
    m = 2.0 * math.sqrt(-P / 3.0)
    arg = 3.0 * Q / (P * m)
    if abs(arg) <= 1.0 + 1e-9:
        phi = math.acos(max(-1.0, min(arg, 1.0))) / 3.0
        u = m * math.cos(phi - 2.0 * math.pi / 3.0) + p / 3.0
        # Newton polish; the trig form can lose digits when p >> 1
        for _ in range(3):
            g = u ** 3 - p * u * u + r
            dg = 3.0 * u * u - 2.0 * p * u
            if dg == 0.0:
                break
            u -= g / dg
        edge = 1.0 + 1e-11
        if 0.0 < u < edge and a * a * u < edge:
            return math.sqrt(min(u, 1.0))
    raise NoValidRoot(
        f"no root of the modulus cubic satisfies 0 < q^2 < 1, kappa > 0 "
        f"at a={a}, c={c}; parameters are likely post-critical")


def pre_geometry(a: float, c: float) -> PreGeometry:
    q = solve_q(a, c)
    R = (1.0 + a * a * q * q) / (2.0 * a * q)
    kappa = (1.0 - q * q) * (1.0 - a * a * q * q) / (2.0 * a * q)
    beta = complex(R * q - kappa / q, 2.0 * math.sqrt(kappa * R))
    half_gap = cmath.sqrt(complex(kappa / R))
    return PreGeometry(
        a=a, c=c, q=q, R=R, kappa=kappa,
        beta=beta, beta_bar=beta.conjugate(), b=R / q,
        z_plus=q + 1j * half_gap, z_minus=q - 1j * half_gap,
    )


def post_geometry(a: float, c: float) -> PostGeometry:
    if a < 0 or c <= 0:
        raise DomainError(f"post_geometry needs a >= 0 and c > 0, got a={a}, c={c}")
    disc = (1.0 - a * a) ** 2 - 4.0 * a * a * c
    if disc <= 0:
        raise DomainError(
            f"(1-a^2)^2 - 4a^2c = {disc} <= 0: no post-critical geometry at a={a}, c={c}")
    if a == 0.0:
        # motherbody degenerates to the origin; b escapes to infinity
        return PostGeometry(a=a, c=c, outer_radius=math.sqrt(1.0 + c),
                            inner_center=0.0, inner_radius=math.sqrt(c),
                            beta=0.0, b=math.inf)
    root = math.sqrt(disc)
    return PostGeometry(
        a=a, c=c,
        outer_radius=math.sqrt(1.0 + c),
        inner_center=a,
        inner_radius=math.sqrt(c),
        beta=(a * a + 1.0 - root) / (2.0 * a),
        b=(a * a + 1.0 + root) / (2.0 * a),
    )


def conformal_f(geom: PreGeometry, w: complex) -> complex:
    """f(w) = R w - kappa/(w - q) - kappa/q; maps {|w| >= 1} onto the droplet exterior closure."""
    w = complex(w)
    if w == geom.q:
        raise DomainError("conformal map has a pole at w = q")
    return geom.R * w - geom.kappa / (w - geom.q) - geom.kappa / geom.q


def _sqrt_through_cut(z: complex, x0: float, y0: float) -> complex:
    # sqrt((z-beta)(z-beta_bar)) with the cut on the vertical segment [beta_bar, beta]
    # and ~ z at infinity, written so both principal-branch factors share the cut
    dz = z - x0
    return dz * cmath.sqrt(1.0 + (y0 / dz) ** 2)


def inverse_F(geom: PreGeometry, z: complex) -> complex:
    """Inverse of f on the droplet exterior: F(z) = [z + |beta| + sqrt((z-beta)(z-beta_bar))]/(2R)."""
    z = complex(z)
    x0 = geom.beta.real
    y0 = geom.beta.imag
    scale = max(1.0, abs(z), abs(geom.beta))
    if abs(z.real - x0) < 1e-12 * scale and abs(z.imag) <= y0 + 1e-12 * scale:
        raise BranchCutError(
            f"z={z} lies on the branch cut [{geom.beta_bar}, {geom.beta}]")
    abs_beta = geom.R * geom.q + geom.kappa / geom.q  # equals |beta| identically
    return (z + abs_beta + _sqrt_through_cut(z, x0, y0)) / (2.0 * geom.R)


class BoundaryComponent(NamedTuple):
    label: str
    theta: tuple[float, ...]
    points: tuple[complex, ...]
    closed: bool


class DropletBoundary(NamedTuple):
    components: tuple[BoundaryComponent, ...]
    chi: int  # Euler characteristic: 0 doubly connected, 1 simply connected


def droplet_boundary(params: ModelParams, n_points: int) -> DropletBoundary:
    """Sample the droplet boundary uniformly in angle.

    Post-critical: two circles (outer |z| = sqrt(1+c), inner |z - a| = sqrt(c)).
    Pre-critical: the single curve f(e^{i theta}).
    """
    if n_points < 8:
        raise DomainError(f"n_points must be at least 8, got {n_points}")
    if params.regime is Regime.AT_CRITICALITY:
        raise DomainError("the critical boundary curve is not sampled; perturb a")
    thetas = tuple(2.0 * math.pi * k / n_points for k in range(n_points))
    if params.regime is Regime.POST:
        g = post_geometry(params.a, params.c)
        outer = tuple(g.outer_radius * cmath.exp(1j * t) for t in thetas)
        inner = tuple(g.inner_center + g.inner_radius * cmath.exp(1j * t) for t in thetas)
        return DropletBoundary(
            components=(
                BoundaryComponent("outer", thetas, outer, True),
                BoundaryComponent("inner", thetas, inner, True),
            ),
            chi=0,
        )
    g = pre_geometry(params.a, params.c)
    curve = tuple(conformal_f(g, cmath.exp(1j * t)) for t in thetas)
    return DropletBoundary(
        components=(BoundaryComponent("boundary", thetas, curve, True),),
        chi=1,
    )
