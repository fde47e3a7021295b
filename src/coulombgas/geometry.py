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
from typing import NamedTuple, Union

from .errors import BranchCutError, DomainError, NoValidRoot

#: relative half-width of the critical window: classify refuses
#: |a - a_cri| <= TAU a_cri
TAU = 1e-12
#: least 1 - a^2 q^2 solve_q accepts from its large-a root: 2^-26 keeps half
#: of a double's 53 bits through the cancellation that forms it
GAP_FLOOR = 2.0 ** -26


class Regime(enum.Enum):
    POST = "post"
    PRE = "pre"


def a_cri(c: float) -> float:
    """Critical charge location sqrt(c+1) - sqrt(c) for given c, formed as
    1/(sqrt(c+1) + sqrt(c)) so that large c does not cancel it away."""
    if c <= 0:
        raise DomainError(f"c must be positive, got {c}")
    return 1.0 / (math.sqrt(c + 1.0) + math.sqrt(c))


def classify(a: float, c: float) -> Regime:
    """Resolve the phase of (a, c). a = 0 counts as post-critical by
    convention; a within TAU a_cri of a_cri has no phase and is refused."""
    if a < 0:
        raise DomainError(f"a must be nonnegative, got {a}")
    if c <= 0:
        raise DomainError(f"c must be positive, got {c}")
    edge = a_cri(c)
    width = TAU * edge
    if a < edge - width:
        return Regime.POST
    if a > edge + width:
        return Regime.PRE
    raise DomainError(
        f"a = {a!r} is within {TAU:g} * a_cri of the phase boundary "
        f"a_cri = {edge!r} at c = {c!r}: no droplet phase applies; perturb a")


class PreGeometry(NamedTuple):
    regime = Regime.PRE  # a class attribute, not a field
    a: float
    c: float
    q: float
    R: float
    kappa: float
    beta: complex
    beta_bar: complex
    b: float


class PostGeometry(NamedTuple):
    regime = Regime.POST  # a class attribute, not a field
    a: float
    c: float
    outer_radius: float
    inner_center: float
    inner_radius: float


Droplet = Union[PreGeometry, PostGeometry]


def _admissible(u: float, a: float) -> bool:
    # 0 < q^2 < 1 and kappa > 0, up to rounding at the critical edge
    return 0.0 < u < 1.0 + 1e-11 and a * a * u < 1.0 + 1e-11


def solve_q(a: float, c: float) -> float:
    """Admissible modulus q in (0, 1] for pre-critical (a, c); q = 1 exactly at a_cri.

    u = q^2 is the middle real root of u^3 - p u^2 + r = 0 (k = 1 in the
    trigonometric form): the smallest root is negative, since the cubic is
    r > 0 at u = 0, and the largest exceeds 2p/3, so u > 1 or a^2 u > 1 there.
    """
    if a <= 0 or c <= 0:
        raise DomainError(f"solve_q needs a > 0 and c > 0, got a={a}, c={c}")
    try:
        p = (a * a + 4.0 * c + 2.0) / (2.0 * a * a)
        r = 1.0 / (2.0 * a ** 4)
        P = -p * p / 3.0
        Q = -2.0 * p ** 3 / 27.0 + r
    except OverflowError as exc:
        raise DomainError(f"the modulus cubic overflows in double precision "
                          f"at a={a}, c={c}") from exc
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
        if _admissible(u, a) and abs(u ** 3 - p * u * u + r) \
                <= 2.0 ** -48 * (u ** 3 + p * u * u + r):
            q = math.sqrt(min(u, 1.0))
            # a root rounded onto a^2 q^2 > 1 (tiny c) goes to the fixed point
            if a * a * q * q <= 1.0:
                return q
    # From a ~ 2e4 the middle root u ~ 1/a^2 sits below the trig form's
    # rounding error, and near a_cri at large c the polish leaves a residual
    # above 16 ulps.  The root is the fixed point of u = 1/(a^2 sqrt(2(p-u))),
    # a contraction by u/(2(p-u)) < 1/4 for u < p/3, reached from u = 0.
    u = prev = 0.0
    for _ in range(4):
        if u >= p / 3.0:
            break
        prev, u = u, 1.0 / (a * a * math.sqrt(2.0 * (p - u)))
    if abs(u - prev) <= 1e-15 * u and _admissible(u, a):
        # kappa and the energy form 1 - a^2 q^2 ~ 2c/a^2 from terms near 1
        if 1.0 - a * a * u < GAP_FLOOR:
            raise DomainError(
                f"1 - a^2 q^2 = {1.0 - a * a * u:.3g} keeps fewer than half "
                f"the digits of a double at a={a}, c={c}")
        return math.sqrt(u)
    raise NoValidRoot(
        f"no root of the modulus cubic satisfies 0 < q^2 < 1, kappa > 0 "
        f"at a={a}, c={c}; parameters are likely post-critical")


def droplet(a: float, c: float) -> Droplet:
    """The droplet record of (a, c) in the phase classify gives it; the one
    constructor of PreGeometry and PostGeometry."""
    if classify(a, c) is Regime.POST:
        # abs keeps a = -0.0 at the origin 0.0
        return PostGeometry(a=a, c=c, outer_radius=math.sqrt(1.0 + c),
                            inner_center=abs(a), inner_radius=math.sqrt(c))
    q = solve_q(a, c)
    gap = 1.0 - a * a * q * q  # at tiny c, q can round onto a^2 q^2 >= 1
    if gap <= 0.0:
        raise DomainError(f"1 - a^2 q^2 = {gap:.3g} leaves no kappa > 0 in "
                          f"double precision at a={a}, c={c}")
    R = (1.0 + a * a * q * q) / (2.0 * a * q)
    kappa = (1.0 - q * q) * gap / (2.0 * a * q)
    beta = complex(R * q - kappa / q, 2.0 * math.sqrt(kappa * R))
    return PreGeometry(a=a, c=c, q=q, R=R, kappa=kappa, beta=beta,
                       beta_bar=beta.conjugate(), b=R / q)


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


def droplet_boundary(geom: Droplet, n_points: int) -> tuple:
    """The angles 2 pi k / n_points and the droplet boundary sampled at them,
    as (label, points) pairs.

    Post-critical: two circles, "outer" |z| = sqrt(1+c) and "inner"
    |z - a| = sqrt(c).  Pre-critical: the single curve "boundary",
    f(e^{i theta}).
    """
    if n_points < 8:
        raise DomainError(f"n_points must be at least 8, got {n_points}")
    thetas = tuple(2.0 * math.pi * k / n_points for k in range(n_points))
    if geom.regime is Regime.POST:
        outer = tuple(geom.outer_radius * cmath.exp(1j * t) for t in thetas)
        inner = tuple(geom.inner_center + geom.inner_radius * cmath.exp(1j * t)
                      for t in thetas)
        return thetas, (("outer", outer), ("inner", inner))
    curve = tuple(conformal_f(geom, cmath.exp(1j * t)) for t in thetas)
    return thetas, (("boundary", curve),)
