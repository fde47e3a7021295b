"""Phase classification and droplet geometry for the point-charge planar gas.

The model is the 2D Coulomb gas in the potential |z|^2 - 2c log|z - a| with a >= 0,
c > 0. Depending on how far the charge sits from the origin the droplet is either
doubly connected (post-critical: an annulus-like region between two circles) or
simply connected (pre-critical: the image of the unit circle under a rational
conformal map). The transition happens at a_cri = sqrt(c+1) - sqrt(c).

Pre-critical geometry is controlled by the modulus q in (0,1), the middle root
of 2 a^4 u^3 - a^2 (a^2 + 4c + 2) u^2 + 1 = 0 in u = q^2 with a^2 u < 1, and by
its gaps v = 1 - q^2, 0 at the phase edge, and w = 1 - a^2 q^2, about 2c/a^2
far out, each a root of the cubic written in it:

    K + 2a^2 (4c + 2 - 2a^2) v + a^2 (5a^2 - 4c - 2) v^2 - 2a^4 v^3 = 0,
    (a^2/2) w (2 - w) = (1 - w)^2 (2c + w),

K = (1 - a^2)^2 - 4c a^2 = (a^2 - a_cri^2)(a^2 - a_cri^-2); (a, c) is
pre-critical exactly when K < 0 or a > 1.  Everything else (R, kappa, the map
f and its inverse F, beta, beta_bar) is closed-form in q and the gaps.
"""
from __future__ import annotations

import cmath
import enum
import math
import sys
from typing import NamedTuple, Union

from .errors import BranchCutError, DomainError


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
    """The phase of (a, c), exact for the float pair: PRE where K < 0 or
    a > 1 (K alone turns positive again past 1/a_cri), else POST.  A pair
    whose exact K is 0 is on the phase boundary and is refused."""
    if not a >= 0.0:  # NaN included
        raise DomainError(f"a must be nonnegative, got {a}")
    if not 0.0 < c < math.inf:  # NaN included
        raise DomainError(f"c must be positive and finite, got {c}")
    k = _phase_k(a, c)
    if k == 0.0:
        raise DomainError(
            f"a = {a!r} is on the phase boundary a_cri = {a_cri(c)!r} at "
            f"c = {c!r}: no droplet phase applies; perturb a")
    return Regime.PRE if k is None or k < 0.0 else Regime.POST


class PreGeometry(NamedTuple):
    regime = Regime.PRE  # a class attribute, not a field
    a: float
    c: float
    q: float
    v: float  # 1 - q^2
    w: float  # 1 - a^2 q^2
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


def _phase_k(a: float, c: float) -> float | None:
    """K = (1 - a^2)^2 - 4c a^2, or None where a > 1 or a^2 (2c + 1) > 2
    (pre-critical whatever K's sign, as a_cri^2 < 1/(2c + 1)); no term
    overflows.  K is exact to one rounding, from the binary values of a and
    c, where its two terms are within a factor 3, and else within 10 eps."""
    if a > 1.0 or 2.0 * (c * a) * a + a * a > 2.0:
        return None
    d = (1.0 - a) * (1.0 + a)
    x, y = d * d, (c * a) * (4.0 * a)
    if abs(x - y) >= 0.5 * (x + y):
        return x - y
    (n, m), (p, r) = a.as_integer_ratio(), c.as_integer_ratio()
    return ((m * m - n * n) ** 2 * r - 4 * p * (n * m) ** 2) / (m ** 4 * r)


def in_double_range(a: float, c: float) -> bool:
    """Whether solve_modulus's far field at (a, c) stays in doubles: its
    cubics' a^2 + 4c is finite, and kappa ~ c/a^2 (2c/3 at a = 1) is above
    a third of the smallest normal double, where it keeps 50 bits."""
    return a * a + 4.0 * c < math.inf and a * a * sys.float_info.min < 2.0 * c


def _newton(c0: float, c1: float, c2: float, c3: float, x: float) -> float:
    # a root of c0 + c1 x + c2 x^2 + c3 x^3 from x > 0: after a step below
    # 2^-26 x, quadratic convergence has put x within rounding
    for _ in range(12):
        step = ((((c3 * x + c2) * x + c1) * x + c0)
                / ((3.0 * c3 * x + 2.0 * c2) * x + c1))
        x -= step
        if abs(step) <= 1.5e-8 * x:
            break
    return x


def solve_modulus(a: float, c: float) -> tuple[float, float, float] | None:
    """(q, v, w) = (q, 1 - q^2, 1 - a^2 q^2), each within 4 eps relative, at
    pre-critical (a, c), and None at post-critical (a, c) or where the exact
    K is 0 (classify's phase).  Newton's method finds v where a <= 1 and
    a^2 (2c + 1) <= 2 (q^2 >= 1/2), from K; w where a > 1 and 3a^2 > 4c + 1
    (w < 1/2); elsewhere s = a^2 q^2 in 2 s^3 - (a^2 + 4c + 2) s^2 + a^2 = 0.
    No gap is formed as 1 minus a number near 1.  A pre-critical (a, c) out
    of in_double_range (a ~ 1e154 sqrt(c)) or with a^2 subnormal (c ~ 1e307)
    is refused."""
    if not (a > 0.0 and c > 0.0):  # NaN included
        raise DomainError(
            f"solve_modulus needs a > 0 and c > 0, got a={a}, c={c}")
    k = _phase_k(a, c)
    if k is not None and not k < 0.0:
        return None
    a2 = a * a
    if not (a2 >= sys.float_info.min and in_double_range(a, c)):
        raise DomainError(f"the modulus cubic leaves the double range "
                          f"at a={a}, c={c}")
    if k is None:
        big = (a - 1.0) * (a + 1.0)
        if a > 1.0 and 3.0 * a2 > 4.0 * c + 1.0:
            lin, quad = big + 4.0 * c, 0.5 * a2 + 2.0 * c - 2.0
            r = 4.0 * c / lin  # scales the quadratic part's root
            w = _newton(2.0 * c, -lin, quad, 1.0,
                        r / (1.0 + math.sqrt(1.0 - 2.0 * r * (quad / lin))))
            s = 1.0 - w
            v = (big + w) / a2
        else:
            p = a2 + 4.0 * c + 2.0
            # s^2 = a^2/(p - 2s), iterated once from s = a/sqrt(p)
            s = _newton(a2, 0.0, -p, 2.0,
                        a / math.sqrt(p - 2.0 * a / math.sqrt(p)))
            w = 1.0 - s
            v = 1.0 - s / a2
        return math.sqrt(s) / a, v, w
    small = (1.0 - a) * (1.0 + a)
    lin = 2.0 * a2 * (4.0 * c + 2.0 * small)
    quad = a2 * (5.0 * a2 - 4.0 * c - 2.0)
    # the root of the quadratic part (its discriminant exceeds lin^2/4 and
    # the root stays below 1/2 on this route), then the cubic
    v = -2.0 * k / (lin + math.sqrt(lin * lin - 4.0 * quad * k))
    v = _newton(k, lin, quad, -2.0 * a2 * a2, v)
    return math.sqrt(1.0 - v), v, small + a2 * v


def droplet(a: float, c: float) -> Droplet:
    """The droplet record of (a, c) in the phase classify gives it; the one
    constructor of PreGeometry and PostGeometry.  Its kappa = v w/(2 a q)
    is within 8 eps relative."""
    if classify(a, c) is Regime.POST:
        # abs keeps a = -0.0 at the origin 0.0
        return PostGeometry(a=a, c=c, outer_radius=math.sqrt(1.0 + c),
                            inner_center=abs(a), inner_radius=math.sqrt(c))
    q, v, w = solve_modulus(a, c)
    R = (2.0 - w) / (2.0 * a * q)
    kappa = v * w / (2.0 * a * q)
    beta = complex(R * q - kappa / q, 2.0 * math.sqrt(kappa * R))
    return PreGeometry(a=a, c=c, q=q, v=v, w=w, R=R, kappa=kappa, beta=beta,
                       beta_bar=beta.conjugate(), b=R / q)


def conformal_f(geom: PreGeometry, w: complex) -> complex:
    """f(w) = R w - kappa/(w - q) - kappa/q; maps {|w| >= 1} onto the droplet exterior closure.
    w - q is (w - 1) + v/(1 + q), so a q that rounds to 1 leaves |w| = 1 no pole."""
    w = complex(w)
    if w == geom.q < 1.0:
        raise DomainError(f"conformal map has a pole at w = q for "
                          f"a={geom.a}, c={geom.c}")
    return (geom.R * w - geom.kappa / ((w - 1.0) + geom.v / (1.0 + geom.q))
            - geom.kappa / geom.q)


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
    circle = tuple(cmath.exp(1j * t) for t in thetas)
    if geom.regime is Regime.POST:
        outer = tuple(geom.outer_radius * e for e in circle)
        inner = tuple(geom.inner_center + geom.inner_radius * e for e in circle)
        return thetas, (("outer", outer), ("inner", inner))
    curve = tuple(conformal_f(geom, e) for e in circle)
    return thetas, (("boundary", curve),)
