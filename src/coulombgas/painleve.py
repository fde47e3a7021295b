"""Tracy-Widom law from the Hastings-McLeod Painleve II transcendent.

The distribution function is

    F(t) = exp( -int_t^inf (x - t) hm_q(x)^2 dx ),

where hm_q solves hm_q''(s) = s hm_q(s) + 2 hm_q(s)^3 and matches Ai(s) as
s -> +infinity.  The transcendent is pinned at both ends: Ai(s_max) on the
right (wrong only at the Ai(s_max)^3 scale) and the branch asymptote
sqrt(-s/2)(1 + 1/(8 s^3)) on the left, with Chebyshev collocation in between
(Trefethen, Spectral Methods in MATLAB, SIAM 2000, ch. 6 and 13).  A
one-sided march from Airy data cannot hold the branch: it sits on a
separatrix, and local errors amplify like exp((2 sqrt2 / 3)|s|^{3/2}),
about 1e13 by s = -10, so double precision shooting escapes near s = -9.
The tail integrals up to s_max are sums of positive Gauss-Legendre terms on
the Chebyshev series.  They stay accurate relative to their own size deep in
the right tail, where 1 - F(7.9) is ~1e-16 and an antiderivative series,
rounded at ~1e-15 of its largest values, would not.  The integral beyond
s_max is closed with the Airy primitives

    int_s^inf Ai(x)^2 dx       = Ai'(s)^2 - s Ai(s)^2,
    int_s^inf (x-s) Ai(x)^2 dx = (2 s^2 Ai(s)^2 - 2 s Ai'(s)^2 - Ai(s) Ai'(s)) / 3,

whose terms cancel, so they are formed in mpmath with guard bits.  Their
values at s_max, and Ai(s_max), are written out below, so mpmath loads only
for a point beyond s_max.  The distribution and its tail integral take a
sequence of floats t and return a list of floats, one per t.

The transcendent is named hm_q throughout to avoid colliding with the droplet
modulus q(a, c); the two are unrelated.  The free-energy expansion inside the
transition window lives here too, since its constant term is log F at a
rescaled window coordinate.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .errors import BlowUp, DomainError, GridTooShort, IdentityCheckFailure

# freeenergy and geometry load inside the three functions that use them, so
# tw compiles neither of them, nor the fractions module freeenergy imports

S_MAX = 8.0
S_MIN = -10.0
DEFAULT_TOL = 1e-10

# s = _MID + _HALF x maps the Chebyshev variable x in [-1, 1] onto [S_MIN, S_MAX]
_MID = 0.5 * (S_MAX + S_MIN)
_HALF = 0.5 * (S_MAX - S_MIN)
# trial degrees of the collocation; a trial is trusted once its last
# _CHOP_MARGIN coefficients of hm_q'' are all below tol.  The default tol is
# resolved at 96, whose 98 x 98 Newton system OpenBLAS still solves on one
# thread (from 100 x 100 on it wakes more, which costs CPU time here)
_TRIAL_DEGREES = (32, 64, 96, 128)
_CHOP_MARGIN = 8
_NEWTON_STEPS = 30
_GUARD_BITS = 64
# the branch asymptote at the left anchor
_Q_LEFT = math.sqrt(-S_MIN / 2.0) * (1.0 + 1.0 / (8.0 * S_MIN ** 3))

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
# nodes per Clenshaw pass in _panels: a block's recurrence stays in cache
_CLENSHAW_BLOCK = 32768

#: Ai(S_MAX) and _airy_tails(S_MAX), each rounded once from 117 bits
AI_AT_S_MAX = 4.6922076160992316e-08
AIRY_TAILS_AT_S_MAX = (3.811440496228176e-16, 6.533563206931612e-17)


def _airy_tails(t: float) -> tuple[float, float]:
    # (int_t^inf Ai^2, int_t^inf (x - t) Ai^2), each rounded once
    from mpmath import mp

    with mp.workprec(53 + _GUARD_BITS):
        t = mp.mpf(t)
        ai, aip = mp.airyai(t), mp.airyai(t, derivative=1)
        return (float(aip * aip - t * ai * ai),
                float((2 * t * t * ai * ai - 2 * t * aip * aip - ai * aip) / 3))


class TWSolution(NamedTuple):
    """Collocated transcendent as a Chebyshev series, with suffix sums of its
    tail integrals at the nodes.

    Its arrays are read-only; evaluation helpers only read it.
    """

    s_grid: np.ndarray  # Chebyshev-Lobatto nodes, descending; s_grid[0] = S_MAX
    q_vals: np.ndarray  # hm_q on s_grid, positive throughout
    coeffs: np.ndarray  # hm_q as a Chebyshev series in x = (s - _MID) / _HALF
    max_residual: float  # worst first-integral defect over the nodes
    # int_s^S_MAX hm_q^2 and int_s^S_MAX (x - s) hm_q^2 at each node s
    suffix_mass: np.ndarray
    suffix_moment: np.ndarray


def _panels(coeffs: np.ndarray, lo: np.ndarray, hi: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    # (int hm_q^2, int (x - lo) hm_q^2) over each [lo, hi] by 12-point
    # Gauss-Legendre on the series, all panels at once; every term is >= 0
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    # element-wise, so the blocks give the whole array's values bit for bit
    u = ((x - _MID) / _HALF).ravel()
    q = np.empty_like(u)
    for start in range(0, u.size, _CLENSHAW_BLOCK):
        block = slice(start, start + _CLENSHAW_BLOCK)
        q[block] = cheb.chebval(u[block], coeffs)
    q = q.reshape(x.shape)
    w = half[:, None] * _GL_WEIGHTS[None, :] * q * q
    return w.sum(axis=1), (w * (x - lo[:, None])).sum(axis=1)


def _nodes(n: int) -> np.ndarray:
    # Chebyshev-Lobatto points cos(pi j / n), from x = 1 down to x = -1
    return np.cos(np.pi * np.arange(n + 1) / n)


def _collocate(n: int, w_coeffs: np.ndarray, slope: float, ai: float,
               q_left: float) -> tuple[np.ndarray, float]:
    """Newton's method on the degree-n collocation system, from the series
    w_coeffs of hm_q'' and the given slope.

    The unknowns are w = hm_q'' on the nodes and slope = hm_q'(S_MAX).
    hm_q is ai + slope (s - S_MAX) plus the exact double integral from S_MAX
    of the interpolant of w, so hm_q(S_MAX) = ai holds by construction; the
    equations are w = s hm_q + 2 hm_q^3 on every node and hm_q(S_MIN) =
    q_left.  In this integral form the Jacobian is the identity plus a
    smoothing term, where a differentiation matrix would be conditioned like
    n^4.  Returns the Chebyshev coefficients of w, and the slope.
    """
    k = np.arange(n + 1)
    x = _nodes(n)
    s = _MID + _HALF * x
    w = cheb.chebval(x, w_coeffs)
    to_coeffs = np.cos(np.outer(k, np.pi * k / n)) * (2.0 / n)
    to_coeffs[:, [0, n]] /= 2.0
    to_coeffs[[0, n]] /= 2.0
    lift = cheb.chebvander(x, n + 2) @ cheb.chebint(to_coeffs, m=2, lbnd=1.0,
                                                    scl=_HALF)
    ramp = s - S_MAX
    jac = np.empty((n + 2, n + 2))
    jac[-1, :-1] = lift[-1]
    jac[-1, -1] = ramp[-1]
    try:
        with np.errstate(over="raise", invalid="raise"):
            for _ in range(_NEWTON_STEPS):
                q = ai + slope * ramp + lift @ w
                gain = s + 6.0 * q * q
                jac[:-1, :-1] = np.eye(n + 1) - gain[:, None] * lift
                jac[:-1, -1] = -gain * ramp
                residual = np.append(w - s * q - 2.0 * q ** 3, q[-1] - q_left)
                step = np.linalg.solve(jac, -residual)
                w = w + step[:-1]
                slope += step[-1]
                # quadratic convergence: the step just taken leaves ~its square
                if np.abs(step).max() <= 1e-10 * (1.0 + np.abs(w).max()):
                    return to_coeffs @ w, slope
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise BlowUp(f"Newton iteration broke down at degree {n}: {exc}") from exc
    raise BlowUp(f"Newton iteration did not converge in {_NEWTON_STEPS} steps "
                 f"at degree {n}")


def _rough_w(x: np.ndarray) -> np.ndarray:
    # the branch on the left and the Airy decay on the right, both near
    # Ai(0) = 0.355 at s = 0, put through the ODE
    s = _MID + _HALF * x
    q = np.where(s < 0.0, np.sqrt(0.13 + 0.5 * np.abs(s)),
                 0.36 * np.exp(-(2.0 / 3.0) * np.abs(s) ** 1.5))
    return s * q + 2.0 * q ** 3


@functools.cache
def _trial(i: int) -> tuple[np.ndarray, float]:
    """The trial solve at degree _TRIAL_DEGREES[i], from trial i - 1 (or
    the rough guess): (the series of hm_q'', the slope), read-only.

    No trial depends on tol, so every hastings_mcleod call in a process
    shares the trials it reaches.
    """
    if i:
        w_coeffs, slope = _trial(i - 1)
    else:
        w_coeffs = cheb.chebinterpolate(_rough_w, _TRIAL_DEGREES[0])
        slope = -math.sqrt(S_MAX) * AI_AT_S_MAX  # Ai'(s) ~ -sqrt(s) Ai(s)
    w_coeffs, slope = _collocate(_TRIAL_DEGREES[i], w_coeffs, slope,
                                 AI_AT_S_MAX, _Q_LEFT)
    w_coeffs.setflags(write=False)
    return w_coeffs, slope


def hastings_mcleod(tol: float = DEFAULT_TOL) -> TWSolution:
    """Solve hm_q'' = s hm_q + 2 hm_q^3 on [S_MIN, S_MAX] = [-10, 8].

    Chebyshev collocation (see _collocate): hm_q(S_MAX) = Ai(S_MAX) on the
    right and the branch asymptote sqrt(-s/2)(1 + 1/(8 s^3)) at the left
    anchor S_MIN.  The left anchor truncation (relative 73/(128 s^6), under
    6e-7 at -10) decays like exp(-(2 sqrt2/3)|s|^{3/2}) toward the interior.
    Shooting from the right alone amplifies local error by that same factor
    grown leftward, about 1e13 at s = -10, so no one-sided double precision
    march can hold the branch; collocation splits the growth between the two
    anchors.

    tol sets the degree.  Trial solves at rising degree stop once the last
    _CHOP_MARGIN Chebyshev coefficients of hm_q'' are below tol; the series
    is chopped after its last coefficient above tol (degree 32 at least) and
    the system is solved again at that degree.  The first-integral defect

        hm_q'(s) - hm_q'(S_MAX) + int_s^{S_MAX} (x hm_q + 2 hm_q^3) dx

    stays below 10*tol on every node (verified, not assumed).
    """
    if tol < 1e-12:
        raise DomainError(f"tol must be >= 1e-12, got {tol}")

    ai = AI_AT_S_MAX
    for i, n in enumerate(_TRIAL_DEGREES):
        w_coeffs, slope = _trial(i)
        above = np.flatnonzero(np.abs(w_coeffs) > tol)
        degree = max(_TRIAL_DEGREES[0], int(above[-1]) if above.size else 0)
        if degree <= n - _CHOP_MARGIN:
            break
    else:
        raise BlowUp(f"hm_q'' not resolved to {tol} by degree {n}")
    w_coeffs, slope = _collocate(degree, w_coeffs, slope, ai, _Q_LEFT)
    x = _nodes(degree)
    coeffs = cheb.chebint(cheb.chebint(w_coeffs, lbnd=1.0, k=slope, scl=_HALF),
                          lbnd=1.0, k=ai, scl=_HALF)

    s_grid = _MID + _HALF * x
    q_vals = cheb.chebval(x, coeffs)
    if q_vals.min() <= 0.0:
        raise BlowUp("transcendent crossed zero; left the positive branch")
    if np.any(q_vals > 10.0 * np.sqrt(np.maximum(-s_grid, 0.5) / 2.0)):
        raise BlowUp("transcendent escaped past 10*sqrt(-s/2); wrong branch")

    # hm_q' - slope is the exact integral of w from S_MAX, so the defect is
    # int_s^{S_MAX} (force - w), with no differentiated series in it
    force = cheb.chebadd(cheb.chebmul([_MID, _HALF], coeffs),
                         2.0 * cheb.chebmul(coeffs, cheb.chebmul(coeffs, coeffs)))
    defect = cheb.chebint(cheb.chebsub(force, w_coeffs), lbnd=1.0, scl=_HALF)
    max_residual = float(np.abs(cheb.chebval(x, defect)).max())
    if max_residual >= 10.0 * tol:
        raise IdentityCheckFailure(
            f"first-integral defect {max_residual:.3e} exceeds 10*tol = {10.0 * tol:.3e}")

    # leftward from S_MAX, panel by panel, in positive terms only:
    # moment(s_{j+1}) = moment(s_j) + (s_j - s_{j+1}) mass(s_j) + panel moment
    panel_mass, panel_moment = _panels(coeffs, s_grid[1:], s_grid[:-1])
    mass = np.concatenate(([0.0], np.cumsum(panel_mass)))
    moment = np.concatenate(([0.0], np.cumsum(
        (s_grid[:-1] - s_grid[1:]) * mass[:-1] + panel_moment)))
    for arr in (s_grid, q_vals, coeffs, mass, moment):
        arr.setflags(write=False)
    return TWSolution(s_grid=s_grid, q_vals=q_vals, coeffs=coeffs,
                      max_residual=max_residual, suffix_mass=mass,
                      suffix_moment=moment)


def _tails(sol: TWSolution, ts) -> tuple[np.ndarray, np.ndarray]:
    """(int_t^inf hm_q^2, int_t^inf (x - t) hm_q^2) at each float t of ts.

    Up to S_MAX: the suffix sums from the nearest node s_k >= t plus the
    partial panel [t, s_k], closed at S_MAX by the Airy primitives; all terms
    are positive.  Beyond S_MAX: the Airy primitives at t alone.
    """
    t = np.array(ts, dtype=float)
    if np.any(t < S_MIN):
        raise GridTooShort(
            f"t = {np.min(t)} below the solved range [{S_MIN}, {S_MAX}]")
    mass = np.empty(t.shape)
    moment = np.empty(t.shape)
    inside = t <= S_MAX
    t_in = t[inside]
    # last node with s_grid[k] >= t (the grid is descending)
    k = np.searchsorted(-sol.s_grid, -t_in, side="right") - 1
    node = sol.s_grid[k]
    node_mass = sol.suffix_mass[k]
    d_mass, d_moment = _panels(sol.coeffs, t_in, node)
    edge_mass, edge_moment = AIRY_TAILS_AT_S_MAX
    mass[inside] = d_mass + node_mass + edge_mass
    moment[inside] = (d_moment + sol.suffix_moment[k] + (node - t_in) * node_mass
                      + edge_moment + (S_MAX - t_in) * edge_mass)
    for i in np.flatnonzero(~inside):
        mass[i], moment[i] = _airy_tails(float(t[i]))
    return mass, moment


def tw_cdf_survival(sol: TWSolution, ts) -> tuple[list[float], list[float]]:
    """(F(t), 1 - F(t)) at each float t of ts, from one tail evaluation.

    F(t) = exp(-int_t^inf (x-t) hm_q^2) needs the solved range to cover t;
    1 - F(t) comes without cancellation, for the far right tail.
    """
    moment = _tails(sol, ts)[1]
    return np.exp(-moment).tolist(), (-np.expm1(-moment)).tolist()


def left_tail_log_cdf(x: float) -> float:
    """log F(-x) for large x > 0:

    (1/24) log 2 + zeta'(-1) - (1/8) log x - x^3/12, times the
    (1 + 3/(2^6 x^3)) correction; the next omitted term is O(x^-6).
    """
    from .freeenergy import ZETA_PRIME_MINUS_ONE

    if x <= 0.0:
        raise DomainError(f"left tail needs x > 0, got {x}")
    val = math.log(2.0) / 24.0 + ZETA_PRIME_MINUS_ONE - math.log(x) / 8.0 - x ** 3 / 12.0
    return val + math.log1p(3.0 / (64.0 * x ** 3))


def right_tail_survival(x: float) -> float:
    """1 - F(x) for large x > 0 to relative order x^(-3/2).

    The prefactor 1/(16 pi) follows from Laplace's method on the Airy tail:
    Ai(x)^2 ~ e^{-(4/3)x^{3/2}}/(4 pi sqrt x), and twice integrating the
    e^{-2 sqrt(x)(s-x)} local decay divides by 4x.
    """
    if x <= 0.0:
        raise DomainError(f"right tail needs x > 0, got {x}")
    return math.exp(-4.0 * x ** 1.5 / 3.0) / (16.0 * math.pi * x ** 1.5)


def critical_a(s: float, c: float, N: int) -> float:
    """Transition-window insertion point: the critical radius shifted by s N^(-2/3).

    Leading terms only; the window coordinate s > 0 lands on the annular side,
    s < 0 on the simply connected side.  An s so large that the shifted point
    falls below 0 is refused.
    """
    from .geometry import a_cri

    if c <= 0.0:
        raise DomainError(f"need c > 0, got {c}")
    if N < 1:
        raise DomainError(f"need N >= 1, got {N}")
    edge = a_cri(c)
    coeff = (edge ** (1.0 / 3.0)
             / (2.0 * c ** (1.0 / 6.0) * (c + 1.0) ** (1.0 / 6.0)))
    a_s = edge - coeff * s * N ** (-2.0 / 3.0)
    if a_s < 0.0:
        raise DomainError(f"window coordinate s={s} puts the insertion point "
                          f"at a={a_s} < 0 for N={N}, c={c}")
    return a_s


def critical_expansion(N: int, c: float, s: float, solution: TWSolution) -> float:
    """log Z_N inside the transition window.

    The annular-phase expansion through O(1) (freeenergy.expansion with no
    tail) at the shifted insertion point from critical_a, plus log F(c^(-2/3) s).
    The window coordinate must keep the shifted point nonnegative, which bounds
    |s| by O(N^(2/3)); outside that the expansion has no meaning.
    """
    from .freeenergy import expansion
    from .geometry import Regime

    a_s = critical_a(s, c, N)  # raises for c <= 0 or N < 1
    moment = float(_tails(solution, (c ** (-2.0 / 3.0) * s,))[1][0])  # -log F
    return expansion(N, a_s, c, Regime.POST, M=0).log_z - moment
