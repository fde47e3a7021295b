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
The tail integrals below s_max are sums of positive Gauss-Legendre terms on
the Chebyshev series.  They stay accurate relative to their own size deep in
the right tail, where 1 - F(7.9) is ~1e-16 and an antiderivative series,
rounded at ~1e-15 of its largest values, would not.  The integral beyond
s_max is closed with the Airy primitives

    int_s^inf Ai(x)^2 dx       = Ai'(s)^2 - s Ai(s)^2,
    int_s^inf (x-s) Ai(x)^2 dx = (2 s^2 Ai(s)^2 - 2 s Ai'(s)^2 - Ai(s) Ai'(s)) / 3,

whose terms cancel, so they are formed in mpmath with guard bits.  Their
values at s_max, and Ai(s_max), are written out below, so mpmath loads only
for a point beyond s_max.

The transcendent is named hm_q throughout to avoid colliding with the droplet
modulus q(a, c); the two are unrelated.  The free-energy expansion inside the
transition window lives here too, since its constant term is log F at a
rescaled window coordinate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .errors import BlowUp, DomainError, GridTooShort, IdentityCheckFailure
from .freeenergy import LOG_2PI, ZETA_PRIME_MINUS_ONE, energy_post
from .geometry import critical_values

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

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)

#: airy_ai(S_MAX) and _airy_tails(S_MAX), each rounded once from 117 bits
AI_AT_S_MAX = 4.6922076160992316e-08
AIRY_TAILS_AT_S_MAX = (3.811440496228176e-16, 6.533563206931612e-17)


def airy_ai(x: float) -> float:
    """Ai(x), the boundary profile of the transcendent, rounded once."""
    from mpmath import mp

    with mp.workprec(53 + _GUARD_BITS):
        return float(mp.airyai(x))


def _airy_tails(t: float) -> tuple[float, float]:
    # (int_t^inf Ai^2, int_t^inf (x - t) Ai^2), each rounded once
    from mpmath import mp

    with mp.workprec(53 + _GUARD_BITS):
        t = mp.mpf(t)
        ai, aip = mp.airyai(t), mp.airyai(t, derivative=1)
        return (float(aip * aip - t * ai * ai),
                float((2 * t * t * ai * ai - 2 * t * aip * aip - ai * aip) / 3))


@dataclass(frozen=True)
class TWSolution:
    """Collocated transcendent as a Chebyshev series, with suffix sums of its
    tail integrals at the nodes.

    Immutable after construction; evaluation helpers only read it.
    """

    s_grid: np.ndarray  # Chebyshev-Lobatto nodes, descending; s_grid[0] = S_MAX
    q_vals: np.ndarray  # hm_q on s_grid, positive throughout
    coeffs: np.ndarray  # hm_q as a Chebyshev series in x = (s - _MID) / _HALF
    ode_tol: float
    max_residual: float  # worst first-integral defect over the nodes
    # int_s^S_MAX hm_q^2 and int_s^S_MAX (x - s) hm_q^2 at each node s, and
    # the Airy primitives at S_MAX that close both
    _suffix_mass: np.ndarray = field(repr=False, compare=False)
    _suffix_moment: np.ndarray = field(repr=False, compare=False)
    _edge: tuple = field(repr=False, compare=False)


def _panels(coeffs: np.ndarray, lo: np.ndarray, hi: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    # (int hm_q^2, int (x - lo) hm_q^2) over each [lo, hi] by 12-point
    # Gauss-Legendre on the series, all panels at once; every term is >= 0
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    q = cheb.chebval((x - _MID) / _HALF, coeffs)
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
    q_left = math.sqrt(-S_MIN / 2.0) * (1.0 + 1.0 / (8.0 * S_MIN ** 3))

    def rough_w(x: np.ndarray) -> np.ndarray:
        # the branch on the left and the Airy decay on the right, both near
        # Ai(0) = 0.355 at s = 0, put through the ODE
        s = _MID + _HALF * x
        q = np.where(s < 0.0, np.sqrt(0.13 + 0.5 * np.abs(s)),
                     0.36 * np.exp(-(2.0 / 3.0) * np.abs(s) ** 1.5))
        return s * q + 2.0 * q ** 3

    w_coeffs = cheb.chebinterpolate(rough_w, _TRIAL_DEGREES[0])
    slope = -math.sqrt(S_MAX) * ai  # Ai'(s) ~ -sqrt(s) Ai(s)
    for n in _TRIAL_DEGREES:
        w_coeffs, slope = _collocate(n, w_coeffs, slope, ai, q_left)
        above = np.flatnonzero(np.abs(w_coeffs) > tol)
        degree = max(_TRIAL_DEGREES[0], int(above[-1]) if above.size else 0)
        if degree <= n - _CHOP_MARGIN:
            break
    else:
        raise BlowUp(f"hm_q'' not resolved to {tol} by degree {n}")
    w_coeffs, slope = _collocate(degree, w_coeffs, slope, ai, q_left)
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
    return TWSolution(s_grid=s_grid, q_vals=q_vals, coeffs=coeffs, ode_tol=tol,
                      max_residual=max_residual, _suffix_mass=mass,
                      _suffix_moment=moment, _edge=AIRY_TAILS_AT_S_MAX)


def _tails(sol: TWSolution, t: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(int_t^inf hm_q^2, int_t^inf (x - t) hm_q^2) for a float or an array of t.

    Below S_MAX: the suffix sums from the nearest node s_k >= t plus the
    partial panel [t, s_k], closed at S_MAX by the Airy primitives; all terms
    are positive.  Beyond S_MAX: the Airy primitives at t alone.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < S_MIN):
        raise GridTooShort(
            f"t = {np.min(t)} below the solved range [{S_MIN}, {S_MAX}]")
    flat = t.ravel()
    mass = np.empty(flat.shape)
    moment = np.empty(flat.shape)
    inside = flat < S_MAX
    t_in = flat[inside]
    # last node with s_grid[k] >= t (the grid is descending)
    k = np.searchsorted(-sol.s_grid, -t_in, side="right") - 1
    node = sol.s_grid[k]
    node_mass = sol._suffix_mass[k]
    d_mass, d_moment = _panels(sol.coeffs, t_in, node)
    edge_mass, edge_moment = sol._edge
    mass[inside] = d_mass + node_mass + edge_mass
    moment[inside] = (d_moment + sol._suffix_moment[k] + (node - t_in) * node_mass
                      + edge_moment + (S_MAX - t_in) * edge_mass)
    for i in np.flatnonzero(~inside):
        mass[i], moment[i] = _airy_tails(float(flat[i]))
    return mass.reshape(t.shape), moment.reshape(t.shape)


def _like_input(values: np.ndarray) -> float | np.ndarray:
    # a Python float for a scalar t, the array otherwise
    return values if np.ndim(values) else float(values)


def hm_q(sol: TWSolution, s: float | np.ndarray) -> float | np.ndarray:
    """The transcendent on [S_MIN, S_MAX], summed from its Chebyshev series.

    Like q2_tail_integral, a float s gives a float and an array an array.
    """
    s = np.asarray(s, dtype=float)
    if np.any((s < S_MIN) | (s > S_MAX)):
        raise GridTooShort(f"s outside the solved range [{S_MIN}, {S_MAX}]")
    return _like_input(cheb.chebval((s - _MID) / _HALF, sol.coeffs))


def tw_cdf_survival(sol: TWSolution, t: float | np.ndarray
                    ) -> tuple[float | np.ndarray, float | np.ndarray]:
    """(F(t), 1 - F(t)) from one tail evaluation.

    F(t) = exp(-int_t^inf (x-t) hm_q^2) needs the solved range to cover t;
    1 - F(t) comes without cancellation, for the far right tail.  Like
    q2_tail_integral, a float t gives floats and an array of t gives arrays.
    """
    moment = _tails(sol, t)[1]
    return _like_input(np.exp(-moment)), _like_input(-np.expm1(-moment))


def tw_cdf(sol: TWSolution, t: float | np.ndarray) -> float | np.ndarray:
    """F(t) alone; see tw_cdf_survival."""
    return tw_cdf_survival(sol, t)[0]


def tw_survival(sol: TWSolution, t: float | np.ndarray) -> float | np.ndarray:
    """1 - F(t) alone; see tw_cdf_survival."""
    return tw_cdf_survival(sol, t)[1]


def q2_tail_integral(sol: TWSolution, t: float | np.ndarray) -> float | np.ndarray:
    """int_t^inf hm_q^2 dx, which equals d/dt log F(t)."""
    return _like_input(_tails(sol, t)[0])


def left_tail_log_cdf(x: float) -> float:
    """log F(-x) for large x > 0:

    (1/24) log 2 + zeta'(-1) - (1/8) log x - x^3/12, times the
    (1 + 3/(2^6 x^3)) correction; the next omitted term is O(x^-6).
    """
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
    s < 0 on the simply connected side.
    """
    if c <= 0.0:
        raise DomainError(f"need c > 0, got {c}")
    if N < 1:
        raise DomainError(f"need N >= 1, got {N}")
    a_cri = critical_values(c).a_cri
    coeff = (a_cri ** (1.0 / 3.0)
             / (2.0 * c ** (1.0 / 6.0) * (c + 1.0) ** (1.0 / 6.0)))
    return a_cri - coeff * s * N ** (-2.0 / 3.0)


def critical_expansion(N: int, c: float, s: float, solution: TWSolution) -> float:
    """log Z_N inside the transition window.

    The annular-phase terms are evaluated at the shifted insertion point from
    critical_a, and the constant picks up log F(c^(-2/3) s).  The window
    coordinate must keep the shifted point nonnegative, which bounds |s| by
    O(N^(2/3)); outside that the expansion has no meaning.
    """
    if c <= 0.0:
        raise DomainError(f"need c > 0, got {c}")
    if N < 1:
        raise DomainError(f"need N >= 1, got {N}")
    a_s = critical_a(s, c, N)
    log_f = -float(_tails(solution, c ** (-2.0 / 3.0) * s)[1])
    return (-energy_post(a_s, c) * N * N
            + 0.5 * N * math.log(N) + (LOG_2PI / 2.0 - 1.0) * N
            + 0.5 * math.log(N) + LOG_2PI / 2.0
            + math.log(c / (1.0 + c)) / 12.0 + log_f)
