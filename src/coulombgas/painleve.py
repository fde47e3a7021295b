"""Tracy-Widom law from the Hastings-McLeod Painleve II transcendent.

The distribution function is

    F(t) = exp( -int_t^inf (x - t) hm_q(x)^2 dx ),

where hm_q solves hm_q''(s) = s hm_q(s) + 2 hm_q(s)^3 and matches Ai(s) as
s -> +infinity.  The transcendent is pinned at both ends: Ai(s_max) on the
right (wrong only at the Ai(s_max)^3 scale) and the branch asymptote
sqrt(-s/2)(1 + 1/(8 s^3)) on the left, with collocation in between.  A
one-sided march from Airy data cannot hold the branch: it sits on a
separatrix, and local errors amplify like exp((2 sqrt2 / 3)|s|^{3/2}),
about 1e13 by s = -10, so double precision shooting escapes near s = -9.
The integral beyond s_max is closed with the Airy primitives

    int_s^inf Ai(x)^2 dx       = Ai'(s)^2 - s Ai(s)^2,
    int_s^inf (x-s) Ai(x)^2 dx = (2 s^2 Ai(s)^2 - 2 s Ai'(s)^2 - Ai(s) Ai'(s)) / 3.

The transcendent is named hm_q throughout to avoid colliding with the droplet
modulus q(a, c); the two are unrelated.  The free-energy expansion inside the
transition window lives here too, since its constant term is log F at a
rescaled window coordinate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_bvp
from scipy.special import airy

from .errors import BlowUp, DomainError, GridTooShort, IdentityCheckFailure
from .freeenergy import LOG_2PI, ZETA_PRIME_MINUS_ONE, energy_post
from .geometry import critical_values

S_MAX = 8.0
S_MIN = -10.0
DEFAULT_TOL = 1e-10

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def airy_ai(x: float) -> float:
    """Ai(x), the boundary profile of the transcendent."""
    return float(airy(x)[0])


@dataclass(frozen=True)
class TWSolution:
    """Collocation-solved transcendent with suffix sums of its tail integrals.

    Immutable after construction; evaluation helpers only read it.
    """

    s_grid: np.ndarray  # descending; s_grid[0] = S_MAX
    q_vals: np.ndarray  # hm_q on s_grid, positive throughout
    ode_tol: float
    max_residual: float  # worst first-integral defect over the nodes
    _dense: object = field(repr=False, compare=False)
    _suffix_mass: np.ndarray = field(repr=False, compare=False)
    _suffix_moment: np.ndarray = field(repr=False, compare=False)


def _panels(dense, lo, hi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # (int hm_q^2, int x hm_q^2, int x hm_q + 2 hm_q^3) over each [lo, hi],
    # 12-point Gauss-Legendre on the dense interpolant, all panels at once
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    q = dense(x.ravel())[0].reshape(x.shape)
    q2 = q * q
    w = half[:, None] * _GL_WEIGHTS[None, :]
    return ((w * q2).sum(axis=1), (w * x * q2).sum(axis=1),
            (w * (x * q + 2.0 * q2 * q)).sum(axis=1))


def hastings_mcleod(tol: float = DEFAULT_TOL) -> TWSolution:
    """Solve hm_q'' = s hm_q + 2 hm_q^3 on [S_MIN, S_MAX] = [-10, 8].

    Two-point collocation: hm_q(S_MAX) = Ai(S_MAX) on the right and the branch
    asymptote sqrt(-s/2)(1 + 1/(8 s^3)) at the left anchor S_MIN.
    The left anchor truncation (relative 73/(128 s^6), under 6e-7 at -10)
    decays like exp(-(2 sqrt2/3)|s|^{3/2}) toward the interior.  Shooting from
    the right alone amplifies local error by that same factor grown leftward,
    about 1e13 at s = -10, so no one-sided double precision march can hold the
    branch; collocation splits the growth between the two anchors.  The
    first-integral defect

        hm_q'(s) - hm_q'(S_MAX) + int_s^{S_MAX} (x hm_q + 2 hm_q^3) dx

    stays below 10*tol on every mesh node (verified, not assumed).
    """
    if tol < 1e-12:
        raise DomainError(f"tol must be >= 1e-12, got {tol}")

    ai_right = airy_ai(S_MAX)
    q_left = math.sqrt(-S_MIN / 2.0) * (1.0 + 1.0 / (8.0 * S_MIN ** 3))

    def rhs(s, y):
        return np.vstack((y[1], s * y[0] + 2.0 * y[0] ** 3))

    def rhs_jac(s, y):
        jac = np.zeros((2, 2, s.size))
        jac[0, 1] = 1.0
        jac[1, 0] = s + 6.0 * y[0] ** 2
        return jac

    def bc(ya, yb):
        return np.array([ya[0] - q_left, yb[0] - ai_right])

    def bc_jac(ya, yb):
        return (np.array([[1.0, 0.0], [0.0, 0.0]]),
                np.array([[0.0, 0.0], [1.0, 0.0]]))

    mesh = np.linspace(S_MIN, S_MAX, 481)
    guess_q = np.where(mesh < -0.5, np.sqrt(np.maximum(-mesh, 0.25) / 2.0),
                       airy(np.maximum(mesh, -0.5))[0])
    guess = np.vstack((guess_q, np.gradient(guess_q, mesh)))
    sol = solve_bvp(rhs, bc, mesh, guess, fun_jac=rhs_jac, bc_jac=bc_jac,
                    tol=max(tol * 0.1, 5e-12), max_nodes=100000)
    if sol.status != 0:
        raise BlowUp(f"collocation failed to converge: {sol.message}")

    s_grid = sol.x[::-1].copy()
    q_vals = sol.y[0][::-1].copy()
    q_prime = sol.y[1][::-1]
    if q_vals.min() <= 0.0:
        raise BlowUp("transcendent crossed zero; left the positive branch")
    if np.any(q_vals > 10.0 * np.sqrt(np.maximum(-s_grid, 0.5) / 2.0)):
        raise BlowUp("transcendent escaped past 10*sqrt(-s/2); wrong branch")

    zero = np.zeros(1)
    mass, moment, force = (np.concatenate((zero, np.cumsum(part)))
                           for part in _panels(sol.sol, s_grid[1:], s_grid[:-1]))
    max_residual = float(np.abs(q_prime - q_prime[0] + force).max())
    if max_residual >= 10.0 * tol:
        raise IdentityCheckFailure(
            f"first-integral defect {max_residual:.3e} exceeds 10*tol = {10.0 * tol:.3e}")

    for arr in (s_grid, q_vals, mass, moment):
        arr.setflags(write=False)
    return TWSolution(s_grid=s_grid, q_vals=q_vals, ode_tol=tol,
                      max_residual=max_residual, _dense=sol.sol,
                      _suffix_mass=mass, _suffix_moment=moment)


def _tails(sol: TWSolution, t: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(int_t^inf hm_q^2, int_t^inf (x - t) hm_q^2) for a float or an array of t.

    Below s_max: the suffix sums from the nearest node at or above t plus one
    partial panel, closed at s_max by the Airy primitives.  Beyond s_max: the
    Airy primitives at t alone.
    """
    t = np.asarray(t, dtype=float)
    s_grid = sol.s_grid
    s_max = s_grid[0]
    if np.any(t < s_grid[-1]):
        raise GridTooShort(
            f"t = {np.min(t)} below the solved range [{s_grid[-1]}, {s_max}]")
    # integrals over [t, edge], edge = max(t, s_max); zero beyond s_max
    mass = np.zeros(t.shape)
    moment = np.zeros(t.shape)
    inside = t < s_max
    t_in = t[inside]
    # last node with s_grid[k] >= t (grid is descending)
    k = np.searchsorted(-s_grid, -t_in, side="right") - 1
    d_mass, d_moment, _ = _panels(sol._dense, t_in, s_grid[k])
    mass_in = sol._suffix_mass[k] + d_mass
    mass[inside] = mass_in
    moment[inside] = sol._suffix_moment[k] + d_moment - t_in * mass_in
    edge = np.maximum(t, s_max)
    ai, aip, _, _ = airy(edge)
    edge_mass = aip * aip - edge * ai * ai
    edge_moment = (2.0 * edge * edge * ai * ai - 2.0 * edge * aip * aip - ai * aip) / 3.0
    return mass + edge_mass, moment + edge_moment + (edge - t) * edge_mass


def _like_input(values: np.ndarray) -> float | np.ndarray:
    # a Python float for a scalar t, the array otherwise
    return values if np.ndim(values) else float(values)


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
