"""Painleve II / extreme-value distribution and the transition window."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import gamma

import oracles
from coulombgas import exactfiniten, freeenergy, geometry, painleve
from coulombgas.errors import DomainError, GridTooShort
from coulombgas.geometry import Regime


def q_at(sol, s: float) -> float:
    return painleve.hm_q(sol, s)


def airy_tails_oracle(t: float) -> tuple[float, float]:
    # int_t^inf Ai^2 and int_t^inf (x - t) Ai^2 by quadrature, sharing
    # nothing with the closed-form primitives.  mpmath.quad stops on an
    # absolute error estimate, so the integrand is scaled by Ai(t)^2 to be
    # of order one (unscaled, at t = 12, where Ai^2 ~ 1e-27, even 35 digits
    # left an error of 6e-17).  18 digits are the 17 a double needs and one
    # guard digit: every value is within 2e-19 of the closed forms.
    with mpmath.workdps(18):
        t = mpmath.mpf(t)
        scale = mpmath.airyai(t)
        limits = [t, t + 4, mpmath.inf]
        mass = mpmath.quad(lambda x: (mpmath.airyai(x) / scale) ** 2, limits)
        moment = mpmath.quad(lambda x: (x - t) * (mpmath.airyai(x) / scale) ** 2,
                             limits)
        return float(mass * scale ** 2), float(moment * scale ** 2)


class TestAiry:
    def test_origin_value(self):
        assert painleve.airy_ai(0.0) == pytest.approx(
            3.0 ** (-2.0 / 3.0) / gamma(2.0 / 3.0), abs=1e-14)

    def test_defining_ode(self):
        h = 1e-4
        for x in np.linspace(-6.0, 6.0, 25):
            second = (painleve.airy_ai(x + h) - 2.0 * painleve.airy_ai(x)
                      + painleve.airy_ai(x - h)) / (h * h)
            assert abs(second - x * painleve.airy_ai(x)) < 1e-6

    def test_derivative_consistency(self):
        h = 1e-6
        for x in (-2.0, 0.0, 1.5):
            fd = (painleve.airy_ai(x + h) - painleve.airy_ai(x - h)) / (2 * h)
            assert oracles.airy_ai_prime(x) == pytest.approx(fd, abs=1e-9)

    def test_asymptotic_overlap(self):
        # the two-term asymptotic leaves the 385/(10368 zeta^2) term
        x = 5.0
        zeta = 2.0 / 3.0 * x ** 1.5
        two_term = (math.exp(-zeta) / (2 * math.sqrt(math.pi) * x ** 0.25)
                    * (1 - 5.0 / 72.0 / zeta))
        assert abs(painleve.airy_ai(x) / two_term - 1) < 385.0 / 10368.0 / zeta ** 2

    def test_literals_at_s_max_are_the_117_bit_values(self):
        # the written-out constants equal the values the two functions round
        # once from 117 bits (53 + 64 guard bits), bit for bit
        with mpmath.workprec(117):
            s = mpmath.mpf(painleve.S_MAX)
            ai, aip = mpmath.airyai(s), mpmath.airyai(s, derivative=1)
            want_ai = float(ai)
            want_tails = (float(aip * aip - s * ai * ai),
                          float((2 * s * s * ai * ai - 2 * s * aip * aip
                                 - ai * aip) / 3))
        assert painleve.AI_AT_S_MAX == want_ai == painleve.airy_ai(
            painleve.S_MAX)
        assert painleve.AIRY_TAILS_AT_S_MAX == want_tails \
            == painleve._airy_tails(painleve.S_MAX)


class TestHastingsMcleod:
    def test_right_boundary_matches_airy(self, hm_solution):
        assert q_at(hm_solution, 8.0) / painleve.airy_ai(8.0) \
            == pytest.approx(1.0, abs=1e-8)

    def test_left_branch(self, hm_solution):
        assert q_at(hm_solution, -10.0) / math.sqrt(5.0) \
            == pytest.approx(1.0, abs=1e-3)

    def test_positive_everywhere(self, hm_solution):
        assert np.all(hm_solution.q_vals > 0)

    def test_self_convergence(self, hm_solution):
        finer = painleve.hastings_mcleod(tol=5e-11)
        assert abs(q_at(hm_solution, -5.0) - q_at(finer, -5.0)) < 1e-10

    def test_series_matches_nodes(self, hm_solution):
        np.testing.assert_allclose(
            painleve.hm_q(hm_solution, hm_solution.s_grid), hm_solution.q_vals,
            rtol=0.0, atol=1e-14)
        for s in (painleve.S_MIN - 0.5, painleve.S_MAX + 0.5):
            with pytest.raises(GridTooShort):
                painleve.hm_q(hm_solution, s)

    def test_smaller_tol_never_fewer_nodes(self, hm_solution):
        tols = (1e-6, 1e-8, 1e-9, 1e-10, 5e-11, 2e-11, 1e-11, 1e-12)
        counts = [hm_solution.s_grid.size if tol == painleve.DEFAULT_TOL
                  else painleve.hastings_mcleod(tol=tol).s_grid.size
                  for tol in tols]
        assert counts == sorted(counts)
        assert counts[0] < counts[-1]

    def test_tightest_tol(self):
        # the benchmark reference tails come from tw --tol 1e-12
        sol = painleve.hastings_mcleod(tol=1e-12)
        assert sol.max_residual <= 1e-12

    def test_tw_tails_check_fails_for_tol_blind_solver(self, monkeypatch):
        # such a solver drifts by exactly 0 when tol is halved; the report
        # check must still see that halving tol bought no nodes
        from coulombgas import report

        solve = painleve.hastings_mcleod
        monkeypatch.setattr(painleve, "hastings_mcleod",
                            lambda tol=painleve.DEFAULT_TOL: solve())
        passed, _, details = report.check_tw_tails()
        assert details["tol_halving_drift"] == 0.0
        assert not passed

    @pytest.mark.parametrize("kwargs", [
        {"tol": 0.0}, {"tol": -1e-10}, {"tol": 1e-13}])
    def test_preconditions(self, kwargs):
        with pytest.raises(DomainError):
            painleve.hastings_mcleod(**kwargs)


class TestDistribution:
    def test_upper_limit(self, hm_solution):
        assert painleve.tw_cdf(hm_solution, 8.0) == pytest.approx(1.0, abs=1e-10)

    def test_frozen_median_region_value(self, hm_solution):
        assert painleve.tw_cdf(hm_solution, -2.0) == pytest.approx(
            0.413224142505, abs=1e-9)

    def test_strictly_increasing(self, hm_solution):
        ts = np.linspace(-8.0, 6.0, 57)
        vals = [painleve.tw_cdf(hm_solution, float(t)) for t in ts]
        assert all(0.0 < v < 1.0 for v in vals[:-1])
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_log_derivative_identity(self, hm_solution):
        h = 1e-5
        for t in (-3.0, -1.5, 0.5):
            fd = (math.log(painleve.tw_cdf(hm_solution, t + h))
                  - math.log(painleve.tw_cdf(hm_solution, t - h))) / (2 * h)
            assert fd == pytest.approx(
                painleve.q2_tail_integral(hm_solution, t), abs=1e-6)
            assert fd >= 0.0

    def test_left_tail(self, hm_solution):
        t = -8.0
        diff = abs(math.log(painleve.tw_cdf(hm_solution, t))
                   - painleve.left_tail_log_cdf(abs(t)))
        assert diff < 3.0 / (2 ** 6 * abs(t) ** 3)

    def test_right_tail(self, hm_solution):
        rel = abs(painleve.tw_survival(hm_solution, 6.0)
                  / painleve.right_tail_survival(6.0) - 1)
        assert rel < 0.20

    def test_far_right_tail_relative_accuracy(self, hm_solution):
        # beyond t = 6 hm_q = Ai to ~1e-10 relative, and 1 - F(t) falls to
        # ~1e-16 at 7.9: it must stay accurate relative to its own size
        for t in (6.0, 7.0, 7.9):
            mass, moment = airy_tails_oracle(t)
            assert painleve.tw_survival(hm_solution, t) == pytest.approx(
                moment, rel=1e-6, abs=0.0)
            assert painleve.q2_tail_integral(hm_solution, t) == pytest.approx(
                mass, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("t", [-11.0, np.array([-2.0, -11.0, 9.5])],
                             ids=["scalar", "array"])
    def test_grid_too_short(self, hm_solution, t):
        with pytest.raises(GridTooShort):
            painleve.tw_cdf(hm_solution, t)

    def test_array_matches_points_and_airy_closure(self, hm_solution):
        grid = hm_solution.s_grid
        s_max = float(grid[0])
        ts = np.concatenate(([-9.3, -2.0, 0.37, 5.5],
                             grid[[1, grid.size // 2, -1]], [s_max, 9.5, 12.0]))
        beyond = ts >= s_max
        mass, moment = np.array([airy_tails_oracle(t) for t in ts[beyond]]).T
        closure = {painleve.tw_cdf: np.exp(-moment),
                   painleve.tw_survival: -np.expm1(-moment),
                   painleve.q2_tail_integral: mass}
        for fn, closed in closure.items():
            batch = fn(hm_solution, ts)
            points = [fn(hm_solution, float(t)) for t in ts]
            assert all(type(v) is float for v in points)
            np.testing.assert_allclose(batch, points, rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(batch[beyond], closed, rtol=1e-14, atol=0.0)


class TestCriticalWindow:
    def test_window_center(self):
        for c in (9 / 16, 1.0):
            assert painleve.critical_a(0.0, c, 8) == pytest.approx(
                geometry.critical_values(c).a_cri, abs=1e-15)

    def test_deep_annular_side_matches_plain_expansion(self, hm_solution):
        # far into s > 0 the window formula degenerates to the annular-phase
        # expansion evaluated at the shifted point (the distribution term dies)
        n, c, s = 32, 1.0, 8.0
        assert abs(math.log(painleve.tw_cdf(hm_solution, 8.0))) < 1e-9
        a_s = painleve.critical_a(s, c, n)
        got = painleve.critical_expansion(n, c, s, solution=hm_solution)
        want = freeenergy.expansion(n, a_s, c, Regime.POST, M=0).log_z
        assert got == pytest.approx(want, abs=1e-9)

    def test_exact_residual_shrinks(self, hm_solution):
        a_cri = geometry.critical_values(1.0).a_cri
        residual = {}
        for n in (4, 8):
            exact = float(exactfiniten.exact_logZ(
                exactfiniten.ExactContext(N=n, m=n, a=a_cri)))
            got = painleve.critical_expansion(n, 1.0, 0.0, solution=hm_solution)
            residual[n] = abs(got - exact)
        assert residual[8] < residual[4]
