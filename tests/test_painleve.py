"""Painleve II / extreme-value distribution and the transition window."""

import functools
import math
import re

import mpmath
import numpy as np
import pytest
from scipy.special import gamma

import oracles
from coulombgas import exactfiniten, freeenergy, geometry, painleve
from coulombgas.errors import (BlowUp, DomainError, GridTooShort,
                               IdentityCheckFailure)
from coulombgas.geometry import Regime


def q_at(sol, s: float) -> float:
    return oracles.hm_q(sol, s)


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
        assert oracles.airy_ai(0.0) == pytest.approx(
            3.0 ** (-2.0 / 3.0) / gamma(2.0 / 3.0), abs=1e-14)

    def test_defining_ode(self):
        h = 1e-4
        for x in np.linspace(-6.0, 6.0, 25):
            second = (oracles.airy_ai(x + h) - 2.0 * oracles.airy_ai(x)
                      + oracles.airy_ai(x - h)) / (h * h)
            assert abs(second - x * oracles.airy_ai(x)) < 1e-6

    def test_derivative_consistency(self):
        h = 1e-6
        for x in (-2.0, 0.0, 1.5):
            fd = (oracles.airy_ai(x + h) - oracles.airy_ai(x - h)) / (2 * h)
            assert oracles.airy_ai_prime(x) == pytest.approx(fd, abs=1e-9)

    def test_asymptotic_overlap(self):
        # the two-term asymptotic leaves the 385/(10368 zeta^2) term
        x = 5.0
        zeta = 2.0 / 3.0 * x ** 1.5
        two_term = (math.exp(-zeta) / (2 * math.sqrt(math.pi) * x ** 0.25)
                    * (1 - 5.0 / 72.0 / zeta))
        assert abs(oracles.airy_ai(x) / two_term - 1) < 385.0 / 10368.0 / zeta ** 2

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
        assert painleve.AI_AT_S_MAX == want_ai == oracles.airy_ai(
            painleve.S_MAX)
        assert painleve.AIRY_TAILS_AT_S_MAX == want_tails \
            == painleve._airy_tails(painleve.S_MAX)


class TestHastingsMcleod:
    def test_right_boundary_matches_airy(self, hm_solution):
        assert q_at(hm_solution, 8.0) / oracles.airy_ai(8.0) \
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
            oracles.hm_q(hm_solution, hm_solution.s_grid), hm_solution.q_vals,
            rtol=0.0, atol=1e-14)
        for s in (painleve.S_MIN - 0.5, painleve.S_MAX + 0.5):
            with pytest.raises(GridTooShort):
                oracles.hm_q(hm_solution, s)

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

    @pytest.mark.parametrize("tol, size", [(1.2e-11, 89), (None, 88)],
                             ids=["tail-at-chop-margin", "coefficient-at-tol"])
    def test_stops_at_the_first_resolved_trial(self, tol, size, monkeypatch):
        # degree 96's series of hm_q'' has its last coefficient above
        # 1.2e-11 at index 88 = 96 - _CHOP_MARGIN, so that trial resolves
        # the series and degree 128 is not consulted; at a tol equal to
        # that coefficient (1.29e-11) the series drops it and ends at 87
        trial, calls = painleve._trial, []

        def counted(i):
            calls.append(i)
            return trial(i)
        monkeypatch.setattr(painleve, "_trial", counted)
        if tol is None:
            tol = float(abs(trial(2)[0][88]))
        sol = painleve.hastings_mcleod(tol)
        assert (max(calls), sol.s_grid.size) == (2, size)

    @pytest.mark.parametrize("consts, final, tol, error, message", [
        ({"_NEWTON_STEPS": 1}, None, painleve.DEFAULT_TOL, BlowUp,
         "^Newton iteration did not converge in 1 steps at degree 32$"),
        ({"_Q_LEFT": 1e200}, None, painleve.DEFAULT_TOL, BlowUp,
         "^Newton iteration broke down at degree 32: overflow encountered"),
        ({"_TRIAL_DEGREES": (32,)}, None, 1e-12, BlowUp,
         "^hm_q'' not resolved to 1e-12 by degree 32$"),
        ({"_CHOP_MARGIN": -100}, None, painleve.DEFAULT_TOL,
         IdentityCheckFailure, r"^first-integral defect \d\.\d{3}e-0\d "
         r"exceeds 10\*tol = 1\.000e-09$"),
        ({}, -1.0, painleve.DEFAULT_TOL, BlowUp,
         "^transcendent crossed zero; left the positive branch$"),
        ({}, 100.0, painleve.DEFAULT_TOL, BlowUp,
         r"^transcendent escaped past 10\*sqrt\(-s/2\); wrong branch$"),
    ], ids=["newton-steps", "newton-overflow", "unresolved", "defect",
            "crossed-zero", "escaped"])
    def test_fault_guards(self, consts, final, tol, error, message,
                          monkeypatch):
        # each guard of the solve, forced: a fault in a constant, or the
        # chopped solve's w and slope times `final` (the trials as they
        # are); a fresh trial cache keeps the session's trials apart
        monkeypatch.setattr(painleve, "_trial",
                            functools.cache(painleve._trial.__wrapped__))
        for name, value in consts.items():
            monkeypatch.setattr(painleve, name, value)
        if final is not None:
            collocate = painleve._collocate

            def scaled(n, *args):
                w_coeffs, slope = collocate(n, *args)
                if n in painleve._TRIAL_DEGREES:
                    return w_coeffs, slope
                return final * w_coeffs, final * slope
            monkeypatch.setattr(painleve, "_collocate", scaled)
        with pytest.raises(error, match=message):
            painleve.hastings_mcleod(tol)


def cdf_at(sol, t: float) -> float:
    return painleve.tw_cdf_survival(sol, (t,))[0][0]


class TestDistribution:
    def test_upper_limit(self, hm_solution):
        assert cdf_at(hm_solution, 8.0) == pytest.approx(1.0, abs=1e-10)

    def test_frozen_median_region_value(self, hm_solution):
        assert cdf_at(hm_solution, -2.0) == pytest.approx(
            0.413224142505, abs=1e-9)

    def test_cdf_matches_fredholm_determinant(self, hm_solution):
        # the Airy-kernel determinant shares no code with the Painleve route;
        # gated in absolute error, since F(-8) ~ 1e-12 leaves the relative
        # error of the 60-node determinant at 2.7e-7 there (the largest
        # absolute difference, 5.3e-14, is at t = -2)
        ts = np.linspace(-8.0, 6.0, 57).tolist()
        want = np.array([oracles.tw_cdf_fredholm(t) for t in ts])
        np.testing.assert_allclose(painleve.tw_cdf_survival(hm_solution, ts)[0],
                                   want, rtol=0.0, atol=1e-12)

    def test_strictly_increasing(self, hm_solution):
        ts = np.linspace(-8.0, 6.0, 57).tolist()
        vals = painleve.tw_cdf_survival(hm_solution, ts)[0]
        assert all(0.0 < v < 1.0 for v in vals[:-1])
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_log_derivative_identity(self, hm_solution):
        h = 1e-5
        ts = (-3.0, -1.5, 0.5)
        masses = painleve._tails(hm_solution, ts)[0]
        for t, mass in zip(ts, masses):
            cdf_plus, cdf_minus = painleve.tw_cdf_survival(
                hm_solution, (t + h, t - h))[0]
            fd = (math.log(cdf_plus) - math.log(cdf_minus)) / (2 * h)
            assert fd == pytest.approx(mass, abs=1e-6)
            assert fd >= 0.0

    def test_left_tail(self, hm_solution):
        t = -8.0
        diff = abs(math.log(cdf_at(hm_solution, t))
                   - painleve.left_tail_log_cdf(abs(t)))
        assert diff < 3.0 / (2 ** 6 * abs(t) ** 3)

    def test_left_tail_refuses_the_origin(self):
        # x = 0 is outside the tail: a DomainError, not log(0)'s ValueError
        with pytest.raises(DomainError, match="left tail needs x > 0"):
            painleve.left_tail_log_cdf(0.0)

    @pytest.mark.parametrize("call, message", [
        # the right tail's twin of the refusal above
        (lambda: painleve.right_tail_survival(0.0),
         "right tail needs x > 0, got 0.0"),
        (lambda: painleve.critical_a(1, 1, 0), "need N >= 1, got 0"),
    ], ids=["right-tail-origin", "critical-a-n-zero"])
    def test_refuses_arguments_out_of_domain(self, call, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call()

    def test_right_tail(self, hm_solution):
        [survival] = painleve.tw_cdf_survival(hm_solution, (6.0,))[1]
        rel = abs(survival / painleve.right_tail_survival(6.0) - 1)
        assert rel < 0.20

    def test_far_right_tail_relative_accuracy(self, hm_solution):
        # beyond t = 6 hm_q = Ai to ~1e-10 relative, and 1 - F(t) falls to
        # ~1e-16 at 7.9: it must stay accurate relative to its own size
        ts = (6.0, 7.0, 7.9)
        survivals = painleve.tw_cdf_survival(hm_solution, ts)[1]
        masses = painleve._tails(hm_solution, ts)[0]
        for t, survival, mass in zip(ts, survivals, masses):
            want_mass, want_moment = airy_tails_oracle(t)
            assert survival == pytest.approx(want_moment, rel=1e-6, abs=0.0)
            assert mass == pytest.approx(want_mass, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("ts", [[-11.0], [-2.0, -11.0, 9.5]],
                             ids=["one-point", "array"])
    def test_grid_too_short(self, hm_solution, ts):
        with pytest.raises(GridTooShort):
            painleve.tw_cdf_survival(hm_solution, ts)

    def test_array_matches_points_and_airy_closure(self, hm_solution):
        # each value of a grid equals its one-point grid bit for bit, and
        # from S_MAX on the values are the Airy closure: at S_MAX the series
        # branch sums to AIRY_TAILS_AT_S_MAX, beyond it mpmath forms them
        grid = hm_solution.s_grid
        s_max = float(grid[0])
        assert s_max == painleve.S_MAX
        ts = [-9.3, -2.0, 0.37, 5.5, *grid[[1, grid.size // 2, -1]].tolist(),
              s_max, 9.5, 12.0]
        beyond = [t for t in ts if t >= s_max]
        mass, moment = np.array([airy_tails_oracle(t) for t in beyond]).T
        closure = [
            (lambda sol, t: painleve.tw_cdf_survival(sol, t)[0],
             np.exp(-moment)),
            (lambda sol, t: painleve.tw_cdf_survival(sol, t)[1],
             -np.expm1(-moment)),
            (lambda sol, t: painleve._tails(sol, t)[0].tolist(), mass)]
        for fn, closed in closure:
            batch = fn(hm_solution, ts)
            assert all(type(v) is float for v in batch)
            assert batch == [fn(hm_solution, (t,))[0] for t in ts]
            np.testing.assert_allclose(batch[-len(beyond):], closed,
                                       rtol=1e-14, atol=0.0)
        [mass_at], [moment_at] = painleve._tails(hm_solution, (s_max,))
        assert (mass_at, moment_at) == painleve.AIRY_TAILS_AT_S_MAX

    def test_blocked_panels_equal_one_clenshaw_pass(self, hm_solution):
        # _panels sums the series over blocks of nodes; one pass over all
        # of them gives the same values bit for bit, across block edges
        grid = hm_solution.s_grid
        hi = np.linspace(float(grid[-1]), float(grid[0]), 3001)[1:]
        lo = hi - 0.003
        assert 12 * hi.size > painleve._CLENSHAW_BLOCK
        x = (0.5 * (lo + hi))[:, None] \
            + (0.5 * (hi - lo))[:, None] * painleve._GL_NODES[None, :]
        q = np.polynomial.chebyshev.chebval(
            (x - painleve._MID) / painleve._HALF, hm_solution.coeffs)
        w = (0.5 * (hi - lo))[:, None] * painleve._GL_WEIGHTS[None, :] * q * q
        mass, moment = painleve._panels(hm_solution.coeffs, lo, hi)
        assert np.array_equal(mass, w.sum(axis=1))
        assert np.array_equal(moment, (w * (x - lo[:, None])).sum(axis=1))


class TestCriticalWindow:
    def test_window_center(self):
        for c in (9 / 16, 1.0):
            for n in (1, 8):
                assert painleve.critical_a(0.0, c, n) == pytest.approx(
                    geometry.a_cri(c), abs=1e-15)

    def test_window_reaches_the_origin(self):
        # at this s the shifted point a_cri - coeff s N^(-2/3) rounds to 0
        # exactly, which is taken; the next s up is refused
        s = 4.9897393824162215
        assert painleve.critical_a(s, 1.0, 8) == 0.0
        with pytest.raises(DomainError, match="puts the insertion point"):
            painleve.critical_a(math.nextafter(s, math.inf), 1.0, 8)

    def test_deep_annular_side_matches_plain_expansion(self, hm_solution):
        # far into s > 0 the window formula degenerates to the annular-phase
        # expansion evaluated at the shifted point (the distribution term dies)
        n, c, s = 32, 1.0, 8.0
        assert abs(math.log(cdf_at(hm_solution, 8.0))) < 1e-9
        a_s = painleve.critical_a(s, c, n)
        got = painleve.critical_expansion(n, c, s, solution=hm_solution)
        want = freeenergy.expansion(n, a_s, c, Regime.POST, M=0).log_z
        assert got == pytest.approx(want, abs=1e-9)

    def test_exact_residual_shrinks(self, hm_solution):
        a_cri = geometry.a_cri(1.0)
        residual = {}
        for n in (4, 8):
            exact = float(exactfiniten.moment_table(N=n, m=n, a=a_cri).log_z)
            got = painleve.critical_expansion(n, 1.0, 0.0, solution=hm_solution)
            residual[n] = abs(got - exact)
        assert residual[8] < residual[4]
