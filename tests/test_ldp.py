"""Large deviations of the smallest LUE eigenvalue and the KC action."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

import oracles
from coulombgas import cli, exactfiniten, freeenergy, ldp
from coulombgas.errors import DomainError
from coulombgas.geometry import Regime


class TestMarchenkoPastur:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 5.0])
    def test_unit_mass(self, alpha):
        params = ldp.LUEParams.from_alpha(alpha)
        assert oracles.mp_total_mass(params) == pytest.approx(1.0, abs=1e-8)

    def test_edges(self):
        params = ldp.LUEParams.from_alpha(5.0)
        assert params.lambda_minus == pytest.approx((math.sqrt(6) - 1) ** 2,
                                                    abs=1e-12)
        assert params.lambda_plus == pytest.approx((math.sqrt(6) + 1) ** 2,
                                                   abs=1e-12)

    def test_soft_edge_constant(self):
        params = ldp.LUEParams.from_alpha(1.0)
        lm, lp = params.lambda_minus, params.lambda_plus
        delta = 0.5 * math.sqrt(lp - lm) / lm
        eps = 1e-6
        assert oracles.mp_density(params, lm + eps) / math.sqrt(eps) \
            == pytest.approx(delta / math.pi, rel=1e-4)

    def test_vanishes_outside(self):
        params = ldp.LUEParams.from_alpha(1.0)
        assert oracles.mp_density(params, params.lambda_minus - 0.1) == 0.0
        assert oracles.mp_density(params, params.lambda_plus + 0.1) == 0.0


class TestRateFunction:
    def test_vanishes_at_edge(self):
        lm = ldp.LUEParams.from_alpha(1.0).lambda_minus
        assert abs(ldp.phi(lm + 1e-6, 1.0)) < 1e-13

    def test_positive_inside_pushed_regime(self):
        lm = ldp.LUEParams.from_alpha(16 / 9).lambda_minus
        assert ldp.phi(lm + 1.0, 16 / 9) > 0.0
        for dt in (1e-3, 0.1, 1.0, 4.0):
            assert ldp.phi(lm + dt, 16 / 9) > 0.0

    def test_domain_error_at_wall(self):
        lm = ldp.LUEParams.from_alpha(1.0).lambda_minus
        with pytest.raises(DomainError):
            ldp.phi(lm, 1.0)
        with pytest.raises(DomainError):
            ldp.phi(lm - 0.5, 1.0)

    @pytest.mark.parametrize("alpha", [1.0, 16 / 9])
    def test_third_order_coefficient(self, alpha):
        # pointwise at dt=1e-3 the quartic correction is still below 1%;
        # the windowed fit removes it to ~0.2%
        lm = ldp.LUEParams.from_alpha(alpha).lambda_minus
        target = math.sqrt(alpha + 1) / (12.0 * lm * lm)
        assert ldp.phi(lm + 1e-3, alpha) / 1e-9 == pytest.approx(target, rel=0.01)

        dts = np.linspace(1e-3, 1e-2, 50)
        vals = np.array([ldp.phi(lm + dt, alpha) for dt in dts])
        basis = np.vstack([dts ** 3, dts ** 4]).T
        k3, _ = np.linalg.lstsq(basis, vals, rcond=None)[0]
        assert k3 == pytest.approx(target, rel=0.01)

    def test_monotone_growth(self):
        lm = ldp.LUEParams.from_alpha(1.0).lambda_minus
        ts = np.geomspace(lm + 1e-2, 1e3, 40)
        vals = [ldp.phi(float(t), 1.0) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_linear_far_field(self):
        assert abs(ldp.phi(1000.0, 1.0) - ldp.phi_large_t(1000.0, 1.0)) \
            / 1000.0 < 0.05

    def test_far_field_form(self):
        assert ldp.phi_large_t(123.0, 0.0) == 123.0
        assert ldp.phi_large_t(123.0, 2.0) == pytest.approx(
            123.0 - 2.0 * math.log(123.0), abs=1e-12)


class TestKCAction:
    @pytest.mark.parametrize("alpha", [1.0, 16 / 9, 5.0])
    def test_support_degenerates_at_edge(self, alpha):
        params = ldp.LUEParams.from_alpha(alpha)
        assert ldp.kc_U(params.lambda_minus, alpha) == pytest.approx(
            params.lambda_plus, abs=1e-8)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 16 / 9, 5.0])
    def test_action_matches_rate_function(self, alpha):
        params = ldp.LUEParams.from_alpha(alpha)
        edge = ldp.kc_action(params.lambda_minus, alpha)
        for t in np.linspace(params.lambda_minus + 0.05,
                             params.lambda_minus + 5.0, 12):
            gap = abs(ldp.phi(float(t), alpha)
                      - (ldp.kc_action(float(t), alpha) - edge))
            assert gap < 1e-10


class TestConstrainedDensity:
    @pytest.mark.parametrize("alpha", [1.0, 5.0])
    def test_unit_mass_and_nonnegative(self, alpha):
        t = ldp.LUEParams.from_alpha(alpha).lambda_minus + 1.0
        assert oracles.constrained_mass(t, alpha) == pytest.approx(1.0, abs=1e-8)
        lo, hi = oracles.constrained_support(t, alpha)
        assert lo == t
        for x in np.linspace(lo + 1e-9, hi - 1e-9, 100):
            assert oracles.constrained_density(t, alpha, float(x)) >= 0.0

    def test_relaxes_to_free_density(self):
        params = ldp.LUEParams.from_alpha(1.0)
        t = params.lambda_minus + 1e-4
        hi = ldp.kc_U(t, 1.0)
        xs = np.linspace(t + 0.05, hi - 0.05, 100)
        sup = max(abs(oracles.constrained_density(t, 1.0, float(x))
                      - oracles.mp_density(params, float(x))) for x in xs)
        assert sup < 1e-3

    def test_outside_support(self):
        t = ldp.LUEParams.from_alpha(1.0).lambda_minus + 1.0
        with pytest.raises(DomainError):
            oracles.constrained_density(t, 1.0, t - 0.1)


class TestLogProbability:
    def test_residual_shrinks_in_n(self):
        t = ldp.LUEParams.from_alpha(1.0).lambda_minus + 1.0
        residual = {}
        for n in (4, 8, 16):
            exact = ldp.exact_log_gap_probability(n, 1.0, t)
            residual[n] = abs(exact - ldp.ldp_log_probability(n, 1.0, t))
        assert residual[4] > residual[8] > residual[16]
        assert residual[16] < 0.2

    def test_pulled_regime_probability_near_one(self):
        t = ldp.LUEParams.from_alpha(1.0).lambda_minus - 0.5
        assert abs(ldp.exact_log_gap_probability(16, 1.0, t)) < 1e-2

    def test_no_wall_is_certain(self):
        assert ldp.exact_log_gap_probability(8, 1.0, -0.3) == 0.0

    def test_exact_compare_deep_in_pushed_regime(self, capsys):
        # at alpha = 57/32, n = 32 the Gram determinants span ~190 bits of
        # pivot decay; each exact_log_p must match a 1024-bit evaluation
        code = cli.run(["ldp", "--alpha", "57/32", "--grid=4:4.5:2", "--n",
                        "32", "--exact-compare"])
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert code == 0 and [row["t"] for row in rows] == [4.0, 4.5]
        for row in rows:
            prob = exactfiniten.lue_gap_probability(
                32, 57, Fraction(row["t"]), 32, precision_bits=1024)
            assert abs(row["exact_log_p"] - float(mp.log(prob))) < 1e-10

    def test_constant_toggle(self):
        # -Phi n^2 plus the constant order -log(alpha n)/12 + zeta'(-1) + Psi
        t = ldp.LUEParams.from_alpha(1.0).lambda_minus + 1.0
        want = (-64.0 * ldp.phi(t, 1.0) - math.log(8.0) / 12.0
                + freeenergy.ZETA_PRIME_MINUS_ONE + ldp.psi(t, 1.0))
        assert ldp.ldp_log_probability(8, 1.0, t) == pytest.approx(want, abs=1e-12)


class TestSinglePass:
    def test_rows_equal_two_solve_route_bit_for_bit(self, capsys):
        # the table solves the modulus once per point; energy_pre and fconst
        # called without q solve it on their own.  The grid starts one ulp
        # above lambda_-.
        alpha = 16 / 9
        lo = math.nextafter(ldp.LUEParams.from_alpha(alpha).lambda_minus,
                            math.inf)
        code = cli.run(["ldp", "--alpha", "16/9", f"--grid={lo!r}:5:2000"])
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert code == 0 and len(rows) == 2000 and rows[0]["t"] == lo
        for row in rows:
            t = row["t"]
            a, c = math.sqrt(t / alpha), 1.0 / alpha
            two_solves = (
                alpha * alpha * (freeenergy.energy_pre(a, c)
                                 - freeenergy.energy_post(a, c)),
                freeenergy.fconst(a, c, Regime.PRE)
                - freeenergy.fconst(a, c, Regime.POST))
            assert (row["phi"], row["psi"]) == two_solves, t
            assert (ldp.phi(t, alpha), ldp.psi(t, alpha)) == two_solves, t
        for t in (lo, rows[1]["t"], 2.0, 5.0):
            two_pass = (-ldp.phi(t, alpha) * 16 * 16
                        + (-math.log(alpha * 16) / 12.0
                           + freeenergy.ZETA_PRIME_MINUS_ONE
                           + ldp.psi(t, alpha)))
            assert ldp.ldp_log_probability(16, alpha, t) == two_pass, t

    def test_exact_compare_solves_the_modulus_once_per_row(self, monkeypatch,
                                                          capsys):
        # phi, psi and ldp_log_p of a row come from one solve_q call, and
        # ldp_log_p keeps the bits of the public ldp_log_probability
        calls = []
        solve_q = ldp.solve_q

        def counted(a, c):
            calls.append((a, c))
            return solve_q(a, c)

        monkeypatch.setattr(ldp, "solve_q", counted)
        code = cli.run(["ldp", "--alpha", "16/9", "--grid=2:5:4",
                        "--exact-compare", "--n", "9"])
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert code == 0 and len(calls) == len(rows) == 4
        for row in rows:
            assert row["ldp_log_p"] == ldp.ldp_log_probability(9, 16 / 9,
                                                               row["t"])
