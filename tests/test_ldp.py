"""Large deviations of the smallest LUE eigenvalue and the KC action."""

import json
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

import oracles
from coulombgas import cli, exactfiniten, freeenergy, geometry, ldp
from coulombgas.errors import DomainError


class TestMarchenkoPastur:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 5.0])
    def test_unit_mass(self, alpha):
        assert oracles.mp_total_mass(alpha) == pytest.approx(1.0, abs=1e-8)

    def test_edges(self):
        lm, lp = oracles.mp_edges(5.0)
        assert ldp.lambda_minus(5.0) == lm
        assert lm == pytest.approx((math.sqrt(6) - 1) ** 2, abs=1e-12)
        assert lp == pytest.approx((math.sqrt(6) + 1) ** 2, abs=1e-12)

    def test_underflowing_edge_refused(self):
        # (sqrt(alpha+1) - 1)^2 rounds to 0 at alpha = 1e-300; alpha = 0 has
        # the edge 0 exactly
        with pytest.raises(DomainError, match="alpha = 1e-300 is too small"):
            ldp.lambda_minus(1e-300)
        assert ldp.lambda_minus(0.0) == 0.0

    def test_soft_edge_constant(self):
        lm, lp = oracles.mp_edges(1.0)
        delta = 0.5 * math.sqrt(lp - lm) / lm
        eps = 1e-6
        assert oracles.mp_density(1.0, lm + eps) / math.sqrt(eps) \
            == pytest.approx(delta / math.pi, rel=1e-4)

    def test_vanishes_outside(self):
        lm, lp = oracles.mp_edges(1.0)
        assert oracles.mp_density(1.0, lm - 0.1) == 0.0
        assert oracles.mp_density(1.0, lp + 0.1) == 0.0


class TestRateFunction:
    def test_vanishes_at_edge(self):
        lm = ldp.lambda_minus(1.0)
        [rate], _ = ldp.phi_psi_grid((lm + 1e-6,), 1.0)
        assert abs(rate) < 1e-13

    def test_positive_inside_pushed_regime(self):
        lm = ldp.lambda_minus(16 / 9)
        rates = ldp.phi_psi_grid([lm + dt for dt in (1e-3, 0.1, 1.0, 4.0)],
                                 16 / 9)[0]
        assert all(rate > 0.0 for rate in rates)

    def test_domain_error_at_wall(self):
        # below the edge a point is refused; lambda_- is rounded, so at its
        # float and the one below the planar image decides (its phase at 80
        # digits), and a point that is not refused has a rate of 0 to
        # rounding
        lm = ldp.lambda_minus(1.0)
        with pytest.raises(DomainError):
            ldp.phi_psi_grid((lm - 0.5,), 1.0)
        for t in (math.nextafter(lm, 0.0), lm):
            if oracles.is_pre_reference(math.sqrt(t), 1.0):
                [rate], _ = ldp.phi_psi_grid((t,), 1.0)
                assert rate < 1e-13
            else:
                with pytest.raises(DomainError):
                    ldp.phi_psi_grid((t,), 1.0)

    def test_phase_edge_refused_by_name(self):
        # each t is classified by the exact phase of its planar image, which
        # can round to either side within a few floats of lambda_-.  At the
        # three floats above lambda_-, for alpha = 0.5 and 10^(k/2) from 0.1
        # to 1e8, a point with a pre-critical image gives finite values, and
        # any other a DomainError naming t, alpha and lambda_-; the image's
        # phase comes from its sign of a - a_cri at 80 digits
        for alpha in (0.5, *(10.0 ** (k / 2) for k in range(-2, 17))):
            lm = t = ldp.lambda_minus(alpha)
            for _ in range(3):
                t = math.nextafter(t, math.inf)
                pre = oracles.is_pre_reference(math.sqrt(t / alpha), 1 / alpha)
                try:
                    (rate,), (const,) = ldp.phi_psi_grid((t,), alpha)
                except DomainError as exc:
                    assert not pre, (alpha, t)
                    for name in (f"t = {t!r}", f"alpha = {alpha!r}",
                                 f"lambda_- = {lm!r}"):
                        assert name in str(exc)
                    continue
                assert pre and math.isfinite(rate) and math.isfinite(const)
        # one float above the cancelled (sqrt(alpha+1) - 1)^2 at alpha = 0.5
        # the modulus rounded to q = 1; that t is below the edge
        with pytest.raises(DomainError, match=re.escape(
                "t = 0.05051025721682186 at alpha = 0.5 has a post-critical "
                "planar image, outside the pushed regime; lambda_- = "
                "0.05051025721682189")):
            ldp.phi_psi_grid((0.05051025721682186,), 0.5)

    def test_rate_never_negative_above_the_edge(self):
        # Phi >= 0 by definition, but alpha^2 (energy_pre - energy_post)
        # rounded below 0 at 28 of the five floats above lambda_- for alpha
        # = 10^(k/2), k = -2..16 (-0.0333 at alpha = 1e7), and up to about
        # 1e-4 lambda_- above it; S(t) - S(lambda_-) did so down to -32 at
        # alpha = 1e8.  Each point is refused or gives a rate >= 0 by both
        # routes
        routes = (lambda ts, alpha: ldp.phi_psi_grid(ts, alpha)[0],
                  ldp.kc_rate_grid)
        for k in range(-2, 17):
            alpha = 10.0 ** (k / 2)
            lm = t = ldp.lambda_minus(alpha)
            ts = [lm * (1.0 + 10.0 ** -j) for j in range(4, 12)]
            for _ in range(5):
                t = math.nextafter(t, math.inf)
                ts.append(t)
            for t in ts:
                for route in routes:
                    try:
                        (rate,) = route((t,), alpha)
                    except DomainError:
                        continue
                    assert rate >= 0.0, (alpha, t)

    @pytest.mark.parametrize("alpha", [1.0, 16 / 9])
    def test_third_order_coefficient(self, alpha):
        # pointwise at dt=1e-3 the quartic correction is still below 1%;
        # the windowed fit removes it to ~0.2%
        lm = ldp.lambda_minus(alpha)
        target = math.sqrt(alpha + 1) / (12.0 * lm * lm)
        [rate], _ = ldp.phi_psi_grid((lm + 1e-3,), alpha)
        assert rate / 1e-9 == pytest.approx(target, rel=0.01)

        dts = np.linspace(1e-3, 1e-2, 50)
        vals = np.array(ldp.phi_psi_grid((lm + dts).tolist(), alpha)[0])
        basis = np.vstack([dts ** 3, dts ** 4]).T
        k3, _ = np.linalg.lstsq(basis, vals, rcond=None)[0]
        assert k3 == pytest.approx(target, rel=0.01)

    def test_monotone_growth(self):
        lm = ldp.lambda_minus(1.0)
        ts = np.geomspace(lm + 1e-2, 1e3, 40).tolist()
        vals = ldp.phi_psi_grid(ts, 1.0)[0]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_linear_far_field(self):
        [rate], _ = ldp.phi_psi_grid((1000.0,), 1.0)
        assert abs(rate - oracles.phi_large_t(1000.0, 1.0)) / 1000.0 < 0.05


class TestKCAction:
    @pytest.mark.parametrize("alpha", [1.0, 16 / 9, 5.0])
    def test_support_degenerates_at_edge(self, alpha):
        lm, lp = oracles.mp_edges(alpha)
        assert ldp.kc_U_grid((lm,), alpha)[0] == pytest.approx(lp, abs=1e-8)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 16 / 9, 5.0])
    def test_action_matches_rate_function(self, alpha):
        lm = ldp.lambda_minus(alpha)
        ts = np.linspace(lm + 0.05, lm + 5.0, 12).tolist()
        for rate, diff in zip(ldp.phi_psi_grid(ts, alpha)[0],
                              ldp.kc_rate_grid(ts, alpha)):
            assert abs(rate - diff) < 1e-10

    @pytest.mark.parametrize("alpha, t", [
        (1e17, 9.999999999999893e+16), (1e17, 1e17),
        (1e17, 1.0000000000000002e+17)],
        ids=["radicand-below-rounding", "edge-rounded-below-t",
             "radicand-negative-above-alpha"])
    def test_right_edge_solves_the_cubic(self, alpha, t, capsys):
        # at t ~ alpha ~ 1e17 the radicand s^3/(27 alpha^2 t) - 1 is ~4/t,
        # below the rounding of s^3 - 27 alpha^2 t; as a sum of terms >= 0
        # it keeps U within 8 eps, and the command answers
        [u] = ldp.kc_U_grid((t,), alpha)
        want = oracles.kc_U_reference(t, alpha)
        assert abs(mp.mpf(u) - want) <= 8 * sys.float_info.epsilon * want
        assert cli.run(["ldp", "--alpha", repr(alpha), "--t", repr(t)]) == 0
        [row] = json.loads(capsys.readouterr().out)["rows"]
        assert row["t"] == t and row["action_diff"] >= 0.0


class TestConstrainedDensity:
    @pytest.mark.parametrize("alpha", [1.0, 5.0])
    def test_unit_mass_and_nonnegative(self, alpha):
        t = ldp.lambda_minus(alpha) + 1.0
        assert oracles.constrained_mass(t, alpha) == pytest.approx(1.0, abs=1e-8)
        lo, hi = oracles.constrained_support(t, alpha)
        assert lo == t
        for x in np.linspace(lo + 1e-9, hi - 1e-9, 100):
            assert oracles.constrained_density(t, alpha, float(x)) >= 0.0

    def test_relaxes_to_free_density(self):
        t = ldp.lambda_minus(1.0) + 1e-4
        [hi] = ldp.kc_U_grid((t,), 1.0)
        xs = np.linspace(t + 0.05, hi - 0.05, 100)
        sup = max(abs(oracles.constrained_density(t, 1.0, float(x))
                      - oracles.mp_density(1.0, float(x))) for x in xs)
        assert sup < 1e-3

    def test_outside_support(self):
        t = ldp.lambda_minus(1.0) + 1.0
        with pytest.raises(DomainError):
            oracles.constrained_density(t, 1.0, t - 0.1)


def exact_log_p(n, t):
    # log P[smallest eigenvalue > t] at alpha = 1, so alpha*n = n
    return float(exactfiniten.lue_log_gap_probability(n, n, Fraction(t), n))


class TestLogProbability:
    def test_constant_term_leaves_an_order_n_minus_2_residual(self):
        # s_n = n^2 (exact - asymptotic) measures -2.7883e-3, -2.8117e-3
        # and -2.8174e-3 at n = 16, 32, 64: each doubling shrinks its
        # increment about 4-fold, so the residual is c/n^2 + O(n^-3), and
        # a wrong constant term would make s_n grow like n^2.  The
        # Richardson limit (4 s_64 - s_32)/3 measures -2.8193e-3.
        t = ldp.lambda_minus(1.0) + 1.0
        (rate,), (const,) = ldp.phi_psi_grid((t,), 1.0)
        s = {n: n * n * (exact_log_p(n, t)
                         - ldp.ldp_log_probability(n, 1.0, rate, const))
             for n in (16, 32, 64)}
        assert (s[32] - s[16]) / (s[64] - s[32]) >= 3.0
        assert -2.83e-3 <= (4.0 * s[64] - s[32]) / 3.0 <= -2.81e-3

    def test_pulled_regime_probability_near_one(self):
        # halfway to the edge the gap event is likely but not sure
        t = ldp.lambda_minus(1.0) / 2.0
        assert -1e-2 < exact_log_p(16, t) < 0.0

    def test_exact_compare_deep_in_pushed_regime(self, capsys):
        # at alpha = 57/32, n = 32 the Gram determinants span ~190 bits of
        # pivot decay; each exact_log_p must match a 1024-bit evaluation
        code = cli.run(["ldp", "--alpha", "57/32", "--grid=4:4.5:2", "--n",
                        "32", "--exact-compare"])
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert code == 0 and [row["t"] for row in rows] == [4.0, 4.5]
        for row in rows:
            log_p = exactfiniten.lue_log_gap_probability(
                32, 57, Fraction(row["t"]), 32, precision_bits=1024)
            assert abs(row["exact_log_p"] - float(log_p)) < 1e-10

    def test_constant_toggle(self):
        # -Phi n^2 plus the constant order -log(alpha n)/12 + zeta'(-1) + Psi,
        # down to n = 1, the least size taken
        t = ldp.lambda_minus(1.0) + 1.0
        (rate,), (const,) = ldp.phi_psi_grid((t,), 1.0)
        for n in (1, 8):
            want = (-n * n * rate - math.log(n) / 12.0
                    + freeenergy.ZETA_PRIME_MINUS_ONE + const)
            assert ldp.ldp_log_probability(n, 1.0, rate, const) \
                == pytest.approx(want, abs=1e-12)


class TestSinglePass:
    def test_rows_equal_two_solve_route_bit_for_bit(self, capsys):
        # the table solves the modulus once per point; here energy_pre and
        # fconst_pre get a solve each.  The grid starts at the first float
        # above lambda_- with a pre-critical planar image (at 80 digits),
        # and each row equals its one-point grid.
        alpha = 16 / 9
        lo = math.nextafter(ldp.lambda_minus(alpha), math.inf)
        while not oracles.is_pre_reference(math.sqrt(lo / alpha), 1 / alpha):
            lo = math.nextafter(lo, math.inf)
        code = cli.run(["ldp", "--alpha", "16/9", f"--grid={lo!r}:5:2000"])
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert code == 0 and len(rows) == 2000 and rows[0]["t"] == lo
        for row in rows:
            t = row["t"]
            a, c = math.sqrt(t / alpha), 1.0 / alpha
            q, _, w = geometry.solve_modulus(a, c)
            two_solves = (
                alpha * alpha * (freeenergy.energy_pre(a, c, q, w)
                                 - freeenergy.energy_post(a, c)),
                freeenergy.fconst_pre(a, *geometry.solve_modulus(a, c))
                - freeenergy.fconst_post(c))
            assert (row["phi"], row["psi"]) == two_solves, t
            (rate,), (const,) = ldp.phi_psi_grid((t,), alpha)
            assert (rate, const) == two_solves, t
        points = (lo, rows[1]["t"], 2.0, 5.0)
        for t, rate, const in zip(points, *ldp.phi_psi_grid(points, alpha)):
            two_pass = (-rate * 16 * 16
                        + (-math.log(alpha * 16) / 12.0
                           + freeenergy.ZETA_PRIME_MINUS_ONE
                           + const))
            assert ldp.ldp_log_probability(16, alpha, rate, const) == two_pass, t

    def test_exact_compare_solves_the_modulus_once_per_row(self, monkeypatch,
                                                          capsys):
        # phi, psi and ldp_log_p of a row come from one solve_modulus call,
        # and ldp_log_p keeps the bits of the public ldp_log_probability
        calls = []
        solve_modulus = ldp.solve_modulus

        def counted(a, c):
            calls.append((a, c))
            return solve_modulus(a, c)

        monkeypatch.setattr(ldp, "solve_modulus", counted)
        code = cli.run(["ldp", "--alpha", "16/9", "--grid=2:5:4",
                        "--exact-compare", "--n", "9"])
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert code == 0 and len(calls) == len(rows) == 4
        phis, psis = ldp.phi_psi_grid([row["t"] for row in rows], 16 / 9)
        for row, rate, const in zip(rows, phis, psis):
            assert row["ldp_log_p"] == ldp.ldp_log_probability(
                9, 16 / 9, rate, const)


@pytest.mark.parametrize("call, message", [
    (lambda: ldp.kc_U_grid((1.0,), 0.0),
     "constrained action needs alpha > 0, got 0.0"),
    (lambda: ldp.kc_U_grid((0.0,), 1.0),
     "constrained action needs t > 0, got 0.0"),
    (lambda: ldp.kc_U_grid((1e103,), 1.0),
     "constrained action overflows in double precision at t = 1e+103, "
     "alpha = 1.0"),
    # U(t) rounds to t: the action's log(U - t) has no value
    (lambda: ldp.kc_rate_grid((1e17,), 1e8),
     "no constrained action at alpha = 100000000.0, t = 1e+17: its right "
     "edge U(t) = 1e+17 does not exceed t in double precision"),
    (lambda: ldp.ldp_log_probability(0, 1.0, 0.1, 0.0),
     "need n >= 1, got 0"),
], ids=["kc-u-zero-alpha", "kc-u-zero-t", "kc-u-overflow",
        "kc-rate-edge-rounds-to-t", "log-probability-n-zero"])
def test_refuses_arguments_out_of_domain(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()
