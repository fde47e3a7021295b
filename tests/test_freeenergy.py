"""Energies, O(1) constants, and the large-N expansion of log Z_N."""

import math

import pytest
from mpmath import mp

import oracles
from coulombgas import exactfiniten, freeenergy, geometry
from coulombgas.geometry import Regime


def fd(fn, x: float, h: float = 1e-6) -> float:
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


class TestEnergyPost:
    def test_ginibre_limit(self):
        assert freeenergy.energy_post(0.0, 1e-12) == pytest.approx(0.75, abs=1e-10)

    def test_closed_value(self):
        assert freeenergy.energy_post(0.0, 1.0) == pytest.approx(
            2.25 - 2.0 * math.log(2.0), abs=1e-14)

    def test_a_derivative(self):
        a, c = 0.7, 1.0
        assert fd(lambda x: freeenergy.energy_post(x, c), a) == pytest.approx(
            -2.0 * c * a, abs=1e-8)


class TestEnergyPre:
    def test_matches_post_at_transition(self):
        for c in (9 / 16, 1.0):
            a = geometry.critical_values(c).a_cri + 1e-8
            assert freeenergy.energy_pre(a, c) == pytest.approx(
                freeenergy.energy_post(a, c), abs=1e-9)

    def test_far_field(self):
        # the inserted charge decouples: I + 2c log a -> 3/4
        assert freeenergy.energy_pre(100.0, 1.0) + 2.0 * math.log(100.0) \
            == pytest.approx(0.75, abs=1e-3)

    def test_ordering_above_transition(self):
        for c in (0.25, 1.0, 4.0):
            a_cri = geometry.critical_values(c).a_cri
            for da in (1e-3, 1e-2, 0.1, 1.0):
                assert freeenergy.energy_pre(a_cri + da, c) \
                    > freeenergy.energy_post(a_cri + da, c)


class TestRobinAndBreakdown:
    def test_post_small_c(self):
        assert freeenergy.robin_constant(0.3, 1e-12, Regime.POST) \
            == pytest.approx(0.5, abs=1e-10)

    def test_breakdown_identity_both_regimes(self):
        for a, c, regime in ((0.25, 9 / 16, Regime.POST), (0.3, 1.0, Regime.POST),
                             (1.0, 9 / 16, Regime.PRE), (1.2, 1.0, Regime.PRE)):
            energy = (freeenergy.energy_pre(a, c) if regime is Regime.PRE
                      else freeenergy.energy_post(a, c))
            assert (freeenergy.robin_constant(a, c, regime)
                    + freeenergy.potential_integral(a, c, regime)
                    == pytest.approx(energy, abs=1e-13))

    def test_pre_robin_far_field(self):
        assert freeenergy.robin_constant(100.0, 1.0, Regime.PRE) \
            + math.log(100.0) == pytest.approx(0.5, abs=1e-3)


class TestGAtInsertionPoint:
    def test_a_derivative_is_aq2(self):
        for a, c in ((1.0, 9 / 16), (1.2, 1.0), (2.0, 1.0)):
            q = geometry.solve_q(a, c)
            assert fd(lambda x: freeenergy.re_g_at_a(x, c), a) == pytest.approx(
                a * q * q, abs=1e-8)

    def test_far_field(self):
        assert freeenergy.re_g_at_a(100.0, 1.0) - math.log(100.0) \
            == pytest.approx(0.0, abs=1e-3)


class TestClosedFormDerivatives:
    def test_energy_derivative(self):
        for a in (0.9, 1.2, 2.0):
            assert freeenergy.d_energy_pre_da(a, 1.0) == pytest.approx(
                fd(lambda x: freeenergy.energy_pre(x, 1.0), a), abs=1e-7)

    def test_fconst_derivative(self):
        for a in (0.9, 1.2, 2.0):
            assert freeenergy.d_fconst_pre_da(a, 1.0) == pytest.approx(
                fd(lambda x: freeenergy.fconst(x, 1.0, Regime.PRE), a), abs=1e-7)

    def test_difference_derivative_closed_form(self):
        # d/da (I_pre - I_post) has a positive closed form above the transition
        c = 1.0
        a_cri = geometry.critical_values(c).a_cri
        for a in (a_cri + 0.05, 1.2, 2.0, 4.0):
            q = geometry.solve_q(a, c)
            closed = (1 - q * q) ** 2 * (1 - a**4 * q**4) / (2 * a * q**4)
            assert closed > 0
            assert freeenergy.d_energy_pre_da(a, c) - (-2 * c * a) \
                == pytest.approx(closed, rel=1e-10)
        q1 = geometry.solve_q(a_cri * (1 + 1e-9), c)
        assert (1 - q1 * q1) ** 2 * (1 - a_cri**4 * q1**4) / (2 * a_cri * q1**4) \
            == pytest.approx(0.0, abs=1e-8)


class TestFconstAndDetZeta:
    def test_post_closed_values(self):
        assert freeenergy.fconst(0.3, 1.0, Regime.POST) == pytest.approx(
            math.log(0.5) / 12.0, abs=1e-15)
        assert freeenergy.detzeta_log(0.3, 1.0, Regime.POST) == pytest.approx(
            -math.log(0.5) / 6.0, abs=1e-15)

    def test_pre_far_field(self):
        assert freeenergy.fconst(100.0, 1.0, Regime.PRE) == pytest.approx(
            0.0, abs=1e-3)

    def test_pre_conformal_route_matches_closed_form(self):
        # detzeta_log comes from conformal data; fconst from the q closed form
        for a, c in ((1.0, 9 / 16), (1.2, 1.0), (2.5, 0.25)):
            q = geometry.solve_q(a, c)
            aq2 = a * a * q * q
            closed = -math.log((1 + aq2 - 2 * aq2 * q * q) ** 4
                               / ((1 - q * q) ** 3 * (1 - a**4 * q**6)
                                  * (1 + aq2) ** 4)) / 12.0
            assert freeenergy.detzeta_log(a, c, Regime.PRE) == pytest.approx(
                closed, abs=1e-12)

    def test_zw_relation_both_regimes(self):
        for a, c, regime in ((0.2, 1.0, Regime.POST), (1.2, 1.0, Regime.PRE),
                             (0.25, 9 / 16, Regime.POST), (1.0, 9 / 16, Regime.PRE)):
            assert freeenergy.fconst(a, c, regime) == pytest.approx(
                -0.5 * freeenergy.detzeta_log(a, c, regime), abs=1e-12)


class TestExpansion:
    def test_term_structure(self):
        for regime, chi in ((Regime.POST, 0), (Regime.PRE, 1)):
            a = 0.2 if regime is Regime.POST else 1.2
            t = freeenergy.expansion(8, a, 1.0, regime).terms
            assert t.chi == chi
            assert t.nlogn == 0.5
            assert t.n_coeff == pytest.approx(math.log(2 * math.pi) / 2 - 1)
            assert t.logn == pytest.approx((6 - chi) / 12)

    def test_post_tail_coefficients(self):
        bern = freeenergy.bernoulli_numbers(8)
        c = 1.0
        tail = dict(freeenergy.expansion(8, 0.2, c, Regime.POST, M=4).terms.tail)
        assert tail[-1] == pytest.approx(float(bern[2]) / 2, abs=1e-16)
        assert tail[-3] == pytest.approx(float(bern[4]) / 12, abs=1e-16)
        assert tail[-2] == pytest.approx(
            float(bern[4]) / 8 * ((c + 1) ** -2 - c ** -2), abs=1e-16)
        assert tail[-4] == pytest.approx(
            float(bern[6]) / 24 * ((c + 1) ** -4 - c ** -4), abs=1e-16)

    def test_post_reference_a0(self):
        # residual sits at ~1.05x the bare first omitted term (the omitted
        # N^-3 and N^-4 terms add constructively), within the 3x convention
        for n in (4, 8, 16):
            got = freeenergy.expansion(n, 0.0, 1.0, Regime.POST, M=2).log_z
            assert abs(got - freeenergy.reference_logZ(n, 1.0)) \
                < 3.0 * freeenergy.first_omitted_tail_term(n, 1.0, 2)

    def test_post_exact_decay(self):
        for n in (4, 8, 16):
            exact = float(exactfiniten.exact_logZ(
                exactfiniten.ExactContext(N=n, m=n, a=0.2)))
            got = freeenergy.expansion(n, 0.2, 1.0, Regime.POST, M=2).log_z
            assert abs(got - exact) \
                < 3.0 * freeenergy.first_omitted_tail_term(n, 1.0, 2)

    def test_pre_residual_ratio(self):
        residual = {}
        for n in (4, 8, 16):
            exact = float(exactfiniten.exact_logZ(
                exactfiniten.ExactContext(N=n, m=n, a=1.2)))
            residual[n] = abs(
                freeenergy.expansion(n, 1.2, 1.0, Regime.PRE).log_z - exact)
        # O(N^-1) error class: halving ratio 2 within +-30%
        assert 1.4 < residual[4] / residual[8] < 2.6
        assert 1.4 < residual[8] / residual[16] < 2.6


class TestReferenceAndBarnes:
    def test_unit_partition_functions(self):
        assert freeenergy.reference_logZ(1, 1.0) == pytest.approx(0.0, abs=1e-14)
        assert freeenergy.reference_logZ(1, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_asymptotic_series_vs_recursion(self):
        # truncating after the first correction leaves the k=2 Bernoulli term
        bern = freeenergy.bernoulli_numbers(6)
        first_omitted = abs(float(bern[6]) / 24 * 49.0 ** -4)
        diff = abs(oracles.barnes_series_logG(50.0, terms=1)
                   - freeenergy.barnes_logG(50))
        assert diff < first_omitted

    def test_zeta_prime_constant(self):
        with mp.workprec(128):
            target = mp.zeta(-1, derivative=1)
        assert freeenergy.ZETA_PRIME_MINUS_ONE == pytest.approx(
            float(target), abs=1e-16)


class TestCharpolyMoment:
    def test_matches_exact_at_n8(self):
        got = freeenergy.charpoly_moment_asymp(0.2, 1.0, 8)
        exact = float(mp.log(exactfiniten.exact_charpoly_moment(8, 8, 0.2)))
        assert abs(got - exact) < 3.0 * freeenergy.first_omitted_tail_term(8, 1.0, 2)

    def test_origin_closed_form(self):
        # at z=0 the moment is the reference ratio; H has its own closed form
        got = freeenergy.charpoly_moment_asymp(0.0, 1.0, 8)
        ginibre = exactfiniten.exact_logZ(exactfiniten.ExactContext(8, 0, 0))
        ratio = freeenergy.reference_logZ(8, 1.0) - float(ginibre)
        assert got == pytest.approx(ratio, abs=1e-7)

    @pytest.mark.parametrize("z_abs", [1.2, 2.0])
    def test_pre_critical_error_class(self, z_abs):
        """Outside a_cri (the (F^2-1)^3 branch) the error decays like N^-2.

        The class is empirical: the paper states terms only through O(1).
        N^2 (asymp - exact) measures -2.6e-3 at |z| = 1.2 and -1.6e-4 at
        |z| = 2 for N = 8, 16, 32, so each doubling divides the error by
        about 4; an N^-1 error would divide it by 2.
        """
        errors = [abs(freeenergy.charpoly_moment_asymp(z_abs, 1.0, n)
                      - float(mp.log(exactfiniten.exact_charpoly_moment(
                          n, n, z_abs))))
                  for n in (8, 16, 32)]
        assert errors[0] / errors[1] >= 3.0
        assert errors[1] / errors[2] >= 3.0


class TestRadialEnergy:
    def test_ginibre(self):
        assert oracles.radial_energy(lambda r: r * r, 0.0, 1.0) \
            == pytest.approx(0.75, abs=1e-9)

    def test_annulus_matches_closed_form(self):
        got = oracles.radial_energy(lambda r: r * r - 2.0 * math.log(r))
        assert got == pytest.approx(freeenergy.energy_post(0.0, 1.0), abs=1e-10)

    def test_constant_shift(self):
        base = oracles.radial_energy(lambda r: r * r, 0.0, 1.0)
        shifted = oracles.radial_energy(lambda r: r * r + 0.01, 0.0, 1.0)
        assert shifted - base == pytest.approx(0.01, abs=1e-10)
