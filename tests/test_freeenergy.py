"""Energies, O(1) constants, and the large-N expansion of log Z_N."""

import math
import re
import sys

import pytest
from mpmath import mp

import oracles
from coulombgas import exactfiniten, freeenergy, geometry
from coulombgas.errors import DomainError
from coulombgas.geometry import Regime


def fd(fn, x: float, h: float = 1e-6) -> float:
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def energy_pre(a: float, c: float) -> float:
    """The pre-critical energy at its own modulus."""
    q, _, w = geometry.solve_modulus(a, c)
    return freeenergy.energy_pre(a, c, q, w)


def fconst_pre(a: float, c: float) -> float:
    """The pre-critical constant at its own modulus."""
    return freeenergy.fconst_pre(a, *geometry.solve_modulus(a, c))


def re_g_at_a(a: float, c: float) -> float:
    """Re g(a) at its own modulus."""
    q, _, w = geometry.solve_modulus(a, c)
    return freeenergy.re_g_at_a(a, c, q, w)


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
            a = geometry.a_cri(c) + 1e-8
            assert energy_pre(a, c) == pytest.approx(
                freeenergy.energy_post(a, c), abs=1e-9)

    def test_far_field(self):
        # the inserted charge decouples: I + 2c log a -> 3/4
        assert energy_pre(100.0, 1.0) + 2.0 * math.log(100.0) \
            == pytest.approx(0.75, abs=1e-3)

    def test_large_a_against_pre_reference(self):
        # the a^2 terms, which cancel to O(c log a), are written in the gap
        # w = 1 - a^2 q^2, and the c^2 log terms in log1p, so the energy
        # keeps energy_pre's bound; formed from q, it was off by 4.6e-5 at
        # (1e6, 1) and 0.62 at (1e8, 1), and the modulus was refused there
        eps = sys.float_info.epsilon
        for a, c in ((1e4, 1.0), (1e6, 1e4), (1e8, 1e8), (1e6, 1.0),
                     (1e8, 1.0)):
            energy = oracles.pre_reference(a, c)[3]
            assert abs(energy_pre(a, c) - energy) \
                <= 4 * eps * max(1, abs(energy)), a

    def test_ordering_above_transition(self):
        for c in (0.25, 1.0, 4.0):
            a_cri = geometry.a_cri(c)
            for da in (1e-3, 1e-2, 0.1, 1.0):
                assert energy_pre(a_cri + da, c) \
                    > freeenergy.energy_post(a_cri + da, c)


class TestRobinAndBreakdown:
    def test_post_small_c(self):
        assert oracles.robin_constant(0.3, 1e-12, Regime.POST) \
            == pytest.approx(0.5, abs=1e-10)

    def test_breakdown_identity_both_regimes(self):
        for a, c, regime in ((0.25, 9 / 16, Regime.POST), (0.3, 1.0, Regime.POST),
                             (1.0, 9 / 16, Regime.PRE), (1.2, 1.0, Regime.PRE)):
            energy = (energy_pre(a, c) if regime is Regime.PRE
                      else freeenergy.energy_post(a, c))
            assert (oracles.robin_constant(a, c, regime)
                    + oracles.potential_integral(a, c, regime)
                    == pytest.approx(energy, abs=1e-13))

    def test_pre_robin_far_field(self):
        assert oracles.robin_constant(100.0, 1.0, Regime.PRE) \
            + math.log(100.0) == pytest.approx(0.5, abs=1e-3)


class TestGAtInsertionPoint:
    def test_a_derivative_is_aq2(self):
        for a, c in ((1.0, 9 / 16), (1.2, 1.0), (2.0, 1.0)):
            q = geometry.solve_modulus(a, c)[0]
            assert fd(lambda x: re_g_at_a(x, c), a) == pytest.approx(
                a * q * q, abs=1e-8)

    def test_far_field(self):
        assert re_g_at_a(100.0, 1.0) - math.log(100.0) \
            == pytest.approx(0.0, abs=1e-3)

    def test_q_rounded_to_one(self):
        # at a = 1, c = 1e-40, q rounds to 1 and 2t q^2/(1 + t) to 1, whose
        # log1p(-1) raised; Re g(1) = v - w + O(v^2) is below eps there
        assert abs(re_g_at_a(1.0, 1e-40)) <= sys.float_info.epsilon


class TestClosedFormDerivatives:
    def test_energy_derivative(self):
        for a in (0.9, 1.2, 2.0):
            modulus = geometry.solve_modulus(a, 1.0)
            assert freeenergy.d_energy_pre_da(a, *modulus) == pytest.approx(
                fd(lambda x: energy_pre(x, 1.0), a), abs=1e-7)

    def test_fconst_derivative(self):
        for a in (0.9, 1.2, 2.0):
            modulus = geometry.solve_modulus(a, 1.0)
            assert freeenergy.d_fconst_pre_da(a, *modulus) == pytest.approx(
                fd(lambda x: fconst_pre(x, 1.0), a), abs=1e-7)

    def test_difference_derivative_closed_form(self):
        # d/da (I_pre - I_post) has a positive closed form above the transition
        c = 1.0
        a_cri = geometry.a_cri(c)
        for a in (a_cri + 0.05, 1.2, 2.0, 4.0):
            modulus = geometry.solve_modulus(a, c)
            q = modulus[0]
            closed = (1 - q * q) ** 2 * (1 - a**4 * q**4) / (2 * a * q**4)
            assert closed > 0
            assert freeenergy.d_energy_pre_da(a, *modulus) - (-2 * c * a) \
                == pytest.approx(closed, rel=1e-10)
        q1 = geometry.solve_modulus(a_cri * (1 + 1e-9), c)[0]
        assert (1 - q1 * q1) ** 2 * (1 - a_cri**4 * q1**4) / (2 * a_cri * q1**4) \
            == pytest.approx(0.0, abs=1e-8)


class TestFconstAndDetZeta:
    def test_post_closed_values(self):
        assert freeenergy.fconst_post(1.0) == pytest.approx(
            math.log(0.5) / 12.0, abs=1e-15)
        assert freeenergy.detzeta_log(geometry.droplet(0.3, 1.0)) == pytest.approx(
            -math.log(0.5) / 6.0, abs=1e-15)

    def test_pre_far_field(self):
        assert fconst_pre(100.0, 1.0) == pytest.approx(0.0, abs=1e-3)

    def test_pre_conformal_route_matches_closed_form(self):
        # detzeta_log comes from conformal data; fconst_pre from the q closed form
        for a, c in ((1.0, 9 / 16), (1.2, 1.0), (2.5, 0.25)):
            q = geometry.solve_modulus(a, c)[0]
            aq2 = a * a * q * q
            closed = -math.log((1 + aq2 - 2 * aq2 * q * q) ** 4
                               / ((1 - q * q) ** 3 * (1 - a**4 * q**6)
                                  * (1 + aq2) ** 4)) / 12.0
            got = freeenergy.detzeta_log(geometry.droplet(a, c))
            assert got == pytest.approx(closed, abs=1e-12)

    def test_detzeta_keeps_digits_at_the_edge(self):
        # 1 - q^2 is about 1e-12 here: formed from q, the log argument
        # rounded below 0 and the determinant was refused.  From the gaps it
        # keeps detzeta_log's bound against -2 F at 80 digits
        c = 14454.39770745928
        a = geometry.a_cri(c) * (1 + 2e-12)
        want = -2 * oracles.fconst_pre_reference(
            *oracles.modulus_reference(a, c)[1:])
        got = freeenergy.detzeta_log(geometry.droplet(a, c))
        assert abs(got - want) \
            <= 2 * sys.float_info.epsilon * max(1, abs(want))

    def test_zw_relation_both_regimes(self):
        for a, c in ((0.2, 1.0), (1.2, 1.0), (0.25, 9 / 16), (1.0, 9 / 16)):
            geom = geometry.droplet(a, c)
            const = (freeenergy.fconst_pre(a, geom.q, geom.v, geom.w)
                     if geom.regime is Regime.PRE else freeenergy.fconst_post(c))
            assert const == pytest.approx(-0.5 * freeenergy.detzeta_log(geom),
                                          abs=1e-12)


class TestClosedFormsTakeTheModulus:
    def test_no_modulus_is_solved(self, monkeypatch):
        a, c = 1.2, 1.0
        q, v, w = geometry.solve_modulus(a, c)

        def refuse(*args):
            raise AssertionError("a closed form solved the modulus")

        for module in (geometry, freeenergy):
            monkeypatch.setattr(module, "solve_modulus", refuse)
        values = (freeenergy.energy_pre(a, c, q, w),
                  freeenergy.re_g_at_a(a, c, q, w),
                  freeenergy.d_energy_pre_da(a, q, v, w),
                  freeenergy.d_fconst_pre_da(a, q, v, w),
                  freeenergy.fconst_pre(a, q, v, w), freeenergy.fconst_post(c))
        assert all(map(math.isfinite, values))


class TestExpansion:
    def test_term_structure(self):
        for regime, chi in ((Regime.POST, 0), (Regime.PRE, 1)):
            a = 0.2 if regime is Regime.POST else 1.2
            t = freeenergy.expansion(8, a, 1.0, regime)
            assert t.chi == chi
            assert t.nlogn == 0.5
            assert t.n_coeff == pytest.approx(math.log(2 * math.pi) / 2 - 1)
            assert t.logn == pytest.approx((6 - chi) / 12)

    def test_pre_solves_the_modulus_once(self, monkeypatch):
        # energy_pre and fconst_pre share one q
        calls = []
        solve_modulus = freeenergy.solve_modulus

        def counted(a, c):
            calls.append((a, c))
            return solve_modulus(a, c)

        monkeypatch.setattr(freeenergy, "solve_modulus", counted)
        got = freeenergy.expansion(8, 1.2, 1.0, Regime.PRE)
        assert calls == [(1.2, 1.0)]
        assert got.n2 == -energy_pre(1.2, 1.0)

    def test_post_tail_coefficients(self):
        bern = freeenergy.bernoulli_numbers(8)
        c = 1.0
        tail = dict(freeenergy.expansion(8, 0.2, c, Regime.POST, M=4).tail)
        assert tail[-1] == pytest.approx(float(bern[2]) / 2, abs=1e-16)
        assert tail[-3] == pytest.approx(float(bern[4]) / 12, abs=1e-16)
        assert tail[-2] == pytest.approx(
            float(bern[4]) / 8 * ((c + 1) ** -2 - c ** -2), abs=1e-16)
        assert tail[-4] == pytest.approx(
            float(bern[6]) / 24 * ((c + 1) ** -4 - c ** -4), abs=1e-16)

    def test_post_tail_order_capped_by_bernoulli_table(self):
        # the N^-63 term needs B_64, the last tabulated; N^-64 would need B_66
        tail = freeenergy.expansion(16, 0.2, 1.0, Regime.POST, M=63).tail
        assert [p for p, _ in tail] == list(range(-1, -64, -1))
        with pytest.raises(DomainError, match=r"M = 64 .*cap 63"):
            freeenergy.expansion(16, 0.2, 1.0, Regime.POST, M=64)
        # the pre-critical expansion has no tail and ignores M
        assert freeenergy.expansion(16, 1.2, 1.0, Regime.PRE, M=64) \
            == freeenergy.expansion(16, 1.2, 1.0, Regime.PRE, M=2)

    def test_first_omitted_term_capped_by_bernoulli_table(self):
        # M = 62 drops the N^-63 term (B_64, the last tabulated); M = 63
        # would drop N^-64, which needs B_66
        tail = dict(freeenergy.expansion(16, 0.2, 1.0, Regime.POST,
                                         M=63).tail)
        assert freeenergy.first_omitted_tail_term(16, 1.0, 62) \
            == abs(tail[-63] * 16.0 ** -63)
        with pytest.raises(DomainError, match=r"M = 63 .*cap 62"):
            freeenergy.first_omitted_tail_term(16, 1.0, 63)

    def test_post_reference_a0(self):
        # residual sits at ~1.05x the bare first omitted term (the omitted
        # N^-3 and N^-4 terms add constructively), within the 3x convention;
        # N = 1 is the least size taken
        for n in (1, 4, 8, 16):
            got = freeenergy.expansion(n, 0.0, 1.0, Regime.POST, M=2).log_z
            assert abs(got - freeenergy.reference_logZ(n, n)) \
                < 3.0 * freeenergy.first_omitted_tail_term(n, 1.0, 2)

    def test_post_exact_decay(self):
        for n in (4, 8, 16):
            exact = float(exactfiniten.moment_table(N=n, m=n, a=0.2).log_z)
            got = freeenergy.expansion(n, 0.2, 1.0, Regime.POST, M=2).log_z
            assert abs(got - exact) \
                < 3.0 * freeenergy.first_omitted_tail_term(n, 1.0, 2)

    def test_pre_residual_ratio(self):
        residual = {}
        for n in (4, 8, 16):
            exact = float(exactfiniten.moment_table(N=n, m=n, a=1.2).log_z)
            residual[n] = abs(
                freeenergy.expansion(n, 1.2, 1.0, Regime.PRE).log_z - exact)
        # O(N^-1) error class: halving ratio 2 within +-30%
        assert 1.4 < residual[4] / residual[8] < 2.6
        assert 1.4 < residual[8] / residual[16] < 2.6

    @pytest.mark.parametrize("a,c,n", [(1.2, 1.0, 30), (2.0, 1.0, 30),
                                       (1.0, 9 / 16, 32)])
    def test_pre_one_over_n_term_is_one_twelfth(self, a, c, n):
        # s_N = N (exact - expansion) tends to 1/12 = B_2/2 like 1/N, so the
        # Richardson limit 2 s_2N - s_N removes the 1/N term; it measures
        # 1/12 + 1.45e-6, + 1.51e-6 and - 7.6e-7 at the three points
        def scaled(size):
            exact = float(exactfiniten.moment_table(
                N=size, m=round(c * size), a=a).log_z)
            return size * (exact
                           - freeenergy.expansion(size, a, c, Regime.PRE).log_z)

        assert abs(2.0 * scaled(2 * n) - scaled(n) - 1.0 / 12.0) < 5e-6


class TestReferenceAndBarnes:
    def test_unit_partition_functions(self):
        assert freeenergy.reference_logZ(1, 1) == pytest.approx(0.0, abs=1e-14)
        assert freeenergy.reference_logZ(1, 0) == pytest.approx(0.0, abs=1e-14)

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
        exact = float(mp.log(oracles.exact_charpoly_moment(8, 8, 0.2)))
        assert abs(got - exact) < 3.0 * freeenergy.first_omitted_tail_term(8, 1.0, 2)

    def test_origin_closed_form(self):
        # at z=0 the moment is the ratio of Barnes-G closed forms
        got = freeenergy.charpoly_moment_asymp(0.0, 1.0, 8)
        ginibre = exactfiniten.moment_table(8, 0, 0).log_z
        ratio = freeenergy.reference_logZ(8, 8) - float(ginibre)
        assert got == pytest.approx(ratio, abs=1e-7)

    def test_tiny_c_needs_no_droplet_gap(self):
        # at (1e3, 1e-12) 1 - a^2 q^2 rounds to 0, where droplet refuses
        # for kappa; the moment reads only q and the energy, and far outside
        # the droplet it is 2 c N^2 log|z| to leading order
        got = freeenergy.charpoly_moment_asymp(1e3, 1e-12, 8)
        assert got == pytest.approx(2e-12 * 64 * math.log(1e3), rel=1e-5)

    @pytest.mark.parametrize("z_abs", [1.2, 2.0])
    def test_pre_critical_error_class(self, z_abs):
        """Above a_cri (simply connected) the error decays like N^-2.

        The class is empirical: the paper states terms only through O(1).
        N^2 (asymp - exact) measures -2.6e-3 at |z| = 1.2 and -1.6e-4 at
        |z| = 2 for N = 8, 16, 32, so each doubling divides the error by
        about 4; an N^-1 error would divide it by 2.
        """
        errors = [abs(freeenergy.charpoly_moment_asymp(z_abs, 1.0, n)
                      - float(mp.log(oracles.exact_charpoly_moment(
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


@pytest.mark.parametrize("call, message", [
    (lambda: freeenergy.bernoulli_numbers(65),
     "Bernoulli table capped at B_64, requested B_65"),
    (lambda: freeenergy.energy_post(-1, 1),
     "need a >= 0 and c > 0, got a=-1, c=1"),
    # log(c) at c = 0 would raise math's bare ValueError
    (lambda: freeenergy.energy_post(0.2, 0.0),
     "need a >= 0 and c > 0, got a=0.2, c=0.0"),
    (lambda: freeenergy.expansion(0, 0.2, 1.0, Regime.POST),
     "need N >= 1 and M >= 0, got N=0, M=2"),
    (lambda: freeenergy.barnes_logG(0),
     "barnes_logG needs a positive integer, got 0"),
    (lambda: freeenergy.reference_logZ(0, 1),
     "need N >= 1 and m >= 0, got N=0, m=1"),
    (lambda: freeenergy.charpoly_moment_asymp(-1, 1, 4),
     "need |z| >= 0 and c > 0, got -1, 1"),
    (lambda: freeenergy.charpoly_moment_asymp(0.2, 0.0, 4),
     "need |z| >= 0 and c > 0, got 0.2, 0.0"),
], ids=["bernoulli-past-b64", "energy-post-negative-a", "energy-post-zero-c",
        "expansion-n-zero", "barnes-zero", "reference-n-zero",
        "charpoly-negative-z", "charpoly-zero-c"])
def test_refuses_arguments_out_of_domain(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()
