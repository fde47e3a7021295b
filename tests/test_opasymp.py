"""Exterior polynomial asymptotics: g-function, parametrix data, corrections.

The h-matrix check re-derives the rational-correction coefficients from
scratch: the local model matrix G(z) is meromorphic at the lower branch
point with a double pole, so its two pole coefficients follow from plain
Cauchy circle averages. No formula from the implementation enters that
path, which makes it an independent oracle for the printed coefficients.
"""

import cmath
import math

import numpy as np
import pytest

import oracles
from coulombgas import exactfiniten, freeenergy, geometry, opasymp
from coulombgas.errors import BranchCutError, DomainError
from coulombgas.geometry import Regime, _sqrt_through_cut
from coulombgas.opasymp import GEvaluator, rh_coefficients


def exact_op_value(n: int, a: float, z: complex) -> complex:
    ctx = exactfiniten.ExactContext(N=n, m=n, a=a)
    return complex(exactfiniten.eval_polynomial(exactfiniten.exact_op(ctx), z))


def rel_error(ev: GEvaluator, n: int, a: float, z: complex) -> float:
    exact = exact_op_value(n, a, z)
    return abs(opasymp.p_asymp(ev, z, n).value - exact) / abs(exact)


class TestGFunction:
    def test_post_closed_form(self, post_evaluator):
        z = 3.0 + 1.0j
        a, c = 0.2, 1.0
        want = cmath.log(z) + c * cmath.log(z / (z - a))
        assert abs(post_evaluator.g(z) - want) < 1e-14

    def test_pre_far_coefficient(self, pre_evaluator):
        # g - log z ~ -C1/z; the coefficient estimate tightens like 1/|z|
        c1 = oracles.g_large_z_coefficient(pre_evaluator.geom)
        errs = []
        for zr in (1e4, 1e5, 1e6):
            est = (pre_evaluator.g(zr + 0j) - cmath.log(zr)) * zr
            errs.append(abs(est + c1))
        assert all(err < 0.5 / zr for err, zr in zip(errs, (1e4, 1e5, 1e6)))
        assert errs[0] > errs[1] > errs[2]

    def test_pre_anchor(self, pre_evaluator):
        assert abs(pre_evaluator.g(1e13 + 0j) - cmath.log(1e13)) < 1e-12

    @pytest.mark.parametrize("a,c", [(1.0, 9 / 16), (1.2, 1.0), (2.0, 1.0),
                                     (3.0, 0.5)])
    def test_pre_increments_match_quadrature_of_g_prime(self, a, c):
        # the closed form against mpmath.quad of the defining g' on segments:
        # in from far out along the positive axis, round the droplet on a
        # ring just inside the gate on either side (never across the
        # negative axis), and on into the gate towards the charge and the
        # upper cut end
        ev = GEvaluator.build(a, c)
        geom = ev.geom
        ring = 1.1 * ev.exterior_radius
        upper = [ring * cmath.exp(0.5j * k) for k in range(7)]
        lower = [z.conjugate() for z in upper]
        segments = [(50.0 * ring + 0j, upper[0]), *zip(upper, upper[1:]),
                    *zip(lower, lower[1:]), (upper[0], a + 0.05 + 0j),
                    (upper[2], 0.5 * (geom.beta + upper[2])),
                    (upper[2], geom.beta + 0.05)]
        for z1, z2 in segments:
            want = oracles.g_increment(geom, z1, z2)
            assert abs(ev.g(z2) - ev.g(z1) - want) <= 1e-13, (z1, z2)

    def test_pre_refuses_cut_and_charges(self, pre_evaluator):
        geom = pre_evaluator.geom
        with pytest.raises(BranchCutError):
            pre_evaluator.g(complex(geom.beta.real, 0.5 * geom.beta.imag))
        for z in (0.0, geom.a):
            with pytest.raises(DomainError):
                pre_evaluator.g(z)

    def test_pre_matches_insertion_point_value(self, pre_evaluator):
        got = pre_evaluator.g_pre(pre_evaluator.geom.a + 1e-8 + 0j).real
        assert got == pytest.approx(freeenergy.re_g_at_a(1.2, 1.0), abs=1e-7)

    def test_exterior_gate(self, pre_evaluator):
        with pytest.raises(DomainError):
            pre_evaluator.require_exterior(0.5 + 0j)
        with pytest.raises(DomainError):
            opasymp.p_asymp(pre_evaluator, 0.5 + 0j, 8)

    def test_rejects_critical_point(self):
        with pytest.raises(DomainError):
            GEvaluator.build(geometry.critical_values(1.0).a_cri, 1.0)


class TestRHCoefficients:
    def test_h_matrices_against_cauchy_extraction(self, pre_evaluator):
        geom = pre_evaluator.geom
        beta, betab = geom.beta, geom.beta_bar
        b, big_r, kap, q, a = geom.b, geom.R, geom.kappa, geom.q, geom.a
        x0, y0 = beta.real, beta.imag
        mod_beta = big_r * q + kap / q
        nodes, weights = np.polynomial.legendre.leggauss(64)
        nodes = 0.5 * (nodes + 1.0)
        weights = 0.5 * weights

        def y_branch(s: complex) -> complex:
            return (a * (s - b) * _sqrt_through_cut(s, x0, y0)
                    / ((s - a) * s))

        def zeta32(z: complex) -> complex:
            # radial path from the branch point; t = tau^2 softens the
            # square-root endpoint so Gauss-Legendre converges fast
            delta = z - betab
            total = 0j
            for t, wgt in zip(nodes, weights):
                total += wgt * y_branch(betab + t * t * delta) * 2.0 * t * delta
            return 0.75 * total

        def model_matrix(z: complex) -> np.ndarray:
            s = _sqrt_through_cut(z, x0, y0)
            f_val = (z + mod_beta + s) / (2.0 * big_r)
            u = math.sqrt(kap * big_r) / (big_r * (f_val - q))
            den = 1.0 + u * u
            m00 = (1.0 - u * u + 12.0j * u) / den
            m01 = (6.0j - 2.0 * u - 6.0j * u * u) / den
            return (np.array([[m00, m01], [m01, -m00]], dtype=complex)
                    / (48.0 * zeta32(z)))

        eps = 0.3 * min(y0, abs(betab - a), abs(betab), abs(b - betab))
        n_pts = 512
        h11 = np.zeros((2, 2), complex)
        h12 = np.zeros((2, 2), complex)
        for k in range(n_pts):
            w = eps * cmath.exp(2j * math.pi * (k + 0.5) / n_pts)
            sample = model_matrix(betab + w)
            h11 += sample * w
            h12 += sample * w * w

        coeffs = rh_coefficients(geom, 1)
        assert np.max(np.abs(h11 / n_pts - coeffs.h11)) < 1e-12
        assert np.max(np.abs(h12 / n_pts - coeffs.h12)) < 1e-12

        # and the local coordinate really opens with slope gamma11
        probe = betab + 1e-4 * cmath.exp(0.3j)
        est = zeta32(probe) ** (2.0 / 3.0) / (probe - betab)
        assert abs(est - coeffs.gamma11) < 1e-4

    def test_conjugation_symmetry(self, pre_evaluator):
        coeffs = rh_coefficients(pre_evaluator.geom, 8)
        assert np.array_equal(coeffs.h21, np.conj(coeffs.h11))
        assert np.array_equal(coeffs.h22, np.conj(coeffs.h12))

    def test_inverse_n_scaling(self, pre_evaluator):
        c8 = rh_coefficients(pre_evaluator.geom, 8)
        c16 = rh_coefficients(pre_evaluator.geom, 16)
        assert np.array_equal(2.0 * np.asarray(c16.h11), np.asarray(c8.h11))
        assert np.array_equal(2.0 * np.asarray(c16.h12), np.asarray(c8.h12))

    def test_gamma_ratio_two_codings(self, pre_evaluator):
        geom = pre_evaluator.geom
        coeffs = rh_coefficients(geom, 8)
        bb = geom.beta_bar
        ratio = 0.8 * (1.0 / (bb - geom.R / geom.q)
                       + 1.0 / (2.0 * (bb - geom.beta))
                       - 1.0 / (bb - geom.a) - 1.0 / bb)
        assert abs(coeffs.gamma12 / coeffs.gamma11 - ratio) < 1e-13


class TestRationalCorrections:
    def test_entries_decay_like_inverse_z(self, pre_evaluator):
        coeffs = rh_coefficients(pre_evaluator.geom, 8)
        res_mag = abs(opasymp.res_r11_infinity(pre_evaluator.geom, 8))
        for zr in (1e2, 1e3, 1e4):
            r11, r12, _, _ = opasymp.r_entries(coeffs, zr + 0j)
            assert abs(zr * r11) / res_mag == pytest.approx(1.0, abs=0.05)
            assert abs(zr * r12) < 1.0

    def test_entries_are_the_conjugated_product(self, pre_evaluator):
        # R1 = I + R2 h11 R2^-1/dz1 + R2 h12 R2^-1/dz1^2, R2 = I + h21/dz2 +
        # h22/dz2^2, taken literally with an explicit inverse
        coeffs = rh_coefficients(pre_evaluator.geom, 4)
        h11, h12, h21, h22 = (np.asarray(h) for h in coeffs[2:6])
        eye = np.eye(2)
        for z in (3.0 + 0j, -2.5 + 2.2j, 0.5 - 3.0j, 40.0 + 10.0j):
            dz1, dz2 = z - coeffs.beta_bar, z - coeffs.beta
            r2 = eye + h21 / dz2 + h22 / dz2 ** 2
            r2_inv = np.linalg.inv(r2)
            r1 = eye + r2 @ h11 @ r2_inv / dz1 + r2 @ h12 @ r2_inv / dz1 ** 2
            want = (r1 @ r2 - eye).ravel()
            got = np.array(opasymp.r_entries(coeffs, z))
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("a,c", [(1.0, 9 / 16), (1.2, 1.0), (2.0, 1.0)])
    def test_residue_identity(self, a, c):
        geom = geometry.pre_geometry(a, c)
        coeffs = rh_coefficients(geom, 8)
        probe = opasymp.r11_residue_probe(coeffs)
        closed = opasymp.res_r11_infinity(geom, 8)
        assert abs(probe - closed) / abs(closed) < 1e-10


class TestPAsymp:
    def test_radial_monomial(self):
        ev = GEvaluator.build(0.0, 1.0)
        got = opasymp.p_asymp(ev, 2.0 + 1.0j, 5)
        assert got.error_class == "N^-inf"
        assert abs(got.value - (2.0 + 1.0j) ** 5) < 1e-10

    def test_post_superpolynomial_decay(self, post_evaluator):
        # measured 4.8e-4, 1.3e-5, 9.5e-9 at N = 4, 8, 16: far beyond any
        # fixed inverse power (N^-4 doubling would only give ratios of 16)
        errs = {n: rel_error(post_evaluator, n, 0.2, 3.0 + 0j)
                for n in (4, 8, 16)}
        assert errs[4] / errs[8] > 30
        assert errs[8] / errs[16] > 1000
        assert errs[16] < 1e-7

    def test_post_tight_at_n12(self, post_evaluator):
        assert rel_error(post_evaluator, 12, 0.2, 3.0 + 0j) < 1e-6

    def test_pre_error_class(self, pre_evaluator):
        assert opasymp.p_asymp(pre_evaluator, 3.0 + 0j, 8).error_class == "N^-2"

    def test_pre_second_order_on_axis(self, pre_evaluator):
        # on the real axis part of the N^-2 coefficient cancels, steepening
        # the measured ratios (6.65, 5.81) past the plain-quadrupling window
        errs = {n: rel_error(pre_evaluator, n, 1.2, 3.0 + 0j)
                for n in (4, 8, 16)}
        assert 4.5 < errs[4] / errs[8] < 8.0
        assert 4.5 < errs[8] / errs[16] < 8.0
        assert errs[16] < 5e-6

    def test_pre_second_order_off_axis(self, pre_evaluator):
        errs = {n: rel_error(pre_evaluator, n, 1.2, -2.5 + 2.2j)
                for n in (4, 8, 16)}
        assert 3.0 < errs[4] / errs[8] < 5.0
        assert 3.0 < errs[8] / errs[16] < 5.0
        assert errs[16] < 1e-5


class TestA11AndDerivative:
    def test_post_form(self):
        assert opasymp.a11_asymp(8, 0.2, 1.0, Regime.POST) == pytest.approx(
            1.6, abs=1e-14)

    def test_pre_leading_coefficient_sign_convention(self, pre_evaluator):
        # the N-coefficient ties back to the far-field g coefficient
        geom = pre_evaluator.geom
        a, q = geom.a, geom.q
        lead = (1 - a * a * q * q) * (2 - q * q - a * a * q ** 4) / (4 * a * q * q)
        got = opasymp.a11_asymp(64, 1.2, 1.0, Regime.PRE)
        res = opasymp.res_r11_infinity(geom, 64)
        assert got == pytest.approx(lead * 64 + res, abs=1e-12)

    def test_dlogz_post_matches_finite_differences(self):
        h = 1e-5
        plus = float(exactfiniten.exact_logZ(
            exactfiniten.ExactContext(N=8, m=8, a=0.2 + h)))
        minus = float(exactfiniten.exact_logZ(
            exactfiniten.ExactContext(N=8, m=8, a=0.2 - h)))
        fd = (plus - minus) / (2.0 * h)
        assert opasymp.dlogZ_da(8, 0.2, 1.0, Regime.POST) / fd \
            == pytest.approx(1.0, abs=1e-4)

    def test_dlogz_pre_n2_coefficient(self, pre_evaluator):
        geom = pre_evaluator.geom
        a, q = geom.a, geom.q
        coeff = (1 - a * a * q * q) * (2 - q * q - a * a * q ** 4) / (2 * a * q * q)
        diffs = {n: abs(opasymp.dlogZ_da(n, 1.2, 1.0, Regime.PRE) / n ** 2 - coeff)
                 for n in (16, 64)}
        assert diffs[64] < 1e-4
        assert 12.0 < diffs[16] / diffs[64] < 20.0  # O(n^-2) approach

    def test_even_at_origin(self):
        assert opasymp.dlogZ_da(8, 0.0, 1.0, Regime.POST) == 0.0
