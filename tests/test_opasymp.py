"""Exterior polynomial asymptotics: g-function, parametrix data, corrections.

The h-matrix check re-derives the rational-correction coefficients from
scratch: the local model matrix G(z) is meromorphic at the lower branch
point with a double pole, so its two pole coefficients follow from plain
Cauchy circle averages. No formula from the implementation enters that
path, which makes it an independent oracle for the printed coefficients.
"""

import cmath
import math
import re

import numpy as np
import pytest

import oracles
from coulombgas import exactfiniten, freeenergy, geometry, opasymp
from coulombgas.errors import BranchCutError, DomainError
from coulombgas.geometry import Regime, _sqrt_through_cut
from coulombgas.opasymp import rh_coefficients


def exact_op_value(n: int, a: float, z: complex) -> complex:
    params = (n, n, a)
    return complex(exactfiniten.eval_polynomial(
        exactfiniten.moment_table(*params).op, z))


def rel_error(geom, n: int, z: complex) -> float:
    exact = exact_op_value(n, geom.a, z)
    [asym] = opasymp.p_asymp(geom, z, [n])
    return abs(asym - exact) / abs(exact)


class TestGFunction:
    def test_post_closed_form(self, post_geom):
        z = 3.0 + 1.0j
        a, c = 0.2, 1.0
        want = cmath.log(z) + c * cmath.log(z / (z - a))
        assert abs(opasymp.g(post_geom, z) - want) < 1e-14

    def test_pre_far_coefficient(self, pre_geom):
        # g - log z ~ -C1/z; the coefficient estimate tightens like 1/|z|
        c1 = oracles.g_large_z_coefficient(pre_geom)
        errs = []
        for zr in (1e4, 1e5, 1e6):
            est = (opasymp.g(pre_geom, zr + 0j) - cmath.log(zr)) * zr
            errs.append(abs(est + c1))
        assert all(err < 0.5 / zr for err, zr in zip(errs, (1e4, 1e5, 1e6)))
        assert errs[0] > errs[1] > errs[2]

    def test_pre_anchor(self, pre_geom):
        assert abs(opasymp.g(pre_geom, 1e13 + 0j) - cmath.log(1e13)) < 1e-12

    @pytest.mark.parametrize("a,c", [(1.0, 9 / 16), (1.2, 1.0), (2.0, 1.0),
                                     (3.0, 0.5)])
    def test_pre_increments_match_quadrature_of_g_prime(self, a, c):
        # the closed form against mpmath.quad of the defining g' on segments:
        # in from far out along the positive axis, round the droplet on a
        # ring just inside the gate on either side (never across the
        # negative axis), and on into the gate towards the charge and the
        # upper cut end
        geom = geometry.droplet(a, c)
        ring = 1.1 * opasymp.exterior_radius(geom)
        upper = [ring * cmath.exp(0.5j * k) for k in range(7)]
        lower = [z.conjugate() for z in upper]
        segments = [(50.0 * ring + 0j, upper[0]), *zip(upper, upper[1:]),
                    *zip(lower, lower[1:]), (upper[0], a + 0.05 + 0j),
                    (upper[2], 0.5 * (geom.beta + upper[2])),
                    (upper[2], geom.beta + 0.05)]
        for z1, z2 in segments:
            want = oracles.g_increment(geom, z1, z2)
            assert abs(opasymp.g(geom, z2) - opasymp.g(geom, z1) - want) <= 1e-13, (z1, z2)

    def test_pre_refuses_cut_and_charges(self, pre_geom):
        with pytest.raises(BranchCutError):
            opasymp.g(pre_geom, complex(pre_geom.beta.real,
                                        0.5 * pre_geom.beta.imag))
        for z in (0.0, pre_geom.a):
            with pytest.raises(DomainError):
                opasymp.g(pre_geom, z)

    def test_pre_matches_insertion_point_value(self, pre_geom):
        got = opasymp.g(pre_geom, pre_geom.a + 1e-8 + 0j).real
        assert got == pytest.approx(
            freeenergy.re_g_at_a(1.2, 1.0, pre_geom.q, pre_geom.w),
            abs=1e-7)

    def test_exterior_gate(self, pre_geom):
        with pytest.raises(DomainError):
            opasymp.require_exterior(pre_geom, 0.5 + 0j)
        # the gate's circle itself is refused
        with pytest.raises(DomainError):
            opasymp.require_exterior(
                pre_geom, complex(opasymp.exterior_radius(pre_geom)))
        with pytest.raises(DomainError):
            opasymp.p_asymp(pre_geom, 0.5 + 0j, [8])

    def test_rejects_critical_point(self):
        # a_cri(9/16) = 0.5 exactly
        with pytest.raises(DomainError):
            geometry.droplet(0.5, 9 / 16)


class TestExteriorGate:
    def test_b_encloses_cut_charge_and_boundary(self):
        # the identities of opasymp's docstring that put |beta|, a and the
        # boundary f(|w| = 1) within b, so that the gate is 1.15 b; each
        # difference is checked to its rounding, about eps b
        eps = 2.0 ** -52
        w = np.exp(2j * np.pi * np.arange(20001) / 20000)  # w = -1 among them
        checked = 0
        for c in np.logspace(-8.0, 8.0, 33):
            c = float(c)
            edge = geometry.a_cri(c)
            for scale in np.geomspace(1.0 + 1e-9, 1e4, 25):
                geom = geometry.droplet(float(edge * scale), c)
                checked += 1
                a, b, q, R, kappa = geom.a, geom.b, geom.q, geom.R, geom.kappa
                t = (a * q) ** 2
                tol = 4.0 * eps * b
                assert (opasymp.exterior_radius(geom)
                        == opasymp.EXTERIOR_MARGIN * b)
                assert abs(b - abs(geom.beta) - a * (1.0 - q * q)) <= tol
                assert abs(b - a - (1.0 - t) / (2.0 * a * q * q)) <= tol
                f_minus_one = R + kappa / (q * (1.0 + q))  # |f(-1)|
                assert abs(b - a * (1.0 - q) - f_minus_one) <= tol
                # b - |beta| and b - a fall below an ulp of b near a_cri
                # at large c and at large a with tiny c
                assert abs(geom.beta) <= b and a <= b
                boundary = np.abs(R * w - kappa / (w - q) - kappa / q)
                assert boundary.max() <= f_minus_one * (1.0 + 4.0 * eps)
        assert checked >= 800


class TestRHCoefficients:
    def test_h_matrices_against_cauchy_extraction(self, pre_geom):
        beta, betab = pre_geom.beta, pre_geom.beta_bar
        b, big_r, kap = pre_geom.b, pre_geom.R, pre_geom.kappa
        q, a = pre_geom.q, pre_geom.a
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

        coeffs = rh_coefficients(pre_geom, 1)
        assert np.max(np.abs(h11 / n_pts - coeffs.h11)) < 1e-12
        assert np.max(np.abs(h12 / n_pts - coeffs.h12)) < 1e-12

        # and the local coordinate really opens with slope gamma11
        probe = betab + 1e-4 * cmath.exp(0.3j)
        est = zeta32(probe) ** (2.0 / 3.0) / (probe - betab)
        assert abs(est - coeffs.gamma11) < 1e-4

    def test_inverse_n_scaling(self, pre_geom):
        c8 = rh_coefficients(pre_geom, 8)
        c16 = rh_coefficients(pre_geom, 16)
        assert np.array_equal(2.0 * np.asarray(c16.h11), np.asarray(c8.h11))
        assert np.array_equal(2.0 * np.asarray(c16.h12), np.asarray(c8.h12))

    def test_gamma_ratio_two_codings(self, pre_geom):
        coeffs = rh_coefficients(pre_geom, 8)
        bb = pre_geom.beta_bar
        ratio = 0.8 * (1.0 / (bb - pre_geom.R / pre_geom.q)
                       + 1.0 / (2.0 * (bb - pre_geom.beta))
                       - 1.0 / (bb - pre_geom.a) - 1.0 / bb)
        assert abs(coeffs.gamma12 / coeffs.gamma11 - ratio) < 1e-13


class TestRationalCorrections:
    def test_entries_decay_like_inverse_z(self, pre_geom):
        coeffs = rh_coefficients(pre_geom, 8)
        res_mag = abs(freeenergy.d_fconst_pre_da(
            pre_geom.a, pre_geom.q, pre_geom.v, pre_geom.w) / (2.0 * 8))
        for zr in (1e2, 1e3, 1e4):
            r11, r12 = opasymp.r_entries(coeffs, zr + 0j)
            assert abs(zr * r11) / res_mag == pytest.approx(1.0, abs=0.05)
            assert abs(zr * r12) < 1.0

    def test_entries_are_the_conjugated_product(self, pre_geom):
        # R1 = I + R2 h11 R2^-1/dz1 + R2 h12 R2^-1/dz1^2, R2 = I +
        # conj(h11)/dz2 + conj(h12)/dz2^2, taken literally with an explicit
        # inverse; r_entries is the first row of R1 R2 - I
        coeffs = rh_coefficients(pre_geom, 4)
        h11, h12 = np.asarray(coeffs.h11), np.asarray(coeffs.h12)
        h21, h22 = np.conj(h11), np.conj(h12)
        eye = np.eye(2)
        for z in (3.0 + 0j, -2.5 + 2.2j, 0.5 - 3.0j, 40.0 + 10.0j):
            dz1, dz2 = z - coeffs.beta_bar, z - coeffs.beta
            r2 = eye + h21 / dz2 + h22 / dz2 ** 2
            r2_inv = np.linalg.inv(r2)
            r1 = eye + r2 @ h11 @ r2_inv / dz1 + r2 @ h12 @ r2_inv / dz1 ** 2
            want = (r1 @ r2 - eye)[0]
            got = np.array(opasymp.r_entries(coeffs, z))
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("a,c", [(1.0, 9 / 16), (1.2, 1.0), (2.0, 1.0)])
    def test_residue_identity(self, a, c):
        geom = geometry.droplet(a, c)
        coeffs = rh_coefficients(geom, 8)
        probe = opasymp.r11_residue_probe(coeffs)
        # the 1/N part of A11 in d_a log Z_N = 2N A11
        closed = freeenergy.d_fconst_pre_da(a, geom.q, geom.v,
                                            geom.w) / (2.0 * 8)
        assert abs(probe - closed) / abs(closed) < 1e-10

    @pytest.mark.parametrize("a,c", [(1.0, 9 / 16), (1.2, 1.0), (2.0, 1.0)])
    def test_modulus_form_is_the_fconst_derivative(self, a, c):
        # the coefficient written out in the modulus q and in a
        geom = geometry.droplet(a, c)
        for n in (1, 8, 64):
            written = oracles.res_r11_infinity(geom, n)
            derived = freeenergy.d_fconst_pre_da(a, geom.q, geom.v,
                                                 geom.w) / (2.0 * n)
            assert abs(written - derived) <= 1e-14 * abs(derived)


class TestPAsymp:
    def test_radial_monomial(self):
        [got] = opasymp.p_asymp(geometry.droplet(0.0, 1.0), 2.0 + 1.0j, [5])
        assert abs(got - (2.0 + 1.0j) ** 5) < 1e-10

    def test_degree_one(self, pre_geom, post_geom):
        # N = 1 is the least degree taken; p_1 is monic, so z p_1(z)^-1 is O(1)
        assert opasymp.p_asymp(geometry.droplet(0.0, 1.0), 3.0, [1]) \
            == [pytest.approx(3.0, rel=1e-15)]
        for geom in (pre_geom, post_geom):
            [got] = opasymp.p_asymp(geom, 3.0 + 0j, [1])
            assert cmath.isfinite(got) and 0.1 < abs(got / 3.0) < 10.0
        assert opasymp.a11_asymp(post_geom, 1) == post_geom.c * post_geom.a

    def test_refuses_a_degree_below_one(self, post_geom):
        # the annular phase builds no RH coefficients, so only p_asymp's
        # own check sees N = 0 in the list
        with pytest.raises(DomainError, match="^need N >= 1, got 0$"):
            opasymp.p_asymp(post_geom, 3.0 + 0j, [4, 0])

    def test_post_superpolynomial_decay(self, post_geom):
        # measured 4.8e-4, 1.3e-5, 9.5e-9 at N = 4, 8, 16: far beyond any
        # fixed inverse power (N^-4 doubling would only give ratios of 16)
        errs = {n: rel_error(post_geom, n, 3.0 + 0j)
                for n in (4, 8, 16)}
        assert errs[4] / errs[8] > 30
        assert errs[8] / errs[16] > 1000
        assert errs[16] < 1e-7

    def test_post_tight_at_n12(self, post_geom):
        assert rel_error(post_geom, 12, 3.0 + 0j) < 1e-6

    def test_pre_second_order_on_axis(self, pre_geom):
        # on the real axis part of the N^-2 coefficient cancels, steepening
        # the measured ratios (6.65, 5.81) past the plain-quadrupling window
        errs = {n: rel_error(pre_geom, n, 3.0 + 0j)
                for n in (4, 8, 16)}
        assert 4.5 < errs[4] / errs[8] < 8.0
        assert 4.5 < errs[8] / errs[16] < 8.0
        assert errs[16] < 5e-6

    def test_pre_second_order_off_axis(self, pre_geom):
        errs = {n: rel_error(pre_geom, n, -2.5 + 2.2j)
                for n in (4, 8, 16)}
        assert 3.0 < errs[4] / errs[8] < 5.0
        assert 3.0 < errs[8] / errs[16] < 5.0
        assert errs[16] < 1e-5

    def test_pre_second_order_at_larger_n(self):
        # the N^-3 term that steepens the small-N ratios on the axis fades:
        # err(30)/err(60) measured 4.764 at a = 1.2 and 4.0066 at a = 2
        ratios = {}
        for a in (1.2, 2.0):
            geom = geometry.droplet(a, 1.0)
            ratios[a] = rel_error(geom, 30, 3.0 + 0j) / rel_error(geom, 60, 3.0 + 0j)
        assert 3.0 <= ratios[1.2] <= 5.0
        assert ratios[2.0] == pytest.approx(4.0, abs=0.05)


class TestA11AndDerivative:
    def test_post_form(self, post_geom):
        assert opasymp.a11_asymp(post_geom, 8) == pytest.approx(1.6, abs=1e-14)

    def test_pre_leading_coefficient_sign_convention(self, pre_geom):
        # the N-coefficient ties back to the far-field g coefficient
        a, q = pre_geom.a, pre_geom.q
        lead = (1 - a * a * q * q) * (2 - q * q - a * a * q ** 4) / (4 * a * q * q)
        got = opasymp.a11_asymp(pre_geom, 64)
        res = oracles.res_r11_infinity(pre_geom, 64)
        assert got == pytest.approx(lead * 64 + res, abs=1e-12)

    def test_dlogz_post_matches_finite_differences(self, post_geom):
        h = 1e-5
        plus, minus = (
            float(exactfiniten.moment_table(N=8, m=8, a=0.2 + d).log_z)
            for d in (h, -h))
        fd = (plus - minus) / (2.0 * h)
        assert 2.0 * 8 * opasymp.a11_asymp(post_geom, 8) / fd \
            == pytest.approx(1.0, abs=1e-4)

    def test_dlogz_pre_n2_coefficient(self, pre_geom):
        a, q = pre_geom.a, pre_geom.q
        coeff = (1 - a * a * q * q) * (2 - q * q - a * a * q ** 4) / (2 * a * q * q)
        diffs = {n: abs(2.0 * opasymp.a11_asymp(pre_geom, n) / n - coeff)
                 for n in (16, 64)}
        assert diffs[64] < 1e-4
        assert 12.0 < diffs[16] / diffs[64] < 20.0  # O(n^-2) approach

    def test_even_at_origin(self):
        assert opasymp.a11_asymp(geometry.droplet(0.0, 1.0), 8) == 0.0

    def test_pre_reads_the_record_modulus(self, pre_geom, monkeypatch):
        # the droplet record holds q and its gaps, so no modulus is solved
        # again
        def refuse(a, c):
            raise AssertionError(f"solve_modulus({a}, {c}) ran in a11_asymp")

        for module in (geometry, freeenergy):
            monkeypatch.setattr(module, "solve_modulus", refuse)
        gaps = pre_geom.a, pre_geom.q, pre_geom.v, pre_geom.w
        assert opasymp.a11_asymp(pre_geom, 16) == (
            freeenergy.d_fconst_pre_da(*gaps) / 16
            - 16 * freeenergy.d_energy_pre_da(*gaps)) / 2.0


@pytest.mark.parametrize("call, message", [
    (lambda geom: opasymp.rh_coefficients(geom, 0), "need N >= 1, got 0"),
    (lambda geom: opasymp.r_entries(rh_coefficients(geom, 4), geom.beta),
     "rational dressing has a pole at z = "
     "(0.15872196483050788+1.0550151264501058j)"),
    (lambda geom: opasymp.a11_asymp(geom, 0), "need N >= 1, got 0"),
], ids=["rh-coefficients-n-zero", "r-entries-pole", "a11-n-zero"])
def test_refuses_arguments_out_of_domain(call, message, pre_geom):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(pre_geom)
