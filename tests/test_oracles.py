"""Tests of the test-only oracles in oracles.py, which no package code runs."""

import math
from fractions import Fraction

import pytest
from mpmath import mp

import oracles
from coulombgas import exactfiniten

# the oracle returns Decimals; mpmath takes them at its working precision
to_mpf = mp.mpmathify


class TestContourMoment:
    """The contour moments behind `oracles.contour_hankel`, the exact
    rational route the Gram route is checked against."""

    def test_pure_gaussian(self):
        params = (1, 0, 0.7)
        assert oracles.contour_moment(*params, 0) == 1
        with pytest.warns(UserWarning):
            assert oracles.contour_moment(*params, 1) == 0

    def test_origin_weight_is_kronecker(self):
        params = (3, 2, 0.0)
        for k in range(5):
            assert oracles.contour_moment(*params, k) == (1 if k == 2 else 0)

    def test_zero_beyond_residue_degree(self):
        # m < N: p = m+N-1-k < 0 for k >= m+N, and the residue vanishes
        params = (16, 9, 0.3)
        got = [oracles.fraction_moment(*params, k) for k in range(32)]
        assert all(got[:25])
        assert not any(got[25:])
        for k in (25, 31):
            with pytest.warns(UserWarning):
                assert oracles.contour_moment(*params, k) == 0

    def test_against_contour_quadrature(self):
        # independent oracle: adaptive quadrature of z^k omega(z) on |z|=2
        params = (2, 2, 0.5)
        with mp.workprec(256):
            for k in range(3):
                closed = to_mpf(oracles.contour_moment(*params, k))

                def integrand(theta, k=k):
                    z = 2 * mp.e ** (1j * theta)
                    omega = ((z - mp.mpf(1) / 2) ** 2
                             * mp.e ** (-z) / z ** 4)
                    return z ** (k + 1) * omega / (2 * mp.pi)

                quad = mp.quad(integrand, [0, 2 * mp.pi], maxdegree=10)
                assert abs(closed - quad.real) + abs(quad.imag) < mp.mpf(10) ** -20

    @pytest.mark.parametrize("N,m,a", [
        (16, 16, 0.2),
        (16, 16, 3.0),
        (12, 12, -0.7),
        (8, 8, 0.0),
        (10, 10, Fraction(1, 3)),
        (16, 9, 0.3),   # c = 9/16: m < N, so nu_k = 0 for k >= m+N
    ])
    def test_correctly_rounded(self, N, m, a):
        # contour_moment gives each exact rational moment to within half a
        # unit in the last of the 256-bit context's digits
        params = (N, m, a)
        digits = exactfiniten.decimal_context(256).prec
        for k in range(min(2 * N, N + m)):
            exact = oracles.fraction_moment(*params, k)
            moment = oracles.contour_moment(*params, k)
            assert len(moment.as_tuple().digits) <= digits, k
            if exact:
                ulp = Fraction(10) ** (moment.adjusted() - digits + 1)
                assert abs(Fraction(moment) - exact) <= ulp / 2, k
            else:
                assert moment == 0, k


def test_far_field_form():
    assert oracles.phi_large_t(123.0, 0.0) == 123.0
    assert oracles.phi_large_t(123.0, 2.0) == pytest.approx(
        123.0 - 2.0 * math.log(123.0), abs=1e-12)
