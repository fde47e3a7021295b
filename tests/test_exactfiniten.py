"""Exact finite-N oracles: moments, determinants, polynomials, dualities."""

import json
import pathlib
from fractions import Fraction

import pytest
from mpmath import mp
from mpmath.libmp import from_rational, round_nearest

import oracles
from coulombgas import cli, exactfiniten, geometry, opasymp
from coulombgas.errors import DomainError, SingularHankel

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


class TestCalibration:
    def test_frozen_rational_values(self):
        """Pinned logZ values from the one-time normalization calibration."""
        entries = json.loads(
            (FIXTURES / "exact_logz_calibration.json").read_text())["entries"]
        assert len(entries) == 5
        for entry in entries:
            ctx = exactfiniten.ExactContext(
                N=entry["N"], m=entry["m"], a=Fraction(entry["a"]))
            got = exactfiniten.exact_logZ(ctx)
            with mp.workprec(256):
                want = mp.log(mp.mpf(Fraction(entry["Z"]).numerator)
                              / Fraction(entry["Z"]).denominator)
                assert abs(got - want) < mp.mpf(10) ** -60


class TestContourMoment:
    def test_pure_gaussian(self):
        ctx = exactfiniten.ExactContext(N=1, m=0, a=0.7)
        assert exactfiniten.contour_moment(ctx, 0) == 1
        with pytest.warns(UserWarning):
            assert exactfiniten.contour_moment(ctx, 1) == 0

    def test_against_contour_quadrature(self):
        # independent oracle: adaptive quadrature of z^k omega(z) on |z|=2
        ctx = exactfiniten.ExactContext(N=2, m=2, a=0.5)
        with mp.workprec(256):
            for k in range(3):
                closed = exactfiniten.contour_moment(ctx, k)

                def integrand(theta, k=k):
                    z = 2 * mp.e ** (1j * theta)
                    omega = ((z - mp.mpf(1) / 2) ** 2
                             * mp.e ** (-z) / z ** 4)
                    return z ** (k + 1) * omega / (2 * mp.pi)

                quad = mp.quad(integrand, [0, 2 * mp.pi], maxdegree=10)
                assert abs(closed - quad.real) + abs(quad.imag) < mp.mpf(10) ** -20

    def test_origin_weight_is_kronecker(self):
        ctx = exactfiniten.ExactContext(N=3, m=2, a=0.0)
        for k in range(5):
            assert exactfiniten.contour_moment(ctx, k) == (1 if k == 2 else 0)

    @pytest.mark.parametrize("N,m,a", [
        (16, 16, 0.2),
        (16, 16, 3.0),
        (12, 12, -0.7),
        (8, 8, 0.0),
        (10, 10, Fraction(1, 3)),
        (16, 9, 0.3),   # c = 9/16: m < N, so nu_k = 0 for k >= m+N
    ])
    def test_correctly_rounded(self, N, m, a):
        # every moment is the nearest 256-bit float to the exact rational
        ctx = exactfiniten.ExactContext(N=N, m=m, a=a)
        got = exactfiniten._moments(ctx, range(2 * N))
        for k, value in enumerate(got):
            exact = oracles.fraction_moment(N, m, a, k)
            want = from_rational(exact.numerator, exact.denominator, 256,
                                 round_nearest)
            assert value._mpf_ == want, k

    def test_zero_beyond_residue_degree(self):
        # m < N: p = m+N-1-k < 0 for k >= m+N, and the residue vanishes
        ctx = exactfiniten.ExactContext(N=16, m=9, a=0.3)
        got = exactfiniten._moments(ctx, range(32))
        assert all(v != 0 for v in got[:25])
        assert all(v == 0 for v in got[25:])
        for k in (25, 31):
            with pytest.warns(UserWarning):
                assert exactfiniten.contour_moment(ctx, k) == 0


class TestExactLogZ:
    def test_precision_doubling_stable(self):
        lz256 = exactfiniten.exact_logZ(
            exactfiniten.ExactContext(N=6, m=6, a=0.8))
        lz512 = exactfiniten.exact_logZ(
            exactfiniten.ExactContext(N=6, m=6, a=0.8, precision_bits=512))
        assert float(abs(lz256 - lz512) / abs(lz512)) < 2.0 ** -128

    def test_even_in_a(self):
        plus = exactfiniten.exact_logZ(exactfiniten.ExactContext(N=4, m=4, a=0.4))
        minus = exactfiniten.exact_logZ(exactfiniten.ExactContext(N=4, m=4, a=-0.4))
        assert abs(plus - minus) < mp.mpf(10) ** -70

    def test_moment_index_cap(self):
        with pytest.raises(DomainError):
            exactfiniten.ExactContext(N=100, m=50, a=0.1)


class TestMomentTable:
    def test_large_n_digits_at_default_precision(self):
        # unscaled partial pivoting keeps only ~7 digits of log Z here
        ctx = exactfiniten.ExactContext(N=60, m=60, a=3.0)
        ref = exactfiniten.moment_table(
            exactfiniten.ExactContext(N=60, m=60, a=3.0, precision_bits=768))
        assert abs(exactfiniten.exact_logZ(ctx) - ref.log_z) < 1e-10
        assert abs(exactfiniten.exact_A11(ctx) - ref.op[-2]) < 1e-10

    def test_large_n_digits_against_reference(self):
        # 3000-bit values of exact --a 3 --c 1 --n 60, as stored in
        # perfbench/reference.json.gz (entry exact-sweep/3)
        table = exactfiniten.moment_table(
            exactfiniten.ExactContext(N=60, m=60, a=3.0))
        with mp.workprec(256):
            ref_log_z = mp.mpf("5708.63317142410395252736468381")
            ref_a11 = mp.mpf("18.0159939788111606310996431081")
            assert abs(table.log_z - ref_log_z) < 1e-12
            assert abs(table.op[-2] - ref_a11) < 1e-12

    def test_exact_command_builds_one_table(self, monkeypatch, capsys):
        calls = []
        build = exactfiniten.moment_table

        def counted(ctx):
            calls.append(ctx)
            return build(ctx)

        monkeypatch.setattr(exactfiniten, "moment_table", counted)
        code = cli.run(["exact", "--a", "3", "--c", "1", "--n", "16"])
        capsys.readouterr()
        assert code == 0
        assert len(calls) == 1

    def test_numerically_singular_system_raises(self, monkeypatch):
        # det H = nu_0 nu_2 - nu_1^2 = 2^-300, below ||H||_1 eps at 256 bits
        with mp.workprec(400):
            nu = [mp.mpf(1), mp.mpf(1), 1 + mp.mpf(2) ** -300, mp.mpf(0)]
        monkeypatch.setattr(exactfiniten, "_moments", lambda ctx, ks: nu)
        with pytest.raises(SingularHankel):
            exactfiniten.moment_table(
                exactfiniten.ExactContext(N=2, m=2, a=0.5))


class TestOrthogonalPolynomial:
    def test_radial_case_is_monomial(self):
        ctx = exactfiniten.ExactContext(N=4, m=4, a=0.0)
        coeffs = exactfiniten.exact_op(ctx)
        assert coeffs[-1] == 1
        assert all(c == 0 for c in coeffs[:-1])
        assert exactfiniten.exact_A11(ctx) == 0

    def test_contour_orthogonality(self):
        ctx = exactfiniten.ExactContext(N=4, m=4, a=0.7)
        coeffs = exactfiniten.exact_op(ctx)
        with mp.workprec(256):
            nu = [exactfiniten.contour_moment(ctx, k) for k in range(8)]
            worst = max(abs(sum(coeffs[j] * nu[i + j]
                                for j in range(len(coeffs))))
                        for i in range(4))
        assert float(worst) < 1e-70

    def test_a11_post_superpolynomial(self):
        # A11 - caN decays exponentially (measured ~e^(-1.04 N) at a=0.2):
        # 2.2e-4, 2.9e-6, 7.5e-10 at N = 4, 8, 16
        err = {}
        for n in (4, 8, 16):
            a11 = exactfiniten.exact_A11(
                exactfiniten.ExactContext(N=n, m=n, a=0.2))
            err[n] = abs(float(a11) - 0.2 * n)
        assert err[4] / err[8] > 30      # faster than any N^-4 ratio of 16
        assert err[8] / err[16] > 1000
        assert err[16] < 1e-8

    def test_a11_pre_correction_pattern(self):
        # remainder after the N and 1/N terms is O(N^-3): N^2 x diff shrinks
        scaled = []
        for n in (4, 8, 16):
            a11 = float(exactfiniten.exact_A11(
                exactfiniten.ExactContext(N=n, m=n, a=1.2)))
            asymp = opasymp.a11_asymp(n, 1.2, 1.0, geometry.Regime.PRE)
            scaled.append(abs(n * n * (a11 - asymp)))
        assert all(s < 0.01 for s in scaled)
        assert scaled[0] > scaled[1] > scaled[2]

    def test_polynomial_evaluation(self):
        ctx = exactfiniten.ExactContext(N=3, m=3, a=0.5)
        coeffs = exactfiniten.exact_op(ctx)
        z = 2.0 + 1.0j
        direct = sum(complex(c) * z ** k for k, c in enumerate(coeffs))
        assert abs(complex(exactfiniten.eval_polynomial(coeffs, z)) - direct) < 1e-12


class TestLUEGap:
    def test_no_wall(self):
        assert exactfiniten.lue_gap_probability(3, 2, Fraction(0), 3) == 1

    def test_single_exponential(self):
        with mp.workprec(256):
            got = exactfiniten.lue_gap_probability(1, 0, Fraction(7, 10), 1)
            assert abs(got - mp.e ** (-mp.mpf(7) / 10)) < mp.mpf(10) ** -70

    def test_monotone_survival(self):
        vals = [exactfiniten.lue_gap_probability(3, 2, Fraction(k, 5), 3)
                for k in range(11)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < vals[0]


class TestDuality:
    def test_exact_at_origin(self):
        assert exactfiniten.duality_residual(2, 2, 0.0) == 0

    @pytest.mark.parametrize("n,m,x,bound", [
        (2, 2, 0.5, 1e-30),
        (4, 4, 1.0, 1e-25),
    ])
    def test_residuals(self, n, m, x, bound):
        assert float(exactfiniten.duality_residual(n, m, x)) < bound


class TestCharpolyMoment:
    def test_empty_insertion(self):
        assert exactfiniten.exact_charpoly_moment(4, 0, 1.3) == 1

    def test_origin_product_form(self):
        with mp.workprec(256):
            got = exactfiniten.exact_charpoly_moment(3, 3, 0.0)
            want = mp.mpf(1)
            for k in range(3):
                want *= mp.factorial(3 + k) / (mp.factorial(k) * mp.mpf(3) ** 3)
            assert abs(got - want) < mp.mpf(10) ** -70
