"""Exact finite-N oracles: moments, determinants, polynomials, dualities."""

import decimal
import functools
import json
import math
import pathlib
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from mpmath import mp

import oracles
from coulombgas import cli, exactfiniten, geometry, opasymp
from coulombgas.errors import DomainError, SingularHankel

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# the oracle returns Decimals; mpmath takes them at its working precision
to_mpf = mp.mpmathify


def _log_z_prefactor(N, m):
    """log Z_N - log|det H| = log N! + sum_k (log (m+k)! - (m+k+1) log N)."""
    out = mp.log(mp.factorial(N))
    for k in range(N):
        out += mp.log(mp.factorial(m + k)) - (m + k + 1) * mp.log(N)
    return out


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
                assert abs(to_mpf(got) - want) < mp.mpf(10) ** -60


class TestContourMoment:
    """The contour moments behind `oracles.contour_hankel`, the exact
    rational route the Gram route is checked against."""

    def test_pure_gaussian(self):
        ctx = exactfiniten.ExactContext(N=1, m=0, a=0.7)
        assert oracles.contour_moment(ctx, 0) == 1
        with pytest.warns(UserWarning):
            assert oracles.contour_moment(ctx, 1) == 0

    def test_against_contour_quadrature(self):
        # independent oracle: adaptive quadrature of z^k omega(z) on |z|=2
        ctx = exactfiniten.ExactContext(N=2, m=2, a=0.5)
        with mp.workprec(256):
            for k in range(3):
                closed = to_mpf(oracles.contour_moment(ctx, k))

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
            assert oracles.contour_moment(ctx, k) == (1 if k == 2 else 0)

    @pytest.mark.parametrize("N,m,a", [
        (16, 16, 0.2),
        (16, 16, 3.0),
        (12, 12, -0.7),
        (8, 8, 0.0),
        (10, 10, Fraction(1, 3)),
        (16, 9, 0.3),   # c = 9/16: m < N, so nu_k = 0 for k >= m+N
    ])
    def test_correctly_rounded(self, N, m, a):
        # every moment is the exact rational, and contour_moment gives it
        # to within half a unit in the last of the 256-bit context's digits
        ctx = exactfiniten.ExactContext(N=N, m=m, a=a)
        digits = exactfiniten.decimal_context(256).prec
        got = oracles.horner_moments(ctx, range(2 * N))
        for k, (num, den) in enumerate(got):
            exact = oracles.fraction_moment(N, m, a, k)
            assert den > 0 and Fraction(num, den) == exact, k
            if k < N + m:
                moment = oracles.contour_moment(ctx, k)
                assert len(moment.as_tuple().digits) <= digits, k
                if exact:
                    ulp = Fraction(10) ** (moment.adjusted() - digits + 1)
                    assert abs(Fraction(moment) - exact) <= ulp / 2, k
                else:
                    assert moment == 0, k

    @pytest.mark.parametrize("a", [0.0, 0.2, 1.2, 3.0, Fraction(1, 3)],
                             ids=["0", "0.2", "1.2", "3", "1/3"])
    @pytest.mark.parametrize("N,m", [(9, 0), (9, 4), (9, 9), (6, 11)])
    def test_horner_pairs_match_term_by_term(self, N, m, a):
        # m = 0, 0 < m < N, m = N and m > N; ks run past m + N, where the
        # residue vanishes
        ctx = exactfiniten.ExactContext(N=N, m=m, a=a)
        ks = range(m + N + 3)
        assert oracles.horner_moments(ctx, ks) == oracles.term_moments(
            N, m, a, ks)

    def test_zero_beyond_residue_degree(self):
        # m < N: p = m+N-1-k < 0 for k >= m+N, and the residue vanishes
        ctx = exactfiniten.ExactContext(N=16, m=9, a=0.3)
        got = oracles.horner_moments(ctx, range(32))
        assert all(num != 0 for num, _ in got[:25])
        assert all(num == 0 for num, _ in got[25:])
        for k in (25, 31):
            with pytest.warns(UserWarning):
                assert oracles.contour_moment(ctx, k) == 0


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
        assert abs(plus - minus) < Decimal("1e-70")

    def test_moment_index_cap(self):
        with pytest.raises(DomainError):
            exactfiniten.ExactContext(N=100, m=50, a=0.1)


class TestMomentTable:
    def test_large_n_digits_at_default_precision(self):
        # the 256-bit default is within ~4e-71 of a 768-bit run
        ctx = exactfiniten.ExactContext(N=60, m=60, a=3.0)
        ref = exactfiniten.moment_table(
            exactfiniten.ExactContext(N=60, m=60, a=3.0, precision_bits=768))
        table = exactfiniten.moment_table(ctx)
        assert abs(table.log_z - ref.log_z) < Decimal("1e-60")
        assert abs(table.op[-2] - ref.op[-2]) < Decimal("1e-60")

    def test_large_n_digits_against_reference(self):
        # exact --a 3 --c 1 --n 60 from the contour-Hankel route at 3000
        # bits; perfbench/reference.json.gz (entry exact-sweep/3) stores
        # these to 30 digits.  Measured errors at 256 bits: 4.2e-71 (log Z)
        # and 2.9e-71 (A11)
        table = exactfiniten.moment_table(
            exactfiniten.ExactContext(N=60, m=60, a=3.0))
        ref_log_z = Decimal("5708.63317142410395252736468381386428141324944816"
                            "27712740615047201494163336")
        ref_a11 = Decimal("18.015993978811160631099643108079043304230852096234"
                          "6518642842689092317418334")
        assert abs(table.log_z - ref_log_z) < Decimal("1e-60")
        assert abs(table.op[-2] - ref_a11) < Decimal("1e-60")

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

    def test_numerically_singular_system_raises(self):
        # det = -2^-300: the second pivot of [[1, 1], [1, 1 - 2^-300]] is < 0
        rows = [[(1, 1)], [(1, 1), (2 ** 300 - 1, 2 ** 300)]]
        with pytest.raises(SingularHankel, match="pivot 1 .* <= 0"):
            exactfiniten._ldl(rows, 256)

    def test_near_singular_system_solves(self):
        # det = 2^-200; the entries fit the 320-bit mantissas exactly, so
        # log det and the solve (condition number 2^202) are exact up to
        # their final rounding
        eps = Fraction(1, 2 ** 200)
        matrix = [[Fraction(1), Fraction(1)], [Fraction(1), 1 + eps]]
        rhs = [Fraction(1), Fraction(0)]
        rows = [[v.as_integer_ratio() for v in row[:i + 1]]
                for i, row in enumerate(matrix)]
        rows.append([v.as_integer_ratio() for v in rhs])
        det, det_exp, x = exactfiniten._ldl(rows, 256)
        want_det, want_x = oracles.fraction_solve(matrix, rhs)
        assert want_det == eps
        with mp.workprec(1024):
            log_det = mp.log(det) + det_exp * mp.log(2)
            assert abs(log_det + 200 * mp.log(2)) < mp.mpf(10) ** -60
        assert [Fraction(v) for v in x] == want_x

    @pytest.mark.parametrize("N", [3, 6, 10])
    @pytest.mark.parametrize("a", [0.0, 0.2, 1.2, 3.0])
    def test_against_fraction_elimination(self, N, a):
        # log Z_N and p_N against the exact rational contour-Hankel route;
        # at a = 0 the Gram matrix is diagonal, while the Hankel matrix is
        # the exchange matrix and needs row swaps
        table = exactfiniten.moment_table(exactfiniten.ExactContext(N, N, a))
        det, coeffs = oracles.contour_hankel(N, N, a)
        with mp.workprec(512):
            want = (mp.log(abs(mp.mpf(det.numerator) / det.denominator))
                    + _log_z_prefactor(N, N))
            got = to_mpf(table.log_z)
            assert abs(got - want) <= mp.mpf(10) ** -60 * max(1, abs(want))
            scale = max(abs(c) for c in coeffs)
            for c_got, c_want in zip(table.op, coeffs):
                err = abs(to_mpf(c_got)
                          - mp.mpf(c_want.numerator) / c_want.denominator)
                assert err <= mp.mpf(10) ** -60 * scale

    @pytest.mark.parametrize("a,N,bits,solve_loss", [
        pytest.param(0.2, 32, 128, 0, id="128"),
        pytest.param(0.2, 32, 256, 0, id="256"),
        pytest.param(0.2, 32, 512, 0, id="512"),
        pytest.param(3.0, 60, 256, 8, id="a3-n60-256"),
        pytest.param(3.0, 60, 512, 8, id="a3-n60-512"),
    ])
    def test_bits_ladder_against_1024_bits(self, a, N, bits, solve_loss):
        # every bit asked for reaches log Z: it lands within 2^-(bits-20) of
        # a 1024-bit run, relative (the contour-Hankel route lost 156 bits
        # at a = 3, N = 60).  The solve for p_N has condition number about
        # 2^87 after scaling at a = 3, N = 60, so its coefficients may lose
        # solve_loss bits more there (measured 2^-233.8 of the largest
        # coefficient at 256 bits, against a bound of 2^-228, and 2^-489.9
        # at 512)
        ref = _table_at_1024_bits(a, N)
        table = exactfiniten.moment_table(
            exactfiniten.ExactContext(N=N, m=N, a=a, precision_bits=bits))
        bound = Fraction(1, 2 ** (bits - 20))
        assert (abs(Fraction(table.log_z) - Fraction(ref.log_z))
                <= bound * abs(Fraction(ref.log_z)))
        scale = max(abs(Fraction(c)) for c in ref.op)
        assert max(abs(Fraction(c) - Fraction(r))
                   for c, r in zip(table.op, ref.op)) \
            <= bound * 2 ** solve_loss * scale


@functools.cache
def _table_at_1024_bits(a, N):
    return exactfiniten.moment_table(
        exactfiniten.ExactContext(N=N, m=N, a=a, precision_bits=1024))


class TestOrthogonalPolynomial:
    def test_radial_case_is_monomial(self):
        ctx = exactfiniten.ExactContext(N=4, m=4, a=0.0)
        coeffs = exactfiniten.exact_op(ctx)
        assert coeffs[-1] == 1
        assert all(c == 0 for c in coeffs[:-1])
        assert exactfiniten.moment_table(ctx).op[-2] == 0

    def test_contour_orthogonality(self):
        ctx = exactfiniten.ExactContext(N=4, m=4, a=0.7)
        with mp.workprec(256):
            coeffs = [to_mpf(c) for c in exactfiniten.exact_op(ctx)]
            nu = [to_mpf(oracles.contour_moment(ctx, k)) for k in range(8)]
            worst = max(abs(sum(coeffs[j] * nu[i + j]
                                for j in range(len(coeffs))))
                        for i in range(4))
        assert float(worst) < 1e-70

    def test_a11_post_superpolynomial(self):
        # A11 - caN decays exponentially (measured ~e^(-1.04 N) at a=0.2):
        # 2.2e-4, 2.9e-6, 7.5e-10 at N = 4, 8, 16
        err = {}
        for n in (4, 8, 16):
            a11 = exactfiniten.moment_table(
                exactfiniten.ExactContext(N=n, m=n, a=0.2)).op[-2]
            err[n] = abs(float(a11) - 0.2 * n)
        assert err[4] / err[8] > 30      # faster than any N^-4 ratio of 16
        assert err[8] / err[16] > 1000
        assert err[16] < 1e-8

    def test_a11_pre_correction_pattern(self):
        # remainder after the N and 1/N terms is O(N^-3): N^2 x diff shrinks
        scaled = []
        for n in (4, 8, 16):
            a11 = float(exactfiniten.moment_table(
                exactfiniten.ExactContext(N=n, m=n, a=1.2)).op[-2])
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

    def test_real_point_gives_unsigned_zero(self):
        # at a real z < 0 the Decimal imaginary part ends as -0; the table
        # must read 0.0, as it did when mpmath (whose zero has no sign) ran
        coeffs = exactfiniten.exact_op(
            exactfiniten.ExactContext(N=4, m=4, a=1.2))
        value = exactfiniten.eval_polynomial(coeffs, -3.0 + 0.0j)
        assert value.imag == 0.0 and math.copysign(1.0, value.imag) == 1.0


class TestLUEGap:
    def test_no_wall(self):
        assert exactfiniten.lue_gap_probability(3, 2, Fraction(0), 3) == 1

    def test_single_exponential(self):
        with mp.workprec(256):
            got = to_mpf(exactfiniten.lue_gap_probability(1, 0, Fraction(7, 10),
                                                          1))
            assert abs(got - mp.e ** (-mp.mpf(7) / 10)) < mp.mpf(10) ** -70

    def test_monotone_survival(self):
        vals = [exactfiniten.lue_gap_probability(3, 2, Fraction(k, 5), 3)
                for k in range(11)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < vals[0]


    @pytest.mark.parametrize("n,alpha_n,t,N_w", [
        pytest.param(1, 0, Fraction(7, 10), 1, id="1-0-t0"),
        pytest.param(3, 2, Fraction(1, 2), 3, id="3-2-t1"),
        pytest.param(5, 5, Fraction(9, 4), 5, id="5-5-t2"),
        pytest.param(8, 3, Fraction(3, 8), 8, id="8-3-t3"),
        pytest.param(8, 8, Fraction(5, 2), 8, id="8-8-t4"),
        # N_w != n: the N_w^-s entry scalings and the N_w power of the
        # closed-form t = 0 determinant must cancel on their own
        pytest.param(3, 2, Fraction(1, 2), 5, id="3-2-t5-Nw5"),
        pytest.param(4, 0, Fraction(3, 4), 7, id="4-0-t6-Nw7"),
        pytest.param(6, 4, Fraction(0.3) ** 2, 2, id="6-4-t7-Nw2"),
    ])
    def test_against_fraction_elimination(self, n, alpha_n, t, N_w):
        # both Gram determinants exactly in rationals:
        # int_t^inf x^(s-1) e^(-N_w x) dx
        #     = e^(-N_w t) (s-1)!/N_w^s sum_{i<s} (N_w t)^i/i!
        def entry(s, cut):  # the integral above times e^(N_w t)
            return (Fraction(math.factorial(s - 1), N_w ** s)
                    * sum(Fraction((N_w * cut) ** i, math.factorial(i))
                          for i in range(s)))

        def gram(cut):
            return [[entry(j + k + alpha_n + 1, cut) for k in range(n)]
                    for j in range(n)]

        ratio = (oracles.fraction_solve(gram(t))[0]
                 / oracles.fraction_solve(gram(Fraction(0)))[0])
        got = exactfiniten.lue_gap_probability(n, alpha_n, t, N_w)
        with mp.workprec(512):
            want = (mp.e ** (-n * N_w * (mp.mpf(t.numerator) / t.denominator))
                    * mp.mpf(ratio.numerator) / ratio.denominator)
            assert abs(to_mpf(got) - want) <= mp.mpf(10) ** -60 * want


    def test_pushed_wall_against_2048_bits(self):
        # -log P ~ 4554 at n = 32: the monomial Hankel route, which the
        # shifted basis replaced, gave this to 80 digits at 2048 bits but
        # was off by 0.35 at 256 bits
        got = exactfiniten.lue_log_gap_probability(32, 57, 8, 32)
        want = Decimal("-4554.349978211809938930256148384885089856854079379"
                       "659284777527476605502584")
        assert abs(got - want) < Decimal("1e-60")

    @pytest.mark.parametrize("n,alpha_n,want", [
        pytest.param(48, 85, "-6687.920640931283069554042272618402482217451"
                     "9207576287556038564267179330836", id="48-85"),
        pytest.param(64, 114, "-11839.98424142824172407731441961931987415098"
                     "977764186756011779024200175013", id="64-114"),
    ])
    def test_large_n_against_1024_bits(self, n, alpha_n, want):
        # the monomial Hankel route raised SingularHankel here at 256 bits;
        # want is its value at 2048 bits, to 75 digits
        got = exactfiniten.lue_log_gap_probability(n, alpha_n, 6, n)
        ref = exactfiniten.lue_log_gap_probability(n, alpha_n, 6, n,
                                                   precision_bits=1024)
        assert abs(got - ref) < Decimal("1e-30")
        assert abs(ref - Decimal(want)) < Decimal("1e-65")


class TestDuality:
    def test_exact_at_origin(self):
        assert exactfiniten.duality_residual(2, 2, 0.0) == 0

    @pytest.mark.parametrize("n,m,x,bound", [
        (2, 2, 0.5, 1e-30),
        (4, 4, 1.0, 1e-25),
    ])
    def test_residuals(self, n, m, x, bound):
        assert float(exactfiniten.duality_residual(n, m, x)) < bound


    @pytest.mark.parametrize("N,m,x", [(24, 24, 1.0), (16, 24, 1.5)])
    def test_gram_routes_agree_at_larger_n(self, N, m, x):
        # the planar and the shifted LUE Gram matrices share only _ldl:
        # log P_LUE = log Z_N(x) - log Z_N(0) - m N x^2 (measured 4.6e-75
        # and 1.1e-76)
        t = Fraction(x) ** 2
        lhs = exactfiniten.lue_log_gap_probability(m, N, t, N)
        log_z = [Fraction(exactfiniten.exact_logZ(
            exactfiniten.ExactContext(N, m, a))) for a in (x, 0.0)]
        gap = abs(Fraction(lhs) - (log_z[0] - log_z[1] - m * N * t))
        assert gap <= Fraction(1, 10 ** 60)


class TestCharpolyMoment:
    def test_empty_insertion(self):
        assert exactfiniten.exact_charpoly_moment(4, 0, 1.3) == 1

    def test_origin_product_form(self):
        with mp.workprec(256):
            got = to_mpf(exactfiniten.exact_charpoly_moment(3, 3, 0.0))
            want = mp.mpf(1)
            for k in range(3):
                want *= mp.factorial(3 + k) / (mp.factorial(k) * mp.mpf(3) ** 3)
            assert abs(got - want) < mp.mpf(10) ** -70

    @pytest.mark.parametrize("N", [1, 2, 8, 60])
    def test_ginibre_normalisation_closed_form(self, N):
        # Z_N(0, 0) = N! prod_{k<N} k! / N^(N(N+1)/2), the denominator of
        # exact_charpoly_moment
        got = exactfiniten.exact_logZ(exactfiniten.ExactContext(N, 0, 0))
        with mp.workprec(512):
            want = (mp.log(math.factorial(N))
                    + sum(mp.log(math.factorial(k)) for k in range(N))
                    - mp.mpf(N * (N + 1)) / 2 * mp.log(N))
            assert abs(to_mpf(got) - want) <= mp.mpf(10) ** -70 * max(1, abs(want))


class TestExplicitContexts:
    def test_values_ignore_thread_and_mpmath_precision(self):
        # every Decimal operation runs in a context built from precision_bits
        ctx = exactfiniten.ExactContext(N=8, m=8, a=1.2)

        def values():
            op = exactfiniten.exact_op(ctx)
            return (exactfiniten.exact_logZ(ctx), op,
                    exactfiniten.eval_polynomial(op, 3.0 + 1.0j),
                    exactfiniten.lue_gap_probability(8, 6, Fraction(7, 10), 8),
                    exactfiniten.lue_log_gap_probability(8, 6, Fraction(7, 10),
                                                         8),
                    exactfiniten.duality_residual(4, 4, 1.0),
                    exactfiniten.exact_charpoly_moment(4, 4, 0.3))

        want = values()
        with decimal.localcontext() as thread, mp.workprec(20):
            thread.prec = 5
            assert decimal.getcontext().prec == 5 and mp.prec == 20
            got = values()
        assert got == want


class TestNstr:
    FIXED = ["5708.63317142410395252736468381016", "12", "12.000",
             "12.000000000000000666133814775", "-6.4508804452954897082454797261637",
             "0.000123456789012345678901234567891", "-1.5e-9", "0.1", "1",
             "9.99999999999999999999999999999961", "1e29"]
    EXPONENT = ["1.5e-10", "-2.5e-300", "123456789012345678901234567890123",
                "-7.77e77", "1e30", "-9.99999999999999999999999999999961e-11"]

    @pytest.mark.parametrize("digits", [6, 30])
    def test_matches_mpmath_nstr(self, digits):
        # both notations, negatives, exact integers, carries and zeros
        rng = random.Random(11)
        texts = self.FIXED + self.EXPONENT + ["0", "-0"] + [
            f"{rng.choice('+-')}{rng.randrange(10 ** 34, 10 ** 60)}"
            f"e{rng.randint(-100, 60)}" for _ in range(300)]
        with mp.workprec(400):
            for text in texts:
                assert exactfiniten.nstr(Decimal(text), digits) \
                    == mp.nstr(mp.mpf(text), digits), text

    def test_notation_examples(self):
        assert [exactfiniten.nstr(Decimal(t), 30) for t in
                ("12", "0", "-1.5e-10", "1e29", "1e30")] == [
            "12.0", "0.0", "-1.5e-10", "100000000000000000000000000000.0",
            "1.0e+30"]
