"""Exact finite-N oracles: moments, determinants, polynomials, dualities."""

import decimal
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
                closed = to_mpf(exactfiniten.contour_moment(ctx, k))

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
        # every moment is the exact rational, and contour_moment gives it
        # to within half a unit in the last of the 256-bit context's digits
        ctx = exactfiniten.ExactContext(N=N, m=m, a=a)
        digits = exactfiniten.decimal_context(256).prec
        got = exactfiniten._moments(ctx, range(2 * N))
        for k, (num, den) in enumerate(got):
            exact = oracles.fraction_moment(N, m, a, k)
            assert den > 0 and Fraction(num, den) == exact, k
            if k < N + m:
                moment = exactfiniten.contour_moment(ctx, k)
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
        assert exactfiniten._moments(ctx, ks) == oracles.term_moments(
            N, m, a, ks)

    def test_zero_beyond_residue_degree(self):
        # m < N: p = m+N-1-k < 0 for k >= m+N, and the residue vanishes
        ctx = exactfiniten.ExactContext(N=16, m=9, a=0.3)
        got = exactfiniten._moments(ctx, range(32))
        assert all(num != 0 for num, _ in got[:25])
        assert all(num == 0 for num, _ in got[25:])
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
        assert abs(plus - minus) < Decimal("1e-70")

    def test_moment_index_cap(self):
        with pytest.raises(DomainError):
            exactfiniten.ExactContext(N=100, m=50, a=0.1)


class TestMomentTable:
    def test_large_n_digits_at_default_precision(self):
        # the 256-bit default is within ~6e-27 of a 768-bit run
        ctx = exactfiniten.ExactContext(N=60, m=60, a=3.0)
        ref = exactfiniten.moment_table(
            exactfiniten.ExactContext(N=60, m=60, a=3.0, precision_bits=768))
        assert abs(exactfiniten.exact_logZ(ctx) - ref.log_z) < 1e-10
        assert abs(exactfiniten.exact_A11(ctx) - ref.op[-2]) < 1e-10

    def test_large_n_digits_against_reference(self):
        # 3000-bit values of exact --a 3 --c 1 --n 60, as stored in
        # perfbench/reference.json.gz (entry exact-sweep/3); measured errors
        # are 6.3e-27 (log Z) and 4.7e-27 (A11)
        table = exactfiniten.moment_table(
            exactfiniten.ExactContext(N=60, m=60, a=3.0))
        ref_log_z = Decimal("5708.63317142410395252736468381")
        ref_a11 = Decimal("18.0159939788111606310996431081")
        assert abs(table.log_z - ref_log_z) < Decimal("1e-20")
        assert abs(table.op[-2] - ref_a11) < Decimal("1e-20")

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

    @staticmethod
    def _table_from(monkeypatch, nu):
        # moment_table at 256 bits on the exact moments nu = [(num, den), ...]
        monkeypatch.setattr(exactfiniten, "_moments", lambda ctx, ks: nu)
        return exactfiniten.moment_table(
            exactfiniten.ExactContext(N=2, m=2, a=0.5))

    def test_numerically_singular_system_raises(self, monkeypatch):
        # det H = nu_0 nu_2 - nu_1^2 = 2^-300, below ||H||_1 2^-266 at 256 bits
        nu = [(1, 1), (1, 1), (2 ** 300 + 1, 2 ** 300), (0, 1)]
        with pytest.raises(SingularHankel, match="numerically singular"):
            self._table_from(monkeypatch, nu)

    def test_wrong_hankel_sign_raises(self, monkeypatch):
        # det H = +1, but a 2x2 moment Hankel determinant must be negative
        nu = [(1, 1), (0, 1), (1, 1), (0, 1)]
        with pytest.raises(SingularHankel, match="sign"):
            self._table_from(monkeypatch, nu)

    def test_near_singular_system_solves(self, monkeypatch):
        # det H = -2^-200 is far above the threshold: no raise; the entries
        # fit the 320-bit mantissas exactly, so log det and p_N (condition
        # number 2^200) are exact up to their final rounding
        eps = Fraction(1, 2 ** 200)
        nu = [(1, 1), (1, 1), (1 - eps).as_integer_ratio(), (0, 1)]
        table = self._table_from(monkeypatch, nu)
        det, coeffs = oracles.fraction_solve(
            [[Fraction(*nu[0]), Fraction(*nu[1])],
             [Fraction(*nu[1]), Fraction(*nu[2])]],
            [-Fraction(*nu[2]), -Fraction(*nu[3])])
        assert det == -eps
        with mp.workprec(512):
            log_det = to_mpf(table.log_z) - _log_z_prefactor(2, 2)
            assert abs(log_det + 200 * mp.log(2)) < mp.mpf(10) ** -60
            for got, want in zip(table.op, coeffs):
                assert abs(to_mpf(got)
                           - mp.mpf(want.numerator) / want.denominator) \
                    < mp.mpf(10) ** -60 * abs(coeffs[1])

    @pytest.mark.parametrize("N", [3, 6, 10])
    @pytest.mark.parametrize("a", [0.0, 0.2, 1.2, 3.0])
    def test_against_fraction_elimination(self, N, a):
        # log|det H| and p_N against exact rational elimination; at a = 0,
        # H is the exchange matrix, whose leading minors but the last vanish,
        # so the pivot rule must swap rows
        table = exactfiniten.moment_table(exactfiniten.ExactContext(N, N, a))
        nu = [oracles.fraction_moment(N, N, a, k) for k in range(2 * N)]
        det, coeffs = oracles.fraction_solve(
            [nu[i:i + N] for i in range(N)], [-v for v in nu[N:]])
        coeffs = coeffs + [Fraction(1)]
        with mp.workprec(512):
            want = mp.log(abs(mp.mpf(det.numerator) / det.denominator))
            got = to_mpf(table.log_z) - _log_z_prefactor(N, N)
            assert abs(got - want) <= mp.mpf(10) ** -60 * max(1, abs(want))
            scale = max(abs(c) for c in coeffs)
            for c_got, c_want in zip(table.op, coeffs):
                err = abs(to_mpf(c_got)
                          - mp.mpf(c_want.numerator) / c_want.denominator)
                assert err <= mp.mpf(10) ** -60 * scale

    @pytest.mark.parametrize("bits", [128, 256, 512])
    def test_bits_ladder_against_1024_bits(self, bits):
        # at (a, N) = (0.2, 32) every bit asked for reaches log Z and p_N:
        # each lands within 2^-(bits-20) of a 1024-bit run, relative
        ref = exactfiniten.moment_table(
            exactfiniten.ExactContext(N=32, m=32, a=0.2, precision_bits=1024))
        table = exactfiniten.moment_table(
            exactfiniten.ExactContext(N=32, m=32, a=0.2, precision_bits=bits))
        bound = Fraction(1, 2 ** (bits - 20))
        assert (abs(Fraction(table.log_z) - Fraction(ref.log_z))
                <= bound * abs(Fraction(ref.log_z)))
        scale = max(abs(Fraction(c)) for c in ref.op)
        assert max(abs(Fraction(c) - Fraction(r))
                   for c, r in zip(table.op, ref.op)) <= bound * scale

    def test_added_bits_reach_the_result_at_a3_n60(self):
        # the a = 3, N = 60 elimination loses about 156 bits at every P
        # (2^-99.5 relative in log Z at 256 bits), so 2^-(bits-20) cannot
        # hold there; what must hold is that the added bits all arrive:
        # from 256 to 512 bits the gap to a 1024-bit run shrinks by at
        # least 2^(256-20) (measured 2^256)
        gaps = []
        ref = exactfiniten.moment_table(
            exactfiniten.ExactContext(N=60, m=60, a=3.0, precision_bits=1024))
        for bits in (256, 512):
            table = exactfiniten.moment_table(
                exactfiniten.ExactContext(N=60, m=60, a=3.0,
                                          precision_bits=bits))
            gaps.append((abs(Fraction(table.log_z) - Fraction(ref.log_z)),
                         max(abs(Fraction(c) - Fraction(r))
                             for c, r in zip(table.op, ref.op))))
        for coarse, fine in zip(*gaps):
            assert 0 < fine <= coarse / 2 ** (256 - 20)


class TestRoundedRows:
    def test_matches_one_rounding_per_entry(self):
        # a repeated entry is one object at several shifts, as in a Hankel
        # matrix; each odd num/2^j sits exactly halfway at shift j - 1, once
        # below a larger shift of the same object and once as the largest
        # shift of an equal but distinct object
        ties = [(num, j) for num in (-7, -3, -1, 1, 3, 7) for j in (1, 2, 5)]
        rows = [[(num, 2 ** j)] * 3 for num, j in ties]
        shifts = [[j + 2, j - 1, -4] for _, j in ties]
        rows += [[(num, 2 ** j)] * 3 for num, j in ties]
        shifts += [[j - 1, j - 2, j - 6] for _, j in ties]
        rng = random.Random(7)
        pool = [(0, 1), (1, 1), (-1, 3)] + [
            (rng.choice((1, -1)) * rng.getrandbits(rng.randint(1, 400)),
             rng.getrandbits(rng.randint(1, 300)) | 1) for _ in range(40)]
        for _ in range(30):
            rows.append([rng.choice(pool) for _ in range(9)])
            shifts.append([rng.randint(-400, 400) for _ in range(9)])
        want = [[oracles.rounded(num, den, s) for (num, den), s in zip(row, sh)]
                for row, sh in zip(rows, shifts)]
        assert exactfiniten._rounded_rows(rows, shifts) == want
        assert [row[1] for row in want[:len(ties)]] == [
            (num + 1) // 2 for num, _ in ties]


class TestOrthogonalPolynomial:
    def test_radial_case_is_monomial(self):
        ctx = exactfiniten.ExactContext(N=4, m=4, a=0.0)
        coeffs = exactfiniten.exact_op(ctx)
        assert coeffs[-1] == 1
        assert all(c == 0 for c in coeffs[:-1])
        assert exactfiniten.exact_A11(ctx) == 0

    def test_contour_orthogonality(self):
        ctx = exactfiniten.ExactContext(N=4, m=4, a=0.7)
        with mp.workprec(256):
            coeffs = [to_mpf(c) for c in exactfiniten.exact_op(ctx)]
            nu = [to_mpf(exactfiniten.contour_moment(ctx, k)) for k in range(8)]
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
