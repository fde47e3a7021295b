"""Exact finite-N oracles in extended precision.

Every value here comes from explicit moments: each matrix entry is an exact
ratio of Python integers.  Every determinant and linear solve goes through
one routine, `_eliminate_fixed`: Gaussian elimination in integer fixed point
at P = bits + GUARD_BITS (64) bits, bits being the caller's precision
(default 256).  Each column is scaled by a power of two, each row keeps its
own binary exponent, and every entry is rounded once, to nearest, to an int
mantissa of about P bits, with one big division per distinct entry (3N - 1
of the N(N + 1) in the augmented Hankel system of order N); each step uses
scaled partial pivoting (the pivot row maximises |a_rj| / sum_l |a_rl| over
the remaining columns, compared exactly on the ints) and renormalises the
updated rows.  A pivot or remaining row sum at or below ||B||_1
2^-(bits+10), B the column-scaled matrix, raises SingularHankel.  Only the
back substitution for p_N runs in mpf.  These are the ground-truth values
the asymptotic modules are tested against.

The planar moments reduce to residues: with integer m = cN and real a,

    nu_k / (2 pi i) = [coefficient of z^(m+N-1-k)] (z-a)^m e^(-N a z),

a finite alternating sum.  With a = A/D exactly and p = m+N-1-k it is the
integer ratio

    nu_k / (2 pi i) = (-1)^(m+p) sum_j C(m,j) A^(m+p-2j) D^(2j) N^(p-j) p!/(p-j)!
                      / (D^(m+p) p!),

which big-integer arithmetic evaluates without cancellation.
`moment_table` builds nu_0 .. nu_(2N-1) once and eliminates the augmented
Hankel system [H | -nu_N .. nu_(2N-1)] once: log|det H| gives log Z_N, and
back substitution gives the monic orthogonal polynomial p_N, hence A11.
The partition function is N! times the Hankel determinant of radial moments,
which Eq.-level manipulation turns into the nu-determinant with a Gamma-product
prefactor; the combined constant was pinned against 2D quadrature at N = 1, 2
(see tests/fixtures/exact_logz_calibration.json) and is asserted forever.
The LUE gap probability is one Hankel determinant of integer
incomplete-gamma moments, put through the same elimination, over the
closed-form Laguerre moment determinant.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import mpmath as mp
from mpmath.libmp import from_rational, round_nearest

from .errors import DomainError, SingularHankel

MAX_MOMENT_INDEX = 120  # m + N cap; factorial growth beyond this is out of scope
GUARD_BITS = 64  # fixed-point bits kept above the caller's precision

Rational = Union[int, float, Fraction, str]


@dataclass(frozen=True)
class ExactContext:
    N: int
    m: int
    a: Rational  # taken at its exact value: a float's binary value, or a Fraction
    precision_bits: int = 256

    def __post_init__(self):
        if self.N < 1 or self.m < 0:
            raise DomainError(f"need N >= 1 and m >= 0, got N={self.N}, m={self.m}")
        if self.m + self.N > MAX_MOMENT_INDEX:
            raise DomainError(
                f"m + N = {self.m + self.N} exceeds the supported cap {MAX_MOMENT_INDEX}")
        if self.precision_bits < 128:
            raise DomainError(f"precision_bits must be >= 128, got {self.precision_bits}")


@dataclass(frozen=True)
class MomentTable:
    log_z: object  # mpf log Z_N, rounded to the context precision
    op: tuple      # monic p_N coefficients (c_0, ..., c_{N-1}, 1)


def _to_mpf(num: int, den: int):
    """num/den (den > 0) correctly rounded to nearest at the working precision."""
    return mp.make_mpf(from_rational(num, den, mp.mp.prec, round_nearest))


def _moments(ctx: ExactContext, ks) -> list:
    """nu_k/(2 pi i) for each k in ks, as an exact pair (num, den), den > 0.

    With a = A/D exactly (D a power of two for a float a) and p = m+N-1-k,

        nu_k = (-1)^(m+p) sum_{j <= min(m, p)} C(m,j) A^(m+p-2j) D^(2j) N^(p-j) p!/(p-j)!
               / (D^(m+p) p!),

    a ratio of Python ints; 0**0 == 1 keeps a = 0 exact, and p < 0
    (k >= m+N) gives an exact zero.
    """
    N, m = ctx.N, ctx.m
    A, D = Fraction(ctx.a).as_integer_ratio()
    pow_a = [A ** e for e in range(2 * m + N)]
    pow_d = [D ** e for e in range(2 * m + N)]
    pow_n = [N ** e for e in range(m + N)]
    out = []
    for k in ks:
        p = m + N - 1 - k
        if p < 0:
            out.append((0, 1))
            continue
        num, falling = 0, 1  # falling = p!/(p-j)!
        for j in range(min(m, p) + 1):
            num += (math.comb(m, j) * falling * pow_n[p - j]
                    * pow_d[2 * j] * pow_a[m + p - 2 * j])
            falling *= p - j
        if (m + p) % 2:
            num = -num
        out.append((num, pow_d[m + p] * math.factorial(p)))
    return out


def contour_moment(ctx: ExactContext, k: int):
    """nu_k/(2 pi i) at the context precision; zero (with a warning) for k >= m+N."""
    if k < 0:
        raise DomainError(f"moment index must be nonnegative, got {k}")
    if k >= ctx.m + ctx.N:
        warnings.warn(f"moment index k={k} >= m+N={ctx.m + ctx.N}; residue is zero")
        return mp.mpf(0)
    with mp.workprec(ctx.precision_bits):
        return _to_mpf(*_moments(ctx, (k,))[0])


def _rounded_rows(rows: list, shifts: list) -> list:
    """Each entry (num, den), den > 0, times 2^shift rounded to the nearest
    int, halves up; shifts[r][c] goes with rows[r][c].

    One big division per distinct entry: with S its largest shift and
    t = floor(num/den 2^(S+1)), its rounding at shift s is
    (t + 2^(k-1)) >> k with k = S + 1 - s >= 1, since
    floor((y + 2^(k-1)) / 2^k) depends on y only through floor(y).
    Entries are told apart by identity: a Hankel row is a slice of one
    moment list, so a repeated moment is the same object, and hashing its
    big ints would cost as much as the divisions saved.
    """
    top = {}  # id(entry) -> (largest shift, entry)
    for row, row_shifts in zip(rows, shifts):
        for entry, s in zip(row, row_shifts):
            seen = top.get(id(entry))
            if seen is None or seen[0] < s:
                top[id(entry)] = s, entry
    floors = {}
    for key, (s, (num, den)) in top.items():
        e = s + 1
        floors[key] = ((num << e) // den if e >= 0 else num // (den << -e), e)
    return [[(t + (1 << (e - s - 1))) >> (e - s)
             for (t, e), s in zip(map(floors.__getitem__, map(id, row)),
                                  row_shifts)]
            for row, row_shifts in zip(rows, shifts)]


def _at_most(m: int, e: int, tol: tuple) -> bool:
    """m * 2^e <= tol[0] * 2^tol[1], for ints m, tol[0] >= 0."""
    t, te = tol
    return m << (e - te) <= t if e >= te else m <= t << (te - e)


def _eliminate_fixed(rows: list, bits: int) -> tuple:
    """Scaled partial-pivot Gaussian elimination in integer fixed point.

    Each of the n rows holds n exact entries (num, den), den > 0, optionally
    followed by one right-hand side.  With P = bits + GUARD_BITS, column c is
    scaled by 2^-C_c (C_c its largest entry's binary exponent) and row r is
    the int list R_r times 2^E_r, its largest matrix entry about P bits; every
    entry is rounded once, to nearest, by `_rounded_rows`.  Step j picks the
    row maximising |R_rj| / sum_{l>=j} |R_rl| (mpmath's rule, compared
    exactly on the ints), subtracts (f * R_jc) >> P with f = R_rj 2^P / R_jj
    from one integer reciprocal of the pivot, and renormalises each updated
    row to P bits.
    A remaining row sum or a pivot at or below ||B||_1 2^-(bits+10), B the
    column-scaled matrix, raises SingularHankel.

    Returns (log|det|, sign of det, solution) as mpf at P bits; the solution
    is empty without a right-hand side.
    """
    n, width = len(rows), len(rows[0])
    P = bits + GUARD_BITS
    logs = [[num.bit_length() - den.bit_length() if num else None
             for num, den in row] for row in rows]
    col = [max((lg[c] for lg in logs if lg[c] is not None), default=0)
           for c in range(width)]
    exps = []
    for lg in logs:
        top = max((lg[c] - col[c] for c in range(n) if lg[c] is not None),
                  default=P)
        exps.append(top + 1 - P)
    mant = _rounded_rows(rows, [[-e - ec for ec in col] for e in exps])
    low = min(exps)
    norm = max(sum(abs(r[c]) << (e - low) for r, e in zip(mant, exps))
               for c in range(n))
    tol = (norm, low - bits - 10)

    def singular(j):
        return SingularHankel(f"numerically singular {n}x{n} system at column {j}")

    sign, pivot_product, exponent = 1, 1, sum(col[:n])
    upper = []
    for j in range(n):
        k = n - j
        sums = [sum(map(abs, row[:k])) for row in mant]
        if any(_at_most(s, e, tol) for s, e in zip(sums, exps)):
            raise singular(j)
        best = 0
        for r in range(1, k):
            if abs(mant[r][0]) * sums[best] > abs(mant[best][0]) * sums[r]:
                best = r
        if best:
            mant[0], mant[best] = mant[best], mant[0]
            exps[0], exps[best] = exps[best], exps[0]
            sign = -sign
        piv, pe = mant.pop(0), exps.pop(0)
        upper.append(piv)
        pv = piv[0]
        if _at_most(abs(pv), pe, tol):
            raise singular(j)
        if pv < 0:
            sign = -sign
        pivot_product *= abs(pv)
        exponent += pe
        inv = (1 << 2 * P) // pv
        tail = piv[1:]
        for r, row in enumerate(mant):
            f = (row[0] * inv) >> P
            new = ([x - ((f * p) >> P) for x, p in zip(row[1:], tail)]
                   if f else row[1:])
            shift = max(map(abs, new[:k - 1])).bit_length() - P
            if shift > 0:
                half = 1 << (shift - 1)
                new = [(x + half) >> shift for x in new]
            elif shift < 0:
                new = [x << -shift for x in new]
            mant[r] = new
            exps[r] += shift
    with mp.workprec(P):
        logdet = mp.log(pivot_product) + exponent * mp.ln2
        x = []
        if width > n:
            z = [None] * n
            for i in reversed(range(n)):
                u = upper[i]
                z[i] = (u[-1] - mp.fdot(u[1:-1], z[i + 1:])) / u[0]
            x = [mp.ldexp(z[c], col[n] - col[c]) for c in range(n)]
    return logdet, sign, x


def moment_table(ctx: ExactContext) -> MomentTable:
    """log Z_N and p_N from one elimination of [H | -nu_N .. nu_(2N-1)]."""
    N = ctx.N
    nu = _moments(ctx, range(2 * N))
    rows = [nu[i:i + N] + [(-nu[i + N][0], nu[i + N][1])] for i in range(N)]
    logdet, sign, coeffs = _eliminate_fixed(rows, ctx.precision_bits)
    want = -1 if (N * (N - 1) // 2) % 2 else 1
    if sign != want:
        raise SingularHankel(
            f"Hankel determinant sign {sign} != (-1)^(N(N-1)/2) = {want}; "
            "precision exhausted or parameters degenerate")
    with mp.workprec(ctx.precision_bits + GUARD_BITS):
        log_z = mp.log(math.factorial(N)) + logdet
        logN = mp.log(N)
        for k in range(N):
            log_z += mp.log(math.factorial(ctx.m + k)) - (ctx.m + k + 1) * logN
    with mp.workprec(ctx.precision_bits):
        return MomentTable(log_z=+log_z,
                           op=tuple(+c for c in coeffs) + (mp.mpf(1),))


def exact_logZ(ctx: ExactContext):
    """log Z_N(a, m/N) as an mpf at the context precision."""
    return moment_table(ctx).log_z


def exact_op(ctx: ExactContext) -> tuple:
    """Monic degree-N orthogonal polynomial coefficients (c_0, ..., c_{N-1}, 1)."""
    return moment_table(ctx).op


def exact_A11(ctx: ExactContext):
    """Subleading coefficient of p_N(z) = z^N + A11 z^(N-1) + ..."""
    return moment_table(ctx).op[-2]


def eval_polynomial(coeffs: tuple, z) -> complex:
    acc = mp.mpmathify(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def lue_gap_probability(n: int, alpha_n: int, t: Rational, N_w: int,
                        precision_bits: int = 256):
    """P[smallest eigenvalue > t] for the n-point ensemble with weight x^alpha_n e^(-N_w x).

    Andreief turns P into e^(-n T) det[g_(j+k+alpha_n+1)] / det[g_s at t = 0],
    T = N_w t = A/D, with the incomplete-gamma moments

        g_s = e^(N_w t) int_t^inf x^(s-1) e^(-N_w x) dx = h_s / N_w^s,
        h_s = (s-1)! sum_{i<s} T^i / i! = num_s / D^(s-1),
        num_1 = 1,  num_(s+1) = s D num_s + A^s.

    At t = 0 the matrix is the Laguerre moment matrix, whose determinant is
    prod_{j<n} j! (j+alpha_n)! / N_w^(n (n+alpha_n)), so one elimination
    remains.  The N_w^-s factors would cancel in the ratio; they stay in the
    entries because they shrink the growth from one row to the next from
    about max(T, s) to max(t, s/N_w), which the elimination's row-sum
    SingularHankel threshold needs.
    """
    if n < 1 or alpha_n < 0 or N_w < 1:
        raise DomainError(f"need n >= 1, alpha_n >= 0, N_w >= 1; got {n}, {alpha_n}, {N_w}")
    tf = t if isinstance(t, Fraction) else Fraction(t)
    if tf < 0:
        raise DomainError(f"gap probability needs t >= 0, got {t}")
    if tf == 0:
        return mp.mpf(1)
    A, D = (N_w * tf).as_integer_ratio()
    g, num = [], 1
    for s in range(1, alpha_n + 2 * n):
        if s > alpha_n:
            g.append(Fraction(num, D ** (s - 1) * N_w ** s)
                     .as_integer_ratio())
        num = s * D * num + A ** s
    logdet, sign, _ = _eliminate_fixed([g[i:i + n] for i in range(n)],
                                       precision_bits)
    if sign <= 0:
        raise SingularHankel("gap-probability Hankel determinant lost positivity")
    laguerre = math.prod(math.factorial(j) * math.factorial(j + alpha_n)
                         for j in range(n))
    with mp.workprec(precision_bits + GUARD_BITS):
        log_p = (-n * _to_mpf(A, D) + logdet - mp.log(laguerre)
                 + n * (n + alpha_n) * mp.log(N_w))
    with mp.workprec(precision_bits):
        return mp.exp(log_p)


def duality_residual(N: int, m: int, x: float, precision_bits: int = 256):
    """|LUE gap probability - rescaled partition-function ratio| at the point x."""
    if x < 0:
        raise DomainError(f"need x >= 0, got {x}")
    with mp.workprec(precision_bits):
        t = Fraction(x) ** 2
        lhs = lue_gap_probability(n=m, alpha_n=N, t=t, N_w=N,
                                  precision_bits=precision_bits)
        log_ratio = (exact_logZ(ExactContext(N, m, x, precision_bits))
                     - exact_logZ(ExactContext(N, m, 0.0, precision_bits)))
        rhs = mp.e ** (-m * N * _to_mpf(t.numerator, t.denominator)
                      + log_ratio)
        return abs(lhs - rhs)


def exact_charpoly_moment(N: int, m: int, z_abs: float, precision_bits: int = 256):
    """E|det(G_N - z)|^(2m) = Z_N(|z|, m/N) / Z_N(0, 0), evaluated exactly."""
    with mp.workprec(precision_bits):
        ctx = ExactContext(N, m, abs(z_abs), precision_bits)
        return mp.e ** (exact_logZ(ctx)
                        - exact_logZ(ExactContext(N, 0, 0, precision_bits)))
