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
2^-(bits+10), B the column-scaled matrix, raises SingularHankel.  Past the
integer elimination, values are `decimal.Decimal`s, and every operation on
them runs in an explicit context from `decimal_context`, never the thread's
own: the back substitution for p_N at P bits' worth of digits, and each
logarithm as one `ln` of an integer ratio plus a binary exponent times
ln 2.  These are the ground-truth values the asymptotic modules are tested
against.

The planar moments reduce to residues: with integer m = cN and real a,

    nu_k / (2 pi i) = [coefficient of z^(m+N-1-k)] (z-a)^m e^(-N a z),

a finite alternating sum.  With a = A/D exactly and p = m+N-1-k it is the
integer ratio

    nu_k / (2 pi i) = (-1)^(m+p) sum_j C(m,j) A^(m+p-2j) D^(2j) N^(p-j) p!/(p-j)!
                      / (D^(m+p) p!),

which big-integer arithmetic evaluates without cancellation, by Horner's
rule in A^2 with the powers of D^2 alongside.
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

import decimal
import math
import warnings
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple, Union

from .errors import DomainError, SingularHankel

MAX_MOMENT_INDEX = 120  # m + N cap; factorial growth beyond this is out of scope
GUARD_BITS = 64  # fixed-point bits kept above the caller's precision
GUARD_DIGITS = 3  # decimal digits kept above a context's bits

Rational = Union[int, float, Fraction, str]


def decimal_context(bits: int) -> decimal.Context:
    """Decimal arithmetic good to `bits` bits: ceil(bits log10 2) +
    GUARD_DIGITS digits, rounded half even, with the widest exponent range."""
    return decimal.Context(
        prec=math.ceil(bits * math.log10(2)) + GUARD_DIGITS,
        rounding=decimal.ROUND_HALF_EVEN, Emin=decimal.MIN_EMIN,
        Emax=decimal.MAX_EMAX, flags=[],
        traps=[decimal.InvalidOperation, decimal.DivisionByZero,
               decimal.Overflow])


def nstr(x: Decimal, digits: int) -> str:
    """x rounded half up to `digits` significant digits, written as
    mpmath's nstr(x, digits) writes it.

    Fixed notation when the leading digit's decimal exponent e satisfies
    min(-(digits // 3), -5) < e < digits, else one digit before the point
    and e+E or e-E after; trailing zeros go, but one digit stays after the
    point ('12.0', and '0.0' for zero).
    """
    if not x:
        return "0.0"
    rounded = decimal.Context(prec=digits,
                              rounding=decimal.ROUND_HALF_UP).plus(x)
    sign, ds, _ = rounded.as_tuple()
    text, e = "".join(map(str, ds)), rounded.adjusted()
    fixed = min(-(digits // 3), -5) < e < digits
    if fixed and e < 0:
        text, split = "0" * -e + text, 1
    elif fixed:
        text, split = text.ljust(e + 1, "0"), e + 1
    else:
        split = 1
    text = (text[:split] + "." + text[split:]).rstrip("0")
    if text.endswith("."):
        text += "0"
    text = "-" + text if sign else text
    return text if fixed else f"{text}e{e:+d}"


class _ExactFields(NamedTuple):
    N: int
    m: int
    a: Rational  # taken at its exact value: a float's binary value, or a Fraction
    precision_bits: int = 256


class ExactContext(_ExactFields):
    """The parameters of one exact computation, checked on construction."""

    __slots__ = ()

    def __new__(cls, N: int, m: int, a: Rational, precision_bits: int = 256):
        if N < 1 or m < 0:
            raise DomainError(f"need N >= 1 and m >= 0, got N={N}, m={m}")
        if m + N > MAX_MOMENT_INDEX:
            raise DomainError(
                f"m + N = {m + N} exceeds the supported cap {MAX_MOMENT_INDEX}")
        if precision_bits < 128:
            raise DomainError(f"precision_bits must be >= 128, got {precision_bits}")
        return super().__new__(cls, N, m, a, precision_bits)


class MomentTable(NamedTuple):
    log_z: Decimal  # log Z_N, rounded to the context precision
    op: tuple       # monic p_N coefficients (c_0, ..., c_{N-1}, 1)


def _moments(ctx: ExactContext, ks) -> list:
    """nu_k/(2 pi i) for each k in ks, as an exact pair (num, den), den > 0.

    With a = A/D exactly (D a power of two for a float a) and p = m+N-1-k,

        nu_k = (-1)^(m+p) sum_{j <= r} c_j A^(m+p-2j) D^(2j) / (D^(m+p) p!),
        c_j = C(m,j) N^(p-j) p!/(p-j)!,  r = min(m, p),

    a ratio of Python ints.  The sum is A^(m+p-2r) S_r with S_0 = c_0 = N^p
    and S_j = S_(j-1) A^2 + c_j D^(2j) (Horner's rule, homogeneous in A^2
    and D^2); c_(j+1) = c_j (m-j)(p-j) / ((j+1) N) exactly, and D^(2j) is a
    left shift times a power of D's odd part, which is 1 for a float a.
    0**0 == 1 keeps a = 0 exact, and p < 0 (k >= m+N) gives an exact zero.
    """
    N, m = ctx.N, ctx.m
    A, D = Fraction(ctx.a).as_integer_ratio()
    X = A * A
    twos = (D & -D).bit_length() - 1  # D = 2^twos * odd
    odd_sq = (D >> twos) ** 2
    out = []
    for k in ks:
        p = m + N - 1 - k
        if p < 0:
            out.append((0, 1))
            continue
        r = min(m, p)
        c = s = N ** p
        odd_pow = 1
        for j in range(r):
            c = c * (m - j) * (p - j) // ((j + 1) * N)
            odd_pow *= odd_sq
            s = s * X + ((c * odd_pow) << (2 * twos * (j + 1)))
        num = s * A ** (m + p - 2 * r)
        if (m + p) % 2:
            num = -num
        out.append((num, D ** (m + p) * math.factorial(p)))
    return out


def contour_moment(ctx: ExactContext, k: int) -> Decimal:
    """nu_k/(2 pi i), correctly rounded at the context precision; zero (with
    a warning) for k >= m+N."""
    if k < 0:
        raise DomainError(f"moment index must be nonnegative, got {k}")
    if k >= ctx.m + ctx.N:
        warnings.warn(f"moment index k={k} >= m+N={ctx.m + ctx.N}; residue is zero")
        return Decimal(0)
    return decimal_context(ctx.precision_bits).divide(*_moments(ctx, (k,))[0])


def _log(ctx: decimal.Context, num: int, den: int, e2: int) -> Decimal:
    """ln(num/den 2^e2) for ints num, den >= 1, from two ln calls in ctx.

    num and den are cut to 4 bits per context digit (over log2 10) and
    divided once; the bits cut off join e2, which is taken times ln 2.
    """
    keep = 4 * ctx.prec
    num_cut = max(num.bit_length() - keep, 0)
    den_cut = max(den.bit_length() - keep, 0)
    ratio = ctx.divide(num >> num_cut, den >> den_cut)
    return ctx.add(ctx.ln(ratio),
                   ctx.multiply(e2 + num_cut - den_cut, ctx.ln(2)))


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

    Returns (D, E, sign of det, solution) with |det| = D 2^E, D the int
    product of the pivots, and the solution as Decimals at P bits' worth of
    digits, back-substituted in the upper factor; the solution is empty
    without a right-hand side.
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
    x = []
    if width > n:
        wide = decimal_context(P)
        z = [None] * n
        with decimal.localcontext(wide):
            for i in reversed(range(n)):
                u = upper[i]
                acc = Decimal(u[-1])
                for coeff, known in zip(u[1:-1], z[i + 1:]):
                    acc -= coeff * known
                z[i] = acc / u[0]
        for c in range(n):
            shift = col[n] - col[c]
            x.append(wide.multiply(z[c], 1 << shift) if shift >= 0
                     else wide.divide(z[c], 1 << -shift))
    return pivot_product, exponent, sign, x


def moment_table(ctx: ExactContext) -> MomentTable:
    """log Z_N and p_N from one elimination of [H | -nu_N .. nu_(2N-1)]."""
    N, m = ctx.N, ctx.m
    nu = _moments(ctx, range(2 * N))
    rows = [nu[i:i + N] + [(-nu[i + N][0], nu[i + N][1])] for i in range(N)]
    det, det_exp, sign, coeffs = _eliminate_fixed(rows, ctx.precision_bits)
    want = -1 if (N * (N - 1) // 2) % 2 else 1
    if sign != want:
        raise SingularHankel(
            f"Hankel determinant sign {sign} != (-1)^(N(N-1)/2) = {want}; "
            "precision exhausted or parameters degenerate")
    # Z_N = N! prod_{k<N} (m+k)! / N^(m+k+1) |det H|, one ln at bits + 64
    factorials = math.factorial(N) * math.prod(
        map(math.factorial, range(m, m + N)))
    log_z = _log(decimal_context(ctx.precision_bits + GUARD_BITS),
                 factorials * det, N ** (N * (m + 1) + N * (N - 1) // 2),
                 det_exp)
    out = decimal_context(ctx.precision_bits)
    return MomentTable(log_z=out.plus(log_z),
                       op=tuple(map(out.plus, coeffs)) + (Decimal(1),))


def exact_logZ(ctx: ExactContext) -> Decimal:
    """log Z_N(a, m/N) at the context precision."""
    return moment_table(ctx).log_z


def exact_op(ctx: ExactContext) -> tuple:
    """Monic degree-N orthogonal polynomial coefficients (c_0, ..., c_{N-1}, 1)."""
    return moment_table(ctx).op


def exact_A11(ctx: ExactContext) -> Decimal:
    """Subleading coefficient of p_N(z) = z^N + A11 z^(N-1) + ..."""
    return moment_table(ctx).op[-2]


def eval_polynomial(coeffs: tuple, z: complex,
                    precision_bits: int = 256) -> complex:
    """sum_k coeffs[k] z^k by Horner's rule on the real and imaginary parts,
    in Decimal at precision_bits, rounded once to a complex."""
    z = complex(z)
    zr, zi = Decimal(z.real), Decimal(z.imag)
    re = im = Decimal(0)
    ctx = decimal_context(precision_bits)
    with decimal.localcontext(ctx):
        for c in reversed(coeffs):
            re, im = re * zr - im * zi + c, re * zi + im * zr
    # plus() makes a zero unsigned (a product with a zero part can be -0)
    return complex(float(ctx.plus(re)), float(ctx.plus(im)))


def lue_log_gap_probability(n: int, alpha_n: int, t: Rational, N_w: int,
                            precision_bits: int = 256) -> Decimal:
    """log P[smallest eigenvalue > t] for the n-point ensemble with weight
    x^alpha_n e^(-N_w x), summed at precision_bits + GUARD_BITS.

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
        return Decimal(0)
    A, D = (N_w * tf).as_integer_ratio()
    g, num = [], 1
    for s in range(1, alpha_n + 2 * n):
        if s > alpha_n:
            g.append(Fraction(num, D ** (s - 1) * N_w ** s)
                     .as_integer_ratio())
        num = s * D * num + A ** s
    det, det_exp, sign, _ = _eliminate_fixed([g[i:i + n] for i in range(n)],
                                             precision_bits)
    if sign <= 0:
        raise SingularHankel("gap-probability Hankel determinant lost positivity")
    laguerre = math.prod(math.factorial(j) * math.factorial(j + alpha_n)
                         for j in range(n))
    wide = decimal_context(precision_bits + GUARD_BITS)
    return wide.subtract(
        _log(wide, det * N_w ** (n * (n + alpha_n)), laguerre, det_exp),
        wide.divide(n * A, D))


def lue_gap_probability(n: int, alpha_n: int, t: Rational, N_w: int,
                        precision_bits: int = 256) -> Decimal:
    """P[smallest eigenvalue > t], the exponential of
    `lue_log_gap_probability`, at precision_bits."""
    return decimal_context(precision_bits).exp(
        lue_log_gap_probability(n, alpha_n, t, N_w, precision_bits))


def duality_residual(N: int, m: int, x: float,
                     precision_bits: int = 256) -> Decimal:
    """|LUE gap probability - rescaled partition-function ratio| at the point x."""
    if x < 0:
        raise DomainError(f"need x >= 0, got {x}")
    ctx = decimal_context(precision_bits)
    t = Fraction(x) ** 2
    lhs = lue_gap_probability(n=m, alpha_n=N, t=t, N_w=N,
                              precision_bits=precision_bits)
    log_ratio = ctx.subtract(
        exact_logZ(ExactContext(N, m, x, precision_bits)),
        exact_logZ(ExactContext(N, m, 0.0, precision_bits)))
    rhs = ctx.exp(ctx.subtract(log_ratio,
                               ctx.divide(m * N * t.numerator, t.denominator)))
    return ctx.abs(ctx.subtract(lhs, rhs))


def exact_charpoly_moment(N: int, m: int, z_abs: float,
                          precision_bits: int = 256) -> Decimal:
    """E|det(G_N - z)|^(2m) = Z_N(|z|, m/N) / Z_N(0, 0), evaluated exactly."""
    ctx = decimal_context(precision_bits)
    return ctx.exp(ctx.subtract(
        exact_logZ(ExactContext(N, m, abs(z_abs), precision_bits)),
        exact_logZ(ExactContext(N, 0, 0, precision_bits))))
