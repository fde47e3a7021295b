"""Exact finite-N oracles in extended precision.

Every exact value here is a Gram determinant of a positive weight, or a
solve with one, so every one goes through one routine, `_ldl`: an unpivoted
LDL^T factorization in integer fixed point at P = bits + GUARD_BITS (64)
bits, bits being the caller's precision (default 256).  The matrix is
scaled once, symmetrically, by powers of two that bring its diagonal into
(1/2, 4); each entry is then rounded once, to nearest, to an int over 2^P,
and a pivot at or below zero raises SingularHankel, a test that no
symmetric scaling changes.  Past the integer factorization, values are
`decimal.Decimal`s, and every operation on them runs in an explicit context
from `decimal_context`, never the thread's own: the back substitution at P
bits' worth of digits, and each logarithm as one `ln` of an integer ratio
plus a binary exponent times ln 2.  These are the ground-truth values the
asymptotic modules are tested against.

The planar Gram matrix is that of the monomials under the weight
|z-a|^(2m) e^(-N|z|^2), with m = cN an integer and a real, taken at its
exact value.  Since (z-a)^m z^j = sum_s b_(s-j) z^s and the monomials are
orthogonal under the radial weight,

    G = B F B^T,  B_js = b_(s-j),  b_p = C(m,p) (-a)^(m-p),
    F = diag(s!/N^(s+1)),

so that, entry by entry,

    G_(j,j+d) = (-a)^d sum_(p=d..m) C(m,p) C(m,p-d) a^(2m-2p) (j+p)!/N^(j+p+1),

a sum whose terms share one sign.  By Heine and Andreief,
Z_N = N! det G in the normalisation that drops pi^N, with no other
constant; the fixture tests/fixtures/exact_logz_calibration.json pins it
against 2D quadrature at N = 1, 2.  `moment_table` factors G once: the
pivots give log Z_N, and the solve G c = -G_(.,N) gives the monic
orthogonal polynomial p_N, hence A11, its coefficient of z^(N-1).
The LUE gap probability is the ratio of two Gram determinants of the
weight x^alpha e^(-N_w x), on [t, inf) and on [0, inf); the first is
factored in the basis (x-t)^j, whose moments are again sums of positive
terms, and the second is the closed-form Laguerre one.
"""
from __future__ import annotations

import decimal
import math
from decimal import Decimal
from fractions import Fraction
from operator import mul
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
    ctx = decimal.Context(prec=digits, rounding=decimal.ROUND_HALF_UP)
    rounded = ctx.plus(x)
    e = rounded.adjusted()
    fixed = min(-(digits // 3), -5) < e < digits
    whole, _, frac = format(rounded if fixed else ctx.scaleb(rounded, -e),
                            "f").partition(".")
    text = f"{whole}.{frac.rstrip('0') or '0'}"
    return text if fixed else f"{text}e{e:+d}"


class MomentTable(NamedTuple):
    log_z: Decimal  # log Z_N, rounded to the context precision
    op: tuple       # monic p_N coefficients (c_0, ..., c_{N-1}, 1)


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


def _log2(num: int, den: int) -> int:
    """L with 2^(L-1) < |num|/den < 2^(L+1), for num != 0 and den > 0."""
    return num.bit_length() - den.bit_length()


def _scaled(num: int, den: int, e: int) -> int:
    """num/den 2^e rounded to the nearest int, halves up, for den > 0."""
    if e >= 0:
        num <<= e
    else:
        den <<= -e
    return (2 * num + den) // (2 * den)


def _ldl(rows: list, bits: int) -> tuple:
    """Unpivoted LDL^T of a symmetric positive definite G in integer fixed
    point, and one solve with it.

    rows[i] holds row i of G's lower triangle, G_i0 .. G_ii, as exact pairs
    (num, den), den > 0; one more row of n entries, r_0 .. r_(n-1), is the
    right-hand side of a solve.  With P = bits + GUARD_BITS and
    c_i = floor(L_i/2), L_i the `_log2` of G_ii, S = 2^-c G 2^-c has its
    diagonal in (1/2, 4), so every entry has magnitude below 4; each entry
    of S, and each r_k 2^(-c_k-c_r) (c_r bringing the largest below 1), is
    rounded once to an int over 2^P.  Row by row (Crout's order), with
    W_ik = d_k l_ik,

        W_ik = S_ik - sum_(j<k) l_ij W_kj,  l_ik = W_ik / d_k,
        d_i = S_ii - sum_(k<i) l_ik W_ik,

    each sum formed exactly from the ints and shifted down by P once; a
    pivot d_i <= 0 raises SingularHankel, a test that no symmetric scaling
    changes.  The right-hand side row goes through the same recurrence as
    the forward substitution.

    Returns (D, E, x): det G = D 2^E, D the int product of the pivots, and
    x the solution of G x = r as Decimals at P bits' worth of digits, from
    back substitution in l^T; x is empty without a right-hand side.
    """
    P = bits + GUARD_BITS
    solve = len(rows[-1]) < len(rows)
    n = len(rows) - solve
    c = [_log2(*rows[i][i]) // 2 for i in range(n)]
    c_r = max((_log2(*r) - ck + 1 for r, ck in zip(rows[-1], c) if r[0]),
              default=0) if solve else 0
    scales = c + [c_r]
    d, inv, lower, W = [], [], [], []
    for i, row in enumerate(rows):
        li, wi = [], []
        for k, (num, den) in enumerate(row):
            s = _scaled(num, den, P - scales[i] - c[k])
            if k < i:
                wi.append(s - (sum(map(mul, li, W[k])) >> P))
                li.append((wi[k] * inv[k]) >> P)
                continue
            d.append(s - (sum(map(mul, li, wi)) >> P))
            if d[i] <= 0:
                raise SingularHankel(
                    f"pivot {i} of the scaled {n}x{n} Gram factor is <= 0 at "
                    f"{bits} bits")
            inv.append((1 << 2 * P) // d[i])
        lower.append(li)
        W.append(wi)
    x = []
    if solve:
        wide = decimal_context(P)
        z = [None] * n
        one = Decimal(1 << P)
        with decimal.localcontext(wide):
            for k in reversed(range(n)):
                acc = Decimal(lower[n][k])
                for i in range(k + 1, n):
                    acc -= lower[i][k] * z[i]
                z[k] = acc / one
        for zk, ck in zip(z, c):
            shift = c_r - ck
            x.append(wide.multiply(zk, 1 << shift) if shift >= 0
                     else wide.divide(zk, 1 << -shift))
    return math.prod(d), 2 * sum(c) - n * P, x


def _gram(N: int, m: int, a: Rational, bits: int) -> list:
    """Rows i < N of the planar Gram matrix's lower triangle, then the
    right-hand side -G_N0 .. -G_N(N-1), as exact pairs for `_ldl`.

    With f_s = s!/N^(s+1) = 4^(t_s) R_s, R_s in (1/2, 4), and
    V_is = b_(s-i) 2^(t_s - e_i), e_i the least exponent that keeps every
    |V_is| below 1,

        G_ik = 2^(e_i + e_k) sum_s V_is R_s V_ks.

    Each V_is, R_s and V_is R_s is rounded once to an int over 2^P, P the
    precision `_ldl` works at, and the sums of products are formed exactly,
    so each G_ik 2^-(e_i+e_k) is off by at most 6 (m+1) 2^-P; the e_i lie
    within a few bits of `_ldl`'s scaling exponents.  Each b_p is divided
    once: floored one bit past the finest scale any V_is takes it at, it
    gives every V_is by a shift, rounded as `_scaled` rounds, since
    floor((floor(y) + 2^(k-1)) / 2^k) = floor(y / 2^k + 1/2) for k >= 1.
    """
    P = bits + GUARD_BITS
    A, D = Fraction(a).as_integer_ratio()
    b = [(math.comb(m, p) * (-A) ** (m - p), D ** (m - p))
         for p in range(m + 1)]  # 0**0 == 1 keeps a = 0 exact
    f = [(math.factorial(s), N ** (s + 1)) for s in range(N + m + 1)]
    t = [_log2(*fs) // 2 for fs in f]
    R = [_scaled(num, den, P - 2 * ts) for (num, den), ts in zip(f, t)]
    tops = [(p, _log2(*bp) + 1) for p, bp in enumerate(b) if bp[0]]
    e = [max(top + t[i + p] for p, top in tops) for i in range(N + 1)]
    # V_is 2^P = b_p 2^(P + t_s - e_i), s = i + p: B_p shifted down k >= 1
    x = [1 + max(t[i + p] - e[i] for i in range(N + 1)) for p in range(m + 1)]
    B = [(num << (P + xp)) // den if P + xp >= 0
         else num // (den << -(P + xp)) for (num, den), xp in zip(b, x)]
    V, rows = [], []
    for i in range(N + 1):
        shifts = [xp - t[i + p] + e[i] for p, xp in enumerate(x)]
        V.append([(bp + (1 << (k - 1))) >> k for bp, k in zip(B, shifts)])
        VR = [(v * r) >> P for v, r in zip(V[i], R[i:])]
        row = []
        for k in range(min(i + 1, N)):
            s = sum(map(mul, VR, V[k][i - k:]))  # 0 past the band, i - k > m
            ex = e[i] + e[k] - 2 * P
            row.append((s << ex, 1) if ex >= 0 else (s, 1 << -ex))
        rows.append(row)
    rows[N] = [(-num, den) for num, den in rows[N]]
    return rows


def moment_table(N: int, m: int, a: Rational,
                 precision_bits: int = 256) -> MomentTable:
    """log Z_N = log N! + log det G and p_N from one factorization of the
    planar Gram matrix G of size N at m = cN, with a taken at its exact
    value: a float's binary value, or a Fraction."""
    if N < 1 or m < 0:
        raise DomainError(f"need N >= 1 and m >= 0, got N={N}, m={m}")
    if m + N > MAX_MOMENT_INDEX:
        raise DomainError(
            f"m + N = {m + N} exceeds the supported cap {MAX_MOMENT_INDEX}")
    if precision_bits < 128:
        raise DomainError(f"precision_bits must be >= 128, got {precision_bits}")
    det, det_exp, coeffs = _ldl(_gram(N, m, a, precision_bits), precision_bits)
    log_z = _log(decimal_context(precision_bits + GUARD_BITS),
                 math.factorial(N) * det, 1, det_exp)
    out = decimal_context(precision_bits)
    return MomentTable(log_z=out.plus(log_z),
                       op=tuple(map(out.plus, coeffs)) + (Decimal(1),))


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

    Andreief writes P as the ratio of the Gram determinants of the monomials
    on [t, inf) and on [0, inf).  In the basis (x-t)^j, a unit-triangular
    change of basis, the first is e^(-n N_w t) det[h_(j+k)], with

        h_s = int_0^inf y^s (y+t)^alpha_n e^(-N_w y) dy
            = sum_i C(alpha_n, i) t^(alpha_n-i) (s+i)! / N_w^(s+i+1),

    a sum of positive terms; with t = A/D it is the integer ratio
    sum_i C(alpha_n, i) (A N_w)^(alpha_n-i) D^i (s+i)! / (D^alpha_n
    N_w^(s+alpha_n+1)).  The second is the Laguerre determinant
    prod_{j<n} j! (j+alpha_n)! / N_w^(n (n+alpha_n)).
    """
    if n < 1 or alpha_n < 0 or N_w < 1:
        raise DomainError(f"need n >= 1, alpha_n >= 0, N_w >= 1; got {n}, {alpha_n}, {N_w}")
    tf = t if isinstance(t, Fraction) else Fraction(t)
    if tf < 0:
        raise DomainError(f"gap probability needs t >= 0, got {t}")
    if tf == 0:
        return Decimal(0)
    A, D = tf.as_integer_ratio()
    weights = [math.comb(alpha_n, i) * (A * N_w) ** (alpha_n - i) * D ** i
               for i in range(alpha_n + 1)]
    factorials = [math.factorial(i) for i in range(alpha_n + 1)]  # (s+i)!
    h = []
    for s in range(2 * n - 1):
        h.append((sum(map(mul, weights, factorials)),
                  D ** alpha_n * N_w ** (s + alpha_n + 1)))
        factorials = [f * (s + i + 1) for i, f in enumerate(factorials)]
    det, det_exp, _ = _ldl([h[i:2 * i + 1] for i in range(n)], precision_bits)
    laguerre = math.prod(math.factorial(j) * math.factorial(j + alpha_n)
                         for j in range(n))
    wide = decimal_context(precision_bits + GUARD_BITS)
    return wide.subtract(
        _log(wide, det * N_w ** (n * (n + alpha_n)), laguerre, det_exp),
        wide.divide(n * N_w * A, D))


def duality_residuals(N: int, m: int, xs, precision_bits: int = 256
                      ) -> list[Decimal]:
    """|LUE gap probability - rescaled partition-function ratio| at each
    point x of xs, with log Z_N at each distinct insertion point (the
    reference a = 0 among them) computed once."""
    for x in xs:
        if x < 0:
            raise DomainError(f"need x >= 0, got {x}")
    log_z = {a: moment_table(N, m, a, precision_bits).log_z
             for a in dict.fromkeys((0.0, *xs))}
    ctx = decimal_context(precision_bits)
    out = []
    for x in xs:
        t = Fraction(x) ** 2
        lhs = ctx.exp(lue_log_gap_probability(n=m, alpha_n=N, t=t, N_w=N,
                                              precision_bits=precision_bits))
        log_ratio = ctx.subtract(log_z[x], log_z[0.0])
        rhs = ctx.exp(ctx.subtract(
            log_ratio, ctx.divide(m * N * t.numerator, t.denominator)))
        out.append(ctx.abs(ctx.subtract(lhs, rhs)))
    return out
