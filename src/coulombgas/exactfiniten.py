"""Exact finite-N oracles in extended precision.

Every value here comes from explicit moments: each entry is summed in exact
big-rational arithmetic and rounded once to the working precision (default
256 bits).  Every determinant and linear solve then goes through one routine,
`_eliminate`: Gaussian elimination with scaled partial pivoting (the pivot row
maximises |a_rj| / sum_l |a_rl| over the remaining columns) run with 10 guard
bits above the working precision.  A pivot or row sum at or below
||H||_1 * eps raises SingularHankel.  These are the ground-truth values the
asymptotic modules are tested against.

The planar moments reduce to residues: with integer m = cN and real a,

    nu_k / (2 pi i) = [coefficient of z^(m+N-1-k)] (z-a)^m e^(-N a z),

a finite alternating sum that exact rationals evaluate without cancellation.
`moment_table` builds nu_0 .. nu_(2N-1) once and eliminates the augmented
Hankel system [H | -nu_N .. nu_(2N-1)] once: log|det H| gives log Z_N, and
back substitution gives the monic orthogonal polynomial p_N, hence A11.
The partition function is N! times the Hankel determinant of radial moments,
which Eq.-level manipulation turns into the nu-determinant with a Gamma-product
prefactor; the combined constant was pinned against 2D quadrature at N = 1, 2
(see tests/fixtures/exact_logz_calibration.json) and is asserted forever.
The LUE gap probabilities put their two Gram determinants through the same
elimination.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import mpmath as mp

from .errors import DomainError, SingularHankel

MAX_MOMENT_INDEX = 120  # m + N cap; factorial growth beyond this is out of scope
GUARD_BITS = 10  # extra precision of every elimination

Rational = Union[int, float, Fraction, str]


@dataclass(frozen=True)
class ExactContext:
    N: int
    m: int
    a: float
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


def _to_mpf(x: Fraction):
    return mp.mpf(x.numerator) / mp.mpf(x.denominator)


def _moments(ctx: ExactContext, ks) -> list:
    """nu_k/(2 pi i) for each k in ks, summed in exact rationals and rounded
    to the context precision; k >= m+N gives zero."""
    N, m, a = ctx.N, ctx.m, Fraction(ctx.a)
    out = []
    with mp.workprec(ctx.precision_bits):
        for k in ks:
            p = m + N - 1 - k
            total = Fraction(0)
            for j in range(min(m, p) + 1):
                total += (Fraction(math.comb(m, j)) * (-a) ** (m - j)
                          * (-N * a) ** (p - j) / math.factorial(p - j))
            out.append(_to_mpf(total))
    return out


def contour_moment(ctx: ExactContext, k: int):
    """nu_k/(2 pi i) at the context precision; zero (with a warning) for k >= m+N."""
    if k < 0:
        raise DomainError(f"moment index must be nonnegative, got {k}")
    if k >= ctx.m + ctx.N:
        warnings.warn(f"moment index k={k} >= m+N={ctx.m + ctx.N}; residue is zero")
        return mp.mpf(0)
    return _moments(ctx, (k,))[0]


def _eliminate(rows: list) -> tuple:
    """Scaled partial-pivot Gaussian elimination of `rows` in place, run
    GUARD_BITS above the working precision.

    Each of the n rows holds n matrix entries, optionally followed by one
    right-hand side.  Pivot rule and singularity test are those of mpmath's
    own LU solver.  Returns (log|det|, sign of det, solution); the solution
    is empty without a right-hand side.
    """
    n = len(rows)
    with mp.extraprec(GUARD_BITS):
        tol = max(mp.fsum([row[j] for row in rows], absolute=True)
                  for j in range(n)) * mp.eps
        logdet, sign = mp.mpf(0), 1
        for j in range(n):
            sums = [mp.fsum(row[j:n], absolute=True) for row in rows[j:]]
            if min(sums) <= tol:
                raise SingularHankel(
                    f"numerically singular {n}x{n} system at column {j}")
            piv = max(range(j, n),
                      key=lambda r: 1 / sums[r - j] * abs(rows[r][j]))
            if piv != j:
                rows[piv], rows[j] = rows[j], rows[piv]
                sign = -sign
            pval = rows[j][j]
            if abs(pval) <= tol:
                raise SingularHankel(
                    f"numerically singular {n}x{n} system at column {j}")
            if pval < 0:
                sign = -sign
            logdet += mp.log(abs(pval))
            for row in rows[j + 1:]:
                f = row[j] / pval
                for col in range(j + 1, len(row)):
                    row[col] -= f * rows[j][col]
        x = [None] * n if len(rows[0]) > n else []
        for i in reversed(range(len(x))):
            acc = rows[i][n]
            for col in range(i + 1, n):
                acc -= rows[i][col] * x[col]
            x[i] = acc / rows[i][i]
    return logdet, sign, x


def moment_table(ctx: ExactContext) -> MomentTable:
    """log Z_N and p_N from one elimination of [H | -nu_N .. nu_(2N-1)]."""
    N = ctx.N
    nu = _moments(ctx, range(2 * N))
    with mp.workprec(ctx.precision_bits):
        rows = [nu[i:i + N] + [-nu[i + N]] for i in range(N)]
        logdet, sign, coeffs = _eliminate(rows)
        want = -1 if (N * (N - 1) // 2) % 2 else 1
        if sign != want:
            raise SingularHankel(
                f"Hankel determinant sign {sign} != (-1)^(N(N-1)/2) = {want}; "
                "precision exhausted or parameters degenerate")
        with mp.extraprec(GUARD_BITS):
            log_z = mp.log(mp.mpf(math.factorial(N))) + logdet
            logN = mp.log(mp.mpf(N))
            for k in range(N):
                log_z += (mp.log(mp.mpf(math.factorial(ctx.m + k)))
                          - (ctx.m + k + 1) * logN)
        return MomentTable(log_z=+log_z, op=tuple(coeffs) + (mp.mpf(1),))


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

    Andreief reduction to a ratio of incomplete-gamma Hankel determinants; all
    entries are exact rationals (integer shape) scaled by a common e^(-N_w t).
    """
    if n < 1 or alpha_n < 0 or N_w < 1:
        raise DomainError(f"need n >= 1, alpha_n >= 0, N_w >= 1; got {n}, {alpha_n}, {N_w}")
    tf = t if isinstance(t, Fraction) else Fraction(t)
    if tf < 0:
        raise DomainError(f"gap probability needs t >= 0, got {t}")
    with mp.workprec(precision_bits):
        if tf == 0:
            return mp.mpf(1)
        T = N_w * tf
        s_max = 2 * n - 2 + alpha_n + 1
        # prefix sums of the truncated exponential: E[s] = sum_{i<s} T^i / i!
        prefix = [Fraction(0)] * (s_max + 1)
        term = Fraction(1)
        for i in range(s_max):
            prefix[i + 1] = prefix[i] + term
            term = term * T / (i + 1)
        rows_t, rows_0 = [], []
        for j in range(n):
            rt, r0 = [], []
            for k in range(n):
                s = j + k + alpha_n + 1
                fact = Fraction(math.factorial(s - 1), N_w ** s)
                rt.append(_to_mpf(fact * prefix[s]))
                r0.append(_to_mpf(fact))
            rows_t.append(rt)
            rows_0.append(r0)
        logdet_t, sign_t, _ = _eliminate(rows_t)
        logdet_0, sign_0, _ = _eliminate(rows_0)
        if sign_t <= 0 or sign_0 <= 0:
            raise SingularHankel("gap-probability Gram determinant lost positivity")
        return mp.e ** (-n * _to_mpf(T) + logdet_t - logdet_0)


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
        rhs = mp.e ** (-m * N * _to_mpf(t) + log_ratio)
        return abs(lhs - rhs)


def log_zgin(N: int, precision_bits: int = 256):
    """log of the plain Ginibre partition function, exact big-integer route."""
    with mp.workprec(precision_bits):
        out = mp.log(mp.mpf(math.factorial(N)))
        for k in range(1, N):
            out += mp.log(mp.mpf(math.factorial(k)))
        out -= mp.mpf(N * (N + 1)) / 2 * mp.log(mp.mpf(N))
        return out


def exact_charpoly_moment(N: int, m: int, z_abs: float, precision_bits: int = 256):
    """E|det(G_N - z)|^(2m) = Z_N(|z|, m/N) / Z_N^Gin, evaluated exactly."""
    with mp.workprec(precision_bits):
        ctx = ExactContext(N, m, abs(z_abs), precision_bits)
        return mp.e ** (exact_logZ(ctx) - log_zgin(N, precision_bits))
