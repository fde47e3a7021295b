"""Flag types and the argument declarations the subcommands share.

A flag type refuses a value it cannot convert (a malformed number, or a
rational whose float overflows) with an ArgumentTypeError, so the message
names the flag; a value that converts but cannot be used (a malformed
grid, a non-integer c*n) is a UsageError.  The front turns both into exit
1.  fractions loads only when a rational flag is parsed.
"""
from __future__ import annotations

import argparse
import math

from .errors import UsageError


def parse_rational(text: str):
    """Accept '9/16' style rationals and plain decimals, as a Fraction
    whose float is finite."""
    from fractions import Fraction

    try:
        value = Fraction(text)
        float(value)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational or decimal: {text!r}") from None
    except OverflowError:
        raise argparse.ArgumentTypeError(f"outside the double range: {text!r}") from None
    return value


def finite_float(text: str) -> float:
    """A float flag value; inf and nan are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def positive_float(text: str) -> float:
    """A finite float flag value above 0, such as --tol."""
    value = finite_float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def parse_grid(text: str) -> list[float]:
    """'lo:hi:steps' -> inclusive uniform grid with `steps` points."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be lo:hi:steps, got {text!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"grid must be lo:hi:steps with numeric parts, "
                         f"got {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"grid endpoints must be finite, got {text!r}")
    if steps < 1:
        raise UsageError(f"grid needs at least one step, got {steps}")
    if steps == 1:
        return [lo]
    return [lo + (hi - lo) * k / (steps - 1) for k in range(steps)]


def _int_product(x, n: int, name: str) -> int:
    """x*n as an int, for the exact modes (m = c*n, or alpha*n in ldp); x is
    a Fraction."""
    m = x * n
    if m.denominator != 1:
        raise UsageError(f"exact modes need an integer {name}*n, got {m} "
                         f"at n = {n}")
    return int(m)


def int_at_least(low: int):
    """The type of an int flag with a floor, such as --n, --bits or
    --order: an int below `low` is a usage error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


positive_int = int_at_least(1)


def parse_int_list(text: str) -> list[int]:
    """'4,8,16' -> [4, 8, 16]; each entry is a positive_int."""
    values = [positive_int(p) for p in text.split(",") if p]
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def common(p, bits=False, tol=None) -> None:
    """The output flags of every subcommand, and --bits and --tol where
    asked for."""
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="write the table here "
                                               "instead of stdout")
    if bits:
        p.add_argument("--bits", type=int_at_least(128), default=256)
    if tol is not None:
        p.add_argument("--tol", type=positive_float, default=tol)


def t_or_grid(p) -> None:
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--t", type=finite_float)
    which.add_argument("--grid", type=str, default=None,
                       metavar="LO:HI:STEPS")


def _add_exact_logz(row: dict, n: int, m: int, a: float, value: float) -> None:
    # the --exact-compare columns of free-energy and critical
    from . import exactfiniten

    exact = float(exactfiniten.moment_table(n, m, a).log_z)
    row.update(exact_logz=exact, residual=abs(exact - value))
