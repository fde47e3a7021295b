"""Command-line front end: subcommands, structured tables, verification report.

Every subcommand emits one table: a JSON object with a schema_version, the
resolved parameters, and a list of rows.  CSV is a lossy projection of the
same table (complex values become re/im column pairs, nested details are
dropped).  The text is always what json.dumps(indent=2, allow_nan=False) or
csv.DictWriter would write.  The grid tables (geometry, tw, ldp) hand
render their rows as Columns: one value list per key, with a declared kind
(float, int, bool, str, None, or complex, written as {"re", "im"}), which
one %-format string compiled per table writes, so the formatting runs in C.
A column table that this cannot write byte for byte (a CSV string that
needs quoting, a non-finite float in JSON) is expanded to dict rows; dict
rows (the one to five rows of the other subcommands) go through json and
csv whole, and a nan or infinity in JSON still raises ValueError (exit 2).
Errors of any kind are also written as a structured JSON object on
standard error, and the exit code classifies them:

    0  success
    1  usage error (bad flags, malformed grid/rational, unknown suite)
    2  numerical failure (domain violations, singular determinants, blow-ups)
    3  an identity or verification check failed beyond its tolerance

Rows are computed one after another in flag order, so output is
byte-for-byte deterministic for a fixed command line.  The only
environment variable touched is OPENBLAS_NUM_THREADS: main() sets it to 1
unless it is already set, before numpy can load, because numpy imports
faster with one thread and the small dense solves in painleve gain nothing
from more; run() leaves the environment alone.  No file other than --out is
ever written.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Sequence

# Every numerical module loads inside the subcommands that use it, so a
# cold start pays only for the command that runs: painleve and report import
# numpy (tw, critical, report); the exact oracle runs on ints and the
# decimal module, which fractions already loads; mpmath loads only for a tw
# point at or beyond painleve.S_MAX
from .errors import CoulombGasError, DomainError, IdentityCheckFailure

SCHEMA_VERSION = 1

# painleve.DEFAULT_TOL, written out so that building the parser does not
# import painleve; tests/test_cli.py holds the two equal
TW_TOL = 1e-10

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IDENTITY = 3


class UsageError(Exception):
    """Bad flag values detected after argparse accepted the syntax."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-8:6:57" or "-inf" as an unknown option; any
        # "-<digit>", "-.<digit>", "-inf" or "-nan" token (in any case) is a
        # value here, so finite_float sees it (no option looks like that)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)",
                                                   re.IGNORECASE)

    # argparse exits 2 on usage errors; the contract here reserves 2 for
    # numerical failures, so route usage problems through UsageError instead
    def error(self, message):
        raise UsageError(message)


def parse_rational(text: str) -> Fraction:
    """Accept '9/16' style rationals and plain decimals."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational or decimal: {text!r}") from exc


def finite_float(text: str) -> float:
    """A float flag value; inf and nan are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
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


def _int_product(x: Fraction, n: int, name: str) -> int:
    """x*n as an int, for the exact modes (m = c*n, or alpha*n in ldp)."""
    m = x * n
    if m.denominator != 1:
        raise UsageError(f"exact modes need an integer {name}*n, got {m} "
                         f"at n = {n}")
    return int(m)


def int_at_least(low: int):
    """The type of a count flag such as --n: an int below `low` is a usage
    error."""
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


def _cnum(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _flatten(row: dict) -> dict:
    flat = {}
    for key, value in row.items():
        if isinstance(value, dict) and set(value) == {"re", "im"}:
            flat[f"{key}_re"] = value["re"]
            flat[f"{key}_im"] = value["im"]
        elif isinstance(value, (dict, list)):
            continue  # CSV is a lossy projection; nested details are dropped
        else:
            flat[key] = value
    return flat


class Columns(list):
    """Table rows held as columns: (key, kind, values) triples.

    kind is float, int, bool, str, None or complex; values holds one list
    per written column, (re, im) for complex, each with one entry per row.
    """

    def dicts(self) -> list[dict]:
        """The same rows as dicts, with complex values as {"re", "im"}."""
        keys = [key for key, _, _ in self]
        cols = [[{"re": re, "im": im} for re, im in zip(*values)]
                if kind is complex else values[0] for _, kind, values in self]
        return [dict(zip(keys, row)) for row in zip(*cols)]


# Characters that make the csv module quote a field (QUOTE_MINIMAL with "\n"
# line ends); a string column holding one leaves the compiled path.
_CSV_QUOTED = re.compile(r'[,"\r\n]')
# the %-format slot of a column; float's %r is float.__repr__, which both
# json and csv use; bool and str columns are turned into text first
_SLOT = {float: "%r", int: "%d", bool: "%s", str: "%s"}
_JSON_TEXT = {bool: {True: "true", False: "false"}.__getitem__,
              str: encode_basestring_ascii}


def _json_rows(columns: Columns) -> list[str] | None:
    """Each row as json.dumps(indent=2) writes it inside the table, or None."""
    fields, values = [], []
    for key, kind, cols in columns:
        name = encode_basestring_ascii(key).replace("%", "%%")
        if kind is complex:
            fields.append(f'      {name}: {{\n        "re": %r,\n'
                          f'        "im": %r\n      }}')
        else:
            fields.append(f"      {name}: {_SLOT.get(kind, 'null')}")
        if kind is float or kind is complex:
            # leave nan and infinity to json.dumps, which raises ValueError:
            # any such value makes the column sum non-finite (an overflowing
            # sum of finite values sends the table there too, harmlessly)
            if not all(math.isfinite(sum(col)) for col in cols):
                return None
        if kind in _JSON_TEXT:
            values.append(list(map(_JSON_TEXT[kind], cols[0])))
        elif kind is not None:
            values += cols
    if not values:
        return None
    fmt = "    {\n" + ",\n".join(fields) + "\n    }"
    return list(map(fmt.__mod__, zip(*values)))


def _csv_rows(columns: Columns) -> list[str] | None:
    """The header line and each row as csv.DictWriter writes them, or None."""
    header, fields, values = [], [], []
    for key, kind, cols in columns:
        if kind is complex:
            header += [f"{key}_re", f"{key}_im"]
            fields += ["%r", "%r"]
        else:
            header.append(key)
            fields.append(_SLOT.get(kind, ""))  # None is an empty field
        if kind is str and _CSV_QUOTED.search("".join(cols[0])):
            return None
        if kind is not None:
            values += cols
    # csv writes a lone empty field as "", and a key may repeat once flattened
    if (len(header) < 2 or len(set(header)) < len(header) or not values
            or _CSV_QUOTED.search("".join(header))):
        return None
    fmt = ",".join(fields) + "\n"
    return [",".join(header) + "\n", *map(fmt.__mod__, zip(*values))]


def _render_stdlib(table: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(table, indent=2, allow_nan=False) + "\n"
    rows = [_flatten(r) for r in table.get("rows", [])]
    header: list[str] = []
    for row in rows:
        header.extend(k for k in row if k not in header)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def render(table: dict, fmt: str) -> str:
    """The table as JSON or CSV text; see the module docstring."""
    rows = table.get("rows")
    if not isinstance(rows, Columns):
        return _render_stdlib(table, fmt)
    # the compiled format writes one row or more (rows[0][2][0] holds the
    # first column's values), and the rows last
    if rows and rows[0][2][0] and next(reversed(table)) == "rows":
        if fmt == "json":
            head = {k: v for k, v in table.items() if k != "rows"}
            lines = _json_rows(rows) if head else None
            if lines is not None:
                lines[0] = (json.dumps(head, indent=2, allow_nan=False)[:-2]
                            + ',\n  "rows": [\n' + lines[0])
                lines[-1] += "\n  ]\n}\n"
                return ",\n".join(lines)
        else:
            lines = _csv_rows(rows)
            if lines is not None:
                return "".join(lines)
    return _render_stdlib({**table, "rows": rows.dicts()}, fmt)


def emit(table: dict, args) -> None:
    text = render(table, args.format)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _table(subcommand: str, params: dict, rows: list, **extra) -> dict:
    out = {"schema_version": SCHEMA_VERSION, "subcommand": subcommand,
           "params": params}
    out.update(extra)
    out["rows"] = rows
    return out


def _add_exact_logz(row: dict, n: int, m: int, a: float, value: float) -> None:
    # the --exact-compare columns of free-energy and critical
    from . import exactfiniten

    exact = float(exactfiniten.exact_logZ(exactfiniten.ExactContext(N=n, m=m, a=a)))
    row.update(exact_logz=exact, residual=abs(exact - value))


def cmd_geometry(args) -> int:
    from . import geometry

    a, c = args.a, float(args.c)
    params = geometry.ModelParams.resolve(a, c)
    boundary = geometry.droplet_boundary(params, args.points)
    crit = geometry.critical_values(c)
    info: dict = {"regime": params.regime.name, "a_cri": crit.a_cri,
                  "chi": boundary.chi}
    if params.regime is geometry.Regime.PRE:
        g = geometry.pre_geometry(a, c)
        info.update(q=g.q, R=g.R, kappa=g.kappa, beta=_cnum(g.beta), b=g.b)
    else:
        g = geometry.post_geometry(a, c)
        info.update(outer_radius=g.outer_radius, inner_center=g.inner_center,
                    inner_radius=g.inner_radius)
    labels, thetas, res, ims, closed = [], [], [], [], []
    for comp in boundary.components:
        labels += [comp.label] * len(comp.theta)
        thetas += comp.theta
        res += [point.real for point in comp.points]
        ims += [point.imag for point in comp.points]
        closed += [comp.closed] * len(comp.theta)
    rows = Columns([("component", str, [labels]), ("theta", float, [thetas]),
                    ("point", complex, [res, ims]),
                    ("closed", bool, [closed])])
    emit(_table("geometry", {"a": a, "c": c, "points": args.points},
                rows, droplet=info), args)
    return EXIT_OK


def cmd_free_energy(args) -> int:
    from . import freeenergy, geometry

    a, c, n = args.a, float(args.c), args.n
    m = _int_product(args.c, n, "c") if args.exact_compare else None
    regime = geometry.classify(a, c)
    result = freeenergy.expansion(n, a, c, regime, M=args.order)
    t = result.terms
    row = {"N": n, "a": a, "c": c, "regime": regime.name,
           "expansion": result.log_z,
           "n2": t.n2, "nlogn": t.nlogn, "n_coeff": t.n_coeff,
           "logn": t.logn, "const": t.const, "chi": t.chi,
           "error_class": t.error_class,
           "tail": [{"power": p, "coefficient": coef} for p, coef in t.tail]}
    if args.exact_compare:
        _add_exact_logz(row, n, m, a, result.log_z)
    emit(_table("free-energy", {"a": a, "c": c, "n": n, "order": args.order,
                                "exact_compare": args.exact_compare},
                [row]), args)
    return EXIT_OK


def _resolve_m(args) -> int:
    if args.c is None:
        if args.m is None:
            raise UsageError("need --m, or --c so that m = c*n can be formed")
        return args.m
    m = _int_product(args.c, args.n, "c")
    if args.m is not None and args.m != m:
        raise UsageError(f"--m {args.m} contradicts --c {args.c}: c*n = {m} "
                         f"at n = {args.n}")
    return m


def cmd_exact(args) -> int:
    from . import exactfiniten

    ctx = exactfiniten.ExactContext(N=args.n, m=_resolve_m(args), a=args.a,
                                    precision_bits=args.bits)
    table = exactfiniten.moment_table(ctx)
    log_z, a11 = table.log_z, table.op[-2]
    row = {"N": ctx.N, "m": ctx.m, "a": ctx.a,
           "log_z": float(log_z), "log_z_str": exactfiniten.nstr(log_z, 30),
           "a11": float(a11), "a11_str": exactfiniten.nstr(a11, 30)}
    emit(_table("exact", {"n": ctx.N, "m": ctx.m, "a": ctx.a,
                          "bits": args.bits}, [row]), args)
    return EXIT_OK


def cmd_duality_check(args) -> int:
    from . import exactfiniten

    residual = exactfiniten.duality_residual(args.n, args.m, args.x,
                                             precision_bits=args.bits)
    res_f = float(residual)
    passed = residual < args.tol
    row = {"N": args.n, "m": args.m, "x": args.x, "residual": res_f,
           "tolerance": args.tol, "passed": passed}
    emit(_table("duality-check", {"n": args.n, "m": args.m, "x": args.x,
                                  "bits": args.bits, "tol": args.tol},
                [row]), args)
    if not passed:
        raise IdentityCheckFailure(
            f"duality residual {res_f:.3e} exceeds tolerance {args.tol:.3e}")
    return EXIT_OK


def cmd_tw(args) -> int:
    from . import painleve

    ts = parse_grid(args.grid) if args.grid is not None else [args.t]
    sol = painleve.hastings_mcleod(tol=args.tol)
    cdf, survival = painleve.tw_cdf_survival(sol, ts)
    rows = Columns([("t", float, [ts]), ("cdf", float, [cdf.tolist()]),
                    ("survival", float, [survival.tolist()])])
    emit(_table("tw", {"tol": args.tol, "grid": args.grid, "t": args.t},
                rows), args)
    return EXIT_OK


def cmd_critical(args) -> int:
    from . import painleve

    c = float(args.c)
    m = _int_product(args.c, args.n, "c") if args.exact_compare else None
    sol = painleve.hastings_mcleod(tol=args.tol)
    a_s = painleve.critical_a(args.s, c, args.n)
    value = painleve.critical_expansion(args.n, c, args.s, solution=sol)
    row = {"N": args.n, "c": c, "s": args.s, "a_s": a_s, "expansion": value}
    if args.exact_compare:
        _add_exact_logz(row, args.n, m, a_s, value)
    emit(_table("critical", {"n": args.n, "c": c, "s": args.s,
                             "tol": args.tol,
                             "exact_compare": args.exact_compare}, [row]),
         args)
    return EXIT_OK


def cmd_ldp(args) -> int:
    from . import ldp

    alpha = float(args.alpha)
    ts = parse_grid(args.grid) if args.grid is not None else [args.t]
    if args.exact_compare:
        if args.n is None:
            raise UsageError("--exact-compare needs --n")
        _int_product(args.alpha, args.n, "alpha")
    elif args.n is not None:
        raise UsageError("--n is used only with --exact-compare")
    lambda_minus = ldp.LUEParams.from_alpha(alpha).lambda_minus
    if alpha > 0 and lambda_minus == 0.0:
        raise DomainError(
            f"alpha = {alpha!r} is too small: lambda_- = (sqrt(alpha+1) - 1)^2 "
            "underflows to 0")
    edge_action = ldp.kc_action(lambda_minus, alpha)
    phis, psis = ldp.phi_psi_grid(ts, alpha)
    diffs = [action - edge_action
             for action in ldp.kc_action_grid(ts, alpha)]
    residuals = [abs(rate - diff) for rate, diff in zip(phis, diffs)]
    rows = Columns([("t", float, [ts]), ("phi", float, [phis]),
                    ("action_diff", float, [diffs]),
                    ("residual", float, [residuals]), ("psi", float, [psis])])
    if args.exact_compare:
        n = args.n
        rows += [("n", int, [[n] * len(ts)]),
                 ("exact_log_p", float,
                  [[ldp.exact_log_gap_probability(n, alpha, t) for t in ts]]),
                 ("ldp_log_p", float,
                  [[ldp.ldp_log_probability_from(n, alpha, rate, const)
                    for rate, const in zip(phis, psis)]])]
    worst = max(residuals)
    emit(_table("ldp", {"alpha": alpha, "grid": args.grid, "t": args.t,
                        "check_kc": args.check_kc, "tol": args.tol,
                        "exact_compare": args.exact_compare, "n": args.n},
                rows, worst_residual=worst), args)
    if args.check_kc and worst > args.tol:
        raise IdentityCheckFailure(
            f"rate-function identity violated: max gap {worst:.3e} exceeds "
            f"{args.tol:.3e}")
    return EXIT_OK


def cmd_op_compare(args) -> int:
    from . import exactfiniten, opasymp

    a, c = args.a, args.c
    z = complex(args.x if args.x is not None else 3.0,
                args.s if args.s is not None else 0.0)
    ns = args.n_list
    ms = [_int_product(c, n, "c") for n in ns]
    evaluator = opasymp.GEvaluator.build(a, float(c))
    evaluator.require_exterior(z)
    exact_values = {}
    for n, m in zip(ns, ms):
        ctx = exactfiniten.ExactContext(N=n, m=m, a=a,
                                        precision_bits=args.bits)
        exact_values[n] = exactfiniten.eval_polynomial(
            exactfiniten.exact_op(ctx), z, args.bits)

    def one(n: int) -> dict:
        exact = exact_values[n]
        asym = opasymp.p_asymp(evaluator, z, n).value
        rel = abs(asym - exact) / abs(exact)
        return {"N": n, "z": _cnum(z), "exact": _cnum(exact),
                "asymptotic": _cnum(asym), "rel_error": rel}

    rows = [one(n) for n in ns]
    emit(_table("op-compare", {"a": a, "c": float(c), "z": _cnum(z),
                               "bits": args.bits, "regime":
                               evaluator.params.regime.name}, rows), args)
    return EXIT_OK


def cmd_report(args) -> int:
    from . import report

    skip = tuple(args.skip or ())
    try:
        results = report.run_checks(skip)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    rows = []
    for res in results:
        row = res.as_dict()
        # timings vary run to run; dropping them keeps the artifact
        # byte-identical across runs, which downstream diffing relies on
        del row["elapsed_seconds"]
        rows.append(row)
    all_passed = all(res.passed for res in results)
    table = {"schema_version": report.SCHEMA_VERSION,
             "kind": "verification_report",
             "skipped_suites": list(skip),
             "all_passed": all_passed,
             "n_passed": sum(res.passed for res in results),
             "n_checks": len(results),
             "rows": rows}
    emit(table, args)
    if not all_passed:
        failed = ", ".join(res.key for res in results if not res.passed)
        raise IdentityCheckFailure(f"criteria failed: {failed}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="coulombgas",
                     description="Planar Coulomb gas toolkit: droplet "
                                 "geometry, free energies, exact finite-N "
                                 "oracles, large deviations, and polynomial "
                                 "asymptotics.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, bits=False, tol=None):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write the table here "
                                                   "instead of stdout")
        if bits:
            p.add_argument("--bits", type=int, default=256)
        if tol is not None:
            p.add_argument("--tol", type=finite_float, default=tol)

    def t_or_grid(p):
        which = p.add_mutually_exclusive_group(required=True)
        which.add_argument("--t", type=finite_float)
        which.add_argument("--grid", type=str, default=None,
                           metavar="LO:HI:STEPS")

    p = sub.add_parser("geometry", help="droplet boundary points")
    p.add_argument("--a", type=finite_float, required=True)
    p.add_argument("--c", type=parse_rational, required=True)
    p.add_argument("--points", type=int_at_least(8), default=256)
    common(p)
    p.set_defaults(fn=cmd_geometry)

    p = sub.add_parser("free-energy", help="log Z_N expansion terms")
    p.add_argument("--a", type=finite_float, required=True)
    p.add_argument("--c", type=parse_rational, required=True)
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--order", type=int, default=2, metavar="M")
    p.add_argument("--exact-compare", action="store_true",
                   help="add exact log Z and the residual (needs integer c*n)")
    common(p)
    p.set_defaults(fn=cmd_free_energy)

    p = sub.add_parser("exact", help="exact finite-N log Z and A11")
    p.add_argument("--a", type=finite_float, required=True)
    p.add_argument("--c", type=parse_rational)
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--m", type=int_at_least(0))
    common(p, bits=True)
    p.set_defaults(fn=cmd_exact)

    p = sub.add_parser("duality-check", help="gap probability vs "
                                             "partition-function ratio")
    p.add_argument("--n", type=positive_int, required=True)
    # m is the LUE size n here
    p.add_argument("--m", type=positive_int, required=True)
    p.add_argument("--x", type=finite_float, required=True)
    common(p, bits=True, tol=1e-25)
    p.set_defaults(fn=cmd_duality_check)

    p = sub.add_parser("tw", help="extreme-value distribution values")
    t_or_grid(p)
    common(p, tol=TW_TOL)
    p.set_defaults(fn=cmd_tw)

    p = sub.add_parser("critical", help="transition-window free energy")
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--c", type=parse_rational, required=True)
    p.add_argument("--s", type=finite_float, required=True)
    p.add_argument("--exact-compare", action="store_true",
                   help="add exact log Z and the residual (needs integer c*n)")
    common(p, tol=TW_TOL)
    p.set_defaults(fn=cmd_critical)

    p = sub.add_parser("ldp", help="left-edge rate function table")
    p.add_argument("--alpha", type=parse_rational, required=True)
    t_or_grid(p)
    p.add_argument("--check-kc", action="store_true",
                   help="exit 3 if the action identity fails anywhere")
    p.add_argument("--exact-compare", action="store_true",
                   help="add finite-n log gap probabilities (needs --n with "
                        "integer alpha*n)")
    p.add_argument("--n", type=positive_int, default=None)
    common(p, tol=1e-10)
    p.set_defaults(fn=cmd_ldp)

    p = sub.add_parser("op-compare", help="asymptotic vs exact polynomials")
    p.add_argument("--a", type=finite_float, required=True)
    p.add_argument("--c", type=parse_rational, required=True)
    p.add_argument("--n", dest="n_list", type=parse_int_list, default=[4, 8, 16],
                   metavar="N1,N2,...")
    p.add_argument("--x", type=finite_float, help="evaluation point, real part")
    p.add_argument("--s", type=finite_float, help="evaluation point, imaginary part")
    common(p, bits=True)
    p.set_defaults(fn=cmd_op_compare)

    p = sub.add_parser("report", help="run the verification suite")
    # run_checks rejects an unknown suite and names the known ones
    p.add_argument("--skip", action="append", default=None, metavar="SUITE")
    common(p)
    p.set_defaults(fn=cmd_report)

    return parser


def _fail(exc: Exception, code: int) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc),
               "exit_code": code}
    print(json.dumps(payload), file=sys.stderr)
    return code


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _validate_common(args)
        return args.fn(args)
    except UsageError as exc:
        return _fail(exc, EXIT_USAGE)
    except IdentityCheckFailure as exc:
        return _fail(exc, EXIT_IDENTITY)
    except CoulombGasError as exc:
        return _fail(exc, EXIT_NUMERICAL)
    except OSError as exc:
        return _fail(exc, EXIT_USAGE)
    except Exception as exc:  # never leak a traceback past the CLI boundary
        return _fail(exc, EXIT_NUMERICAL)


def _validate_common(args) -> None:
    bits = getattr(args, "bits", None)
    if bits is not None and bits < 128:
        raise UsageError(f"--bits must be at least 128, got {bits}")
    order = getattr(args, "order", None)
    if order is not None and order < 0:
        raise UsageError(f"--order must be nonnegative, got {order}")
    tol = getattr(args, "tol", None)
    if tol is not None and not tol > 0.0:
        raise UsageError(f"--tol must be positive, got {tol}")


def main() -> None:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(run())


if __name__ == "__main__":
    main()
