"""exact: exact finite-N log Z and A11."""
from __future__ import annotations

from ..args import (_int_product, common, finite_float, parse_rational,
                    positive_int)
from ..table import _table, emit


def add_arguments(p) -> None:
    p.add_argument("--a", type=finite_float, required=True)
    p.add_argument("--c", type=parse_rational, required=True)
    p.add_argument("--n", type=positive_int, required=True)
    common(p, bits=True)


def run(args) -> None:
    from .. import exactfiniten

    n, m, a = args.n, _int_product(args.c, args.n, "c"), args.a
    table = exactfiniten.moment_table(n, m, a, args.bits)
    log_z, a11 = table.log_z, table.op[-2]
    row = {"N": n, "m": m, "a": a,
           "log_z": float(log_z), "log_z_str": exactfiniten.nstr(log_z, 30),
           "a11": float(a11), "a11_str": exactfiniten.nstr(a11, 30)}
    emit(_table("exact", {"n": n, "m": m, "a": a, "bits": args.bits}, [row]),
         args)
