"""free-energy: log Z_N expansion terms."""
from __future__ import annotations

from ..args import (_add_exact_logz, _int_product, common, finite_float,
                    int_at_least, parse_rational, positive_int)
from ..table import _table, emit


def add_arguments(p) -> None:
    p.add_argument("--a", type=finite_float, required=True)
    p.add_argument("--c", type=parse_rational, required=True)
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--order", type=int_at_least(0), default=2, metavar="M")
    p.add_argument("--exact-compare", action="store_true",
                   help="add exact log Z and the residual (needs integer c*n)")
    common(p)


def run(args) -> None:
    from .. import freeenergy, geometry

    a, c, n = args.a, float(args.c), args.n
    m = _int_product(args.c, n, "c") if args.exact_compare else None
    regime = geometry.classify(a, c)
    e = freeenergy.expansion(n, a, c, regime, M=args.order)
    row = {"N": n, "a": a, "c": c, "regime": regime.name,
           "expansion": e.log_z,
           "n2": e.n2, "nlogn": e.nlogn, "n_coeff": e.n_coeff,
           "logn": e.logn, "const": e.const, "chi": e.chi,
           "error_class": e.error_class,
           "tail": [{"power": p, "coefficient": coef} for p, coef in e.tail]}
    if args.exact_compare:
        _add_exact_logz(row, n, m, a, e.log_z)
    emit(_table("free-energy", {"a": a, "c": c, "n": n, "order": args.order,
                                "exact_compare": args.exact_compare},
                [row]), args)
