"""critical: transition-window free energy."""
from __future__ import annotations

from ..args import (_add_exact_logz, _int_product, common, finite_float,
                    parse_rational, positive_int)
from ..table import _table, emit


def add_arguments(p) -> None:
    # run loads painleve too, so its default costs no extra module
    from .. import painleve

    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--c", type=parse_rational, required=True)
    p.add_argument("--s", type=finite_float, required=True)
    p.add_argument("--exact-compare", action="store_true",
                   help="add exact log Z and the residual (needs integer c*n)")
    common(p, tol=painleve.DEFAULT_TOL)


def run(args) -> None:
    from .. import painleve

    c = float(args.c)
    m = _int_product(args.c, args.n, "c") if args.exact_compare else None
    # critical_a refuses a bad c or s before Painleve II is solved
    a_s = painleve.critical_a(args.s, c, args.n)
    sol = painleve.hastings_mcleod(tol=args.tol)
    value = painleve.critical_expansion(args.n, c, args.s, solution=sol)
    row = {"N": args.n, "c": c, "s": args.s, "a_s": a_s, "expansion": value}
    if args.exact_compare:
        _add_exact_logz(row, args.n, m, a_s, value)
    emit(_table("critical", {"n": args.n, "c": c, "s": args.s,
                             "tol": args.tol,
                             "exact_compare": args.exact_compare}, [row]),
         args)
