"""exact: exact finite-N log Z and A11."""
from __future__ import annotations

from ..args import (_int_product, common, finite_float, int_at_least,
                    parse_rational, positive_int)
from ..errors import EXIT_OK, UsageError
from ..table import _table, emit


def add_arguments(p) -> None:
    p.add_argument("--a", type=finite_float, required=True)
    p.add_argument("--c", type=parse_rational)
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--m", type=int_at_least(0))
    common(p, bits=True)


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


def run(args) -> int:
    from .. import exactfiniten

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
