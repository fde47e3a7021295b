"""op-compare: asymptotic vs exact polynomials."""
from __future__ import annotations

from ..args import (_int_product, common, finite_float, parse_int_list,
                    parse_rational)
from ..errors import EXIT_OK
from ..table import _cnum, _table, emit


def add_arguments(p) -> None:
    p.add_argument("--a", type=finite_float, required=True)
    p.add_argument("--c", type=parse_rational, required=True)
    p.add_argument("--n", dest="n_list", type=parse_int_list, default=[4, 8, 16],
                   metavar="N1,N2,...")
    p.add_argument("--x", type=finite_float, default=3.0,
                   help="evaluation point, real part")
    p.add_argument("--s", type=finite_float, default=0.0,
                   help="evaluation point, imaginary part")
    common(p, bits=True)


def run(args) -> int:
    from .. import exactfiniten, geometry, opasymp

    a, c = args.a, args.c
    z = complex(args.x, args.s)
    ns = args.n_list
    ms = [_int_product(c, n, "c") for n in ns]
    geom = geometry.droplet(a, float(c))
    opasymp.require_exterior(geom, z)
    exact_values = {}
    for n, m in zip(ns, ms):
        exact_values[n] = exactfiniten.eval_polynomial(
            exactfiniten.moment_table(n, m, a, args.bits).op, z, args.bits)

    def one(n: int) -> dict:
        exact = exact_values[n]
        asym = opasymp.p_asymp(geom, z, n)
        rel = abs(asym - exact) / abs(exact)
        return {"N": n, "z": _cnum(z), "exact": _cnum(exact),
                "asymptotic": _cnum(asym), "rel_error": rel}

    rows = [one(n) for n in ns]
    emit(_table("op-compare", {"a": a, "c": float(c), "z": _cnum(z),
                               "bits": args.bits,
                               "regime": geom.regime.name}, rows), args)
    return EXIT_OK
