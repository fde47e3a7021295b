"""op-compare: asymptotic vs exact polynomials."""
from __future__ import annotations

from ..args import (_int_product, common, finite_float, parse_int_list,
                    parse_rational)
from ..table import _table, emit


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


def run(args) -> None:
    from .. import exactfiniten, geometry, opasymp

    a, c = args.a, args.c
    z = complex(args.x, args.s)
    ns = args.n_list
    ms = [_int_product(c, n, "c") for n in ns]
    geom = geometry.droplet(a, float(c))
    # p_asymp gates z before any exact work
    asyms = opasymp.p_asymp(geom, z, ns)
    rows = []
    for n, m, asym in zip(ns, ms, asyms):
        exact = exactfiniten.eval_polynomial(
            exactfiniten.moment_table(n, m, a, args.bits).op, z, args.bits)
        rows.append({"N": n, "z": z, "exact": exact, "asymptotic": asym,
                     "rel_error": abs(asym - exact) / abs(exact)})
    emit(_table("op-compare", {"a": a, "c": float(c), "z": z,
                               "bits": args.bits,
                               "regime": geom.regime.name}, rows), args)
