"""duality-check: gap probability vs partition-function ratio."""
from __future__ import annotations

from ..args import common, finite_float, positive_int
from ..errors import IdentityCheckFailure
from ..table import _table, emit


def add_arguments(p) -> None:
    p.add_argument("--n", type=positive_int, required=True)
    # m is the LUE size n here
    p.add_argument("--m", type=positive_int, required=True)
    p.add_argument("--x", type=finite_float, required=True)
    common(p, bits=True, tol=1e-25)


def run(args) -> None:
    from .. import exactfiniten

    [residual] = exactfiniten.duality_residuals(args.n, args.m, (args.x,),
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
