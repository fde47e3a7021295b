"""tw: extreme-value distribution values."""
from __future__ import annotations

from ..args import common, parse_grid, t_or_grid
from ..table import _table, emit


def add_arguments(p) -> None:
    # run loads painleve too, so its default costs no extra module
    from .. import painleve

    t_or_grid(p)
    common(p, tol=painleve.DEFAULT_TOL)


def run(args) -> None:
    from .. import painleve

    ts = parse_grid(args.grid) if args.grid is not None else [args.t]
    sol = painleve.hastings_mcleod(tol=args.tol)
    cdf, survival = painleve.tw_cdf_survival(sol, ts)
    rows = {"t": ts, "cdf": cdf, "survival": survival}
    emit(_table("tw", {"tol": args.tol, "grid": args.grid, "t": args.t},
                rows), args)
