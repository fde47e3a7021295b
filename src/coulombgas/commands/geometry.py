"""geometry: droplet boundary points."""
from __future__ import annotations

from ..args import common, finite_float, int_at_least, parse_rational
from ..table import _table, emit


def add_arguments(p) -> None:
    p.add_argument("--a", type=finite_float, required=True)
    p.add_argument("--c", type=parse_rational, required=True)
    p.add_argument("--points", type=int_at_least(8), default=256)
    common(p)


def run(args) -> None:
    from .. import geometry

    a, c = args.a, float(args.c)
    g = geometry.droplet(a, c)
    info: dict = {"regime": g.regime.name, "a_cri": geometry.a_cri(c)}
    if g.regime is geometry.Regime.PRE:
        info.update(chi=1, q=g.q, R=g.R, kappa=g.kappa, beta=g.beta, b=g.b)
    else:
        info.update(chi=0, outer_radius=g.outer_radius,
                    inner_center=g.inner_center, inner_radius=g.inner_radius)
    thetas, components = geometry.droplet_boundary(g, args.points)
    labels, points = [], []
    for label, curve in components:
        labels += [label] * len(curve)
        points += curve
    rows = {"component": labels, "theta": list(thetas) * len(components),
            "point": points, "closed": [True] * len(labels)}
    emit(_table("geometry", {"a": a, "c": c, "points": args.points},
                rows, droplet=info), args)
