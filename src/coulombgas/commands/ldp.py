"""ldp: left-edge rate function table."""
from __future__ import annotations

from ..args import (_int_product, common, parse_grid, parse_rational,
                    positive_int, t_or_grid)
from ..errors import IdentityCheckFailure, UsageError
from ..table import _table, emit


def add_arguments(p) -> None:
    p.add_argument("--alpha", type=parse_rational, required=True)
    t_or_grid(p)
    p.add_argument("--check-kc", action="store_true",
                   help="exit 3 if the action identity fails anywhere")
    p.add_argument("--exact-compare", action="store_true",
                   help="add finite-n log gap probabilities (needs --n with "
                        "integer alpha*n)")
    p.add_argument("--n", type=positive_int, default=None)
    common(p, tol=1e-10)


def run(args) -> None:
    from .. import ldp

    alpha = float(args.alpha)
    ts = parse_grid(args.grid) if args.grid is not None else [args.t]
    if args.exact_compare:
        if args.n is None:
            raise UsageError("--exact-compare needs --n")
        alpha_n = _int_product(args.alpha, args.n, "alpha")
    elif args.n is not None:
        raise UsageError("--n is used only with --exact-compare")
    phis, psis = ldp.phi_psi_grid(ts, alpha)
    diffs = ldp.kc_rate_grid(ts, alpha)
    residuals = [abs(rate - diff) for rate, diff in zip(phis, diffs)]
    rows = {"t": ts, "phi": phis, "action_diff": diffs,
            "residual": residuals, "psi": psis}
    if args.exact_compare:
        # the exact oracle loads only here: the rate functions do not need it
        from fractions import Fraction

        from ..exactfiniten import lue_log_gap_probability

        n = args.n
        # phi_psi_grid has checked t > lambda_- > 0 at every point
        rows.update(
            n=[n] * len(ts),
            exact_log_p=[float(lue_log_gap_probability(n, alpha_n,
                                                       Fraction(t), n))
                         for t in ts],
            ldp_log_p=[ldp.ldp_log_probability(n, alpha, rate, const)
                       for rate, const in zip(phis, psis)])
    worst = max(residuals)
    emit(_table("ldp", {"alpha": alpha, "grid": args.grid, "t": args.t,
                        "check_kc": args.check_kc, "tol": args.tol,
                        "exact_compare": args.exact_compare, "n": args.n},
                rows, worst_residual=worst), args)
    if args.check_kc and worst > args.tol:
        raise IdentityCheckFailure(
            f"rate-function identity violated: max gap {worst:.3e} exceeds "
            f"{args.tol:.3e}")
