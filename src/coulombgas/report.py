"""Consolidated verification suite: twelve cross-route checks with evidence.

Each check compares a closed-form or asymptotic route against an exact
oracle or an independent second derivation, and returns the numbers it
judged alongside the verdict, so a failing check carries its own evidence.
The registry is shared by the command-line `report` subcommand and the
acceptance test suite; both see identical results.

Everything here is deterministic (no randomness anywhere in the package),
and the checks run sequentially.
"""
from __future__ import annotations

import functools
import math
import time
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from . import exactfiniten, freeenergy, geometry, ldp, opasymp, painleve
from .geometry import Regime


class CheckResult(NamedTuple):
    key: str
    suite: str
    label: str
    passed: bool
    message: str
    details: dict
    elapsed_seconds: float = 0.0


# key -> (suite, label, check); a check returns (passed, message, details)
CHECKS: dict[str, tuple[str, str, Callable[[], tuple]]] = {}


def check(key: str, suite: str, label: str):
    """Register the decorated function as report check `key`, in file order."""
    def register(fn):
        CHECKS[key] = (suite, label, fn)
        return fn
    return register


@functools.cache
def _moment_table(n: int, a: float) -> exactfiniten.MomentTable:
    # the (N, a) tables the expansion and polynomial checks share, at m = N
    # and 256 bits; run_checks empties the cache, so each run builds its own
    return exactfiniten.moment_table(n, n, a)


@check("duality", "exact", "duality identity at 256 bits")
def check_duality() -> tuple:
    """Gap probability vs rescaled partition-function ratio, 256 bits."""
    rows = []
    worst = 0.0
    xs = (0.0, 0.3, 0.7, 1.1)
    for n_gin, m in ((2, 2), (3, 3), (4, 4), (2, 4)):
        residuals = exactfiniten.duality_residuals(n_gin, m, xs,
                                                   precision_bits=256)
        for x, res in zip(xs, map(float, residuals)):
            rows.append({"N": n_gin, "m": m, "x": x, "residual": res})
            worst = max(worst, res)
    return (
        worst < 1e-25,
        f"max residual {worst:.3e} over 16 points (tolerance 1e-25)",
        {"tolerance": 1e-25, "worst": worst, "rows": rows})


@check("expansion_post", "freeenergy", "free-energy expansion, annular phase")
def check_expansion_post() -> tuple:
    """Annular-phase expansion against the determinant and reference routes."""
    a, c = 0.2, 1.0
    # the determinant route at a, then the a = 0 reference
    routes = ((a, lambda n: float(_moment_table(n, a).log_z)),
              (0.0, lambda n: freeenergy.reference_logZ(n, n)))  # m = cN
    rows = []
    ok = True
    for x, exact_log_z in routes:
        for n in (4, 8, 16):
            approx = freeenergy.expansion(n, x, c, Regime.POST, M=2).log_z
            bound = 3.0 * freeenergy.first_omitted_tail_term(n, c, 2)
            resid = abs(exact_log_z(n) - approx)
            rows.append({"N": n, "a": x, "residual": resid, "bound": bound})
            ok = ok and resid < bound
    worst = max(r["residual"] / r["bound"] for r in rows)
    return (
        ok,
        f"worst residual/bound {worst:.3f} (needs < 1)",
        {"rows": rows})


@check("expansion_pre", "freeenergy",
       "free-energy expansion, simply connected phase")
def check_expansion_pre() -> tuple:
    """Simply-connected-phase expansion residual halves as N doubles."""
    a, c = 1.2, 1.0
    residuals = {}
    for n in (8, 16):
        exact = float(_moment_table(n, a).log_z)
        approx = freeenergy.expansion(n, a, c, Regime.PRE).log_z
        residuals[n] = abs(exact - approx)
    ratio = residuals[8] / residuals[16]
    return (
        1.5 <= ratio <= 3.0,
        f"residual ratio r(8)/r(16) = {ratio:.3f} (window [1.5, 3.0])",
        {"residuals": residuals, "ratio": ratio, "window": [1.5, 3.0]})


@check("kc_identity", "ldp", "rate function vs constrained-gas action")
def check_kc_identity() -> tuple:
    """Rate function equals the constrained-gas action difference."""
    worst = 0.0
    per_alpha = {}
    for alpha in (0.5, 1.0, 16.0 / 9.0, 5.0):
        lam = ldp.lambda_minus(alpha)
        ts = np.linspace(lam + 0.05, lam + 5.0, 50).tolist()
        diffs = [abs(rate - diff) for rate, diff
                 in zip(ldp.phi_psi_grid(ts, alpha)[0],
                        ldp.kc_rate_grid(ts, alpha))]
        per_alpha[f"{alpha:.6f}"] = max(diffs)
        worst = max(worst, max(diffs))
    return (
        worst < 1e-10,
        f"max |Phi - (S(t) - S(edge))| = {worst:.3e} (tolerance 1e-10)",
        {"tolerance": 1e-10, "worst": worst, "per_alpha": per_alpha})


@check("third_order", "ldp", "third-order transition coefficient")
def check_third_order() -> tuple:
    """Fitted cubic coefficient of the rate function at the edge."""
    rows = []
    ok = True
    for alpha in (1.0, 16.0 / 9.0):
        lam = ldp.lambda_minus(alpha)
        dts = np.linspace(1e-3, 1e-2, 50)
        vals = np.array(ldp.phi_psi_grid((lam + dts).tolist(), alpha)[0])
        design = np.vstack([dts ** 3, dts ** 4]).T
        k3, k4 = np.linalg.lstsq(design, vals, rcond=None)[0]
        target = math.sqrt(alpha + 1.0) / (12.0 * lam * lam)
        rel = abs(k3 / target - 1.0)
        rows.append({"alpha": alpha, "fitted": float(k3), "target": target,
                     "rel_error": float(rel), "next_order": float(k4)})
        ok = ok and rel < 0.01
    worst = max(r["rel_error"] for r in rows)
    return (
        ok,
        f"worst fitted-coefficient relative error {worst:.2e} (tolerance 1e-2)",
        {"rows": rows})


@check("ldp_constants", "ldp", "large-deviation constant terms")
def check_ldp_constants() -> tuple:
    """Constant-order expansion of log P approaches the exact finite-n value."""
    alpha = 1.0
    t = ldp.lambda_minus(alpha) + 1.0
    (rate,), (const,) = ldp.phi_psi_grid((t,), alpha)
    diffs = []
    for n in (4, 8, 16):
        # alpha*n = n zero modes and the weight e^(-n x)
        exact = float(exactfiniten.lue_log_gap_probability(
            n, n, Fraction(t), n))
        approx = ldp.ldp_log_probability(n, alpha, rate, const)
        diffs.append({"n": n, "abs_error": abs(exact - approx)})
    decreasing = (diffs[0]["abs_error"] > diffs[1]["abs_error"]
                  > diffs[2]["abs_error"])
    final_ok = diffs[2]["abs_error"] < 0.2
    shown = ", ".join(f"{d['abs_error']:.2e}" for d in diffs)
    return (
        decreasing and final_ok,
        f"errors [{shown}] must decrease and end below 0.2",
        {"alpha": alpha, "t": t, "rows": diffs})


@check("tw_tails", "tw", "extreme-value distribution tails")
def check_tw_tails() -> tuple:
    """Distribution tails against the printed expansions; ODE self-convergence."""
    sol = painleve.hastings_mcleod()
    t_left = -8.0
    scale = 3.0 / (2 ** 6 * abs(t_left) ** 3)
    (cdf_left, _, cdf_mid), (_, survival_right, _) = painleve.tw_cdf_survival(
        sol, (t_left, 6.0, -5.0))
    left_diff = abs(math.log(cdf_left)
                    - painleve.left_tail_log_cdf(abs(t_left)))
    right_rel = abs(survival_right / painleve.right_tail_survival(6.0) - 1.0)
    refined = painleve.hastings_mcleod(tol=painleve.DEFAULT_TOL / 2.0)
    drift = abs(cdf_mid - painleve.tw_cdf_survival(refined, (-5.0,))[0][0])
    # the drift alone reads ~3e-19, and exactly 0 from a solver that ignored
    # tol: the halved tol must also buy more collocation nodes
    ok = (left_diff < scale and right_rel < 0.20 and drift < 1e-8
          and refined.s_grid.size > sol.s_grid.size)
    return (
        ok,
        f"left diff {left_diff:.2e} (< {scale:.2e}), right rel {right_rel:.3f} "
        f"(< 0.2), tol-halving drift {drift:.1e} (< 1e-8)",
        {"left_abs_diff": left_diff, "left_scale": scale,
         "right_rel_error": right_rel, "tol_halving_drift": drift})


def _op_errors(a: float, z: complex, ns: tuple) -> dict:
    """Relative error of p_asymp against the exact p_N at z, for each N."""
    asyms = opasymp.p_asymp(geometry.droplet(a, 1.0), z, ns)
    errs = {}
    for n, asym in zip(ns, asyms):
        exact = exactfiniten.eval_polynomial(_moment_table(n, a).op, z)
        errs[n] = abs(asym - exact) / abs(exact)
    return errs


@check("op_asymptotics", "opasymp", "orthogonal-polynomial asymptotics")
def check_op_asymptotics() -> tuple:
    """Polynomial asymptotics vs the exact moment-determinant polynomials.

    Annular half: fixed-N relative error threshold at the stated point; the
    errors at N = 4, 8, 16 are recorded too, so the declared N^-inf class can
    be read off their decay.
    Simply connected half: error-halving ratios as N doubles, which probe the
    declared inverse-square error class at a fixed exterior point.
    """
    z = 3.0
    post_errs = _op_errors(0.2, z, (4, 8, 16))
    rel_post = post_errs[8]
    post_ok = rel_post < 1e-6

    errs = _op_errors(1.2, z, (4, 8, 16))
    ratios = (errs[4] / errs[8], errs[8] / errs[16])
    pre_ok = all(3.0 <= r <= 5.0 for r in ratios)
    return (
        post_ok and pre_ok,
        f"annular rel error {rel_post:.3e} (needs < 1e-6); simply connected "
        f"ratios {ratios[0]:.2f}, {ratios[1]:.2f} (window [3, 5])",
        {"post": {"a": 0.2, "N": 8, "z": z, "rel_error": rel_post,
                  "tolerance": 1e-6, "errors": post_errs},
         "pre": {"a": 1.2, "z": z, "errors": errs,
                 "ratios": list(ratios), "window": [3.0, 5.0]}})


@check("residue_r11", "opasymp", "far-field coefficient identity for R11")
def check_residue() -> tuple:
    """Numerically extracted far-field coefficient of R11 vs d_a F/(2N)."""
    rows = []
    worst = 0.0
    for a, c in ((1.0, 9.0 / 16.0), (1.2, 1.0), (2.0, 1.0)):
        geom = geometry.droplet(a, c)
        probe = opasymp.r11_residue_probe(opasymp.rh_coefficients(geom, 8))
        # the 1/N part of A11 in d_a log Z_N = 2N A11, at N = 8
        closed = freeenergy.d_fconst_pre_da(a, geom.q, geom.v,
                                           geom.w) / (2.0 * 8)
        rel = abs(probe - closed) / abs(closed)
        rows.append({"a": a, "c": c, "probe_re": probe.real, "closed": closed,
                     "rel_error": rel})
        worst = max(worst, rel)
    return (
        worst < 1e-10,
        f"worst relative error {worst:.3e} over three parameter pairs "
        f"(tolerance 1e-10)",
        {"tolerance": 1e-10, "rows": rows})


def _zw_grid() -> list[tuple[float, float]]:
    points = [(f * geometry.a_cri(c), c) for c in (0.25, 0.5625, 1.0, 4.0)
              for f in (0.3, 0.7, 1.5, 3.0)]
    return points + [(0.0, 1.0), (0.1, 2.0), (1.2, 1.0), (2.0, 1.0)]


@check("zw_constant", "freeenergy", "constant term vs zeta-determinant")
def check_zw_constant() -> tuple:
    """Constant term equals minus half the log-determinant, both phases."""
    worst = 0.0
    rows = []
    for a, c in _zw_grid():
        geom = geometry.droplet(a, c)
        const = (freeenergy.fconst_pre(a, geom.q, geom.v, geom.w)
                 if geom.regime is Regime.PRE else freeenergy.fconst_post(c))
        resid = abs(const + 0.5 * freeenergy.detzeta_log(geom))
        rows.append({"a": a, "c": c, "regime": geom.regime.name,
                     "residual": resid})
        worst = max(worst, resid)
    return (
        worst < 1e-12,
        f"max |fconst + detzeta_log/2| = {worst:.3e} over 20 points "
        f"(tolerance 1e-12)",
        {"tolerance": 1e-12, "worst": worst, "rows": rows})


def _pre_closed_forms(a: float, c: float) -> tuple:
    """(energy_pre, fconst_pre, re_g_at_a) at (a, c) from one modulus solve."""
    q, v, w = geometry.solve_modulus(a, c)
    return (freeenergy.energy_pre(a, c, q, w),
            freeenergy.fconst_pre(a, q, v, w), freeenergy.re_g_at_a(a, c, q, w))


@check("derivative_forms", "freeenergy",
       "closed-form derivatives vs differences")
def check_derivatives() -> tuple:
    """Closed-form insertion-point derivatives vs central differences."""
    c = 1.0
    h = 1e-6
    worst = 0.0
    rows = []
    for a in np.linspace(0.6, 2.4, 10):
        fd_energy, fd_const, fd_reg = (
            (hi - lo) / (2.0 * h) for hi, lo in zip(
                _pre_closed_forms(a + h, c), _pre_closed_forms(a - h, c)))
        q, v, w = geometry.solve_modulus(a, c)
        diffs = {
            "energy": abs(fd_energy - freeenergy.d_energy_pre_da(a, q, v, w)),
            "fconst": abs(fd_const - freeenergy.d_fconst_pre_da(a, q, v, w)),
            "re_g": abs(fd_reg - a * q * q),
        }
        rows.append({"a": float(a), **diffs})
        worst = max(worst, *diffs.values())
    return (
        worst < 1e-7,
        f"max |finite difference - closed form| = {worst:.3e} over 10 points "
        f"(tolerance 1e-7)",
        {"tolerance": 1e-7, "worst": worst, "rows": rows})


@check("energy_continuity", "freeenergy", "energy continuity and ordering")
def check_energy_continuity() -> tuple:
    """Energy branches agree at the phase boundary and order correctly past it."""
    rows = []
    ok = True
    for c in (0.25, 0.5625, 1.0, 4.0):
        a_cri = geometry.a_cri(c)
        a_edge = a_cri + 1e-8
        gap = abs(_pre_closed_forms(a_edge, c)[0]
                  - freeenergy.energy_post(a_edge, c))
        ordered = all(
            _pre_closed_forms(a, c)[0] > freeenergy.energy_post(a, c)
            for a in (a_cri + da for da in (1e-3, 1e-2, 0.1, 0.5, 1.0)))
        rows.append({"c": c, "boundary_gap": gap, "ordered": ordered})
        ok = ok and gap < 1e-9 and ordered
    worst = max(r["boundary_gap"] for r in rows)
    return (
        ok,
        f"max boundary gap {worst:.3e} (tolerance 1e-9); ordering holds on "
        f"all grids",
        {"tolerance": 1e-9, "rows": rows})


SUITES = tuple(dict.fromkeys(suite for suite, _, _ in CHECKS.values()))


def run_checks(skip: tuple[str, ...] = ()) -> list[CheckResult]:
    """Run every registered check not in a skipped suite of SUITES, in order.

    A check that raises reports as failed with the exception recorded; the
    report itself always completes.
    """
    _moment_table.cache_clear()
    results = []
    for key, (suite, label, fn) in CHECKS.items():
        if suite in skip:
            continue
        start = time.perf_counter()
        try:
            passed, message, details = fn()
        except Exception as exc:
            passed, message, details = (
                False, f"check raised {type(exc).__name__}: {exc}",
                {"exception": repr(exc)})
        results.append(CheckResult(
            key=key, suite=suite, label=label, passed=bool(passed),
            message=message, details=details,
            elapsed_seconds=time.perf_counter() - start))
    return results

