"""One scan of the float closed forms that read the modulus, each within
the relative bound its docstring states, against oracles that share no
float code with it.

The grids are fixed and log-spaced:
- pre-critical (a, c): a = a_cri(c) (1 + d), d = 10^k for k = -15..4,
  and c = 10^j for j = -14, -12, .., 12;
- post-critical (a, c), to the same distances below a_cri: a = a_cri(c)
  (1 - d) for k = -15..-1, and a = a_cri(c) 10^-k for k = 1..4;
- alpha = 10^(k/2) for k = -30..16, for lambda_-;
- (alpha, t) with alpha = 10^k for k = -15..8 and t = lambda_- (1 + d),
  d = 1e-10, 1e-8, .., 1e-2, 1 and 10, for Phi, Psi and S(t) - S(lambda_-).

The oracles are tests/oracles.py's: pre_reference (q, 1 - a^2 q^2 and
the energy, at 40+ digits), modulus_reference (the gaps from the cubic's
middle root at 80 digits, and kappa from them), and the same formulas in
mpmath at 60-90 digits for F, the annular energy, lambda_-, the phase,
Phi, Psi and the constrained action.  A bound is relative, against
max(1, |value|) for the energies, the constants and the determinant,
which are O(1) terms of log Z_N where they are small.  Phi and
S(t) - S(lambda_-) are held to ten digits (ROADMAP item 3), relative to
themselves, since log P ~ -Phi N^2.  A cell that misses its bound is
marked xfail(strict=True) with its FOUND line in CHANGES.md, so that a
fix fails until the marker goes.
"""

import functools
import math
import sys

import pytest
from mpmath import mp

import oracles
from coulombgas import freeenergy, geometry, ldp
from coulombgas.geometry import Regime

EPS = sys.float_info.epsilon
CS = [10.0 ** j for j in range(-14, 13, 2)]
C_IDS = [f"c=1e{j}" for j in range(-14, 13, 2)]
PRE_DISTANCES = [10.0 ** k for k in range(-15, 5)]
POST_SCALES = ([1.0 - 10.0 ** k for k in range(-15, 0)]
               + [10.0 ** -k for k in range(1, 5)])
ALPHAS = [10.0 ** (k / 2) for k in range(-30, 17)]


def rel(got, want, scale=None) -> float:
    """|got - want| in units of EPS, relative to |want| or to scale."""
    scale = abs(want) if scale is None else scale
    return float(abs(mp.mpf(got) - want) / scale) / EPS


@functools.lru_cache(maxsize=None)
def pre_cells(c: float) -> list:
    """(a, droplet record, pre_reference, modulus_reference, F) per
    distance."""
    cells = []
    for d in PRE_DISTANCES:
        a = geometry.a_cri(c) * (1.0 + d)
        modulus = oracles.modulus_reference(a, c)
        cells.append((a, geometry.droplet(a, c), oracles.pre_reference(a, c),
                      modulus, oracles.fconst_pre_reference(*modulus[1:])))
    return cells


def worst(errors) -> float:
    return max(errors, default=0.0)


@pytest.mark.parametrize("c", CS, ids=C_IDS)
class TestPreCritical:
    def test_q_v_w(self, c):
        # solve_modulus: q, v and w each within 4 eps
        for a, g, (q, w, _, _), (_, v, _), _ in pre_cells(c):
            got_q, got_v, got_w = geometry.solve_modulus(a, c)
            assert (got_q, got_v, got_w) == (g.q, g.v, g.w)
            assert rel(got_q, q) <= 4, a
            assert rel(got_v, v) <= 4, a
            assert rel(got_w, w) <= 4, a

    def test_kappa(self, c):
        # droplet: kappa = v w/(2 a q) within 8 eps, against the same form
        # in modulus_reference's gaps: pre_reference's kappa forms 1 - q^2
        # from its 40 digits, which runs out within 1e-14 of a_cri at
        # c = 1e12
        with mp.workdps(60):
            assert worst(rel(g.kappa, v * w / (2 * a * q))
                         for a, g, _, (q, v, w), _ in pre_cells(c)) <= 8

    def test_energy_pre(self, c):
        errors = [rel(freeenergy.energy_pre(a, c, g.q, g.w), ref[3],
                      max(1, abs(ref[3])))
                  for a, g, ref, _, _ in pre_cells(c)]
        assert worst(errors) <= 24

    def test_fconst_pre(self, c):
        errors = [rel(freeenergy.fconst_pre(a, g.q, g.v, g.w), want,
                      max(1, abs(want)))
                  for a, g, _, _, want in pre_cells(c)]
        assert worst(errors) <= 2

    def test_detzeta_log(self, c):
        errors = [rel(freeenergy.detzeta_log(g), -2 * fconst,
                      max(1, abs(2 * fconst)))
                  for _, g, _, _, fconst in pre_cells(c)]
        assert worst(errors) <= 2


@pytest.mark.parametrize("c", CS + [1e300, 1e308],
                         ids=C_IDS + ["c=1e300", "c=1e308"])
def test_phase_is_exact(c):
    # classify agrees with the sign of a - a_cri(c) at 80 digits on
    # both sides of the edge, past 1/a_cri included, up to c = 1e308,
    # where 4c and a^2 (2c + 1) overflow
    edge = geometry.a_cri(c)
    points = ([edge * (1.0 + d) for d in PRE_DISTANCES]
              + [edge * scale for scale in POST_SCALES])
    for a in points:
        want = Regime.PRE if oracles.is_pre_reference(a, c) else Regime.POST
        assert geometry.classify(a, c) is want, a


@pytest.mark.parametrize("c", CS + [1e16, 1e150, 1e300],
                         ids=C_IDS + ["c=1e16", "c=1e150", "c=1e300"])
def test_energy_post(c):
    # energy_post within 16 eps of max(1, |E|), at a = 0 and on the
    # post-critical side of the edge
    edge = geometry.a_cri(c)
    for a in [0.0] + [edge * scale for scale in POST_SCALES]:
        want = oracles.energy_post_reference(a, c)
        assert rel(freeenergy.energy_post(a, c), want,
                   max(1, abs(want))) <= 16, a


def test_lambda_minus():
    # lambda_- = alpha a_cri(1/alpha)^2 within 4 eps
    for alpha in ALPHAS:
        assert rel(ldp.lambda_minus(alpha),
                   oracles.lambda_minus_reference(alpha)) <= 4, alpha


LDP_KS = range(-15, 9)
LDP_DISTANCES = [1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0, 10.0]
# the (k, d) cells within ten digits today; the rest are the FOUND lines'
PHI_HOLDS = {(-5, 10.0), (-4, 10.0), (6, 10.0),
             *((k, d) for k in range(-3, 6) for d in (1.0, 10.0))}
ACTION_HOLDS = {(-2, 10.0), (0, 1e-2), (5, 10.0), (6, 10.0),
                *((k, d) for k in range(-1, 5) for d in (1.0, 10.0))}
PHI_FOUND = ("CHANGES.md FOUND line 218: Phi misses ten digits near lambda_- "
             "and at small or large alpha")
ACTION_FOUND = ("CHANGES.md FOUND lines 47 and 219: S(t) - S(lambda_-) "
                "cancels at large and at small alpha")


def ldp_cells(holds, found):
    return [pytest.param(10.0 ** k, d, id=f"alpha=1e{k}-d={d:g}",
                         marks=() if (k, d) in holds
                         else pytest.mark.xfail(strict=True, reason=found))
            for k in LDP_KS for d in LDP_DISTANCES]


def within_ten_digits(got, want) -> None:
    # fails without a traceback: most cells fail on purpose (xfail), and
    # pytest formats the traceback of each failure, xfail or not
    error = float(abs(mp.mpf(got) - want) / abs(want))
    if not error <= 1e-10:
        pytest.fail(f"relative error {error:.3g} > 1e-10", pytrace=False)


def pushed_t(alpha: float, d: float) -> float:
    return ldp.lambda_minus(alpha) * (1.0 + d)


@pytest.mark.parametrize("alpha, d", ldp_cells(PHI_HOLDS, PHI_FOUND))
def test_phi(alpha, d):
    # phi_psi_grid's Phi to ten digits
    t = pushed_t(alpha, d)
    (phi,), _ = ldp.phi_psi_grid((t,), alpha)
    within_ten_digits(phi, oracles.phi_psi_reference(t, alpha)[0])


@pytest.mark.parametrize("alpha", [10.0 ** k for k in LDP_KS],
                         ids=[f"alpha=1e{k}" for k in LDP_KS])
def test_psi(alpha):
    # phi_psi_grid's Psi within 2 eps of max(1, |Psi|) at every distance
    ts = [pushed_t(alpha, d) for d in LDP_DISTANCES]
    for t, psi in zip(ts, ldp.phi_psi_grid(ts, alpha)[1]):
        want = oracles.phi_psi_reference(t, alpha)[1]
        assert rel(psi, want, max(1, abs(want))) <= 2, t


@pytest.mark.parametrize("alpha, d", ldp_cells(ACTION_HOLDS, ACTION_FOUND))
def test_action_difference(alpha, d):
    # kc_rate_grid's S(t) - S(lambda_-), which Phi equals, to ten digits
    t = pushed_t(alpha, d)
    [diff] = ldp.kc_rate_grid((t,), alpha)
    within_ten_digits(diff, oracles.kc_rate_reference(t, alpha))
