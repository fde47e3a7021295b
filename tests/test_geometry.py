"""Droplet geometry: phase classification, the q-cubic, and the conformal pair."""

import cmath
import decimal
import math
import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

import oracles
from coulombgas import freeenergy, geometry
from coulombgas.errors import BranchCutError, DomainError
from coulombgas.geometry import Regime


def cubic_residual(a: float, c: float, q: float) -> float:
    # normalized by the dominant coefficient so small-a cases stay comparable
    scale = max(1.0, (a * a + 4 * c + 2) / (2 * a * a), 1 / (2 * a**4))
    return abs(q**6 - ((a * a + 4 * c + 2) / (2 * a * a)) * q**4
               + 1 / (2 * a**4)) / scale


class TestCriticalValues:
    def test_known_point(self):
        assert geometry.a_cri(9 / 16) == pytest.approx(0.5, abs=1e-15)

    def test_small_c_limit(self):
        assert geometry.a_cri(1e-12) == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("k", range(-4, 13))
    def test_within_two_ulp_at_large_c(self, k):
        # sqrt(c+1) - sqrt(c) cancels: 1.4e-8 relative error at c = 1e8
        c = 10.0 ** k
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            want = (Decimal(c) + 1).sqrt() - Decimal(c).sqrt()
        got = geometry.a_cri(c)
        assert abs(Fraction(got) - Fraction(want)) <= 2 * math.ulp(got)

    def test_c_cri_at_inverts(self):
        assert geometry.a_cri(9 / 16) == pytest.approx(0.5, abs=1e-15)
        assert oracles.c_cri_at(0.5) == pytest.approx(9 / 16, abs=1e-15)
        # and the two maps are inverse along the phase boundary
        for c in (0.25, 1.0, 4.0):
            a = geometry.a_cri(c)
            assert oracles.c_cri_at(a) == pytest.approx(c, rel=1e-12)


class TestClassify:
    @pytest.mark.parametrize("a,c,expected", [
        (0.25, 9 / 16, Regime.POST),
        (1.0, 9 / 16, Regime.PRE),
    ])
    def test_regimes(self, a, c, expected):
        assert geometry.classify(a, c) is expected

    @pytest.mark.parametrize("a, c", [
        (0.5, 0.5625), (0.25, 3.515625), (0.125, 15.50390625)])
    def test_refuses_the_exact_boundary(self, a, c):
        # K = (1 - a^2)^2 - 4c a^2 is exactly 0: there is no phase, and no
        # droplet either; the refusal names a, c and a_cri
        a_, c_ = Fraction(a), Fraction(c)
        assert (1 - a_ * a_) ** 2 - 4 * c_ * a_ * a_ == 0
        for route in (geometry.classify, geometry.droplet):
            with pytest.raises(DomainError, match="on the phase boundary") \
                    as info:
                route(a, c)
            for name in (f"a = {a!r}", f"c = {c!r}",
                         f"a_cri = {geometry.a_cri(c)!r}"):
                assert name in str(info.value)

    @pytest.mark.parametrize("c", [9 / 16, 1.0, 1e8])
    def test_phase_beside_the_boundary(self, c):
        # half of 1e-12 a_cri from the edge each pair has the phase of the
        # sign of a - a_cri at 80 digits, in classify and in droplet
        edge = geometry.a_cri(c)
        for a in (edge * (1.0 - 0.5e-12), edge * (1.0 + 0.5e-12)):
            want = Regime.PRE if oracles.is_pre_reference(a, c) else Regime.POST
            assert geometry.classify(a, c) is want, a
            assert geometry.droplet(a, c).regime is want, a

    def test_window_is_relative_at_large_c(self):
        # a_cri(1e24) = 5e-13, and K = 1 at a = 0: the radial case keeps its
        # phase however small a_cri is
        assert geometry.classify(0.0, 1e24) is Regime.POST
        assert geometry.droplet(0.0, 1e24).regime is Regime.POST

    @pytest.mark.parametrize("a,c", [(-0.1, 1.0), (0.5, 0.0), (0.5, -1.0),
                                     (math.nan, 1.0), (0.5, math.nan),
                                     (0.0, math.inf)])
    def test_domain_errors(self, a, c):
        with pytest.raises(DomainError):
            geometry.classify(a, c)

    def test_monotone_in_a(self):
        c = 1.0
        a_cri = geometry.a_cri(c)
        seq = [geometry.classify(a, c)
               for a in (0.1, 0.5 * a_cri, 2 * a_cri, 5.0)]
        assert seq == [Regime.POST, Regime.POST, Regime.PRE, Regime.PRE]


class TestSolveQ:
    def test_transition_root_is_one(self):
        # at a = a_cri the cubic degenerates so that q = 1 solves it
        for c in (0.25, 9 / 16, 1.0, 4.0):
            a = geometry.a_cri(c)
            assert cubic_residual(a, c, 1.0) < 1e-14
            q = geometry.solve_modulus(a * (1 + 1e-7), c)[0]
            assert q == pytest.approx(1.0, abs=1e-3)

    def test_far_field(self):
        q = geometry.solve_modulus(100.0, 1.0)[0]
        assert abs(100.0 * q - 1.0) < 2e-4

    @pytest.mark.parametrize("c", [0.25, 1.0, 4.0, 1e4, 1e8])
    def test_large_a_solves_or_refuses(self, c):
        # from a ~ 2e4 the middle root q^2 ~ 1/a^2 sits below the trig
        # form's rounding error; the gap 1 - a^2 q^2 ~ 2c/a^2 is solved in
        # its own cubic, so q, the gap and kappa keep solve_modulus's bound
        # up to a = 1e76; kappa also keeps the 2 eps/gap it had where the gap
        # was formed from terms near 1
        eps = sys.float_info.epsilon
        for e in range(2, 77, 2):
            a = float(10 ** e)
            q, gap, kappa, _ = oracles.pre_reference(a, c)
            g = geometry.droplet(a, c)
            assert abs(g.q / q - 1) <= 2 * eps, a
            assert abs(g.w / gap - 1) <= 4 * eps, a
            assert abs(g.kappa / kappa - 1) <= min(8, 2 / gap) * eps, a

    def test_far_field_gap_against_pre_reference(self):
        # at c = 1 the old solve refused from a = 1e5, where 1 - a^2 q^2 =
        # 2e-10 formed from terms near 1 kept half a double's digits; the
        # gap is now solved in its own cubic, past a = 1e150
        eps = sys.float_info.epsilon
        for a in (1e4, 1e5, 1e6, 1e8, 1e50, 1e150):
            q, gap, _, energy = oracles.pre_reference(a, 1.0)
            got = geometry.solve_modulus(a, 1.0)
            assert abs(got[0] / q - 1) <= 4 * eps, a
            assert abs(got[2] / gap - 1) <= 4 * eps, a
            assert abs(freeenergy.energy_pre(a, 1.0, got[0], got[2]) - energy) \
                <= 4 * eps * max(1, abs(energy)), a

    def test_tiny_c_root_keeps_a_nonnegative_gap(self):
        # at tiny c, 1 - a^2 q^2 ~ 2c/a^2 rounded to 0 or below when formed
        # from q (0.0 at a = 1e3, c = 1e-12), and the old solve refused
        # such points; solved in its own cubic the gap is positive, and it
        # and the energy keep their bounds against pre_reference
        eps = sys.float_info.epsilon
        for a in (1e2, 3e2, 1e3, 3e3, 1e4, 3e4, 1e5, 1e6):
            for e in range(8, 15):
                c = 10.0 ** -e
                q, w, _, energy = oracles.pre_reference(a, c)
                got = geometry.solve_modulus(a, c)
                assert got[2] > 0.0, (a, c)
                assert abs(got[2] / w - 1) <= 4 * eps, (a, c)
                assert abs(freeenergy.energy_pre(a, c, got[0], got[2])
                           - energy) <= 4 * eps * max(1, abs(energy)), (a, c)

    def test_large_c_root_near_a_cri(self):
        # the trig root's Newton polish stopped short of the root here
        # (q off by a factor of 7 at c = 1e6) or refused it (c = 1e12)
        for a, c in ((0.028117087349916116, 1e6), (0.35397325010031655, 1e8),
                     (0.0014092036051134953, 1e12)):
            q, _, _, _ = oracles.pre_reference(a, c)
            got = geometry.solve_modulus(a, c)[0]
            assert abs(got / q - 1) <= 2 * sys.float_info.epsilon

    def test_reference_point(self):
        a, c = 1.0, 9 / 16
        q = geometry.solve_modulus(a, c)[0]
        assert 0.0 < q < 1.0
        assert abs(q**6 - ((a * a + 4 * c + 2) / (2 * a * a)) * q**4
                   + 1 / (2 * a**4)) < 1e-14
        g = geometry.droplet(a, c)
        assert geometry.conformal_f(g, 1.0 / q) == pytest.approx(a, abs=1e-12)

    def test_largest_c_is_refused_or_post_critical(self):
        # at c = 1e308, 4c overflows and a_cri^2 ~ 2.5e-309 is below the
        # normal range: below a_cri there is no modulus, and above it the
        # solve refuses by name instead of reading overflowed coefficients
        c = 1e308
        edge = geometry.a_cri(c)
        assert geometry.solve_modulus(0.5 * edge, c) is None
        for a in (2.0 * edge, 1.0, 2.0):
            with pytest.raises(DomainError, match=re.escape(
                    f"the modulus cubic leaves the double range at a={a}, "
                    f"c={c}")):
                geometry.solve_modulus(a, c)

    @pytest.mark.parametrize("c", [0.25, 9 / 16, 1.0, 4.0])
    @pytest.mark.parametrize("eps", [1e-10, 1e-8, 1e-6, 1e-3])
    def test_no_root_just_below_transition(self, c, eps):
        # the phase is exact for the float pair: below a_cri no modulus
        a = geometry.a_cri(c) * (1.0 - eps)
        assert geometry.solve_modulus(a, c) is None

    @pytest.mark.parametrize("c", [0.25, 9 / 16, 1.0, 4.0])
    @pytest.mark.parametrize("eps", [10.0 ** -k for k in range(12, 2, -1)])
    def test_admissible_root_just_above_transition(self, c, eps):
        a = geometry.a_cri(c) * (1.0 + eps)
        q, v, w = geometry.solve_modulus(a, c)
        assert 0.0 < q <= 1.0
        assert a * a * q * q < 1.0
        assert 0.0 < v < 1.0 and 0.0 < w < 1.0
        assert cubic_residual(a, c, q) < 1e-13


class TestPreGeometry:
    def test_defining_formulas(self):
        g = geometry.droplet(1.0, 9 / 16)
        a, q = g.a, g.q
        assert g.R == pytest.approx((1 + a * a * q * q) / (2 * a * q), abs=1e-14)
        assert g.kappa == pytest.approx(
            (1 - q * q) * (1 - a * a * q * q) / (2 * a * q), abs=1e-14)
        assert (g.v, g.w) == pytest.approx((1 - q * q, 1 - a * a * q * q),
                                           abs=1e-15)
        assert g.kappa > 0

    def test_tiny_c_gap_keeps_its_digits(self):
        # at (1e3, 1e-12) 1 - a^2 q^2 formed from q rounds to 0.0, and the
        # record was refused; the record's gap is solved, so kappa keeps
        # its digits
        g = geometry.droplet(1e3, 1e-12)
        assert 1.0 - 1e6 * g.q ** 2 == 0.0
        _, w, kappa, _ = oracles.pre_reference(1e3, 1e-12)
        assert abs(g.w / w - 1) <= 4 * sys.float_info.epsilon
        assert abs(g.kappa / kappa - 1) <= 8 * sys.float_info.epsilon

    def test_branch_point_image(self):
        for a, c in ((1.0, 9 / 16), (1.2, 1.0), (3.0, 0.25)):
            # z+ = q + i sqrt(kappa/R), the critical point of f that
            # freeenergy.detzeta_log evaluates f' at
            g = geometry.droplet(a, c)
            z_plus = g.q + 1j * math.sqrt(g.kappa / g.R)
            assert abs(geometry.conformal_f(g, z_plus) - g.beta) < 1e-12
            assert g.beta_bar == complex(g.beta).real - 1j * complex(g.beta).imag

    def test_boundary_winding(self):
        # the curve encloses the origin; the insertion point stays outside,
        # consistent with a = f(1/q) being the image of an exterior point
        g = geometry.droplet(1.2, 1.0)
        n = 2048
        pts = [geometry.conformal_f(g, cmath.exp(2j * math.pi * k / n))
               for k in range(n)]

        def winding(center: complex) -> int:
            total = sum(cmath.phase((pts[(k + 1) % n] - center)
                                    / (pts[k] - center)) for k in range(n))
            return round(total / (2 * math.pi))

        assert winding(0j) == 1
        assert winding(g.a + 0j) == 0


class TestConformalPair:
    def test_round_trip_on_circle(self):
        g = geometry.droplet(1.2, 1.0)
        for k in range(8):
            w = 2.0 * cmath.exp(2j * math.pi * k / 8)
            z = geometry.conformal_f(g, w)
            assert abs(geometry.inverse_F(g, z) - w) < 1e-12
            assert abs(geometry.conformal_f(g, geometry.inverse_F(g, z)) - z) < 1e-12

    def test_far_field_expansion(self):
        g = geometry.droplet(1.2, 1.0)
        z = 1e4 + 0j
        model = z / g.R + g.kappa / (g.R * g.q) + g.kappa / z
        assert abs(geometry.inverse_F(g, z) - model) < 1e-6  # O(z^-2) leftover

    def test_insertion_point_preimage(self):
        for a, c in ((1.0, 9 / 16), (1.2, 1.0), (2.0, 1.0)):
            g = geometry.droplet(a, c)
            assert geometry.inverse_F(g, a + 0j) == pytest.approx(1 / g.q, abs=1e-12)

    def test_cut_rejection(self):
        g = geometry.droplet(1.2, 1.0)
        with pytest.raises(BranchCutError):
            geometry.inverse_F(g, complex((g.beta + g.beta_bar) / 2))

    @pytest.mark.parametrize("at", [
        lambda g: g.beta,
        lambda g: g.beta + 0.9e-12j * abs(g.beta),
        lambda g: g.beta + 1e-12j * abs(g.beta),
        lambda g: complex(g.beta.real + 0.9e-12 * abs(g.beta),
                          g.beta.imag / 2),
    ], ids=["tip", "past-the-tip", "band-edge", "beside-the-cut"])
    def test_cut_rejection_band(self, at):
        # the cut [beta_bar, beta] is refused within 1e-12 max(1, |z|,
        # |beta|) of it, edge included; |beta| = 1.24 at (3, 4), so these
        # points lie in that band, though 0.9e-12 |beta| > 1e-12 / |beta|
        g = geometry.droplet(3.0, 4.0)
        with pytest.raises(BranchCutError):
            geometry.inverse_F(g, complex(at(g)))


class TestDropletBoundary:
    def test_post_two_components(self):
        thetas, components = geometry.droplet_boundary(
            geometry.droplet(0.25, 9 / 16), 64)
        assert thetas == tuple(2 * math.pi * k / 64 for k in range(64))
        assert [label for label, _ in components] == ["outer", "inner"]
        assert all(len(points) == 64 for _, points in components)

    def test_pre_single_component(self):
        g = geometry.droplet(1.0, 9 / 16)
        thetas, components = geometry.droplet_boundary(g, 64)
        [(label, points)] = components
        assert label == "boundary"
        assert points == tuple(geometry.conformal_f(g, cmath.exp(1j * t))
                               for t in thetas)

    @pytest.mark.parametrize("a, c", [
        (1.0, 1e-40), (0.999999900000005, 1e-14),
        (0.0004999998750000625, 1e6), (5e-51, 1e100)])
    def test_no_pole_where_q_rounds_to_one(self, a, c):
        # the first pre-critical float above a_cri at three c, and a = 1 at
        # tiny c: q rounds to 1, yet f(w) = R w - kappa/(w - q) - kappa/q
        # is finite on the unit circle; each point is within 2 eps of the
        # boundary's size of f at 60 digits, from modulus_reference's gaps
        g = geometry.droplet(a, c)
        assert g.q == 1.0
        thetas, [(_, points)] = geometry.droplet_boundary(g, 64)
        q, v, w = oracles.modulus_reference(a, c)
        with mp.workdps(60):
            R, kappa = (2 - w) / (2 * a * q), v * w / (2 * a * q)
            want = [R * e - kappa / (e - q) - kappa / q
                    for e in (mp.mpc(cmath.exp(1j * t)) for t in thetas)]
            size = max(map(abs, want))
            assert max(abs(z - f) for z, f in zip(points, want)) \
                < 2 * sys.float_info.epsilon * size

    def test_post_strict_separation(self):
        _, (outer, inner) = geometry.droplet_boundary(
            geometry.droplet(0.25, 9 / 16), 128)
        gap = min(abs(p - q) for p in outer[1] for q in inner[1])
        assert gap > 0

    def test_preconditions(self):
        with pytest.raises(DomainError):
            geometry.droplet_boundary(geometry.droplet(0.25, 9 / 16), 4)
        # at a_cri there is no geometry to sample
        with pytest.raises(DomainError):
            geometry.droplet(0.5, 9 / 16)


@st.composite
def pre_critical_params(draw):
    c = draw(st.floats(0.1, 4.0))
    factor = draw(st.floats(1.02, 4.0))
    return geometry.a_cri(c) * factor, c


@settings(derandomize=True, max_examples=40, deadline=None)
@given(pre_critical_params())
def test_pre_invariants_property(params):
    a, c = params
    g = geometry.droplet(a, c)
    assert 0.0 < g.q < 1.0
    assert g.kappa > 0.0
    assert cubic_residual(a, c, g.q) < 1e-14
    assert abs(geometry.conformal_f(g, 1.0 / g.q) - a) < 1e-12
    w = 1.7 + 0.9j
    assert abs(geometry.inverse_F(g, geometry.conformal_f(g, w)) - w) < 1e-12


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.floats(0.01, 0.99), st.floats(0.05, 4.0))
def test_post_existence_property(a, c):
    # the annular phase exists exactly when the inner disk fits, a in (0,1)
    fits = (1 - a * a) ** 2 - 4 * a * a * c > 0
    if abs(a - geometry.a_cri(c)) <= 1e-9:
        return  # the critical window, refused, and its rounding
    regime = geometry.classify(a, c)
    if fits:
        assert regime is Regime.POST
        post = geometry.droplet(a, c)
        assert post.inner_center + post.inner_radius < post.outer_radius
    else:
        assert regime is Regime.PRE


@pytest.mark.parametrize("call, message", [
    (lambda geom: geometry.a_cri(0), "c must be positive, got 0"),
    (lambda geom: geometry.solve_modulus(0, 1),
     "solve_modulus needs a > 0 and c > 0, got a=0, c=1"),
    # a > 1 is pre-critical at any c, so the phase would not refuse c = 0
    (lambda geom: geometry.solve_modulus(2.0, 0.0),
     "solve_modulus needs a > 0 and c > 0, got a=2.0, c=0.0"),
    (lambda geom: geometry.conformal_f(geom, geom.q),
     "conformal map has a pole at w = q for a=1.2, c=1.0"),
], ids=["a-cri-zero-c", "solve-modulus-zero-a", "solve-modulus-zero-c",
        "conformal-f-pole"])
def test_refuses_arguments_out_of_domain(call, message, pre_geom):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(pre_geom)
