"""Droplet geometry: phase classification, the q-cubic, and the conformal pair."""

import cmath
import decimal
import math
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from coulombgas import freeenergy, geometry
from coulombgas.errors import BranchCutError, DomainError, NoValidRoot
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

    @pytest.mark.parametrize("c", [9 / 16, 1.0, 1e8])
    def test_refuses_the_critical_window(self, c):
        # within TAU of a_cri there is no phase, and no droplet either; the
        # refusal names a, c and a_cri
        edge = geometry.a_cri(c)
        for a in (edge - 0.5 * geometry.TAU, edge, edge + 0.5 * geometry.TAU):
            for route in (geometry.classify, geometry.droplet):
                with pytest.raises(DomainError, match="a_cri") as info:
                    route(a, c)
                assert f"a = {a!r}" in str(info.value)
                assert f"c = {c!r}" in str(info.value)
        assert geometry.classify(edge - 2.0 * geometry.TAU, c) is Regime.POST
        assert geometry.classify(edge + 2.0 * geometry.TAU, c) is Regime.PRE

    @pytest.mark.parametrize("a,c", [(-0.1, 1.0), (0.5, 0.0), (0.5, -1.0)])
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
            assert geometry.solve_q(a * (1 + 1e-7), c) == pytest.approx(1.0, abs=1e-3)

    def test_far_field(self):
        q = geometry.solve_q(100.0, 1.0)
        assert abs(100.0 * q - 1.0) < 2e-4

    @pytest.mark.parametrize("c", [0.25, 1.0, 4.0, 1e4, 1e8])
    def test_large_a_solves_or_refuses(self, c):
        # from a ~ 2e4 the middle root q^2 ~ 1/a^2 sits below the trig form's
        # rounding error, up to where a^4 overflows; kappa carries
        # 1 - a^2 q^2 ~ 2c/a^2, formed from terms near 1, so past GAP_FLOOR
        # the solve refuses instead of handing on a kappa without digits
        eps = sys.float_info.epsilon
        for e in range(2, 77, 2):
            a = float(10 ** e)
            q, gap, kappa, _ = oracles.pre_reference(a, c)
            try:
                g = geometry.pre_geometry(a, c)
            except DomainError as exc:  # NoValidRoot is not one
                assert gap < geometry.GAP_FLOOR, a
                assert f"a={a}, c={c}" in str(exc)
                continue
            assert abs(g.q / q - 1) <= 2 * eps, a
            assert abs(g.kappa / kappa - 1) <= 2 * eps / gap, a

    def test_large_a_refusal_starts_near_the_floor(self):
        # at c = 1 the solve holds to a = 1e4 (gap 2e-8) and refuses from
        # 1e5 (2e-10); the gap at 1e6 (2e-12) left kappa 4 digits
        assert geometry.solve_q(1e4, 1.0) > 0.0
        for a in (1e5, 1e6, 1e8):
            with pytest.raises(DomainError, match="keeps fewer than half"):
                geometry.solve_q(a, 1.0)

    def test_tiny_c_root_keeps_a_nonnegative_gap(self):
        # at tiny c the trig root can round onto a^2 q^2 > 1 (at a = 1e4,
        # c = 1e-12 the energy was off by 1.9e-9); such a root goes on to the
        # fixed point, whose GAP_FLOOR refuses it.  A root that is returned
        # keeps 1 - a^2 q^2 >= 0 (0.0 at a = 1e3, c = 1e-12) and an energy
        # within test_large_a_against_pre_reference's bound
        eps = sys.float_info.epsilon
        solved = refused = 0
        for a in (1e2, 3e2, 1e3, 3e3, 1e4, 3e4, 1e5, 1e6):
            for e in range(8, 15):
                c = 10.0 ** -e
                try:
                    q = geometry.solve_q(a, c)
                except DomainError:
                    refused += 1
                    continue
                solved += 1
                assert 1.0 - a * a * q * q >= 0.0, (a, c)
                energy = oracles.pre_reference(a, c)[3]
                assert abs(freeenergy.energy_pre(a, c) - energy) \
                    <= 2 * eps * (a * a + (c + 1) ** 2), (a, c)
        assert solved and refused
        for c in (1e-14, 1e-12, 1e-9):
            with pytest.raises(DomainError, match="keeps fewer than half"):
                geometry.solve_q(1e4, c)

    def test_large_c_root_near_a_cri(self):
        # the trig root's Newton polish stopped short of the root here
        # (q off by a factor of 7 at c = 1e6) or refused it (c = 1e12)
        for a, c in ((0.028117087349916116, 1e6), (0.35397325010031655, 1e8),
                     (0.0014092036051134953, 1e12)):
            q, _, _, _ = oracles.pre_reference(a, c)
            assert abs(geometry.solve_q(a, c) / q - 1) <= 2 * sys.float_info.epsilon

    def test_reference_point(self):
        a, c = 1.0, 9 / 16
        q = geometry.solve_q(a, c)
        assert 0.0 < q < 1.0
        assert abs(q**6 - ((a * a + 4 * c + 2) / (2 * a * a)) * q**4
                   + 1 / (2 * a**4)) < 1e-14
        g = geometry.pre_geometry(a, c)
        assert geometry.conformal_f(g, 1.0 / q) == pytest.approx(a, abs=1e-12)

    @pytest.mark.parametrize("c", [0.25, 9 / 16, 1.0, 4.0])
    @pytest.mark.parametrize("eps", [1e-10, 1e-8, 1e-6, 1e-3])
    def test_no_root_just_below_transition(self, c, eps):
        a = geometry.a_cri(c) * (1.0 - eps)
        with pytest.raises(NoValidRoot):
            geometry.solve_q(a, c)

    @pytest.mark.parametrize("c", [0.25, 9 / 16, 1.0, 4.0])
    @pytest.mark.parametrize("eps", [10.0 ** -k for k in range(12, 2, -1)])
    def test_admissible_root_just_above_transition(self, c, eps):
        a = geometry.a_cri(c) * (1.0 + eps)
        q = geometry.solve_q(a, c)
        assert 0.0 < q <= 1.0
        assert a * a * q * q < 1.0
        assert cubic_residual(a, c, q) < 1e-13


class TestPreGeometry:
    def test_defining_formulas(self):
        g = geometry.pre_geometry(1.0, 9 / 16)
        a, q = g.a, g.q
        assert g.R == pytest.approx((1 + a * a * q * q) / (2 * a * q), abs=1e-14)
        assert g.kappa == pytest.approx(
            (1 - q * q) * (1 - a * a * q * q) / (2 * a * q), abs=1e-14)
        assert g.kappa > 0
        assert g.z_plus == pytest.approx(q + 1j * math.sqrt(g.kappa / g.R), abs=1e-14)

    def test_branch_point_image(self):
        for a, c in ((1.0, 9 / 16), (1.2, 1.0), (3.0, 0.25)):
            g = geometry.pre_geometry(a, c)
            assert abs(geometry.conformal_f(g, g.z_plus) - g.beta) < 1e-12
            assert g.beta_bar == complex(g.beta).real - 1j * complex(g.beta).imag

    def test_boundary_winding(self):
        # the curve encloses the origin; the insertion point stays outside,
        # consistent with a = f(1/q) being the image of an exterior point
        g = geometry.pre_geometry(1.2, 1.0)
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
        g = geometry.pre_geometry(1.2, 1.0)
        for k in range(8):
            w = 2.0 * cmath.exp(2j * math.pi * k / 8)
            z = geometry.conformal_f(g, w)
            assert abs(geometry.inverse_F(g, z) - w) < 1e-12
            assert abs(geometry.conformal_f(g, geometry.inverse_F(g, z)) - z) < 1e-12

    def test_far_field_expansion(self):
        g = geometry.pre_geometry(1.2, 1.0)
        z = 1e4 + 0j
        model = z / g.R + g.kappa / (g.R * g.q) + g.kappa / z
        assert abs(geometry.inverse_F(g, z) - model) < 1e-6  # O(z^-2) leftover

    def test_insertion_point_preimage(self):
        for a, c in ((1.0, 9 / 16), (1.2, 1.0), (2.0, 1.0)):
            g = geometry.pre_geometry(a, c)
            assert geometry.inverse_F(g, a + 0j) == pytest.approx(1 / g.q, abs=1e-12)

    def test_cut_rejection(self):
        g = geometry.pre_geometry(1.2, 1.0)
        with pytest.raises(BranchCutError):
            geometry.inverse_F(g, complex((g.beta + g.beta_bar) / 2))


class TestDropletBoundary:
    def test_post_two_components(self):
        thetas, components = geometry.droplet_boundary(
            geometry.post_geometry(0.25, 9 / 16), 64)
        assert thetas == tuple(2 * math.pi * k / 64 for k in range(64))
        assert [label for label, _ in components] == ["outer", "inner"]
        assert all(len(points) == 64 for _, points in components)

    def test_pre_single_component(self):
        g = geometry.pre_geometry(1.0, 9 / 16)
        thetas, components = geometry.droplet_boundary(g, 64)
        [(label, points)] = components
        assert label == "boundary"
        assert points == tuple(geometry.conformal_f(g, cmath.exp(1j * t))
                               for t in thetas)

    def test_post_strict_separation(self):
        _, (outer, inner) = geometry.droplet_boundary(
            geometry.post_geometry(0.25, 9 / 16), 128)
        gap = min(abs(p - q) for p in outer[1] for q in inner[1])
        assert gap > 0

    def test_preconditions(self):
        with pytest.raises(DomainError):
            geometry.droplet_boundary(geometry.post_geometry(0.25, 9 / 16), 4)
        # at a_cri there is no geometry to sample
        with pytest.raises(DomainError):
            geometry.post_geometry(0.5, 9 / 16)

    @pytest.mark.parametrize("a", [3.0, 10.0])
    def test_post_geometry_refuses_pre_critical(self, a):
        # beyond a = 1 the discriminant (1-a^2)^2 - 4a^2c is positive again,
        # but classify puts (a, 1) in the simply connected phase
        with pytest.raises(DomainError, match="a_cri"):
            geometry.post_geometry(a, 1.0)


@st.composite
def pre_critical_params(draw):
    c = draw(st.floats(0.1, 4.0))
    factor = draw(st.floats(1.02, 4.0))
    return geometry.a_cri(c) * factor, c


@settings(derandomize=True, max_examples=40, deadline=None)
@given(pre_critical_params())
def test_pre_invariants_property(params):
    a, c = params
    g = geometry.pre_geometry(a, c)
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
        post = geometry.post_geometry(a, c)
        assert post.inner_center + post.inner_radius < post.outer_radius
    else:
        assert regime is Regime.PRE
