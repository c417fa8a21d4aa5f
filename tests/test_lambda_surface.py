import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from renewal_ldp import (
    BUILTIN_MODELS,
    INF,
    adaptive_gauss_legendre,
    builtin_models,
    hessian_origin,
    in_lambda_domain,
    lambda_eval,
    lambda_grad,
    make_model,
    poisson_lambda_closed_form,
    regularity_report,
)
from renewal_ldp.lambda_surface import _second_order
from renewal_ldp.quadrature import QuadratureError, gauss_legendre_panel

EXP1 = make_model("exponential", {"lam": 1.0})

# interior tilts shared by several oracles: (model index, a1, a2)
INTERIOR_TILTS = [(-0.5, 0.3), (0.2, 0.4), (-1.0, -0.7), (0.3, -1.2), (-2.0, 1.5)]


def interior_with_margin(m, a1, a2, margin):
    """The segment [a1, a1 + a2] ends at least ``margin`` below the domain boundary."""
    return max(a1, a1 + a2) < m.domain.boundary - margin


def quad_oracle(model, a1, a2):
    """Independent evaluation: integral of phi(a1 + a2*y) over y in (0,1)."""
    return adaptive_gauss_legendre(lambda y: model.cgf(a1 + a2 * y), 0.0, 1.0, tol=1e-12)


# phi of the built-in instances, written for mpmath
MP_PHI = {
    "exponential": lambda a: -mpmath.log(1 - a),
    "inverse_gaussian": lambda a: 1 - mpmath.sqrt(1 - 2 * a),
    "noncentral_chi_squared": lambda a: a / (1 - 2 * a) - mpmath.log(1 - 2 * a) / 2,
    "gamma": lambda a: -2 * mpmath.log(1 - a / 2),
}


def mp_gradient(model, a1, a2):
    """(d1L, d2L) at 50 digits: (phi(a1 + a2) - phi(a1))/a2 and (phi(a1 + a2) - L)/a2, L by quadrature."""
    phi = MP_PHI[model.kind]
    with mpmath.workdps(50):
        a1, a2 = mpmath.mpf(a1), mpmath.mpf(a2)
        end = phi(a1 + a2)
        limit = mpmath.quad(lambda y: phi(a1 + a2 * y), [0, 1])
        return float((end - phi(a1)) / a2), float((end - limit) / a2)


class TestQuadrature:
    def test_polynomial_exact(self):
        # 12-node Gauss-Legendre integrates degree-23 polynomials exactly
        val = gauss_legendre_panel(lambda t: t**23 + 3 * t**2, 0.0, 2.0)
        assert val == pytest.approx(2.0**24 / 24 + 8.0, rel=1e-14)

    def test_adaptive_matches_closed_form(self):
        val = adaptive_gauss_legendre(math.exp, 0.0, 3.0, tol=1e-12)
        assert val == pytest.approx(math.exp(3.0) - 1.0, abs=1e-10)

    def test_log_singularity(self):
        # integrable endpoint singularity: int_0^1 log(t) dt = -1
        val = adaptive_gauss_legendre(math.log, 0.0, 1.0, tol=1e-10)
        assert val == pytest.approx(-1.0, abs=1e-8)

    def test_reversed_limits_negate(self):
        a = adaptive_gauss_legendre(math.exp, 0.0, 1.0)
        b = adaptive_gauss_legendre(math.exp, 1.0, 0.0)
        assert a == pytest.approx(-b, abs=1e-12)

    def test_divergent_raises(self):
        with pytest.raises(QuadratureError):
            adaptive_gauss_legendre(lambda t: 1.0 / t, 0.0, 1.0, tol=1e-10)

    def test_exhausted_budget_raises(self):
        # the log singularity needs ~100 panels at this tolerance
        with pytest.raises(QuadratureError):
            adaptive_gauss_legendre(math.log, 0.0, 1.0, tol=1e-10, max_subdivisions=16)


class TestLambdaEval:
    @pytest.mark.parametrize("a1,a2", INTERIOR_TILTS)
    def test_against_direct_quadrature(self, a1, a2):
        for m in builtin_models():
            if not interior_with_margin(m, a1, a2, 1e-9):
                continue
            assert lambda_eval(m, a1, a2) == pytest.approx(quad_oracle(m, a1, a2), abs=1e-9)

    @given(kind=st.sampled_from(sorted(BUILTIN_MODELS)),
           u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_against_direct_quadrature_at_drawn_tilts(self, kind, u, v):
        # the segment [a1, a1+a2] has both ends in [-4, abar - 0.05]: an interior tilt.
        # Closer to the boundary, phi(a1 + a2*y) carries roundoff of relative size
        # eps*|a|/(abar - a) that the oracle's tolerance cannot resolve
        m = make_model(kind, BUILTIN_MODELS[kind])
        lo, hi = -4.0, m.domain.boundary - 0.05
        a1 = lo + u * (hi - lo)
        a2 = lo + v * (hi - lo) - a1
        assume(a2 != 0.0)
        value = lambda_eval(m, a1, a2)
        assert value == pytest.approx(quad_oracle(m, a1, a2), abs=1e-9)
        assert value == pytest.approx(lambda_eval(m, a1 + a2, -a2), rel=1e-13)

    @pytest.mark.parametrize("a1,a2", [(0.49999999999999994, -0.5008929958017458),
                                       (-1.1861311219284174e-06, 0.5000011861311219),
                                       (-0.052486917872394505, 0.5524869178723945)])
    def test_finite_next_to_nonintegrable_boundary(self, a1, a2):
        # the segment ends within an ulp of 1/2, where 1/(1-2a) cannot be integrated;
        # the mean of phi over it is large but finite
        ncx = make_model("noncentral_chi_squared", {"lam": 1.0, "k": 1.0})
        assert in_lambda_domain(ncx, a1, a2)
        value = lambda_eval(ncx, a1, a2)
        assert math.isfinite(value) and value > 0.0
        assert value == pytest.approx(lambda_eval(ncx, a1 + a2, -a2), rel=1e-13)

    def test_a2_zero_reduces_to_phi(self):
        for m in builtin_models():
            assert lambda_eval(m, -0.3, 0.0) == m.phi(-0.3)

    def test_small_a2_branches_match_quadrature(self):
        # segments of 1e-6, on the short series of the table's closed form, agree with direct quadrature
        for m in builtin_models():
            for a2 in (9e-7, 1.1e-6):
                assert lambda_eval(m, 0.1, a2) == pytest.approx(
                    quad_oracle(m, 0.1, a2), abs=1e-12
                )

    def test_symmetry_identity(self):
        # reversing the integration direction: L(a1, a2) = L(a1+a2, -a2)
        for m in builtin_models():
            for a1, a2 in INTERIOR_TILTS:
                if not interior_with_margin(m, a1, a2, 1e-9):
                    continue
                assert lambda_eval(m, a1, a2) == pytest.approx(
                    lambda_eval(m, a1 + a2, -a2), abs=1e-11
                )

    def test_infinite_outside_domain(self):
        assert lambda_eval(EXP1, 0.5, 0.6) == INF      # a1+a2 > lam
        assert lambda_eval(EXP1, 1.0, 0.5) == INF
        assert lambda_eval(EXP1, 2.0, -0.5) == INF     # a1 > lam with a2 < 0

    def test_origin_value_zero(self):
        for m in builtin_models():
            assert lambda_eval(m, 0.0, 0.0) == 0.0

    @given(a1=st.floats(-3.0, 0.4), a2=st.floats(-3.0, 0.4))
    @settings(max_examples=60, deadline=None)
    def test_convexity_midpoint(self, a1, a2):
        m = EXP1
        b1, b2 = -0.5, 0.2
        if not (interior_with_margin(m, a1, a2, 1e-6)
                and interior_with_margin(m, b1, b2, 1e-6)):
            return
        mid = lambda_eval(m, 0.5 * (a1 + b1), 0.5 * (a2 + b2))
        assert mid <= 0.5 * (lambda_eval(m, a1, a2) + lambda_eval(m, b1, b2)) + 1e-10


class TestDomains:
    def test_lambda_domain_cases(self):
        ig = make_model("inverse_gaussian", {"mu": 1.0})      # closed boundary
        ncx = make_model("noncentral_chi_squared", {"lam": 1.0, "k": 1.0})
        # closed boundary: top may touch abar
        assert in_lambda_domain(ig, 0.25, 0.25)
        # open integrable: at a2<0, a1 at the boundary still integrates, beyond it not
        assert in_lambda_domain(EXP1, 1.0, -0.5)
        assert not in_lambda_domain(EXP1, 1.1, -0.5)
        # open non-integrable: boundary start diverges
        assert not in_lambda_domain(ncx, 0.5, -0.25)
        assert not in_lambda_domain(ncx, 0.25, 0.25)

    def test_reflection_at_the_boundary_edge(self):
        # (a1, a2) and (a1 + a2, -a2) share a segment, but on an open boundary
        # the limit is infinite when the first holding time's tilt a1 + a2
        # sits on it and finite when only a1 does
        ig = make_model("inverse_gaussian", {"mu": 1.0})
        ncx = make_model("noncentral_chi_squared", {"lam": 1.0, "k": 1.0})
        assert lambda_eval(EXP1, 0.0, 1.0) == INF
        assert lambda_eval(EXP1, 1.0, -1.0) == 1.0
        assert in_lambda_domain(ig, 0.0, 0.5) and in_lambda_domain(ig, 0.5, -0.5)
        assert not in_lambda_domain(ncx, 0.0, 0.5) and not in_lambda_domain(ncx, 0.5, -0.5)

    def test_lambda_finite_exactly_on_domain(self):
        for m in builtin_models():
            for a1, a2 in [(0.2, 0.3), (1.0, -0.5), (0.5, 0.0), (-1.0, 0.2)]:
                finite = math.isfinite(lambda_eval(m, a1, a2))
                assert finite == in_lambda_domain(m, a1, a2)


class TestGradient:
    @pytest.mark.parametrize("a1,a2", INTERIOR_TILTS)
    def test_against_finite_differences(self, a1, a2):
        h = 1e-6
        for m in builtin_models():
            if not interior_with_margin(m, a1, a2, 1e-3):
                continue
            g1, g2 = lambda_grad(m, a1, a2)
            fd1 = (lambda_eval(m, a1 + h, a2) - lambda_eval(m, a1 - h, a2)) / (2 * h)
            fd2 = (lambda_eval(m, a1, a2 + h) - lambda_eval(m, a1, a2 - h)) / (2 * h)
            assert g1 == pytest.approx(fd1, rel=1e-6, abs=1e-8)
            assert g2 == pytest.approx(fd2, rel=1e-6, abs=1e-8)

    def test_gradient_at_origin(self):
        for m in builtin_models():
            g1, g2 = lambda_grad(m, 0.0, 0.0)
            assert g1 == pytest.approx(m.mean, abs=1e-12)
            assert g2 == pytest.approx(0.5 * m.mean, abs=1e-12)

    def test_gradient_outside_interior_raises(self):
        with pytest.raises(ValueError):
            lambda_grad(EXP1, 0.9, 0.2)

    @pytest.mark.parametrize("a2", [-0.3, -3e-5])
    def test_one_sided_gradient_on_closed_face(self, a2):
        # inverse Gaussian mu = 1 at a1 = 1/2: phi'(1/2 + a2 y) = (2|a2| y)^(-1/2),
        # so the two partials are sqrt(2/|a2|) and (2/3)/sqrt(2|a2|)
        ig = make_model("inverse_gaussian", {"mu": 1.0})
        g1, g2 = lambda_grad(ig, 0.5, a2)
        assert g1 == pytest.approx(math.sqrt(2.0 / -a2), rel=1e-9)
        assert g2 == pytest.approx(2.0 / 3.0 / math.sqrt(-2.0 * a2), rel=1e-9)
        assert lambda_grad(ig, 0.5 + a2, -a2) == pytest.approx((g1, g1 - g2), rel=1e-9)

    def test_gradient_on_boundary_without_face_raises(self):
        ig = make_model("inverse_gaussian", {"mu": 1.0})
        for model, a1, a2 in [(ig, 0.5, 0.0), (EXP1, 1.0, -0.3), (EXP1, 0.7, 0.3)]:
            with pytest.raises(ValueError):
                lambda_grad(model, a1, a2)


    @pytest.mark.parametrize("model", builtin_models(), ids=lambda m: m.kind)
    def test_few_ulp_segments_next_to_the_boundary(self, model):
        # segments 1 to 8 ulps wide that end 0 to 8 ulps below the boundary (0 on a closed
        # face only), on both sides of a2, and segments 0.9 to 2.7 ulps wide from 8 ulps below
        # it, against mpmath at the evaluated tilt.  On exponential:1 the last are 1e-16 to
        # 3e-16 wide, where d1L divided by a2, not by the evaluated width, was 12-28% off
        b = model.domain.boundary
        ulp = b - math.nextafter(b, -INF)
        tilts = [(b - 8.0 * ulp, w * ulp) for w in (0.9, 1.35, 1.8, 2.7)]
        for gap in ((0, 1, 2, 8) if model.domain.boundary_closed else (1, 2, 8)):
            top = b - gap * ulp
            for width in (1.0, 2.0, 3.0, 5.0, 8.0):
                tilts += [(top - width * ulp, width * ulp), (top, -width * ulp), (top, -(width + 0.5) * ulp)]
        for a1, a2 in tilts:
            expected = mp_gradient(model, a1, (a1 + a2) - a1)
            assert lambda_grad(model, a1, a2) == pytest.approx(expected, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("model", builtin_models(), ids=lambda m: m.kind)
    def test_segments_up_to_1e300(self, model):
        # d2L squared a2 and raised OverflowError from |a2| = 1.3e154; d1L is a difference of phi
        # at the ends over the width, exact in mpmath, and d2L lies in (0, d1L)
        phi = MP_PHI[model.kind]
        for size in (1e100, 1e155, 1e200, 1e300):
            for a1, a2 in ((0.0, -size), (-size, size)):
                d1, d2 = lambda_grad(model, a1, a2)
                with mpmath.workdps(50):
                    expected = float((phi(mpmath.mpf(a1 + a2)) - phi(mpmath.mpf(a1))) / a2)
                assert d1 == pytest.approx(expected, rel=1e-13, abs=0.0)
                assert 0.0 < d2 < d1

    @given(model=st.sampled_from(builtin_models()), a1=st.floats(-4.0, 0.9), a2=st.floats(-4.0, 4.0))
    @example(model=builtin_models()[0], a1=0.5, a2=2.0**-14)  # r = 1.2e-4: E = h(r)/r lost eps/r there
    @settings(max_examples=100, deadline=None)
    def test_against_quadrature_of_phi_prime(self, model, a1, a2):
        # independent of the table's means: d1L and d2L are the integrals of phi'(a1 + a2 y)
        # and y phi'(a1 + a2 y) over (0, 1), at tilts in units of the boundary that keep the
        # segment a tenth of it below the boundary
        b = model.domain.boundary
        a1, a2 = a1 * b, a2 * b
        assume(max(a1, a1 + a2) <= 0.9 * b)
        g = lambda_grad(model, a1, a2)
        a2 = (a1 + a2) - a1

        def dphi(y):
            return model.cgf_d1(a1 + a2 * y)

        tol = 1e-14 * model.cgf_d1(max(a1, a1 + a2))
        d1 = adaptive_gauss_legendre(dphi, 0.0, 1.0, tol=tol)
        d2 = adaptive_gauss_legendre(lambda y: y * dphi(y), 0.0, 1.0, tol=tol)
        assert g == pytest.approx((d1, d2), rel=1e-12)

    @pytest.mark.parametrize("r", [1e-12, 1e-6, 1e-3, 1e3, 1e6])
    @pytest.mark.parametrize("a1,a2", [(0.3, 1e-5), (-0.5, -3e-6), (-40.0, 3e-3), (0.2, 0.4),
                                       (0.3, -1.2), (0.9, 2e-6), (0.9, 2e-5), (-3.0, 5e-4)])
    def test_free_of_the_scale(self, r, a1, a2):
        # gamma:2,r has phi_r(a) = phi_1(a/r), so r grad L_r(r a) = grad L_1(a); the segment
        # forms see only width/(rate - lo), which is free of the scale.  Two tilts sit just
        # above the series at width/(rate - lo) = 1e-4, where E = h(r)/r keeps the cancellation
        # of h, a few 1e-12; a gradient switched at an absolute |a2| was 100% off at r = 1e-6
        unit = make_model("gamma", {"shape": 2.0, "rate": 1.0})
        scaled = make_model("gamma", {"shape": 2.0, "rate": r})
        g, h = lambda_grad(unit, a1, a2), lambda_grad(scaled, r * a1, r * a2)
        assert r * h[0] == pytest.approx(g[0], rel=2e-11, abs=0.0)
        assert r * h[1] == pytest.approx(g[1], rel=2e-11, abs=0.0)


class TestHessian:
    def test_origin_structure(self):
        for m in builtin_models():
            cs = hessian_origin(m)
            expected = cs.phi2 * np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]])
            assert np.allclose(cs.C, expected, atol=1e-15)
            assert np.allclose(cs.C @ cs.C_inv, np.eye(2), atol=1e-12)
            assert cs.phi2 == m.variance


# phi' and the antiderivative of phi of the built-in instances with a Hessian in the table, written for mpmath
MP_PHI_PRIME = {
    "exponential": lambda a: 1 / (1 - a),
    "noncentral_chi_squared": lambda a: 1 / (1 - 2 * a) ** 2 + 1 / (1 - 2 * a),
    "gamma": lambda a: 2 / (2 - a),
}
MP_PHI_INTEGRAL = {
    "exponential": lambda a: (1 - a) * mpmath.log(1 - a) + a,
    "noncentral_chi_squared": lambda a: (-mpmath.log(1 - 2 * a) + (1 - 2 * a) * mpmath.log(1 - 2 * a)) / 4,
    "gamma": lambda a: 2 * ((2 - a) * mpmath.log(1 - a / 2) + a),
}
# the models whose joint rate is a Newton ascent, with the Hessian of L in the table; the
# inverse-Gaussian rate is in closed form
ASCENT_MODELS = [m for m in builtin_models() if m.kind in MP_PHI_PRIME]


def mp_curvatures(model, lo, hi):
    """The segment kernel's Hessian over [lo, hi] from phi', phi and its antiderivative at 100 digits.

    With W = hi - lo the means of (1 - y)^k phi''(lo + W y), k = 0, 1, 2, are (phi'(hi) - phi'(lo))/W,
    -phi'(lo)/W + (phi(hi) - phi(lo))/W^2 and -phi'(lo)/W + 2(-phi(lo)/W + (Phi(hi) - Phi(lo))/W^2)/W, by
    parts; exact in mpmath, where they cancel.  Returned as the table gives them: the square roots of
    the first and last and the correlation M1/sqrt(M0 M2).
    """
    phi, dphi, big_phi = MP_PHI[model.kind], MP_PHI_PRIME[model.kind], MP_PHI_INTEGRAL[model.kind]
    with mpmath.workdps(100):
        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        width = hi - lo
        dphi_lo = dphi(lo)
        m1 = -dphi_lo / width + (phi(hi) - phi(lo)) / width**2
        m2 = -dphi_lo / width + 2 * (-phi(lo) / width + (big_phi(hi) - big_phi(lo)) / width**2) / width
        m0 = (dphi(hi) - dphi_lo) / width
        return float(mpmath.sqrt(m0)), float(mpmath.sqrt(m2)), float(m1 / mpmath.sqrt(m0 * m2))


def folded_tilt(a1, a2):
    """The tilt with a2 < 0 over the segment that fl(a1 + a2) and a1 span, and that segment (lo, hi)."""
    top = a1 + a2
    if top > a1:
        a1, top = top, a1
    return (a1, top - a1), (top, a1)


def unfactored(hessian):
    """(H11, H12, H22) from the square roots and the correlation."""
    r1, r2, rho = hessian
    return r1 * r1, rho * r1 * r2, r2 * r2


class TestCurvatures:
    """The table's means of phi'', (1 - y) phi'' and (1 - y)^2 phi'' over a segment: the Hessian of L at a2 < 0."""

    @pytest.mark.parametrize("model", ASCENT_MODELS, ids=lambda m: m.kind)
    def test_seeded_tilts_against_mpmath(self, model):
        # 300 a2 < 0 tilts per model: boundary distance 1e-12 to 20 and |a2| 1e-14 to 30, in
        # boundary units; the (1 - y)^2 closed form loses eps/r^2 below its series at r = 1/10
        rng = np.random.default_rng(25)
        b = model.domain.boundary
        for gap, size in zip(10.0 ** rng.uniform(-12.0, math.log10(20.0), 300),
                             10.0 ** rng.uniform(-14.0, math.log10(30.0), 300)):
            (a1, a2), segment = folded_tilt(b - float(gap) * b, -float(size) * b)
            assert model.segment(a1, a2)[3] == pytest.approx(mp_curvatures(model, *segment), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("model", ASCENT_MODELS, ids=lambda m: m.kind)
    def test_few_ulp_segments_next_to_the_boundary(self, model):
        # the segments of TestGradient's test of the same name, all finite
        b = model.domain.boundary
        ulp = b - math.nextafter(b, -INF)
        tilts = [(b - 8.0 * ulp, w * ulp) for w in (0.9, 1.35, 1.8, 2.7)]
        for gap in (1, 2, 8):
            top = b - gap * ulp
            for width in (1.0, 2.0, 3.0, 5.0, 8.0):
                tilts += [(top - width * ulp, width * ulp), (top, -width * ulp), (top, -(width + 0.5) * ulp)]
        for tilt in tilts:
            (a1, a2), segment = folded_tilt(*tilt)
            got = model.segment(a1, a2)[3]
            assert all(0.0 < v < INF for v in got)
            assert got == pytest.approx(mp_curvatures(model, *segment), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("model", ASCENT_MODELS, ids=lambda m: m.kind)
    def test_far_tilts_stay_in_range(self, model):
        # out to |a| = 1e280 boundary units H12 and H22 fall like 1/|a|^2, out of the doubles, and
        # H11/H22 reaches 1e296 at the top; the factors hold them to 1e-12.  At 1e300 units they are
        # still finite and positive, with the correlation below its value sqrt(3)/2 at a2 = 0
        b = model.domain.boundary
        top = model.domain.search_top(finite_at_face=False)
        for size in (1e100, 1e200, 1e280):
            for a1 in (top, 0.5 * b, -1e-3 * size * b, -size * b):
                (a1, a2), segment = folded_tilt(a1, -size * b)
                assert model.segment(a1, a2)[3] == pytest.approx(mp_curvatures(model, *segment), rel=1e-12, abs=0.0)
        for a1 in (top, 0.5 * b, -1e297 * b):
            r1, r2, rho = model.segment(a1, -1e300 * b)[3]
            assert 0.0 < r2 < r1 < INF and 0.0 < rho < 0.5 * math.sqrt(3.0)

    @pytest.mark.parametrize("model", ASCENT_MODELS, ids=lambda m: m.kind)
    def test_meets_the_origin_hessian_as_a2_vanishes(self, model):
        # at a2 = 0 the Hessian of L is phi''(a1) [[1, 1/2], [1/2, 1/3]], hessian_origin's C at a1 = 0,
        # and it is continuous there from below; at a2 > 0, outside the folded half-plane, there is none
        b = model.domain.boundary
        C = hessian_origin(model).C
        for a1 in (-2.0 * b, -0.3 * b, 0.0, 0.4 * b):
            exact = model.cgf_d2(a1) * np.array([1.0, 0.5, 1.0 / 3.0])
            if a1 == 0.0:
                assert exact == pytest.approx((C[0, 0], C[0, 1], C[1, 1]), rel=1e-15)
            assert _second_order(model, a1, 1e-9 * b) is None
            assert unfactored(_second_order(model, a1, 0.0)[3]) == pytest.approx(exact, rel=1e-14)
            for a2 in (-1e-9 * b, -1e-12 * b):
                assert unfactored(_second_order(model, a1, a2)[3]) == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize("model, a1, a2, value, r2", [
        (EXP1, 1.0, -1.0, 1.0, 1.0),
        (EXP1, 1.0, -0.5, 1.0 + math.log(2.0), 2.0),
        (make_model("gamma", {"shape": 2.0, "rate": 2.0}), 2.0, -0.5, 2.0 + 4.0 * math.log(2.0), math.sqrt(8.0)),
    ], ids=["exponential_whole", "exponential_half", "gamma"])
    def test_top_on_the_open_integrable_boundary(self, model, a1, a2, value, r2):
        # phi'' = shape/d^2 is not integrable at the segment's top: H11 and H12 are infinite, so r1 = inf and
        # rho = 0, as on the inverse-Gaussian face, and H22 = shape/a2^2; L is finite and nothing raises
        L, d1, _, (got_r1, got_r2, rho) = model.segment(a1, a2)
        assert lambda_eval(model, a1, a2) == L == pytest.approx(value, rel=1e-15)
        assert (d1, got_r1, rho) == (INF, INF, 0.0)
        assert got_r2 == pytest.approx(r2, rel=1e-15)

    def test_raw_width_a_few_ulps_from_the_boundary(self):
        # lambda_eval's a2 is not fl(a1 + a2) - a1: here 1.25 ulp, past the boundary's distance, over a segment
        # whose top rounds below it; the Hessian's closed form is meaningless there and must not raise
        ncx = make_model("noncentral_chi_squared", {"lam": 1.0, "k": 1.0})
        for a1, a2 in [(float.fromhex("0x1.ffffffffffffcp-2"), float.fromhex("0x1.4p-53")),
                       (float.fromhex("0x1.ffffffffffff8p-2"), float.fromhex("0x1.2p-52"))]:
            assert math.isfinite(lambda_eval(ncx, a1, a2)) and lambda_eval(ncx, a1, a2) == ncx.segment(a1, a2)[0]

    def test_off_the_interior_none(self):
        # the one domain check: None where lambda_grad raises ValueError, and at a2 > 0
        for a1, a2 in [(1.0, -0.3), (0.7, 0.3), (0.2, 0.3), (1.0, 0.0)]:
            assert _second_order(EXP1, a1, a2) is None
        a2, value, gradient, hessian = _second_order(EXP1, 0.5, -0.3)
        assert (value, gradient) == (lambda_eval(EXP1, 0.5, -0.3), lambda_grad(EXP1, 0.5, -0.3))
        assert all(0.0 < v < INF for v in hessian)


class TestPoissonClosedForm:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_against_quadrature(self, lam):
        m = make_model("exponential", {"lam": lam})
        for a1, a2 in [(-0.5 * lam, 0.3 * lam), (0.2 * lam, -0.9 * lam), (-2.0, 1.1)]:
            if not interior_with_margin(m, a1, a2, 1e-9):
                continue
            assert poisson_lambda_closed_form(lam, a1, a2) == pytest.approx(
                quad_oracle(m, a1, a2), abs=1e-10
            )

    def test_boundary_start_finite_for_negative_a2(self):
        # a1 at the open boundary with a2 < 0: integrable log singularity
        val = poisson_lambda_closed_form(1.0, 1.0, -0.5)
        assert math.isfinite(val)
        assert lambda_eval(EXP1, 1.0, -0.5) == pytest.approx(val, abs=1e-7)
        # integral of -log(y/2) over (0, 1)
        assert val == pytest.approx(1.0 + math.log(2.0), rel=1e-15)
        assert lambda_eval(EXP1, 1.0, -0.5) == pytest.approx(1.0 + math.log(2.0), rel=1e-15)

    @pytest.mark.parametrize("s", [0.0, 2.0**-52, 2.0**-40, 2.0**-24, 2.0**-14, 2.0**-10])
    def test_table_next_to_open_boundary(self, s):
        # segment [0, 1 - s] ending s short of the boundary lam = 1 (s a power
        # of two, so 1 - s is exact), both directions; the exact value is
        # 1 + s log(s)/(1 - s)
        exact = 1.0 + (s * math.log(s) / (1.0 - s) if s > 0.0 else 0.0)
        if s > 0.0:
            assert poisson_lambda_closed_form(1.0, 0.0, 1.0 - s) == pytest.approx(exact, rel=1e-14)
        assert poisson_lambda_closed_form(1.0, 1.0 - s, s - 1.0) == pytest.approx(exact, rel=1e-14)
        if s > 0.0:
            assert lambda_eval(EXP1, 0.0, 1.0 - s) == pytest.approx(exact, rel=1e-14)
        assert lambda_eval(EXP1, 1.0 - s, s - 1.0) == pytest.approx(exact, rel=1e-14)
        # gamma phi is shape times the exponential phi at lam = rate
        gamma = make_model("gamma", {"shape": 2.0, "rate": 2.0})
        a1, a2 = -1.0, 3.0 - 2.0 * s
        ref = 2.0 * poisson_lambda_closed_form(2.0, a1 + a2, -a2)
        if s > 0.0:
            assert lambda_eval(gamma, a1, a2) == pytest.approx(ref, rel=1e-13)
        assert lambda_eval(gamma, a1 + a2, -a2) == pytest.approx(ref, rel=1e-13)


class TestRegularity:
    def test_certificates(self):
        certs = {m.kind: regularity_report(m).full_ldp_certificate for m in builtin_models()}
        assert certs["noncentral_chi_squared"] == "gartner_ellis_c"
        assert certs["exponential"] == "gradient_image"
        assert certs["inverse_gaussian"] == "weak_only"
        assert certs["gamma"] == "gradient_image" or certs["gamma"] == "weak_only"

    def test_flags(self):
        rep = regularity_report(make_model("inverse_gaussian", {"mu": 1.0}))
        assert rep.lsc and not rep.steep
        rep = regularity_report(EXP1)
        assert not rep.lsc and rep.steep
        rep = regularity_report(make_model("noncentral_chi_squared", {"lam": 1.0, "k": 1.0}))
        assert rep.lsc and rep.steep

