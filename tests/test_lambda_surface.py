import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from renewal_ldp import (
    BUILTIN_MODELS,
    INF,
    adaptive_gauss_legendre,
    builtin_models,
    hessian_origin,
    in_lambda_domain,
    in_tilt_domain,
    lambda_eval,
    lambda_grad,
    lambda_hessian,
    make_model,
    poisson_lambda_closed_form,
    regularity_report,
)
from renewal_ldp.lambda_surface import in_lambda_domain_interior
from renewal_ldp.quadrature import QuadratureError, gauss_legendre_panel

EXP1 = make_model("exponential", {"lam": 1.0})

# interior tilts shared by several oracles: (model index, a1, a2)
INTERIOR_TILTS = [(-0.5, 0.3), (0.2, 0.4), (-1.0, -0.7), (0.3, -1.2), (-2.0, 1.5)]


def quad_oracle(model, a1, a2):
    """Independent evaluation: integral of phi(a1 + a2*y) over y in (0,1)."""
    return adaptive_gauss_legendre(lambda y: model.cgf(a1 + a2 * y), 0.0, 1.0, tol=1e-12)


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
            if not in_lambda_domain_interior(m, a1, a2, margin=1e-9):
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

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            lambda_eval(EXP1, -0.5, 0.3, method="quadratur")

    def test_a2_zero_reduces_to_phi(self):
        for m in builtin_models():
            assert lambda_eval(m, -0.3, 0.0) == m.phi(-0.3)

    def test_small_a2_branches_match_quadrature(self):
        # both sides of the Taylor/integral switch agree with direct quadrature
        for m in builtin_models():
            for a2 in (9e-7, 1.1e-6):
                assert lambda_eval(m, 0.1, a2) == pytest.approx(
                    quad_oracle(m, 0.1, a2), abs=1e-12
                )

    def test_symmetry_identity(self):
        # reversing the integration direction: L(a1, a2) = L(a1+a2, -a2)
        for m in builtin_models():
            for a1, a2 in INTERIOR_TILTS:
                if not in_lambda_domain_interior(m, a1, a2, margin=1e-9):
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
        if not (in_lambda_domain_interior(m, a1, a2, 1e-6)
                and in_lambda_domain_interior(m, b1, b2, 1e-6)):
            return
        mid = lambda_eval(m, 0.5 * (a1 + b1), 0.5 * (a2 + b2))
        assert mid <= 0.5 * (lambda_eval(m, a1, a2) + lambda_eval(m, b1, b2)) + 1e-10


class TestDomains:
    def test_tilt_domain_negative_a2_boundary(self):
        # with a2 < 0 the tilt set allows a1 up to the boundary inclusive
        assert in_tilt_domain(EXP1, 1.0, -0.5)
        assert not in_tilt_domain(EXP1, 1.1, -0.5)

    def test_lambda_domain_cases(self):
        ig = make_model("inverse_gaussian", {"mu": 1.0})      # closed boundary
        ncx = make_model("noncentral_chi_squared", {"lam": 1.0, "k": 1.0})
        # closed boundary: top may touch abar
        assert in_lambda_domain(ig, 0.25, 0.25)
        # open integrable: at a2<0, a1 at the boundary still integrates
        assert in_lambda_domain(EXP1, 1.0, -0.5)
        # open non-integrable: boundary start diverges
        assert not in_lambda_domain(ncx, 0.5, -0.25)
        assert not in_lambda_domain(ncx, 0.25, 0.25)

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
            if not in_lambda_domain_interior(m, a1, a2, margin=1e-3):
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


class TestHessian:
    @pytest.mark.parametrize("a1,a2", [(-0.5, 0.3), (0.1, 0.3), (-1.0, -0.7)])
    def test_against_finite_differences(self, a1, a2):
        h = 1e-5
        for m in builtin_models():
            if not in_lambda_domain_interior(m, a1, a2, margin=0.05):
                continue
            H = lambda_hessian(m, a1, a2)
            fd11 = (lambda_eval(m, a1 + h, a2) - 2 * lambda_eval(m, a1, a2)
                    + lambda_eval(m, a1 - h, a2)) / h**2
            fd22 = (lambda_eval(m, a1, a2 + h) - 2 * lambda_eval(m, a1, a2)
                    + lambda_eval(m, a1, a2 - h)) / h**2
            fd12 = (lambda_eval(m, a1 + h, a2 + h) - lambda_eval(m, a1 + h, a2 - h)
                    - lambda_eval(m, a1 - h, a2 + h) + lambda_eval(m, a1 - h, a2 - h)) / (4 * h**2)
            assert H[0, 0] == pytest.approx(fd11, rel=1e-4, abs=1e-5)
            assert H[1, 1] == pytest.approx(fd22, rel=1e-4, abs=1e-5)
            assert H[0, 1] == pytest.approx(fd12, rel=1e-4, abs=1e-5)

    def test_positive_definite_on_interior(self):
        for m in builtin_models():
            H = lambda_hessian(m, -0.5, 0.3)
            eigs = np.linalg.eigvalsh(H)
            assert (eigs > 0).all()

    def test_origin_structure(self):
        for m in builtin_models():
            cs = hessian_origin(m)
            expected = cs.phi2 * np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]])
            assert np.allclose(cs.C, expected, atol=1e-15)
            assert np.allclose(cs.C @ cs.C_inv, np.eye(2), atol=1e-12)
            assert cs.phi2 == m.variance


class TestPoissonClosedForm:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_against_quadrature(self, lam):
        m = make_model("exponential", {"lam": lam})
        for a1, a2 in [(-0.5 * lam, 0.3 * lam), (0.2 * lam, -0.9 * lam), (-2.0, 1.1)]:
            if not in_lambda_domain_interior(m, a1, a2, 1e-9):
                continue
            assert poisson_lambda_closed_form(lam, a1, a2) == pytest.approx(
                lambda_eval(m, a1, a2, method="quadrature"), abs=1e-10
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
