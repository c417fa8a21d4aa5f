import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewal_ldp import (
    INF,
    DomainSpec,
    LscCase,
    RateEvaluation,
    builtin_models,
    classify_domain,
    make_model,
    model_from_descriptor,
    parse_model_spec,
    phi_star,
)


def finite_diff(f, a, h=1e-6):
    return (f(a + h) - f(a - h)) / (2 * h)


class TestCgfValues:
    def test_exponential_cgf_closed_form(self):
        m = make_model("exponential", {"lam": 2.0})
        assert m.phi(1.0) == pytest.approx(math.log(2.0), abs=1e-15)
        assert m.phi(0.0) == 0.0
        assert m.phi(2.0) == INF
        assert m.phi(3.0) == INF

    def test_inverse_gaussian_cgf_closed_form(self):
        m = make_model("inverse_gaussian", {"mu": 1.0})
        # boundary alpha = mu^2/2 belongs to the domain, value mu there
        assert m.phi(0.5) == pytest.approx(1.0, abs=1e-15)
        assert m.phi(0.0) == 0.0
        assert m.phi(0.5 + 1e-12) == INF

    def test_noncentral_chi_squared_cgf_closed_form(self):
        m = make_model("noncentral_chi_squared", {"lam": 1.0, "k": 2.0})
        a = 0.25
        expected = a / (1 - 2 * a) - 1.0 * math.log(1 - 2 * a)
        assert m.phi(a) == pytest.approx(expected, abs=1e-15)
        assert m.phi(0.5) == INF

    def test_gamma_cgf_closed_form(self):
        m = make_model("gamma", {"shape": 2.0, "rate": 2.0})
        assert m.phi(1.0) == pytest.approx(-2.0 * math.log(0.5), abs=1e-15)
        assert m.phi(2.0) == INF

    def test_cgf_zero_at_origin(self):
        for m in builtin_models():
            assert m.phi(0.0) == 0.0


class TestDerivatives:
    @pytest.mark.parametrize("alpha", [-2.0, -0.5, 0.0, 0.2])
    def test_first_three_derivatives_match_finite_differences(self, alpha):
        for m in builtin_models():
            assert m.cgf_d1(alpha) == pytest.approx(finite_diff(m.cgf, alpha), rel=1e-6)
            assert m.cgf_d2(alpha) == pytest.approx(finite_diff(m.cgf_d1, alpha), rel=1e-6)
            assert m.cgf_d3(alpha) == pytest.approx(finite_diff(m.cgf_d2, alpha), rel=1e-6)

    def test_mean_and_variance(self):
        cases = {
            "exponential": (1.0, 1.0),
            "inverse_gaussian": (1.0, 1.0),
            "noncentral_chi_squared": (2.0, 6.0),  # lam=1, k=1: mean lam+k, var 4lam+2k
            "gamma": (1.0, 0.5),                   # shape/rate, shape/rate^2
        }
        for m in builtin_models():
            mean, var = cases[m.kind]
            assert m.mean == pytest.approx(mean, abs=1e-12)
            assert m.variance == pytest.approx(var, abs=1e-12)

    def test_variance_positive(self):
        for m in builtin_models():
            assert m.variance > 0


class TestAntiderivative:
    # the integral of phi over [a, b] is (b - a) * L(a, b - a), from the model table's closed L

    @pytest.mark.parametrize("a,b", [(-1.0, 0.5), (-3.0, -0.5), (0.0, 0.9)])
    def test_exponential_antiderivative_vs_quadrature(self, a, b):
        from renewal_ldp import adaptive_gauss_legendre

        m = make_model("exponential", {"lam": 1.0})
        exact = (b - a) * m.limit(a, b - a)
        quad = adaptive_gauss_legendre(m.cgf, a, b, tol=1e-12)
        assert exact == pytest.approx(quad, abs=1e-10)

    def test_antiderivative_continuous_at_boundary(self):
        # the integral of phi over [0, b] stays finite as b reaches the open boundary lam
        m = make_model("exponential", {"lam": 1.0})
        at_boundary = 1.0 * m.limit(0.0, 1.0)
        near = (1.0 - 1e-9) * m.limit(0.0, 1.0 - 1e-9)
        assert abs(at_boundary - near) < 1e-7


class TestDomainTaxonomy:
    def test_classification(self):
        expected = {
            "exponential": LscCase.OPEN_INTEGRABLE,
            "inverse_gaussian": LscCase.CLOSED_BOUNDARY,
            "noncentral_chi_squared": LscCase.OPEN_NONINTEGRABLE,
            "gamma": LscCase.OPEN_INTEGRABLE,
        }
        for m in builtin_models():
            assert classify_domain(m) is expected[m.kind]

    def test_domain_membership(self):
        m = make_model("inverse_gaussian", {"mu": 2.0})
        assert m.domain.contains(2.0)       # boundary mu^2/2 = 2, closed
        assert not m.domain.contains(2.0 + 1e-15)
        e = make_model("exponential", {"lam": 1.0})
        assert not e.domain.contains(1.0)   # open boundary


class TestPhiStar:
    def test_exponential_closed_form(self):
        m = make_model("exponential", {"lam": 1.0})
        res = phi_star(m, 2.0)
        assert res.value == pytest.approx(2.0 - 1.0 - math.log(2.0), abs=1e-14)

    def test_zero_at_mean(self):
        for m in builtin_models():
            res = phi_star(m, m.mean)
            assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_infinite_for_nonpositive(self):
        for m in builtin_models():
            assert phi_star(m, 0.0).value == INF
            assert phi_star(m, -1.0).value == INF

    @pytest.mark.parametrize("z1", [0.5, 0.8, 1.3, 2.5])
    def test_against_grid_search(self, z1):
        # frozen independent oracle: dense grid over the tilt domain
        for m in builtin_models():
            abar = m.domain.boundary
            grid = np.linspace(-60.0, abar - 1e-9, 400001)
            vals = grid * z1 - np.array([m.phi(a) for a in grid])
            assert phi_star(m, z1).value >= np.nanmax(vals) - 1e-6
            assert phi_star(m, z1).value == pytest.approx(np.nanmax(vals), abs=1e-4)

    @given(z1=st.floats(0.2, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative_and_convex_in_z(self, z1):
        m = make_model("gamma", {"shape": 2.0, "rate": 2.0})
        v = phi_star(m, z1).value
        assert v >= 0.0
        # midpoint convexity against two neighbors
        h = 0.05
        mid = phi_star(m, z1).value
        left = phi_star(m, z1 - h).value if z1 - h > 0 else None
        right = phi_star(m, z1 + h).value
        if left is not None and math.isfinite(left) and math.isfinite(right):
            assert mid <= 0.5 * (left + right) + 1e-9


class TestDescriptors:
    def test_round_trip(self):
        for m in builtin_models():
            again = model_from_descriptor(m.descriptor())
            assert again.descriptor() == m.descriptor()
            assert again.mean == m.mean

    def test_parse_model_spec(self):
        m = parse_model_spec("gamma:2,2")
        assert m.kind == "gamma"
        assert m.params == {"shape": 2.0, "rate": 2.0}
        assert parse_model_spec("exponential:1.5").params == {"lam": 1.5}

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_model_spec("weibull:1")
        with pytest.raises(ValueError):
            parse_model_spec("gamma:2")
        with pytest.raises(ValueError):
            make_model("exponential", {"lam": -1.0})

    @pytest.mark.parametrize("spec", ["exponential:inf", "gamma:2,inf", "inverse_gaussian:1e200"])
    def test_parameters_that_break_the_domain_are_rejected(self, spec):
        # an infinite parameter, or one whose domain boundary overflows, has no finite boundary
        with pytest.raises(ValueError):
            parse_model_spec(spec)

    def test_domain_boundary_must_be_finite(self):
        with pytest.raises(ValueError):
            DomainSpec(INF, boundary_closed=False, integrable_at_boundary=True)


class TestSamplers:
    def test_sampler_means(self):
        rng = np.random.default_rng(42)
        n = 200000
        for m in builtin_models():
            draws = m.sample(rng, size=n)
            se = math.sqrt(m.variance / n)
            assert abs(float(draws.mean()) - m.mean) < 5 * se
            assert (draws > 0).all()

    def test_sampler_mgf_matches_cgf(self):
        rng = np.random.default_rng(7)
        n = 400000
        for m in builtin_models():
            a = -0.5  # negative tilt: bounded integrand, tight MC error
            draws = m.sample(rng, size=n)
            emp = float(np.exp(a * draws).mean())
            assert emp == pytest.approx(math.exp(m.phi(a)), rel=5e-3)
