import contextlib
import math
import random
import signal
import sys

import mpmath
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
    make_model,
    parse_model_spec,
    phi_star,
)
from renewal_ldp.models import MAX_NEWTON_STEPS, RootError, dual_newton


def finite_diff(f, a, h=1e-6):
    return (f(a + h) - f(a - h)) / (2 * h)


@contextlib.contextmanager
def within(seconds):
    """Raise TimeoutError in the body once it has run for `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


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

    @pytest.mark.parametrize("spec", ["exponential:1", "gamma:2,2", "noncentral_chi_squared:1,1"])
    def test_finite_far_below_zero(self, spec):
        # phi' falls like a power of 1/|a|, and from -1e160 on a power such as (rate - a)**2 is beyond the doubles
        m = parse_model_spec(spec)
        for a in (-1e160, -1e200, -1e300):
            values = m.cgf_d1(a), m.cgf_d2(a), m.cgf_d3(a)
            assert all(0.0 <= v < INF for v in values) and values[0] > 0.0


class TestAntiderivative:
    # the integral of phi over [a, b] is (b - a) * L(a, b - a), from the model table's closed L

    @pytest.mark.parametrize("a,b", [(-1.0, 0.5), (-3.0, -0.5), (0.0, 0.9)])
    def test_exponential_antiderivative_vs_quadrature(self, a, b):
        from renewal_ldp import adaptive_gauss_legendre

        m = make_model("exponential", {"lam": 1.0})
        exact = (b - a) * m.segment(a, b - a)[0]
        quad = adaptive_gauss_legendre(m.cgf, a, b, tol=1e-12)
        assert exact == pytest.approx(quad, abs=1e-10)

    def test_antiderivative_continuous_at_boundary(self):
        # the integral of phi over [0, b] stays finite as b reaches the open boundary lam
        m = make_model("exponential", {"lam": 1.0})
        at_boundary = 1.0 * m.segment(0.0, 1.0)[0]
        near = (1.0 - 1e-9) * m.segment(0.0, 1.0 - 1e-9)[0]
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
            assert m.domain.case is expected[m.kind]

    def test_domain_membership(self):
        m = make_model("inverse_gaussian", {"mu": 2.0})
        assert m.domain.contains(2.0)       # boundary mu^2/2 = 2, closed
        assert not m.domain.contains(2.0 + 1e-15)
        e = make_model("exponential", {"lam": 1.0})
        assert not e.domain.contains(1.0)   # open boundary


class TestDualNewton:
    """models.dual_newton: the maximiser of t c - K(t) over t <= top from (K, K', sqrt K'')."""

    @staticmethod
    def barrier(t):
        # K(t) = -log(1 - t) on (-inf, 1), the exponential CGF: the maximiser is 1 - 1/c
        return (-math.log1p(-t), 1.0 / (1.0 - t), 1.0 / (1.0 - t)) if t < 1.0 else None

    def test_face_when_the_slope_at_top_is_below_c(self):
        assert dual_newton(lambda t: (0.5 * t * t, t, 1.0), 2.0, -3.0, 1.0) == (1.0, 1.5, 0)
        assert dual_newton(lambda t: (0.5 * t * t, t, 1.0), 1.0, -3.0, 1.0) == (1.0, 0.5, 0)

    def test_quadratic_in_a_step_and_its_roundoff(self):
        t, g, steps = dual_newton(lambda t: (0.5 * t * t, t, 1.0), 0.3, -5.0, INF)
        assert (t, g) == pytest.approx((0.3, 0.045), rel=1e-15) and steps <= 2

    @pytest.mark.parametrize("c", [1e-3, 0.2, 0.99, 1.01, 3.0, 1e3, 1e10])
    def test_log_barrier(self, c):
        top = math.nextafter(1.0, -INF)
        t, g, steps = dual_newton(self.barrier, c, 0.5 * (c - 1.0) if c < 1.0 else 0.5, top)
        assert t == pytest.approx(1.0 - 1.0 / c, rel=1e-15, abs=1e-15)  # K' carries eps (1 - t)
        assert g == pytest.approx(c - 1.0 - math.log(c), rel=1e-12, abs=1e-16)
        assert 0 < steps < 60

    def test_a_maximiser_beyond_the_doubles_raises(self):
        # 1 - 1/c is about -2e323 at c = 5e-324
        with within(1.0), pytest.raises(RootError):
            dual_newton(self.barrier, 5e-324, -1.0, math.nextafter(1.0, -INF))

    def test_no_start_in_the_domain_raises(self):
        with pytest.raises(RootError):
            dual_newton(self.barrier, 0.5, 2.0, INF)
        with pytest.raises(RootError):  # K'' = 0: no Newton step
            dual_newton(lambda t: (0.5 * t * t, t, 0.0), 0.3, -1.0, INF)

    def test_step_budget(self):
        # K(t) = -t: the slope never meets c = 0, and each step adds 1 to t until the budget ends it
        with within(5.0), pytest.raises(RootError, match=str(MAX_NEWTON_STEPS)):
            dual_newton(lambda t: (-t, -1.0, 1.0), 0.0, 0.0, INF)


class TestPhiStarContract:
    """phi_star in closed form: 40 digits where the tilt is a double, RootError where it is not."""

    LEVELS = [5e-324, 1e-320, 1e-300, 1e-200, 1e-160, 1e-100, 1e-20, 1e-3, 0.1, 0.5, 0.9, 1.1, 2.0, 10.0,
              1e3, 1e20, 1e100, 1e200, 1e300]

    @staticmethod
    def exact(model, z):
        """(tilt, phi*(z)) at 40 digits: the root of phi'(a) = z, and a z - phi(a) through the CGF."""
        p = {name: mpmath.mpf(v) for name, v in model.params.items()}
        z = mpmath.mpf(z)
        if model.kind in ("exponential", "gamma"):
            shape, rate = (1, p["lam"]) if model.kind == "exponential" else (p["shape"], p["rate"])
            gap = shape / z  # rate - a, which 40 digits of a cannot resolve at z = 1e300
            return rate - gap, (rate - gap) * z + shape * mpmath.log(gap / rate)
        if model.kind == "inverse_gaussian":
            a = (p["mu"] ** 2 - 1 / z**2) / 2
            return a, a * z - (p["mu"] - mpmath.sqrt(p["mu"] ** 2 - 2 * a))
        lam, k = p["lam"], p["k"]
        u = (k + mpmath.sqrt(k * k + 4 * lam * z)) / (2 * z)  # z u^2 - k u - lam = 0, u = 1 - 2a
        a = (1 - u) / 2
        return a, a * z - (lam * a / u - k * mpmath.log(u) / 2)

    @pytest.mark.parametrize("model", builtin_models(), ids=lambda m: m.kind)
    @pytest.mark.parametrize("level", LEVELS)
    def test_against_40_digits(self, model, level):
        z = level * model.mean
        with mpmath.workdps(40):
            tilt, value = self.exact(model, z)
        if abs(tilt) > sys.float_info.max:
            with pytest.raises(RootError):
                phi_star(model, z)
            return
        res = phi_star(model, z)
        assert res.iterations == 0 and res.method == "closed_form"
        assert res.value == pytest.approx(float(value), rel=1e-12, abs=0.0)
        top = model.domain.search_top(finite_at_face=False)
        assert res.argmax_tilt[0] == pytest.approx(min(float(tilt), top), rel=1e-12, abs=1e-300)

    def test_gamma_where_rate_z_overflows(self):
        # phi*(z) = rate z - shape - shape log(rate z/shape) is about 2e308 here: INF, not inf - inf
        model = make_model("gamma", {"shape": 2.0, "rate": 2.0})
        assert phi_star(model, 1e308).value == INF
        assert phi_star(model, 0.5 * sys.float_info.max).value < INF

    @pytest.mark.parametrize("shape, rate, z", [(0.5, 1.0, 1e308), (2.0, 1e-300, 1e-30), (3.0, 1e-20, 1e-305)])
    def test_gamma_where_rate_z_over_shape_leaves_the_doubles(self, shape, rate, z):
        # rate z/shape overflows (shape < 1) or underflows where the tilt and phi* are still doubles
        model = make_model("gamma", {"shape": shape, "rate": rate})
        with mpmath.workdps(40):
            tilt, value = self.exact(model, z)
        res = phi_star(model, z)
        assert res.value == pytest.approx(float(value), rel=1e-12, abs=0.0)
        assert res.argmax_tilt[0] == pytest.approx(float(tilt), rel=1e-12)

    def test_gamma_tilt_below_the_doubles_raises(self):
        # rate z/shape underflows to 0 at rate < 1, where the tilt rate - shape/z is -inf
        with pytest.raises(RootError):
            phi_star(make_model("gamma", {"shape": 2.0, "rate": 0.5}), 5e-324)

    def test_inverse_gaussian_far_below_the_mean_raises(self):
        # the tilt (mu^2 - 1/z^2)/2 is -5e319 here; a root search returned phi* = inf after 1077 steps
        model = make_model("inverse_gaussian", {"mu": 1.0})
        with pytest.raises(RootError):
            phi_star(model, 1e-160 * model.mean)

    def test_exponential_as_its_own_closed_form(self):
        # lam z - 1 - log(lam z) at the tilt lam - 1/z, bit for bit, from the gamma row at shape 1
        rng = random.Random(34)
        for _ in range(1000):
            lam, z = 10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, 3.0)
            res = phi_star(make_model("exponential", {"lam": lam}), z / lam)
            lz = lam * (z / lam)
            assert res.value == max(lz - 1.0 - math.log(lz), 0.0)
            assert res.argmax_tilt == (lam - 1.0 / (z / lam),)


class TestPhiStar:
    def test_exponential_closed_form(self):
        m = make_model("exponential", {"lam": 1.0})
        res = phi_star(m, 2.0)
        assert res.value == pytest.approx(2.0 - 1.0 - math.log(2.0), abs=1e-14)

    @pytest.mark.parametrize("ratio", [1.0001, 0.9999, 1.01])
    def test_gamma_next_to_the_mean_at_40_digits(self, ratio):
        # rate z - shape - shape log(rate z/shape) is ~(ratio - 1)^2; the CGF -shape log1p(-a/rate)
        # keeps its relative accuracy there (shape log(rate/(rate - a)) was 1.2e-8 off at 1.0001)
        model = make_model("gamma", {"shape": 2.0, "rate": 2.0})
        z = ratio * model.mean
        with mpmath.workdps(40):
            rz = 2 * mpmath.mpf(z)
            exact = float(rz - 2 - 2 * mpmath.log(rz / 2))
        assert phi_star(model, z).value == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_zero_at_mean(self):
        for m in builtin_models():
            res = phi_star(m, m.mean)
            assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_infinite_for_nonpositive(self):
        for m in builtin_models():
            assert phi_star(m, 0.0).value == INF
            assert phi_star(m, -1.0).value == INF

    @pytest.mark.parametrize("rate", [1.0, 1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("ratio", [0.5, 1.5, 3.0])
    def test_gamma_closed_form_at_every_rate(self, rate, ratio):
        # rate z - shape - shape log(rate z/shape) at 40 digits; the tilt rate - shape/z
        # scales with the rate, and an absolute tolerance of 1e-15 left 2.3e-9 at rate 1e-12
        model = make_model("gamma", {"shape": 2.0, "rate": rate})
        z = ratio * model.mean
        with mpmath.workdps(40):
            rz = mpmath.mpf(rate) * mpmath.mpf(z)
            exact = float(rz - 2 - 2 * mpmath.log(rz / 2))
        assert phi_star(model, z).value == pytest.approx(exact, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("offset", [0.0, 2.0**-52, -(2.0**-52), 1e-15, -1e-15])
    def test_next_to_the_mean(self, offset):
        # the root is at or next to 0, where f is rounding noise; the solve must still end
        for m in builtin_models() + [make_model("gamma", {"shape": 2.0, "rate": 1e-9})]:
            res = phi_star(m, m.mean * (1.0 + offset))
            assert 0.0 <= res.value < 1e-20
            assert res.iterations < 40

    @pytest.mark.parametrize("ratio", [1e-160, 1e-200, 1e-300])
    def test_noncentral_chi_squared_far_below_the_mean(self, ratio):
        # the tilt is about -1/(2z); phi' = lam/u^2 + k/u = z in u = 1 - 2a is a quadratic, solved at 40
        # digits; (1 - 2a)**2 is beyond the doubles here
        model = parse_model_spec("noncentral_chi_squared:1,1")
        z = ratio * model.mean
        with mpmath.workdps(40):
            zq = mpmath.mpf(z)
            u = (1 + mpmath.sqrt(1 + 4 * zq)) / (2 * zq)
            a = (1 - u) / 2
            exact = float(a * zq - (a / u - mpmath.log(u) / 2))
        assert phi_star(model, z).value == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_root_below_the_double_range_raises(self):
        # gamma:2,2 at z1 = 1e-320: the tilt 2 - 2/z1 is about -2e320
        model = make_model("gamma", {"shape": 2.0, "rate": 2.0})
        with within(1.0), pytest.raises(RootError):
            phi_star(model, 1e-320)

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
            desc = m.descriptor()
            again = make_model(desc["kind"], desc["params"])
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
            DomainSpec(INF, LscCase.OPEN_INTEGRABLE)


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
