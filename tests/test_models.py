import contextlib
import math
import random
import signal
import sys
from functools import partial

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
from renewal_ldp.models import RootError, brent, increasing_root


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
        exact = (b - a) * m.means(a, b - a)[0]
        quad = adaptive_gauss_legendre(m.cgf, a, b, tol=1e-12)
        assert exact == pytest.approx(quad, abs=1e-10)

    def test_antiderivative_continuous_at_boundary(self):
        # the integral of phi over [0, b] stays finite as b reaches the open boundary lam
        m = make_model("exponential", {"lam": 1.0})
        at_boundary = 1.0 * m.means(0.0, 1.0)[0]
        near = (1.0 - 1e-9) * m.means(0.0, 1.0 - 1e-9)[0]
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


class TestIncreasingRoot:
    def test_face_when_nonpositive_at_top(self):
        assert increasing_root(lambda a: a - 5.0, 2.0) == (2.0, 0)
        assert increasing_root(lambda a: a - 2.0, 2.0) == (2.0, 0)

    @pytest.mark.parametrize("root", [1.5, -0.25, -3e6])
    def test_root_below_top(self, root):
        found, iterations = increasing_root(lambda a: math.atan(a - root), 2.0)
        assert found == pytest.approx(root, rel=1e-15, abs=1e-15)
        assert iterations > 0

    @pytest.mark.parametrize("top, root", [(2.0, 0.0), (2.0, 2.0**-60), (2.0, -(2.0**-60)),
                                           (2.0, 1e-300), (2.0, -1e-300), (0.0, -(2.0**-60)),
                                           (0.0, -1e-300)])
    def test_root_at_or_next_to_zero(self, top, root):
        # the tolerance is relative to the root and to the scale |top| (1 at top = 0), so a root
        # at 0 ends in a few steps, within 4 eps of the scale
        found, iterations = increasing_root(lambda a: math.atan(a - root), top)
        assert abs(found - root) <= 8 * sys.float_info.epsilon * (abs(top) or 1.0)
        assert iterations < 10

    @pytest.mark.parametrize("top, root", [(2.0, 1.5), (2.0, -0.25), (2.0, -3e6), (1e-9, -7e-10)])
    @pytest.mark.parametrize("where", ["above", "below", "far_below", "at_root", "at_top"])
    def test_warm_start_finds_the_cold_root(self, top, root, where):
        # a start grows the bracket from there, up (capped at top) or down, by doubling steps
        start = {"above": root + 0.5 * (top - root), "below": root - 0.3 * abs(top),
                 "far_below": root - 1e3 * abs(top), "at_root": root, "at_top": top}[where]
        def f(a):
            return math.atan((a - root) / top)
        cold, _ = increasing_root(f, top)
        warm, iterations = increasing_root(f, top, start=start)
        assert abs(warm - cold) <= 4 * sys.float_info.epsilon * (abs(cold) + abs(top))
        assert iterations < 100

    @pytest.mark.parametrize("start", [-1e6, 0.0, 1.9, 2.0, 5.0])
    def test_warm_start_returns_the_face(self, start):
        # f(top) <= 0: the maximiser is top, from a start below it after stepping up, or at it
        found, iterations = increasing_root(lambda a: a - 5.0, 2.0, start=start)
        assert found == 2.0
        assert iterations < 30

    def test_nan_raises_the_typed_error(self):
        with pytest.raises(RootError, match="NaN"):
            increasing_root(lambda a: math.nan if a < 0.0 else 1.0, 0.0)

    def test_positive_down_to_minus_infinity_raises(self):
        # no root at all: the bracket doubles until it leaves the doubles
        with within(1.0), pytest.raises(OverflowError):
            increasing_root(lambda a: 1.0, 0.0)


class TestBrent:
    """models.brent runs SciPy's brentq step for step; brentq serves as the oracle."""

    FUNCTIONS = (
        lambda c, x: math.atan(x - c),
        lambda c, x: x**3 - c,
        lambda c, x: math.expm1(x) - c,
        lambda c, x: math.floor(4.0 * x - c),  # a staircase: equal values at distinct points
    )

    @pytest.mark.parametrize("seed", range(3))
    def test_equals_brentq(self, seed):
        from scipy.optimize import brentq
        rng = random.Random(seed)
        compared = 0
        for k in range(400):
            c = rng.uniform(-3.0, 3.0)
            f = partial(self.FUNCTIONS[k % len(self.FUNCTIONS)], c)
            a, b = c - rng.expovariate(0.5), c + rng.expovariate(0.5)
            if k % 2:
                a, b = b, a
            fa, fb = f(a), f(b)
            if fa == 0.0 or fb == 0.0 or (fa < 0.0) == (fb < 0.0):
                continue
            xtol = rng.choice([1e-15, 1e-300, 1e-6])
            root, info = brentq(f, a, b, xtol=xtol, full_output=True)
            assert brent(f, a, b, fa, fb, xtol) == (root, info.iterations)
            compared += 1
        assert compared > 250

    @pytest.mark.parametrize("level", [1e-100, 1e-200, 1e-300])
    def test_zero_denominator_bisects_as_brentq(self, level):
        # values near `level` and slopes near level^2: the inverse quadratic step's
        # denominator underflows to 0, where C gets inf or NaN and bisects (7-8 times
        # per solve here); the port must take the same bisection
        from scipy.optimize import brentq

        def f(t):
            return -1.0 / t - level

        a, b = -(2.0 ** math.ceil(math.log2(1.0 / level))), -(2.0 ** math.floor(math.log2(1.0 / level)))
        root, info = brentq(f, a, b, xtol=1e-15, full_output=True)
        assert brent(f, a, b, f(a), f(b), 1e-15) == (root, info.iterations)

    def test_numpy_scalars_are_coerced(self):
        root, iterations = brent(lambda x: np.float64(x) - 0.3, 0.0, 1.0,
                                 np.float64(-0.3), np.float64(0.7), 1e-15)
        assert type(root) is float and root == 0.3 and iterations > 0

    def test_exact_zero_at_an_end(self):
        assert brent(lambda x: x, 0.0, 1.0, 0.0, 1.0, 1e-15) == (0.0, 0)
        assert brent(lambda x: x - 1.0, 0.0, 1.0, -1.0, 0.0, 1e-15) == (1.0, 0)

    def test_failures_raise_one_typed_error(self):
        with pytest.raises(RootError, match="same sign"):
            brent(lambda x: x + 1.0, 0.0, 1.0, 1.0, 2.0, 1e-15)
        with pytest.raises(RootError, match="NaN"):
            brent(lambda x: math.nan, -1.0, 1.0, -1.0, 1.0, 1e-15)
        with pytest.raises(RootError, match="NaN"):
            brent(lambda x: x, -1.0, 1.0, math.nan, 1.0, 1e-15)
        with pytest.raises(RootError, match="2 iterations"):
            brent(lambda x: math.atan(x - 0.3), -10.0, 10.0, math.atan(-10.3), math.atan(9.7), 1e-15,
                  maxiter=2)


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
        with within(1.0), pytest.raises(OverflowError):
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
