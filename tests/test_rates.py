import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from renewal_ldp import (
    INF,
    builtin_models,
    conditional_rate_J,
    in_support_cone,
    lambda_eval,
    lambda_grad,
    make_model,
    marginal_I1,
    marginal_I2,
    phi_star,
    psi_star,
    rate_ld,
    rate_ld_poisson,
)
from renewal_ldp.conditional import kappa_star
from renewal_ldp.lambda_surface import in_lambda_domain
from renewal_ldp.moderate import HalfPlane
from renewal_ldp import rates
from renewal_ldp.models import RateEvaluation, RootError, model_of, parse_model_spec
from renewal_ldp.rates import line_rate
from renewal_ldp.simulate import ld_event_rate

EXP1 = make_model("exponential", {"lam": 1.0})
IG1 = make_model("inverse_gaussian", {"mu": 1.0})
MODELS = builtin_models()


def interior_with_margin(m, a1, a2, margin):
    """The segment [a1, a1 + a2] ends at least ``margin`` below the domain boundary."""
    return max(a1, a1 + a2) < m.domain.boundary - margin


def grid_search_rate(model, z1, z2, a1_range, a2_range, n=251):
    """Frozen independent oracle: dense grid maximization of a.z - L(a)."""
    best = -INF
    for a1 in np.linspace(*a1_range, n):
        for a2 in np.linspace(*a2_range, n):
            if not interior_with_margin(model, a1, a2, 1e-9):
                continue
            v = a1 * z1 + a2 * z2 - lambda_eval(model, float(a1), float(a2))
            best = max(best, v)
    return best


class TestSupportCone:
    def test_membership(self):
        assert in_support_cone(1.0, 0.5)
        assert in_support_cone(1.0, 0.0)
        assert in_support_cone(1.0, 1.0)
        assert not in_support_cone(1.0, 1.1)
        assert not in_support_cone(1.0, -0.1)

    def test_rate_infinite_off_cone(self):
        for m in builtin_models():
            assert rate_ld(m, 1.0, 2.0).value == INF
            assert rate_ld(m, 0.5, 1.0).value == INF
            assert rate_ld(m, 1.0, -0.1).value == INF


class TestExtremeLevels:
    # each public rate function with the level z, in multiples of the mean
    ENTRIES = {
        "phi_star": lambda m, z: phi_star(m, z * m.mean),
        "marginal_I2": lambda m, z: marginal_I2(m, z * m.mean),
        "line_rate": lambda m, z: line_rate(m, (1.0, 1.0), z * m.mean),
        "rate_ld_z1": lambda m, z: rate_ld(m, z * m.mean, 0.5 * m.mean),
        "rate_ld_z2": lambda m, z: rate_ld(m, m.mean, z * m.mean),
    }

    @pytest.mark.parametrize("model", MODELS, ids=[m.kind for m in MODELS])
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_nan_level_raises_before_any_solve(self, model, entry, monkeypatch):
        # the solvers raised RootError from inside on a NaN level, and rate_ld returned INF
        def no_solve(*args, **kwargs):
            raise AssertionError("a solver ran on a NaN level")

        for module in ("models", "rates"):
            monkeypatch.setattr(f"renewal_ldp.{module}.dual_newton", no_solve)
        with pytest.raises(ValueError, match="NaN"):
            self.ENTRIES[entry](model, math.nan)

    @pytest.mark.parametrize("model", MODELS, ids=[m.kind for m in MODELS])
    @pytest.mark.parametrize("normal", [(math.nan, 1.0), (1.0, math.nan)])
    def test_nan_normal_raises_before_any_solve(self, model, normal, monkeypatch):
        # line_rate gave ValueError "tilt (nan, nan) is not interior" or RootError from inside a solve
        def no_solve(*args, **kwargs):
            raise AssertionError("a solver ran on a NaN normal")

        monkeypatch.setattr("renewal_ldp.rates.dual_newton", no_solve)
        with pytest.raises(ValueError, match="NaN"):
            line_rate(model, normal, 0.3 * model.mean)

    @pytest.mark.parametrize("model", MODELS, ids=[m.kind for m in MODELS])
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_infinite_level_is_INF(self, model, entry):
        # exponential phi_star gave inf - 1 - log(inf) = NaN
        assert self.ENTRIES[entry](model, INF).value == INF

    @pytest.mark.parametrize("kind", ["exponential", "gamma", "noncentral_chi_squared"])
    def test_area_far_below_the_mean(self, kind):
        # the area tilt reaches -1e300, where d2L squared a2 and raised OverflowError; exponential:1
        # has I2(z) = log(1/z) - 2 + O(z log(1/z)), and gamma:2,2 twice that (phi(a) = 2 phi_exp(a/2))
        model = MODELS[[m.kind for m in MODELS].index(kind)]
        levels = (1e-100, 1e-200, 1e-300)
        values = [marginal_I2(model, z * model.mean).value for z in levels]
        assert all(math.isfinite(v) for v in values) and values[0] < values[1] < values[2]
        if kind != "noncentral_chi_squared":
            shape = 2.0 if kind == "gamma" else 1.0
            assert values == pytest.approx([shape * (math.log(1.0 / z) - 2.0) for z in levels], rel=1e-14)
        # the strip {z1 - z2 <= 1e-300} is the reflected area line at 1e-300
        strip = ld_event_rate(model, HalfPlane((-1.0, 1.0), -1e-300), 100.0)
        assert strip == pytest.approx(marginal_I2(model, 1e-300).value, rel=1e-14)

    @pytest.mark.parametrize("kind", ["exponential", "gamma", "noncentral_chi_squared"])
    def test_joint_rate_far_below_the_mean(self, kind):
        # the optimal tilt reaches -1e300, where H12 and H22 fall out of the doubles; exponential:1
        # matches the independent rate_ld_poisson and gamma:2,2 is twice it.  Inverse-Gaussian is
        # left out: its area tilt 2/(9 z2^2) overflows
        model = MODELS[[m.kind for m in MODELS].index(kind)]
        for points in ([(1.0, z) for z in (1e-100, 1e-200, 1e-300)], [(z, 0.1 * z) for z in (1e-100, 1e-200, 1e-300)]):
            values = [rate_ld(model, c1 * model.mean, c2 * model.mean).value for c1, c2 in points]
            assert all(math.isfinite(v) for v in values) and values[0] < values[1] < values[2]
            if kind != "noncentral_chi_squared":
                shape = 2.0 if kind == "gamma" else 1.0
                exact = [shape * rate_ld_poisson(1.0, c1, c2).value for c1, c2 in points]
                assert values == pytest.approx(exact, rel=1e-14, abs=0.0)

    def test_joint_rate_whose_tilt_leaves_the_doubles_raises(self):
        # the inverse-Gaussian area tilt at z2 = 1e-300 is about -2e599: RootError, neither a value
        # from the last tilt that the doubles hold nor a line search without end
        with pytest.raises(RootError):
            rate_ld(IG1, IG1.mean, 1e-300 * IG1.mean)


class TestRateZero:
    def test_zero_at_lln_point(self):
        for m in builtin_models():
            mean = m.mean
            res = rate_ld(m, mean, 0.5 * mean)
            assert res.value <= 1e-10
            assert abs(res.argmax_tilt[0]) < 1e-6
            assert abs(res.argmax_tilt[1]) < 1e-6

    def test_positive_away_from_lln(self):
        for m in builtin_models():
            mean = m.mean
            assert rate_ld(m, 1.5 * mean, 0.75 * mean).value > 1e-3


class TestRateValues:
    def test_spec_example_value(self):
        # midline point (2, 1): the area tilt vanishes, value 1 - log 2
        res = rate_ld(EXP1, 2.0, 1.0)
        assert res.value == pytest.approx(1.0 - math.log(2.0), abs=1e-10)
        assert abs(res.argmax_tilt[1]) < 1e-8

    def test_midline_reduces_to_marginal(self):
        # on 2*z2 = z1 the bivariate rate equals the passage-time rate
        for m in builtin_models():
            for z1 in (0.6, 1.5, 2.5):
                joint = rate_ld(m, z1, 0.5 * z1).value
                assert joint == pytest.approx(phi_star(m, z1).value, abs=1e-8)

    @pytest.mark.parametrize(
        "z1,z2,a_range",
        [
            (2.0, 1.4, ((-6.0, 0.9), (-1.0, 4.0))),
            (0.7, 0.5, ((-8.0, 0.9), (-1.0, 6.0))),
            (1.5, 0.4, ((-2.0, 0.9), (-8.0, 1.0))),
        ],
    )
    def test_against_grid_search(self, z1, z2, a_range):
        val = rate_ld(EXP1, z1, z2).value
        approx = grid_search_rate(EXP1, z1, z2, *a_range)
        assert val >= approx - 1e-9          # grid can only undershoot the sup
        assert val == pytest.approx(approx, abs=2e-3)

    def test_gradient_stationarity_at_optimum(self):
        from renewal_ldp import lambda_grad

        for m in builtin_models():
            res = rate_ld(m, 1.4 * m.mean, 0.6 * m.mean)
            assert res.converged
            g = lambda_grad(m, *res.argmax_tilt)
            assert abs(g[0] - 1.4 * m.mean) < 1e-7
            assert abs(g[1] - 0.6 * m.mean) < 1e-7

    @pytest.mark.parametrize("rate", [1e-3, 1e3, 1e6])
    @pytest.mark.parametrize("c1, c2", [(2.0, 0.5), (0.6, 0.2), (3.0, 2.0)])
    def test_free_of_the_rate(self, rate, c1, c2):
        # holding times scale by 1/rate and the rate function does not move; the outer search
        # starts one domain boundary below 0, so its cost does not grow with the rate either
        # (a start one unit below took 134-448 iterations here instead of 94-122)
        unit = rate_ld(EXP1, c1, c2)
        res = rate_ld(make_model("exponential", {"lam": rate}), c1 / rate, c2 / rate)
        assert res.value == pytest.approx(unit.value, rel=1e-14, abs=0.0)
        assert res.iterations <= unit.iterations + 10

    @given(z1=st.floats(0.4, 3.0), t=st.floats(0.1, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_dominates_moderate_quadratic_near_mean(self, z1, t):
        # the rate is nonnegative and finite on the cone interior
        z2 = z1 * t
        v = rate_ld(EXP1, z1, z2).value
        assert v >= 0.0
        assert math.isfinite(v)


def exact_pair(z1, f):
    """An area z2 near f*z1 whose reflection z1 - z2 is exact in both directions."""
    c = z1 - f * z1
    return z1 - c, c


class TestConeEdges:
    """The whole support cone of all four models, edges included."""

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
    def test_edges_infinite(self, model):
        for z1 in (0.5, 1.5):
            for z2 in (0.0, z1):
                res = rate_ld(model, z1, z2)
                assert res.value == INF
                assert res.on_boundary

    @given(kind=st.integers(0, 3), log_z1=st.floats(-2.5, 2.5), log_f=st.floats(-8.0, -0.3),
           upper=st.booleans(), log_a2=st.floats(-6.0, 4.0), a2_sign=st.booleans(),
           log_gap=st.floats(-12.0, 0.5))
    @settings(max_examples=200, deadline=None)
    def test_weak_duality(self, kind, log_z1, log_f, upper, log_a2, a2_sign, log_gap):
        # I(z) >= a.z - L(a) at every tilt of D(L), down to z2/z1 = 1e-8 from both edges
        model = MODELS[kind]
        z1 = model.mean * math.exp(log_z1)
        f = 10.0**log_f
        z2 = z1 * (1.0 - f if upper else f)
        value = rate_ld(model, z1, z2).value
        assert 0.0 <= value < INF
        a2 = (1.0 if a2_sign else -1.0) * 10.0**log_a2
        top = model.domain.boundary * (1.0 - 10.0**log_gap)
        a1 = top if a2 < 0.0 else top - a2
        assume(in_lambda_domain(model, a1, a2))
        assert value >= a1 * z1 + a2 * z2 - lambda_eval(model, a1, a2) - 1e-10 * max(1.0, value)

    @given(kind=st.integers(0, 3), log_z1=st.floats(-2.5, 2.5), log_f=st.floats(-8.0, -0.3))
    @example(kind=0, log_z1=-0.0625, log_f=-0.3)  # f = 0.501: z2 is the folded side
    @settings(max_examples=60, deadline=None)
    def test_reflection(self, kind, log_z1, log_f):
        # I(z1, z2) = I(z1, z1 - z2), with the tilt mapped by (a1, a2) -> (a1 + a2, -a2)
        # from the side z2 <= z1/2, which rate_ld solves unfolded: the folded side's
        # a1 + a2 is a rounded sum, and mapping it back need not return a1 exactly
        model = MODELS[kind]
        z1 = model.mean * math.exp(log_z1)
        z2, c = exact_pair(z1, 10.0**log_f)
        if z2 > 0.5 * z1:
            z2, c = c, z2
        low, high = rate_ld(model, z1, z2), rate_ld(model, z1, c)
        assert low.value == pytest.approx(high.value, rel=1e-9)
        (a1, a2), (b1, b2) = low.argmax_tilt, high.argmax_tilt
        assert (b1, b2) == (a1 + a2, -a2)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
    def test_exponential_identity(self, lam):
        # I = phi* + kappa* for exponential holding times, by both solvers
        model = make_model("exponential", {"lam": lam})
        edges = np.geomspace(1e-3, 0.5, 12)
        near_midline = 0.5 - np.array([1e-2, 1e-4, 1e-6])
        fractions = np.concatenate([edges, 1.0 - edges, near_midline, 1.0 - near_midline])
        for z1 in (0.5, 1.5, 3.0):
            for f in fractions:
                z2 = float(f * z1)
                oracle = phi_star(model, z1).value + kappa_star(z2, z1).value
                assert rate_ld(model, z1, z2).value == pytest.approx(oracle, abs=1e-10)
                assert rate_ld_poisson(lam, z1, z2).value == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("z1,z2,frozen", [
        # scipy L-BFGS-B over a1 <= 1/2, a2 <= 0 with L by scipy.integrate.quad,
        # best of four starts; both sit on the face a1 = mu^2/2, where the
        # optimum in a2 gives the exact value z1/2 - 1 + 2/(9 z2)
        (1.5, 0.3, 0.49074074074074076),
        (1.5, 0.015, 14.564814814779286),
    ])
    def test_inverse_gaussian_face(self, z1, z2, frozen):
        res = rate_ld(IG1, z1, z2)
        assert res.value == pytest.approx(frozen, rel=1e-11)
        assert res.argmax_tilt[0] == IG1.domain.boundary
        assert lambda_grad(IG1, *res.argmax_tilt)[1] == pytest.approx(z2, rel=1e-12)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
    def test_marginal_I2_against_dense_scan(self, model):
        # inf over z1 of the joint rate, scanned densely, at z2 = 0.2 * mean
        z2 = 0.2 * model.mean
        i2 = marginal_I2(model, z2).value
        scan = min(rate_ld(model, float(z1), z2).value
                   for z1 in np.linspace(z2, 3.0 * model.mean, 2000)[1:])
        assert i2 <= scan + 1e-12
        assert i2 == pytest.approx(scan, abs=2e-3)


class TestEdgesAndMidline:
    """rate_ld near the cone's edges and its midline."""

    @given(kind=st.integers(0, 3), log_z1=st.floats(-2.5, 2.5), anchor=st.sampled_from([0.0, 0.5, 1.0]),
           log_d=st.floats(-6.0, -0.31), upward=st.booleans(), log_a2=st.floats(-6.0, 4.0),
           a2_sign=st.booleans(), log_gap=st.floats(-12.0, 0.5))
    @settings(max_examples=150, deadline=None)
    # 3e-5 below the noncentral chi-squared midline, where L's closed form carries 1e-16 of absolute
    # error against a roundoff of g of 2e-19, so that g alone cannot tell a Newton step's gain
    @example(kind=2, log_z1=0.0, anchor=0.5, log_d=-4.5, upward=False, log_a2=0.0, a2_sign=False, log_gap=0.0)
    def test_duality_and_reflection_near_the_edges_and_the_midline(
            self, kind, log_z1, anchor, log_d, upward, log_a2, a2_sign, log_gap):
        # z2/z1 down to 1e-6 from either edge and from the midline
        model = MODELS[kind]
        z1 = model.mean * math.exp(log_z1)
        f = anchor + (10.0**log_d if upward else -(10.0**log_d))
        assume(0.0 < f < 1.0)
        z2, c = exact_pair(z1, f)
        res = rate_ld(model, z1, z2)
        assert 0.0 <= res.value < INF
        # no tilt of D(L) beats the value
        b2 = (1.0 if a2_sign else -1.0) * 10.0**log_a2
        top = model.domain.boundary * (1.0 - 10.0**log_gap)
        b1 = top if b2 < 0.0 else top - b2
        if in_lambda_domain(model, b1, b2):
            bound = b1 * z1 + b2 * z2 - lambda_eval(model, b1, b2)
            assert res.value >= bound - 1e-10 * max(1.0, res.value)
        # the reflection, with the tilt mapped exactly from the unfolded side z2 <= z1/2,
        # whose tilt attains the value
        if z2 > 0.5 * z1:
            z2, c = c, z2
        low, high = rate_ld(model, z1, z2), rate_ld(model, z1, c)
        assert low.value == pytest.approx(high.value, rel=1e-9)
        (a1, a2), (b1, b2) = low.argmax_tilt, high.argmax_tilt
        assert (b1, b2) == (a1 + a2, -a2)
        assert low.value == pytest.approx(a1 * z1 + a2 * z2 - lambda_eval(model, a1, a2),
                                          rel=1e-12, abs=1e-14)

    def test_fewer_iterations_on_a_fixed_grid(self):
        # the 200-point grid of scripts/rate_ld_cost.py; the bound is a quarter below 132.8
        # iterations a call
        cold_mean = 132.795
        grid = [(m, c1 * m.mean, f * c1 * m.mean) for m in MODELS
                for c1 in (0.6, 1.2, 2.0, 3.0, 5.0)
                for f in (1e-6, 0.01, 0.1, 0.2, 0.35, 0.5, 0.65, 0.9, 0.99, 1.0 - 1e-6)]
        mean = sum(rate_ld(m, z1, z2).iterations for m, z1, z2 in grid) / len(grid)
        assert mean <= 0.75 * cold_mean


def gamma_like(kind, r):
    """exponential:r, gamma:2,r or inverse_gaussian:r."""
    return model_of(kind, 2.0, r) if kind == "gamma" else model_of(kind, r)


class TestScaleFree:
    """The rates do not depend on the scale of the model, down to a boundary of 1e-24."""

    @pytest.mark.parametrize("r", [1e-12, 1e-6, 1.0, 1e6])
    def test_gamma_probe(self, r):
        # a gradient switched at an absolute |a2| returned 0 here at r = 1e-6, after 427 iterations
        res = rate_ld(model_of("gamma", 2.0, r), 3.0 / r, 1.0 / r)
        assert res.value == pytest.approx(0.5343642983625092, rel=1e-14, abs=0.0)
        assert res.iterations <= 80

    @pytest.mark.parametrize("r", [1e-12, 1e-6, 1.0, 1e6])
    def test_exponential_probe(self, r):
        res = rate_ld(model_of("exponential", r), 0.7 / r, 0.21 / r)
        assert res.value == pytest.approx(0.3095205069429183, rel=1e-14, abs=0.0)
        assert res.iterations <= 80

    def test_inverse_gaussian_marginal_probe(self):
        # 16% low with a gradient switched at an absolute |a2|; phi_mu(a) = mu phi_1(a/mu^2), so
        # I_mu(z/mu) = mu I_1(z)
        model = model_of("inverse_gaussian", 1e-3)
        res = marginal_I2(model, 0.8 * model.mean)
        assert res.value == pytest.approx(7.892357102764753e-05, rel=1e-14, abs=0.0)
        assert res.value == pytest.approx(1e-3 * marginal_I2(IG1, 0.8).value, rel=1e-14, abs=0.0)

    def test_probes_against_40_digits(self):
        # stationarity of a.z - L(a) solved by mpmath at 40 digits, L by mpmath quadrature
        def rate(phi, z1, z2, start):
            def L(a1, a2):
                return mpmath.quad(lambda y: phi(a1 + a2 * y), [0, 1])

            def grad(a1, a2):
                end = phi(a1 + a2)
                return (end - phi(a1)) / a2 - z1, (end - L(a1, a2)) / a2 - z2

            a1, a2 = mpmath.findroot(grad, start)
            return a1 * z1 + a2 * z2 - L(a1, a2)

        with mpmath.workdps(40):
            gamma = rate(lambda a: -2 * mpmath.log(1 - a), 3, 1,
                         rate_ld(model_of("gamma", 2.0, 1.0), 3.0, 1.0).argmax_tilt)
            exponential = rate(lambda a: -mpmath.log(1 - a), mpmath.mpf("0.7"), mpmath.mpf("0.21"),
                               rate_ld(EXP1, 0.7, 0.21).argmax_tilt)
            ig = lambda a: 1 - mpmath.sqrt(1 - 2 * a)  # noqa: E731
            t = mpmath.findroot(lambda t: (ig(t) - mpmath.quad(lambda y: ig(t * y), [0, 1])) / t
                                - mpmath.mpf("0.8"), (0.01, 0.5), solver="illinois")
            marginal = t * mpmath.mpf("0.8") - mpmath.quad(lambda y: ig(t * y), [0, 1])
        assert 0.5343642983625092 == pytest.approx(float(gamma), rel=1e-13, abs=0.0)
        assert 0.3095205069429183 == pytest.approx(float(exponential), rel=1e-13, abs=0.0)
        assert marginal_I2(IG1, 0.8).value == pytest.approx(float(marginal), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("kind", ["exponential", "gamma", "inverse_gaussian"])
    @pytest.mark.parametrize("r", [1e-12, 1e-6, 1e3, 1e6])
    def test_scaling_identities(self, kind, r):
        # holding times scale by 1/r: I_r(z/r) = I_1(z) for exponential and gamma, and
        # I_mu(z/mu) = mu I_1(z) for the inverse-Gaussian; rate_ld and marginal_I2 both, at
        # most 20 more iterations than at scale 1.  Points in units of the scale-1 mean.
        unit, scaled = gamma_like(kind, 1.0), gamma_like(kind, r)
        factor = r if kind == "inverse_gaussian" else 1.0
        for c1, c2 in [(3.0, 1.0), (0.7, 0.21), (1.5, 0.1), (5.0, 1.5), (1.0, 0.2), (2.0, 1.2)]:
            z1, z2 = c1 * unit.mean, c2 * unit.mean
            for one, other in [(rate_ld(unit, z1, z2), rate_ld(scaled, z1 / r, z2 / r)),
                               (marginal_I2(unit, z2), marginal_I2(scaled, z2 / r))]:
                assert other.value == pytest.approx(factor * one.value, rel=1e-14, abs=0.0)
                assert other.iterations <= one.iterations + 20


class TestNewtonStepsFreeOfTheScale:
    @pytest.mark.parametrize("kind", ["exponential", "gamma"])
    @pytest.mark.parametrize("r", [1e-12, 1e-6, 1e3, 1e6])
    def test_within_one_step_of_scale_one(self, kind, r):
        # Newton's method is affine-invariant: the scaled problem takes the same steps, so the
        # counts move by at most the last step's roundoff
        unit, scaled = gamma_like(kind, 1.0), gamma_like(kind, r)
        for c1, c2 in [(3.0, 1.0), (0.7, 0.21), (1.5, 0.1), (5.0, 1.5), (1.0, 0.2), (2.0, 1.2)]:
            z1, z2 = c1 * unit.mean, c2 * unit.mean
            one, other = rate_ld(unit, z1, z2), rate_ld(scaled, z1 / r, z2 / r)
            assert one.method == other.method == "newton"
            assert abs(other.iterations - one.iterations) <= 1


def folded_optimum(model, z1, w):
    """The tilt of rate_ld at (z1, w), w < z1/2, with d1L and d2L there."""
    res = rate_ld(model, z1, w)
    return res.argmax_tilt, lambda_grad(model, *res.argmax_tilt)


class TestNewtonAscent:
    """rate_ld by one projected Newton ascent on g(a) = a1 z1 + a2 w - L(a) over a2 < 0."""

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
    def test_stationary_at_interior_optima(self, model):
        # grad L(a*) = (z1, w) where a1* lies a thousandth of the boundary below the top of the
        # search; closer to it d1L changes by 1e13 per unit of a1, and a1 is a double
        top = model.domain.search_top(finite_at_face=True)
        interior = 0
        for c1 in (0.3, 0.6, 1.2, 2.0, 3.0, 5.0):
            for f in (0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.49):
                z1 = c1 * model.mean
                (a1, _), (d1, d2) = folded_optimum(model, z1, f * z1)
                assert d2 == pytest.approx(f * z1, rel=1e-12, abs=0.0)
                if top - a1 > 1e-3 * top:
                    interior += 1
                    assert d1 == pytest.approx(z1, rel=1e-12, abs=0.0)
        assert interior >= (8 if model.domain.boundary_closed else 30)

    @pytest.mark.parametrize("c1", [0.3, 1.2, 5.0])
    @pytest.mark.parametrize("f", [1e-6, 0.02, 0.2, 0.3])
    def test_kkt_on_the_inverse_gaussian_face(self, c1, f):
        # on the closed face a1 = mu^2/2 the optimum has d1L <= z1 and d2L = w
        z1 = c1 * IG1.mean
        (a1, _), (d1, d2) = folded_optimum(IG1, z1, f * z1)
        assert a1 == IG1.domain.boundary
        assert d1 <= z1 * (1.0 + 1e-12)
        assert d2 == pytest.approx(f * z1, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("model, z1, f", [(EXP1, 1.0, 0.0256)], ids=["exponential-1"])
    def test_resumes_below_the_top(self, model, z1, f, monkeypatch):
        # a step lands on the top of the search, whose optimum has d1L > z1: the ascent goes on below
        # it and ends stationary
        top, tops = model.domain.search_top(finite_at_face=False), []

        def second_order(m, a1, a2):
            tops.append(a1 == top)
            return second_order.inner(m, a1, a2)

        second_order.inner = rates._second_order
        monkeypatch.setattr(rates, "_second_order", second_order)
        (a1, _), (d1, d2) = folded_optimum(model, z1, f * z1)
        assert any(tops) and a1 < top
        assert d2 == pytest.approx(f * z1, rel=1e-12, abs=0.0)

    def test_where_g_cancels_against_40_digits(self):
        # noncentral chi-squared:1,1 at (2, 0.94), row 21 of the `rate` grid 0.5:3:6;0.1:1.5:6, where a1 z1
        # and a2 w cancel 30:1 in g.  The tilt is the optimum: g there, with L by quadrature at 50
        # digits, meets the 40-digit rate to 1e-15.  The value is off by the error of L's closed form
        # at that tilt (6e-17 of 2.8e-3) and the rounding of g's terms, 1.9e-14 of the value
        phi = lambda a: a / (1 - 2 * a) - mpmath.log(1 - 2 * a) / 2  # noqa: E731
        model, z1, z2 = model_of("noncentral_chi_squared", 1.0, 1.0), 2.0, 0.9399999999999998
        res = rate_ld(model, z1, z2)
        a1, a2 = res.argmax_tilt
        with mpmath.workdps(50):
            def L(b1, b2):
                return mpmath.quad(lambda y: phi(b1 + b2 * y), [0, 1])

            def grad(b1, b2):
                return (phi(b1 + b2) - phi(b1)) / b2 - z1, (phi(b1 + b2) - L(b1, b2)) / b2 - z2

            b1, b2 = mpmath.findroot(grad, (a1, a2))
            exact = b1 * z1 + b2 * z2 - L(b1, b2)
            at_tilt = mpmath.mpf(a1) * z1 + mpmath.mpf(a2) * z2 - L(a1, a2)
            table_error = abs(lambda_eval(model, a1, a2) - L(a1, a2))
        assert float(at_tilt) == pytest.approx(float(exact), rel=1e-15, abs=0.0)
        assert abs(res.value - float(exact)) <= table_error + 4e-16 * (abs(a1 * z1) + abs(a2 * z2))
        assert res.value == pytest.approx(float(exact), rel=2e-14, abs=0.0)

    def test_midline_is_phi_star(self):
        for model in MODELS:
            res, mid = rate_ld(model, 1.5 * model.mean, 0.75 * model.mean), phi_star(model, 1.5 * model.mean)
            assert (res.value, res.argmax_tilt, res.method) == (mid.value, (mid.argmax_tilt[0], 0.0), mid.method)

    def test_seeded_sweep(self):
        # 3,600 points: z1 from 0.02 to 50 times the mean, area fractions from 1e-12 to 1 - 1e-12,
        # scales 1e-12 to 1e6 on six models (about 1 s).  No call raises; each value is finite,
        # the exponential ones within 1e-13 of the independent rate_ld_poisson, and d2L = w at
        # the tilt of every folded point.  The inverse-Gaussian rate is in closed form
        rng = np.random.default_rng(3600)
        kinds = [("exponential", 1.0), ("gamma", 2.0), ("inverse_gaussian", None),
                 ("noncentral_chi_squared", (1.0, 1.0)), ("gamma", 0.5), ("noncentral_chi_squared", (3.0, 0.5))]
        steps = []
        for i in range(3600):
            kind, param = kinds[i % 6]
            scale = 10.0 ** rng.uniform(-12.0, 6.0)
            if kind == "noncentral_chi_squared":
                model = model_of(kind, *param)
            elif kind == "gamma":
                model = model_of(kind, param, 2.0 * scale)
            else:
                model = model_of(kind, scale)
            z1 = model.mean * 10.0 ** rng.uniform(math.log10(0.02), math.log10(50.0))
            f = 10.0 ** rng.uniform(-12.0, math.log10(0.5))
            z2 = z1 - f * z1 if rng.random() < 0.5 else f * z1
            res = rate_ld(model, z1, z2)
            assert 0.0 < res.value < INF
            if kind == "inverse_gaussian":
                assert (res.method, res.iterations) == ("closed_form", 0)
            else:
                assert res.method == "newton"
                steps.append(res.iterations)
            if kind == "exponential":
                assert res.value == pytest.approx(rate_ld_poisson(model.domain.boundary, z1, z2).value, rel=1e-13)
            if z2 <= 0.5 * z1:
                assert lambda_grad(model, *res.argmax_tilt)[1] == pytest.approx(z2, rel=1e-12)
        assert np.mean(steps) < 30 and max(steps) <= 80


def mp_inverse_gaussian_rate(mu, z1, w):
    """The inverse-Gaussian rate at (z1, w), w < z1/2, from the stationarity of a.z - L(a) at 40 digits.

    L by quadrature, in s = sqrt(mu^2 - 2a) at the top (s1) and the foot (s0) of the segment, so that
    every tilt lies in D(L): first on the closed face s1 = 0, where d2L = w alone fixes s0; if d1L <= z1
    there, that is the optimum (g is concave), else the optimum is the interior root of grad L = z.
    The start of each root search is the closed form's tilt in these coordinates.
    """
    with mpmath.workdps(40):
        mu, z1, w = mpmath.mpf(mu), mpmath.mpf(z1), mpmath.mpf(w)

        def terms(s0, s1):  # (g, d1L - z1, d2L - w) at the tilt a1 = (mu^2 - s1^2)/2, a2 = (s1^2 - s0^2)/2
            a2 = (s1**2 - s0**2) / 2
            L = mpmath.quad(lambda y: mu - mpmath.sqrt(s1**2 - 2 * a2 * y), [0, 1])
            return (mu**2 - s1**2) / 2 * z1 + a2 * w - L, (s1 - s0) / a2 - z1, (mu - s0 - L) / a2 - w

        s0 = mpmath.findroot(lambda s: terms(s, 0)[2], 2 / (3 * w))
        g, slack, _ = terms(s0, 0)
        if slack <= 0:
            return g
        s1 = (6 * w / z1 - 2) / z1
        s0, s1 = mpmath.findroot(lambda s0, s1: terms(s0, s1)[1:], (2 / z1 - s1, s1))
        return terms(s0, s1)[0]


def around_the_switch(z1):
    """The largest w with 3w <= z1 in floats, where the closed form leaves the face, and a double either side."""
    w = z1 / 3.0
    while 3.0 * w > z1:
        w = math.nextafter(w, -INF)
    while 3.0 * math.nextafter(w, INF) <= z1:
        w = math.nextafter(w, INF)
    return [math.nextafter(w, -INF), w, math.nextafter(w, INF)]


class TestInverseGaussianClosedForm:
    """The inverse-Gaussian joint rate phi*(z1) + J(z1, w): on the face a1 = mu^2/2 for w <= z1/3, else inside."""

    @pytest.mark.parametrize("mu", [0.3, 1.0, 4.0])
    def test_against_40_digit_stationarity(self, mu):
        # 11 points per mu, on both branches and on either side of the switch w = z1/3
        model = model_of("inverse_gaussian", mu)
        points = [(c1 * model.mean, f * c1 * model.mean) for c1 in (0.5, 3.0) for f in (0.05, 0.3, 0.4, 0.48)]
        points += [(2.0 * model.mean, w) for w in around_the_switch(2.0 * model.mean)]
        for z1, w in points:
            res = rate_ld(model, z1, w)
            assert (res.method, res.iterations) == ("closed_form", 0)
            assert res.value == pytest.approx(float(mp_inverse_gaussian_rate(mu, z1, w)), rel=1e-14, abs=0.0)

    def test_tilt_on_the_face_and_inside(self):
        # at (2, 0.5) the face tilt (mu^2/2, -2/(9 w^2)); at (2, 0.8) the interior one, where grad L = z;
        # the reflected point takes the reflected tilt
        assert rate_ld(IG1, 2.0, 0.5).argmax_tilt == (0.5, -2.0 / 9.0 / 0.25)
        for z2 in (0.8, 1.2):
            res = rate_ld(IG1, 2.0, z2)
            assert lambda_grad(IG1, *res.argmax_tilt) == pytest.approx((2.0, z2), rel=1e-14, abs=0.0)
        (a1, a2), (b1, b2) = rate_ld(IG1, 2.0, 0.8).argmax_tilt, rate_ld(IG1, 2.0, 1.2).argmax_tilt
        assert (b1, b2) == (a1 + a2, -a2)

    def test_levels_where_the_ascent_did_not_converge(self):
        # the Newton ascent's a2-only steps on the face raised RootError after 2100 steps at these
        # 16 levels; on the face the rate at mu = 1 is z1/2 - 1 + 2/(9 w)
        for z1 in np.geomspace(2e7, 1.6e8, 8):
            for f in (0.3, 0.7):
                z1 = float(z1)
                res = rate_ld(IG1, z1, f * z1)
                w = min(f * z1, z1 - f * z1)
                assert res.value == pytest.approx(z1 / 2.0 - 1.0 + 2.0 / (9.0 * w), rel=1e-15, abs=0.0)
        # 40-digit values at three of them
        for z1, z2, exact in [(1e8, 3e7, 49999999.00000001), (2e7, 6e6, 9999999.000000037),
                              (1.6e8, 1.12e8, 79999999.0)]:
            assert rate_ld(IG1, z1, z2).value == pytest.approx(exact, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("f", [0.3, 0.45])
    def test_huge_level(self, f):
        # z1 = 1e200 times the mean: 5e199, as from the ascent, where (mu z1 - 1)^2 and z1^3 overflow
        assert rate_ld(IG1, 1e200, f * 1e200).value == pytest.approx(5e199, rel=1e-13, abs=0.0)


class TestPoissonPath:
    def test_equivalence_with_newton(self):
        for z1 in np.linspace(0.3, 3.0, 8):
            for t in np.linspace(0.1, 0.9, 8):
                z2 = float(z1 * t)
                a = rate_ld(EXP1, float(z1), z2).value
                b = rate_ld_poisson(1.0, float(z1), z2).value
                assert a == pytest.approx(b, abs=1e-8)

    def test_root_sign_matches_gamma(self):
        # area tilt sign: negative below the midline, positive above, zero on it
        below = rate_ld_poisson(1.0, 1.0, 0.25)
        above = rate_ld_poisson(1.0, 1.0, 0.75)
        on = rate_ld_poisson(1.0, 1.0, 0.5)
        assert below.argmax_tilt[1] < 0
        assert above.argmax_tilt[1] > 0
        assert on.argmax_tilt[1] == 0.0

    def test_requires_cone_interior(self):
        with pytest.raises(ValueError):
            rate_ld_poisson(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            rate_ld_poisson(1.0, 1.0, 1.0)

    def test_other_lambdas(self):
        for lam in (0.5, 3.0):
            m = make_model("exponential", {"lam": lam})
            for z1, z2 in [(1.0 / lam * 1.5, 1.0 / lam * 0.5), (0.4, 0.3)]:
                a = rate_ld(m, z1, z2).value
                b = rate_ld_poisson(lam, z1, z2).value
                assert a == pytest.approx(b, abs=1e-8)


class TestMarginals:
    def test_I1_equals_phi_star(self):
        for m in builtin_models():
            for z1 in (0.5, 1.0, 2.0):
                assert marginal_I1(m, z1).value == phi_star(m, z1).value

    def test_I2_zero_at_half_mean(self):
        for m in builtin_models():
            assert marginal_I2(m, 0.5 * m.mean).value == pytest.approx(0.0, abs=1e-10)

    def test_I2_infinite_negative(self):
        assert marginal_I2(EXP1, -0.5).value == INF

    def test_I2_infinite_at_zero(self):
        for m in builtin_models():
            assert marginal_I2(m, 0.0).value == INF

    def test_I2_below_joint(self):
        # I2(z2) = inf over z1 of the joint rate, so it never exceeds it
        for z2 in (0.2, 0.8, 1.5):
            i2 = marginal_I2(EXP1, z2).value
            for z1 in (max(2 * z2, 1.0), 3 * z2 + 0.5):
                assert i2 <= rate_ld(EXP1, z1, z2).value + 1e-8

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
    def test_I2_equals_nested_minimum(self, model):
        # contraction: I2(z2) = min over z1 of the joint rate, found here by a
        # bounded scalar search around the solver
        for f in (0.2, 0.35, 0.8):
            z2 = f * model.mean
            nested = minimize_scalar(lambda z1: rate_ld(model, z1, z2).value,
                                     bounds=(z2 * (1.0 + 1e-9), 20.0 * model.mean),
                                     method="bounded", options={"xatol": 1e-10})
            assert marginal_I2(model, z2).value == pytest.approx(nested.fun, rel=1e-10)

    def test_I2_against_coarse_scan(self):
        z2 = 1.2
        i2 = marginal_I2(EXP1, z2).value
        scan = min(
            rate_ld(EXP1, float(z1), z2).value
            for z1 in np.linspace(z2 + 1e-6, 8.0, 400)
        )
        assert i2 <= scan + 1e-9
        assert i2 == pytest.approx(scan, abs=1e-3)


class TestLineRate:
    """line_rate: the least joint rate on a line, sup_t {t c - L(t n)}; marginal_I2 is its z2 line."""

    # (kind, z2 in multiples of the mean, value, tilt t of (0, t), Newton steps) of marginal_I2,
    # with d2L from the table's segment means, on both sides of the zero t = 0 at z2 = mean/2;
    # the inverse-Gaussian rows from 1.5 on sit on the closed face t = mu^2/2.  The values and tilts
    # are those of the Brent root search that dual_newton replaced, but in the rows marked: next
    # to the mean (0.45 and 0.55) g is about 0.003, and the closed forms of L and d2L carry roundoff
    # of some 1e-16 there, so over the doubles within 60 ulps of the optimal tilt g moves by up to
    # 1e-13 of itself and d2L - z2 by up to 3.5e-15.  Which double a solver stops at is then roundoff:
    # over 40 levels from 0.4 to 0.6 the two solvers agree to 1e-14 at 10-14 per kind, and both are
    # as close to the 40-digit truth (test_marginal_I2_frozen_against_40_digits)
    FROZEN_I2 = [
        ("exponential", 0.05, 1.2106692581796352, -16.535689406843098, 8),
        ("exponential", 0.3, 0.08650424714787508, -1.061757737119452, 5),
        # Brent: value 0.004055386599858574
        ("exponential", 0.45, 0.004055386599858657, -0.16884938949242206, 4),
        # Brent: value 0.003489220980229288, tilt 0.13473174103486218
        ("exponential", 0.55, 0.0034892209802294405, 0.13473174103486407, 4),
        ("exponential", 1.0, 0.21621659550187322, 0.6838026237520206, 6),
        ("exponential", 1.5, 0.6100669239693541, 0.8609169222603422, 6),
        ("exponential", 3.0, 2.019869140883343, 0.978779993029125, 7),
        ("inverse_gaussian", 0.05, 3.5160623391752868, -87.51773828152298, 9),
        ("inverse_gaussian", 0.3, 0.10566524021882334, -1.4411506238355751, 5),
        # Brent: value 0.004220272300838698
        ("inverse_gaussian", 0.45, 0.004220272300838809, -0.17929303585267617, 4),
        ("inverse_gaussian", 0.55, 0.003367632713317123, 0.12777545930809997, 4),
        ("inverse_gaussian", 1.0, 0.16891768638357046, 0.47683362468102014, 7),
        ("inverse_gaussian", 1.5, 0.41666666666666663, 0.5, 0),
        ("inverse_gaussian", 3.0, 1.1666666666666665, 0.5, 0),
        ("noncentral_chi_squared", 0.05, 0.7012925464970228, -4.500000000000001, 8),
        ("noncentral_chi_squared", 0.3, 0.05541281188299532, -0.3333333333333337, 5),
        ("noncentral_chi_squared", 0.45, 0.0026802578289130963, -0.05555555555555545, 3),
        # Brent: value 0.00234491009783757
        ("noncentral_chi_squared", 0.55, 0.0023449100978375284, 0.04545454545454546, 3),
        ("noncentral_chi_squared", 1.0, 0.15342640972002736, 0.25000000000000006, 0),
        ("noncentral_chi_squared", 1.5, 0.4506938556659451, 0.3333333333333335, 6),
        ("noncentral_chi_squared", 3.0, 1.6041202653859725, 0.41666666666666674, 7),
        ("gamma", 0.05, 2.4213385163592704, -33.071378813686195, 8),
        ("gamma", 0.3, 0.17300849429575016, -2.123515474238904, 5),
        # Brent: value 0.008110773199717147
        ("gamma", 0.45, 0.008110773199717397, -0.33769877898484413, 4),
        # Brent: value 0.006978441960458576, tilt 0.26946348206972437
        ("gamma", 0.55, 0.006978441960458465, 0.2694634820697201, 4),
        ("gamma", 1.0, 0.43243319100374644, 1.3676052475040412, 6),
        ("gamma", 1.5, 1.2201338479387083, 1.7218338445206844, 6),
        ("gamma", 3.0, 4.039738281766686, 1.95755998605825, 7),
    ]

    @pytest.mark.parametrize("kind, level, value, t, iterations", FROZEN_I2)
    def test_marginal_I2_frozen(self, kind, level, value, t, iterations):
        model = MODELS[[m.kind for m in MODELS].index(kind)]
        res = marginal_I2(model, level * model.mean)
        assert res.value == pytest.approx(value, rel=1e-14, abs=0.0)
        assert res.argmax_tilt[1] == pytest.approx(t, rel=1e-14, abs=0.0)
        assert math.copysign(1.0, res.argmax_tilt[0]) == 1.0 and res.argmax_tilt[0] == 0.0
        assert res.iterations == iterations

    @pytest.mark.parametrize("kind, level, value, t, iterations", [row for row in FROZEN_I2 if row[4]])
    def test_marginal_I2_frozen_against_40_digits(self, kind, level, value, t, iterations):
        # the root of K'(t) = z2 with K(t) = L(0, t) = int_0^1 phi(t y) dy, by mpmath quadrature of the
        # CGF.  Next to the mean both are held to the roundoff of L's closed forms (see FROZEN_I2): over
        # 40 levels from 0.4 to 0.6 of the mean Brent's tilts were up to 1.1e-12 off, the Newton ones 2.1e-14
        model = MODELS[[m.kind for m in MODELS].index(kind)]
        phi, dphi = {"exponential": (lambda a: -mpmath.log1p(-a), lambda a: 1 / (1 - a)),
                     "gamma": (lambda a: -2 * mpmath.log1p(-a / 2), lambda a: 2 / (2 - a)),
                     "inverse_gaussian": (lambda a: 1 - mpmath.sqrt(1 - 2 * a), lambda a: 1 / mpmath.sqrt(1 - 2 * a)),
                     "noncentral_chi_squared": (lambda a: a / (1 - 2 * a) - mpmath.log(1 - 2 * a) / 2,
                                                lambda a: 1 / (1 - 2 * a) ** 2 + 1 / (1 - 2 * a))}[kind]
        res = marginal_I2(model, level * model.mean)
        with mpmath.workdps(40):
            z2 = mpmath.mpf(level * model.mean)
            slope = lambda s: mpmath.quad(lambda y: y * dphi(s * y), [0, 1])
            root = mpmath.re(mpmath.findroot(lambda s: slope(s) - z2, mpmath.mpf(t)))  # real, though a step may
            exact = root * z2 - mpmath.quad(lambda y: phi(root * y), [0, 1])  # pass the inverse-Gaussian face
        assert res.value == pytest.approx(float(exact), rel=1e-13 if 0.4 < level < 0.6 else 1e-14, abs=0.0)
        assert res.argmax_tilt[1] == pytest.approx(float(root), rel=3e-14 if 0.4 < level < 0.6 else 2e-15, abs=0.0)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("level", [0.02, 0.3, 0.8, 2.0])
    def test_reflected_area_line(self, model, level):
        # I(z1, z2) = I(z1, z1 - z2) maps the line z1 - z2 = w onto z2 = w, with the tilt
        # (a1, a2) -> (a1 + a2, -a2); the line is the same for (n, c) and (-n, -c)
        w = level * model.mean
        area = marginal_I2(model, w)
        for normal, c in (((1.0, -1.0), w), ((-1.0, 1.0), -w)):
            res = line_rate(model, normal, c)
            assert res.value == pytest.approx(area.value, rel=1e-12)
            a1, a2 = res.argmax_tilt
            assert (a1 + a2, -a2) == pytest.approx(area.argmax_tilt, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("level", [0.6, 1.5])
    def test_near_vertical_lines_tend_to_phi_star(self, model, level):
        # a tilt of the normal below one ulp of n1 leaves t n no width at the top of the
        # search, where the gradient on the closed inverse-Gaussian face is not defined; such
        # a line is vertical
        c = level * model.mean
        vertical = phi_star(model, c).value
        for eps in (1e-9, 1e-12, 1e-15, 1.2e-16, 1e-16, 5e-17, 1e-17, 1e-100, 6e-261, 0.0):
            for sign in (1.0, -1.0):
                res = line_rate(model, (1.0, sign * eps), c)
                assert res.value == pytest.approx(vertical, rel=1e-14 + 4.0 * eps), (eps, sign)

    # the exact normals (-1, 1)/sqrt(2), n1 + n2 = 0, at c = -0.3 mean: the line z2 = z1 - 0.3 sqrt(2) mean
    ANTI_DIAGONAL = {"exponential": 0.009714576927591173, "gamma": 0.019429153855182346,
                     "inverse_gaussian": 0.010340453095808805, "noncentral_chi_squared": 0.006390085454937577}

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("degrees", [135, 315])
    @pytest.mark.parametrize("level", [-0.3, 0.3])
    def test_normals_next_to_the_anti_diagonal(self, model, degrees, level):
        # cos and sin of 135 and 315 degrees leave n1 + n2 a rounding residue, 1.1e-16 and -3.3e-16,
        # so the top of the search lies near 1e16: it was stepped down one ulp at a time (40 s), and
        # its size set brent's tolerance, so 135 degrees at -0.3 mean gave -0.0 on exponential:1
        normal = (math.cos(math.radians(degrees)), math.sin(math.radians(degrees)))
        exact_normal = tuple(math.copysign(1.0 / math.sqrt(2.0), n) for n in normal)
        c = level * model.mean
        start = time.perf_counter()
        res = line_rate(model, normal, c)
        assert time.perf_counter() - start < 0.1
        exact = line_rate(model, exact_normal, c).value
        if exact == INF:  # the tilted line meets the cone only near z1 = 2.7e15 mean
            assert res.value == INF or res.value >= 1e12
        else:
            assert exact == pytest.approx(self.ANTI_DIAGONAL[model.kind], rel=1e-14)
            assert res.value == pytest.approx(exact, rel=1e-12)

    @given(kind=st.integers(0, 3), angle=st.floats(0.0, 2.0 * math.pi), level=st.floats(0.01, 3.0),
           negative=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_any_line_of_the_plane(self, kind, angle, level, negative):
        # both signs of a line give one value: INF off the open cone, phi* on a vertical line,
        # else t c - L(t n) at a tilt t n of D(L), which no t of a coarse scan beats
        model = MODELS[kind]
        normal = (math.cos(angle), math.sin(angle))
        c = (-level if negative else level) * model.mean
        res = line_rate(model, normal, c)
        flipped = line_rate(model, (-normal[0], -normal[1]), -c)
        assert res.value == flipped.value and res.value >= 0.0
        if res.value == INF or len(res.argmax_tilt) == 1:
            return
        a1, a2 = res.argmax_tilt
        assert in_lambda_domain(model, a1, a2)
        t = a2 / normal[1]
        assert res.value == pytest.approx(max(t * c - lambda_eval(model, a1, a2), 0.0), rel=1e-9, abs=1e-12)
        for s in np.linspace(-4.0, 4.0, 41) * abs(t):
            if in_lambda_domain(model, s * normal[0], s * normal[1]):
                bound = s * c - lambda_eval(model, s * normal[0], s * normal[1])
                assert res.value >= bound - 1e-12 * max(1.0, abs(bound))


class TestConditionalRate:
    def test_nonnegative(self):
        for z1, z2 in [(1.0, 0.3), (2.0, 1.5), (0.5, 0.25)]:
            assert conditional_rate_J(EXP1, z1, z2) >= 0.0

    def test_zero_at_conditional_mean(self):
        # given z1, the conditional rate vanishes at z2 = z1/2
        for z1 in (0.5, 1.0, 2.0):
            assert conditional_rate_J(EXP1, z1, 0.5 * z1) == pytest.approx(0.0, abs=1e-8)

    def test_infinite_off_cone(self):
        assert conditional_rate_J(EXP1, 1.0, 1.5) == INF

    @pytest.mark.parametrize("spec, z1, fractions", [
        # I - I1 computes to -2 or -4 there, 1-2 ulps of I, where 1e-8 used to raise
        ("exponential:1", 1e16, [round(0.1 + 0.01 * k, 2) for k in range(40)]),
        ("gamma:2,2", 1e16, [0.49]),
        # the largest -J/(eps I) of the sweep that set J_ROUNDOFF: 67.1
        ("noncentral_chi_squared:1,1", 4.67548469024955e+36, [0.5001]),
    ])
    def test_roundoff_at_large_levels_clamps_to_zero(self, spec, z1, fractions):
        model = parse_model_spec(spec)
        for f in fractions:
            assert conditional_rate_J(model, z1, f * z1) == 0.0

    @pytest.mark.parametrize("z1, z2", [(1e16, 0.3e16), (1.0, 0.3)])
    def test_difference_beyond_roundoff_raises(self, monkeypatch, z1, z2):
        # with I1 set above I by 0.9 and by 1.1 times the bound max(1e-8, J_ROUNDOFF I)
        joint = rate_ld(EXP1, z1, z2).value
        bound = max(1e-8, rates.J_ROUNDOFF * joint)
        monkeypatch.setattr(rates, "marginal_I1", lambda model, z1: RateEvaluation(joint + 0.9 * bound))
        assert conditional_rate_J(EXP1, z1, z2) == 0.0
        monkeypatch.setattr(rates, "marginal_I1", lambda model, z1: RateEvaluation(joint + 1.1 * bound))
        with pytest.raises(ArithmeticError, match="conditional rate came out"):
            conditional_rate_J(EXP1, z1, z2)


class TestRateVsModerate:
    def test_quadratic_approximation_near_lln(self):
        # near the law-of-large-numbers point the full rate matches the
        # quadratic moderate rate of the centered displacement to third order
        for m in builtin_models():
            mean = m.mean
            for eps in (0.02, 0.05):
                z1, z2 = mean + eps, 0.5 * mean + 0.3 * eps
                full = rate_ld(m, z1, z2).value
                quad = psi_star(m, eps, 0.3 * eps)
                assert full == pytest.approx(quad, abs=20.0 * eps**3)
