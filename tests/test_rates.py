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
from renewal_ldp import models as models_module
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


def mp_noncentral_chi_squared_rate(lam, k, z1, w, tilt):
    """The noncentral chi-squared rate at (z1, w), w < z1/2, from grad L(a) = (z1, w) solved at 40 digits.

    In the logs of u0 = 1 - 2 a1 and D = -2 a2, where the means of phi' = k/u + lam/u^2 and y phi' over
    u in [u0, u0 + D] are d1L = k log(u1/u0)/D + lam/(u0 u1) and d2L = k (1 - u0 log(u1/u0)/D)/D +
    lam (log(u1/u0) - D/u1)/D^2, each equation relative to its level.  The start is the double ``tilt``,
    except that where a1 is the last double below 1/2 u0 comes from d1L = z1 with the lam term alone.
    """
    with mpmath.workdps(60):
        lam, k, z1, w = map(mpmath.mpf, (lam, k, z1, w))
        a1, a2 = map(mpmath.mpf, tilt)

        def terms(log_u0, log_d):
            u0, d = mpmath.exp(log_u0), mpmath.exp(log_d)
            u1, log_ratio = u0 + d, mpmath.log1p(d / u0)
            d1 = k * log_ratio / d + lam / (u0 * u1)
            d2 = k * (1 - u0 * log_ratio / d) / d + lam * (log_ratio - d / u1) / d**2
            L = -k / 2 * ((u1 * mpmath.log(u1) - u0 * mpmath.log(u0)) / d - 1) + lam / 2 * (log_ratio / d - 1)
            return d1 / z1 - 1, d2 / w - 1, (1 - u0) / 2 * z1 - d / 2 * w - L

        d = -2 * a2
        u0 = 1 - 2 * a1 if 1 - 2 * a1 > 1e-15 else 2 * lam / z1 / (d + mpmath.sqrt(d * d + 4 * lam / z1))
        log_u0 = mpmath.findroot(lambda x: terms(x, mpmath.log(d))[0], mpmath.log(u0))
        root = mpmath.findroot(lambda x, y: terms(x, y)[:2], (log_u0, mpmath.log(d)), tol=mpmath.mpf(10) ** -80,
                               maxsteps=400)
        return float(terms(*root)[2])


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
        # the 200-point grid of scripts/rate_ld_cost.py: no more iterations a call than the 8.65 of the Newton
        # ascent that ran every kind but the inverse-Gaussian (132.8 by the nested roots before it); 1.755 by
        # the model table's joint rates, 2.9 for noncentral chi-squared
        ascent_mean = 8.65
        grid = [(m, c1 * m.mean, f * c1 * m.mean) for m in MODELS
                for c1 in (0.6, 1.2, 2.0, 3.0, 5.0)
                for f in (1e-6, 0.01, 0.1, 0.2, 0.35, 0.5, 0.65, 0.9, 0.99, 1.0 - 1e-6)]
        mean = sum(rate_ld(m, z1, z2).iterations for m, z1, z2 in grid) / len(grid)
        assert mean <= ascent_mean


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
    @pytest.mark.parametrize("kind", ["exponential", "gamma", "noncentral_chi_squared"])
    @pytest.mark.parametrize("r", [1e-12, 1e-6, 1e3, 1e6])
    def test_within_one_step_of_scale_one(self, kind, r):
        # the scaled problem takes the same steps, so the counts move by at most the last step's roundoff:
        # the gamma family's kappa* steps at w/z1, which the scale moves by at most an ulp, and noncentral
        # chi-squared's root in s, which is that of (lam, k, z/r) for (r lam, r k, z)
        if kind == "noncentral_chi_squared":
            unit, scaled, method = model_of(kind, 1.0, 1.0), model_of(kind, r, r), "s_root"
        else:
            unit, scaled, method = gamma_like(kind, 1.0), gamma_like(kind, r), "kappa_star"
        for c1, c2 in [(3.0, 1.0), (0.7, 0.21), (1.5, 0.1), (5.0, 1.5), (1.0, 0.2), (2.0, 1.2)]:
            z1, z2 = c1 * unit.mean, c2 * unit.mean
            if kind == "noncentral_chi_squared":
                one, other = rate_ld(unit, z1, z2), rate_ld(scaled, r * z1, r * z2)
            else:
                one, other = rate_ld(unit, z1, z2), rate_ld(scaled, z1 / r, z2 / r)
            assert one.method == other.method == method
            assert abs(other.iterations - one.iterations) <= 1


def folded_optimum(model, z1, w, solve=rate_ld):
    """The tilt of rate_ld (or of ``solve``) at (z1, w), w < z1/2, with d1L and d2L there."""
    res = solve(model, z1, w)
    return res.argmax_tilt, lambda_grad(model, *res.argmax_tilt)


class TestJointRateOptimum:
    """The tilt of rate_ld's joint rate is the maximiser of g(a) = a1 z1 + a2 w - L(a) over a2 < 0, by the
    model table's gradient of L."""

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

    def test_where_g_cancels_against_40_digits(self):
        # noncentral chi-squared:1,1 at (2, 0.94), row 21 of the `rate` grid 0.5:3:6;0.1:1.5:6, where a1 z1
        # and a2 w cancel 30:1 in g.  The tilt is the optimum: g there, with L by quadrature at 50
        # digits, meets the 40-digit rate to 1e-15.  The Newton ascent's value, g at its tilt, was 1.9e-14 off
        # by the error of L's closed form there (6e-17 of 2.8e-3) and the rounding of g's terms; the sum
        # of nonnegative terms of the root in s forms no g
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
        assert res.value == pytest.approx(float(exact), rel=1e-15, abs=0.0)

    def test_midline_is_phi_star(self):
        for model in MODELS:
            res, mid = rate_ld(model, 1.5 * model.mean, 0.75 * model.mean), phi_star(model, 1.5 * model.mean)
            assert (res.value, res.argmax_tilt, res.method) == (mid.value, (mid.argmax_tilt[0], 0.0), mid.method)

    def test_seeded_sweep(self):
        # 3,600 points: z1 from 0.02 to 50 times the mean, area fractions from 1e-12 to 1 - 1e-12,
        # scales 1e-12 to 1e6 on six models (about 1 s).  No call raises; each value is finite,
        # the exponential ones within 1e-13 of the independent rate_ld_poisson, and d2L = w at
        # the tilt of every folded point.  The inverse-Gaussian rate is in closed form; the gamma
        # family's, phi* + shape kappa*, is within 1e-13 of its 40-digit value, and noncentral chi-squared's
        # root in s takes at most 20 steps (the Newton ascent took up to 80, 30 in the mean)
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
            elif kind == "noncentral_chi_squared":
                assert res.method == "s_root"
                steps.append(res.iterations)
            elif 2.0 * (w := min(z2, z1 - z2)) != z1:
                assert res.method == "kappa_star"
                exact = float(mp_gamma_rate(param, model.domain.boundary, z1, w))
                assert res.value == pytest.approx(exact, rel=1e-13, abs=0.0)
            if kind == "exponential":
                assert res.value == pytest.approx(rate_ld_poisson(model.domain.boundary, z1, z2).value, rel=1e-13)
            if z2 <= 0.5 * z1:
                assert lambda_grad(model, *res.argmax_tilt)[1] == pytest.approx(z2, rel=1e-12)
        assert np.mean(steps) < 5 and max(steps) <= 20


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


def mp_gamma_rate(shape, rate, z1, w):
    """phi*(z1) + shape kappa*(w/z1) at 40 digits, w < z1/2, with w/z1 exact: the gamma family's joint rate."""
    with mpmath.workdps(40):
        shape, rate, z1 = mpmath.mpf(shape), mpmath.mpf(rate), mpmath.mpf(z1)
        r = mpmath.mpf(w) / z1
        # kappa'(t) = r; below r = 1e-3 the root is -1/r up to e^(-1/r)
        t = -1 / r if r < 1e-3 else mpmath.findroot(lambda t: 1 / -mpmath.expm1(-t) - 1 / t - r,
                                                    -1 / r if r < 0.1 else 12 * (r - mpmath.mpf(0.5)))
        phi_star = rate * z1 - shape - shape * mpmath.log(rate * z1 / shape)
        return phi_star + shape * (t * r - mpmath.log(mpmath.expm1(t) / t))


def seeded_gamma_family(seed, count):
    """(model, shape, z1, z2): test_seeded_sweep's levels on exponential:scale, gamma:2,2scale and gamma:0.5,2scale."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        shape = (1.0, 2.0, 0.5)[i % 3]
        scale = 10.0 ** rng.uniform(-12.0, 6.0)
        model = model_of("exponential", scale) if shape == 1.0 else model_of("gamma", shape, 2.0 * scale)
        z1 = model.mean * 10.0 ** rng.uniform(math.log10(0.02), math.log10(50.0))
        f = 10.0 ** rng.uniform(-12.0, math.log10(0.5))
        yield model, shape, z1, (z1 - f * z1 if rng.random() < 0.5 else f * z1)


class TestGammaFamilyRate:
    """The exponential and gamma joint rate phi*(z1) + shape kappa*(w/z1), with the tilt from kappa*'s."""

    def test_against_40_digits(self):
        # within 1e-14 of the 40-digit rate at every point with I >= 1e-6, and on the mean at least as
        # close as the Newton ascent that rate_ld ran before (both are a few ulps off: 6.3e-17 and 8.353e-17
        # in the mean here)
        ascent_mean = 8.353e-17
        errors = []
        for model, shape, z1, z2 in seeded_gamma_family(37, 300):
            exact = mp_gamma_rate(shape, model.domain.boundary, z1, min(z2, z1 - z2))
            if exact < 1e-6:
                continue
            errors.append(float(abs(rate_ld(model, z1, z2).value - exact) / exact))
        assert len(errors) >= 200
        assert max(errors) <= 1e-14
        assert np.mean(errors) <= ascent_mean

    def test_scaling_identity(self):
        # phi of gamma(k, lam) is k times that of exponential(lam): I_{k,lam}(z) = k I_{1,lam}(z/k).  On the
        # folded area w, which z2/k - z1/k would lose next to the upper edge
        for model, shape, z1, z2 in seeded_gamma_family(38, 300):
            w, lam = min(z2, z1 - z2), model.domain.boundary
            for k in (shape, 3.0):
                gamma, unit = model_of("gamma", k, lam), model_of("exponential", lam)
                assert rate_ld(gamma, z1, w).value == pytest.approx(k * rate_ld(unit, z1 / k, w / k).value,
                                                                    rel=1e-14, abs=0.0)

    def test_stationary_at_the_tilt(self):
        # d2L = w at the folded tilt, and d1L = z1 where a1 is not within a thousandth of the boundary
        # (most of these areas are small, and their a1 is; TestJointRateOptimum checks d1L on a grid)
        interior = 0
        for model, shape, z1, z2 in seeded_gamma_family(39, 300):
            w = min(z2, z1 - z2)
            res = rate_ld(model, z1, w)
            d1, d2 = lambda_grad(model, *res.argmax_tilt)
            assert d2 == pytest.approx(w, rel=1e-12, abs=0.0)
            if model.domain.boundary - res.argmax_tilt[0] > 1e-3 * model.domain.boundary:
                interior += 1
                assert d1 == pytest.approx(z1, rel=1e-12, abs=0.0)
        assert interior >= 15

    @pytest.mark.parametrize("kind, slope", [("exponential", -1.1), ("gamma", -0.55)])
    def test_moderate_deviation_limit(self, kind, slope):
        # I(p + d v)/(d^2 psi*(v)) - 1 = slope d + O(d^2) at v = (1, 0.3), from d = 1e-2 down to 1e-7, where
        # I is about 4e-15 and the roundoff of phi* is a few percent of the O(d) term; the same ratio of the
        # 40-digit rate is as close (the Newton ascent's ratio carried a few times more there)
        model = gamma_like(kind, 1.0)
        scale, shape = psi_star(model, 1.0, 0.3), (2.0 if kind == "gamma" else 1.0)
        for k in range(2, 8):
            d = 10.0**-k
            z1, z2 = model.mean + d, 0.5 * model.mean + 0.3 * d
            ratio = rate_ld(model, z1, z2).value / (d * d * scale) - 1.0
            exact = float(mp_gamma_rate(shape, model.domain.boundary, z1, z2) / (d * d * scale) - 1)
            assert abs(ratio - slope * d) <= 0.1 * d
            assert abs(ratio - exact) <= 0.1 * d

    def test_exactly_reflection_symmetric(self):
        for model, shape, z1, z2 in seeded_gamma_family(40, 300):
            z2, c = exact_pair(z1, z2 / z1)
            low, high = rate_ld(model, z1, z2), rate_ld(model, z1, c)
            assert low.value == high.value
            (a1, a2), (b1, b2) = low.argmax_tilt, high.argmax_tilt
            assert (b1, b2) == (a1 + a2, -a2) or (a1, a2) == (b1 + b2, -b2)

    @pytest.mark.parametrize("kind", ["exponential", "gamma"])
    def test_tiny_area_in_few_steps(self, kind):
        # (1, 1e-300) times the mean took 1,002 Newton steps of the ascent; kappa*'s start at t = -1/r is
        # exact to e^(-1/r) there.  The rate is shape (-log(1e-300) - 1) + phi*(z1), phi* = 0 at the mean
        model, shape = gamma_like(kind, 1.0), (2.0 if kind == "gamma" else 1.0)
        for z in (1e-100, 1e-200, 1e-300):
            res = rate_ld(model, model.mean, z * model.mean)
            assert res.iterations <= 5
            assert res.value == pytest.approx(shape * (-math.log(z) - 1.0), rel=1e-14, abs=0.0)

    def test_tilt_beyond_the_doubles_raises(self):
        # the area tilt about -1/z2 at z2 = 5e-324 is not a double: the documented RootError, no OverflowError
        with pytest.raises(RootError):
            rate_ld(EXP1, 1.0, 5e-324)
        for z1 in (1e-300, 1e-100, 1e100, 1e300):
            for f in (1e-300, 1e-10, 0.25, 0.4999):
                if f * z1 > 0.0:
                    try:
                        assert math.isfinite(rate_ld(EXP1, z1, f * z1).value)
                    except RootError:  # where -1/z2 or 1/z1 overflows
                        assert f * z1 < 1e-290 or z1 < 1e-290


def seeded_noncentral_family(seed, count):
    """(model, z1, z2): noncentral chi-squared (1, 1), (3, 0.5) and (0.2, 4), each scaled by 10^U(-6, 6), at
    test_seeded_sweep's levels."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        lam, k = ((1.0, 1.0), (3.0, 0.5), (0.2, 4.0))[i % 3]
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        model = model_of("noncentral_chi_squared", lam * scale, k * scale)
        z1 = model.mean * 10.0 ** rng.uniform(math.log10(0.02), math.log10(50.0))
        f = 10.0 ** rng.uniform(-12.0, math.log10(0.5))
        yield model, z1, (z1 - f * z1 if rng.random() < 0.5 else f * z1)


def mp_folded_rate(model, z1, z2):
    """The 40-digit noncentral chi-squared rate at (z1, z2), started from rate_ld's tilt at the folded w."""
    w = min(z2, z1 - z2)
    return mp_noncentral_chi_squared_rate(model.params["lam"], model.params["k"], z1, w, rate_ld(model, z1, w).argmax_tilt)


def counted_steps(monkeypatch):
    """The list that collects s of each evaluation of the noncentral chi-squared root, one per Newton step."""
    steps, terms = [], models_module._uniform_terms
    monkeypatch.setattr(models_module, "_uniform_terms", lambda s: steps.append(s) or terms(s))
    return steps


class TestNoncentralChiSquaredRate:
    """The noncentral chi-squared joint rate by one Newton root in s = log(u1/u0), as nonnegative terms."""

    def test_against_40_digits(self):
        # within 1e-14 of the 40-digit rate, by the stationarity of a.z - L(a) in a, at every point with I >= 1e-6,
        # and on the mean at least as close as the Newton ascent that rate_ld ran before: 7.96e-17 against its
        # 1.2708e-16 here, where the ascent was up to 1.28e-14 off
        ascent_mean = 1.2708e-16
        errors = []
        for model, z1, z2 in seeded_noncentral_family(41, 300):
            exact = mp_folded_rate(model, z1, z2)
            if exact < 1e-6:
                continue
            errors.append(abs(rate_ld(model, z1, z2).value - exact) / exact)
        assert len(errors) >= 200
        assert max(errors) <= 1e-14
        assert np.mean(errors) <= ascent_mean

    def test_scaling_identity(self):
        # phi of noncentral chi-squared(c lam, c k) is c times that of (lam, k) at the same tilt: I_{c lam, c k}(z) =
        # c I_{lam, k}(z/c).  On the folded area w
        for model, z1, z2 in seeded_noncentral_family(42, 300):
            w, lam, k = min(z2, z1 - z2), model.params["lam"], model.params["k"]
            for c in (3.0, 1e-3):
                scaled = model_of("noncentral_chi_squared", c * lam, c * k)
                assert rate_ld(scaled, z1, w).value == pytest.approx(c * rate_ld(model, z1 / c, w / c).value,
                                                                     rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("k", [0.5, 1.0, 4.0])
    def test_gamma_limit(self, k):
        # at lam = 1e-30 the rate is gamma(k/2, 1/2)'s phi* + (k/2) kappa*, which reads kappa_conjugate, to 1e-30
        # of it: the lam term moves the optimal tilt (lam/u^2 is large at the segment's top below fractions of
        # about 1/50) but L only by (lam/2)(mean of 1/u - 1)
        ncx2, gamma = model_of("noncentral_chi_squared", 1e-30, k), model_of("gamma", 0.5 * k, 0.5)
        for c1 in (0.3, 1.0, 3.0):
            z1 = c1 * gamma.mean
            for f in (0.01, 0.05, 0.2, 0.4, 0.49, 0.6, 0.99):
                res = rate_ld(ncx2, z1, f * z1)
                assert res.method == "s_root"
                assert res.value == pytest.approx(rate_ld(gamma, z1, f * z1).value, rel=1e-13, abs=0.0)

    def test_stationary_at_the_tilt(self):
        # d2L = w at the folded tilt, and d1L = z1 where a1 is not within a thousandth of the boundary
        interior = 0
        for model, z1, z2 in seeded_noncentral_family(43, 300):
            w = min(z2, z1 - z2)
            a1, a2 = rate_ld(model, z1, w).argmax_tilt
            d1, d2 = lambda_grad(model, a1, a2)
            assert d2 == pytest.approx(w, rel=1e-12, abs=0.0)
            if 0.5 - a1 > 5e-4:
                interior += 1
                assert d1 == pytest.approx(z1, rel=1e-12, abs=0.0)
        assert interior >= 30

    def test_moderate_deviation_limit(self):
        # I(p + d v)/(d^2 psi*(v)) - 1 = -0.488 d + O(d^2) at v = (1, 0.3) on (1, 1), from d = 1e-2 down to 1e-7, as
        # does the ratio of the 40-digit rate; the Newton ascent's was 3.7e-4 off at 1e-6 and 6.8e-2 at 1e-7,
        # where a.z - L cancels
        model = model_of("noncentral_chi_squared", 1.0, 1.0)
        scale = psi_star(model, 1.0, 0.3)
        for k in range(2, 8):
            d = 10.0**-k
            z1, z2 = model.mean + d, 0.5 * model.mean + 0.3 * d
            ratio = rate_ld(model, z1, z2).value / (d * d * scale) - 1.0
            exact = mp_folded_rate(model, z1, z2) / (d * d * scale) - 1.0
            assert abs(ratio + 0.488 * d) <= 0.1 * d
            assert abs(ratio - exact) <= 0.1 * d

    def test_exactly_reflection_symmetric(self):
        for model, z1, z2 in seeded_noncentral_family(44, 300):
            z2, c = exact_pair(z1, z2 / z1)
            low, high = rate_ld(model, z1, z2), rate_ld(model, z1, c)
            assert low.value == high.value
            (a1, a2), (b1, b2) = low.argmax_tilt, high.argmax_tilt
            assert (b1, b2) == (a1 + a2, -a2) or (a1, a2) == (b1 + b2, -b2)

    def test_tiny_area_in_few_steps(self):
        # (1, 1e-300) times the mean took 1,002 steps of the Newton ascent; the root in s starts from its
        # large-s asymptote there
        model = model_of("noncentral_chi_squared", 1.0, 1.0)
        res = rate_ld(model, model.mean, 1e-300 * model.mean)
        assert res.iterations <= 20
        assert res.value == pytest.approx(mp_folded_rate(model, model.mean, 1e-300 * model.mean), rel=1e-12, abs=0.0)

    def test_large_level_next_to_the_midline(self):
        # z1 = 4.68e36, z2 = 0.5001 z1: the Newton ascent gave I - phi*(z1) = -3.48e22.  The exact J = I - I1 is
        # 3.24e10, 1.4e-26 of I and far below its ulp, and the nonnegative terms give I1 to the bit
        model = model_of("noncentral_chi_squared", 1.0, 1.0)
        z1 = 4.67548469024955e36
        res = rate_ld(model, z1, 0.5001 * z1)
        assert res.value - phi_star(model, z1).value == 0.0
        assert res.value == pytest.approx(mp_folded_rate(model, z1, 0.5001 * z1), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("c1", [1e-300, 1.0, 1e300])
    @pytest.mark.parametrize("f", [1e-8, 0.25, 0.4999])
    def test_levels_from_1e_300_to_1e300(self, c1, f, monkeypatch):
        # z1 = c1 times the mean, w = f z1: each within 1e-12 of the 40-digit rate, in at most 100 steps
        model = model_of("noncentral_chi_squared", 1.0, 1.0)
        steps = counted_steps(monkeypatch)
        res = rate_ld(model, c1 * model.mean, f * c1 * model.mean)
        assert len(steps) == res.iterations <= 100
        assert res.value == pytest.approx(mp_folded_rate(model, c1 * model.mean, f * c1 * model.mean),
                                          rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("z1, w", [(2.0, 5e-324), (1e-300, 1e-310), (1e-320, 1e-321), (1e30, 1e-300)])
    def test_tilt_beyond_the_doubles_raises(self, z1, w, monkeypatch):
        # the area tilt -s/(2x) overflows, or the mean of y phi' leaves the doubles before it falls to w: the
        # documented RootError, within 100 steps
        steps = counted_steps(monkeypatch)
        with pytest.raises(RootError):
            rate_ld(model_of("noncentral_chi_squared", 1.0, 1.0), z1, w)
        assert len(steps) <= 100


class TestPoissonPath:
    def test_equivalence_with_newton(self):
        for z1 in np.linspace(0.3, 3.0, 8):
            for t in np.linspace(0.1, 0.9, 8):
                z2 = float(z1 * t)
                a = rate_ld(EXP1, float(z1), z2).value
                b = rate_ld_poisson(1.0, float(z1), z2).value
                assert a == pytest.approx(b, abs=1e-8)

    def test_root_in_few_steps(self):
        # regula falsi inside the bracket: at most 15 steps at the benchmark's levels, where bisection down
        # to adjacent doubles took 53-59; next to the midline, where roundoff spreads the residual's sign over
        # many doubles, at most 110, about the bisection's 67-93 there.  The value stays phi* + kappa*, an
        # independent route
        for z1 in (0.6, 1.2, 2.0, 3.0):
            for f in (0.01, 0.03, 0.2, 0.35, 0.65, 0.8, 0.97, 0.99):
                res = rate_ld_poisson(1.0, z1, f * z1)
                assert res.iterations <= 15
                assert res.value == pytest.approx(rate_ld(EXP1, z1, f * z1).value, rel=1e-14, abs=0.0)
            for d in (1e-3, 1e-5, 1e-7):
                assert rate_ld_poisson(1.0, z1, (0.5 - d) * z1).iterations <= 110

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
        # I - I1 computed to -2 or -4 there, 1-2 ulps of I, when the Newton ascent gave I, and 1e-8 used to raise
        ("exponential:1", 1e16, [round(0.1 + 0.01 * k, 2) for k in range(40)]),
        ("gamma:2,2", 1e16, [0.49]),
        # the largest -J/(eps I) of the sweep that set J_ROUNDOFF: 67.1
        ("noncentral_chi_squared:1,1", 4.67548469024955e+36, [0.5001]),
    ])
    def test_roundoff_at_large_levels_clamps_to_zero(self, spec, z1, fractions):
        # the gamma family's I = phi*(z1) + shape kappa*(w/z1) is at least I1 = phi*(z1): J is shape kappa* up to
        # the rounding of that sum, and no clamp is reached
        model = parse_model_spec(spec)
        for f in fractions:
            if model.kind == "noncentral_chi_squared":
                assert conditional_rate_J(model, z1, f * z1) == 0.0
            else:
                shape, joint = model.params.get("shape", 1.0), rate_ld(model, z1, f * z1).value
                conditional = conditional_rate_J(model, z1, f * z1)
                assert abs(conditional - shape * kappa_star(f * z1, z1).value) <= math.ulp(joint)

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
