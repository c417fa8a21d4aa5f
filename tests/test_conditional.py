import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewal_ldp import (
    INF,
    chaganty_equality,
    conditional_mgf,
    conditional_rate_J,
    kappa,
    kappa_d1,
    kappa_star,
    log_conditional_mgf,
    nested_integral,
    rate_ld,
    sample_area_given_tau,
)
from renewal_ldp.conditional import kappa_d2
from renewal_ldp.models import RootError, model_of
from renewal_ldp.simulate import block_rng


def conditional_ldp_check(x_grid, z1_sequence, beta, z1_limit):
    """Per-x conditional CGF of the scaled area against its uniform-law limit.

    Evaluates (1/x) log E[exp(x beta A/x^2) | tau/x = z1(x)] from the closed
    form and reports its distance from kappa(beta, lim z1).
    """
    limit = kappa(beta, z1_limit)
    rows = []
    for x in x_grid:
        value = log_conditional_mgf(x, x * z1_sequence(x), beta / x) / x
        rows.append({"x": x, "value": value, "limit": limit, "error": abs(value - limit)})
    return rows


class TestKappa:
    def test_uniform_cgf_closed_form(self):
        # log E[e^{beta U}], U uniform on (0, z1)
        beta, z1 = 0.7, 2.0
        expected = math.log((math.exp(beta * z1) - 1.0) / (beta * z1))
        assert kappa(beta, z1) == pytest.approx(expected, rel=1e-14)

    def test_zero_at_zero(self):
        assert kappa(0.0, 2.0) == 0.0

    def test_series_branch_accuracy(self):
        # both sides of the Bernoulli series' switch at |beta z1| = 1/2, and far inside it, against 40 digits:
        # kappa to its relative accuracy where it is t/2, kappa' to that of its value about z1/2
        z1 = 1.5
        for t in (1e-9, 1e-3, 0.3, 0.4999, 0.5, 0.5001, 0.7):
            for sign in (1.0, -1.0):
                with mpmath.workdps(40):
                    x = mpmath.mpf(sign * t)
                    exact, slope = mpmath.log(mpmath.expm1(x) / x), 1 / (1 - mpmath.exp(-x)) - 1 / x
                assert kappa(sign * t / z1, z1) == pytest.approx(float(exact), rel=2e-15, abs=0.0)
                assert kappa_d1(sign * t / z1, z1) == pytest.approx(z1 * float(slope), rel=2e-15, abs=0.0)

    def test_negative_beta(self):
        beta, z1 = -1.3, 0.8
        expected = math.log((math.exp(beta * z1) - 1.0) / (beta * z1))
        assert kappa(beta, z1) == pytest.approx(expected, rel=1e-13)

    def test_large_beta_stable(self):
        # naive exp overflows; the stable form must not
        v = kappa(500.0, 2.0)
        assert v == pytest.approx(1000.0 - math.log(1000.0), rel=1e-12)

    def test_derivative_matches_finite_difference(self):
        for beta in (-2.0, -0.3, 0.4, 3.0):
            h = 1e-7
            fd = (kappa(beta + h, 1.5) - kappa(beta - h, 1.5)) / (2 * h)
            assert kappa_d1(beta, 1.5) == pytest.approx(fd, rel=1e-6)

    def test_derivative_far_below_zero(self):
        # at beta*z1 < -709 the form with e^{-beta z1} overflows
        for t in (-708.0, -710.0, -1e4):
            assert kappa_d1(t / 1.5, 1.5) == pytest.approx(-1.5 / t, rel=1e-14)

    def test_derivative_range(self):
        # kappa' is the tilted mean: increases from 0 to z1
        z1 = 2.0
        assert kappa_d1(-50.0, z1) < 0.1
        assert kappa_d1(0.0, z1) == pytest.approx(z1 / 2, abs=1e-6)
        assert kappa_d1(50.0, z1) > z1 - 0.1


class TestKappaStar:
    def test_zero_at_midpoint(self):
        res = kappa_star(1.0, 2.0)
        assert res.value == 0.0
        assert res.argmax_tilt == (0.0,)

    def test_infinite_outside_support(self):
        assert kappa_star(-0.1, 2.0).value == INF
        assert kappa_star(2.1, 2.0).value == INF

    def test_endpoints_diverge(self):
        assert kappa_star(0.0, 2.0).value == INF
        assert kappa_star(2.0, 2.0).value == INF

    @pytest.mark.parametrize("z2, z1", [(math.nan, 1.0), (0.5, math.nan), (math.nan, math.nan)])
    def test_nan_level_raises_before_any_solve(self, z2, z1, monkeypatch):
        # kappa_star(nan, 1) raised RootError from inside the solver
        def no_solve(*args, **kwargs):
            raise AssertionError("a solver ran on a NaN level")

        monkeypatch.setattr("renewal_ldp.models.dual_newton", no_solve)
        with pytest.raises(ValueError, match="NaN"):
            kappa_star(z2, z1)

    @pytest.mark.parametrize("r, rel", [(0.4999, 1e-13), (0.5001, 1e-13), (0.49999, 1e-10)])
    def test_next_to_the_midline_against_40_digits(self, r, rel):
        # kappa* ~ 6 (r - 1/2)^2 is small there, and kappa = t/2 + O(t^2) loses nothing to it below |t| = 1/2;
        # the log of expm1(t)/t lost eps absolutely, 1.2e-9 of the value at 0.4999.  The bound at 0.49999
        # is the rounding of t r alone, relative to a value of 6e-10
        with mpmath.workdps(40):
            level = mpmath.mpf(r)
            t = mpmath.findroot(lambda t: 1 / (1 - mpmath.exp(-t)) - 1 / t - level, 12 * (level - mpmath.mpf(0.5)))
            exact = float(t * level - mpmath.log(mpmath.expm1(t) / t))
        assert kappa_star(r, 1.0).value == pytest.approx(exact, rel=rel, abs=0.0)

    @pytest.mark.parametrize("z2, z1", [(0.4999, 1.0), (0.49999, 1.0), (0.4999999, 1.0), (0.5001, 1.0), (0.47, 1.0),
                                        (3.0, 6.000001), (0.4999e-5, 1e-5)])
    def test_about_the_mean_to_a_few_ulps(self, z2, z1):
        # above w/z1 = 15/32 the dual runs about the mean, at the level (w - z1/2)/z1 whose difference is exact,
        # so the value keeps its relative accuracy where it is 6 (r - 1/2)^2; the rounding of w/z1 cost up to
        # eps r/|r - 1/2| of it (1e-10 was the bound at 0.49999 above)
        with mpmath.workdps(40):
            z1_, z2_ = mpmath.mpf(z1), mpmath.mpf(z2)
            r = min(z2_, z1_ - z2_) / z1_
            t = mpmath.findroot(lambda t: 1 / (1 - mpmath.exp(-t)) - 1 / t - r, 12 * (r - mpmath.mpf(0.5)))
            exact = float(t * r - mpmath.log(mpmath.expm1(t) / t))
        assert kappa_star(z2, z1).value == pytest.approx(exact, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("f", [1e-3, 1.0 - 1e-3])
    def test_next_to_the_endpoints(self, f):
        # beta -> -z1/z2: kappa*(z2) = -1 - log(z2/z1) up to e^{-1/f}, symmetric about z1/2
        z1 = 1.5
        near = min(f, 1.0 - f)
        assert kappa_star(f * z1, z1).value == pytest.approx(-1.0 - math.log(near), rel=1e-9)

    def test_against_grid_search(self):
        # frozen oracle: dense grid over the tilt beta
        z1, z2 = 2.0, 0.6
        betas = np.linspace(-80, 80, 800001)
        vals = betas * z2 - np.array([kappa(float(b), z1) for b in betas])
        target = kappa_star(z2, z1).value
        assert target >= vals.max() - 1e-10
        assert target == pytest.approx(float(vals.max()), abs=1e-6)

    def test_symmetry(self):
        # the uniform law is symmetric about z1/2
        z1 = 2.0
        for d in (0.3, 0.7):
            a = kappa_star(z1 / 2 - d, z1).value
            b = kappa_star(z1 / 2 + d, z1).value
            assert a == pytest.approx(b, rel=1e-9)

    @given(z2=st.floats(0.05, 1.95))
    @settings(max_examples=40, deadline=None)
    def test_fenchel_young_inequality(self, z2):
        z1 = 2.0
        v = kappa_star(z2, z1).value
        for beta in (-3.0, -0.5, 1.0, 4.0):
            assert v >= beta * z2 - kappa(beta, z1) - 1e-10


class TestConditionalMgf:
    def test_x1_degenerate(self):
        # a single holding time: area equals the passage time exactly
        assert log_conditional_mgf(1, 2.0, 0.7) == pytest.approx(1.4)

    def test_closed_form_value(self):
        x, y, beta = 3, 2.0, 0.5
        expected = math.exp(beta * x * y) * ((1 - math.exp(-beta * y)) / (beta * y)) ** (x - 1)
        assert conditional_mgf(x, y, beta) == pytest.approx(expected, rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            log_conditional_mgf(0, 1.0, 0.5)
        with pytest.raises(ValueError):
            log_conditional_mgf(2, -1.0, 0.5)


class TestNestedIntegral:
    def test_x2_closed_form(self):
        for y in (0.5, 2.0):
            for beta in (-1.0, 0.8):
                assert nested_integral(2, y, beta) == pytest.approx(
                    -math.expm1(-beta * y) / beta, rel=1e-15
                )

    @pytest.mark.parametrize("x", [2, 3, 4, 5, 8, 12])
    def test_brute_force_agrees(self, x):
        for y, beta in [(1.0, 0.5), (2.0, -0.7), (0.5, 2.0), (2.0, -2.0)]:
            closed = nested_integral(x, y, beta, mode="closed_form")
            brute = nested_integral(x, y, beta, mode="brute_force")
            assert brute == pytest.approx(closed, rel=1e-10)

    def test_zero_beta_rejected(self):
        with pytest.raises(ValueError):
            nested_integral(3, 1.0, 0.0)

    def test_triangulation_identity(self):
        # (x-1)! e^{beta x y} / y^{x-1} * I_x(beta, y) equals the conditional MGF
        for x, y, beta in [(3, 1.0, 0.6), (5, 0.5, -1.2), (4, 2.0, 0.3)]:
            lhs = conditional_mgf(x, y, beta)
            rhs = (math.factorial(x - 1) * math.exp(beta * x * y) / y ** (x - 1)
                   * nested_integral(x, y, beta))
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestConditionalSampler:
    def test_support(self):
        rng = block_rng(11, 0)
        draws = sample_area_given_tau(4, 2.0, rng, size=1000)
        assert (draws >= 2.0).all()
        assert (draws <= 4 * 2.0).all()

    def test_mean(self):
        # E[A | tau = y] = y + (x-1) y/2
        rng = block_rng(11, 1)
        x, y = 5, 1.5
        draws = sample_area_given_tau(x, y, rng, size=400000)
        expected = y + (x - 1) * y / 2
        se = math.sqrt((x - 1) * y**2 / 12 / draws.size)
        assert abs(float(draws.mean()) - expected) < 5 * se

    def test_empirical_mgf(self):
        rng = block_rng(11, 2)
        x, y, beta = 3, 1.0, 0.8
        draws = sample_area_given_tau(x, y, rng, size=400000)
        emp = float(np.exp(beta * draws).mean())
        assert emp == pytest.approx(conditional_mgf(x, y, beta), rel=5e-3)

    def test_x1_degenerate_draw(self):
        rng = block_rng(11, 3)
        assert sample_area_given_tau(1, 2.0, rng) == 2.0


class TestConditionalLdp:
    def test_convergence_to_uniform_cgf(self):
        rows = conditional_ldp_check(
            x_grid=[10, 100, 1000, 10000],
            z1_sequence=lambda x: 2.0 + 1.0 / x,
            beta=0.7,
            z1_limit=2.0,
        )
        errors = [r["error"] for r in rows]
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 1e-3
        assert rows[-1]["limit"] == pytest.approx(kappa(0.7, 2.0))

    def test_scaling_identity(self):
        # (1/x) log-MGF at tilt beta/x equals beta*z1 + (1-1/x)kappa(beta/x * x z1 ... )
        x, z1, beta = 50, 1.5, 0.9
        value = log_conditional_mgf(x, x * z1, beta / x) / x
        direct = beta * z1 / x + (x - 1) / x * kappa(beta / x, x * z1)
        assert value == pytest.approx(direct, rel=1e-12)


class TestChaganty:
    def test_equality_on_grid(self):
        for lam in (0.5, 1.0, 3.0):
            for z1, z2 in [(2.0, 0.5), (1.0, 0.8), (0.6, 0.45)]:
                out = chaganty_equality(lam, z1, z2)
                assert out["abs_diff"] < 1e-8

    def test_lambda_free(self):
        # kappa* does not depend on the exponential rate parameter
        a = chaganty_equality(0.5, 1.5, 0.6)["kappa_star_value"]
        b = chaganty_equality(4.0, 1.5, 0.6)["kappa_star_value"]
        assert a == b

    def test_requires_interior(self):
        with pytest.raises(ValueError):
            chaganty_equality(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            chaganty_equality(1.0, 1.0, 0.0)


class TestInverseGaussianJ:
    @pytest.mark.parametrize("mu", [0.3, 1.0, 4.0, 17.0])
    def test_free_of_mu(self, mu):
        # the inverse-Gaussian is the passage time of Brownian motion with drift mu, and J = I - I1 is
        # the rate of a Brownian-bridge area, whatever mu: 2/(9w) - 1/(2 z1) on the face w <= z1/3, else
        # 6 (w - z1/2)^2/z1^3, as kappa* is free of lam for exponential; to the roundoff of I - I1
        model = model_of("inverse_gaussian", mu)
        for c1 in (0.2, 1.0, 5.0, 40.0):
            z1 = c1 * model.mean
            for f in (1e-3, 0.1, 0.3, 1.0 / 3.0, 0.4, 0.49, 0.6, 0.9):
                z2 = f * z1
                w = min(z2, z1 - z2)
                bridge = 2.0 / (9.0 * w) - 0.5 / z1 if 3.0 * w <= z1 else 6.0 * (w - 0.5 * z1) ** 2 / z1**3
                roundoff = 8.0 * sys.float_info.epsilon * rate_ld(model, z1, z2).value
                assert conditional_rate_J(model, z1, z2) == pytest.approx(bridge, rel=0.0, abs=roundoff)


class TestKappaD2:
    @pytest.mark.parametrize("t", [0.0, 1e-9, 0.1, 0.3, 0.4999, 0.5, 0.5001, 0.7, 2.0, 30.0, 800.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_against_40_digits_on_both_sides_of_the_series(self, t, sign):
        # 1/t^2 - 1/(4 sinh^2(t/2)), the variance of the uniform law on (0, 1) tilted by t; 1/12 at 0
        with mpmath.workdps(40):
            x = mpmath.mpf(sign * t)
            exact = 1 / x**2 - 1 / (4 * mpmath.sinh(x / 2) ** 2) if t else mpmath.mpf(1) / 12
        for z1 in (1.0, 3.0, 1e-5):
            assert kappa_d2(sign * t / z1, z1) == pytest.approx(z1 * z1 * float(exact), rel=1e-13, abs=0.0)

    def test_is_the_slope_of_kappa_d1(self):
        for beta in (-40.0, -3.0, -0.2, 0.05, 0.6, 7.0):
            h = 1e-6 * max(1.0, abs(beta))
            slope = (kappa_d1(beta + h, 2.0) - kappa_d1(beta - h, 2.0)) / (2 * h)
            assert kappa_d2(beta, 2.0) == pytest.approx(slope, rel=1e-7)


class TestKappaStarFarFromTheMidline:
    @pytest.mark.parametrize("f", [1e-100, 1e-61, 1.0 - 1e-15])
    def test_endpoint_asymptote(self, f):
        # kappa*(z2) = -1 - log(d/z1) up to e^{-z1/d}, d the distance to the nearer endpoint
        z1 = 1.0
        z2 = f * z1
        near = min(z2, z1 - z2) / z1
        res = kappa_star(z2, z1)
        assert res.method == "newton"
        assert res.value == pytest.approx(-1.0 - math.log(near), rel=1e-12)
        # the tilt is below 0 under the midline and above it over the midline
        assert (res.argmax_tilt[0] < 0) == (z2 < 0.5 * z1)

    def test_within_2e_15_of_mpmath_at_every_scale_of_z1(self):
        # kappa* depends on z2/z1 alone; solved for the tilt beta ~ 1/z1 itself, an absolute
        # root tolerance loses digits from z1 ~ 1e8 on (about 1e-5 at z1 = 1e12)
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(5)
        with mpmath.workdps(40):
            dk = lambda t: 1 / -mpmath.expm1(-t) - 1 / t
            for z1, f in zip(10.0 ** rng.uniform(-10.0, 12.0, 200), rng.uniform(0.03, 0.97, 200)):
                z2 = float(f * z1)
                r = mpmath.mpf(z2) / mpmath.mpf(z1)
                w = min(r, 1 - r)  # the tilt t = beta z1 solves dk(t) = w below 0, in (-1/w, 0)
                t = mpmath.findroot(lambda t: dk(t) - w, (-1 / w, mpmath.mpf(-1e-30)), solver="anderson")
                exact = t * w - mpmath.log(mpmath.expm1(t) / t)
                assert abs(kappa_star(z2, z1).value - float(exact)) <= 2e-15

    @pytest.mark.parametrize("f, steps", [(0.01, 0), (1e-100, 0), (1e-300, 0), (0.05, 1)])
    def test_start_on_the_asymptote(self, f, steps):
        # below r = 1/10 the start t = -1/r is exact to e^(-1/r); from the moderate-deviation tilt the
        # ascent took one step per binade of r (10 at 0.01, 999 at 1e-300)
        res = kappa_star(f, 1.0)
        assert res.iterations == steps
        assert res.value == pytest.approx(-1.0 - math.log(f), rel=1e-15 + math.exp(-1.0 / f))

    def test_unbracketable_level_raises(self):
        # the tilt would be about -1/z2, beyond the double range
        with pytest.raises(RootError):
            kappa_star(5e-324, 1.0)

    def test_exact_symmetry(self):
        # z1 - z2 is exact for z2 in [z1/2, z1], and both sides solve the same root
        z1 = 2.0
        for z2 in (1.3, 1.7, 1.999, 2.0 - 1e-12):
            a, b = kappa_star(z1 - z2, z1), kappa_star(z2, z1)
            assert a.value == b.value
            assert a.argmax_tilt[0] == -b.argmax_tilt[0]
