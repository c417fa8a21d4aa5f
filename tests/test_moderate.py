import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewal_ldp import (
    CORRELATION_LIMIT,
    HalfPlane,
    INF,
    MarginalThreshold,
    ModerateScaling,
    PredicateEvent,
    Rectangle,
    RegionUnion,
    builtin_models,
    confidence_intervals,
    exact_moments,
    hessian_origin,
    make_model,
    md_event_rate,
    passage_weights,
    psi,
    psi_star,
    sup_norm_exceedance,
)

EXP1 = make_model("exponential", {"lam": 1.0})


class TestScaling:
    def test_power_family_valid(self):
        s = ModerateScaling(p=0.5)
        assert s.validate([10, 100, 1000, 10000])
        assert not s.validate([100, 100, 1000])  # a repeated level is not strictly monotone
        assert s.a(100) == pytest.approx(0.1)

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            ModerateScaling(p=1.5)
        with pytest.raises(ValueError):
            ModerateScaling(p=0.0)


class TestQuadraticForms:
    def test_psi_psi_star_duality(self):
        # conjugate of a quadratic form: psi*(z) = sup_a {a.z - psi(a)},
        # checked against a dense grid search
        for m in builtin_models():
            z = (0.7, 0.4)
            target = psi_star(m, *z)
            grid = np.linspace(-30, 30, 1201)
            best = max(
                a1 * z[0] + a2 * z[1] - psi(m, a1, a2)
                for a1 in grid
                for a2 in grid
            )
            assert target >= best - 1e-12
            assert target == pytest.approx(best, abs=1e-2)

    def test_explicit_inverse_values(self):
        # C^{-1} = (1/phi2) [[4,-6],[-6,12]]
        phi2 = EXP1.variance
        assert psi_star(EXP1, 1.0, 0.0) == pytest.approx(2.0 / phi2)
        assert psi_star(EXP1, 0.0, 1.0) == pytest.approx(6.0 / phi2)
        assert psi_star(EXP1, 1.0, 0.5) == pytest.approx(0.5 * (4 - 6 + 3) / phi2)

    @given(z1=st.floats(-3, 3), z2=st.floats(-3, 3))
    @settings(max_examples=50, deadline=None)
    def test_psi_star_nonnegative_quadratic(self, z1, z2):
        v = psi_star(EXP1, z1, z2)
        assert v >= -1e-12
        assert psi_star(EXP1, 2 * z1, 2 * z2) == pytest.approx(4 * v, rel=1e-9, abs=1e-12)


class TestExactMoments:
    def test_integer_x_formulas(self):
        m = exact_moments(EXP1, 10)
        assert m.mean_tau == 10.0
        assert m.var_tau == 10.0
        assert m.mean_area == 55.0
        assert m.var_area == 385.0
        assert m.cov == 55.0

    def test_noninteger_matches_weighted_sums(self):
        for model in builtin_models():
            for x in (2.5, 10.5, 7.25):
                w = passage_weights(x)
                rep = exact_moments(model, x)
                assert rep.n_terms == w.size
                assert rep.mean_tau == pytest.approx(w.size * model.mean, rel=1e-14)
                assert rep.var_tau == pytest.approx(w.size * model.variance, rel=1e-14)
                assert rep.mean_area == pytest.approx(model.mean * w.sum(), rel=1e-13)
                assert rep.var_area == pytest.approx(
                    model.variance * float((w**2).sum()), rel=1e-13
                )
                assert rep.cov == pytest.approx(model.variance * w.sum(), rel=1e-13)

    def test_frozen_noninteger_value(self):
        # sum of squared weights at x = 10.5: 10.5^2 + 9.5^2 + ... + 0.5^2
        assert float((passage_weights(10.5) ** 2).sum()) == pytest.approx(442.75)
        assert exact_moments(EXP1, 10.5).var_area == pytest.approx(442.75)

    def test_invalid_x(self):
        with pytest.raises(ValueError):
            exact_moments(EXP1, 0.0)

    @pytest.mark.parametrize("x, message", [(math.nan, "x must be positive"), (math.inf, "x must be finite")])
    def test_nan_and_infinite_x(self, x, message):
        with pytest.raises(ValueError, match=message):
            exact_moments(EXP1, x)


class TestCorrelation:
    def test_limit_value(self):
        assert CORRELATION_LIMIT == pytest.approx(math.sqrt(3.0) / 2.0)

    def test_integer_x_correlation_closed_form(self):
        # rho_x = sqrt(3(x+1)/(2(2x+1))) for integer x, any holding-time law
        for model in builtin_models():
            for x in (5, 50, 500):
                rho = exact_moments(model, x).correlation
                expected = math.sqrt(3.0 * (x + 1) / (2.0 * (2 * x + 1)))
                assert rho == pytest.approx(expected, rel=1e-12)

    def test_convergence_to_limit(self):
        rhos = [exact_moments(EXP1, x).correlation for x in (10, 100, 1000, 10000)]
        gaps = [abs(r - CORRELATION_LIMIT) for r in rhos]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 1e-4


class TestConfidenceIntervals:
    def test_width_ratio(self):
        out = confidence_intervals(EXP1, 100.0, 0.95)
        assert out["area_half_width"] / out["tau_half_width"] == pytest.approx(
            2.0 / math.sqrt(3.0), rel=1e-12
        )
        assert out["width_ratio"] == pytest.approx(2.0 / math.sqrt(3.0))

    def test_quantile_value(self):
        out = confidence_intervals(EXP1, 100.0, 0.95)
        assert out["quantile"] == pytest.approx(1.959963984540054, abs=1e-12)

    def test_intervals_centered(self):
        out = confidence_intervals(EXP1, 100.0, 0.9, observed_tau_over_x=1.02,
                                   observed_area_over_x2=0.51)
        lo, hi = out["tau_interval"]
        assert 0.5 * (lo + hi) == pytest.approx(1.02)
        lo, hi = out["area_interval"]
        assert 0.5 * (lo + hi) == pytest.approx(1.02)

    def test_coverage_simulation(self):
        # 90% intervals should cover the true mean about 90% of the time
        rng = np.random.default_rng(3)
        x = 400
        n_rep = 2000
        covered_tau = covered_area = 0
        w = passage_weights(x)
        for _ in range(n_rep):
            draws = rng.exponential(1.0, size=x)
            tau, area = draws.sum(), float(draws @ w)
            out = confidence_intervals(EXP1, x, 0.9, observed_tau_over_x=tau / x,
                                       observed_area_over_x2=area / x**2)
            covered_tau += out["tau_interval"][0] <= 1.0 <= out["tau_interval"][1]
            covered_area += out["area_interval"][0] <= 1.0 <= out["area_interval"][1]
        for covered in (covered_tau, covered_area):
            assert 0.87 <= covered / n_rep <= 0.93

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            confidence_intervals(EXP1, 10.0, 1.5)

    @pytest.mark.parametrize("x, message", [(0.0, "x must be positive"), (math.nan, "x must be positive"),
                                            (math.inf, "x must be finite")])
    def test_invalid_x(self, x, message):
        with pytest.raises(ValueError, match=message):
            confidence_intervals(EXP1, x, 0.9)


class TestRegions:
    def test_half_plane_rate_closed_form(self):
        # min (1/2) z^T C^{-1} z over {z1 >= c} is c^2 / (2 C11)
        c = 1.0
        rate = md_event_rate(EXP1, HalfPlane((1.0, 0.0), c))
        assert rate == pytest.approx(c**2 / (2.0 * EXP1.variance), rel=1e-12)

    def test_marginal_threshold_is_a_half_plane(self):
        rate = md_event_rate(EXP1, MarginalThreshold("z1", ">=", 1.0))
        assert rate == md_event_rate(EXP1, HalfPlane((1.0, 0.0), 1.0))
        assert md_event_rate(EXP1, MarginalThreshold("z2", "<=", -0.5)) == 0.25 / (2.0 * EXP1.variance / 3.0)

    def test_half_plane_through_origin(self):
        assert md_event_rate(EXP1, HalfPlane((1.0, 0.0), -0.5)) == 0.0

    @pytest.mark.parametrize("normal, offset", [((1.0, 0.0), math.nan), ((math.nan, 0.0), 1.0),
                                                ((1.0, math.nan), 1.0)])
    def test_nan_half_plane_raises_when_built(self, normal, offset):
        # md_event_rate(m, HalfPlane((1, 0), nan)) returned NaN, which `moderate` printed with exit 0
        with pytest.raises(ValueError, match="NaN"):
            HalfPlane(normal, offset)
        with pytest.raises(ValueError, match="NaN"):
            sup_norm_exceedance(math.nan)

    @pytest.mark.parametrize("bounds", [(math.nan, 3.0, 0.2, 0.4), (2.0, math.nan, 0.2, 0.4),
                                        (2.0, 3.0, math.nan, 0.4), (2.0, 3.0, 0.2, math.nan)])
    def test_nan_rectangle_raises_when_built(self, bounds):
        # a NaN bound was dropped as if unbounded: on exponential:1, Rectangle(2, 3, nan, 0.4)
        # gave the rates of Rectangle(2, 3, 0.2, 0.4), and Rectangle(nan, 3, 0.2, 0.4) 0.06
        with pytest.raises(ValueError, match="NaN"):
            Rectangle(*bounds)

    def test_tilted_half_plane_against_a_scan_of_its_line(self):
        # the stationary point c^2 / (2 n^T C n) is the least psi* on the line n.z = c
        for model in builtin_models():
            for normal, c in (((1.0, 1.0), 1.0), ((1.0, -2.0), 0.5), ((-0.6, 0.8), 0.3)):
                base = np.array(normal) * c / (normal[0] ** 2 + normal[1] ** 2)

                def line(s):  # the points c n/|n|^2 + s (-n2, n1)
                    return psi_star(model, base[0] - s * normal[1], base[1] + s * normal[0])

                s = np.linspace(-20.0, 20.0, 20001)  # two passes, the second around the best of the first
                k = int(np.argmin(line(s)))
                scan = float(np.min(line(np.linspace(s[k - 1], s[k + 1], 20001))))
                rate = md_event_rate(model, HalfPlane(normal, c))
                assert rate <= scan + 1e-15
                assert rate == pytest.approx(scan, rel=1e-9)

    def test_zero_normal(self):
        # {0 >= c}: every point for c <= 0, none for c > 0
        assert md_event_rate(EXP1, HalfPlane((0.0, 0.0), 1.0)) == INF
        assert md_event_rate(EXP1, HalfPlane((0.0, 0.0), -1.0)) == 0.0
        assert md_event_rate(EXP1, HalfPlane((0.0, 0.0), 0.0)) == 0.0

    def test_opaque_events_raise_unless_they_hold_the_origin(self):
        with pytest.raises(TypeError):
            md_event_rate(EXP1, PredicateEvent(lambda z1, z2: z1 >= 1.0, "z1>=1"))
        assert md_event_rate(EXP1, PredicateEvent(lambda z1, z2: z1 >= -1.0, "z1>=-1")) == 0.0

    def test_sup_norm_region_rate(self):
        # the cheapest face of {||z||_inf > 1} is a z1 face: rate 1/2
        rate = md_event_rate(EXP1, sup_norm_exceedance(1.0))
        assert rate == pytest.approx(0.5, rel=1e-12)

    def test_sup_norm_rate_scaling(self):
        assert md_event_rate(EXP1, sup_norm_exceedance(2.0)) == pytest.approx(2.0)

    def test_rectangle_vs_grid(self):
        rect = Rectangle(1.0, 2.0, 0.2, 0.8)
        rate = md_event_rate(EXP1, rect)
        grid = min(
            psi_star(EXP1, z1, z2)
            for z1 in np.linspace(1.0, 2.0, 301)
            for z2 in np.linspace(0.2, 0.8, 301)
        )
        assert rate <= grid + 1e-12
        assert rate == pytest.approx(grid, abs=1e-4)

    # straddling an axis, one corner, half-infinite, and one finite edge
    @pytest.mark.parametrize("rect", [
        Rectangle(-1.0, 2.0, 0.5, 1.5),
        Rectangle(0.5, 3.0, -2.0, 2.0),
        Rectangle(1.0, 2.0, 0.1, 0.2),
        Rectangle(1.0, INF, -INF, 0.2),
        Rectangle(-INF, -0.3, -INF, -0.7),
        Rectangle(-INF, INF, 0.4, INF),
        Rectangle(-INF, -0.5, -INF, INF),
    ])
    def test_rectangle_equals_a_dense_scan_of_its_edges(self, rect):
        def scan(f, lo, hi):  # two passes of 20001 points; the second around the best of the first
            t = np.linspace(max(lo, -20.0), min(hi, 20.0), 20001)
            k = int(np.argmin(f(t)))
            t = np.linspace(t[max(k - 1, 0)], t[min(k + 1, t.size - 1)], 20001)
            return float(np.min(f(t)))

        for model in builtin_models():
            edges = [scan(lambda t: psi_star(model, z1, t), rect.y_lo, rect.y_hi)
                     for z1 in (rect.x_lo, rect.x_hi) if math.isfinite(z1)]
            edges += [scan(lambda t: psi_star(model, t, z2), rect.x_lo, rect.x_hi)
                      for z2 in (rect.y_lo, rect.y_hi) if math.isfinite(z2)]
            assert md_event_rate(model, rect) == pytest.approx(min(edges), abs=1e-12)

    def test_psi_star_within_seven_ulps_at_the_edge_minimisers(self):
        # the completed square 2 d^2 + 3 z2^2/2 adds nonnegative terms: its rounding error is
        # below (3 + sqrt(3) + 2) ulps.  At z2 = z1/2 and z1 = 3 z2/2, where psi* is least on
        # the edges of a rectangle, the terms of 2 z1^2 - 6 z1 z2 + 6 z2^2 are 13 times its value
        rng = np.random.default_rng(9)
        for model in builtin_models():
            for a in rng.uniform(-5.0, 5.0, 500):
                for z1, z2 in ((a, a / 2.0), (1.5 * a, a)):
                    q1, q2 = Fraction(z1), Fraction(z2)
                    exact = (2 * q1 * q1 - 6 * q1 * q2 + 6 * q2 * q2) / Fraction(model.variance)
                    assert abs(Fraction(psi_star(model, z1, z2)) - exact) <= 7 * Fraction(math.ulp(float(exact)))

    def test_rectangle_containing_origin(self):
        assert md_event_rate(EXP1, Rectangle(-1.0, 1.0, -1.0, 1.0)) == 0.0

    def test_empty_union(self):
        assert md_event_rate(EXP1, RegionUnion(())) == INF

    def test_union_is_min(self):
        a = HalfPlane((1.0, 0.0), 1.0)
        b = HalfPlane((0.0, 1.0), 1.0)
        assert md_event_rate(EXP1, RegionUnion((a, b))) == pytest.approx(
            min(md_event_rate(EXP1, a), md_event_rate(EXP1, b))
        )


class TestMomentsFromPassageWeights:
    @pytest.mark.parametrize("x", [0.3, 1.0, 10.0, 10.5, 1e5 + 0.25])
    def test_direct_sums_over_the_weights(self, x):
        w = passage_weights(x)
        sum_w, sum_w2 = math.fsum(w), math.fsum(w * w)
        for model in builtin_models():
            rep = exact_moments(model, x)
            phi1, phi2 = model.mean, model.variance
            assert rep.n_terms == w.size
            assert rep.mean_tau == pytest.approx(w.size * phi1, rel=1e-14)
            assert rep.var_tau == pytest.approx(w.size * phi2, rel=1e-14)
            assert rep.mean_area == pytest.approx(phi1 * sum_w, rel=1e-12)
            assert rep.cov == pytest.approx(phi2 * sum_w, rel=1e-12)
            assert rep.var_area == pytest.approx(phi2 * sum_w2, rel=1e-12)

    def test_last_weight_below_one_half(self):
        # one holding time, weighted by x itself
        assert passage_weights(0.3).tolist() == [0.3]
        assert exact_moments(EXP1, 0.3).var_area == pytest.approx(0.09, rel=1e-15)
