import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from renewal_ldp import (
    INF,
    HalfPlane,
    MarginalThreshold,
    PredicateEvent,
    Rectangle,
    RegionUnion,
    SimulationConfig,
    block_rng,
    builtin_models,
    empirical_clt,
    empirical_md,
    empirical_moments,
    estimate_tail,
    exact_moments,
    hessian_origin,
    lambda_eval,
    ld_event_rate,
    make_model,
    map_blocks,
    marginal_I2,
    parse_event,
    phi_star,
    rate_ld,
    sup_norm_exceedance,
    wilson_interval,
)
from renewal_ldp import simulate
from renewal_ldp.moderate import passage_weights
from renewal_ldp.simulate import BLOCK_SIZE, exact_tail_oracle, log_exact_tail_oracle, n_terms_for

EXP1 = make_model("exponential", {"lam": 1.0})


def in_finite_x_domain(model, x, a1, a2):
    """Membership in the per-x MGF domain: a1 + a2 w in D(phi) at every passage weight w."""
    w = x if a2 >= 0.0 else x - (n_terms_for(x) - 1)  # the first or the last weight
    return model.domain.contains(a1 + a2 * w)


def mgf_empirical_check(model, x, a1, a2, n_samples, seed):
    """Relative error of the empirical joint MGF of (tau, A) against the product formula.

    E exp(a1 tau + a2 A) = prod_k exp(phi(a1 + a2 w_k)) over the passage weights w_k.
    """
    if not in_finite_x_domain(model, x, a1, a2):
        raise ValueError(f"tilt ({a1}, {a2}) outside the finite-x MGF domain")
    exact = math.exp(math.fsum(model.phi(a1 + a2 * w) for w in passage_weights(x)))
    config = SimulationConfig(model=model, x=x, n_samples=n_samples, seed=seed)
    parts = map_blocks(config, lambda tau, area: (np.exp(a1 * tau + a2 * area).sum(), tau.size))
    n = int(math.fsum(p[1] for p in parts))
    empirical = math.fsum(p[0] for p in parts) / n
    return {"empirical": empirical, "exact": exact, "relative_error": abs(empirical - exact) / exact,
            "n_samples": n}


class TestSampling:
    @staticmethod
    def block(x, n, seed):
        config = SimulationConfig(model=EXP1, x=x, n_samples=n, seed=seed)
        (tau, area), = map_blocks(config, lambda t, a: (t, a))
        return tau, area

    @pytest.mark.parametrize("x, n_terms", [(10.0, 10), (10.5, 11)])
    def test_term_count(self, x, n_terms):
        # a sample sums ceil(x) draws of its block stream, weighted by x - k in the area
        assert n_terms_for(x) == n_terms
        draws = EXP1.sample(block_rng(1, 0), size=(50, n_terms))
        tau, area = self.block(x, 50, seed=1)
        assert np.array_equal(tau, draws.sum(axis=1))
        assert np.array_equal(area, draws @ (x - np.arange(n_terms)))

    def test_positive_passage_time(self):
        tau, _ = self.block(10.0, 100, seed=1)
        assert np.all(tau > 0)

    def test_area_bounds(self):
        # pathwise: tau <= A <= x * tau (weights lie in (0, x])
        tau, area = self.block(7.0, 100, seed=5)
        assert np.all((tau <= area) & (area <= 7.0 * tau))

    @pytest.mark.parametrize("x", [0.0, -2.0, math.nan, math.inf])
    def test_invalid_x(self, x):
        with pytest.raises(ValueError, match="x must be finite" if x == math.inf else "x must be positive"):
            SimulationConfig(model=EXP1, x=x, n_samples=10, seed=1)


class TestReproducibility:
    def test_worker_count_invariance(self):
        def stats(tau, area):
            return (tau.sum(), area.sum())

        base = None
        for workers in (1, 2, 4):
            config = SimulationConfig(model=EXP1, x=10.0, n_samples=20000, seed=99,
                                      workers=workers)
            parts = map_blocks(config, stats)
            total = (
                math.fsum(p[0] for p in parts),
                math.fsum(p[1] for p in parts),
            )
            if base is None:
                base = total
            else:
                assert total == base  # bit-identical, not approximately equal

    def test_seed_determinism(self):
        c = SimulationConfig(model=EXP1, x=5.0, n_samples=5000, seed=3)
        a = map_blocks(c, lambda t, ar: t.sum())
        b = map_blocks(c, lambda t, ar: t.sum())
        assert a == b

    def test_different_seeds_differ(self):
        a = map_blocks(SimulationConfig(model=EXP1, x=5.0, n_samples=5000, seed=3),
                       lambda t, ar: t.sum())
        b = map_blocks(SimulationConfig(model=EXP1, x=5.0, n_samples=5000, seed=4),
                       lambda t, ar: t.sum())
        assert a != b

    def test_block_streams_independent_of_chunking(self):
        # drawing a block in one go equals the chunked path used internally
        from renewal_ldp import simulate as sim

        rng = block_rng(7, 0)
        direct = EXP1.sample(rng, size=(100, 10))
        config = SimulationConfig(model=EXP1, x=10.0, n_samples=100, seed=7)
        taus = np.concatenate(map_blocks(config, lambda t, a: t))
        assert np.array_equal(taus, direct.sum(axis=1))


class TestChunking:
    """The chunk size bounds memory: ``func`` runs once per whole block, and the chunk size moves no result of
    a block whose sample count is a multiple of 8."""

    N_SAMPLES = BLOCK_SIZE + BLOCK_SIZE // 2  # a full block and a half block

    @pytest.mark.parametrize("x", [10.5, 1000.0, 3000.5])
    def test_results_do_not_depend_on_the_chunk(self, x, monkeypatch):
        seen = set()
        for chunk_draws in (1 << 23, 1 << 16, 1 << 10):
            monkeypatch.setattr(simulate, "CHUNK_DRAWS", chunk_draws)
            for workers in (1, 2):
                config = SimulationConfig(model=EXP1, x=x, n_samples=self.N_SAMPLES, seed=5,
                                          workers=workers)
                parts = map_blocks(config, lambda tau, area: (tau, area))
                assert [tau.size for tau, _ in parts] == [BLOCK_SIZE, BLOCK_SIZE // 2]
                seen.add(b"".join(tau.tobytes() + area.tobytes() for tau, area in parts))
        assert len(seen) == 1
        weights = passage_weights(x)
        for b, (tau, area) in enumerate(parts):  # one whole-block dgemv on the same stream
            draws = EXP1.sample(block_rng(5, b), size=(tau.size, weights.size))
            assert np.array_equal(tau, draws.sum(axis=1))
            assert np.array_equal(area, draws @ weights)

    def test_a_last_block_of_other_counts(self, monkeypatch):
        # a last block of 1697 samples: dgemv treats the rows past a multiple of 8 with another kernel, and
        # the chunks end elsewhere, so its areas can move by a few ulps with the chunk size and from one
        # whole-block dgemv (up to 7.9e-16 relative seen).  The passage times, the full block and the
        # worker invariance at each chunk size stay exact
        x, n = 1000.0, BLOCK_SIZE + 1697
        weights, runs = passage_weights(x), []
        for chunk_draws in (1 << 16, 1 << 13, 1 << 10):
            monkeypatch.setattr(simulate, "CHUNK_DRAWS", chunk_draws)
            by_workers = [map_blocks(SimulationConfig(model=EXP1, x=x, n_samples=n, seed=5, workers=workers),
                                     lambda tau, area: (tau, area)) for workers in (1, 2)]
            assert [tau.size for tau, _ in by_workers[0]] == [BLOCK_SIZE, 1697]
            assert all(np.array_equal(a, b) for one, two in zip(*by_workers) for a, b in zip(one, two))
            runs.append(by_workers[0])
        for b, (tau, area) in enumerate(runs[0]):
            draws = EXP1.sample(block_rng(5, b), size=(tau.size, weights.size))
            whole = draws @ weights
            for run in runs:
                assert np.array_equal(run[b][0], draws.sum(axis=1))
                if b == 0:
                    assert np.array_equal(run[b][1], whole)
                else:
                    assert np.allclose(run[b][1], whole, rtol=2e-15, atol=0.0)


class TestEvents:
    def test_parse_event(self):
        e = parse_event("z1>=1.5")
        assert e == HalfPlane((1.0, 0.0), 1.5) and e.describe() == "z1>=1.5"
        e = parse_event("z2<=0.2")
        assert e == HalfPlane((0.0, -1.0), -0.2) and e.describe() == "z2<=0.2"

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_event("z3>=1")
        with pytest.raises(ValueError):
            parse_event("z1=1")

    @pytest.mark.parametrize("coord, op", [("z1", ">"), ("z3", ">="), ("z2", "==")])
    def test_marginal_threshold_rejects_other_coordinates_and_ops(self, coord, op):
        with pytest.raises(ValueError):
            MarginalThreshold(coord, op, 1.0)

    def test_describe(self):
        assert MarginalThreshold("z1", "<=", 0.5).describe() == "z1<=0.5"
        assert MarginalThreshold("z2", ">=", 1.0).describe() == "z2>=1"
        tilted = HalfPlane((1.0, 1.0), 2.4)
        assert tilted.describe() == repr(tilted)

    def test_contains_vectorized(self):
        e = parse_event("z1>=1.5")
        z1 = np.array([1.0, 1.6])
        out = e.contains(z1, np.zeros(2))
        assert list(out) == [False, True]


class TestPredictedRates:
    def test_tau_upper_tail(self):
        assert ld_event_rate(EXP1, parse_event("z1>=1.5"), 100) == pytest.approx(
            phi_star(EXP1, 1.5).value
        )

    def test_tau_lower_tail(self):
        assert ld_event_rate(EXP1, parse_event("z1<=0.5"), 100) == pytest.approx(
            phi_star(EXP1, 0.5).value
        )

    def test_typical_event_rate_zero(self):
        assert ld_event_rate(EXP1, parse_event("z1>=0.9"), 100) == 0.0
        assert ld_event_rate(EXP1, parse_event("z2<=0.6"), 100) == 0.0

    def test_area_tail_uses_marginal(self):
        assert ld_event_rate(EXP1, parse_event("z2>=1.0"), 100) == pytest.approx(
            marginal_I2(EXP1, 1.0).value
        )

    def test_generic_region_boundary_search(self):
        event = PredicateEvent(lambda z1, z2: z1 >= 1.5, "z1>=1.5 (generic)")
        generic = ld_event_rate(EXP1, event, 100)
        assert generic == pytest.approx(phi_star(EXP1, 1.5).value, rel=1e-12)


MODELS = builtin_models()
MODEL_IDS = [m.kind for m in MODELS]


def line_scan(model, normal, c, n=401):
    """Least rate_ld on the line n.z = c in the open cone: a grid in z2/z1, refined by a bounded search."""

    def rate(s):  # the point of the line with z2 = s z1
        z1 = c / (normal[0] + normal[1] * s)
        return rate_ld(model, z1, s * z1).value if z1 > 0.0 else INF

    # the slopes s in (0, 1) where z1 > 0: on one side of the zero of n1 + n2 s
    s0 = -normal[0] / normal[1]
    lo, hi = (max(s0, 0.0), 1.0) if c * normal[1] > 0.0 else (0.0, min(s0, 1.0))
    grid = np.linspace(lo, hi, n)[1:-1]
    j = int(np.argmin([rate(s) for s in grid]))
    lo, hi = grid[max(j - 1, 0)], grid[min(j + 1, grid.size - 1)]
    return min(rate(grid[j]), minimize_scalar(rate, bounds=(lo, hi), method="bounded",
                                              options={"xatol": 1e-14}).fun)


def bounded_dual(model, normal, c):
    """max of t c - L(t n) over 0 <= t <= top, the largest t with t n in the domain, top included.

    A bounded scalar search stops some 1e-8 |t| short of a maximiser at top, so top is tried as well.
    """
    top = model.domain.boundary / max(normal[0], normal[0] + normal[1])

    def dual(t):
        return t * c - lambda_eval(model, t * normal[0], t * normal[1])

    while dual(top) == -INF:  # an open boundary
        top = math.nextafter(top, 0.0)
    inner = minimize_scalar(lambda t: -dual(t), bounds=(0.0, top), method="bounded", options={"xatol": 1e-12})
    return max(-inner.fun, dual(top))


def boundary_scan(model, event, segments, n=201):
    """Least rate_ld over the points of straight segments that lie in the event and the open cone."""
    best = math.inf
    for (a1, a2), (b1, b2) in segments:
        for s in np.linspace(0.0, 1.0, n):
            z1, z2 = a1 + s * (b1 - a1), a2 + s * (b2 - a2)
            if 0.0 < z2 < z1 and event.contains(z1, z2):
                best = min(best, rate_ld(model, z1, z2).value)
    return best


class TestBoundarySearch:
    # (coordinate, op, level in multiples of the mean): both tails of both coordinates, and
    # thin events at the apex of the cone and along its edge z2 = 0
    AXIS_CASES = [("z1", ">=", 1.5), ("z1", "<=", 0.6), ("z2", ">=", 0.8), ("z2", "<=", 0.3),
                  ("z1", "<=", 0.05), ("z2", "<=", 0.02)]

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("coord, op, level", AXIS_CASES)
    def test_axis_half_planes_equal_the_marginal_rates(self, model, coord, op, level):
        c = level * model.mean
        marginal = phi_star if coord == "z1" else marginal_I2
        exact = marginal(model, c).value
        axis = np.array([1.0, 0.0] if coord == "z1" else [0.0, 1.0])
        sign = 1.0 if op == ">=" else -1.0
        plane = HalfPlane(tuple(sign * axis), sign * c)
        opaque = PredicateEvent(lambda z1, z2: MarginalThreshold(coord, op, c).contains(z1, z2), "axis")
        assert ld_event_rate(model, plane, 100) == pytest.approx(exact, rel=1e-12)
        assert ld_event_rate(model, opaque, 100) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("coord, op, level", AXIS_CASES)
    def test_axis_half_planes_take_the_marginal_rate_itself(self, model, coord, op, level):
        c = level * model.mean
        normal = {("z1", ">="): (1.0, 0.0), ("z1", "<="): (-1.0, 0.0),
                  ("z2", ">="): (0.0, 1.0), ("z2", "<="): (0.0, -1.0)}[coord, op]
        plane = HalfPlane(normal, c if op == ">=" else -c)
        assert MarginalThreshold(coord, op, c) == plane
        assert ld_event_rate(model, plane, 100) == (phi_star if coord == "z1" else marginal_I2)(model, c).value

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_two_sided_area_tail(self, model):
        # two basins with close minima; for noncentral chi-squared the best of the
        # rays lies in the basin of the higher one
        m = model.mean
        both = RegionUnion((HalfPlane((0.0, 1.0), 0.8 * m), HalfPlane((0.0, -1.0), -0.285 * m)))
        exact = min(marginal_I2(model, 0.8 * m).value, marginal_I2(model, 0.285 * m).value)
        assert ld_event_rate(model, both, 100) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_strip_along_the_edge_z2_equal_z1(self, model):
        # the reflection I(z1, z2) = I(z1, z1 - z2) maps {z1 - z2 <= w} onto {z2 <= w}
        w = 0.02 * model.mean
        strip = HalfPlane((-1.0, 1.0), -w)
        assert ld_event_rate(model, strip, 100) == pytest.approx(marginal_I2(model, w).value, rel=1e-12)

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    # the bounding line n.z = c across the cone, in multiples of the mean: from
    # the edge z2 = z1 to z2 = 0, and from z2 = 0 out to z1 = 4
    @pytest.mark.parametrize("normal, level, ends", [
        ((1.0, 1.0), 2.4, ((1.2, 1.2), (2.4, 0.0))),
        ((1.0, -2.0), 0.5, ((0.5, 0.0), (4.0, 1.75))),
    ])
    def test_tilted_half_plane(self, model, normal, level, ends):
        m = model.mean
        c = level * m
        plane = HalfPlane(normal, c)
        rate = ld_event_rate(model, plane, 100)
        scan = boundary_scan(model, plane, [tuple((m * a, m * b) for a, b in ends)], n=801)
        assert rate <= scan + 1e-9
        assert rate == pytest.approx(scan, rel=1e-4)
        # weak duality: every t >= 0 bounds the infimum below by t c - L(t n)
        ts = np.linspace(0.0, model.domain.boundary, 2001)
        dual = max(t * c - lambda_eval(model, t * normal[0], t * normal[1]) for t in ts)
        assert rate >= dual - 1e-12

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("normal, level", [((1.0, 1.0), 2.4), ((1.0, -2.0), 0.5)])
    def test_tilted_half_plane_is_the_bounded_dual(self, model, normal, level):
        # the inverse-Gaussian (1, -2) case has its maximiser on the closed face t = top
        c = level * model.mean
        assert ld_event_rate(model, HalfPlane(normal, c), 100) == pytest.approx(
            bounded_dual(model, normal, c), rel=1e-12)

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    # thin wedges of the cone far from p, along its edge z2 = z1 and along z2 = 0, in
    # multiples of the mean; a ray search from p finds no ray that enters them
    @pytest.mark.parametrize("normal, level", [((-0.6924, 0.7215), 1.3099), ((0.0413, -0.9991), 0.9488),
                                               ((0.0625, -0.998), 1.392)])
    def test_thin_far_wedge(self, model, normal, level):
        c = level * model.mean
        rate = ld_event_rate(model, HalfPlane(normal, c), 100)
        assert math.isfinite(rate)
        assert rate == pytest.approx(line_scan(model, normal, c), rel=1e-5)
        assert rate == pytest.approx(bounded_dual(model, normal, c), rel=1e-12)

    @given(kind=st.sampled_from(MODEL_IDS), s=st.floats(0.3, 3.0), f=st.floats(0.15, 0.85),
           angle=st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=40, deadline=None)
    def test_tilted_half_planes_match_the_ray_search(self, kind, s, f, angle):
        # a line through a point q of the cone away from its edges, at 0.3 to 3 means, with
        # p outside the half-plane; the ray search of the same event is then exact, and
        # near p, where the rate is small, both carry the cancellation of t c - L
        model = MODELS[MODEL_IDS.index(kind)]
        m = model.mean
        q = (s * m, f * s * m)
        normal = (math.cos(angle), math.sin(angle))
        c = normal[0] * q[0] + normal[1] * q[1]
        if normal[0] * m + 0.5 * normal[1] * m >= c:
            normal, c = (-normal[0], -normal[1]), -c
        rate = ld_event_rate(model, HalfPlane(normal, c), 100)
        rays = ld_event_rate(model, PredicateEvent(lambda z1, z2: normal[0] * z1 + normal[1] * z2 >= c,
                                                   "tilted"), 100)
        assert math.isfinite(rays)
        assert rate == pytest.approx(rays, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_half_planes_that_miss_or_touch_the_cone(self, model):
        # in multiples of the mean: off the cone, touching an edge or the apex, and the
        # normal (0, 0), whose half-plane is every point or none
        m = model.mean
        cases = [((-1.0, 1.0), 0.1, INF), ((0.0, -1.0), 0.1, INF), ((-1.0, -1.0), 0.1, INF),
                 ((-1.0, 1.0), 0.0, INF), ((-1.0, -1.0), 0.0, INF), ((0.0, -1.0), 0.0, INF),
                 ((0.0, -1.0), -0.0, INF), ((-1.0, 0.0), 0.0, INF), ((-2.0, 1.0), 0.0, INF),
                 ((0.0, 0.0), 1.0, INF), ((0.0, 0.0), -1.0, 0.0), ((0.0, 0.0), 0.0, 0.0)]
        for normal, level, expected in cases:
            assert ld_event_rate(model, HalfPlane(normal, level * m), 100) == expected, (normal, level)

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_rectangle_union_and_sup_norm(self, model):
        m = model.mean

        def edges(r):
            corners = [(r.x_lo, r.y_lo), (r.x_hi, r.y_lo), (r.x_hi, r.y_hi), (r.x_lo, r.y_hi)]
            return list(zip(corners, corners[1:] + corners[:1]))

        bounded = Rectangle(1.3 * m, 2.0 * m, 0.8 * m, 1.2 * m)
        # rays from p cross `far` within less than a factor 2 in radius
        far = Rectangle(0.3 * m, 0.6 * m, 0.1 * m, 0.2 * m)
        near = Rectangle(1.3 * m, 1.6 * m, 0.3 * m, 0.5 * m)
        small = Rectangle(0.55 * m, 0.65 * m, 0.3 * m, 0.35 * m)
        delta = 1.4 * m
        sup_norm = sup_norm_exceedance(delta)
        cases = [
            (bounded, edges(bounded)),
            (far, edges(far)),
            (RegionUnion((near, small)), edges(near) + edges(small)),
            (sup_norm, [((delta, 0.0), (delta, delta)), ((delta, delta), (4.0 * m, delta))]),
        ]
        for region, segments in cases:
            rate = ld_event_rate(model, region, 100)
            scan = boundary_scan(model, region, segments, n=101)
            assert rate <= scan + 1e-9
            assert rate == pytest.approx(scan, rel=1e-3)
        # within the cone the sup-norm region is {z1 >= delta}
        assert ld_event_rate(model, sup_norm, 100) == pytest.approx(phi_star(model, delta).value,
                                                                   rel=1e-12)

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_law_of_large_numbers_point_and_events_off_the_cone(self, model):
        m = model.mean
        assert ld_event_rate(model, HalfPlane((1.0, 0.0), 0.9 * m), 100) == 0.0
        assert ld_event_rate(model, Rectangle(0.5 * m, 2.0 * m, 0.0, m), 100) == 0.0
        below = HalfPlane((0.0, -1.0), 0.1 * m)  # z2 <= -0.1 mean
        above = PredicateEvent(lambda z1, z2: z2 > z1 + 0.1 * m, "z2 > z1 + 0.1 mean")
        assert ld_event_rate(model, below, 100) == INF
        assert ld_event_rate(model, above, 100) == INF


class TestBrentMin:
    @pytest.mark.parametrize("center", [-0.4, 0.09, 0.3, 1.0])
    @pytest.mark.parametrize("bowl", [lambda a: 1.0 - math.cos(a), lambda a: 2.0 + a * a,
                                      lambda a: math.cosh(3.0 * a) + 0.5 * a**3, lambda a: math.exp(a) - a],
                             ids=["cos", "square", "cosh", "exp"])
    def test_smooth_bowl(self, bowl, center):
        seen = []

        def f(a):
            seen.append(a)
            return bowl(a - center)

        assert abs(simulate._brent_min(f, -0.5, 1.2) - bowl(0.0)) <= 1e-14
        assert len(seen) <= 15

    # where f is finite: inside, across the first probe lo + 0.382 (hi - lo), at an end, and nowhere probed
    @pytest.mark.parametrize("finite", [(0.2, 0.45), (0.0, 0.39), (0.38, 0.4), (0.6, 0.8), (0.9, 0.95),
                                        (0.05, 0.1)])
    def test_infinite_on_parts_of_the_bracket(self, finite):
        # a parabola through INF gives a NaN step
        seen, values = [], []

        def f(a):
            values.append((a - 0.5) ** 2 if finite[0] <= a <= finite[1] else INF)
            seen.append(a)
            return values[-1]

        least = simulate._brent_min(f, 0.0, 1.0)
        assert all(0.0 <= a <= 1.0 for a in seen)  # no NaN either
        assert least == min(values)
        assert math.isfinite(least) == (finite != (0.05, 0.1))


class TestRaySearchFrozen:
    TILTED_CASES = [((1.0, 1.0), 2.4), ((1.0, -2.0), 0.5), ((-1.0, 1.0), -0.3), ((1.0, 3.0), 3.5),
                    ((0.0625, -0.998), 1.392)]
    # ld_event_rate of each PredicateEvent by the golden-section search of the angle that
    # Brent's minimiser replaced: TestBoundarySearch.AXIS_CASES, then TILTED_CASES {n.z >= c mean}
    FROZEN = {
        "exponential": (0.09453489189183562, 0.1108256237659907, 0.0935489152184904, 0.08650424714787536,
                        2.0457322735539942, 2.0138544523800466, 0.1238277456014657, 0.2627722726636347,
                        0.08650424714787525, 0.055577806812651176, INF),
        "inverse_gaussian": (0.08333333333333331, 0.1333333333333333, 0.07892357102764774, 0.10566524021882362,
                             9.02500000000004, 10.140536596427491, 0.1062023519168317, 0.19280904158206347,
                             0.10566524021882362, 0.04936846784768567, INF),
        "noncentral_chi_squared": (0.06497581511015105, 0.07121576502206606, 0.06499818537713231,
                                   0.05541281188299538, 1.1535104775106704, 1.1294379124341045,
                                   0.08569567028881298, 0.1887140381100465, 0.05541281188299532,
                                   0.0381071851138772, INF),
        "gamma": (0.18906978378367123, 0.2216512475319814, 0.1870978304369808, 0.17300849429575071,
                  4.0914645471079885, 4.027708904760093, 0.2476554912029314, 0.5255445453272694,
                  0.1730084942957505, 0.11115561362530235, INF),
    }

    @staticmethod
    def events(m):
        axis = [lambda z1, z2, t=MarginalThreshold(coord, op, level * m): t.contains(z1, z2)
                for coord, op, level in TestBoundarySearch.AXIS_CASES]
        tilted = [lambda z1, z2, n=normal, c=level * m: n[0] * z1 + n[1] * z2 >= c
                  for normal, level in TestRaySearchFrozen.TILTED_CASES]
        return [PredicateEvent(fn, "frozen") for fn in axis + tilted]

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_values_of_the_golden_section_search(self, model):
        for event, frozen in zip(self.events(model.mean), self.FROZEN[model.kind], strict=True):
            assert ld_event_rate(model, event, 100) == pytest.approx(frozen, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kind", ["exponential", "gamma", "noncentral_chi_squared"])
    def test_first_hits_per_benchmark_half_plane(self, kind, monkeypatch):
        # the event of the rate_surface benchmark; the golden-section search made 97 first hits
        model = MODELS[MODEL_IDS.index(kind)]
        hits = []
        first_hit_rate = simulate._first_hit_rate
        monkeypatch.setattr(simulate, "_first_hit_rate", lambda *args: hits.append(args) or first_hit_rate(*args))
        c = 1.5 * model.mean
        rate = ld_event_rate(model, PredicateEvent(lambda z1, z2: z1 >= c, f"z1>={c:g}"), 100.0)
        assert rate == pytest.approx(self.FROZEN[kind][0], rel=1e-12)
        assert len(hits) <= 75


class TestBisection:
    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_rate_ld_within_ulps_of_the_entry(self, model, monkeypatch):
        # each ray that enters {z1 >= c} takes I at its first double inside: at most a few ulps of c past
        # the edge, as the march's neighbouring radii are bisected down to adjacent doubles
        points = []
        monkeypatch.setattr(simulate, "rate_ld", lambda m, z1, z2: points.append(z1) or rate_ld(m, z1, z2))
        c = 1.5 * model.mean
        ld_event_rate(model, PredicateEvent(lambda z1, z2: z1 >= c, "z1>=1.5 mean"), 100.0)
        assert len(points) >= 20
        assert all(0.0 <= z1 - c <= 8.0 * np.finfo(float).eps * c for z1 in points)

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_contains_on_arrays_in_the_march_and_floats_in_the_bisection(self, model):
        frozen = TestRaySearchFrozen.FROZEN[model.kind]
        for event, value in zip(TestRaySearchFrozen.events(model.mean), frozen, strict=True):
            calls = {np.ndarray: 0, float: 0}  # any other type is a KeyError

            def typed(z1, z2, fn=event.fn):
                calls[type(z1)] += 1
                return fn(z1, z2)

            assert ld_event_rate(model, PredicateEvent(typed, "typed"), 100.0) == pytest.approx(value, rel=1e-12)
            # one march per ray; one float call tests p itself, the others are bisection steps
            assert calls[np.ndarray] >= simulate.N_RAYS
            assert calls[float] > 1 or value == INF


def grid_scan(model, rect, n=25):
    """Least rate_ld over an n x n grid of the rectangle, cut at 4 means, in the open cone."""
    top = 4.0 * model.mean
    best = math.inf
    for z1 in np.linspace(max(rect.x_lo, 0.0), min(rect.x_hi, top), n):
        for z2 in np.linspace(max(rect.y_lo, 0.0), min(rect.y_hi, top), n):
            if 0.0 < z2 < z1:
                best = min(best, rate_ld(model, z1, z2).value)
    return best


class TestRegionEdgeRule:
    # in multiples of the mean: thin and small rectangles that fall between the rays, an
    # unbounded one, and one across the cone edge z2 = z1 whose inverse-Gaussian row
    # minimiser z1 = 2 + 1/6 lies on the closed face and clamps to the corner (2, 1.5)
    RECTANGLES = [(3.0, 3.05, 1.0, 1.05), (0.02, 0.05, 0.001, 0.005), (1.2, 1.25, 0.55, 0.6),
                  (2.5, INF, 0.2, 0.5), (1.3, 2.0, 1.5, 3.0)]

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("bounds", RECTANGLES)
    def test_rectangles_match_a_dense_scan(self, model, bounds):
        rect = Rectangle(*(model.mean * b for b in bounds))
        rate = ld_event_rate(model, rect, 100)
        scan = grid_scan(model, rect)
        assert rate <= scan + 1e-9
        assert rate == pytest.approx(scan, rel=1e-3)

    def test_inverse_gaussian_face_corner(self):
        ig = make_model("inverse_gaussian", {"mu": 1.0})
        assert ld_event_rate(ig, Rectangle(1.3, 2.0, 1.5, 3.0), 100) == pytest.approx(4.0 / 9.0, rel=1e-12)

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_empty_and_off_the_cone(self, model):
        m = model.mean
        assert ld_event_rate(model, RegionUnion(()), 100) == INF
        assert ld_event_rate(model, Rectangle(m, 2.0 * m, -1.0 * m, -0.5 * m), 100) == INF
        assert ld_event_rate(model, Rectangle(m, 2.0 * m, 2.5 * m, 3.0 * m), 100) == INF

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("level", [1.1, 1.4, 1.7])
    def test_sup_norm_is_phi_star(self, model, level):
        # in the cone the cheapest part of the union is {z1 >= delta}, whose rate is phi*(delta)
        delta = level * model.mean
        assert ld_event_rate(model, sup_norm_exceedance(delta), 100) == phi_star(model, delta).value

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("level", [0.3, 1.5, 2.0, 5.0])  # 2 and 5 are face rows of inverse-Gaussian
    def test_row_minimiser(self, model, level):
        z2 = level * model.mean
        z1 = simulate._row_argmin(model, z2)
        row = marginal_I2(model, z2).value
        assert abs(rate_ld(model, z1, z2).value - row) <= 1e-12 * max(1.0, row)
        scan = min(rate_ld(model, s, z2).value for s in np.linspace(z2, 3.0 * z1, 301)[1:])
        assert rate_ld(model, z1, z2).value <= scan
        # the strip beyond the row, away from p = (mean, mean/2), takes the row's rate
        strip = Rectangle(-INF, INF, z2, INF) if level > 0.5 else Rectangle(-INF, INF, -INF, z2)
        assert ld_event_rate(model, strip, 100) == pytest.approx(row, rel=1e-12)

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_no_region_reaches_the_ray_search(self, model, monkeypatch):
        def refuse(*args):
            raise AssertionError("ray search reached")

        monkeypatch.setattr(simulate, "_first_hit_rate", refuse)
        m = model.mean
        for bounds in self.RECTANGLES:
            ld_event_rate(model, Rectangle(*(m * b for b in bounds)), 100)
        ld_event_rate(model, sup_norm_exceedance(1.4 * m), 100)
        two_sided = RegionUnion((HalfPlane((0.0, 1.0), 0.8 * m), HalfPlane((0.0, -1.0), -0.3 * m)))
        ld_event_rate(model, two_sided, 100)
        for normal, level in [((1.0, 1.0), 2.4), ((1.0, -2.0), 0.5), ((-1.0, 1.0), -0.02),
                              ((-0.6924, 0.7215), 1.3099), ((-1.0, 1.0), 0.1), ((0.0, 0.0), 1.0)]:
            ld_event_rate(model, HalfPlane(normal, level * m), 100)


class TestWilson:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(50, 1000)
        assert lo < 0.05 < hi

    def test_zero_hits(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0
        assert 0.0 < hi < 0.02

    @pytest.mark.parametrize("level", [0.9, 0.95, 0.99, 0.999])
    def test_equals_the_normal_quantile_formula(self, level):
        from scipy import stats as sps

        z = float(sps.norm.ppf(0.5 * (1.0 + level)))
        for hits, n in ((0, 100), (17, 1000), (50, 50)):
            p = hits / n
            denom = 1.0 + z**2 / n
            center = (p + z**2 / (2 * n)) / denom
            half = z * math.sqrt(p * (1 - p) / n + z**2 / (4 * n**2)) / denom
            assert wilson_interval(hits, n, level) == (max(center - half, 0.0), min(center + half, 1.0))

    def test_frozen_value(self):
        # Wilson 99% interval for 10/100; oracle from a 40-digit computation
        lo, hi = wilson_interval(10, 100, level=0.99)
        assert lo == pytest.approx(0.046025811701035027, abs=1e-12)
        assert hi == pytest.approx(0.203750738471623363, abs=1e-12)


class TestExactOracle:
    def test_gamma_tail_value(self):
        # P(tau(10) >= 15) with unit-rate exponential holding times
        from scipy import stats as sps

        event = parse_event("z1>=1.5")
        p = exact_tail_oracle(EXP1, event, 10)
        assert p == pytest.approx(float(sps.gamma.sf(15.0, a=10)), rel=1e-14, abs=0.0)
        assert math.log(p) == pytest.approx(log_exact_tail_oracle(EXP1, event, 10), abs=1e-12)

    def test_lower_tail(self):
        event = parse_event("z1<=0.5")
        from scipy import stats as sps

        assert exact_tail_oracle(EXP1, event, 10) == pytest.approx(
            float(sps.gamma.cdf(5.0, a=10)), rel=1e-14
        )

    def test_none_when_unavailable(self):
        gamma_model = make_model("gamma", {"shape": 2.0, "rate": 2.0})
        assert exact_tail_oracle(gamma_model, parse_event("z1>=1.5"), 10) is None
        assert exact_tail_oracle(EXP1, parse_event("z1>=1.5"), 10.5) == 0.08632905837074473
        assert exact_tail_oracle(EXP1, parse_event("z2>=1.5"), 10) is None


    # tau(x) is Gamma(ceil(x), rate lam) at every x > 0; c <= 0 lies outside the support,
    # and c = 3, 4 at x = 400, 1000 are tails far below 1e-100 (down to underflow)
    @pytest.mark.parametrize("lam", [0.5, 1.0, 3.7])
    @pytest.mark.parametrize("x", [1, 10, 10.5, 400, 1000.25])
    def test_equals_the_scipy_gamma_law(self, lam, x):
        from scipy import stats as sps

        model = make_model("exponential", {"lam": lam})
        law = sps.gamma(a=math.ceil(x), scale=1.0 / lam)
        for c in (-1.0, 0.0, 0.3 / lam, 0.9 / lam, 1.0 / lam, 1.5 / lam, 3.0 / lam, 4.0 / lam):
            assert exact_tail_oracle(model, MarginalThreshold("z1", ">=", c), x) == float(law.sf(c * x))
            assert exact_tail_oracle(model, MarginalThreshold("z1", "<=", c), x) == float(law.cdf(c * x))

    @pytest.mark.parametrize("lam", [0.5, 1.0, 3.7])
    @pytest.mark.parametrize("x", [1, 10, 10.5, 400, 1000.25])
    def test_log_equals_the_mpmath_log_tails(self, lam, x):
        # 40-digit regularized incomplete gamma tails, the median included; at c = 3, 4 and
        # x = 400, 1000.25 the tails lie below the doubles, and their logs stay finite
        model = make_model("exponential", {"lam": lam})
        a = math.ceil(x)
        for c in (-1.0, 0.0, 0.3 / lam, 0.9 / lam, 1.0 / lam, 1.2 / lam, 1.5 / lam, 3.0 / lam, 4.0 / lam):
            y = max(c * x / (1.0 / lam), 0.0)
            with mpmath.workdps(40):  # a tail near 1 rounds to 1 there: take log1p of its complement
                q = mpmath.gammainc(a, y, mpmath.inf, regularized=True)
                p = mpmath.gammainc(a, 0, y, regularized=True)
                exact = {">=": float(mpmath.log(q) if q < 0.5 else mpmath.log1p(-p)),
                         "<=": float((mpmath.log(p) if p else -math.inf) if p < 0.5 else mpmath.log1p(-q))}
            for op, value in exact.items():
                log_p = log_exact_tail_oracle(model, MarginalThreshold("z1", op, c), x)
                assert log_p == pytest.approx(value, rel=2e-12, abs=1e-300)

    def test_log_tail_below_the_doubles(self):
        # P(tau(1000) >= 3000) is about 1e-394: the tail underflows, its log does not
        event = MarginalThreshold("z1", ">=", 3.0)
        assert exact_tail_oracle(EXP1, event, 1000) == 0.0
        with mpmath.workdps(40):
            exact = float(mpmath.log(mpmath.gammainc(1000, 3000, mpmath.inf, regularized=True)))
        assert exact == pytest.approx(-906.4545, abs=1e-4)
        assert log_exact_tail_oracle(EXP1, event, 1000) == pytest.approx(exact, rel=1e-14, abs=0.0)


class TestEstimateTail:
    def test_matches_oracle(self):
        config = SimulationConfig(model=EXP1, x=20.0, n_samples=200000, seed=17)
        est = estimate_tail(config, parse_event("z1>=1.5"))
        assert est.exact_probability is not None
        assert est.ci_low <= est.exact_probability <= est.ci_high
        assert est.hit_count > 0
        assert est.empirical_rate == pytest.approx(-math.log(est.p_hat) / 20.0)

    def test_fractional_x_reports_the_exact_probability(self):
        config = SimulationConfig(model=EXP1, x=10.5, n_samples=20000, seed=17)
        est = estimate_tail(config, parse_event("z1>=1.5"))
        assert est.exact_probability == 0.08632905837074473  # P(Gamma(11, 1) >= 15.75)
        assert est.ci_low <= est.exact_probability <= est.ci_high

    def test_axis_half_plane_is_the_marginal_threshold(self):
        config = SimulationConfig(model=EXP1, x=10.5, n_samples=2000, seed=17)
        est = estimate_tail(config, HalfPlane((1.0, 0.0), 1.5))
        assert est.event == "z1>=1.5"
        assert est.exact_probability == 0.08632905837074473
        assert est.predicted_rate == phi_star(EXP1, 1.5).value

    def test_zero_hits_reports_bound(self):
        config = SimulationConfig(model=EXP1, x=200.0, n_samples=2000, seed=17)
        est = estimate_tail(config, parse_event("z1>=3.0"))
        assert est.hit_count == 0
        assert est.empirical_rate is None
        assert est.zero_hit_bound == pytest.approx(-math.log(3.0 / 2000) / 200.0)


class TestEmpiricalClt:
    def test_exponential_covariance(self):
        out = empirical_clt(EXP1, x=2000.0, n_samples=40000, seed=2)
        C = hessian_origin(EXP1).C
        assert np.max(np.abs(out["cov"] - C) / np.abs(C)) < 0.08
        assert abs(out["correlation"] - math.sqrt(3) / 2) < 0.02

    def test_one_sample_raises(self):
        with pytest.raises(ValueError, match="n_samples >= 2"):
            empirical_clt(EXP1, 5.0, 1, 1)


class TestEmpiricalMoments:
    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_samples_raise(self, n):
        # the Bessel factor n/(n - 1) needs two samples
        with pytest.raises(ValueError, match="n_samples >= 2"):
            empirical_moments(EXP1, 5.0, n, 1)

    def test_two_samples(self):
        assert empirical_moments(EXP1, 5.0, 2, 1)["n_samples"] == 2

    @pytest.mark.parametrize("x", [10.0, 10.5])
    def test_against_exact(self, x):
        n = 200000
        emp = empirical_moments(EXP1, x, n, seed=21)
        exact = exact_moments(EXP1, x)
        assert emp["mean_tau"] == pytest.approx(
            exact.mean_tau, abs=5 * math.sqrt(exact.var_tau / n)
        )
        assert emp["mean_area"] == pytest.approx(
            exact.mean_area, abs=5 * math.sqrt(exact.var_area / n)
        )
        assert emp["var_tau"] == pytest.approx(exact.var_tau, rel=0.05)
        assert emp["var_area"] == pytest.approx(exact.var_area, rel=0.05)
        assert emp["cov"] == pytest.approx(exact.cov, rel=0.05)


class TestMgfCheck:
    def test_small_tilt_agrees(self):
        out = mgf_empirical_check(EXP1, x=5.0, a1=-0.2, a2=0.01, n_samples=200000, seed=13)
        assert out["relative_error"] < 0.01

    def test_negative_area_tilt(self):
        out = mgf_empirical_check(EXP1, x=8.0, a1=0.05, a2=-0.05, n_samples=200000, seed=13)
        assert out["relative_error"] < 0.01

    def test_outside_domain_raises(self):
        with pytest.raises(ValueError):
            mgf_empirical_check(EXP1, x=5.0, a1=0.0, a2=0.5, n_samples=100, seed=1)


class TestFiniteXDomain:
    def test_last_weight_is_exact_below_one_half(self):
        # at x = 0.1 the only weight is 0.1 itself; x - ceil(x) + 1 would give
        # 0.09999999999999998 and put the tilt a1 - 10 w on the boundary 1
        assert passage_weights(0.1).tolist() == [0.1]
        a1 = math.nextafter(2.0, -math.inf)
        assert a1 - 10.0 * 0.1 < 1.0
        assert in_finite_x_domain(EXP1, 0.1, a1, -10.0)
        assert not in_finite_x_domain(EXP1, 0.1, 2.0, -10.0)

    @pytest.mark.parametrize("x", [1.0, 7.0, 7.25, 0.4])
    def test_largest_tilt_over_the_weights(self, x):
        w = passage_weights(x)
        for a1, a2 in ((0.5, 0.05), (0.9, -0.3), (1.2, -0.3), (-0.5, 0.3)):
            expected = bool(np.max(a1 + a2 * w) < 1.0)
            assert in_finite_x_domain(EXP1, x, a1, a2) == expected


class TestEmpiricalMd:
    def test_oracle_column_and_rule_of_three(self):
        rows = empirical_md(EXP1, [100], p_exponent=0.5, delta=1.0,
                            n_samples=4000, seed=9)
        row = rows[0]
        assert row["predicted_exponent"] == pytest.approx(-0.5)
        assert "oracle_exponent" in row
        assert row["oracle_exponent"] < 0
        # MC column agrees with the oracle within statistical noise
        assert abs(row["mc_exponent"] - row["oracle_exponent"]) < 0.25

    def test_oracle_dominated_by_gamma_faces(self):
        from renewal_ldp.simulate import _md_oracle_log_prob
        from scipy import stats as sps

        x, a_x = 400, 400**-0.5
        scale = math.sqrt(x * a_x)
        thr = 1.0 / scale
        log_tau = np.logaddexp(
            sps.gamma.logsf((1 + thr) * x, a=x),
            sps.gamma.logcdf((1 - thr) * x, a=x),
        )
        total = _md_oracle_log_prob(EXP1, x, scale, 1.0)
        # the area faces add only a negligible sliver to the tau faces
        assert total >= log_tau
        assert total <= log_tau + 1e-3

    def test_delta_zero_counts_every_sample(self):
        rows = empirical_md(EXP1, [10, 10.5], p_exponent=0.5, delta=0.0,
                            n_samples=3000, seed=9)
        for row in rows:
            assert row["hits"] == 3000
            assert row["mc_exponent"] == 0.0

    @pytest.mark.parametrize("x", [0.0, -2.0, math.nan, math.inf])
    def test_invalid_x(self, x):
        with pytest.raises(ValueError, match="x must be finite" if x == math.inf else "x must be positive"):
            empirical_md(EXP1, [x], p_exponent=0.5, delta=1.0, n_samples=10, seed=9)

    def test_no_oracle_for_other_models(self):
        ig = make_model("inverse_gaussian", {"mu": 1.0})
        rows = empirical_md(ig, [100], p_exponent=0.5, delta=1.0,
                            n_samples=2000, seed=9)
        assert "oracle_exponent" not in rows[0]


class TestAreaFaceChernoff:
    @pytest.mark.parametrize("kind, params", [("exponential", {"lam": 1.0}),
                                              ("gamma", {"shape": 2.0, "rate": 2.0})])
    @pytest.mark.parametrize("x", [100, 1000])
    @pytest.mark.parametrize("upper", [True, False])
    def test_no_larger_than_a_scan(self, kind, params, x, upper):
        from renewal_ldp.simulate import _area_face_chernoff

        model = make_model(kind, params)
        shape = params.get("shape", 1.0)
        rate = model.domain.boundary
        thr = x ** -0.25  # the sup-norm faces of criterion 11 at delta = 1
        threshold = 0.5 * model.mean + (thr if upper else -thr)
        level = threshold * x * x
        # independent oracle: K(b) = sum_k -shape log(1 - b w_k / rate), scanned on the face
        w = passage_weights(x)
        if upper:
            b = np.linspace(0.0, rate / x, 2002)[1:-1]
        else:
            b = np.linspace(-10.0 * rate / x, 0.0, 2001)[:-1]
        K = -shape * np.log1p(-np.outer(b, w) / rate).sum(axis=1)
        scan = float(np.min(K - b * level))
        bound = _area_face_chernoff(model, x, threshold, upper)
        assert bound <= scan + 1e-9 * abs(scan)
        assert bound == pytest.approx(scan, rel=1e-4)

    @pytest.mark.parametrize("kind, params, key", [("exponential", {}, "lam"),
                                                   ("gamma", {"shape": 2.0}, "rate")])
    @pytest.mark.parametrize("rate", [1e-9, 1e-6, 1e3])
    @pytest.mark.parametrize("ratio", [0.2, 0.4])
    def test_lower_face_is_free_of_the_rate(self, kind, params, key, rate, ratio):
        from renewal_ldp.simulate import _area_face_chernoff

        # holding times, A(x) and the threshold all scale by 1/rate, so the bound is the rate-1
        # bound; the root t scales with the rate, and a search tolerance of 4 eps absolute
        # (the scale 1 of top = 0) left 1.2e-13 at rate 1e-9
        x = 100.0
        model, unit = make_model(kind, {**params, key: rate}), make_model(kind, {**params, key: 1.0})
        bound = _area_face_chernoff(model, x, ratio * model.mean, upper=False)
        assert bound == pytest.approx(_area_face_chernoff(unit, x, ratio * unit.mean, upper=False),
                                      rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("kind, params", [("inverse_gaussian", {"mu": 1.0}),
                                              ("noncentral_chi_squared", {"lam": 1.0, "k": 1.0})])
    def test_other_kinds_raise(self, kind, params):
        from renewal_ldp.simulate import _area_face_chernoff

        # K is written as the gamma family's sum of logs; another kind gets no bound rather than a wrong one
        with pytest.raises(ValueError, match="gamma family"):
            _area_face_chernoff(make_model(kind, params), 100, 0.6, upper=True)

    def test_face_beyond_the_support(self):
        from renewal_ldp.simulate import _area_face_chernoff

        # A(x) > 0: P(A/x^2 <= 0) = 0 and P(A/x^2 >= 0) = 1
        assert _area_face_chernoff(EXP1, 100, 0.0, upper=False) == -math.inf
        assert _area_face_chernoff(EXP1, 100, -1.0, upper=True) == 0.0
        # an upper face below the mean 0.55 of A/x^2 at x = 10: the infimum is at b = 0
        assert _area_face_chernoff(EXP1, 10, 0.5, upper=True) == 0.0


class TestCltFromMoments:
    @pytest.mark.parametrize("kind, params", [("exponential", {"lam": 1.0}),
                                              ("gamma", {"shape": 2.0, "rate": 2.0})])
    @pytest.mark.parametrize("x", [10.5, 1000.0])
    def test_matches_centred_block_sums(self, kind, params, x):
        model = make_model(kind, params)
        n_samples, seed = 9000, 3
        out = empirical_clt(model, x, n_samples, seed, workers=2)
        # oracle: centre and scale every sample, then reduce the block sums
        config = SimulationConfig(model=model, x=x, n_samples=n_samples, seed=seed)
        phi1, sx, x2 = model.mean, math.sqrt(x), x * x

        def block_stats(tau, area):
            v1 = sx * (tau / x - phi1)
            v2 = sx * (area / x2 - 0.5 * phi1)
            return (v1.sum(), v2.sum(), (v1 * v1).sum(), (v1 * v2).sum(), (v2 * v2).sum(), v1.size)

        parts = map_blocks(config, block_stats)
        s1, s2, s11, s12, s22, n = (math.fsum(p[i] for p in parts) for i in range(6))
        mean = np.array([s1 / n, s2 / n])
        cov = np.array([
            [s11 / n - mean[0] ** 2, s12 / n - mean[0] * mean[1]],
            [s12 / n - mean[0] * mean[1], s22 / n - mean[1] ** 2],
        ]) * (n / (n - 1))
        assert out["n_samples"] == n_samples
        np.testing.assert_allclose(out["mean"], mean, rtol=1e-10)
        np.testing.assert_allclose(out["cov"], cov, rtol=1e-10)
        assert out["correlation"] == pytest.approx(cov[0, 1] / math.sqrt(cov[0, 0] * cov[1, 1]),
                                                   rel=1e-10)


class TestRegionEvents:
    def test_rectangle_and_union_count_like_a_threshold(self):
        from renewal_ldp import Rectangle, RegionUnion

        config = SimulationConfig(model=EXP1, x=20.0, n_samples=20000, seed=4)
        rect = Rectangle(1.5, math.inf, 0.0, math.inf)
        hits = estimate_tail(config, MarginalThreshold("z1", ">=", 1.5)).hit_count
        assert hits > 0
        assert estimate_tail(config, rect).hit_count == hits
        assert estimate_tail(config, RegionUnion((rect,))).hit_count == hits
