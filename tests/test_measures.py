"""Distribution widths and measurement-error measures."""

import math
import re
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gptlab.ideal import (
    binary_ideal_measurement,
    eigenstate,
    enumerate_ideal_measurements,
    fuzzify,
    indecomposable_pure_effects,
    perpendicular_ideal_pair,
    psi_transform,
)
from gptlab import measures
from gptlab.measures import (
    FiniteMetricSpace,
    OutcomeDistribution,
    _lipschitz_ball_lp,
    distribution,
    error_bar_width,
    linf_distance,
    localization_error,
    min_le_sum,
    overall_width,
    werner_distance,
)
from gptlab.model import (
    Measurement,
    effect_eval,
    make_classical,
    make_polygon,
    theory_to_float,
    validate_measurement,
)
from gptlab.scalars import EXACT, FLOAT, Context, solve

from helpers import (
    ball_reference,
    error_bar_width_reference,
    overall_width_reference,
    width_candidates_reference,
)


def two_point():
    return FiniteMetricSpace.discrete((0, 1))


class TestMetricSpace:
    def test_discrete_valid(self):
        FiniteMetricSpace.discrete((0, 1, 2)).validate(FLOAT)

    def test_line_valid(self):
        FiniteMetricSpace.line((0, 1, 2, 3)).validate(FLOAT)

    def test_triangle_violation_caught(self):
        bad = FiniteMetricSpace(points=(0, 1, 2), dist=(
            (0.0, 1.0, 3.0), (1.0, 0.0, 1.0), (3.0, 1.0, 0.0)))
        with pytest.raises(ValueError, match="triangle"):
            bad.validate(FLOAT)

    def test_asymmetry_caught(self):
        bad = FiniteMetricSpace(points=(0, 1), dist=((0.0, 1.0), (2.0, 0.0)))
        with pytest.raises(ValueError, match="symmetric"):
            bad.validate(FLOAT)

    @pytest.mark.parametrize("points", [(0, 0), (0, 1, 0), ("a", "b", "b"), ([0], [1], [0])],
                             ids=["pair", "apart", "labels", "unhashable"])
    def test_repeated_point_caught(self, points):
        # index() finds only the first of two equal labels, so a ball found by
        # the second one would be the first one's
        repeated = [p for i, p in enumerate(points) if p in points[:i]][0]
        with pytest.raises(ValueError, match=f"^point {re.escape(repr(repeated))} is repeated$"):
            FiniteMetricSpace.discrete(points).validate(FLOAT)

    def test_list_built_metric_is_the_tuple_built_one(self):
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        ft = fuzzify(t, f, 0.5)
        listed = FiniteMetricSpace([0, 1], [[0, 2], [2, 0]])
        tupled = FiniteMetricSpace((0, 1), ((0, 2), (2, 0)))
        assert listed == tupled and hash(listed) == hash(tupled)
        values = []
        for metric in (listed, tupled):
            ideal = Measurement(f.outcomes, f.effects, metric)
            approx = Measurement(ft.outcomes, ft.effects, metric)
            assert validate_measurement(t, ideal) and validate_measurement(t, approx)
            values.append(werner_distance(t, approx, ideal))
        assert values[0] == values[1] > 0

    def test_candidates_sorted(self):
        m = FiniteMetricSpace.line((0, 1, 2))
        assert m.width_candidates() == (0, 2, 4)

    def test_unknown_label_named(self):
        m = FiniteMetricSpace.discrete((0, 1))
        with pytest.raises(ValueError, match=r"5 is not a point of the metric on \(0, 1\)"):
            m.index(5)
        with pytest.raises(ValueError, match="'x' is not a point of the metric"):
            m.ball("x", 2, FLOAT)

    def test_ball_mass_adds_in_index_order_from_zero(self):
        # 1e16 + 1 rounds back to 1e16 in order; a compensated sum would give 1
        probs = (1e16, 1.0, -1e16)
        assert measures.ball_mass(probs, (0, 1, 2)) == 0.0
        assert measures.ball_mass(probs, (0, 2, 1)) == 1.0
        assert measures.ball_mass(probs, ()) == 0

    def test_no_points_no_candidates(self):
        with pytest.raises(ValueError, match="no points has no width candidates"):
            FiniteMetricSpace((), ()).width_candidates()

    def test_ball_rows_are_kept_per_context_and_candidate(self):
        m = FiniteMetricSpace((0, 1), ((0.0, 1.0), (1.0, 0.0)))
        rows = tuple(m.ball_rows(FLOAT))
        assert rows == (((0,), (1,)), ((0, 1), (0, 1)))
        assert all(a is b for a, b in zip(rows, m.ball_rows(FLOAT)))
        # a tolerance of 1 puts the other point into the zero-width ball
        assert next(m.ball_rows(Context(tol=1.0))) == ((0, 1), (0, 1))
        assert m == FiniteMetricSpace((0, 1), ((0.0, 1.0), (1.0, 0.0)))

    def test_one_shot_width_builds_only_the_rows_it_reads(self):
        # 300 line points: 300 candidates, up to 300**2 ball indices per row
        k = 300
        m = FiniteMetricSpace.line(tuple(range(k)))
        p = OutcomeDistribution(m, (1.0,) + (0.0,) * (k - 1))
        assert overall_width(p, 0.0) == 0
        assert overall_width(p, 0.5) == 0
        assert len(m._rows[FLOAT]) == 1

    def test_whole_profile_size(self):
        # the ball of radius c around i on a line is [i - c, i + c] clipped to
        # the line: k(2c + 1) - c(c + 1) indices per row, all below C * k**2
        k = 40
        m = FiniteMetricSpace.line(tuple(range(k)))
        p = OutcomeDistribution(m, (1 / k,) * k)
        assert len(tuple(measures.width_profile(p))) == len(m.width_candidates()) == k
        for c, row in enumerate(m.ball_rows(FLOAT)):
            assert sum(map(len, row)) == k * (2 * c + 1) - c * (c + 1)


class TestOverallWidth:
    def test_point_mass_zero(self):
        p = OutcomeDistribution(two_point(), (1.0, 0.0))
        assert overall_width(p, 0.2) == 0

    def test_even_split_needs_both(self):
        p = OutcomeDistribution(two_point(), (0.5, 0.5))
        assert overall_width(p, 0.3) == 2

    def test_full_tolerance_zero(self):
        p = OutcomeDistribution(two_point(), (0.5, 0.5))
        assert overall_width(p, 1.0) == 0

    def test_monotone_in_eps(self):
        metric = FiniteMetricSpace.line((0, 1, 2, 3))
        p = OutcomeDistribution(metric, (0.4, 0.3, 0.2, 0.1))
        widths = [overall_width(p, e) for e in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0)]
        assert all(a >= b for a, b in zip(widths, widths[1:]))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=5),
           st.floats(min_value=0.0, max_value=1.0))
    def test_candidate_set_realizes_infimum(self, weights, eps):
        total = sum(weights)
        probs = tuple(w / total for w in weights)
        metric = FiniteMetricSpace.line(tuple(range(len(probs))))
        p = OutcomeDistribution(metric, probs)
        w = overall_width(p, eps)
        assert w in metric.width_candidates()
        # a strictly smaller candidate must fail the mass condition
        smaller = [c for c in metric.width_candidates() if c < w]
        for c in smaller[-1:]:
            masses = [sum(probs[j] for j in metric.ball(a, c, FLOAT)) for a in metric.points]
            assert max(masses) < 1 - eps - 1e-12

    def test_eps_out_of_range(self):
        p = OutcomeDistribution(two_point(), (0.5, 0.5))
        with pytest.raises(ValueError):
            overall_width(p, 1.5)


class TestLocalizationError:
    def test_point_mass(self):
        assert localization_error(OutcomeDistribution(two_point(), (1.0, 0.0))) == 0

    def test_uniform(self):
        m = FiniteMetricSpace.discrete((0, 1, 2, 3))
        p = OutcomeDistribution(m, (0.25,) * 4)
        assert localization_error(p) == pytest.approx(0.75)

    def test_octagon_eigenstate_localizes(self):
        t = psi_transform(make_polygon(8))
        f, _ = perpendicular_ideal_pair(t)
        state = eigenstate(t, f.effects[0], ideal=True)
        assert localization_error(distribution(t, f, state)) == pytest.approx(0.0, abs=1e-12)

    def test_range_property(self):
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        for v in t.vertices:
            le = localization_error(distribution(t, f, v))
            assert 0 - 1e-12 <= le < 1


class TestDistribution:
    def test_trivial_noise(self):
        t = make_polygon(6)
        m = Measurement((0, 1), ((0.0, 0.0, 0.5), (0.0, 0.0, 0.5)))
        d = distribution(t, m, t.vertices[2])
        assert d.probs == pytest.approx((0.5, 0.5))

    def test_triangle_fine_grained_delta(self):
        t = make_polygon(3)
        es = indecomposable_pure_effects(t)
        m = Measurement((0, 1, 2), es)
        d = distribution(t, m, t.vertices[0])
        assert d.probs == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)

    def test_fuzzified_on_eigenstate(self):
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 1)
        lam = 0.6
        state = eigenstate(t, f.effects[0], ideal=True)
        d = distribution(t, fuzzify(t, f, lam), state)
        assert d.probs == pytest.approx((lam + (1 - lam) / 2, (1 - lam) / 2))

    def test_outside_state_rejected(self):
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 1)
        with pytest.raises(ValueError):
            distribution(t, f, (3.0, 0.0, 1.0))

    def test_metric_in_another_point_order_rejected(self):
        # probabilities are indexed by metric position, so the same labelled
        # metric listed as points (2, 0, 1) would give width 2, not 4
        t = make_polygon(5)
        pures = indecomposable_pure_effects(t)
        e0, e1 = (tuple(a / 2 for a in pures[k]) for k in (4, 1))
        effects = (e0, e1, tuple(u - a - b for u, a, b in zip(t.unit_effect, e0, e1)))
        dist = ((0, 1, 3), (1, 0, 2), (3, 2, 0))
        m = Measurement((0, 1, 2), effects, FiniteMetricSpace((0, 1, 2), dist))
        assert overall_width(distribution(t, m, t.vertices[1]), 0.3) == 4
        order = (2, 0, 1)
        listed = FiniteMetricSpace(order, tuple(tuple(dist[i][j] for j in order) for i in order))
        with pytest.raises(ValueError, match=r"metric points \(2, 0, 1\) are not the outcomes"):
            distribution(t, Measurement((0, 1, 2), effects, listed), t.vertices[1])


class TestErrorBarWidth:
    def test_self_distance_zero(self):
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        assert error_bar_width(t, f, f, 0.1) == 0

    def test_fuzzified_threshold(self):
        t = psi_transform(make_polygon(8))
        f, _ = perpendicular_ideal_pair(t)
        lam = 0.5
        ft = fuzzify(t, f, lam)
        assert error_bar_width(t, ft, f, (1 - lam) / 2 + 0.01) == 0
        assert error_bar_width(t, ft, f, (1 - lam) / 2 - 0.01) == 2

    def test_eps_one_zero(self):
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        ft = fuzzify(t, f, 0.2)
        assert error_bar_width(t, ft, f, 1.0) == 0

    def test_raw_even_polygon_enforced(self):
        t = make_polygon(4)
        f = binary_ideal_measurement(t, 0)
        with pytest.raises(ValueError, match="re-expressed"):
            error_bar_width(t, f, f, 0.1)

    def test_non_ideal_reference_detected(self):
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        noise = Measurement((0, 1), ((0.0, 0.0, 0.5), (0.0, 0.0, 0.5)), metric=f.metric)
        with pytest.raises(ValueError, match="eigenstate"):
            error_bar_width(t, f, noise, 0.1)


def _error_bar_by_definition(t, f_approx, f_ideal, eps):
    """Smallest candidate width whose balls carry 1 - eps on every eigenstate vertex."""
    ctx, metric = t.ctx, f_ideal.metric
    for w in metric.width_candidates():
        if all(ctx.ge(sum(effect_eval(t, f_approx.effects[j], v)
                          for j in metric.ball(a, w, ctx)), 1 - eps)
               for a, e in zip(f_ideal.outcomes, f_ideal.effects)
               for v in t.vertices if ctx.eq(effect_eval(t, e, v), 1)):
            return w


class TestErrorBarByDefinition:
    """Exact classical measurements against the definition, vertex by vertex.

    On a simplex every column-stochastic matrix is a measurement, and the
    eigenstate face of a complement outcome holds several vertices, each
    of which can fail on its own.
    """

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=4), st.data())
    def test_random_stochastic_approximations(self, n, data):
        t = make_classical(n)
        f = data.draw(st.sampled_from(enumerate_ideal_measurements(t, 3)))
        k = f.n_outcomes
        cols = [data.draw(st.lists(st.integers(0, 6), min_size=k, max_size=k)
                          .filter(lambda c: sum(c) > 0)) for _ in t.vertices]
        approx = Measurement(f.outcomes, tuple(
            tuple(Fr(c[i], sum(c)) for c in cols) for i in range(k)), f.metric)
        eps = data.draw(st.fractions(min_value=0, max_value=1, max_denominator=8))
        assert error_bar_width(t, approx, f, eps) == _error_bar_by_definition(t, approx, f, eps)


def _random_metric(data, k: int, ctx):
    """A discrete, line or random metric on k points, in the scalars of ``ctx``.

    Random distances come from a small set, so candidates tie; in float mode
    the set holds pairs exactly ``ctx.tol`` apart, which balls separate only
    by the tolerance of ``ctx.le``.
    """
    kind = data.draw(st.sampled_from(["discrete", "line", "random"]))
    points = tuple(range(k))
    if kind == "discrete":
        return FiniteMetricSpace.discrete(points, ctx.convert(data.draw(st.sampled_from(["1", "3/2"]))))
    if kind == "line":
        return FiniteMetricSpace.line(points)
    pool = ([Fr(1), Fr(3, 2), Fr(2), Fr(5, 2)] if ctx.exact
            else [1.0, 1.0 + ctx.tol, 0.5, 0.5 + ctx.tol, 0.5 + 2 * ctx.tol, 1.5])
    dist = [[ctx.zero()] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            dist[i][j] = dist[j][i] = data.draw(st.sampled_from(pool))
    return FiniteMetricSpace(points, dist)


def _random_probs(data, k: int, ctx) -> tuple:
    weights = data.draw(st.lists(st.integers(0, 5), min_size=k, max_size=k).filter(any))
    total = sum(weights)
    return tuple(Fr(w, total) if ctx.exact else w / total for w in weights)


_EPS = ["0", "1/10", "1/4", "3/10", "1/2", "2/3", "3/4", "9/10", "1"]


class TestWidthProfileOracle:
    """Widths and ball rows read off the metric equal the per-call oracle
    (balls found by distance comparisons on every call), in both modes."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_overall_width(self, data):
        ctx = data.draw(st.sampled_from([EXACT, FLOAT]))
        k = data.draw(st.integers(1, 6))
        metric = _random_metric(data, k, ctx)
        candidates = metric.width_candidates()
        assert repr(candidates) == repr(width_candidates_reference(metric))
        widths = list(candidates) + [w + ctx.tol for w in candidates] + [
            (a + b) / 2 for a, b in zip(candidates, candidates[1:])]
        for w in widths:
            for a in metric.points:
                assert metric.ball(a, w, ctx) == ball_reference(metric, a, w, ctx)
        assert tuple(metric.ball_rows(ctx)) == tuple(
            tuple(ball_reference(metric, a, w, ctx) for a in metric.points) for w in candidates)
        p = OutcomeDistribution(metric, _random_probs(data, k, ctx))
        for eps in _EPS:
            got, want = overall_width(p, eps, ctx), overall_width_reference(p, eps, ctx)
            assert repr(got) == repr(want)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_error_bar_width(self, data):
        exact = data.draw(st.booleans())
        k = data.draw(st.integers(2, 6))
        n = data.draw(st.integers(k - 1, 5))
        t = make_classical(n) if exact else theory_to_float(make_classical(n))
        ideal = data.draw(st.sampled_from(
            [m for m in enumerate_ideal_measurements(t, k) if m.n_outcomes == k]))
        metric = _random_metric(data, k, t.ctx)
        f = Measurement(ideal.outcomes, ideal.effects, metric)
        # on a simplex any outcome distribution per vertex is a measurement
        cols = [_random_probs(data, k, t.ctx) for _ in t.vertices]
        effects = tuple(solve(t.vertices, [c[i] for c in cols], t.ctx) for i in range(k))
        approx = Measurement(f.outcomes, effects, metric)
        for eps in _EPS:
            got = error_bar_width(t, approx, f, eps)
            assert repr(got) == repr(error_bar_width_reference(t, approx, f, eps))


class TestWernerDistance:
    def test_self_zero(self):
        t = make_polygon(7)
        f = binary_ideal_measurement(t, 2)
        assert werner_distance(t, f, f) == pytest.approx(0.0, abs=1e-12)

    def test_fuzzified_closed_form(self):
        # oracle comparison: LP against (1 - lambda)/2
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            dw = werner_distance(t, fuzzify(t, f, lam), f)
            assert dw == pytest.approx((1 - lam) / 2, abs=1e-9)

    def test_metric_scaling_linear(self):
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        scaled = Measurement(f.outcomes, f.effects, FiniteMetricSpace.discrete((0, 1), scale=3))
        ft = fuzzify(t, scaled, 0.4)
        assert werner_distance(t, ft, scaled) == pytest.approx(3 * (1 - 0.4) / 2, abs=1e-9)

    def test_vanishes_only_on_agreement(self):
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        g = binary_ideal_measurement(t, 1)
        g = Measurement(f.outcomes, g.effects, f.metric)
        assert werner_distance(t, g, f) > 1e-3


def _werner_by_lp(t, f_approx, f_ideal):
    """The Lipschitz-ball LP on every vertex, through the same max sweep."""
    best = t.ctx.zero()
    for v in t.vertices:
        deltas = [effect_eval(t, a, v) - effect_eval(t, i, v)
                  for a, i in zip(f_approx.effects, f_ideal.effects)]
        value = _lipschitz_ball_lp(f_ideal.metric, deltas, t.ctx)
        if t.ctx.gt(value, best):
            best = value
    return best


def _with_metric(m, metric):
    return Measurement(m.outcomes, m.effects, metric)


class TestWernerClosedForm:
    """The two-outcome closed form equals the Lipschitz-ball LP exactly."""

    @pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
    @pytest.mark.parametrize("scale", [1, 3])
    def test_single_vertex_value_is_lp_value(self, ctx, scale):
        rng = np.random.default_rng(5)
        metric = FiniteMetricSpace.discrete((0, 1), scale=scale)
        if ctx.exact:
            gaps = [Fr(int(a), int(b)) for a, b in rng.integers(1, 50, size=(20, 2))] + [Fr(0)]
        else:
            gaps = list(rng.uniform(0, 1, size=20)) + [0.0, 1e-10, 1e-9, 2e-9, 1e-7]
        for gap in gaps:
            for delta in (gap, -gap):
                lp = _lipschitz_ball_lp(metric, [-delta, delta], ctx)
                closed = ctx.zero() if ctx.is_zero(delta) else abs(delta) * scale
                assert lp == closed, (delta, lp, closed)

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("scale", [1, 3])
    def test_random_binary_pairs(self, exact, scale):
        rng = np.random.default_rng(17 + scale)
        metric = FiniteMetricSpace.discrete((0, 1), scale=scale)
        theories = [make_classical(n) for n in (1, 2, 3)]
        if not exact:
            theories = [theory_to_float(t) for t in theories]
            theories += [make_polygon(n) for n in range(3, 13)]
        compared = 0
        for t in theories:
            for _ in range(4):
                # one pure effect per vertex; the draws wrap around, as the library's
                # index once did, so the pairs compared stay the same
                i, j = (int(a) % t.n_vertices for a in rng.integers(0, 2 * t.n_vertices, size=2))
                lam = Fr(int(rng.integers(0, 8)), 8) if exact else float(rng.uniform())
                ideal = _with_metric(binary_ideal_measurement(t, i), metric)
                approx = _with_metric(fuzzify(t, binary_ideal_measurement(t, j), lam), metric)
                assert werner_distance(t, approx, ideal) == _werner_by_lp(t, approx, ideal)
                compared += 1
        assert compared == 4 * len(theories)

    def test_gap_within_tolerance_is_zero(self):
        # the gap is within the tolerance, three times the gap is not
        t = make_polygon(7)
        f = _with_metric(binary_ideal_measurement(t, 3),
                         FiniteMetricSpace.discrete((0, 1), scale=3))
        near = fuzzify(t, f, 1 - 1.8e-9)
        assert 0 < linf_distance(t, near, f) <= FLOAT.tol < 3 * linf_distance(t, near, f)
        assert werner_distance(t, near, f) == _werner_by_lp(t, near, f) == 0

    def test_lp_only_beyond_two_outcomes(self, monkeypatch):
        calls = []
        real = measures.lp_solve
        monkeypatch.setattr(measures, "lp_solve", lambda p, ctx: calls.append(1) or real(p, ctx))
        t = make_classical(2)
        f = binary_ideal_measurement(t, 0)
        werner_distance(t, fuzzify(t, f, Fr(1, 3)), f)
        assert not calls
        from gptlab.ideal import enumerate_ideal_measurements

        g = next(m for m in enumerate_ideal_measurements(t, 3) if m.n_outcomes == 3)
        werner_distance(t, fuzzify(t, g, Fr(1, 2)), g)
        assert len(calls) == t.n_vertices


class TestLinfDistance:
    def test_self_zero(self):
        t = make_polygon(7)
        f = binary_ideal_measurement(t, 2)
        assert linf_distance(t, f, f) == 0

    def test_fuzzified_half_gap(self):
        t = psi_transform(make_polygon(8))
        f, _ = perpendicular_ideal_pair(t)
        for lam in (0.0, 0.3, 0.8):
            assert linf_distance(t, fuzzify(t, f, lam), f) == pytest.approx((1 - lam) / 2)

    def test_trivial_noise_half(self):
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        noise = Measurement(f.outcomes, ((0.0, 0.0, 0.5), (0.0, 0.0, 0.5)), f.metric)
        assert linf_distance(t, noise, f) == pytest.approx(0.5)

    def test_outcome_mismatch_rejected(self):
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        other = Measurement(("a", "b"), f.effects, None)
        with pytest.raises(ValueError):
            linf_distance(t, other, f)


class TestMinLeSum:
    def test_classical_localizes(self):
        t = make_classical(2)
        from gptlab.ideal import enumerate_ideal_measurements

        ms = enumerate_ideal_measurements(t, 3)
        res = min_le_sum(t, ms[0], ms[1])
        assert res.value == 0

    def test_octagon_preparation_bound(self):
        t = psi_transform(make_polygon(8))
        f, g = perpendicular_ideal_pair(t)
        res = min_le_sum(t, f, g)
        assert float(res.value) == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-9)

    def test_twelve_gon_preparation_bound(self):
        t = psi_transform(make_polygon(12))
        f, g = perpendicular_ideal_pair(t)
        expected = 1 - (1 / math.cos(math.pi / 12)) / math.sqrt(2)
        assert float(min_le_sum(t, f, g).value) == pytest.approx(expected, abs=1e-9)

    def test_argmin_is_vertex(self):
        t = psi_transform(make_polygon(8))
        f, g = perpendicular_ideal_pair(t)
        res = min_le_sum(t, f, g)
        assert res.argmin in t.vertices


class TestPropCInequality:
    def test_grid(self):
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        for lam in (0.2, 0.6, 0.9):
            ft = fuzzify(t, f, lam)
            dw = werner_distance(t, ft, f)
            for eps in (0.1, 0.3, 0.5, 0.7, 0.9):
                w = error_bar_width(t, ft, f, eps)
                assert w <= (2 / eps) * dw + 1e-9
