"""Joint measurability, marginals, error minimisation, fuzzing thresholds."""

import math
import re
import time

import numpy as np
import pytest

from gptlab.compat import (
    JointMeasurement,
    degree_bound_closed_form,
    degree_bound_rhs,
    is_jointly_measurable,
    joint_violations,
    marginals,
    max_fuzz_lambda,
    min_mur_linf,
    product_joint,
    uniform_joint,
    validate_joint,
)
from gptlab.ideal import (
    binary_ideal_measurement,
    enumerate_ideal_measurements,
    fuzzify,
    perpendicular_ideal_pair,
    psi_transform,
)
from gptlab.linprog import lp_feasible, lp_solve
from gptlab.measures import FiniteMetricSpace, linf_distance, min_le_sum
from gptlab.model import Measurement, make_classical, make_polygon, validate_measurement
from helpers import highs, hrow_compat_lp

INV_SQ2 = 1 / math.sqrt(2)


class TestMarginals:
    def test_product_joint_of_self(self):
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        j = product_joint(f)
        mf, mg = marginals(j)
        for a, b in zip(mf.effects, f.effects):
            assert a == pytest.approx(b)
        for a, b in zip(mg.effects, f.effects):
            assert a == pytest.approx(b)

    def test_uniform_joint_marginals_trivial(self):
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        g = binary_ideal_measurement(t, 2)
        j = uniform_joint(t, f, g)
        mf, mg = marginals(j)
        for e in mf.effects + mg.effects:
            assert e == pytest.approx((0.0, 0.0, 0.5))

    def test_short_cell_rejected(self):
        # a cell of the wrong length is an error, not a sum cut to the shorter one
        t = psi_transform(make_polygon(8))
        f, g = perpendicular_ideal_pair(t)
        cells = [list(row) for row in uniform_joint(t, f, g).effects]
        cells[0][1] = cells[0][1][:-1]
        j = JointMeasurement((0, 1), (0, 1), cells)
        with pytest.raises(ValueError, match=r"dimension mismatch: 3 vs 2$"):
            marginals(j)

    def test_marginals_are_valid_measurements(self):
        t = psi_transform(make_polygon(8))
        f, g = perpendicular_ideal_pair(t)
        res = min_mur_linf(t, f, g)
        mf, mg = marginals(res.joint)
        assert validate_measurement(t, mf)
        assert validate_measurement(t, mg)

    def test_square_optimal_joint_marginals_are_half_fuzzed(self):
        t = psi_transform(make_polygon(4))
        f, g = perpendicular_ideal_pair(t)
        res = min_mur_linf(t, f, g)
        mf, mg = marginals(res.joint)
        # the half-fuzzed pair achieves the optimum; the LP marginals carry
        # the same worst-case deviation as fuzzify(., 1/2)
        assert linf_distance(t, mf, f) + linf_distance(t, mg, g) == pytest.approx(0.5, abs=1e-9)

    def test_joint_metrics_are_checked_when_built(self):
        cells = [[(0.5, 0.0, 0.25), (0.0, 0.0, 0.25)], [(0.0, 0.0, 0.25), (-0.5, 0.0, 0.25)]]
        j = JointMeasurement([0, 1], [0, 1], cells)
        assert (j.row_labels, j.col_labels) == ((0, 1), (0, 1))
        assert j.row_metric == j.col_metric == FiniteMetricSpace.discrete((0, 1))
        wrong = FiniteMetricSpace.discrete((5, 6))
        for metrics in [(wrong, None), (None, wrong)]:
            with pytest.raises(ValueError, match=re.escape(
                    "metric points (5, 6) are not the outcomes (0, 1)")):
                JointMeasurement((0, 1), (0, 1), cells, *metrics)


class TestJointMeasurability:
    def test_self_compatible(self):
        t = make_polygon(7)
        f = binary_ideal_measurement(t, 0)
        res = is_jointly_measurable(t, f, f)
        assert res.compatible
        assert validate_joint(t, res.witness)

    def test_classical_always_compatible(self):
        t = make_classical(2)
        ms = enumerate_ideal_measurements(t, 3)
        for f in ms:
            for g in ms:
                assert is_jointly_measurable(t, f, g).compatible

    def test_square_perpendicular_incompatible(self):
        t = psi_transform(make_polygon(4))
        f, g = perpendicular_ideal_pair(t)
        assert not is_jointly_measurable(t, f, g).compatible

    def test_witness_marginals_match(self):
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        g = fuzzify(t, binary_ideal_measurement(t, 2), 0.4)
        res = is_jointly_measurable(t, f, g)
        assert res.compatible
        mf, mg = marginals(res.witness)
        for a, b in zip(mf.effects, f.effects):
            assert a == pytest.approx(b, abs=1e-7)
        for a, b in zip(mg.effects, g.effects):
            assert a == pytest.approx(b, abs=1e-7)


class TestMinMur:
    def test_compatible_pair_zero(self):
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        res = min_mur_linf(t, f, f)
        assert float(res.value) == pytest.approx(0.0, abs=1e-9)

    def test_octagon_bound(self):
        t = psi_transform(make_polygon(8))
        f, g = perpendicular_ideal_pair(t)
        res = min_mur_linf(t, f, g)
        assert float(res.value) >= 1 - INV_SQ2 - 1e-9

    def test_square_upper_bound_half(self):
        t = psi_transform(make_polygon(4))
        f, g = perpendicular_ideal_pair(t)
        res = min_mur_linf(t, f, g)
        assert float(res.value) <= 0.5 + 1e-9

    def test_witness_is_valid_joint(self):
        t = psi_transform(make_polygon(8))
        f, g = perpendicular_ideal_pair(t)
        res = min_mur_linf(t, f, g)
        assert not joint_violations(t, res.joint)

    def test_dominates_preparation_bound(self):
        # cross-module law: measurement error floor >= preparation floor
        for n in (8, 12):
            t = psi_transform(make_polygon(n))
            f, g = perpendicular_ideal_pair(t)
            mur = float(min_mur_linf(t, f, g).value)
            pur = float(min_le_sum(t, f, g).value)
            assert mur >= pur - 1e-9


class TestMaxFuzzLambda:
    def test_compatible_pair_reaches_one(self):
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        assert float(max_fuzz_lambda(t, f, f)) == pytest.approx(1.0, abs=1e-9)

    def test_square_half(self):
        t = psi_transform(make_polygon(4))
        f, g = perpendicular_ideal_pair(t)
        assert float(max_fuzz_lambda(t, f, g)) == pytest.approx(0.5, abs=1e-9)

    def test_octagon_between_half_and_quantum(self):
        t = psi_transform(make_polygon(8))
        f, g = perpendicular_ideal_pair(t)
        lam = float(max_fuzz_lambda(t, f, g))
        assert 0.5 - 1e-9 <= lam <= INV_SQ2 + 1e-9

    def test_sandwich_on_polygon_pairs(self):
        for n in (4, 8, 12, 16):
            t = psi_transform(make_polygon(n))
            f, g = perpendicular_ideal_pair(t)
            lam = float(max_fuzz_lambda(t, f, g))
            rhs = float(degree_bound_rhs(t, f, g))
            assert lam >= 0.5 - 1e-9
            assert lam <= rhs + 1e-9

    def test_optimal_joint_marginals_are_fuzzified_pair(self):
        t = psi_transform(make_polygon(4))
        f, g = perpendicular_ideal_pair(t)
        lam, joint = max_fuzz_lambda(t, f, g, with_joint=True)
        assert not joint_violations(t, joint)
        mf, mg = marginals(joint)
        for a, b in zip(mf.effects, fuzzify(t, f, lam).effects):
            assert a == pytest.approx(b, abs=1e-7)
        for a, b in zip(mg.effects, fuzzify(t, g, lam).effects):
            assert a == pytest.approx(b, abs=1e-7)

    def test_non_binary_rejected(self):
        t = make_classical(2)
        ms = enumerate_ideal_measurements(t, 3)
        fine = next(m for m in ms if m.n_outcomes == 3)
        binary = next(m for m in ms if m.n_outcomes == 2)
        with pytest.raises(ValueError):
            max_fuzz_lambda(t, fine, binary)


class TestEffectDimensions:
    @pytest.mark.parametrize("resize", [lambda e: e + (0.0,), lambda e: e[:-1]],
                             ids=["longer", "shorter"])
    @pytest.mark.parametrize("solve", [is_jointly_measurable, max_fuzz_lambda, min_mur_linf])
    def test_effect_of_another_dimension_rejected(self, solve, resize):
        # the psi-8-gon is 3-dimensional; each LP names both lengths instead of
        # cutting the effect short or failing on an index
        t = psi_transform(make_polygon(8))
        f, g = perpendicular_ideal_pair(t)
        bad = Measurement(f.outcomes, [resize(e) for e in f.effects], f.metric)
        with pytest.raises(ValueError, match=rf"cone in R\^3, vector in R\^{len(bad.effects[0])}$"):
            solve(t, bad, g)


class TestDegreeBounds:
    def test_octagon(self):
        t = psi_transform(make_polygon(8))
        f, g = perpendicular_ideal_pair(t)
        assert float(degree_bound_rhs(t, f, g)) == pytest.approx(INV_SQ2, abs=1e-9)

    def test_twelve_gon(self):
        t = psi_transform(make_polygon(12))
        f, g = perpendicular_ideal_pair(t)
        expected = (1 / math.cos(math.pi / 12)) * INV_SQ2
        assert float(degree_bound_rhs(t, f, g)) == pytest.approx(expected, abs=1e-9)

    def test_square_trivial_bound(self):
        t = psi_transform(make_polygon(4))
        f, g = perpendicular_ideal_pair(t)
        assert float(degree_bound_rhs(t, f, g)) == pytest.approx(1.0, abs=1e-9)

    def test_closed_form_values(self):
        assert degree_bound_closed_form(8) == pytest.approx(INV_SQ2)
        assert degree_bound_closed_form(12) == pytest.approx(0.7320508075688772)
        assert degree_bound_closed_form(4) == pytest.approx(1.0)
        assert degree_bound_closed_form(math.inf) == pytest.approx(INV_SQ2)

    def test_closed_form_rejects_others(self):
        with pytest.raises(ValueError):
            degree_bound_closed_form(6)

    def test_rhs_matches_closed_form(self):
        for n in (4, 8, 12, 16):
            t = psi_transform(make_polygon(n))
            f, g = perpendicular_ideal_pair(t)
            assert float(degree_bound_rhs(t, f, g)) == pytest.approx(
                degree_bound_closed_form(n), abs=1e-9
            )

    def test_relation_to_min_le_sum(self):
        # min LE sum = 1 - degree bound for the same pair
        for n in (8, 12):
            t = psi_transform(make_polygon(n))
            f, g = perpendicular_ideal_pair(t)
            assert float(min_le_sum(t, f, g).value) == pytest.approx(
                1 - float(degree_bound_rhs(t, f, g)), abs=1e-12
            )


# ---------------------------------------------------------------------------
# the effect-cone LPs against the same LPs written with one H-row per vertex

def hrow_answer(family, t, f, g, solver="simplex"):
    """The vertex-form LP's verdict (joint measurability) or optimum, solved by
    the library simplex or, with ``solver="highs"``, by scipy's HiGHS."""
    p = hrow_compat_lp(family, t, f, g)
    feasibility = family == "is_jointly_measurable"
    if solver == "highs":
        status, value = highs(p, feasibility=feasibility)
        return status == "optimal" if feasibility else value
    return lp_feasible(p, t.ctx).feasible if feasibility else lp_solve(p, t.ctx).value


def assert_matches_hrow(t, f, g, mur_solver="simplex"):
    assert is_jointly_measurable(t, f, g).compatible == hrow_answer(
        "is_jointly_measurable", t, f, g)
    assert max_fuzz_lambda(t, f, g) == pytest.approx(
        hrow_answer("max_fuzz_lambda", t, f, g), abs=1e-9)
    assert min_mur_linf(t, f, g).value == pytest.approx(
        hrow_answer("min_mur_linf", t, f, g, mur_solver), abs=1e-9)


class TestAgainstVertexForm:
    # the vertex-form MUR LP fails on the library simplex from n = 28 on and
    # takes seconds from n = 24, so larger n compare against it under HiGHS
    @pytest.mark.parametrize("n", range(4, 33, 4))
    def test_perpendicular_pair(self, n):
        t = psi_transform(make_polygon(n))
        assert_matches_hrow(t, *perpendicular_ideal_pair(t),
                            mur_solver="simplex" if n <= 20 else "highs")

    def test_skew_pair(self):
        t = psi_transform(make_polygon(8))
        assert_matches_hrow(t, binary_ideal_measurement(t, 0), binary_ideal_measurement(t, 3))

    def test_random_binary_pairs(self):
        rng = np.random.default_rng(2024)
        for n in (5, 6, 7, 10, 12, 16):
            t = make_polygon(n) if n % 2 else psi_transform(make_polygon(n))
            for _ in range(2):
                i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
                assert_matches_hrow(t, binary_ideal_measurement(t, i),
                                    binary_ideal_measurement(t, j))

    def test_three_outcome_marginal(self):
        # a trine against a binary ideal measurement: every outcome of the
        # three-outcome marginal gets its own sup-gap bound
        t = psi_transform(make_polygon(8))
        c = 1 / (3 * max(math.hypot(v[0], v[1]) for v in t.vertices))
        trine = Measurement((0, 1, 2), tuple(
            (c * math.cos(2 * math.pi * k / 3), c * math.sin(2 * math.pi * k / 3), 1 / 3)
            for k in range(3)))
        assert validate_measurement(t, trine)
        f = binary_ideal_measurement(t, 2)
        for pair in ((f, trine), (trine, f)):
            assert is_jointly_measurable(t, *pair).compatible == hrow_answer(
                "is_jointly_measurable", t, *pair)
            res = min_mur_linf(t, *pair)
            assert res.value > 1e-3
            assert res.value == pytest.approx(hrow_answer("min_mur_linf", t, *pair), abs=1e-9)
            assert not joint_violations(t, res.joint)

    @pytest.mark.parametrize("n_levels", [2, 3, 4, 5])
    def test_exact_classical_listings(self, n_levels):
        # the structure benchmark's inputs: a binary and a three-outcome ideal
        # measurement of the classical theory
        t = make_classical(n_levels)
        ms = enumerate_ideal_measurements(t, 3)
        binary = [m for m in ms if m.n_outcomes == 2]
        ternary = [m for m in ms if m.n_outcomes == 3]
        rng = np.random.default_rng(n_levels)
        for _ in range(2):
            f = binary[int(rng.integers(len(binary)))]
            g = ternary[int(rng.integers(len(ternary)))]
            res = is_jointly_measurable(t, f, g)
            assert res.compatible == hrow_answer("is_jointly_measurable", t, f, g)
            assert not joint_violations(t, res.witness)
            mf, mg = marginals(res.witness)
            assert mf.effects == f.effects and mg.effects == g.effects


# ---------------------------------------------------------------------------
# LPs that failed while positivity was one H-row per vertex: "phase 1 cannot
# be unbounded", "fuzzing LP ended infeasible" and failed certification

FUZZ_DEFECTS = [(40, None), (40, (1, 30)), (40, (17, 13)), (40, (2, 1)),
                (44, (34, 14)), (44, (6, 43)), (44, (11, 4)),
                (52, None), (52, (15, 4))]


def ideal_pair(t, pair):
    """The perpendicular pair, or the binary ideal measurements at two indices."""
    if pair is None:
        return perpendicular_ideal_pair(t)
    return tuple(binary_ideal_measurement(t, i) for i in pair)


@pytest.mark.parametrize("n, pair", FUZZ_DEFECTS)
def test_fuzz_defects_solve(n, pair):
    t = psi_transform(make_polygon(n))
    f, g = ideal_pair(t, pair)
    lam, joint = max_fuzz_lambda(t, f, g, with_joint=True)
    if pair is None and n % 8 == 0:
        expected = degree_bound_closed_form(n)
    else:
        expected = hrow_answer("max_fuzz_lambda", t, f, g, "highs")
    assert lam == pytest.approx(expected, abs=1e-9)
    assert not joint_violations(t, joint)
    for got, want in zip(marginals(joint), (fuzzify(t, f, lam), fuzzify(t, g, lam))):
        assert all(t.ctx.vec_eq(a, b) for a, b in zip(got.effects, want.effects))


# the vertex form also returned 1.0025 as "optimal" for the skew pair (0, 3) at n = 40
@pytest.mark.parametrize("n, pair", [(28, None), (40, None), (40, (0, 3))])
def test_mur_defects_solve(n, pair):
    t = psi_transform(make_polygon(n))
    f, g = ideal_pair(t, pair)
    res = min_mur_linf(t, f, g)
    if pair is None and n % 8 == 0:
        expected = 1 - degree_bound_closed_form(n)
    else:
        expected = hrow_answer("min_mur_linf", t, f, g, "highs")
    assert res.value == pytest.approx(expected, abs=1e-9)
    assert not joint_violations(t, res.joint)
    # the joint's marginals sit exactly the optimal sup-gaps from the targets
    mf, mg = marginals(res.joint)
    assert linf_distance(t, mf, f) + linf_distance(t, mg, g) == pytest.approx(res.value, abs=1e-9)


def test_mur_fast_at_sixteen():
    # best of three, so that one slow moment on a shared host does not decide
    t = psi_transform(make_polygon(16))
    f, g = perpendicular_ideal_pair(t)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        min_mur_linf(t, f, g)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.1
