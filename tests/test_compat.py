"""Joint measurability, marginals, error minimisation, fuzzing thresholds."""

import math
import re
import time
from dataclasses import replace
from fractions import Fraction as Fr

import numpy as np
import pytest

import gptlab.symmetry
from gptlab import compat
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
from gptlab.model import Measurement, Theory, make_classical, make_polygon, validate_measurement
from gptlab.scalars import EXACT, mat_vec, transpose
from gptlab.symmetry import automorphism_group
from helpers import full_compat_lp, highs, hrow_compat_lp, orbits_reference

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
        assert not joint_violations(t, res.witness)

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


# ---------------------------------------------------------------------------
# the optimisation LPs over orbits of the pair's stabiliser against the full LP,
# one variable per (cell, facet normal) pair

def full_optimum(family, t, f, g):
    p = full_compat_lp(family, t, f, g)
    res = lp_solve(p, t.ctx)
    assert res.optimal, family
    return res.value


def assert_jm_matches_full(t, f, g):
    """Joint measurability has the full LP's verdict, and the witness of a
    compatible pair is a valid joint with the pair as its marginals (equal in
    exact mode, within the tolerance in float mode)."""
    ctx = t.ctx
    res = is_jointly_measurable(t, f, g)
    full = lp_feasible(full_compat_lp("is_jointly_measurable", t, f, g), ctx)
    assert res.compatible == full.feasible, "is_jointly_measurable"
    if res.compatible:
        assert not joint_violations(t, res.witness)
        for got, want in zip(marginals(res.witness), (f, g)):
            assert all(ctx.vec_eq(a, b) for a, b in zip(got.effects, want.effects))


def assert_matches_full(t, f, g):
    """Joint measurability has the full LP's verdict and a valid witness, and
    both optimisation LPs reach the full LP's optimum (exactly in exact mode,
    within 1e-9 in float mode), with joints that are valid measurements and
    have the marginals the optimum promises.  The group is kept on ``t`` first,
    so that all three run over orbits."""
    ctx = t.ctx
    automorphism_group(t)
    assert_jm_matches_full(t, f, g)
    close = (lambda a, b: a == b) if ctx.exact else (lambda a, b: abs(a - b) <= 1e-9)
    if f.n_outcomes == g.n_outcomes == 2:
        lam, joint = max_fuzz_lambda(t, f, g, with_joint=True)
        assert close(lam, full_optimum("max_fuzz_lambda", t, f, g)), (lam, "max_fuzz_lambda")
        assert not joint_violations(t, joint)
        for got, want in zip(marginals(joint), (fuzzify(t, f, lam), fuzzify(t, g, lam))):
            assert all(ctx.vec_eq(a, b) for a, b in zip(got.effects, want.effects))
    res = min_mur_linf(t, f, g)
    assert close(res.value, full_optimum("min_mur_linf", t, f, g)), (res.value, "min_mur_linf")
    assert not joint_violations(t, res.joint)
    mf, mg = marginals(res.joint)
    assert close(linf_distance(t, mf, f) + linf_distance(t, mg, g), res.value)


class TestOrbitReduction:
    @pytest.fixture(autouse=True)
    def orbits_match_reference(self, monkeypatch):
        # every orbit numbering of these cases is the np.unique numbering of the
        # least images, found one element at a time
        real = compat._orbits

        def checked(*args):
            orbits = real(*args)
            assert orbits.tolist() == orbits_reference(*args).tolist()
            return orbits

        monkeypatch.setattr(compat, "_orbits", checked)

    @pytest.mark.parametrize("n", range(4, 65, 4))
    def test_psi_polygon_pairs(self, n):
        # the perpendicular pair and three random pairs of binary ideal measurements
        t = psi_transform(make_polygon(n))
        rng = np.random.default_rng(n)
        pairs = [perpendicular_ideal_pair(t)]
        for _ in range(3):
            i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
            pairs.append((binary_ideal_measurement(t, i), binary_ideal_measurement(t, j)))
        for f, g in pairs:
            assert_matches_full(t, f, g)

    @pytest.mark.parametrize("n_levels", [1, 2, 3, 4, 5])
    def test_exact_classical(self, n_levels):
        t = make_classical(n_levels)
        ms = enumerate_ideal_measurements(t, 3)
        binary = [m for m in ms if m.n_outcomes == 2]
        ternary = [m for m in ms if m.n_outcomes == 3]
        pairs = [(binary[0], binary[-1]), (binary[-1], binary[0]), (binary[0], binary[0])]
        pairs += [(binary[0], m) for m in ternary[:1]] + [(m, binary[-1]) for m in ternary[-1:]]
        for f, g in pairs:
            assert_matches_full(t, f, g)

    def test_other_pairs(self):
        # odd and raw polygons, a fuzzified pair, a pair with itself, trines, and a
        # theory whose group is not transitive (the rhombus): the vertex average
        # is still fixed by every element
        trine_t = psi_transform(make_polygon(12))
        c = 1 / (3 * max(math.hypot(v[0], v[1]) for v in trine_t.vertices))
        trine, turned = (Measurement((0, 1, 2), tuple(
            (c * math.cos(2 * math.pi * k / 3 + a), c * math.sin(2 * math.pi * k / 3 + a), 1 / 3)
            for k in range(3))) for a in (0, math.pi / 2))
        rhombus = Theory("rhombus", ((Fr(2), Fr(0), Fr(1)), (Fr(0), Fr(1), Fr(1)),
                                     (Fr(-2), Fr(0), Fr(1)), (Fr(0), Fr(-1), Fr(1))),
                         (Fr(0), Fr(0), Fr(1)), EXACT)
        cases = [(make_polygon(5), 0, 2), (make_polygon(7), 1, 3), (make_polygon(8), 0, 2)]
        for t, i, j in cases:
            assert_matches_full(t, binary_ideal_measurement(t, i), binary_ideal_measurement(t, j))
        t = psi_transform(make_polygon(16))
        f, g = perpendicular_ideal_pair(t)
        assert_matches_full(t, fuzzify(t, f, 0.8), fuzzify(t, g, 0.8))
        assert_matches_full(t, f, f)
        assert_matches_full(t, fuzzify(t, f, 0), g)  # two equal effects, u / 2
        assert_matches_full(trine_t, binary_ideal_measurement(trine_t, 2), trine)
        assert_matches_full(trine_t, trine, binary_ideal_measurement(trine_t, 2))
        # a reflection exchanges the two trines, relabelling their outcomes
        assert any(compat._stabiliser(trine_t, trine, turned)[1])
        for pair in ((trine, turned), (trine, trine)):
            assert_matches_full(trine_t, *pair)
        u = rhombus.unit_effect
        f, g = (Measurement((0, 1), (e, tuple(a - b for a, b in zip(u, e))))
                for e in ((Fr(1, 4), Fr(0), Fr(1, 2)), (Fr(0), Fr(1, 2), Fr(1, 2))))
        for pair in ((f, g), (g, f), (f, f)):
            assert_matches_full(rhombus, *pair)

    def test_fewer_variables(self):
        # on a fresh instance the first optimisation LP is the full one and the
        # second finds the group; the perpendicular pair's stabiliser has eight
        # elements, so MUR's 8n + 2 variables become n + 3 and the fuzzing LP's
        # 4n + 1 become n / 2 + 2
        seen, searched = [], []
        search = gptlab.symmetry._search_group
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(compat, "lp_solve", lambda p, ctx: seen.append(p) or lp_solve(p, ctx))
            mp.setattr(gptlab.symmetry, "_search_group",
                       lambda t, max_nodes: searched.append(t.n) or search(t, max_nodes))
            for n in (8, 48):
                t = psi_transform(make_polygon(n))
                f, g = perpendicular_ideal_pair(t)
                max_fuzz_lambda(t, f, g)
                min_mur_linf(t, f, g)
                max_fuzz_lambda(t, f, g)
                assert len(compat._stabiliser(t, f, g)[0]) == 8
        assert [p.n_vars for p in seen] == [33, 11, 6, 193, 51, 26]
        assert searched == [8, 48]

    @pytest.mark.parametrize("make, pair", [
        *[pytest.param(lambda n=n: make_classical(n), None, id=f"classical-{n}")
          for n in (1, 2, 3)],
        pytest.param(lambda: psi_transform(make_polygon(8)), None, id="psi-8"),
        pytest.param(lambda: psi_transform(make_polygon(12)), (0, 3), id="psi-12"),
    ])
    def test_orbit_columns_sum_the_one_shot_columns(self, make, pair, monkeypatch):
        # the one-shot LP (a fresh instance) and the orbit LP (the group kept) are
        # written over the same rays, and each orbit's column is its members' columns
        # of the one-shot LP summed from zero in variable order: equal exactly in
        # exact mode, and bit for bit in float mode
        t = make()
        if t.kind == "classical":
            ms = enumerate_ideal_measurements(t, 2)
            f, g = ms[0], ms[-1]
        else:
            f, g = perpendicular_ideal_pair(t) if pair is None else (
                binary_ideal_measurement(t, pair[0]), binary_ideal_measurement(t, pair[1]))
        calls, real = [], compat.cone_lp
        monkeypatch.setattr(compat, "cone_lp",
                            lambda *a, **kw: calls.append((a, kw)) or real(*a, **kw))
        families = (is_jointly_measurable, min_mur_linf, max_fuzz_lambda)
        for family in families:
            family(make(), f, g)
        automorphism_group(t)
        for family in families:
            family(t, f, g)
        assert len(calls) == 6
        for (a, kw), (b, orbit_kw) in zip(calls[:3], calls[3:]):
            orbits = orbit_kw.pop("orbits")
            assert kw.pop("orbits") is None and orbits.max() + 1 < len(orbits)
            assert np.array_equal(a[0][0], b[0][0]) and a[0][1] == b[0][1]
            assert a[1:] == b[1:] and kw == orbit_kw
            (full, _, den), = real(*a, **kw)[0].blocks
            (reduced, _, reduced_den), = real(*b, orbits=orbits, **kw)[0].blocks
            summed = np.zeros((len(full), orbits.max() + 1), dtype=full.dtype)
            for x, o in enumerate(orbits.tolist()):
                summed[:, o] += full[:, x]
            assert den == reduced_den and summed.dtype == reduced.dtype
            assert (summed == reduced[:, :-1]).all() and (full[:, -1] == reduced[:, -1]).all()

    def test_first_call_solves_the_full_lp(self):
        # a one-shot call pays no group search: it solves the full LP, bit for bit
        t = psi_transform(make_polygon(24))
        f, g = binary_ideal_measurement(t, 3), binary_ideal_measurement(t, 10)
        lam = max_fuzz_lambda(psi_transform(make_polygon(24)), f, g)
        assert lam == lp_solve(full_compat_lp("max_fuzz_lambda", t, f, g), t.ctx).value
        mur = min_mur_linf(psi_transform(make_polygon(24)), f, g).value
        assert mur == lp_solve(full_compat_lp("min_mur_linf", t, f, g), t.ctx).value
        assert t.group_cache is None

    def test_group_too_large_for_the_lp(self):
        # S_10 is out of the search budget (the unbounded search passes a million
        # nodes) and S_9's 362,880 elements are more than the LP has tableau cells:
        # both theories stay on the full LP, and the search gives up early
        for n_levels in (8, 9):
            t = make_classical(n_levels)
            f, g = (Measurement((0, 1), (e, tuple(1 - x for x in e)))
                    for e in (tuple(int(i < 3) for i in range(n_levels + 1)),
                              tuple(int(i % 2) for i in range(n_levels + 1))))
            want = [lp_solve(full_compat_lp(family, t, f, g), t.ctx).value
                    for family in ("max_fuzz_lambda", "min_mur_linf")]
            start = time.perf_counter()
            for _ in range(3):
                assert [max_fuzz_lambda(t, f, g), min_mur_linf(t, f, g).value] == want
            assert time.perf_counter() - start < 5
            assert t.group_cache is None and t.lp_runs == 2

    def test_large_polygon(self):
        # the 1000-gon's search would take seconds: it gives up within its budget
        # on the second call, and every call solves the full LP
        t = make_polygon(1000)
        f, g = binary_ideal_measurement(t, 0), binary_ideal_measurement(t, 250)
        want = lp_solve(full_compat_lp("max_fuzz_lambda", t, f, g), t.ctx).value
        start = time.perf_counter()
        assert [max_fuzz_lambda(t, f, g) for _ in range(3)] == [want] * 3
        assert time.perf_counter() - start < 2
        assert t.group_cache is None and t.lp_runs == 2
        # with its group kept (here a 200-gon's), its orbits give the full LP's optimum
        t = make_polygon(200)
        automorphism_group(t)
        want = lp_solve(full_compat_lp("max_fuzz_lambda", t, f := binary_ideal_measurement(t, 0),
                                       g := binary_ideal_measurement(t, 50)), t.ctx).value
        assert abs(max_fuzz_lambda(t, f, g) - want) <= 1e-9


class TestPairRecords:
    # the stabiliser and each LP kind's orbit numbering are kept on the instance,
    # one record per pair (``Theory.pair_records``): a repeated call computes
    # neither again, and answers as the call that computed them did

    @staticmethod
    def counted(monkeypatch) -> list:
        calls = []
        for name in ("_stabiliser", "_orbits"):
            real = getattr(compat, name)
            monkeypatch.setattr(compat, name,
                                lambda *a, real=real, name=name: calls.append(name) or real(*a))
        return calls

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: (lambda t: (t, *perpendicular_ideal_pair(t)))(
            psi_transform(make_polygon(16))), id="psi-16"),
        pytest.param(lambda: (lambda t, ms: (t, ms[0], ms[-1]))(
            make_classical(3), enumerate_ideal_measurements(make_classical(3), 2)),
            id="classical-3"),
    ])
    def test_repeated_calls_reuse_the_record(self, make, monkeypatch):
        t, f, g = make()
        automorphism_group(t)
        calls = self.counted(monkeypatch)
        kinds = (is_jointly_measurable, min_mur_linf,
                 lambda *a: max_fuzz_lambda(*a, with_joint=True))
        first = [repr(kind(t, f, g)) for kind in kinds]
        assert calls == ["_stabiliser", "_orbits", "_orbits", "_orbits"]
        calls.clear()
        for _ in range(2):
            assert [repr(kind(t, f, g)) for kind in kinds] == first
        assert calls == []
        (key, (_, numbered)), = t.pair_records.items()
        assert key == (f.n_outcomes, f.effects + g.effects)
        assert sorted(numbered) == ["is_jointly_measurable", "max_fuzz_lambda", "min_mur_linf"]
        assert not any(orbits.flags.writeable for orbits in numbered.values())

    def test_records_are_keyed_by_the_pair_values(self, monkeypatch):
        # a pair rebuilt with new objects and equal effects finds the record; another
        # pair, the same measurements in the other order included, gets its own
        t = psi_transform(make_polygon(16))
        automorphism_group(t)
        f, g = binary_ideal_measurement(t, 3), binary_ideal_measurement(t, 10)
        want = repr(max_fuzz_lambda(t, f, g, with_joint=True))
        calls = self.counted(monkeypatch)
        rebuilt = binary_ideal_measurement(t, 3), binary_ideal_measurement(t, 10)
        assert rebuilt[0] is not f and rebuilt == (f, g)
        assert repr(max_fuzz_lambda(t, *rebuilt, with_joint=True)) == want
        assert calls == [] and len(t.pair_records) == 1
        fresh = psi_transform(make_polygon(16))
        automorphism_group(fresh)
        for pair in ((g, f), (f, binary_ideal_measurement(t, 5))):
            got = repr(max_fuzz_lambda(t, *pair, with_joint=True))
            assert calls == ["_stabiliser", "_orbits"]
            assert got == repr(max_fuzz_lambda(fresh, *pair, with_joint=True))
            calls.clear()
        assert len(t.pair_records) == 3

    def test_copies_start_with_no_records(self):
        t = make_polygon(8)
        automorphism_group(t)
        f, g = binary_ideal_measurement(t, 0), binary_ideal_measurement(t, 2)
        min_mur_linf(t, f, g)
        assert len(t.pair_records) == 1
        copies = (t.with_group(t.group_cache), psi_transform(t), replace(t))
        assert all(c.pair_records == {} for c in copies)
        assert copies[2] == t and repr(copies[2]) == repr(t)


def stabiliser_bruteforce(t, f, g) -> set:
    """``(element, swap, pf, pg)`` for every group element that maps the pair onto
    itself, from each element, transposed, applied effect by effect."""
    ctx, found = t.ctx, set()
    effects = f.effects + g.effects
    na = f.n_outcomes
    for k, element in enumerate(automorphism_group(t).elements):
        act = transpose(element)
        images = [mat_vec(act, e) for e in effects]
        for swap in (False, True):
            sides = (g.effects, f.effects) if swap else (f.effects, g.effects)
            maps = []
            for block, targets in zip((images[:na], images[na:]), sides):
                maps.append(tuple(next((b for b, e in enumerate(targets) if ctx.vec_eq(img, e)),
                                       -1) for img in block))
            if all(sorted(m) == list(range(len(s))) for m, s in zip(maps, sides)):
                found.add((k, swap, *maps))
    return found


def stabiliser_set(t, f, g) -> set:
    return {(k, bool(s), tuple(a), tuple(b))
            for k, s, a, b in zip(*(x.tolist() for x in compat._stabiliser(t, f, g)))}


STABILISER_CASES = [
    lambda: (lambda t: (t, *perpendicular_ideal_pair(t)))(psi_transform(make_polygon(8))),
    lambda: (lambda t: (t, binary_ideal_measurement(t, 0), binary_ideal_measurement(t, 3)))(
        psi_transform(make_polygon(12))),
    lambda: (lambda t: (t, binary_ideal_measurement(t, 1), binary_ideal_measurement(t, 1)))(
        make_polygon(6)),
    lambda: (lambda t: (t, binary_ideal_measurement(t, 0), binary_ideal_measurement(t, 2)))(
        make_polygon(5)),
    lambda: (lambda t, ms: (t, ms[0], next(m for m in ms if m.n_outcomes == 3)))(
        make_classical(3), enumerate_ideal_measurements(make_classical(3), 3)),
    lambda: (lambda t, ms: (t, ms[0], ms[-1]))(
        make_classical(3), enumerate_ideal_measurements(make_classical(3), 2)),
]


@pytest.mark.parametrize("case", STABILISER_CASES)
def test_stabiliser_matches_bruteforce(case):
    # every element that fixes the pair is found, and no other is accepted
    t, f, g = case()
    got = stabiliser_set(t, f, g)
    assert got == stabiliser_bruteforce(t, f, g)
    assert (0, False, tuple(range(f.n_outcomes)), tuple(range(g.n_outcomes))) in got


@pytest.mark.parametrize("case", STABILISER_CASES)
def test_stabiliser_is_a_group(case):
    # closed under composition and inverse: the orbits of ``compat._orbits``,
    # where each element acts by itself and not by its inverse, rely on it
    t, f, g = case()
    elements, swap, _, _ = compat._stabiliser(t, f, g)
    perms = [np.array(p) for p in automorphism_group(t).perms]
    index = {tuple(p.tolist()): k for k, p in enumerate(perms)}
    got = set(zip(elements.tolist(), swap.tolist()))
    for a, swap_a in got:
        assert (index[tuple(np.argsort(perms[a]).tolist())], swap_a) in got
        for b, swap_b in got:
            assert (index[tuple(perms[a][perms[b]].tolist())], swap_a ^ swap_b) in got


class TestMutantsAreCaught:
    # a reduction that admits an element outside the stabiliser, or merges two
    # orbits, restricts the LP to joints that need not hold an optimum; the
    # comparison with the full LP sees it
    PAIRS = [(8, None), (12, (0, 3)), (16, None)]

    def pairs(self):
        for n, pair in self.PAIRS:
            t = psi_transform(make_polygon(n))
            f, g = perpendicular_ideal_pair(t) if pair is None else (
                binary_ideal_measurement(t, pair[0]), binary_ideal_measurement(t, pair[1]))
            yield t, f, g

    def caught(self, t, f, g) -> bool:
        try:
            assert_matches_full(t, f, g)
        except (AssertionError, RuntimeError):
            return True
        return False

    def test_element_outside_the_stabiliser(self, monkeypatch):
        real = compat._stabiliser

        def admit_a_rotation(t, f, g):
            elements, swap, pf, pg = real(t, f, g)
            outside = next(k for k in range(automorphism_group(t).order) if k not in elements)
            return (np.append(elements, outside), np.append(swap, False),
                    np.vstack([pf, np.arange(f.n_outcomes)]),
                    np.vstack([pg, np.arange(g.n_outcomes)]))

        for t, f, g in self.pairs():
            assert not self.caught(t, f, g)
        monkeypatch.setattr(compat, "_stabiliser", admit_a_rotation)
        assert all(self.caught(t, f, g) for t, f, g in self.pairs())

    def test_merged_orbits(self, monkeypatch):
        real = compat._orbits

        def merge_two(facet_perms, block_images, scalar_images):
            orbits = real(facet_perms, block_images, scalar_images)
            # the last orbit of (block, ray) pairs joins the first
            last = orbits[:block_images.shape[1] * facet_perms.shape[1]].max()
            return np.unique(np.where(orbits == last, 0, orbits), return_inverse=True)[1]

        monkeypatch.setattr(compat, "_orbits", merge_two)
        assert all(self.caught(t, f, g) for t, f, g in self.pairs())

    def test_rolled_facet_perms(self, monkeypatch):
        # each element sends ray j to where it sends ray j - 1, so the orbits join
        # rays that the stabiliser does not relate
        real = compat._facet_perms
        for t, f, g in self.pairs():
            assert not self.caught(t, f, g)
        monkeypatch.setattr(compat, "_facet_perms",
                            lambda t, elements: np.roll(real(t, elements), 1, axis=1))
        assert all(self.caught(t, f, g) for t, f, g in self.pairs())

    def test_untransposed_exchange(self, monkeypatch):
        # with the swap flags cleared, an exchange sends joint cell (a, b) to
        # (pf[a], pg[b]), not to the transposed (pg[b], pf[a]); joint measurability
        # has no other blocks and no scalars, so that is all that changes.  A
        # compatible fuzzified pair that an exchange maps onto itself then reads
        # incompatible.  Each phase solves on fresh instances with their groups kept,
        # as a solved instance keeps the pair's stabiliser
        real = compat._stabiliser

        def untransposed(t, f, g):
            elements, swap, pf, pg = real(t, f, g)
            return elements, np.zeros_like(swap), pf, pg

        def instance(n):
            t = psi_transform(make_polygon(n))
            automorphism_group(t)
            return t

        pairs = []
        for n in (8, 16):
            t = instance(n)
            f, g = binary_ideal_measurement(t, 0), binary_ideal_measurement(t, 3)
            lam = 0.9 * max_fuzz_lambda(t, f, g)
            pairs.append((n, fuzzify(t, f, lam), fuzzify(t, g, lam)))
        for n, f, g in pairs:
            t = instance(n)
            assert any(real(t, f, g)[1])
            assert_jm_matches_full(t, f, g)
        monkeypatch.setattr(compat, "_stabiliser", untransposed)
        for n, f, g in pairs:
            with pytest.raises(AssertionError, match="is_jointly_measurable"):
                assert_jm_matches_full(instance(n), f, g)
