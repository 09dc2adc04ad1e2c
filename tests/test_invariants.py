"""Cross-module structural laws checked on families of inputs."""

import ast
import dataclasses
import math
import pathlib
import random
import tokenize
from fractions import Fraction as Fr

import numpy as np
import pytest

import gptlab
from gptlab.compat import (
    JointMeasurement,
    degree_bound_rhs,
    is_jointly_measurable,
    joint_violations,
    marginals,
    min_mur_linf,
    product_joint,
)
from gptlab.harness import random_joint, verify_cor1, verify_thm1, verify_thm2
from gptlab.ideal import (
    binary_ideal_measurement,
    enumerate_ideal_measurements,
    fuzzify,
    indecomposable_pure_effects,
    psi_transform,
)
from gptlab.linprog import LinearProgram, lp_feasible, lp_solve
from gptlab.measures import (
    distribution,
    error_bar_width,
    linf_distance,
    localization_error,
    min_le_sum,
    werner_distance,
)
from gptlab.model import (
    Measurement,
    effect_eval,
    in_state_space,
    is_valid_effect,
    make_classical,
    make_polygon,
    theory_to_float,
)
from gptlab.symmetry import automorphism_group, averaged_inner_product, canonicalize


def test_tolerance_literals_only_in_scalars():
    """Every slack derives from ``Context.tol``: no float literal below 0.01
    (a tolerance such as 1e-9) appears in the package outside scalars.py."""
    found = []
    for path in sorted(pathlib.Path(gptlab.__file__).parent.glob("*.py")):
        if path.name == "scalars.py":
            continue
        with open(path, "rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                if tok.type == tokenize.NUMBER:
                    value = ast.literal_eval(tok.string)
                    if isinstance(value, float) and 0 < value < 0.01:
                        found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert found == []


class TestCanonicalBasis:
    def test_stored_basis_orthonormal(self):
        # the stored basis lives in the rescaled raw coordinates; rescaling is
        # scalar, so the raw group's invariant product applies unchanged
        import gptlab.symmetry as sym

        for t in (make_classical(2), make_polygon(5), make_polygon(6)):
            form = canonicalize(t)
            g_raw = automorphism_group(t)
            gf = sym.SymmetryGroup.from_elements(
                tuple(tuple(tuple(float(a) for a in row) for row in m) for m in g_raw.elements),
                g_raw.perms,
                form.theory.ctx,
            )
            gram = averaged_inner_product(gf, form.theory.ctx)
            for i, bi in enumerate(form.basis):
                for j, bj in enumerate(form.basis):
                    want = 1.0 if i == j else 0.0
                    assert gram.pair(bi, bj) == pytest.approx(want, abs=1e-9)

    def test_vertex_last_coordinate_one(self):
        for t in (make_classical(1), make_classical(3), make_polygon(9)):
            form = canonicalize(t)
            for v in form.theory.vertices:
                assert v[-1] == pytest.approx(1.0, abs=1e-9)


def random_valid_effect(t, rnd):
    """Random point of the effect cone intersected with (u - cone)."""
    pures = indecomposable_pure_effects(t)
    coeffs = [rnd.uniform(0, 1) for _ in pures]
    e = tuple(sum(c * p[i] for c, p in zip(coeffs, pures)) for i in range(t.dim))
    top = max(effect_eval(t, e, v) for v in t.vertices)
    scale = rnd.uniform(0.1, 1.0) / top
    return tuple(scale * x for x in e)


class TestEigenstateMembership:
    def test_self_dual_theories(self):
        rnd = random.Random(31)
        for t in (make_polygon(5), make_polygon(7)):
            for _ in range(15):
                e = random_valid_effect(t, rnd)
                mass = t.inner.pair(t.unit_effect, e)
                state = tuple(x / mass for x in e)
                assert in_state_space(t, state)

    def test_reexpressed_even_polygons(self):
        rnd = random.Random(32)
        for n in (4, 6, 8):
            t = psi_transform(make_polygon(n))
            for _ in range(15):
                e = random_valid_effect(t, rnd)
                mass = t.inner.pair(t.unit_effect, e)
                state = tuple(x / mass for x in e)
                assert in_state_space(t, state)


class TestSelfDistances:
    def test_error_bar_zero_for_every_enumerated_ideal(self):
        for t in (make_polygon(3), make_polygon(5), psi_transform(make_polygon(6))):
            for m in enumerate_ideal_measurements(t, 3):
                for eps in (0.0, 0.2, 0.7):
                    assert error_bar_width(t, m, m, eps) == 0

    def test_every_measurement_jointly_measurable_with_itself(self):
        for t in (make_polygon(5), psi_transform(make_polygon(4))):
            for m in enumerate_ideal_measurements(t, 2):
                assert is_jointly_measurable(t, m, m).compatible


class TestVanishingDistances:
    def test_werner_and_linf_vanish_iff_agree_on_vertices(self):
        from gptlab.measures import linf_distance, werner_distance
        from gptlab.model import Measurement

        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        same = Measurement(f.outcomes, f.effects, f.metric)
        assert werner_distance(t, same, f) == pytest.approx(0.0, abs=1e-12)
        assert linf_distance(t, same, f) == 0
        other = Measurement(f.outcomes, binary_ideal_measurement(t, 1).effects, f.metric)
        assert werner_distance(t, other, f) > 1e-6
        assert linf_distance(t, other, f) > 1e-6


class TestFrozenValues:
    def test_field_assignment_raises(self):
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        j = JointMeasurement([0, 1], [0], [[list(e)] for e in f.effects])
        assert j.effects == tuple((e,) for e in f.effects)  # normalised on construction
        lp = LinearProgram(n_vars=1, objective=[1.0], lower=0.0)
        values = [t, f, Measurement(outcomes=[0, 1], effects=[list(e) for e in f.effects]), j,
                  verify_thm2(t, f, f, product_joint(f)), lp_solve(lp), lp_feasible(lp),
                  is_jointly_measurable(t, f, f), min_mur_linf(t, f, f), canonicalize(t)]
        names = ("name", "provenance", "effects", "effects", "passed", "value", "witness",
                 "compatible", "joint", "theory")
        assert len(names) == len(values)
        for value, name in zip(values, names):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, None)


def _classical_joint(t, f, g, lam_f, lam_g):
    """Coordinatewise products of fuzzified f and g: a joint on a classical simplex."""
    ft, gt = fuzzify(t, f, lam_f), fuzzify(t, g, lam_g)
    return JointMeasurement(
        f.outcomes, g.outcomes,
        [[tuple(x * y for x, y in zip(a, b)) for b in gt.effects] for a in ft.effects],
        f.metric, g.metric,
    )


def _cases():
    """(theory, f, g, joint, extra measurement pairs) in exact and float mode.

    Random joints come from the harness on float theories; on classical
    simplices, whose Dirichlet-weighted random joints are not exact, the
    joint is the coordinatewise product of two fuzzified measurements.
    """
    rnd, rng = random.Random(40), np.random.default_rng(40)
    out = []
    for t in [make_classical(n) for n in (1, 2, 3)] + [theory_to_float(make_classical(3))]:
        for _ in range(2):
            f, g = (binary_ideal_measurement(t, rnd.randrange(t.n_vertices)) for _ in range(2))
            lams = (t.ctx.convert(Fr(rnd.randrange(1, 10), 10)) for _ in range(3))
            j = _classical_joint(t, f, g, next(lams), next(lams))
            pairs = []
            if t.n_vertices >= 3:
                m3 = next(m for m in enumerate_ideal_measurements(t, 3) if m.n_outcomes == 3)
                pairs.append((fuzzify(t, m3, next(lams)), m3))
            out.append((t, f, g, j, pairs))
    for t in [make_polygon(n) for n in (3, 5, 9)] + [psi_transform(make_polygon(n))
                                                   for n in (4, 6, 12)]:
        for _ in range(2):
            f, g = (binary_ideal_measurement(t, rnd.randrange(t.n_vertices)) for _ in range(2))
            out.append((t, f, g, random_joint(t, f, g, rng), []))
    return out


def _invariants(t, f, g, j, pairs):
    """Vertex-order-free quantities: measures, bounds, validity and verdicts."""
    mf, mg = marginals(j)
    out = {
        "degree_bound_rhs": degree_bound_rhs(t, f, g),
        "min_le_sum": min_le_sum(t, f, g).value,
        "joint_violations": joint_violations(t, j),
        "is_valid_effect": [is_valid_effect(t, e) for e in f.effects + mf.effects
                            + tuple(tuple(2 * x for x in e) for e in f.effects)],
        "verdicts": [verify_thm1(t, f, g, j, 0.2, 0.2).passed,
                     verify_cor1(t, f, g, j, 0.2, 0.2).passed,
                     verify_thm2(t, f, g, j).passed],
    }
    for i, (approx, ideal) in enumerate([(mf, f), (mg, g)] + pairs):
        out[f"linf_distance[{i}]"] = linf_distance(t, approx, ideal)
        out[f"werner_distance[{i}]"] = werner_distance(t, approx, ideal)
        for eps in (0.1, 0.3):
            out[f"error_bar_width[{i}, {eps}]"] = error_bar_width(t, approx, ideal, eps)
    return out


def _assert_same_invariants(case, moved):
    """The invariants of `case` and `moved`, two (theory, f, g, joint, pairs) tuples, agree."""
    t, f, g, _j, _pairs = case
    t2, f2, g2, _j2, _pairs2 = moved
    want, got = _invariants(*case), _invariants(*moved)
    assert want["verdicts"] == [True, True, True]
    assert False in want["is_valid_effect"] and True in want["is_valid_effect"]
    for key, value in want.items():
        if key.startswith("werner") and not t.ctx.exact:
            # the float running maximum keeps the first vertex value that is not
            # beaten by more than ctx.tol, so it depends on the vertex order by
            # up to that tolerance
            assert abs(got[key] - value) <= t.ctx.tol, key
        else:
            assert got[key] == value, key
    # the minimiser may change, but it attains the minimum
    state = min_le_sum(t2, f2, g2).argmin
    assert sum(localization_error(distribution(t2, m, state)) for m in (f2, g2)) == want[
        "min_le_sum"]


class TestRelabelledVertices:
    def test_invariants_unchanged(self):
        rnd = random.Random(41)
        cases = _cases()
        assert {t.ctx.exact for t, *_ in cases} == {True, False}
        for t, *rest in cases:
            perm = list(range(t.n_vertices))
            rnd.shuffle(perm)
            t2 = dataclasses.replace(t, vertices=tuple(t.vertices[i] for i in perm))
            _assert_same_invariants((t, *rest), (t2, *rest))


class TestSignedAxisPermutation:
    """v -> S v and e -> S e for a signed permutation S keep every Euclidean pairing."""

    def test_exact_classical(self):
        rnd = random.Random(42)
        for t, f, g, j, pairs in _cases():
            if not (t.ctx.exact and t.kind == "classical"):
                continue
            perm = list(range(t.dim))
            rnd.shuffle(perm)
            signs = [rnd.choice((1, -1)) for _ in perm]

            def move(x):
                return tuple(s * x[p] for s, p in zip(signs, perm))

            def move_m(m):
                return dataclasses.replace(m, effects=tuple(move(e) for e in m.effects))

            t2 = dataclasses.replace(t, vertices=tuple(move(v) for v in t.vertices),
                                     unit_effect=move(t.unit_effect))
            j2 = dataclasses.replace(j, effects=tuple(tuple(move(e) for e in row)
                                                      for row in j.effects))
            _assert_same_invariants(
                (t, f, g, j, pairs),
                (t2, move_m(f), move_m(g), j2, [(move_m(a), move_m(i)) for a, i in pairs]))
