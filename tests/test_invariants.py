"""Cross-module structural laws checked on families of inputs."""

import dataclasses
import math
import random

import pytest

from gptlab.compat import (
    JointMeasurement,
    is_jointly_measurable,
    min_mur_linf,
    product_joint,
)
from gptlab.harness import verify_thm2
from gptlab.ideal import (
    binary_ideal_measurement,
    enumerate_ideal_measurements,
    indecomposable_pure_effects,
    psi_transform,
)
from gptlab.linprog import LinearProgram, lp_feasible, lp_solve
from gptlab.measures import error_bar_width
from gptlab.model import Measurement, effect_eval, in_state_space, make_classical, make_polygon
from gptlab.symmetry import automorphism_group, averaged_inner_product, canonicalize


class TestCanonicalBasis:
    def test_stored_basis_orthonormal(self):
        # the stored basis lives in the rescaled raw coordinates; rescaling is
        # scalar, so the raw group's invariant product applies unchanged
        import gptlab.symmetry as sym

        for t in (make_classical(2), make_polygon(5), make_polygon(6)):
            form = canonicalize(t)
            g_raw = automorphism_group(t)
            gf = sym.SymmetryGroup(
                tuple(tuple(tuple(float(a) for a in row) for row in m) for m in g_raw.elements),
                g_raw.perms,
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
