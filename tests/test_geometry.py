"""Cones, Gram pairings, affine hulls: examples and oracle comparisons."""

import math
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from gptlab.cones import (
    Cone,
    LinealityError,
    affine_hull_check,
    cone_member,
    cones_equal,
    dual_cone,
    normalize_ray,
)
from gptlab.model import make_classical, make_polygon
from gptlab.scalars import EXACT, FLOAT, InnerProduct

from helpers import member_bruteforce

SQ2 = math.sqrt(2)


class TestGramInner:
    def test_euclidean_norm(self):
        g = InnerProduct.euclidean(3, FLOAT)
        assert g.pair((1.0, 0.0, 1.0), (1.0, 0.0, 1.0)) == pytest.approx(2.0)

    def test_polygon_state_against_mixed(self):
        g = InnerProduct.euclidean(3, FLOAT)
        assert g.pair((SQ2, 0.0, 1.0), (0.0, 0.0, 1.0)) == pytest.approx(1.0)

    def test_diagonal_gram(self):
        g = InnerProduct(((Fr(2), Fr(0)), (Fr(0), Fr(1))))
        assert g.pair((Fr(1), Fr(0)), (Fr(1), Fr(0))) == Fr(2)

    def test_dimension_mismatch(self):
        g = InnerProduct.euclidean(2, FLOAT)
        with pytest.raises(ValueError):
            g.pair((1.0, 0.0, 0.0), (1.0, 0.0))

    def test_symmetry_bilinearity(self):
        g = InnerProduct(((2.0, 0.5, 0.0), (0.5, 1.0, 0.0), (0.0, 0.0, 3.0)))
        x, y, z = (1.0, 2.0, -1.0), (0.5, -1.0, 2.0), (3.0, 0.0, 1.0)
        assert g.pair(x, y) == pytest.approx(g.pair(y, x))
        lhs = g.pair(tuple(a + 2 * b for a, b in zip(x, z)), y)
        rhs = g.pair(x, y) + 2 * g.pair(z, y)
        assert lhs == pytest.approx(rhs)

    def test_non_spd_rejected(self):
        assert not InnerProduct(((1.0, 2.0), (2.0, 1.0))).is_positive_definite(FLOAT)
        assert not InnerProduct(((0.0, 0.0), (0.0, 1.0))).is_positive_definite(FLOAT)
        assert not InnerProduct(((1.0, 0.5), (0.4, 1.0))).is_positive_definite(FLOAT)
        assert InnerProduct(((2.0, 0.5), (0.5, 1.0))).is_positive_definite(FLOAT)


def orthant(d=3):
    return Cone(tuple(tuple(Fr(1) if j == i else Fr(0) for j in range(d)) for i in range(d)))


class TestDualCone:
    def test_orthant_self_dual(self):
        c = orthant()
        d = dual_cone(c, InnerProduct.euclidean(3, EXACT), EXACT)
        assert cones_equal(c, d, EXACT)

    def test_pentagon_self_dual(self):
        t = make_polygon(5)
        d = dual_cone(t.cone, t.inner, t.ctx)
        assert cones_equal(t.cone, d, t.ctx)

    def test_square_dual_rotated(self):
        t = make_polygon(4)
        d = dual_cone(t.cone, t.inner, t.ctx)
        assert not cones_equal(t.cone, d, t.ctx)
        r = math.sqrt(SQ2)
        expected = Cone(tuple(
            (r * math.cos((2 * i - 1) * math.pi / 4) / 2,
             r * math.sin((2 * i - 1) * math.pi / 4) / 2, 0.5)
            for i in range(4)
        ))
        assert cones_equal(d, expected, t.ctx)

    def test_empty_generators_rejected(self):
        with pytest.raises(ValueError):
            dual_cone(Cone(()), InnerProduct.euclidean(3, FLOAT), FLOAT)

    def test_lineality_reported(self):
        flat = Cone(((Fr(1), Fr(0), Fr(0)), (Fr(0), Fr(1), Fr(0))))
        with pytest.raises(LinealityError):
            dual_cone(flat, InnerProduct.euclidean(3, EXACT), EXACT)

    def test_double_dual_identity(self):
        g = InnerProduct.euclidean(3, EXACT)
        cones = [
            orthant(),
            Cone(((Fr(1), Fr(0), Fr(1)), (Fr(0), Fr(1), Fr(1)),
                  (Fr(-1), Fr(0), Fr(1)), (Fr(0), Fr(-1), Fr(1)))),
            Cone(((Fr(2), Fr(1), Fr(1)), (Fr(-1), Fr(2), Fr(1)), (Fr(0), Fr(-1), Fr(1)))),
        ]
        for c in cones:
            dd = dual_cone(dual_cone(c, g, EXACT), g, EXACT)
            assert cones_equal(c, dd, EXACT)

    def test_double_dual_polygons(self):
        for n in (3, 4, 5, 6, 7, 8):
            t = make_polygon(n)
            dd = dual_cone(dual_cone(t.cone, t.inner, t.ctx), t.inner, t.ctx)
            assert cones_equal(t.cone, dd, t.ctx)

    def test_exact_normalization_primitive(self):
        assert normalize_ray((Fr(2, 3), Fr(4, 3), Fr(0)), EXACT) == (Fr(1), Fr(2), Fr(0))

    def test_float_normalization_max_coordinate(self):
        ray = normalize_ray((0.5, -2.0, 1.0), FLOAT)
        assert max(abs(a) for a in ray) == pytest.approx(1.0)


class TestConeMember:
    def test_generator_is_member(self):
        t = make_polygon(5)
        assert cone_member(t.cone, t.vertices[2], t.ctx)

    def test_negative_sum_outside_orthant(self):
        c = orthant()
        assert not cone_member(c, (Fr(-1), Fr(-1), Fr(-1)), EXACT)

    def test_mixed_state_interior(self):
        t = make_polygon(5)
        assert cone_member(t.cone, (0.0, 0.0, 1.0), t.ctx)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cone_member(orthant(), (Fr(1), Fr(0)), EXACT)


class TestConesEqual:
    def test_reflexive(self):
        c = orthant()
        assert cones_equal(c, c, EXACT)

    def test_pentagon_vs_dual_true(self):
        t = make_polygon(5)
        assert cones_equal(t.cone, dual_cone(t.cone, t.inner, t.ctx), t.ctx)

    def test_square_vs_dual_false(self):
        t = make_polygon(4)
        assert not cones_equal(t.cone, dual_cone(t.cone, t.inner, t.ctx), t.ctx)


class TestAffineHull:
    def test_polygon_vertices(self):
        for n in (3, 5, 8):
            t = make_polygon(n)
            info = affine_hull_check(t.vertices, t.ctx)
            assert info.dim == 2 and info.origin_outside

    def test_simplex_vertices(self):
        t = make_classical(2)
        info = affine_hull_check(t.vertices, t.ctx)
        assert info.dim == 2 and info.origin_outside

    def test_repeated_point(self):
        info = affine_hull_check(((Fr(1), Fr(2)), (Fr(1), Fr(2))), EXACT)
        assert info.dim == 0 and info.origin_outside

    def test_hull_through_origin(self):
        info = affine_hull_check(((Fr(1), Fr(0)), (Fr(-1), Fr(0))), EXACT)
        assert not info.origin_outside


@st.composite
def exact_cones_and_points(draw):
    d = draw(st.integers(min_value=2, max_value=4))
    k = draw(st.integers(min_value=d, max_value=8))
    coords = st.integers(min_value=-4, max_value=4)
    gens, tries = [], 0
    while len(gens) < k and tries < 60:
        tries += 1
        g = tuple(Fr(draw(coords)) for _ in range(d))
        if any(a != 0 for a in g):
            gens.append(g)
    from gptlab.scalars import rank as _rank

    if len(gens) < d or _rank(gens, EXACT) < d:
        # pad with the orthant to force full dimension
        gens.extend(tuple(Fr(1) if j == i else Fr(0) for j in range(d)) for i in range(d))
    point = tuple(Fr(draw(coords)) for _ in range(d))
    inside = draw(st.booleans())
    if inside:
        weights = [Fr(draw(st.integers(min_value=0, max_value=3))) for _ in gens]
        point = tuple(sum(w * g[i] for w, g in zip(weights, gens)) for i in range(d))
    return tuple(gens), point


class TestMembershipOracle:
    @settings(max_examples=60, deadline=None)
    @given(exact_cones_and_points())
    def test_lp_matches_bruteforce_facets(self, case):
        gens, point = case
        cone = Cone(gens)
        assert cone_member(cone, point, EXACT) == member_bruteforce(gens, point, EXACT)
