"""Theories, effects, measurements, and the JSON interchange format."""

import functools
import itertools
import json
import math
from dataclasses import replace
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gptlab import harness, model
from gptlab.compat import min_mur_linf
from gptlab.cones import Cone, cone_member, dual_cone
from gptlab.ideal import indecomposable_pure_effects, psi_transform
from gptlab.measures import FiniteMetricSpace, OutcomeDistribution, distribution
from gptlab.model import (
    Measurement,
    Theory,
    effect_eval,
    in_state_space,
    is_valid_effect,
    load_theory,
    make_classical,
    make_disc_approx,
    make_polygon,
    measurement_from_dict,
    measurement_to_dict,
    measurement_violations,
    prob_table,
    save_theory,
    theory_from_dict,
    theory_to_float,
    validate_measurement,
    validate_theory,
)
from gptlab.scalars import EXACT, InnerProduct, dot, inverse, mat_vec, vadd, vscale, vsub
from gptlab.symmetry import automorphism_group, is_self_dual

from helpers import (
    _same_direction, affine_hull_reference, assert_validation_matches_oracle,
    effect_space_member, facet_normals_bruteforce, member_bruteforce, validation_reference,
    vertex_extreme,
)
from test_symmetry import _invertible, structure_theory_files

SQ2 = math.sqrt(2)


class TestMakeClassical:
    def test_bit(self):
        t = make_classical(1)
        assert t.vertices == ((Fr(1), Fr(0)), (Fr(0), Fr(1)))
        assert t.unit_effect == (Fr(1), Fr(1))

    def test_trit_transitive_under_permutations(self):
        from gptlab.symmetry import automorphism_group, is_transitive

        t = make_classical(2)
        assert t.n_vertices == 3
        g = automorphism_group(t)
        assert g.order == 6
        assert is_transitive(g, t)

    def test_unit_on_mixed_state(self):
        t = make_classical(2)
        omega = (Fr(1, 3), Fr(1, 3), Fr(1, 3))
        assert effect_eval(t, t.unit_effect, omega) == 1

    def test_rejects_zero_levels(self):
        with pytest.raises(ValueError):
            make_classical(0)


class TestMakePolygon:
    def test_triangle_radius(self):
        t = make_polygon(3)
        assert t.vertices[0] == pytest.approx((SQ2, 0.0, 1.0))

    def test_square_radius(self):
        t = make_polygon(4)
        r = math.hypot(t.vertices[0][0], t.vertices[0][1])
        assert r == pytest.approx(1.189207115002721)

    def test_unit_effect_everywhere(self):
        for n in (3, 6, 11):
            t = make_polygon(n)
            for v in t.vertices:
                assert effect_eval(t, t.unit_effect, v) == pytest.approx(1.0)

    def test_rejects_digon(self):
        with pytest.raises(ValueError):
            make_polygon(2)

    def test_vertices_extreme_and_distinct(self):
        for n in range(3, 65):
            t = make_polygon(n)
            keys = {tuple(round(x, 9) for x in v) for v in t.vertices}
            assert len(keys) == n
        for n in (3, 4, 7, 12, 33, 64):
            validate_theory(make_polygon(n))


class TestMakeDiscApprox:
    def test_alias_of_polygon(self):
        t = make_disc_approx(64)
        assert t.kind == "polygon" and t.n == 64
        assert t.name == "disc-approx-64"

    def test_vertices_near_unit_circle(self):
        t = make_disc_approx(64)
        r = math.hypot(t.vertices[0][0], t.vertices[0][1])
        assert r == pytest.approx(1.000602816541305)

    def test_radius_decreases_with_m(self):
        radii = []
        for m in (8, 16, 32, 64, 128):
            t = make_disc_approx(m)
            radii.append(math.hypot(t.vertices[0][0], t.vertices[0][1]))
        assert all(a > b for a, b in zip(radii, radii[1:]))
        assert radii[-1] > 1.0

    def test_rejects_coarse(self):
        with pytest.raises(ValueError):
            make_disc_approx(7)


class TestEffectEval:
    def test_unit_on_vertices(self):
        t = make_polygon(7)
        for v in t.vertices:
            assert effect_eval(t, t.unit_effect, v) == pytest.approx(1.0)

    def test_triangle_pure_effect_delta(self):
        t = make_polygon(3)
        e0 = (SQ2 / 3, 0.0, 1.0 / 3.0)
        assert effect_eval(t, e0, t.vertices[0]) == pytest.approx(1.0)
        assert effect_eval(t, e0, t.vertices[1]) == pytest.approx(0.0, abs=1e-12)

    def test_state_check(self):
        # effect_eval is the bare dot product; distribution checks the state
        t = make_polygon(3)
        m = Measurement((0,), (t.unit_effect,))
        with pytest.raises(ValueError, match="not a state"):
            distribution(t, m, (5.0, 5.0, 1.0))


def assert_table_is_effect_eval(t, effects):
    """Every entry of prob_table is effect_eval's value, equal in value, repr and type."""
    table = prob_table(t, effects)
    assert len(table) == len(effects)
    for e, row in zip(effects, table):
        assert len(row) == t.n_vertices
        for v, p in zip(t.vertices, row):
            want = effect_eval(t, e, v)
            assert p == want and repr(p) == repr(want)
            assert type(p) is (Fr if t.ctx.exact else float)


def _rational_triangle():
    """A rational triangle that is no built-in theory."""
    return Theory(
        name="rational-triangle",
        vertices=((Fr(0), Fr(0), Fr(1)), (Fr(3), Fr(0), Fr(1)), (Fr(0), Fr(1, 2), Fr(1))),
        unit_effect=(Fr(0), Fr(0), Fr(1)),
        ctx=EXACT,
    )


class TestProbTable:
    """prob_table against effect_eval, entry by entry."""

    BUILTINS = ([make_classical(n) for n in range(1, 6)]
                + [make_polygon(n) for n in range(3, 13)]
                + [psi_transform(make_polygon(n)) for n in range(4, 17, 2)])

    @staticmethod
    def _effects(t):
        pures = list(indecomposable_pure_effects(t))
        return pures + [vsub(t.unit_effect, e) for e in pures] + [t.unit_effect, *t.vertices]

    def test_builtins(self):
        for t in self.BUILTINS:
            assert_table_is_effect_eval(t, self._effects(t))

    def test_distribution_is_effect_eval(self):
        # on the vertices and on the cell states of a random joint, in both modes
        rng = np.random.default_rng(0)
        for t in self.BUILTINS + [theory_to_float(make_classical(n)) for n in range(1, 6)]:
            f, g = harness.ideal_pair_for(t)
            j = harness.random_joint(t, f, g, rng)
            states = list(t.vertices) + [state for _ab, state in harness._cell_states(t, j)]
            effects = self._effects(t)
            m = Measurement(tuple(range(len(effects))), effects)
            for omega in states:
                probs = distribution(t, m, omega, check_state=False).probs
                for e, p in zip(effects, probs, strict=True):
                    want = effect_eval(t, e, omega)
                    assert p == want and repr(p) == repr(want)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=12),
                             min_size=3, max_size=3), min_size=1, max_size=4))
    def test_random_exact_effects(self, effects):
        for t in (make_classical(2), _rational_triangle()):
            assert_table_is_effect_eval(t, [tuple(e) for e in effects])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.floats(min_value=-3, max_value=3), min_size=3, max_size=3),
                    min_size=1, max_size=4))
    def test_random_float_effects(self, effects):
        for t in (make_polygon(7), psi_transform(make_polygon(8)),
                  theory_to_float(_rational_triangle())):
            assert_table_is_effect_eval(t, [tuple(e) for e in effects])

    def test_wrong_length_rejected(self):
        for t in (make_classical(2), make_polygon(5)):
            for e in ((1, 0), (1, 0, 0, 0)):
                with pytest.raises(ValueError, match="dimension mismatch"):
                    prob_table(t, [t.unit_effect, e])

    def test_empty_effect_list(self):
        assert prob_table(make_polygon(5), []) == ()


class TestValidEffect:
    def test_unit_valid(self):
        t = make_polygon(6)
        assert is_valid_effect(t, t.unit_effect)

    def test_twice_unit_invalid(self):
        t = make_polygon(6)
        assert not is_valid_effect(t, tuple(2 * u for u in t.unit_effect))

    def test_pentagon_pure_effect_valid(self):
        t = make_polygon(5)
        r = math.sqrt(1 / math.cos(math.pi / 5))
        s = 1 / (1 + r * r)
        e2 = (s * r * math.cos(4 * math.pi / 5), s * r * math.sin(4 * math.pi / 5), s)
        assert is_valid_effect(t, e2)

    def test_duality_route_agrees_with_vertex_test(self):
        # effect space = dual cone intersect (u - dual cone)
        import random

        rnd = random.Random(11)
        for t in (make_polygon(5), make_polygon(4), make_classical(2)):
            if t.ctx.exact:
                samples = [tuple(Fr(rnd.randint(-2, 3), 2) for _ in range(t.dim)) for _ in range(12)]
            else:
                samples = [tuple(rnd.uniform(-1.2, 1.2) for _ in range(t.dim)) for _ in range(12)]
            samples.append(t.unit_effect)
            for e in samples:
                assert is_valid_effect(t, e) == effect_space_member(t, e)


class TestMeasurementValidation:
    def test_triangle_fine_grained(self):
        t = make_polygon(3)
        effects = []
        for i in range(3):
            a = 2 * math.pi * i / 3
            effects.append((SQ2 * math.cos(a) / 3, SQ2 * math.sin(a) / 3, 1.0 / 3.0))
        m = Measurement(outcomes=(0, 1, 2), effects=tuple(effects))
        assert validate_measurement(t, m)

    def test_trivial_noise_pair(self):
        t = make_polygon(8)
        m = Measurement(outcomes=(0, 1), effects=((0.0, 0.0, 0.5), (0.0, 0.0, 0.5)))
        assert validate_measurement(t, m)

    def test_single_outcome_rejected(self):
        t = make_polygon(8)
        m = Measurement(outcomes=(0,), effects=((0.0, 0.0, 1.0),))
        problems = measurement_violations(t, m)
        assert any("trivial" in p for p in problems)

    def test_bad_sum_reported(self):
        t = make_polygon(8)
        m = Measurement(outcomes=(0, 1), effects=((0.0, 0.0, 0.5), (0.0, 0.0, 0.4)))
        assert any("sum" in p for p in measurement_violations(t, m))

    def test_zero_effect_reported(self):
        t = make_polygon(8)
        m = Measurement(outcomes=(0, 1), effects=((0.0, 0.0, 0.0), (0.0, 0.0, 1.0)))
        assert any("zero" in p for p in measurement_violations(t, m))

    def test_wrong_effect_length_reported_alone(self):
        t = make_polygon(8)
        m = Measurement(outcomes=(0, 1), effects=((0.5, 0.5), (-0.5, 0.5)))
        assert measurement_violations(t, m) == ["every effect needs 3 coordinates"]

    @pytest.mark.parametrize("dist, axiom", [
        (((0, -3), (2, 0)), "distance matrix is not symmetric"),
        (((0, -1), (-1, 0)), "distinct points at non-positive distance"),
    ], ids=["asymmetric", "negative"])
    def test_metric_axioms_checked(self, dist, axiom):
        t = make_polygon(8)
        m = Measurement((0, 1), ((0.0, 0.0, 0.5), (0.0, 0.0, 0.5)), FiniteMetricSpace((0, 1), dist))
        assert not validate_measurement(t, m)
        assert measurement_violations(t, m) == [f"metric: {axiom}"]

    def test_default_metric_is_the_discrete_one(self):
        o, e = (0, 1), ((0.0, 0.0, 0.5), (0.0, 0.0, 0.5))
        assert Measurement(o, e) == Measurement(o, e, FiniteMetricSpace.discrete(o))


class TestStateMembership:
    def test_vertex_and_center(self):
        t = make_polygon(9)
        assert in_state_space(t, t.vertices[4])
        assert in_state_space(t, (0.0, 0.0, 1.0))

    def test_outside(self):
        t = make_polygon(9)
        assert not in_state_space(t, (2.0, 0.0, 1.0))


def _random_rational_polygon(rng) -> Theory:
    """Convex hull of random integer points, lifted to the plane z = 1."""
    while True:
        pts = sorted({(Fr(int(x)), Fr(int(y))) for x, y in rng.integers(-6, 7, size=(7, 2))})
        hull = []
        for sweep in (pts, pts[::-1]):  # monotone chain, collinear points dropped
            half = []
            for q in sweep:
                while len(half) >= 2 and (
                    (half[-1][0] - half[-2][0]) * (q[1] - half[-2][1])
                    - (half[-1][1] - half[-2][1]) * (q[0] - half[-2][0])
                ) <= 0:
                    half.pop()
                half.append(q)
            hull += half[:-1]
        if len(hull) >= 3:
            return Theory(
                name=f"rational-{len(hull)}-gon",
                vertices=tuple((x, y, Fr(1)) for x, y in hull),
                unit_effect=(Fr(0), Fr(0), Fr(1)),
                ctx=EXACT,
            )


def _random_triangular_prism(rng) -> Theory:
    while True:
        tri = [tuple(Fr(int(a)) for a in rng.integers(-5, 6, size=2)) for _ in range(3)]
        (ax, ay), (bx, by), (cx, cy) = tri
        if (bx - ax) * (cy - ay) != (by - ay) * (cx - ax):
            break
    h = Fr(int(rng.integers(1, 5)), int(rng.integers(1, 4)))
    return Theory(
        name="rational-prism",
        vertices=tuple((x, y, z, Fr(1)) for z in (Fr(0), h) for x, y in tri),
        unit_effect=(Fr(0), Fr(0), Fr(0), Fr(1)),
        ctx=EXACT,
    )


def _membership_queries(t: Theory, rng) -> list:
    """(point, expected) pairs: vertices, midpoints, mixtures, points just outside."""
    verts = t.vertices
    n = len(verts)
    centroid = vscale(Fr(1, n), _vsum(verts))
    out = [(v, True) for v in verts]
    out += [(vscale(Fr(1, 2), vadd(verts[i], verts[j])), True)
            for i in range(n) for j in range(i + 1, n)]
    for _ in range(3):
        w = [Fr(int(a)) for a in rng.integers(1, 10, size=n)]
        out.append((vscale(1 / sum(w), _vsum(vscale(a, v) for a, v in zip(w, verts))), True))
    for normal in facet_normals_bruteforce(verts, EXACT):
        face = [v for v in verts if sum(a * b for a, b in zip(normal, v)) == 0]
        p = vscale(Fr(1, len(face)), _vsum(face))
        # outward and parallel to the state plane, so still normalised
        out.append((vadd(p, vscale(Fr(1, 10**6), vsub(p, centroid))), False))
    out.append((vscale(2, centroid), False))  # in the cone, not normalised
    return out


def _vsum(vs):
    vs = list(vs)
    total = vs[0]
    for v in vs[1:]:
        total = vadd(total, v)
    return total


class TestFacetMembership:
    """Facet-based membership against the LP and brute-force facet oracles."""

    @staticmethod
    def _theories():
        rng = np.random.default_rng(20)
        return (
            [_random_rational_polygon(rng) for _ in range(6)]
            + [make_classical(n) for n in (1, 2, 3)]
            + [_random_triangular_prism(rng) for _ in range(3)]
        )

    @pytest.mark.parametrize("exact", [True, False])
    def test_matches_lp_and_bruteforce(self, exact):
        rng = np.random.default_rng(21)
        checked = 0
        for t_exact in self._theories():
            queries = _membership_queries(t_exact, rng)
            t = t_exact if exact else theory_to_float(t_exact)
            ctx = t.ctx
            for point, expected in queries:
                omega = point if exact else tuple(map(float, point))
                normalised = ctx.eq(effect_eval(t, t.unit_effect, omega), 1)
                lp = cone_member(t.cone, omega, ctx) and normalised
                brute = member_bruteforce(t.vertices, omega, ctx) and normalised
                assert in_state_space(t, omega) == lp == brute == expected, (t.name, point)
                checked += 1
        assert checked > 250

    def test_facets_match_bruteforce(self):
        for t in self._theories():
            validate_theory(t)
            brute = facet_normals_bruteforce(t.vertices, t.ctx)
            rays = t.facet_table[0].tolist()
            assert len(rays) == len(brute)
            for n in rays:
                assert any(_same_direction(n, m, t.ctx) for m in brute)

    def test_facets_are_lazy_and_per_instance(self):
        t = make_polygon(6)
        assert "facet_table" not in vars(t)
        assert in_state_space(t, t.vertices[0])
        assert len(vars(t)["facet_table"][0]) == 6
        assert "facet_table" not in vars(replace(t, name="copy"))

    def test_non_spanning_vertices_fail_loudly(self):
        flat = Theory(
            name="segment-in-3d",
            vertices=((Fr(1), Fr(0), Fr(1)), (Fr(0), Fr(1), Fr(1))),
            unit_effect=(Fr(0), Fr(0), Fr(1)),
            ctx=EXACT,
        )
        with pytest.raises(ValueError, match="span only a 2-dimensional subspace"):
            in_state_space(flat, (Fr(1, 2), Fr(1, 2), Fr(1)))


class TestFacetTable:
    """``Theory.facet_table`` against the generators of ``dual_cone``, scaled by
    hand, and one double description per theory instance."""

    @staticmethod
    def scaled_normals(t):
        # n . normal / (normal . sum of the vertices) per generator, on the scalars
        total = functools.reduce(vadd, t.vertices)
        k = t.ctx.convert(t.n_vertices)
        return [tuple(a * (k / dot(n, total)) for a in n)
                for n in dual_cone(t.cone, t.inner, t.ctx).generators]

    def test_exact_rays_are_ints_over_one_denominator(self, tmp_path):
        theories = [make_classical(n) for n in range(1, 6)]
        theories += map(load_theory, structure_theory_files(tmp_path, seed=5).values())
        for t in theories:
            rays, den, tight = t.facet_table
            assert all(type(x) is int for x in [den, *rays.ravel().tolist()]), t.name
            assert [tuple(Fr(x, den) for x in r) for r in rays.tolist()] == self.scaled_normals(t)
            assert tight.shape == (len(rays), t.n_vertices)

    @pytest.mark.parametrize("make", [
        *[pytest.param(lambda n=n: make_polygon(n), id=f"polygon-{n}") for n in range(3, 13)],
        *[pytest.param(lambda n=n: psi_transform(make_polygon(n)), id=f"psi-{n}")
          for n in range(4, 65, 2)],
    ])
    def test_float_rays_keep_their_bits(self, make):
        t = make()
        rays, den, _ = t.facet_table
        assert rays.dtype == np.float64 and den == 1
        assert repr([tuple(r) for r in rays.tolist()]) == repr(self.scaled_normals(t))

    @pytest.mark.parametrize("make", [lambda: make_classical(3), lambda: make_polygon(5),
                                      lambda: psi_transform(make_polygon(8))],
                             ids=["classical-3", "polygon-5", "psi-8"])
    def test_one_double_description_per_instance(self, monkeypatch, make):
        calls, real = [], model.dual_cone
        monkeypatch.setattr(model, "dual_cone", lambda *a: calls.append(a) or real(*a))
        t = make()
        f, g = harness.ideal_pair_for(t)
        automorphism_group(t)  # kept, so the compat LP runs over orbits
        validate_theory(t)
        assert in_state_space(t, t.vertices[0])
        assert is_self_dual(t) == (t.kind != "polygon-psi")  # both read the rays
        min_mur_linf(t, f, g)  # matches the stabiliser's ray images with the rays
        assert len(calls) == 1
        min_mur_linf(make(), f, g)  # a fresh instance describes its own facets
        assert len(calls) == 2

    @pytest.mark.parametrize("make", [lambda: make_classical(3),
                                      lambda: psi_transform(make_polygon(8))],
                             ids=["classical-3", "psi-8"])
    def test_table_is_read_only(self, make):
        # a write would change every later membership test and compat LP on the instance
        t = make()
        rays, _den, tight = t.facet_table
        for array in (rays, tight):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = array[0, 1]
        with pytest.raises(ValueError, match="read-only"):
            rays *= 2
        assert in_state_space(t, t.vertices[0]) and t.facet_table[0] is rays


@st.composite
def theories_to_validate(draw):
    """``(t, case)``: an exact theory on points at height 1 in R^d, d = 2..4, moved by
    an invertible rational map M, its unit effect by M^-T, so that the unit effect
    stays one on each point.  The points are distinct ones on the moment curve
    ``(s, s^2, ...)``, which are all vertices, or scattered integer points; then made
    flat, given a repeated or an interior point or a vertex through the origin, or
    kept as they are."""
    d = draw(st.integers(2, 4))
    case = draw(st.sampled_from(["curve", "scattered", "flat", "repeated", "interior", "origin"]))
    if case == "scattered":
        row = st.lists(st.integers(-3, 3), min_size=d - 1, max_size=d - 1)
        pts = draw(st.lists(row, min_size=1, max_size=7))
    else:
        ss = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=7 if d > 2 else 2,
                           unique=True))
        pts = [[s ** i for i in range(1, d)] for s in ss]
    pts = [[Fr(a) for a in p] + [Fr(1)] for p in pts]
    if case == "flat":
        pts = [[Fr(0), *p[1:]] for p in pts]
    elif case == "repeated":
        pts.insert(draw(st.integers(0, len(pts))), draw(st.sampled_from(pts)))
    elif case == "interior":
        pts.append([sum(col) / len(pts) for col in zip(*pts)])
    elif case == "origin":
        pts.append([-a for a in pts[0]])
    m = _invertible(draw, d)
    return Theory(f"{case}-{d}", [mat_vec(m, p) for p in pts], inverse(m, EXACT)[-1], EXACT), case


class TestTheoryValidation:
    def test_builtin_theories_pass(self):
        for t in (make_classical(1), make_classical(3), make_polygon(5), make_polygon(10)):
            validate_theory(t)

    def test_non_extreme_vertex_rejected(self):
        t = make_classical(1)
        bad = Theory(
            name="bad",
            vertices=t.vertices + ((Fr(1, 2), Fr(1, 2)),),
            unit_effect=t.unit_effect,
            ctx=t.ctx,
        )
        with pytest.raises(ValueError, match="convex combination"):
            validate_theory(bad)

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    @pytest.mark.parametrize("extra", [(-1, 1), (0, 1), (Fr(1, 3), Fr(-1, 5))],
                             ids=["duplicate", "midpoint", "interior"])
    def test_reported_vertex_matches_oracle(self, extra, exact):
        # every relabelling of a square plus one point that is not a new vertex;
        # a duplicated pair reports its lower index
        pts = [(1, 1), (-1, 1), (-1, -1), (1, -1), extra]
        reported = set()
        for perm in itertools.permutations(pts):
            t = Theory("square-plus", tuple((Fr(x), Fr(y), Fr(1)) for x, y in perm),
                       (Fr(0), Fr(0), Fr(1)), EXACT)
            t = t if exact else theory_to_float(t)
            assert_validation_matches_oracle(t)
            with pytest.raises(ValueError, match="convex combination") as exc:
                validate_theory(t)
            reported.add(int(str(exc.value).split()[1]))
        assert reported == ({0, 1, 2, 3} if extra == (-1, 1) else {0, 1, 2, 3, 4})

    def test_large_exact_polygon_from_json(self, tmp_path):
        # 400 points on the parabola (x, x^2, 1), a copy of vertex 150 and a point
        # inside: the file is rejected naming the oracle's first vertex, a duplicate
        pts = [[x, x * x, 1] for x in range(400)]
        pts.insert(300, pts[150])
        pts.insert(350, [200, 40001, 1])
        path = tmp_path / "parabola.json"
        path.write_text(json.dumps({"name": "parabola", "dim": 3, "vertices": pts,
                                    "unit_effect": [0, 0, 1]}))
        t = Theory("parabola", EXACT.mat(pts), EXACT.vec([0, 0, 1]), EXACT)
        bad = next(i for i in range(t.n_vertices) if not vertex_extreme(t, i))
        assert bad == 150
        with pytest.raises(ValueError, match=f"^vertex {bad} is a convex combination"):
            load_theory(path)

    @settings(max_examples=150, deadline=None)
    @given(theories_to_validate())
    def test_accepts_exactly_as_the_affine_hull_rule_did(self, drawn):
        exact, case = drawn
        for t in (exact, theory_to_float(exact)):
            try:
                validate_theory(t)
                got = None
            except ValueError as exc:
                got = str(exc)
            assert (got is None) == validation_reference(t), (t.vertices, got)
            if case != "origin" and affine_hull_reference(t.vertices, t.ctx) != (t.dim - 1, True):
                # the unit effect is one on every vertex: the facet table rejects the
                # theory, and names it
                assert f"theory {t.name!r}" in got and "span only" in got

    def test_origin_in_hull_rejected(self):
        bad = Theory(
            name="bad",
            vertices=((Fr(1), Fr(0)), (Fr(-1), Fr(0))),
            unit_effect=(Fr(1), Fr(1)),
            ctx=EXACT,
        )
        with pytest.raises(ValueError):
            validate_theory(bad)


class TestListInputsAreKeptAsTuples:
    """Frozen value types keep list inputs as tuples, as ``Measurement`` does: the
    value equals and hashes as the tuple-built one, and changing the input list
    afterwards reaches neither the value nor what is cached from it."""

    def test_theory(self):
        rows, u = [[1, 0], [0, 1]], [1, 1]
        t = Theory("c", rows, u, EXACT)
        tupled = Theory("c", ((1, 0), (0, 1)), (1, 1), EXACT)
        assert t == tupled and hash(t) == hash(tupled)
        table = t.facet_table
        rows[0][0], u[0] = 5, 7
        rows.append([1, 1])
        assert (t.vertices, t.unit_effect) == (((1, 0), (0, 1)), (1, 1))
        assert t.facet_table is table and np.array_equal(table[0], tupled.facet_table[0])
        validate_theory(t)

    @pytest.mark.parametrize("make, name", [
        (Cone, "generators"),
        (InnerProduct, "gram"),
        (lambda rows: OutcomeDistribution(FiniteMetricSpace.discrete((0, 1)), rows[0]), "probs"),
    ], ids=["cone", "inner-product", "distribution"])
    def test_value_types(self, make, name):
        rows = [[1, 0], [0, 1]]
        listed, tupled = make(rows), make(((1, 0), (0, 1)))
        assert listed == tupled and hash(listed) == hash(tupled)
        rows[0][0] = 5
        assert listed == tupled and type(getattr(listed, name)) is tuple


class TestJsonRoundTrip:
    def test_exact_rationals_preserved(self, tmp_path):
        t = make_classical(2)
        path = tmp_path / "trit.json"
        save_theory(t, path)
        data = json.loads(path.read_text())
        assert data["vertices"][0] == [1, 0, 0]
        back = load_theory(path)
        assert back.ctx.exact
        assert back.vertices == t.vertices

    def test_fraction_strings(self):
        data = {
            "name": "halves",
            "dim": 2,
            "vertices": [["1/2", "1/2"], ["3/2", "-1/2"]],
            "unit_effect": [1, 1],
        }
        t = theory_from_dict(data)
        assert t.ctx.exact
        assert t.vertices[0] == (Fr(1, 2), Fr(1, 2))

    def test_float_theory_round_trip(self, tmp_path):
        t = make_polygon(5)
        path = tmp_path / "p5.json"
        save_theory(t, path)
        back = load_theory(path)
        assert not back.ctx.exact
        for v, w in zip(t.vertices, back.vertices):
            assert v == pytest.approx(w)

    @pytest.mark.parametrize("make", [lambda: make_classical(3), lambda: make_polygon(7),
                                      lambda: psi_transform(make_polygon(8)),
                                      lambda: make_disc_approx(12)])
    def test_builtin_round_trip_keeps_closed_form_group(self, make, tmp_path):
        t = make()
        path = tmp_path / "builtin.json"
        save_theory(t, path)
        back = load_theory(path)
        assert (back.kind, back.n) == (t.kind, t.n)
        assert automorphism_group(back).order == automorphism_group(t).order

    def test_transformed_builtin_saves_as_custom(self, tmp_path):
        # kind "polygon", but the vertices in another order: the closed-form
        # pure effects and re-expression would pair the wrong vertices
        t = make_polygon(6)
        t = replace(t, vertices=t.vertices[1:] + t.vertices[:1])
        path = tmp_path / "shifted.json"
        save_theory(t, path)
        assert "kind" not in json.loads(path.read_text())
        assert load_theory(path).kind == "custom"

    @pytest.mark.parametrize("kind, n, match", [
        ("polygon", 4, "'sq' declares kind 'polygon' with n=4"),
        ("classical", 2, "'sq' declares kind 'classical' with n=2"),
        ("polygon", None, "'sq' declares kind 'polygon' with n=None"),
        ("hexagon", 6, "'sq' declares kind 'hexagon' with n=6"),
    ])
    def test_declared_kind_must_match_builtin(self, kind, n, match):
        # an exact square is none of these built-ins
        data = {"name": "sq", "dim": 3, "kind": kind, "n": n,
                "vertices": [[1, 1, 1], [-1, 1, 1], [-1, -1, 1], [1, -1, 1]],
                "unit_effect": [0, 0, 1]}
        with pytest.raises(ValueError, match=match):
            theory_from_dict(data)

    def test_builtin_kind_in_another_mode_rejected(self):
        # the classical bit's vertices, but in float mode
        data = {"name": "bit", "dim": 2, "kind": "classical", "n": 1,
                "vertices": [[1.0, 0.0], [0.0, 1.0]], "unit_effect": [1.0, 1.0]}
        with pytest.raises(ValueError, match="'bit' declares kind 'classical'"):
            theory_from_dict(data)
        del data["kind"], data["n"]
        assert theory_from_dict(data).kind == "custom"

    def test_measurement_round_trip(self):
        t = make_polygon(4)
        m = Measurement(
            outcomes=(0, 1),
            effects=((0.25, 0.0, 0.5), (-0.25, 0.0, 0.5)),
            metric=FiniteMetricSpace.discrete((0, 1)),
        )
        back = measurement_from_dict(measurement_to_dict(m), t.ctx)
        assert back.outcomes == m.outcomes
        for e, f in zip(back.effects, m.effects):
            assert e == pytest.approx(f)
        assert back.metric.dist == m.metric.dist
