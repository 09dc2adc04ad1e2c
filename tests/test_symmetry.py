"""Automorphism groups, invariant products, canonical forms, self-duality."""

import functools
import importlib.util
import itertools
import json
import math
import re
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction as Fr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import gptlab.compat
import gptlab.cones
import gptlab.symmetry
from gptlab.cli import main as cli_main
from gptlab.cones import Cone, cone_member, dual_cone, normalize_ray
from gptlab.harness import prepare_conforming
from gptlab.ideal import (
    binary_ideal_measurement, indecomposable_pure_effects, psi_coordinates, psi_map_effect,
    psi_map_measurement, psi_transform,
)
from gptlab.model import (
    Coordinates, Theory, load_theory, make_classical, make_polygon, prob_table, theory_to_float,
)
from gptlab.scalars import (
    EXACT, FLOAT, InnerProduct, identity, inverse, mat_add, mat_mul, mat_scale, mat_sub, mat_vec,
    narrowed, ordered_matmul, stacked, stacked_inverse, transpose, unstacked, vscale,
)
from gptlab.symmetry import (
    SymmetryGroup,
    automorphism_group,
    averaged_inner_product,
    canonicalize,
    is_self_dual,
    is_transitive,
    maximally_mixed,
    projector_pm,
    rescale_unit_norm,
    xi_canonicalize,
)

from helpers import (
    assert_validation_matches_oracle, averaged_gram_per_element, automorphism_orders_bruteforce,
    canonical_group_per_element, canonical_theory_reference, dual_cone_reference, j_positive_lp,
    maximally_mixed_per_element, projector_per_element, psi_effect_reference,
    psi_theory_reference, rescale_unit_norm_reference, search_group_full_depth,
    search_group_reference, self_dual_lp, vertex_extreme,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def trapezoid():
    vs = ((Fr(2), Fr(1), Fr(1)), (Fr(-2), Fr(1), Fr(1)),
          (Fr(-1), Fr(-1), Fr(1)), (Fr(1), Fr(-1), Fr(1)))
    return Theory("trapezoid", vs, (Fr(0), Fr(0), Fr(1)), EXACT)


def stretched_square():
    vs = ((Fr(2), Fr(0), Fr(1)), (Fr(0), Fr(1), Fr(1)),
          (Fr(-2), Fr(0), Fr(1)), (Fr(0), Fr(-1), Fr(1)))
    return Theory("stretched-square", vs, (Fr(0), Fr(0), Fr(1)), EXACT)


def stretched_pentagon():
    t = make_polygon(5)
    stretch = ((2.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 1.0))
    return replace(t, name="pentagon-stretched", kind="custom",
                   vertices=tuple(mat_vec(stretch, v) for v in t.vertices))


def dihedral(n):
    """The n-gon's vertex permutations: rotations i -> i + k and reflections
    i -> k - i, mod n."""
    return ({tuple((i + k) % n for i in range(n)) for k in range(n)}
            | {tuple((k - i) % n for i in range(n)) for k in range(n)})


class TestAutomorphismGroup:
    def test_pentagon_dihedral(self):
        g = automorphism_group(make_polygon(5))
        assert g.order == 10

    def test_trit_permutations(self):
        g = automorphism_group(make_classical(2))
        assert g.order == 6

    def test_stretched_square_is_conjugated_dihedral(self):
        # a linear stretch conjugates the square's group; automorphisms need
        # not be Euclidean isometries, so the order stays 8 and the action
        # stays transitive
        t = stretched_square()
        g = automorphism_group(t)
        assert g.order == 8
        assert is_transitive(g, t)
        assert g.order == automorphism_orders_bruteforce(t.vertices, t.ctx)

    def test_trapezoid_not_transitive(self):
        t = trapezoid()
        g = automorphism_group(t)
        assert g.order == 2
        assert not is_transitive(g, t)

    def test_group_closure(self):
        t = make_polygon(6)
        g = automorphism_group(t)
        for a in g.elements[:6]:
            for b in g.elements[:6]:
                prod = mat_mul(a, b)
                assert any(t.ctx.mat_eq(prod, m) for m in g.elements)

    def test_search_matches_closed_forms(self):
        # the searched vertex permutations against the paper's groups: dihedral
        # on the n-gon and the psi-n-gon, all permutations on the simplex
        for n in range(3, 25):
            assert set(automorphism_group(make_polygon(n)).perms) == dihedral(n)
        for n in range(4, 25, 2):
            assert set(automorphism_group(psi_transform(make_polygon(n))).perms) == dihedral(n)
        for n in range(1, 5):
            perms = automorphism_group(make_classical(n)).perms
            assert sorted(perms) == list(itertools.permutations(range(n + 1)))

    @pytest.mark.parametrize("n, self_dual", [(6, False), (5, True)])
    def test_relabelled_builtin(self, n, self_dual):
        # the vertices in another order under the built-in's kind: the group
        # is still the dihedral one, on the new labels
        t = make_polygon(n)
        order = [2, 0, 4, 1, 3, 5][:n]
        relabelled = replace(t, vertices=tuple(t.vertices[i] for i in order))
        assert relabelled.kind == "polygon"
        g = automorphism_group(relabelled)
        assert g.order == 2 * n
        # new vertex j is old vertex order[j]: each old permutation p acts as
        # j -> order^-1(p(order[j]))
        back = {old: new for new, old in enumerate(order)}
        assert set(g.perms) == {tuple(back[p[i]] for i in order) for p in dihedral(n)}
        assert is_self_dual(relabelled) is self_dual

    def test_nonspanning_vertices_rejected(self):
        t = Theory("flat", ((Fr(1), Fr(0), Fr(1)), (Fr(-1), Fr(0), Fr(1))),
                   (Fr(0), Fr(0), Fr(1)), EXACT)
        with pytest.raises(ValueError, match="span"):
            automorphism_group(t)


class TestTransitivity:
    def test_polygons_transitive(self):
        for n in (3, 4, 7, 12):
            t = make_polygon(n)
            assert is_transitive(automorphism_group(t), t)

    def test_classical_transitive(self):
        for nn in (1, 2, 3):
            t = make_classical(nn)
            assert is_transitive(automorphism_group(t), t)


class TestMaximallyMixed:
    def test_polygon_center(self):
        t = make_polygon(9)
        omega = maximally_mixed(t)
        assert omega == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)

    def test_trit_uniform(self):
        t = make_classical(2)
        assert maximally_mixed(t) == (Fr(1, 3), Fr(1, 3), Fr(1, 3))

    def test_invariance_under_group(self):
        t = make_polygon(7)
        g = automorphism_group(t)
        omega = maximally_mixed(t, g)
        for mat in g.elements:
            assert mat_vec(mat, omega) == pytest.approx(omega, abs=1e-12)

    def test_non_transitive_rejected(self):
        t = trapezoid()
        with pytest.raises(ValueError, match="transitive"):
            maximally_mixed(t)


class TestRescale:
    def test_polygon_unchanged(self):
        t = make_polygon(5)
        assert rescale_unit_norm(t).vertices == t.vertices

    def test_trit_scaled_by_sqrt3(self):
        t = rescale_unit_norm(make_classical(2))
        assert not t.ctx.exact  # sqrt(3) forces float mode
        assert t.vertices[0][0] == pytest.approx(math.sqrt(3))
        omega = maximally_mixed(t)
        assert sum(a * a for a in omega) == pytest.approx(1.0)

    def test_idempotent(self):
        t = rescale_unit_norm(make_classical(2))
        again = rescale_unit_norm(t)
        for v, w in zip(t.vertices, again.vertices):
            assert v == pytest.approx(w)

    def test_unit_effect_stays_normalized(self):
        t = rescale_unit_norm(make_classical(2))
        from gptlab.model import effect_eval

        for v in t.vertices:
            assert effect_eval(t, t.unit_effect, v) == pytest.approx(1.0)


class TestAveragedInnerProduct:
    def test_polygon_identity(self):
        for n in range(3, 13):
            t = make_polygon(n)
            gram = averaged_inner_product(automorphism_group(t), t.ctx).gram
            dev = max(abs(gram[i][j] - (1.0 if i == j else 0.0)) for i in range(3) for j in range(3))
            assert dev < 1e-12

    def test_classical_identity_exact(self):
        for nn in (1, 2, 3):
            t = make_classical(nn)
            gram = averaged_inner_product(automorphism_group(t), t.ctx).gram
            d = nn + 1
            assert gram == tuple(
                tuple(Fr(1) if i == j else Fr(0) for j in range(d)) for i in range(d)
            )

    def test_trivial_group_identity(self):
        g = SymmetryGroup.from_elements((((1.0, 0.0), (0.0, 1.0)),), ((0, 1),), FLOAT)
        assert averaged_inner_product(g, FLOAT).gram == ((1.0, 0.0), (0.0, 1.0))

    def test_group_elements_orthogonal_under_average(self):
        # T' G T = G for every symmetry, including non-isometric ones
        t = stretched_square()
        g = automorphism_group(t)
        gram = averaged_inner_product(g, t.ctx).gram
        for mat in g.elements:
            conj = mat_mul(transpose(mat), mat_mul(gram, mat))
            assert conj == gram

    def test_equal_vertex_norms_in_transitive_theory(self):
        t = stretched_square()
        gram = averaged_inner_product(automorphism_group(t), t.ctx)
        norms = [gram.pair(v, v) for v in t.vertices]
        assert all(x == norms[0] for x in norms)


class TestProjector:
    def test_polygon_projects_to_axis(self):
        t = make_polygon(8)
        pm = projector_pm(automorphism_group(t), t.ctx)
        for i in range(3):
            for j in range(3):
                expect = 1.0 if i == j == 2 else 0.0
                assert pm[i][j] == pytest.approx(expect, abs=1e-12)

    def test_idempotent_and_self_adjoint(self):
        t = stretched_square()
        g = automorphism_group(t)
        pm = projector_pm(g, t.ctx)
        assert mat_mul(pm, pm) == pm
        gram = averaged_inner_product(g, t.ctx).gram
        lhs = mat_mul(transpose(pm), gram)
        rhs = mat_mul(gram, pm)
        assert lhs == rhs

    def test_fixes_mixed_state_kills_plane(self):
        t = make_polygon(6)
        g = automorphism_group(t)
        pm = projector_pm(g, t.ctx)
        omega = maximally_mixed(t, g)
        assert mat_vec(pm, omega) == pytest.approx(omega, abs=1e-12)
        diff = tuple(a - b for a, b in zip(t.vertices[0], omega))
        assert mat_vec(pm, diff) == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)


class TestCanonicalize:
    def test_polygon_already_canonical(self):
        form = canonicalize(make_polygon(5))
        for i in range(3):
            for j in range(3):
                assert form.transform[i][j] == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)

    def test_classical_bit(self):
        form = canonicalize(make_classical(1))
        vs = sorted(tuple(round(x, 9) for x in v) for v in form.theory.vertices)
        assert vs == [(-1.0, 1.0), (1.0, 1.0)]
        assert form.theory.unit_effect == pytest.approx((0.0, 1.0), abs=1e-12)

    def test_unit_equals_mixed_state(self):
        for t in (make_classical(1), make_classical(2), make_polygon(5), make_polygon(6)):
            form = canonicalize(t)
            tc = form.theory
            omega = maximally_mixed(tc, form.group)
            assert tc.unit_effect == pytest.approx(omega, abs=1e-9)
            assert tc.unit_effect[:-1] == pytest.approx((0.0,) * (tc.dim - 1), abs=1e-9)
            assert tc.unit_effect[-1] == pytest.approx(1.0)

    def test_basis_orthonormal_and_bloch_form(self):
        form = canonicalize(make_classical(2))
        gram = averaged_inner_product(form.group, form.theory.ctx)
        # canonical coordinates: averaged product is Euclidean again
        dev = max(abs(gram.gram[i][j] - (1.0 if i == j else 0.0)) for i in range(3) for j in range(3))
        assert dev < 1e-12
        for v in form.theory.vertices:
            assert v[-1] == pytest.approx(1.0)

    def test_probabilities_preserved(self):
        from gptlab.model import effect_eval

        t = make_classical(2)
        form = canonicalize(t)
        # unit effect keeps evaluating to one on every vertex
        for v in form.theory.vertices:
            assert effect_eval(form.theory, form.theory.unit_effect, v) == pytest.approx(1.0)

    def test_non_transitive_rejected(self):
        with pytest.raises(ValueError, match="transitive"):
            canonicalize(trapezoid())


class TestSelfDuality:
    def test_odd_polygons_self_dual(self):
        for n in (3, 5, 7, 9):
            assert is_self_dual(make_polygon(n))

    def test_even_polygons_weakly_self_dual(self):
        for n in (4, 6, 8, 10):
            assert not is_self_dual(make_polygon(n))

    def test_classical_self_dual(self):
        for nn in (1, 2, 3):
            t = make_classical(nn)
            assert is_self_dual(t, InnerProduct.euclidean(t.dim, t.ctx))


class TestXiCanonicalize:
    def test_identity_on_self_dual(self):
        t = make_polygon(5)
        out = xi_canonicalize(t, ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
        for v, w in zip(t.vertices, out.vertices):
            assert v == pytest.approx(w, abs=1e-12)

    def test_classical_identity_j(self):
        t = make_classical(2)
        d = t.dim
        j = tuple(tuple(Fr(1) if i == k else Fr(0) for k in range(d)) for i in range(d))
        out = xi_canonicalize(t, j)
        assert out.vertices == t.vertices

    def test_stretched_pentagon_recovered(self):
        j = ((0.25, 0.0, 0.0), (0.0, 0.25, 0.0), (0.0, 0.0, 1.0))
        out = xi_canonicalize(stretched_pentagon(), j)
        assert is_self_dual(out)
        for v, w in zip(out.vertices, make_polygon(5).vertices):
            assert v == pytest.approx(w, abs=1e-9)

    def test_invalid_j_rejected(self):
        t = make_polygon(5)
        with pytest.raises(ValueError):
            xi_canonicalize(t, ((1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 1.0)))
        with pytest.raises(ValueError):
            # positive but does not map the cone onto its dual
            xi_canonicalize(t, ((5.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))

    def test_float_j_on_exact_theory(self):
        t = make_classical(2)
        out = xi_canonicalize(t, ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
        assert out.vertices == t.vertices
        assert all(isinstance(a, Fr) for v in out.vertices for a in v)

    @pytest.mark.parametrize("exact", [True, False])
    def test_two_block_fit_compares_exactly_in_exact_mode(self, monkeypatch, exact):
        # an averaged J off the two-block form by 1e-12: inside the float
        # residual check of 100 tol, a failure in exact mode
        average = gptlab.symmetry._average_conjugates

        def nudged(g, j_map, ctx):
            (a, *row), *rows = average(g, j_map, ctx)
            return ((a + ctx.convert(Fr(1, 10**12)), *row), *rows)

        monkeypatch.setattr(gptlab.symmetry, "_average_conjugates", nudged)
        t = make_classical(2) if exact else theory_to_float(make_classical(2))
        ident = identity(t.dim, t.ctx)
        if exact:
            with pytest.raises(ValueError, match="not of the form"):
                xi_canonicalize(t, ident)
        else:
            assert np.allclose(xi_canonicalize(t, ident).vertices, t.vertices)

    def test_group_stacked_once(self, monkeypatch, tmp_path):
        # every group average in one call reads the group's one stack; a searched
        # group gets the search's numerators, in lowest terms, and builds none
        sizes = []

        def counting(xs, ctx):
            sizes.append(len(xs))
            return stacked(xs, ctx)

        monkeypatch.setattr(gptlab.symmetry, "stacked", counting)
        t = make_classical(5)
        g = automorphism_group(t)
        out = xi_canonicalize(t, identity(t.dim, EXACT), g)
        assert g.order == 720 and sizes.count(720) == 0
        assert out.vertices == t.vertices and out.group_cache is g
        tesseract = load_theory(structure_theory_files(tmp_path, seed=5)["tesseract"])
        sizes.clear()
        g = automorphism_group(tesseract)
        canonicalize(tesseract.with_group(g))
        assert is_self_dual(tesseract, averaged_inner_product(g, EXACT)) is False
        assert g.order == 384 and 384 not in sizes
        arr, den = g.stack(EXACT)
        want, want_den = stacked(g.elements, EXACT)
        assert den == want_den and arr.tolist() == want.tolist()
        assert not arr.flags.writeable

    def test_conjugate_average_matches_per_element(self):
        # any J averages, so a random rational one: exact results are equal,
        # float ones agree to 1e-12 (inverses come from the group, not Gauss-Jordan)
        rng = np.random.default_rng(3)
        theories = ([make_classical(n) for n in range(1, 5)]
                    + [sheared_polygon(name, pts) for name, pts in RATIONAL_SHAPES.items()]
                    + [make_polygon(n) for n in range(3, 13)]
                    + [psi_transform(make_polygon(n)) for n in range(4, 17, 2)]
                    + [stretched_pentagon()])
        for t in theories:
            g = automorphism_group(t)
            j = t.ctx.mat([[Fr(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
                            for _ in range(t.dim)] for _ in range(t.dim)])
            got = gptlab.symmetry._average_conjugates(g, j, t.ctx)
            want = conjugate_average_per_element(g, j, t.ctx)
            if t.ctx.exact:
                assert got == want
            else:
                assert np.max(np.abs(np.subtract(got, want))) <= 1e-12


# ---------------------------------------------------------------------------
# the integer-numerator search against the plain Fraction search


@functools.cache
def perfbench_workloads():
    """The benchmark's ``workloads`` module, loaded once."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up there
    spec.loader.exec_module(workloads)
    return workloads


def structure_theory_files(workdir, seed):
    """{name: JSON path} of the benchmark's seven structure polytopes.

    Built by the benchmark's own set-up: a seeded vertex relabelling and a
    seeded signed permutation of the in-plane axes of each polytope.
    """
    st_ = perfbench_workloads().setup_structure(None, seed, False, str(workdir))
    return {name: path for name, path, _dim in st_["files"]}


RATIONAL_SHAPES = {
    "triangle": [(1, 0), (0, 1), (-1, -1)],
    "square": [(1, 1), (-1, 1), (-1, -1), (1, -1)],
    "hexagon": [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
    "parallelogram": [(2, 0), (1, 1), (-2, 0), (-1, -1)],
    "kite": [(0, 2), (1, 0), (0, -1), (-1, 0)],
    "pentagon": [(3, 0), (1, 2), (-2, 1), (-2, -1), (1, -2)],
}


def sheared_polygon(name, pts):
    """A polygon under a rational scaling, shear and shift: denominators 2..315."""
    vs = tuple((Fr(3, 2) * x + Fr(1, 3) * y + Fr(1, 5), Fr(5, 7) * y - Fr(2, 9), Fr(1))
               for x, y in pts)
    return Theory(f"sheared-{name}", vs, (Fr(0), Fr(0), Fr(1)), EXACT)


def naive_average(g, ctx):
    total = None
    for mat in g.elements:
        term = mat_mul(transpose(mat), mat)
        total = term if total is None else mat_add(total, term)
    return mat_scale(1 / ctx.convert(g.order), total)


def conjugate_average_per_element(g, j, ctx):
    """avg M^-1 J M, one element at a time, each inverted by Gauss-Jordan."""
    total = None
    for mat in g.elements:
        term = mat_mul(inverse(mat, ctx), mat_mul(j, mat))
        total = term if total is None else mat_add(total, term)
    return mat_scale(1 / ctx.convert(g.order), total)


def assert_same_as_reference(t):
    got = automorphism_group(t)
    ref = search_group_reference(t)
    assert got.elements == ref.elements
    assert got.perms == ref.perms
    assert repr((got.elements, got.perms)) == repr((ref.elements, ref.perms))  # floats bit for bit
    return got


class TestIntegerNumeratorSearch:
    def test_structure_polytopes(self, tmp_path):
        for name, path in structure_theory_files(tmp_path, seed=5).items():
            t = load_theory(path)
            g = assert_same_as_reference(t)
            assert averaged_inner_product(g, t.ctx).gram == naive_average(g, t.ctx)

    def test_rational_sheared_polygons(self):
        for name, pts in RATIONAL_SHAPES.items():
            t = sheared_polygon(name, pts)
            assert max(a.denominator for v in t.vertices for a in v) > 1
            g = assert_same_as_reference(t)
            assert g.order == automorphism_orders_bruteforce(t.vertices, t.ctx)
            gram = averaged_inner_product(g, t.ctx).gram
            assert gram == naive_average(g, t.ctx)
            assert all(isinstance(a, Fr) for row in gram for a in row)
            if is_transitive(g, t):
                assert maximally_mixed(t, g) == tuple(
                    sum(v[i] for v in t.vertices) / t.n_vertices for i in range(3))

    def test_mixed_state_check_rejects_non_fixing_element(self):
        t = sheared_polygon("square", RATIONAL_SHAPES["square"])
        g = automorphism_group(t)
        half = tuple(tuple(Fr(1, 2) if i == j else Fr(0) for j in range(3)) for i in range(3))
        bad = SymmetryGroup.from_elements(g.elements + (half,), g.perms + (g.perms[0],), t.ctx)
        with pytest.raises(RuntimeError, match="does not fix"):
            maximally_mixed(t, bad)

    def test_vertex_check_rejects_what_pruning_admits(self):
        # the pruning form is scale-free while the float tolerance is absolute:
        # at coordinates of 1e6 a shift of 1e-4 passes the pruning, and only
        # the per-vertex check rejects the six maps of the square it breaks
        vs = ((1e6 + 1e-4, 1e6, 1.0), (-1e6, 1e6, 1.0), (-1e6, -1e6, 1.0), (1e6, -1e6, 1.0))
        t = Theory("big-square", vs, (0.0, 0.0, 1.0), FLOAT)
        assert assert_same_as_reference(t).order == 2

    def test_float_polygons_bit_identical(self):
        for n in range(3, 13):
            t = make_polygon(n)
            g = assert_same_as_reference(t)
            assert repr(averaged_inner_product(g, t.ctx)) == repr(
                InnerProduct(naive_average(g, t.ctx)))

    def test_small_orders_match_bruteforce(self, tmp_path):
        for name, path in structure_theory_files(tmp_path, seed=5).items():
            t = load_theory(path)
            if t.n_vertices <= 6:
                assert automorphism_group(t).order == automorphism_orders_bruteforce(
                    t.vertices, t.ctx)

    def test_node_budget(self, tmp_path, monkeypatch):
        cross4 = load_theory(structure_theory_files(tmp_path, seed=5)["cross4"])
        monkeypatch.setattr(gptlab.symmetry, "_MAX_SEARCH_NODES", 100)
        with pytest.raises(ValueError, match=r"'cross4' \(8 vertices\) visited 100 nodes"):
            automorphism_group(cross4)

    def test_node_budget_leaves_room(self, tmp_path, monkeypatch):
        # the largest in-repo search fits a hundred times over
        tesseract = load_theory(structure_theory_files(tmp_path, seed=5)["tesseract"])
        budget = gptlab.symmetry._MAX_SEARCH_NODES
        monkeypatch.setattr(gptlab.symmetry, "_MAX_SEARCH_NODES", budget // 100)
        assert automorphism_group(tesseract).order == 384


def assert_identical(got, want):
    assert got == want
    assert repr(got) == repr(want)  # same scalar types; floats bit for bit


ORACLE_FAMILIES = {
    "structure": lambda tmp: [load_theory(path) for seed in (5, 11) for path in
                              structure_theory_files(tmp / str(seed), seed).values()],
    "sheared": lambda tmp: [sheared_polygon(name, pts) for name, pts in RATIONAL_SHAPES.items()],
    "polygon": lambda tmp: [make_polygon(n) for n in range(3, 13)],
    "psi": lambda tmp: [psi_transform(make_polygon(n)) for n in range(4, 17, 2)],
    "classical": lambda tmp: [make_classical(n) for n in range(1, 6)],
}


class TestAgainstPerElementOracles:
    """The spanning-basis search and the stacked group averages, against the
    full-depth search and averages taken one element at a time."""

    @pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES))
    def test_group_and_averages(self, family, tmp_path):
        for t in ORACLE_FAMILIES[family](tmp_path):
            g = automorphism_group(t)
            want = search_group_full_depth(t)
            assert_identical((g.elements, g.perms), (want.elements, want.perms))
            assert_identical(averaged_inner_product(g, t.ctx), averaged_gram_per_element(g, t.ctx))
            assert_identical(projector_pm(g, t.ctx), projector_per_element(g, t.ctx))
            if is_transitive(g, t):
                assert_identical(maximally_mixed(t, g), maximally_mixed_per_element(t, g))
                form = canonicalize(t)
                assert_identical(form.group.elements,
                                 canonical_group_per_element(automorphism_group(t), form.transform))

    def test_search_builds_no_element_tuples(self, tmp_path, monkeypatch):
        # the search stores its numerators; element tuples are built only on
        # first read, and the other mode's stack is the stacked elements
        tesseract = load_theory(structure_theory_files(tmp_path, seed=5)["tesseract"])
        for t in (make_classical(5), tesseract, make_polygon(7)):
            with monkeypatch.context() as m:
                def refuse(*args):
                    raise AssertionError("scalars built from numerators")
                m.setattr(gptlab.symmetry, "unstacked", refuse)
                g = automorphism_group(t)
            assert "elements" not in vars(g)
            want = search_group_reference(t)
            assert repr((g.elements, g.perms)) == repr((want.elements, want.perms))
            assert g.elements is g.elements
            assert not g.nums.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                g.nums[0, 0, 0] = g.nums[0, 0, 0]
            other = FLOAT if t.ctx.exact else EXACT
            arr, den = g.stack(other)
            want_arr, want_den = stacked(g.elements, other)
            assert den == want_den and repr(arr.tolist()) == repr(want_arr.tolist())

    def test_batches_keep_the_group(self, tmp_path, monkeypatch):
        files = structure_theory_files(tmp_path, seed=5)
        want = {name: automorphism_group(load_theory(files[name])) for name in ("prism", "cube")}
        monkeypatch.setattr(gptlab.symmetry, "_BATCH_CELLS", 1)  # one candidate map per batch
        for name, g in want.items():
            got = automorphism_group(load_theory(files[name]))
            assert_identical((got.elements, got.perms), (g.elements, g.perms))

    def test_vertex_perms_keeps_permutations_in_order(self):
        # numerators over 2 of maps on the square (+-1, +-1, 1): a quarter turn,
        # a map folding two vertices onto the others (every image a vertex, but
        # not a bijection), a squeeze (images off the vertices), the identity
        vs = ((1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1))
        w = np.array(vs, dtype=object)
        turn = ((0, -2, 0), (2, 0, 0), (0, 0, 2))
        fold = ((2, 0, 0), (2, 0, 0), (0, 0, 2))
        squeeze = ((2, 0, 0), (0, 1, 0), (0, 0, 2))
        ident = ((2, 0, 0), (0, 2, 0), (0, 0, 2))
        maps = np.array([turn, fold, squeeze, ident], dtype=object)
        perms, kept = gptlab.symmetry._vertex_perms(maps, w, 2 * w, EXACT)
        assert perms == [(0, 1, 2, 3), (1, 2, 3, 0)]
        assert kept.tolist() == [[list(r) for r in ident], [list(r) for r in turn]]


class TestAnalyzeCli:
    @pytest.mark.parametrize(
        "name", ["square", "hexagon", "prism", "octahedron", "cube", "cross4", "tesseract"])
    def test_relabelled_polytope(self, name, tmp_path, capsys):
        recorded = json.loads((PERFBENCH / "reference.json").read_text())
        path = structure_theory_files(tmp_path, seed=13)[name]
        assert cli_main(["theory", "analyze", "--theory", path]) == 0
        out = json.loads(capsys.readouterr().out)
        expected = recorded["structure"]["polytopes"][name]
        assert {k: out[k] for k in ("group_order", "transitive", "self_dual")} == {
            k: expected[k] for k in ("group_order", "transitive", "self_dual")}

    def test_mismatched_builtin_kind_rejected(self, tmp_path):
        # an exact square declared as the float 4-gon is rejected at load,
        # naming the file and the declared kind
        path = tmp_path / "sq.json"
        path.write_text(json.dumps({
            "name": "sq", "dim": 3, "kind": "polygon", "n": 4,
            "vertices": [[1, 1, 1], [-1, 1, 1], [-1, -1, 1], [1, -1, 1]],
            "unit_effect": [0, 0, 1]}))
        with pytest.raises(ValueError, match="'sq' declares kind 'polygon' with n=4"):
            load_theory(path)
        message = f"invalid theory file {str(path)!r}: theory 'sq' declares kind 'polygon' with n=4"
        with pytest.raises(SystemExit, match=re.escape(message)):
            cli_main(["theory", "analyze", "--theory", str(path)])


# ---------------------------------------------------------------------------
# metamorphic properties on random rational polytopes

fracs = st.fractions(min_value=-3, max_value=3, max_denominator=5)


def _circle_point(s):
    # rational point of the unit circle; distinct parameters give distinct points
    return ((1 - s * s) / (1 + s * s), 2 * s / (1 + s * s))


def _theory(name, pts):
    d = len(pts[0]) + 1
    return Theory(name, tuple(tuple(Fr(a) for a in p) + (Fr(1),) for p in pts),
                  (Fr(0),) * (d - 1) + (Fr(1),), EXACT)


@st.composite
def rational_polygons(draw, max_size=5):
    """Points on the unit circle, so always in convex position.

    Mirrored polygons take two of the points with their reflections in
    both axes, so their group holds at least the Klein four-group.
    """
    pts = {_circle_point(s) for s in draw(st.lists(fracs, min_size=2, max_size=max_size))}
    if draw(st.booleans()):
        pts = {(sx * x, sy * y) for x, y in sorted(pts)[:2] for sx in (1, -1) for sy in (1, -1)}
    if len(pts) < 3:
        pts |= {(Fr(-1), Fr(0)), (Fr(0), Fr(1)), (Fr(0), Fr(-1))}
    return sorted(pts)


@st.composite
def rational_polytopes(draw):
    kind = draw(st.sampled_from(["polygon", "simplex", "prism"]))
    if kind == "polygon":
        return _theory("rational-polygon", draw(rational_polygons()))
    if kind == "prism":
        h = draw(st.fractions(min_value=Fr(1, 3), max_value=3, max_denominator=4))
        base = draw(rational_polygons(max_size=3))
        return _theory("rational-prism", [p + (z,) for p in base for z in (Fr(0), h)])
    k = draw(st.integers(1, 3))
    pts = [tuple(draw(fracs) for _ in range(k)) for _ in range(k + 1)]
    assume(_det([tuple(a - b for a, b in zip(p, pts[0])) for p in pts[1:]]) != 0)
    return _theory(f"rational-simplex-{k}", pts)


def _det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** c * rows[0][c] * _det([r[:c] + r[c + 1:] for r in rows[1:]])
               for c in range(len(rows)))


def _invertible(draw, d):
    """A random invertible rational matrix: unit lower times upper triangular."""
    lower = [[Fr(1) if i == j else (draw(fracs) if j < i else Fr(0)) for j in range(d)]
             for i in range(d)]
    upper = [[draw(fracs.filter(bool)) if i == j else (draw(fracs) if j > i else Fr(0))
              for j in range(d)] for i in range(d)]
    return mat_mul(lower, upper)


def _affine_map(draw, k):
    """A random invertible rational affine map of R^k."""
    m = _invertible(draw, k)
    shift = [draw(fracs) for _ in range(k)]
    return lambda p: tuple(sum(m[i][j] * p[j] for j in range(k)) + shift[i] for i in range(k))


def _in_plane(t):
    return [v[:-1] for v in t.vertices]


class TestMetamorphic:
    @settings(max_examples=30, deadline=None)
    @given(rational_polytopes(), st.data())
    def test_relabelling_and_affine_maps_keep_group(self, t, data):
        g = automorphism_group(t)
        pts = _in_plane(t)
        relabelled = data.draw(st.permutations(pts))
        f = _affine_map(data.draw, len(pts[0]))
        for other in (_theory("relabelled", relabelled), _theory("mapped", [f(p) for p in pts])):
            h = automorphism_group(other)
            assert h.order == g.order
            assert is_transitive(h, other) == is_transitive(g, t)

    @settings(max_examples=20, deadline=None)
    @given(rational_polytopes(), st.data())
    def test_signed_axis_permutation_keeps_duality(self, t, data):
        pts = _in_plane(t)
        k = len(pts[0])
        axes = data.draw(st.permutations(range(k)))
        signs = [data.draw(st.sampled_from((-1, 1))) for _ in range(k)]
        other = _theory("signed", [tuple(signs[a] * p[axes[a]] for a in range(k)) for p in pts])
        assert is_self_dual(other) == is_self_dual(t)
        rays = [len(dual_cone(s.cone, s.inner, s.ctx).generators) for s in (t, other)]
        assert rays[0] == rays[1]


class TestVertexExtremality:
    @settings(max_examples=40, deadline=None)
    @given(rational_polytopes(), st.data())
    def test_facet_signs_match_lp(self, t, data):
        # extremality from the facet normals against the LP path: vertex i is
        # extreme exactly when no conic combination of the others reaches it
        pts = _in_plane(t)
        extra = []
        for _ in range(data.draw(st.integers(0, 2))):
            if data.draw(st.booleans()):
                extra.append(data.draw(st.sampled_from(pts)))  # a duplicated vertex
            else:  # a convex combination: an interior or a boundary point
                chosen = data.draw(st.lists(st.sampled_from(pts), min_size=2, max_size=4))
                weights = [data.draw(st.integers(1, 4)) for _ in chosen]
                extra.append(tuple(sum(w * p[c] for w, p in zip(weights, chosen)) / sum(weights)
                                   for c in range(len(pts[0]))))
        other = _theory("with-extra", data.draw(st.permutations(pts + extra)))
        for i, v in enumerate(other.vertices):
            others = other.vertices[:i] + other.vertices[i + 1:]
            assert vertex_extreme(other, i) == (not cone_member(Cone(others), v, EXACT))
        # validate_theory's one incidence product reports the oracle's first
        # failing vertex, in both modes
        for t in (other, theory_to_float(other)):
            assert_validation_matches_oracle(t)


# ---------------------------------------------------------------------------
# self-duality and J-positivity: facet-sign checks against the LP route


class TestSignChecks:
    @settings(max_examples=20, deadline=None)
    @given(rational_polytopes(), st.data())
    def test_self_duality_matches_lp(self, t, data):
        spd = _invertible(data.draw, t.dim)
        grams = (InnerProduct.euclidean(t.dim, EXACT), InnerProduct(mat_mul(spd, transpose(spd))),
                 averaged_inner_product(automorphism_group(t), EXACT))
        for gram in grams:
            assert is_self_dual(t, gram) == self_dual_lp(t, gram)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_pushed_simplices_are_self_dual(self, data):
        # the cone over the columns of M is self-dual under G = M^-T M^-1;
        # M is a random invertible map, times a rational triangle's vertex
        # matrix for triangles
        if data.draw(st.booleans()):
            d = data.draw(st.integers(2, 5))  # classical N = 1..4
            base = identity(d, EXACT)
        else:
            d = 3
            pts = [tuple(data.draw(fracs) for _ in range(2)) + (Fr(1),) for _ in range(3)]
            assume(_det(pts) != 0)
            base = transpose(pts)
        m = mat_mul(_invertible(data.draw, d), base)
        minv = inverse(m, EXACT)
        t = Theory("pushed-simplex", transpose(m), mat_vec(transpose(minv), (Fr(1),) * d), EXACT)
        gram = InnerProduct(mat_mul(transpose(minv), minv))
        assert is_self_dual(t, gram)
        assert self_dual_lp(t, gram)

    @pytest.mark.parametrize("t", [make_polygon(n) for n in range(3, 21)]
                             + [make_classical(n) for n in range(1, 6)], ids=lambda t: t.name)
    def test_builtin_self_duality_matches_lp(self, t):
        for gram in (InnerProduct.euclidean(t.dim, t.ctx),
                     averaged_inner_product(automorphism_group(t), t.ctx)):
            assert is_self_dual(t, gram) == self_dual_lp(t, gram)

    def test_singular_pairing_rejected(self):
        t = make_classical(2)
        gram = InnerProduct(((Fr(1), Fr(0), Fr(0)), (Fr(0), Fr(1), Fr(0)), (Fr(0),) * 3))
        with pytest.raises(ValueError, match="Gram matrix is singular"):
            is_self_dual(t, gram)

    def test_pairing_given_in_the_other_mode(self):
        # InnerProduct.euclidean defaults to float entries
        assert is_self_dual(make_classical(2), InnerProduct.euclidean(3))
        assert is_self_dual(make_polygon(5), InnerProduct.euclidean(3, EXACT))
        assert not is_self_dual(make_polygon(4), InnerProduct.euclidean(3, EXACT))

    @pytest.mark.parametrize("make", [lambda: make_polygon(3), lambda: make_polygon(5),
                                      lambda: make_polygon(7), lambda: make_polygon(9),
                                      stretched_pentagon, lambda: make_classical(2)],
                             ids=["polygon-3", "polygon-5", "polygon-7", "polygon-9",
                                  "stretched-pentagon", "classical-2"])
    def test_xi_checks_match_lp(self, make):
        # J = P_M + s P_perp: s < 1 shrinks the cone, s > 1 widens it; the
        # stretched pentagon needs s = 1/4
        t = make()
        g = automorphism_group(t)
        ctx, gram, pm = t.ctx, averaged_inner_product(g, t.ctx), projector_pm(g, t.ctx)
        for s in (Fr(1, 4), Fr(1, 2), Fr(1), Fr(3, 2)):
            j = mat_add(pm, mat_scale(ctx.convert(s), mat_sub(identity(t.dim, ctx), pm)))
            into, onto = j_positive_lp(t, j, gram)
            if into and onto:
                xi_canonicalize(t, j, g)
            else:
                with pytest.raises(ValueError, match="into" if not into else "onto"):
                    xi_canonicalize(t, j, g)


BUILTIN_CONES = ([make_polygon(n) for n in range(3, 65)]
                 + [psi_transform(make_polygon(n)) for n in range(4, 65, 2)]
                 + [make_classical(n) for n in range(1, 6)])


class TestDualConeOracle:
    """``dual_cone`` on int numerators against the double description on the
    cone's own scalars, under the Euclidean and the group-averaged product."""

    @staticmethod
    def assert_matches_reference(t, gram):
        got = dual_cone(t.cone, gram, t.ctx)
        assert repr(got) == repr(dual_cone_reference(t.cone, gram, t.ctx))

    @pytest.mark.parametrize("t", BUILTIN_CONES, ids=lambda t: t.name)
    def test_builtins(self, t):
        for gram in (t.inner, averaged_inner_product(automorphism_group(t), t.ctx)):
            self.assert_matches_reference(t, gram)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_relabelled_structure_polytopes(self, tmp_path, seed):
        for path in structure_theory_files(tmp_path, seed).values():
            t = load_theory(path)
            for gram in (t.inner, averaged_inner_product(automorphism_group(t), t.ctx)):
                self.assert_matches_reference(t, gram)

    @settings(max_examples=30, deadline=None)
    @given(rational_polytopes(), st.data())
    def test_rational_polytopes(self, t, data):
        spd = _invertible(data.draw, t.dim)
        for gram in (t.inner, averaged_inner_product(automorphism_group(t), EXACT),
                     InnerProduct(mat_mul(spd, transpose(spd)))):
            self.assert_matches_reference(t, gram)

    def test_exact_runs_on_ints_after_the_basis_inverse(self, monkeypatch, tmp_path):
        # once the d x d basis inverse is taken, no Fraction is added,
        # multiplied or compared: Fractions are only built for the output rays
        t = load_theory(structure_theory_files(tmp_path, seed=5)["cube"])
        gram = InnerProduct(((Fr(2), Fr(1, 3), Fr(0), Fr(0)), (Fr(1, 3), Fr(1), Fr(0), Fr(0)),
                             (Fr(0), Fr(0), Fr(3, 2), Fr(0)), (Fr(0), Fr(0), Fr(0), Fr(5, 7))))
        calls, recording = [], []

        def inverse_then_record(a, ctx):
            out = stacked_inverse(a, ctx)
            recording.append(True)
            return out

        monkeypatch.setattr(gptlab.cones, "stacked_inverse", inverse_then_record)
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__lt__",
                     "__le__", "__gt__", "__ge__", "__eq__"):
            op = getattr(Fr, name)
            monkeypatch.setattr(Fr, name, lambda a, b, op=op, name=name:
                                (recording and calls.append(name)) or op(a, b))
        got = dual_cone(t.cone, gram, EXACT)
        monkeypatch.undo()
        assert recording and calls == []
        assert repr(got) == repr(dual_cone_reference(t.cone, gram, EXACT))
        assert len(got.generators) == 6

    def test_exact_normalization_returns_ints(self):
        ray = normalize_ray((Fr(-4, 6), Fr(2, 9), Fr(0)), EXACT)
        assert ray == (-3, 1, 0) and all(type(a) is int for a in ray)


# ---------------------------------------------------------------------------
# the exact search on int64 numerators, its Python-int fallback, and float codes


def search_with_narrowing(t, force_object=False):
    """``(group, dtypes)``: a fresh search on ``t`` and the dtypes of every array
    that ``scalars.narrowed`` handed it.  ``force_object`` multiplies each term
    count by 2^63, which fails the int64 bound whenever both operands are nonzero,
    so the search runs on Python ints."""
    dtypes = set()

    def spy(a, b, k, *more):
        out = narrowed(a, b, k << 63 if force_object else k, *more)
        dtypes.update(x.dtype for x in out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gptlab.symmetry, "narrowed", spy)
        return gptlab.symmetry._search_group(t), dtypes  # automorphism_group keeps the first


@st.composite
def int64_search_inputs(draw):
    """A structure polytope relabelled, with its axes sign-permuted and scaled by a
    rational factor, or a rational polygon under a random affine map."""
    if draw(st.booleans()):
        name, pts = draw(st.sampled_from(sorted(perfbench_workloads().polytopes(False).items())))
        k = len(pts[0])
        axes = draw(st.permutations(range(k)))
        signs = [draw(st.sampled_from((-1, 1))) for _ in range(k)]
        scale = draw(st.fractions(min_value=Fr(1, 7), max_value=7, max_denominator=9))
        pts = [tuple(scale * signs[a] * p[axes[a]] for a in range(k)) for p in pts]
    else:
        name, pts = draw(st.sampled_from(sorted(RATIONAL_SHAPES.items())))
        pts = list(map(_affine_map(draw, 2), pts))
    return _theory(name, draw(st.permutations(pts)))


class TestInt64Search:
    @settings(max_examples=25, deadline=None)
    @given(int64_search_inputs())
    def test_int64_and_python_ints_match_reference(self, t):
        got, dtypes = search_with_narrowing(t)
        assert dtypes == {np.dtype(np.int64)}
        forced, dtypes = search_with_narrowing(t, force_object=True)
        assert dtypes == {np.dtype(object)}
        want = search_group_reference(t)
        for g in (got, forced):
            assert repr((g.elements, g.perms, g.den)) == repr((want.elements, want.perms, want.den))
            assert {type(x) for x in g.nums.ravel().tolist()} == {int}

    def test_large_coordinates_fall_back_to_python_ints(self):
        # the rational hexagon scaled by 2^40 + 1: vertex numerators near 2^40 and
        # spanning-basis inverse numerators as large, so no product fits int64
        scale = 2**40 + 1
        t = _theory("big-hexagon", [(scale * x, scale * y) for x, y in RATIONAL_SHAPES["hexagon"]])
        g, dtypes = search_with_narrowing(t)
        assert dtypes == {np.dtype(object)}
        want = search_group_reference(t)
        assert repr((g.elements, g.perms)) == repr((want.elements, want.perms))
        assert g.order == 12

    def test_exact_search_does_no_fraction_arithmetic(self, monkeypatch, tmp_path):
        # the search runs on int numerators from the vertices' Fractions on: no
        # Fraction is built, added, multiplied or compared
        tesseract = load_theory(structure_theory_files(tmp_path, seed=5)["tesseract"])
        theories = (tesseract, make_classical(5))
        calls = []
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__lt__",
                     "__le__", "__gt__", "__ge__", "__eq__"):
            op = getattr(Fr, name)
            monkeypatch.setattr(Fr, name, lambda a, b, op=op, name=name:
                                calls.append(name) or op(a, b))
        new = Fr.__new__
        monkeypatch.setattr(Fr, "__new__", lambda cls, *args, **kwargs:
                            calls.append("__new__") or new(cls, *args, **kwargs))
        groups = [automorphism_group(t) for t in theories]
        monkeypatch.undo()
        assert calls == []
        for t, g in zip(theories, groups):
            want = search_group_reference(t)
            assert repr((g.elements, g.perms)) == repr((want.elements, want.perms))

    def test_float_codes_keep_pairs_within_tol(self):
        # a hexagon with the mirror group of order 4, tuned so that four pruning
        # entries the mirrors exchange lie within 1e-12 of the 9-digit rounding
        # boundary 0.2937853105, on both sides of it: a code rounded to the digits
        # of tol would split them and lose group elements
        a = 0.29999999920374
        vs = ((1.0, 0.0), (a + 1e-12, 1.0), (-a, 1.0), (-1.0, 0.0), (-a, -1.0), (a, -1.0))
        t = Theory("nudged-hexagon", tuple(v + (1.0,) for v in vs), (0.0, 0.0, 1.0), FLOAT)
        w = np.array(t.vertices)
        m = ordered_matmul(w, ordered_matmul(np.array(inverse((w.T @ w).tolist(), FLOAT)), w.T))
        mirrored = m[[0, 0, 3, 3], [1, 5, 2, 4]]
        assert np.ptp(mirrored) <= FLOAT.tol
        assert len(set(np.round(mirrored, 9).tolist())) == 2
        assert assert_same_as_reference(t).order == 4


def test_theory_layer_solves_no_lp(monkeypatch, tmp_path, capsys):
    def no_lp(*args, **kwargs):
        raise AssertionError("the theory layer solved an LP")

    for module, name in ((gptlab.cones, "lp_feasible"), (gptlab.compat, "lp_feasible"),
                         (gptlab.compat, "lp_solve")):
        monkeypatch.setattr(module, name, no_lp)
    with pytest.raises(AssertionError, match="solved an LP"):
        cone_member(make_polygon(5).cone, (0.0, 0.0, 1.0))

    for n in (4, 5):
        assert is_self_dual(make_polygon(n)) == (n == 5)
    j = ((0.25, 0.0, 0.0), (0.0, 0.25, 0.0), (0.0, 0.0, 1.0))
    recovered = xi_canonicalize(stretched_pentagon(), j)
    assert is_self_dual(recovered)
    with pytest.raises(ValueError, match="onto"):
        xi_canonicalize(make_polygon(5), ((0.5, 0.0, 0.0), (0.0, 0.5, 0.0), (0.0, 0.0, 1.0)))
    files = structure_theory_files(tmp_path, seed=13)
    cube = load_theory(files["cube"])
    with pytest.raises(ValueError, match="not self-dual"):
        prepare_conforming(cube)
    for t in (make_classical(3), make_polygon(7), recovered):
        assert len(indecomposable_pure_effects(prepare_conforming(t))) == t.n_vertices
    for path in files.values():
        assert cli_main(["theory", "analyze", "--theory", path]) == 0
    capsys.readouterr()


class TestEffectAction:
    """``Theory.effect_action``: the group's action on effects, against each
    element applied to each ray, and the group kept on the theory instance."""

    def assert_permutes_scaled_normals(self, t):
        ctx = t.ctx
        facet_perms, g = t.effect_action, automorphism_group(t)
        rays = unstacked(*t.facet_table[:2], ctx).tolist()
        k = ctx.convert(t.n_vertices)
        omega_m = tuple(sum(v[c] for v in t.vertices) / k for c in range(t.dim))
        assert all(ctx.eq(sum(a * b for a, b in zip(r, omega_m)), 1) for r in rays)
        assert facet_perms.shape == (g.order, len(rays))
        for element, perm in zip(g.elements, facet_perms.tolist()):
            act = transpose(element)  # the row r goes to r T, the column to T^T r
            assert sorted(perm) == list(range(len(rays)))
            for r, image in zip(rays, perm):
                assert ctx.vec_eq(mat_vec(act, r), rays[image])

    @pytest.mark.parametrize("make", [
        *[pytest.param(lambda n=n: make_polygon(n), id=f"polygon-{n}") for n in range(3, 13)],
        *[pytest.param(lambda n=n: psi_transform(make_polygon(n)), id=f"psi-{n}")
          for n in range(4, 65, 4)],
        *[pytest.param(lambda n=n: make_classical(n), id=f"classical-{n}") for n in range(1, 6)],
    ])
    def test_elements_permute_scaled_normals(self, make):
        self.assert_permutes_scaled_normals(make())

    def test_memory_follows_the_group(self):
        # the action is found from the facets' vertex index lists, a batch of
        # elements at a time, not a facets-by-elements-by-vertices incidence (16 MB
        # of bools here)
        t = make_polygon(200)
        automorphism_group(t)
        tracemalloc.start()
        try:
            facet_perms = t.effect_action
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert facet_perms.shape == (400, 200) and peak < 4 << 20

    def test_structure_polytopes(self, tmp_path):
        for path in structure_theory_files(tmp_path, seed=5).values():
            self.assert_permutes_scaled_normals(load_theory(path))

    def test_group_found_once_per_instance(self, monkeypatch):
        calls = []
        search = gptlab.symmetry._search_group
        monkeypatch.setattr(gptlab.symmetry, "_search_group",
                            lambda t, max_nodes: calls.append(t.name) or search(t, max_nodes))
        t = psi_transform(make_polygon(12))
        g = automorphism_group(t)
        assert automorphism_group(t) is g and t.effect_action is t.effect_action
        assert calls == ["polygon-12-psi"]
        # a copy, even an equal one, searches again: its vertices may have moved
        copy = replace(t, name="copy")
        assert copy.group_cache is None and automorphism_group(copy) is not g
        assert calls == ["polygon-12-psi", "copy"]
        assert automorphism_group(t.with_group(g)) is g and len(calls) == 2


def scaled_classical_2(scale):
    """classical-2 with its vertices times ``scale`` and its unit effect over it."""
    t = make_classical(2)
    return Theory("classical-2-scaled", tuple(vscale(scale, v) for v in t.vertices),
                  vscale(1 / scale, t.unit_effect), EXACT)


def theory_repr(t) -> str:
    """Every value field of ``t`` and its kept group, floats bit for bit."""
    g = t.group_cache
    return repr((t.name, t.ctx, t.kind, t.n, t.canonicalized, t.vertices, t.unit_effect,
                 None if g is None else (g.nums.tolist(), g.den, g.perms)))


class TestCoordinates:
    """``model.Coordinates``, the one record of every coordinate change: the four
    re-expressions against the arithmetic they had before it (``helpers``), and the
    record itself keeping every probability and undoing itself."""

    @staticmethod
    def canonical_inputs(tmp_path) -> list:
        theories = [make_classical(n) for n in range(1, 6)]
        theories += [load_theory(p) for p in structure_theory_files(tmp_path, seed=5).values()]
        return theories + [scaled_classical_2(Fr(3)), scaled_classical_2(Fr(7, 5))]

    @pytest.mark.parametrize("n", range(4, 65, 2))
    def test_psi_matches_the_reference(self, n):
        raw = make_polygon(n)
        hat = psi_transform(raw)
        assert theory_repr(hat) == theory_repr(psi_theory_reference(raw))
        assert hat.coordinates is psi_coordinates(n)
        for e in (*indecomposable_pure_effects(raw), *indecomposable_pure_effects(hat),
                  (0.3, -0.2, 0.7)):
            for back in (False, True):
                assert repr(psi_map_effect(e, n, back)) == repr(psi_effect_reference(e, n, back))
        f = binary_ideal_measurement(raw, 1)
        ref = replace(f, effects=tuple(psi_effect_reference(e, n) for e in f.effects))
        assert repr(psi_map_measurement(f, n)) == repr(ref)

    def test_rescale_and_canonicalize_match_the_reference(self, tmp_path):
        for t in self.canonical_inputs(tmp_path):
            assert theory_repr(rescale_unit_norm(t)) == theory_repr(rescale_unit_norm_reference(t))
            form = canonicalize(t)
            ref = canonical_theory_reference(t, form.transform)
            assert theory_repr(form.theory) == theory_repr(ref)
            assert form.group is form.theory.group_cache

    def reexpressed(self, tmp_path):
        """``(t, re-expressed t)`` for all four re-expressions and ``prepare_conforming``."""
        for n in (4, 8, 12):
            yield make_polygon(n), psi_transform(make_polygon(n))
        for t in self.canonical_inputs(tmp_path):
            yield t, rescale_unit_norm(t)
            yield t, canonicalize(t).theory
        ident = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        yield make_classical(2), xi_canonicalize(make_classical(2), identity(3, EXACT))
        yield make_polygon(5), xi_canonicalize(make_polygon(5), ident)
        shrink = ((0.25, 0.0, 0.0), (0.0, 0.25, 0.0), (0.0, 0.0, 1.0))
        yield stretched_pentagon(), xi_canonicalize(stretched_pentagon(), shrink)
        for t in (make_polygon(5), make_polygon(8), psi_transform(make_polygon(8)),
                  make_classical(3)):
            yield t, prepare_conforming(t)

    def test_probabilities_kept(self, tmp_path):
        # every effect on every vertex, mapped against unmapped: within tol, and
        # exactly when the record keeps the theory exact
        exact = 0
        for t, out in self.reexpressed(tmp_path):
            c = out.coordinates
            effects = [t.unit_effect, *unstacked(*t.facet_table[:2], t.ctx).tolist()]
            mapped = prob_table(out, [c.effect(e) for e in effects])
            assert repr(out.vertices) == repr(tuple(map(c.state, t.vertices)))
            assert repr(out.unit_effect) == repr(c.effect(t.unit_effect))
            if out.ctx.exact:
                exact += 1
                assert mapped == prob_table(t, effects)
            else:
                assert np.allclose(mapped, np.array(prob_table(t, effects), dtype=float),
                                   rtol=0, atol=out.ctx.tol)
        assert exact >= 3  # classical-3 and classical-3 x 7/5 rescale exactly, and the exact xi

    def test_round_trip_through_inverse(self, tmp_path):
        for t, out in self.reexpressed(tmp_path):
            c, ctx = out.coordinates, out.ctx
            assert c.inverse.inverse == c and c.then(c.inverse).steps == c.steps + c.inverse.steps
            back = c.inverse.theory(out, None)
            assert back.coordinates is c.inverse
            for v, w in zip(t.vertices, back.vertices):
                assert ctx.vec_eq(v, w)
            for e in t.facet_table[0].tolist():
                assert ctx.vec_eq(c.inverse.effect(c.effect(e)), e)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(st.fractions(max_denominator=10**6), st.integers(-2**70, 2**70)),
                    min_size=3, max_size=3),
           st.lists(st.floats(-1e6, 1e6), min_size=9, max_size=9))
    def test_exact_entries_meet_a_float_step_as_mat_vec_has_them(self, v, entries):
        # the record rounds exact entries once before a float step; the products of
        # mat_vec round them one at a time, to the same floats
        m = (tuple(entries[:3]), tuple(entries[3:6]), tuple(entries[6:]))
        c = Coordinates(((m, m),))
        assert repr(c.state(tuple(v))) == repr(mat_vec(m, v))
        assert repr(c.effect(tuple(v))) == repr(mat_vec(transpose(m), v))

    def test_record_kept_per_instance(self):
        # like group_cache: not compared, not shown, not copied by replace
        hat = psi_transform(make_polygon(8))
        copy = replace(hat)
        assert copy == hat and repr(copy) == repr(hat) and "coordinates" not in repr(hat)
        assert copy.coordinates == Coordinates() and hat.coordinates.steps
        assert prepare_conforming(hat).coordinates == Coordinates()
        assert make_polygon(8).coordinates.state((1, 2, 3)) == (1, 2, 3)
