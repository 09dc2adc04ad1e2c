"""Cones and Gram pairings: examples and oracle comparisons."""

import math
import random
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gptlab.cones import (
    Cone,
    LinealityError,
    cone_member,
    cones_equal,
    dual_cone,
    normalize_ray,
)
from gptlab.ideal import psi_transform
from gptlab.model import load_theory, make_classical, make_polygon
from gptlab.scalars import (EXACT, FLOAT, InnerProduct, identity, inverse, mat_mul, narrowed,
                            ordered_matmul, rank, solve, spanning_rows, stacked, stacked_inverse,
                            unstacked)

from helpers import (gauss_jordan_reference, member_bruteforce, rank_float_loop, rank_fraction,
                     spanning_rows_greedy)
from test_symmetry import structure_theory_files

SQ2 = math.sqrt(2)

small = st.fractions(min_value=-3, max_value=3, max_denominator=5)
huge = st.builds(Fr, st.integers(-10**400, 10**400), st.integers(1, 10**400))
rationals = st.one_of(small, huge)


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


class TestSolve:
    @pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
    def test_solves_and_inverts(self, ctx):
        a = ctx.mat(((2, 1), (1, 1)))
        assert solve(a, ctx.vec((3, 2)), ctx) == ctx.vec((1, 1))
        assert inverse(a, ctx) == ctx.mat(((1, -1), (-1, 2)))
        assert solve(ctx.mat(((1, 2), (2, 4))), ctx.vec((1, 2)), ctx) is None

    @pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
    @pytest.mark.parametrize("a, b, shapes", [
        (((1, 0), (0, 1)), (1,), "2x2 matrix and a right-hand side of length 1"),
        (((1, 0), (0, 1)), (1, 2, 3), "2x2 matrix and a right-hand side of length 3"),
        (((1, 0, 5), (0, 1, 7)), (1, 2), "2x3 matrix and a right-hand side of length 2"),
        (((1, 0), (0, 1, 7)), (1, 2), "2-row ragged matrix"),
    ], ids=["short-rhs", "long-rhs", "non-square", "ragged"])
    def test_shape_mismatch_raises(self, ctx, a, b, shapes):
        with pytest.raises(ValueError, match=shapes):
            solve(ctx.mat(a), ctx.vec(b), ctx)

    def test_non_square_inverse_raises(self):
        with pytest.raises(ValueError, match="2x3 matrix"):
            inverse(((1.0, 0.0, 5.0), (0.0, 1.0, 7.0)), FLOAT)

    @pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
    def test_rows_without_multiplier_still_rescale(self, ctx):
        # the middle row has a zero below the first pivot; exact elimination
        # must still scale it by that pivot over the previous one
        a = ctx.mat(((Fr(7, 6), Fr(-22, 3), Fr(14, 3)), (0, 7, 8), (Fr(4, 5), 0, Fr(5, 2))))
        got = inverse(a, ctx)
        assert repr(got) == repr(tuple(map(tuple, gauss_jordan_reference(a, identity(3, ctx), ctx))))
        assert ctx.mat_eq(mat_mul(a, got), identity(3, ctx))

    @pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_gauss_jordan_reference(self, ctx, data):
        a, b = data.draw(square_systems(ctx))
        ref = gauss_jordan_reference(a, [(x,) for x in b], ctx)
        assert _typed(solve(a, b, ctx)) == _typed(ref and tuple(row[0] for row in ref))
        ref = gauss_jordan_reference(a, identity(len(a), ctx), ctx)
        assert _typed(inverse(a, ctx)) == _typed(ref and tuple(map(tuple, ref)))
        got, want = stacked_inverse(a, ctx), ref and stacked(ref, ctx)
        assert _typed(got and (tuple(got[0].ravel().tolist()), got[1])) == _typed(
            want and (tuple(want[0].ravel().tolist()), want[1]))

    def test_exact_elimination_does_no_fraction_arithmetic(self, monkeypatch):
        # rank, solve and inverse run on int numerators: a Fraction is only
        # built for each entry of the answer
        a = ((Fr(7, 6), Fr(-22, 3), Fr(14, 3)), (Fr(0), Fr(7), Fr(8)), (Fr(4, 5), Fr(0), Fr(5, 2)))
        b = (Fr(1, 10**400), Fr(-3), Fr(2, 7))
        want = (rank(a, EXACT), solve(a, b, EXACT), inverse(a, EXACT))
        calls = []
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__lt__",
                     "__le__", "__gt__", "__ge__", "__eq__"):
            op = getattr(Fr, name)
            monkeypatch.setattr(Fr, name,
                                lambda x, y, op=op, name=name: calls.append(name) or op(x, y))
        got = (rank(a, EXACT), solve(a, b, EXACT), inverse(a, EXACT),
               rank(a[:2] + (a[0],), EXACT), solve(a[:2] + (a[0],), b, EXACT))
        monkeypatch.undo()
        assert calls == []
        assert repr(got) == repr(want + (2, None))


def _typed(m):
    # repr equality entry by entry, except that a Fraction, always in lowest
    # terms, compares by value: its repr can pass Python's digit limit
    if isinstance(m, tuple):
        return tuple(map(_typed, m))
    return type(m), repr(m) if isinstance(m, float) else m


@st.composite
def square_systems(draw, ctx):
    """``(a, b)``: a square matrix, free, singular, nearly singular or with
    zeros in a column, and a right-hand side."""
    entries = rationals if ctx.exact else st.one_of(small.map(float), st.floats(-1e300, 1e300))
    d = draw(st.integers(1, 5))
    a = [[draw(entries) for _ in range(d)] for _ in range(d)]
    kind = draw(st.sampled_from(["free", "singular", "ill-conditioned", "zero-column"]))
    if kind == "singular" and d > 1:  # the last row a combination of the others
        coeffs = [draw(st.integers(-3, 3)) for _ in range(d - 1)]
        a[-1] = [sum((c * row[j] for c, row in zip(coeffs, a)), ctx.zero()) for j in range(d)]
    elif kind == "ill-conditioned" and d > 1:  # the last row the first, nudged
        a[-1] = a[0][:-1] + [a[0][-1] + ctx.convert(Fr(1, 10**12))]
    elif kind == "zero-column":  # zeros in a pivot column, the top one included
        c = draw(st.integers(0, d - 1))
        for i in draw(st.sets(st.integers(0, d - 1), min_size=1)):
            a[i][c] = ctx.zero()
    return tuple(map(tuple, draw(st.permutations(a)))), tuple(draw(entries) for _ in range(d))


def orthant(d=3):
    return Cone(tuple(tuple(Fr(1) if j == i else Fr(0) for j in range(d)) for i in range(d)))


class TestOrderedMatmul:
    # a few output entries take the one-accumulate path, many the per-index loop
    @pytest.mark.parametrize("a_shape, b_shape", [((4, 48), (48, 3)), ((2, 5), (5, 3)),
                                                  ((5, 4, 6), (6, 3)), ((64, 3), (3, 64)),
                                                  ((3, 2), (2, 200)), ((20, 4, 3), (3, 50)),
                                                  ((3, 3), (40, 3, 3)), ((2, 3), (3, 3, 2))])
    @pytest.mark.parametrize("kind", ["float", "int", "fraction"])
    def test_bits_of_mat_mul(self, a_shape, b_shape, kind):
        rng = random.Random(str((a_shape, b_shape, kind)))
        pick = {"float": lambda: rng.choice([0.0, -0.0, 1.0, -1.0, 0.1, -0.7, 1e-17, 3.5]),
                "int": lambda: rng.randint(-9, 9),
                "fraction": lambda: Fr(rng.randint(-9, 9), rng.randint(1, 5))}[kind]
        a, b = (np.array([pick() for _ in range(math.prod(s))], dtype=float if kind == "float"
                         else object).reshape(s) for s in (a_shape, b_shape))
        got = ordered_matmul(a, b).tolist()
        want = ([mat_mul(m, b.tolist()) for m in a.tolist()] if a.ndim == 3 else
                [mat_mul(a.tolist(), m) for m in b.tolist()] if b.ndim == 3 else
                mat_mul(a.tolist(), b.tolist()))
        assert repr(got) == repr([[list(row) for row in m] for m in want] if a.ndim + b.ndim == 5
                                 else [list(row) for row in want])

    @pytest.mark.parametrize("dtype", [float, object])
    def test_empty_inner_dimension(self, dtype):
        a, b = np.zeros((2, 0), dtype=dtype), np.zeros((0, 3), dtype=dtype)
        got, want = ordered_matmul(a, b), a @ b
        assert (got.shape, got.dtype, repr(got.tolist())) == (want.shape, want.dtype,
                                                              repr(want.tolist()))


def test_stacked_reads_strings_and_keeps_ints():
    arr, den = stacked([["1/2", 3], [0.25, Fr(1, 4)]], FLOAT)
    assert (arr.tolist(), den) == ([[0.5, 3.0], [0.25, 0.25]], 1)
    nums, den = stacked([["1/2", Fr(1, 3)], [2, "-1/6"]], EXACT)
    assert (nums.tolist(), den) == ([[3, 2], [12, -1]], 6)
    ints = np.array([[2, -4], [10**30, 0]], dtype=object)
    nums, den = stacked(ints, EXACT)
    assert (nums.tolist(), den) == (ints.tolist(), 1) and nums is not ints


def test_unstacked_inverts_stacked():
    xs = [[Fr(1, 3), Fr(-5, 6)], [Fr(10**30, 7), 0]]
    nums, den = stacked(xs, EXACT)
    assert repr(unstacked(nums, den, EXACT).tolist()) == repr([[Fr(1, 3), Fr(-5, 6)],
                                                               [Fr(10**30, 7), Fr(0)]])
    # an int over an int rounds once, as float(Fraction) does
    assert unstacked(nums, den, FLOAT).tolist() == [[float(Fr(x)) for x in row] for row in xs]
    floats = np.array([[0.1, -0.0], [1e-300, 3.5]])
    assert repr(unstacked(floats, 1, FLOAT).tolist()) == repr(floats.tolist())


@pytest.mark.parametrize("n", [2**31 - 1, 2**31])
def test_narrowed_takes_int64_only_below_the_bound(n):
    # a product over 2 terms of entries 2^31 and n: 2 * 2^31 * n < 2^63 for the first n only
    a, b = np.array([[2**31, -2**31]], dtype=object), np.array([[n], [-n]], dtype=object)
    fits = n < 2**31
    got = narrowed(a, b, 2, np.array([2**63 - 1], dtype=object))
    assert [x.dtype for x in got] == [np.dtype(np.int64 if fits else object)] * 3
    assert ordered_matmul(*got[:2]).tolist() == [[2**32 * n]]
    assert all(type(x) is int for x in got[1].ravel().tolist())
    # an extra array at 2^63 alone is too large, and so is a factor whose product
    # with a zero one is 0; float arrays stay as they are
    assert narrowed(a, b, 1, np.array([2**63], dtype=object))[2].dtype == object
    zero, big = np.zeros((1, 1), dtype=object), np.array([[2**63]], dtype=object)
    assert [x.dtype for x in narrowed(zero, big, 1) + narrowed(big, zero, 1)] == [object] * 4
    floats = np.array([[0.5, -0.0]])
    assert all(x is floats for x in narrowed(floats, floats, 2))


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

    def test_pairing_converted_to_the_cone_mode(self):
        # a float Euclidean pairing on an exact cone pairs as the exact one
        cone = make_classical(2).cone
        got = dual_cone(cone, InnerProduct.euclidean(3), EXACT)
        assert repr(got) == repr(dual_cone(cone, InnerProduct.euclidean(3, EXACT), EXACT))

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
        with pytest.raises(ValueError, match=r"^dimension mismatch: cone in R\^3, vector in R\^2$"):
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


# ---------------------------------------------------------------------------
# rank and spanning rows against the loops that the shared elimination replaced

@st.composite
def planted_rank_matrices(draw, rationals=rationals):
    """``(rows, r)``: r independent echelon rows, then zero rows, duplicates and
    rational combinations, every row rescaled and the rows shuffled."""
    ncols = draw(st.integers(1, 7))
    r = draw(st.integers(0, ncols))
    pivots = sorted(draw(st.permutations(range(ncols)))[:r])
    basis = [[Fr(0)] * c + [draw(rationals.filter(bool))]
             + [draw(rationals) for _ in range(ncols - c - 1)] for c in pivots]
    rows = list(basis)
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["zero", "duplicate", "combination"]))
        if kind == "duplicate" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combination" and basis:
            coeffs = [draw(rationals) for _ in basis]
            rows.append([sum((c * b[j] for c, b in zip(coeffs, basis)), Fr(0))
                         for j in range(ncols)])
        else:
            rows.append([Fr(0)] * ncols)
    rows = [[s * a for a in row] for row, s in zip(rows, [draw(rationals.filter(bool))
                                                         for _ in rows])]
    return draw(st.permutations(rows)), r


class TestIntegerRank:
    @settings(max_examples=150, deadline=None)
    @given(planted_rank_matrices())
    def test_matches_fraction_elimination(self, rows_r):
        rows, r = rows_r
        assert rank(rows, EXACT) == rank_fraction(rows) == r

    def test_shapes_and_mixed_scalars(self):
        assert rank([], EXACT) == 0
        assert rank([[0, 0, 0]], EXACT) == 0
        assert rank([[1, Fr(1, 3)], [3, 1], [Fr(2, 10**400), Fr(2, 3 * 10**400)]], EXACT) == 1
        assert rank([[1, 0, 0, 1], [0, 1, 1, 0], [1, 1, 1, 1]], EXACT) == 2
        assert rank([[0, 2], [0, 1], [1, 0]], EXACT) == 2

    @settings(max_examples=150, deadline=None)
    @given(planted_rank_matrices(small))
    def test_float_matches_float_loop(self, rows_r):
        rows = [[float(a) for a in row] for row in rows_r[0]]
        assert rank(rows, FLOAT) == rank_float_loop(rows, FLOAT)

    @pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_spanning_rows_match_greedy(self, ctx, data):
        rows, _ = data.draw(planted_rank_matrices(rationals if ctx.exact else small))
        rows = [ctx.vec(row) for row in rows]
        d = data.draw(st.integers(1, len(rows[0]) if rows else 1))
        assert spanning_rows(rows, d, ctx) == spanning_rows_greedy(rows, d, ctx)

    def test_spanning_rows_match_greedy_on_theories(self, tmp_path):
        theories = ([make_polygon(n) for n in range(3, 65)]
                    + [psi_transform(make_polygon(n)) for n in range(4, 65, 2)]
                    + [make_classical(n) for n in range(1, 6)])
        for seed in (1, 2, 3):
            (tmp_path / str(seed)).mkdir()
            theories += map(load_theory, structure_theory_files(tmp_path / str(seed), seed).values())
        for t in theories:
            for rows in (t.vertices, t.facet_table[0].tolist()):
                assert spanning_rows(rows, t.dim, t.ctx) == spanning_rows_greedy(rows, t.dim, t.ctx)
