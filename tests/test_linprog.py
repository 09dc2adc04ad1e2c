"""Simplex solver: worked examples, duality, exact arithmetic, and three oracles:
the list tableau and the per-kind standard form, bit for bit in float and
exact mode, and scipy's HiGHS."""

import random
from fractions import Fraction as Fr
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gptlab import compat, linprog, measures, scalars
from gptlab.cones import Cone, cone_lp, cone_member
from gptlab.ideal import (binary_ideal_measurement, enumerate_ideal_measurements,
                          perpendicular_ideal_pair, psi_transform)
from gptlab.linprog import EQ, GE, LE, LinearProgram, LpResult, lp_feasible, lp_solve
from gptlab.measures import FiniteMetricSpace
from gptlab.model import make_classical, make_polygon
from gptlab.scalars import EXACT, FLOAT, dot, stacked
import helpers
from helpers import ListTableau, highs, standardize_reference


def max_bounded_segment():
    return LinearProgram(n_vars=1, objective=[1.0], sense="max").add([1.0], LE, 1.0).add(
        [1.0], GE, 0.0)


def contradictory_equalities():
    return LinearProgram(n_vars=1, objective=[0.0]).add([1.0], EQ, 1.0).add([1.0], EQ, 2.0)


def simplex_face():
    return LinearProgram(n_vars=2, objective=[1.0, 1.0], sense="max", lower=0.0).add(
        [1.0, 1.0], LE, 1.0)


def unbounded_ray():
    return LinearProgram(n_vars=1, objective=[1.0], sense="max").add([1.0], GE, 0.0)


def free_and_bounded_variables():
    # min x + y with x free, y in [-2, 5], x + y >= 1
    return LinearProgram(n_vars=2, objective=[0.0, 1.0], lower=[None, -2.0],
                         upper=[None, 5.0]).add([1.0, 1.0], GE, 1.0)


def pinned_in_box():
    return LinearProgram(n_vars=1, objective=[0.0], lower=0.0, upper=1.0).add([1.0], EQ, 0.5)


def infeasible_box():
    return LinearProgram(n_vars=1, objective=[0.0]).add([1.0], GE, 0.0).add([1.0], LE, -1.0)


def simplex_with_cut():
    return LinearProgram(n_vars=3, objective=[1.0, -2.0, 0.5], lower=0.0).add(
        [1.0, 1.0, 1.0], EQ, 1.0).add([1.0, -1.0, 0.0], LE, 0.25)


def redundant_rows():
    # x + y = 1 three times over: phase 1 drops the two redundant rows
    p = LinearProgram(n_vars=2, objective=[1.0, 2.0], lower=0.0)
    return p.add([1.0, 1.0], EQ, 1.0).add([1.0, 1.0], EQ, 1.0).add([2.0, 2.0], EQ, 2.0)


def degenerate_vertex(ctx=FLOAT):
    # classic degenerate vertex (Beale): the most negative reduced cost alone
    # cycles here, so the Bland fallback must terminate
    c = ctx.convert
    p = LinearProgram(n_vars=4, objective=[c("-3/4"), c(150), c("-1/50"), c(6)], lower=c(0))
    p.add([c("1/4"), c(-60), c("-1/25"), c(9)], LE, c(0))
    p.add([c("1/2"), c(-90), c("-1/50"), c(3)], LE, c(0))
    return p.add([c(0), c(0), c(1), c(0)], LE, c(1))


def bounds_only():
    return [LinearProgram(n_vars=1, objective=[-1.0], upper=[5.0]),
            LinearProgram(n_vars=1, objective=[1.0], sense="max", upper=[5.0]),
            LinearProgram(n_vars=1, objective=[1.0], upper=[5.0]),
            LinearProgram(n_vars=1, objective=[1.0], lower=[2.0])]


def test_max_bounded_segment():
    res = lp_solve(max_bounded_segment())
    assert res.optimal and res.value == pytest.approx(1.0)
    assert res.point[0] == pytest.approx(1.0)


def test_contradictory_equalities_infeasible():
    assert lp_solve(contradictory_equalities()).status == "infeasible"


def test_simplex_face_optimum():
    res = lp_solve(simplex_face())
    assert res.value == pytest.approx(1.0)


def test_unbounded_detected():
    assert lp_solve(unbounded_ray()).status == "unbounded"


def test_free_variables_and_bounds():
    res = lp_solve(free_and_bounded_variables())
    assert res.optimal and res.value == pytest.approx(-2.0)


def test_feasibility_witness():
    res = lp_feasible(pinned_in_box())
    assert res.feasible and res.witness[0] == pytest.approx(0.5)


def test_infeasible_box():
    assert not lp_feasible(infeasible_box()).feasible


def test_redundant_rows_dropped():
    res = lp_solve(redundant_rows())
    assert res.optimal and res.value == 1.0 and res.point == (1.0, 0.0)
    res = lp_solve(redundant_rows(), EXACT)
    assert res.value == 1 and res.point == (1, 0)


def test_exact_rational_optimum():
    p = LinearProgram(n_vars=2, objective=[Fr(1), Fr(1)], sense="max", lower=Fr(0))
    p.add([Fr(1), Fr(3)], LE, Fr(2))
    p.add([Fr(2), Fr(1)], LE, Fr(2))
    res = lp_solve(p, EXACT)
    assert res.value == Fr(6, 5)
    assert res.point == (Fr(4, 5), Fr(2, 5))


def test_objective_recomputes_at_point():
    p = simplex_with_cut()
    res = lp_solve(p)
    assert res.optimal
    assert dot(p.objective, res.point) == pytest.approx(res.value, abs=1e-9)


def test_degenerate_does_not_cycle():
    res = lp_solve(degenerate_vertex(EXACT), EXACT)
    assert res.optimal and res.value == Fr(-1, 20)


@pytest.mark.parametrize("tableau", [linprog._Tableau, ListTableau], ids=["numpy", "list"])
@pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
def test_degenerate_run_falls_back_to_bland(ctx, tableau):
    # with the fallback the degenerate vertex solves within a small pivot
    # budget; with pricing alone it cycles until the budget runs out
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linprog, "_Tableau", tableau)
        for module in (linprog, helpers):
            mp.setattr(module, "_MAX_PIVOTS", 2000)
        res = lp_solve(degenerate_vertex(ctx), ctx)
        assert res.optimal and ctx.eq(res.value, Fr(-1, 20) if ctx.exact else -0.05)
        for module in (linprog, helpers):
            mp.setattr(module, "_DEGENERATE_RUN", 10**9)
        with pytest.raises(RuntimeError, match="simplex exceeded pivot budget"):
            lp_solve(degenerate_vertex(ctx), ctx)


@st.composite
def primal_dual_pairs(draw):
    m = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=3))
    entry = st.integers(min_value=-3, max_value=3)
    a = [[Fr(draw(entry)) for _ in range(n)] for _ in range(m)]
    x0 = [Fr(draw(st.integers(min_value=0, max_value=3))) for _ in range(n)]
    y0 = [Fr(draw(st.integers(min_value=0, max_value=3))) for _ in range(m)]
    slack_b = [Fr(draw(st.integers(min_value=0, max_value=2))) for _ in range(m)]
    slack_c = [Fr(draw(st.integers(min_value=0, max_value=2))) for _ in range(n)]
    b = [sum(a[i][j] * x0[j] for j in range(n)) - slack_b[i] for i in range(m)]
    c = [sum(a[i][j] * y0[i] for i in range(m)) + slack_c[j] for j in range(n)]
    return a, b, c


class TestStrongDuality:
    @settings(max_examples=40, deadline=None)
    @given(primal_dual_pairs())
    def test_primal_equals_dual(self, abc):
        # primal: min c.x, A x >= b, x >= 0  (feasible: x0)
        # dual:   max b.y, A^T y <= c, y >= 0 (feasible: y0)
        a, b, c = abc
        m, n = len(a), len(a[0])
        primal = LinearProgram(n_vars=n, objective=c, lower=Fr(0))
        for i in range(m):
            primal.add(a[i], GE, b[i])
        dual = LinearProgram(n_vars=m, objective=b, sense="max", lower=Fr(0))
        for j in range(n):
            dual.add([a[i][j] for i in range(m)], LE, c[j])
        rp = lp_solve(primal, EXACT)
        rd = lp_solve(dual, EXACT)
        assert rp.optimal and rd.optimal
        assert rp.value == rd.value


@pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
def test_string_scalars_read_as_fractions(ctx):
    # 'p/q' strings in rows, objective and bounds give the answer of the same
    # Fractions, in a row list and in an array block
    def build(c):
        p = LinearProgram(n_vars=2, objective=[c("1/3"), 1], sense="max", lower=c("0"),
                          upper=[c("5/2"), None])
        p.add([c("1/3"), c(1)], LE, c("7/6"))
        return p.add_block(np.array([[c("2/3"), c(1), c(2)]], dtype=object), [LE])
    fractions = build(lambda x: ctx.convert(Fr(x)))
    assert repr(lp_solve(build(str), ctx)) == repr(lp_solve(fractions, ctx))


def test_malformed_constraint_dimension():
    p = LinearProgram(n_vars=2, objective=[1.0, 1.0])
    with pytest.raises(ValueError):
        p.add([1.0], LE, 1.0)


@pytest.mark.parametrize("add, message", [
    (lambda p: p.add([1.0, 1.0], "<", 1.0), "unknown relation '<'"),
    (lambda p: p.add_block(np.ones((2, 2)), [EQ, EQ]), "constraint has 1 coefficients, expected 2"),
    (lambda p: p.add_block(np.ones((1, 4)), [EQ]), "constraint has 3 coefficients, expected 2"),
    (lambda p: p.add_block([[1.0, 1.0, 1.0]], [EQ, LE]), "1 rows need as many relations"),
    (lambda p: p.add_block([[1, 1, 2]], [EQ], -3), "positive int den"),
    (lambda p: p.add_block(np.ones((2, 3)), [EQ, "=<"]), "unknown relation '=<'"),
    (lambda p: p.add_block(np.ones((1, 3), dtype=int), [EQ], 0), "positive int den"),
    (lambda p: p.add_block(np.ones((1, 3), dtype=int), [EQ], 2.0), "positive int den"),
    (lambda p: p.add_block(np.array([1.0, 1.0, 1.0]), [EQ, EQ, EQ]), "must form a 2-D array"),
])
def test_malformed_block_rejected(add, message):
    p = LinearProgram(n_vars=2, objective=[1.0, 1.0])
    with pytest.raises(ValueError, match=message):
        add(p)
    assert p.blocks == []


def test_added_rows_are_blocks_of_their_own():
    # each row added alone is a one-row array block, the caller's rows stay as
    # given, and rows added one at a time solve as the same rows in one block
    for ctx in (FLOAT, EXACT):
        c = ctx.convert
        rows = [[c(1), c(1), c(2)], [c(1), c(0), c(1)], [c(0), c(1), c(Fr(1, 3))],
                [c(1), c(-1), c(0)]]
        rels, given = [LE, LE, GE, GE], [list(row) for row in rows]
        one = LinearProgram(n_vars=2, objective=[c(1), c(2)], sense="max").add_block(given, rels)
        each = LinearProgram(n_vars=2, objective=[c(1), c(2)], sense="max")
        for row, rel in zip(rows, rels):
            each.add(row[:-1], rel, row[-1])
        assert given == rows
        assert [(ab.shape, ab.dtype, den) for ab, _, den in each.blocks] == \
            [((1, 3), object, 1)] * 4
        assert [np.asarray(ab).tolist() for ab, _, _ in one.blocks] == [rows]
        assert repr(lp_solve(each, ctx)) == repr(lp_solve(one, ctx))


@pytest.mark.parametrize("n_vars, kw, message", [
    (2, dict(objective=[1.0]), "objective has 1 coefficients, expected 2"),
    (1, dict(objective=[1.0, -5.0]), "objective has 2 coefficients, expected 1"),
    (2, dict(objective=[1.0, 1.0], lower=[0.0]), "lower has 1 bounds, expected 2"),
    (2, dict(objective=[1.0, 1.0], upper=(1.0, 2.0, 3.0)), "upper has 3 bounds, expected 2"),
])
def test_malformed_shape_rejected_when_built(n_vars, kw, message):
    with pytest.raises(ValueError, match=message):
        LinearProgram(n_vars=n_vars, **kw)


def test_bounds_only_no_rows():
    below, above, unbounded, shifted = bounds_only()
    res = lp_solve(below)
    assert res.optimal and res.value == pytest.approx(-5.0)
    res = lp_solve(above)
    assert res.optimal and res.value == pytest.approx(5.0)
    assert lp_solve(unbounded).status == "unbounded"
    res = lp_solve(shifted)
    assert res.optimal and res.value == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# the numpy tableau against the list tableau, bit for bit, in both modes

def _run_on(tableau, solver, p, ctx):
    """`solver` on `p` in `ctx`, with every tableau of class `tableau`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linprog, "_Tableau", tableau)
        try:
            return solver(p, ctx)
        except RuntimeError as exc:
            return f"RuntimeError: {exc}"


def assert_same_on_both_tableaux(solver, p, ctx=FLOAT):
    """`solver` returns the same record, to the last bit, on either tableau,
    with every scalar of the context's type."""
    fast, slow = (_run_on(tableau, solver, p, ctx) for tableau in (linprog._Tableau,
                                                                    ListTableau))
    assert fast == slow and repr(fast) == repr(slow)
    if isinstance(fast, LpResult):
        scalars = ([] if fast.value is None else [fast.value]) + list(fast.point or ())
    elif isinstance(fast, str):
        scalars = []
    else:
        scalars = list(fast.witness or ())
    assert all(type(x) is type(ctx.zero()) for x in scalars)


@pytest.mark.parametrize("bad", ["coefficient", "rhs", "bound", "objective", "block coefficient",
                                 "block rhs"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_float_data_rejected(bad, value):
    p = LinearProgram(n_vars=2, objective=[value if bad == "objective" else 1.0, 1.0],
                      lower=0.0, upper=[value if bad == "bound" else 2.0, None])
    p.add([value if bad == "coefficient" else 1.0, 1.0], GE, value if bad == "rhs" else 1.0)
    p.add_block(np.array([[1.0, value if bad == "block coefficient" else 2.0,
                           value if bad == "block rhs" else 3.0]]), [LE])
    for solver in (lp_solve, lp_feasible):
        with pytest.raises(ValueError, match="must be finite"):
            solver(p)


class Recording(linprog._Tableau):
    """A tableau that checks after every pivot that it holds the constraint rows
    and the objective row, each with one entry per standard-form column and the
    right-hand side: an artificial has no column."""

    def __init__(self, rows, rhs, ctx, den):
        super().__init__(rows, rhs, ctx, den)
        self.nstruct = np.shape(rows)[1]

    def pivot(self, r, c):
        super().pivot(r, c)
        assert self.t.shape == (len(self.basis) + 1, self.nstruct + 1)


def test_one_tableau_for_both_modes():
    assert [name for name in vars(linprog) if "Tableau" in name] == ["_Tableau"]
    states = []

    class Recorded(Recording):
        # the entry types and the denominator when a run starts and after every pivot
        def record(self):
            entries = frozenset(type(x) for row in self.t.tolist() for x in row)
            states.append((self.ctx.exact, self.t.dtype.kind, entries, type(self.den), self.den > 0))

        def run(self, cost, nenter):
            self.record()
            return super().run(cost, nenter)

        def pivot(self, r, c):
            super().pivot(r, c)
            self.record()

    # neither LP has a unit column, so phase 1 gives every row an artificial
    small = LinearProgram(n_vars=1, objective=[1.0], lower=0.0).add([2.0], GE, 1.0)
    large = LinearProgram(n_vars=50, objective=[1.0] * 50, lower=0.0)
    for i in range(10):
        large.add([float(j <= i) for j in range(50)], GE, 1.0)
    counts = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linprog, "_Tableau", Recorded)
        for ctx in (FLOAT, EXACT):
            for p in (small, large):
                assert lp_solve(p, ctx).optimal
            counts.append(len(states))
    # float entries over 1; exact ones int numerators (int64 or Python ints) over a
    # positive int
    assert set(states[:counts[0]]) == {(False, "f", frozenset({float}), int, True)}
    assert set(states[counts[0]:]) <= {(True, kind, frozenset({int}), int, True)
                                       for kind in "iO"}
    assert counts[1] == 2 * counts[0] > 8  # the same runs and pivots in either mode


def negative_drive_out():
    # the two equalities are one row twice, with no unit column: phase 1 ends with
    # both artificials basic at zero, and driving the first one out pivots on -2
    c = EXACT.convert
    p = LinearProgram(n_vars=3, objective=[c(1), c(-2), c(0)], lower=c(0))
    p.add([c(-2), c(-1), c(3)], EQ, c(0)).add([c(2), c(1), c(-3)], EQ, c(0))
    return p.add([c(0), c(0), c(1)], LE, c("1/3"))


def test_negative_drive_out_pivot():
    pivots = []

    class Recorded(Recording):
        def pivot(self, r, c):
            pivots.append(self.t[r, c] < 0)
            super().pivot(r, c)
            assert self.den > 0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linprog, "_Tableau", Recorded)
        assert lp_solve(negative_drive_out(), EXACT) == LpResult(
            "optimal", Fr(-2), (Fr(0), Fr(1), Fr(1, 3)))
        assert lp_solve(negative_drive_out(), FLOAT).optimal
    assert pivots[0] and len(pivots) == 6
    for solver in (lp_solve, lp_feasible):
        assert_same_on_both_tableaux(solver, negative_drive_out(), EXACT)


def test_exact_ratio_ties_are_exact():
    # the ratios 1/3 + 10**-30 and 1/3 round to one float, where the tie would
    # break toward the first row's slack; exactly, the second row is the minimum
    eps = Fr(1, 10**30)
    p = LinearProgram(n_vars=1, objective=[Fr(1)], sense="max", lower=Fr(0))
    p.add([Fr(3)], LE, Fr(1) + 3 * eps).add([Fr(3)], LE, Fr(1))
    assert lp_solve(p, EXACT) == LpResult("optimal", Fr(1, 3), (Fr(1, 3),))
    for solver in (lp_solve, lp_feasible):
        assert_same_on_both_tableaux(solver, p, EXACT)


def test_exact_mode_sees_values_below_float_range():
    # 10**-400 rounds to 0.0 as a float: a reduced cost that small must still
    # enter, and a pivot entry that small must still count as nonzero
    eps = Fr(1, 10**400)
    p = LinearProgram(n_vars=1, objective=[eps], sense="max", lower=Fr(0)).add([Fr(1)], LE, Fr(1))
    assert lp_solve(p, EXACT) == LpResult("optimal", eps, (Fr(1),))
    p = LinearProgram(n_vars=2, objective=[Fr(0), Fr(0)], lower=Fr(0)).add([eps, Fr(0)], EQ, eps)
    assert lp_feasible(p, EXACT).witness == (Fr(1), Fr(0))


@pytest.mark.parametrize("ctx, off", [(EXACT, Fr(1, 10**400)), (FLOAT, 1e-6)],
                         ids=["exact", "float"])
def test_certify_rejects_a_point_off_the_lp(ctx, off):
    # y + z <= 1, y - z >= 0, 2y == 1 and 0 <= x <= 1 are all tight at
    # (0, 1/2, 1/2) or (1, 1/2, 1/2); the float slack of 100 tol absorbs
    # 1e-8, and nothing absorbs `off`
    p = LinearProgram(n_vars=3, objective=[0, 0, 0], lower=[0, None, None], upper=[1, None, None])
    p.add([0, 1, 1], LE, 1).add([0, 1, -1], GE, 0).add([0, 2, 0], EQ, 1)
    data = linprog._standardize(p, ctx)[-1]
    half = Fr(1, 2)
    linprog._certify(p, data, ctx.vec((0, half, half)), ctx)
    if not ctx.exact:
        linprog._certify(p, data, (1 + 1e-8, 0.5 + 1e-8, 0.5 + 1e-8), ctx)
    for bad, message in [((0, half, half + off), r"certification failed: .* <= 1"),
                         ((0, half - off, half), r"certification failed: .* >= 0"),
                         ((0, half + off, half - off), r"certification failed: .* == 1"),
                         ((-off, half, half), r"certification failed: bound x\[0\] >= 0"),
                         ((1 + off, half, half), r"certification failed: bound x\[0\] <= 1")]:
        with pytest.raises(RuntimeError, match=message):
            linprog._certify(p, data, ctx.vec(bad), ctx)


def _fractions(tab, nums, den):
    """Entries of the numpy tableau as the list tableau holds them: Fractions
    ``x / den`` in exact mode, the floats themselves in float mode."""
    return [Fr(x, den) for x in nums] if tab.ctx.exact else list(nums)


def _tableau_state(tab):
    if isinstance(tab, linprog._Tableau):  # the constraint rows, not the objective row
        return repr(([_fractions(tab, row, tab.den) for row in tab.t[:-1].tolist()], tab.basis))
    return repr(([row + [b] for row, b in zip(tab.rows, tab.rhs)], tab.basis))


def tableaux(rows, rhs, ctx):
    """Both tableaux on the scalars `rows` and `rhs`, converted once to numerators."""
    nums, den = stacked(np.column_stack((rows, rhs)), ctx)
    return tuple(tableau(nums[:, :-1], nums[:, -1], ctx, den)
                 for tableau in (ListTableau, linprog._Tableau))


def check_tableau_steps(data, ctx):
    """Price-out and one pivot on a random tableau with signed zeros, then a
    full run from the slack basis of [rows | I], on both tableaux.  The pivot is
    one the solver could take: on an entry above ``ctx.tol`` in size, so nonzero
    in exact mode (a drawn entry near 1e-308 would overflow the pivot row)."""
    n = data.draw(st.integers(min_value=1, max_value=6))
    m = data.draw(st.integers(min_value=1, max_value=n))
    entry = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                      st.floats(min_value=-10, max_value=10, allow_subnormal=False)).map(ctx.convert)
    rows = [[data.draw(entry) for _ in range(n)] for _ in range(m)]
    rhs = [abs(data.draw(entry)) for _ in range(m)]
    cost = [data.draw(entry) for _ in range(n)]
    basis = data.draw(st.permutations(range(n)))[:m]
    pair = tableaux(rows, rhs, ctx)
    for tab in pair:
        tab.basis = list(basis)
    obj, zval = pair[0].price_out(cost)
    pair[1].price_out(cost)
    assert repr(obj + [zval]) == repr(_fractions(pair[1], pair[1].t[-1].tolist(), pair[1].den))
    r, c = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, n - 1))
    if abs(rows[r][c]) > ctx.tol:
        for tab in pair:
            tab.pivot(r, c)
        assert _tableau_state(pair[0]) == _tableau_state(pair[1])
    zero, one = ctx.zero(), ctx.one()
    slack_rows = [row + [one if i == k else zero for k in range(m)] for i, row in enumerate(rows)]
    pair = tableaux(slack_rows, rhs, ctx)
    for tab in pair:
        tab.basis = list(range(n, n + m))
    runs = [tab.run(cost + [zero] * m, n) for tab in pair]
    assert repr(runs[0]) == repr(runs[1])
    assert _tableau_state(pair[0]) == _tableau_state(pair[1])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_tableau_steps_bit_identical(data):
    check_tableau_steps(data, FLOAT)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exact_tableau_steps_bit_identical(data):
    check_tableau_steps(data, EXACT)


def exact_steps(p, solver, force_object: bool) -> list:
    """``(dtype kind, state)`` when the tableau is built, after every pivot and
    after every run of `solver` on `p` in exact mode, the state being the
    tableau, its denominator and basis, or the run's answer; with `force_object`, every int64 bound fails, so the tableau keeps
    Python ints throughout."""
    steps = []

    class Steps(linprog._Tableau):
        def __init__(self, *args):
            super().__init__(*args)
            steps.append((self.t.dtype.kind, repr((self.t.tolist(), self.den))))

        def pivot(self, r, c):
            super().pivot(r, c)
            steps.append((self.t.dtype.kind, repr((self.t.tolist(), self.den, self.basis))))

        def run(self, cost, nenter):
            out = super().run(cost, nenter)
            steps.append((self.t.dtype.kind, repr(out)))
            return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linprog, "_Tableau", Steps)
        if force_object:
            mp.setattr(scalars, "_INT64_LIMIT", 0)
        steps.append(("", repr(solver(p, EXACT))))
    return steps


def assert_int64_steps_match_object(p, solver) -> list:
    """Every step of `solver` on `p` is the same on int64 as on Python ints; the
    dtype kinds of the int64 run, which never returns to int64 once it left it."""
    fast, slow = exact_steps(p, solver, False), exact_steps(p, solver, True)
    assert [s for _, s in fast] == [s for _, s in slow]
    assert {kind for kind, _ in slow} <= {"O", ""}
    kinds = "".join(kind for kind, _ in fast)
    assert "Oi" not in kinds
    return kinds


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exact_int64_steps_match_python_ints(data):
    # small rationals stay on int64; a scale near 2^40 moves to Python ints
    # within a few pivots
    n = data.draw(st.integers(min_value=1, max_value=5))
    m = data.draw(st.integers(min_value=1, max_value=4))
    scale = data.draw(st.sampled_from([1, 1, 1 << 20, 1 << 40]))
    entry = st.fractions(min_value=-9, max_value=9, max_denominator=12).map(lambda x: x * scale)
    p = LinearProgram(n_vars=n, objective=[data.draw(entry) for _ in range(n)],
                      lower=data.draw(st.sampled_from([Fr(0), [Fr(0)] * (n - 1) + [None]])),
                      upper=data.draw(st.sampled_from([None, Fr(5)])))
    for _ in range(m):
        p.add([data.draw(entry) for _ in range(n)], data.draw(st.sampled_from([LE, EQ, GE])),
              data.draw(entry))
    for solver in (lp_solve, lp_feasible):
        assert_int64_steps_match_object(p, solver)


def test_large_coefficients_fall_back_to_python_ints():
    # entries near 2^40 fit int64, but the first pivot's products would not
    big = Fr((1 << 40) + 3)
    p = LinearProgram(n_vars=3, objective=[-big, Fr(-1), big - 1], lower=Fr(0))
    p.add([big, Fr(1), Fr(2)], GE, big + 7).add([Fr(5), big - 11, Fr(1)], EQ, big)
    p.add([Fr(1), Fr(1), big], LE, 2 * big)
    for solver in (lp_solve, lp_feasible):
        kinds = assert_int64_steps_match_object(p, solver)
        assert kinds.startswith("i") and "O" in kinds
        assert_same_on_both_tableaux(solver, p, EXACT)
    assert lp_solve(p, EXACT).optimal


def test_small_exact_lps_stay_on_int64():
    # the JM LP of two classical-3 measurements keeps int64 to the end
    t = make_classical(3)
    ms = enumerate_ideal_measurements(t, 3)
    lps = record_lps([("jm", compat.is_jointly_measurable, (t, ms[1], ms[-1]))])
    assert lps
    for _family, solver, p in lps:
        assert set(assert_int64_steps_match_object(p, solver)) == {"i"}


def test_exact_jm_answers_unchanged_by_int64():
    # verdicts and witnesses of classical 1-5 pairs, each on a new theory instance,
    # equal those of a tableau held to Python ints
    for n in range(1, 6):
        ms = enumerate_ideal_measurements(make_classical(n), 3)
        for i, j in [(0, -1), (len(ms) // 2, -1), (1, len(ms) // 3)]:
            f, g = ms[i % len(ms)], ms[j]
            fast = compat.is_jointly_measurable(make_classical(n), f, g)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(scalars, "_INT64_LIMIT", 0)
                slow = compat.is_jointly_measurable(make_classical(n), f, g)
            assert repr(fast) == repr(slow)


WORKED = [max_bounded_segment, contradictory_equalities, simplex_face, unbounded_ray,
          free_and_bounded_variables, pinned_in_box, infeasible_box, simplex_with_cut,
          redundant_rows, degenerate_vertex]


@pytest.mark.parametrize("build", WORKED, ids=lambda b: b.__name__)
def test_worked_examples_bit_identical(build):
    for ctx in (FLOAT, EXACT):
        for solver in (lp_solve, lp_feasible):
            assert_same_on_both_tableaux(solver, build(), ctx)


def test_bounds_only_bit_identical():
    for ctx in (FLOAT, EXACT):
        for p in bounds_only():
            assert_same_on_both_tableaux(lp_solve, p, ctx)


def record_lps(calls) -> tuple:
    """(family, solver, LP) for every LP that the compat calls
    `(family, function, args)` hand to `lp_solve` or `lp_feasible`."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        for solver in (lp_solve, lp_feasible):
            def record(p, ctx, solver=solver):
                seen.append((family, solver, p))  # the family of the call in progress
                return solver(p, ctx)
            mp.setattr(compat, solver.__name__, record)
        for family, call, args in calls:
            call(*args)
    return tuple(seen)


def compat_calls(n: int, skew: bool = False) -> list:
    """The compat calls `(family, function, args)` of `compat_lps`."""
    t = psi_transform(make_polygon(n))
    if skew:
        f, g = binary_ideal_measurement(t, 0), binary_ideal_measurement(t, 3)
    else:
        f, g = perpendicular_ideal_pair(t)
    return [("max_fuzz_lambda", compat.max_fuzz_lambda, (t, f, g)),
            ("min_mur_linf", compat.min_mur_linf, (t, f, g)),
            ("is_jointly_measurable", compat.is_jointly_measurable, (t, f, g)),
            ("is_jointly_measurable", compat.is_jointly_measurable, (t, f, f))]


@lru_cache(maxsize=None)
def compat_lps(n: int, skew: bool = False) -> tuple:
    """(family, solver, LP) for every LP the compat layer solves on one pair.

    The pair is the perpendicular ideal pair of the psi-re-expressed n-gon,
    or with `skew` two ideal measurements three pure effects apart.  The
    compatible self-pair (f, f) adds a feasible joint-measurability LP.
    """
    return record_lps(compat_calls(n, skew))


# list-tableau solves cost seconds from n = 12 on, so the bit-identity test takes
# one pair per polygon class (n = 4 mod 8, 0 mod 8) plus the largest, n = 16
COMPAT_CASES = [(4, False), (8, False), (16, False), (8, True)]


@pytest.mark.parametrize("n, skew", COMPAT_CASES)
def test_compat_lps_bit_identical(n, skew):
    lps = compat_lps(n, skew)
    assert [family for family, _, _ in lps] == ["max_fuzz_lambda", "min_mur_linf",
                                                "is_jointly_measurable", "is_jointly_measurable"]
    for _family, solver, p in lps:
        assert_same_on_both_tableaux(solver, p)


def curve_calls() -> list:
    """The compat calls `(family, function, args)` of `curve_lps`."""
    rng = np.random.default_rng(0)
    calls = []
    for n in range(4, 49, 4):
        t = psi_transform(make_polygon(n))
        f, g = perpendicular_ideal_pair(t)
        i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
        calls.append(("max_fuzz_lambda", compat.max_fuzz_lambda, (t, f, g)))
        calls.append(("max_fuzz_lambda", compat.max_fuzz_lambda,
                      (t, binary_ideal_measurement(t, i), binary_ideal_measurement(t, j))))
        if n <= 32:
            calls.append(("is_jointly_measurable", compat.is_jointly_measurable, (t, f, g)))
        if n <= 20:
            calls.append(("min_mur_linf", compat.min_mur_linf, (t, f, g)))
    return calls


def curve_lps() -> tuple:
    """(family, solver, LP) for every LP of one pass of the benchmark's curve
    ladder: on psi-polygons n = 4, 8, ..., 48, the fuzzing threshold of the
    perpendicular pair and of one pair drawn from `default_rng(0)`, joint
    measurability of the perpendicular pair up to n = 32 and its MUR up to 20."""
    return record_lps(curve_calls())


def test_curve_lps_bit_identical():
    lps = curve_lps()
    assert len(lps) == 12 * 2 + 8 + 5
    for _family, solver, p in lps:
        assert_same_on_both_tableaux(solver, p)


def classical_calls(n_levels: int) -> list:
    """The compat calls `(family, function, args)` of `classical_lps`."""
    t = make_classical(n_levels)
    ms = enumerate_ideal_measurements(t, 3)
    binary = [m for m in ms if m.n_outcomes == 2]
    f, g = binary[0], binary[-1]
    calls = [(family, getattr(compat, family), (t, f, g))
             for family in ("max_fuzz_lambda", "min_mur_linf", "is_jointly_measurable")]
    calls += [("is_jointly_measurable", compat.is_jointly_measurable, (t, f, m))
              for m in ms if m.n_outcomes == 3][:1]
    return calls


@lru_cache(maxsize=None)
def classical_lps(n_levels: int) -> tuple:
    """(family, solver, LP) for the exact compat LPs of the classical theory:
    every family on its first and last binary ideal measurement, and joint
    measurability of the first against a three-outcome one if there is one."""
    return record_lps(classical_calls(n_levels))


@pytest.mark.parametrize("n_levels", [1, 2, 3, 4, 5])
def test_exact_compat_lps_bit_identical(n_levels):
    lps = classical_lps(n_levels)
    assert {family for family, _, _ in lps} == {"max_fuzz_lambda", "min_mur_linf",
                                                "is_jointly_measurable"}
    for _family, solver, p in lps:
        assert_same_on_both_tableaux(solver, p, EXACT)


def lipschitz_ball_lps() -> list:
    """The LPs behind the Werner distance for three- and four-outcome metrics."""
    rng = np.random.default_rng(5)
    metrics = [FiniteMetricSpace.line((0, 1, 2)), FiniteMetricSpace.line((0, 1, 3, 7)),
               FiniteMetricSpace.discrete((0, 1, 2, 3), scale=2)]
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "lp_solve", lambda p, ctx: seen.append(p) or lp_solve(p, ctx))
        for metric in metrics:
            for _ in range(3):
                deltas = rng.normal(size=len(metric.points))
                measures._lipschitz_ball_lp(metric, [float(x) for x in deltas - deltas.mean()],
                                            FLOAT)
    return seen


def test_lipschitz_ball_lps_bit_identical():
    for p in lipschitz_ball_lps():
        assert_same_on_both_tableaux(lp_solve, p)


NUMBERS = [-3.0, -2.0, -1.0, -0.5, 0.0, 0.0, 0.25, 1.0, 1.0, 2.0, 3.0]


@st.composite
def small_lps(draw, numbers=NUMBERS):
    """Random small LPs: any relations, bounds and sense, with a repeated row at times."""
    n = draw(st.integers(min_value=1, max_value=4))
    num = st.sampled_from(numbers)
    bound = st.one_of(st.none(), st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0]))
    p = LinearProgram(n_vars=n, objective=[draw(num) for _ in range(n)],
                      sense=draw(st.sampled_from(["min", "max"])),
                      lower=[draw(bound) for _ in range(n)],
                      upper=[draw(bound) for _ in range(n)])
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        p.add([draw(num) for _ in range(n)], draw(st.sampled_from([LE, EQ, GE])), draw(num))
    if p.constraints and draw(st.booleans()):
        p.add(*p.constraints[0])
    return p


@settings(max_examples=200, deadline=None)
@given(small_lps(numbers=NUMBERS + [1 / 3, 0.1, -0.7]))
def test_random_lps_bit_identical(p):
    for solver in (lp_solve, lp_feasible):
        assert_same_on_both_tableaux(solver, p)


@settings(max_examples=200, deadline=None)
@given(small_lps(numbers=[Fr(x) for x in NUMBERS] + [Fr(1, 3), Fr(1, 10), Fr(-7, 10)]))
def test_random_exact_lps_bit_identical(p):
    for solver in (lp_solve, lp_feasible):
        assert_same_on_both_tableaux(solver, p, EXACT)


# ---------------------------------------------------------------------------
# the substitution x = x0 + S.y against the per-kind standard form, bit for bit

def assert_same_standard_form(p, ctx):
    """`_standardize` gives the reference's rows, rhs, cost, offset and column
    count, and its `recover` maps random nonnegative points to the same x."""
    rows, rhs, den, cost, recover, const, ncols, _data = linprog._standardize(p, ctx)
    if ctx.exact:  # numerators over den, as the Fractions of the reference
        rows, rhs = (np.frompyfunc(Fr, 2, 1)(a, den) for a in (rows, rhs))
    ref_rows, ref_rhs, ref_cost, ref_recover, ref_const, ref_ncols = standardize_reference(p, ctx)
    assert repr((rows.tolist(), rhs.tolist(), cost, const, ncols)) == repr(
        (ref_rows, ref_rhs, ref_cost, ref_const, ref_ncols))
    values = [ctx.convert(v) for v in (0, 1, 2, "1/3", "5/2", "1/10")]
    points = []
    if not ctx.exact:
        values.append(-0.0)  # signed zeros come out of float pivots
        points.append([-0.0] * ncols)
    rng = random.Random(ncols)
    points += [[rng.choice(values) for _ in range(ncols)] for _ in range(5)]
    for y in points:
        assert repr(recover(y)) == repr(ref_recover(y))


@settings(max_examples=200, deadline=None)
@given(small_lps(numbers=NUMBERS + [1 / 3, 0.1, -0.7, -0.0]))
def test_random_standard_form_matches_reference(p):
    assert_same_standard_form(p, FLOAT)


@settings(max_examples=200, deadline=None)
@given(small_lps(numbers=[Fr(x) for x in NUMBERS] + [Fr(1, 3), Fr(1, 10), Fr(-7, 10)]))
def test_random_exact_standard_form_matches_reference(p):
    assert_same_standard_form(p, EXACT)


@pytest.mark.parametrize("lower, upper, rhs", [
    (0.0, None, -0.0),  # x = y, but a -0.0 right-hand side takes the offsets' path
    (-0.0, None, 1.0),  # x = -0.0 + y: not the +0 lower bound of the cone LPs
    (0.0, [None, 2.0, None], 1.0),  # x = y + 0 and a bound row
    (0.0, [None, -0.0, None], 1.0),  # a bound row with a -0.0 right-hand side
], ids=["rhs-negative-zero", "lower-negative-zero", "upper-with-none", "upper-negative-zero"])
def test_zero_lower_bound_standard_forms(lower, upper, rhs):
    # the cone LPs' scalar lower bound +0 and its neighbours; every recover is also
    # fed the point of all -0.0, which x = y + 0 maps to 0.0
    p = LinearProgram(n_vars=3, objective=[1.0, -0.0, -1.0], lower=lower, upper=upper)
    p.add([1.0, -2.0, 0.0], EQ, rhs).add([-1.0, -0.0, 3.0], EQ, 0.5).add([0.0, 1.0, 1.0], GE, 0.0)
    assert_same_standard_form(p, FLOAT)
    for solver in (lp_solve, lp_feasible):
        assert_same_on_both_tableaux(solver, p)
    exact = LinearProgram(3, [Fr(x) for x in p.objective], lower=Fr(0),
                          upper=None if upper is None else [None if u is None else Fr(u)
                                                            for u in upper])
    for coeffs, rel, b in p.constraints:
        exact.add([Fr(x) for x in coeffs], rel, Fr(b))
    assert_same_standard_form(exact, EXACT)


def test_solver_standard_forms_match_reference():
    for n, skew in COMPAT_CASES:
        for _family, _solver, p in compat_lps(n, skew):
            assert_same_standard_form(p, FLOAT)
    for n_levels in [1, 2, 3, 4, 5]:
        for _family, _solver, p in classical_lps(n_levels):
            assert_same_standard_form(p, EXACT)
    for p in lipschitz_ball_lps():
        assert_same_standard_form(p, FLOAT)


def standard_form_values(p, ctx) -> str:
    """`repr` of the rows, rhs, cost, offset and column count of p's standard form,
    exact numerators as the Fractions they stand for."""
    rows, rhs, den, cost, _recover, const, ncols, _data = linprog._standardize(p, ctx)
    if ctx.exact:
        rows, rhs = (np.frompyfunc(Fr, 2, 1)(a, den) for a in (rows, rhs))
    return repr((rows.tolist(), rhs.tolist(), cost, const, ncols))


def record_cone_lps(calls) -> list:
    """`(args, kwargs)` of every `cones.cone_lp` call that the compat calls make."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compat, "cone_lp", lambda *a, **kw: seen.append((a, kw)) or cone_lp(*a, **kw))
        for _family, call, args in calls:
            call(*args)
    return seen


@pytest.mark.parametrize("make, args", [
    *[pytest.param(compat_calls, case, id=f"compat-{case[0]}-{case[1]}") for case in COMPAT_CASES],
    *[pytest.param(classical_calls, (n,), id=f"classical-{n}") for n in [1, 2, 3, 4, 5]],
    pytest.param(curve_calls, (), id="curve")])
def test_cone_lp_block_matches_list_reference(make, args):
    # the array block against the list rows of the same LP: the standard form,
    # both solvers' answers, and the joint effects of the optimal point
    for a, kw in record_cone_lps(make(*args)):
        ctx, n_blocks = a[1], a[2]
        (p, vectors), (ref, ref_vectors) = cone_lp(*a, **kw), helpers.cone_lp_reference(*a, **kw)
        assert standard_form_values(p, ctx) == standard_form_values(ref, ctx)
        for solver in (lp_solve, lp_feasible):
            got = solver(p, ctx)
            assert repr(got) == repr(solver(ref, ctx))
            point = got.point if solver is lp_solve else got.witness
            if point is not None:
                assert repr(vectors(point, n_blocks)) == repr(ref_vectors(point, n_blocks))


# ---------------------------------------------------------------------------
# float mode against scipy's HiGHS (test-only; skipped without scipy)

@pytest.mark.parametrize("n, skew", COMPAT_CASES + [(n, False) for n in range(12, 49, 4)
                                                     if n != 16] + [(12, True), (48, True)])
def test_compat_lps_match_highs(n, skew):
    for family, solver, p in compat_lps(n, skew):
        if solver is lp_solve:
            ours = lp_solve(p, FLOAT)
            status, value = highs(p)
            assert ours.optimal and status == "optimal", family
            assert ours.value == pytest.approx(value, abs=1e-7), family
        else:
            assert lp_feasible(p, FLOAT).feasible == (highs(p, feasibility=True)[0] == "optimal")


# psi-polygon pairs (n, i, j) of binary ideal measurements whose measurement-error
# LP failed under lowest-index pricing: ended unbounded (48, 39, 40), unbounded in
# phase 1 (56, 38, 44), out of pivots (48, 18, 42), and points that failed
# certification.  They stay pinned as the full LP, one variable per (cell, facet
# normal) pair, which the library no longer solves: its LP over the orbits of the
# pair's stabiliser must reach the same optimum
PRICING_FAILURES = [(48, 39, 40), (56, 38, 44), (56, 6, 9), (64, 31, 12), (64, 24, 40),
                    (64, 50, 6), (64, 11, 44), (48, 18, 42), (56, 40, 3), (64, 2, 63)]


@pytest.mark.parametrize("n, i, j", PRICING_FAILURES)
def test_pricing_failures_solve(n, i, j):
    t = psi_transform(make_polygon(n))
    f, g = binary_ideal_measurement(t, i), binary_ideal_measurement(t, j)
    p = helpers.full_compat_lp("min_mur_linf", t, f, g)
    res = lp_solve(p, FLOAT)
    assert res.optimal
    mur = compat.min_mur_linf(t, f, g)
    assert FLOAT.eq(mur.value, res.value) and not compat.joint_violations(t, mur.joint)
    status, value = highs(p)
    assert status == "optimal" and FLOAT.eq(res.value, value)


# equality rows per LP, for a binary pair in d = 3: the marginal rows, and
# for MUR the unit-sum rows plus two sup-gap cone blocks per binary marginal
COMPAT_EQ_ROWS = {"max_fuzz_lambda": (2 + 2) * 3, "is_jointly_measurable": (2 + 2) * 3,
                  "min_mur_linf": (1 + 2 + 2) * 3}


def test_compat_lp_rows_do_not_grow_with_n():
    for n in (8, 16, 32):
        for family, _solver, p in compat_lps(n):
            assert sum(rel == EQ for _, rel, _ in p.constraints) == COMPAT_EQ_ROWS[family]
            assert all(rel == EQ for _, rel, _ in p.constraints), family


def test_compat_feasibility_verdicts_both_ways():
    # perpendicular pairs are incompatible, the self-pair is compatible
    verdicts = [lp_feasible(p, FLOAT).feasible
                for _, solver, p in compat_lps(8) if solver is lp_feasible]
    assert verdicts == [False, True]


def test_lipschitz_ball_lps_match_highs():
    for p in lipschitz_ball_lps():
        status, value = highs(p)
        assert status == "optimal"
        assert lp_solve(p, FLOAT).value == pytest.approx(value, abs=1e-7)


def test_cone_membership_verdicts_match_highs():
    cone = Cone(((1.0, 0.0, 1.0), (0.0, 1.0, 1.0), (-1.0, 0.0, 1.0), (0.0, -1.0, 1.0)))
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("gptlab.cones.lp_feasible",
                   lambda p, ctx: seen.append(p) or lp_feasible(p, ctx))
        for x in ((0.0, 0.0, 1.0), (0.5, 0.5, 1.0), (0.6, 0.6, 1.0), (1.0, 0.0, 1.0),
                  (2.0, 0.0, 1.0), (0.0, 0.0, -1.0)):
            cone_member(cone, x, FLOAT)
    verdicts = [lp_feasible(p, FLOAT).feasible for p in seen]
    assert verdicts == [True, True, False, True, False, False]
    assert verdicts == [highs(p, feasibility=True)[0] == "optimal" for p in seen]


# feasible and unbounded (x1 = 1, x2 = -1/3 - t, x3 = t raises the objective
# without end); HiGHS with presolve calls it infeasible
PRESOLVE_INFEASIBLE_UNBOUNDED = LinearProgram(
    n_vars=3, objective=[-3.0, -3.0, 0.25], sense="max",
    lower=[None, None, None], upper=[1.0, None, None]).add(
    (-3.0, -3.0, -3.0), LE, -2.0).add((-3.0, 0.25, 0.25), LE, -3.0)


@settings(max_examples=150, deadline=None)
@given(small_lps())
@example(PRESOLVE_INFEASIBLE_UNBOUNDED)
def test_random_lps_match_highs(p):
    feasible = lp_feasible(p, FLOAT).feasible
    assert feasible == (highs(p, feasibility=True)[0] == "optimal")
    ours = lp_solve(p, FLOAT)
    status, value = highs(p)
    assert ours.status == status
    if ours.optimal:
        assert ours.value == pytest.approx(value, abs=1e-7)
