"""Independent oracles shared across test modules.

These deliberately avoid the library's own code paths: membership goes
through exhaustive facet enumeration, groups through a raw permutation
search, the plain Fraction backtracking search or the full-depth
integer-numerator search, and group averages through one element at a
time, so the LP, double-description, spanning-basis and stacked-array
implementations have something honest to be compared against.  The theory layer's facet-sign checks
(effect validity, self-duality, J-positivity) are compared with LP
routes over `dual_cone` and `cone_member`.  LPs go to the simplex on
Python lists that the numpy tableau replaced and to scipy's HiGHS, their
standard form to the per-kind substitution that the single one replaced,
and the compatibility LPs also come in their older vertex-by-vertex form;
the optimisation LPs also come in full, one variable per (cell, facet
normal) pair, as they were before they ran over orbits of the pair's
stabiliser.
The integer-numerator layers of exact mode (rank, the double description,
the ideal-measurement search, the incidence check of ``validate_theory``)
meet their earlier forms, which work on the theory's own scalars one
value at a time, and the shared elimination behind ``rank``, ``solve``,
``inverse`` and ``spanning_rows`` meets the three loops it replaced:
Gauss-Jordan in Fractions or floats, the float rank, and one rank per
row for the spanning rows.
Theory validation meets the affine-hull rule it decided full dimension by
before the facet table alone did.
Random joints and post-processings meet the per-cell loops that formed
them before one ordered product of compat's own joints did.
Widths and the theorem verifiers meet their per-call forms: balls found by
distance comparisons on every call, every measure formed again for each eps
pair, and every cell's statistics through ``effect_eval``.
"""

import math
from dataclasses import replace
from fractions import Fraction
from itertools import chain, combinations, permutations

import numpy as np
import pytest

from gptlab.compat import JointMeasurement, marginals
from gptlab.cones import Cone, LinealityError, cone_lp, cone_member, cones_equal, dual_cone
from gptlab.harness import VerificationReport, _distribution, _holds, _witness_report
from gptlab.ideal import IdealMeasurement, fuzzify, indecomposable_pure_effects
from gptlab.linprog import _DEGENERATE_RUN, _MAX_PIVOTS, EQ, GE, LE, LinearProgram
from gptlab.measures import (
    OutcomeDistribution, _lipschitz_ball_lp, linf_distance, localization_error, min_le_sum,
)
from gptlab.model import (
    Measurement, effect_eval, in_state_space, is_zero_effect, make_polygon, polygon_radius,
    prob_table, validate_theory,
)
from gptlab.scalars import (
    FLOAT, Context, InnerProduct, dot, inverse, mat_add, mat_mul, mat_scale, mat_vec,
    ordered_matmul, rank, solve, sqrt_scalar, transpose, unstacked, vadd, vscale, vsub,
)
from gptlab.symmetry import (
    SymmetryGroup, automorphism_group, is_transitive, maximally_mixed,
)


def facet_normals_bruteforce(generators, ctx: Context):
    """Facet normals of a full-dimensional cone by exhaustive subsets.

    Every (d-1)-subset of generators spanning a (d-1)-dimensional space
    contributes its orthogonal direction when all generators lie on one
    side.  Only valid for cones whose generators span the ambient space.
    """
    d = len(generators[0])
    normals = []
    for subset in combinations(range(len(generators)), d - 1):
        rows = [generators[i] for i in subset]
        if rank(rows, ctx) != d - 1:
            continue
        normal = _null_direction(rows, ctx)
        if normal is None:
            continue
        signs = {ctx.sign(dot(normal, g)) for g in generators}
        if -1 in signs and 1 in signs:
            continue
        if -1 in signs:
            normal = tuple(-a for a in normal)
        if not any(_same_direction(normal, m, ctx) for m in normals):
            normals.append(normal)
    return normals


def _null_direction(rows, ctx: Context):
    """A nonzero vector orthogonal to all rows (rows have rank d-1)."""
    d = len(rows[0])
    # solve rows . x = 0 by fixing one free coordinate to 1
    for free in range(d):
        cols = [c for c in range(d) if c != free]
        a = [[row[c] for c in cols] for row in rows]
        b = [-row[free] for row in rows]
        if rank(a, ctx) != d - 1:
            continue
        # reduce to a square solvable system by picking d-1 independent rows
        chosen = spanning_rows_greedy(a, d - 1, ctx)
        sol = solve([a[i] for i in chosen], [b[i] for i in chosen], ctx)
        if sol is None:
            continue
        vec = [0] * d
        vec[free] = ctx.one()
        for c, v in zip(cols, sol):
            vec[c] = v
        return tuple(vec)
    return None


def _same_direction(x, y, ctx: Context) -> bool:
    # proportional with a positive factor
    pivot = None
    for a, b in zip(x, y):
        if not ctx.is_zero(a) and not ctx.is_zero(b):
            pivot = a / b
            break
        if ctx.is_zero(a) != ctx.is_zero(b):
            return False
    if pivot is None or ctx.le(pivot, 0):
        return False
    return all(ctx.eq(a, pivot * b) for a, b in zip(x, y))


def member_bruteforce(generators, x, ctx: Context) -> bool:
    """Facet-based membership for a cone spanning the full space."""
    d = len(generators[0])
    if rank(generators, ctx) < d:
        raise ValueError("brute-force membership oracle needs a full-dimensional cone")
    normals = facet_normals_bruteforce(generators, ctx)
    return all(ctx.ge(dot(n, x), 0) for n in normals)


def effect_space_member(t, e) -> bool:
    """Duality route: e and u - e both in the internal dual cone of V+ (LPs)."""
    dual = dual_cone(t.cone, t.inner, t.ctx)
    u_minus_e = tuple(u - a for u, a in zip(t.unit_effect, e))
    return all(all(t.ctx.is_zero(a) for a in x) or cone_member(dual, x, t.ctx)
               for x in (e, u_minus_e))


def self_dual_lp(t, gram) -> bool:
    """The state cone equals its dual under `gram`: double description, then LPs."""
    return cones_equal(t.cone, dual_cone(t.cone, gram, t.ctx), t.ctx)


def j_positive_lp(t, j_map, gram) -> tuple:
    """(J maps the state cone into its `gram`-dual, J^-1 maps the dual into the cone) by LPs."""
    dual = dual_cone(t.cone, gram, t.ctx)
    jinv = inverse(j_map, t.ctx)
    return (all(cone_member(dual, mat_vec(j_map, v), t.ctx) for v in t.vertices),
            all(cone_member(t.cone, mat_vec(jinv, r), t.ctx) for r in dual.generators))


def automorphism_orders_bruteforce(vertices, ctx: Context) -> int:
    """Count vertex permutations extending to linear maps fixing the set."""
    nv = len(vertices)
    d = len(vertices[0])
    span = spanning_rows_greedy(vertices, d, ctx)
    base = inverse(transpose([vertices[i] for i in span]), ctx)
    count = 0
    for perm in permutations(range(nv)):
        img = transpose([vertices[perm[i]] for i in span])
        t_mat = mat_mul(img, base)
        if all(ctx.vec_eq(mat_vec(t_mat, vertices[j]), vertices[perm[j]]) for j in range(nv)):
            count += 1
    return count


def search_group_reference(t) -> SymmetryGroup:
    """The automorphism backtracking search on the theory's own scalars.

    Same pruning, spanning subset and per-vertex verification as
    ``symmetry._search_group``, with every product in Fractions (exact
    mode) or floats, no common denominators and no node budget.
    """
    ctx = t.ctx
    verts = t.vertices
    nv = len(verts)
    d = t.dim
    q = None
    for v in verts:
        vvt = tuple(tuple(a * b for b in v) for a in v)
        q = vvt if q is None else mat_add(q, vvt)
    qinv = inverse(q, ctx)
    if qinv is None:
        raise ValueError("vertices do not span the ambient space")
    m = [[dot(verts[i], mat_vec(qinv, verts[j])) for j in range(nv)] for i in range(nv)]

    span_idx = spanning_rows_greedy(verts, d, ctx)
    basis_cols = transpose([verts[i] for i in span_idx])
    basis_inv = inverse(basis_cols, ctx)

    found_mats, found_perms = [], []
    perm = [-1] * nv
    used = [False] * nv

    def extend(i: int) -> None:
        if i == nv:
            _materialize(tuple(perm))
            return
        for c in range(nv):
            if used[c] or not ctx.eq(m[c][c], m[i][i]):
                continue
            if all(ctx.eq(m[perm[j]][c], m[j][i]) for j in range(i)):
                perm[i] = c
                used[c] = True
                extend(i + 1)
                used[c] = False
                perm[i] = -1

    def _materialize(p: tuple) -> None:
        # linear extension from the spanning subset, then full verification
        img_cols = transpose([verts[p[i]] for i in span_idx])
        t_mat = mat_mul(img_cols, basis_inv)
        for j in range(nv):
            if not ctx.vec_eq(mat_vec(t_mat, verts[j]), verts[p[j]]):
                return
        found_mats.append(tuple(tuple(row) for row in t_mat))
        found_perms.append(p)

    extend(0)
    return SymmetryGroup.from_elements(found_mats, found_perms, ctx)


def _cleared(rows, ctx: Context):
    """``(numerators, den)`` with ``rows == numerators / den``: int rows over
    the lcm of the denominators in exact mode, the rows themselves over 1 in
    float mode."""
    if not ctx.exact:
        return rows, 1
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in rows), den


def search_group_full_depth(t) -> SymmetryGroup:
    """The integer-numerator search that assigns the image of every vertex.

    The backtracking runs to full depth over all vertices, pruned on every
    vertex pair, and each complete permutation is extended from the
    spanning subset on integer numerators and verified on every vertex,
    so the maps come out in lexicographic order of their permutation.
    ``symmetry._search_group`` stops at the spanning vertices instead and
    checks the leaves in one batch; this has no node budget.
    """
    ctx = t.ctx
    verts = t.vertices
    nv = len(verts)
    d = t.dim
    q = None
    for v in verts:
        vvt = tuple(tuple(a * b for b in v) for a in v)
        q = vvt if q is None else mat_add(q, vvt)
    qinv = inverse(q, ctx)
    if qinv is None:
        raise ValueError("vertices do not span the ambient space")
    qv = [mat_vec(qinv, v) for v in verts]
    m, _ = _cleared([[dot(verts[i], qv[j]) for j in range(nv)] for i in range(nv)], ctx)

    span_idx = spanning_rows_greedy(verts, d, ctx)
    w, vden = _cleared(verts, ctx)
    wa, aden = _cleared(inverse(transpose([verts[i] for i in span_idx]), ctx), ctx)
    wden = vden * aden
    target = [vscale(wden, x) for x in w]

    found_mats, found_perms = [], []
    perm = [-1] * nv
    used = [False] * nv

    def extend(i: int) -> None:
        if i == nv:
            _materialize(tuple(perm))
            return
        for c in range(nv):
            if used[c] or not ctx.eq(m[c][c], m[i][i]):
                continue
            if all(ctx.eq(m[perm[j]][c], m[j][i]) for j in range(i)):
                perm[i] = c
                used[c] = True
                extend(i + 1)
                used[c] = False
                perm[i] = -1

    def _materialize(p: tuple) -> None:
        t_num = mat_mul(transpose([w[p[i]] for i in span_idx]), wa)
        for j in range(nv):
            if not ctx.vec_eq(mat_vec(t_num, w[j]), target[p[j]]):
                return
        if ctx.exact:
            t_num = tuple(tuple(Fraction(x, wden) for x in row) for row in t_num)
        found_mats.append(t_num)
        found_perms.append(p)

    extend(0)
    return SymmetryGroup.from_elements(found_mats, found_perms, ctx)


def averaged_gram_per_element(g: SymmetryGroup, ctx: Context) -> InnerProduct:
    """``avg T^T T`` summed one element at a time, each over its own denominator."""
    cleared = [_cleared(mat, ctx) for mat in g.elements]
    den = math.lcm(*(c for _, c in cleared))
    total = None
    for num, c in cleared:
        if c != den:
            num = mat_scale(den // c, num)
        term = mat_mul(transpose(num), num)
        total = term if total is None else mat_add(total, term)
    return InnerProduct(mat_scale(1 / ctx.convert(g.order * den * den), total))


def maximally_mixed_per_element(t, g: SymmetryGroup):
    """The vertex average, checked to be fixed by one group element at a time."""
    if not is_transitive(g, t):
        raise ValueError("maximally mixed state requires a transitive theory")
    ctx = t.ctx
    total = t.vertices[0]
    for v in t.vertices[1:]:
        total = tuple(a + b for a, b in zip(total, v))
    k = ctx.convert(t.n_vertices)
    omega_m = tuple(a / k for a in total)
    (w,), _ = _cleared((omega_m,), ctx)
    for mat in g.elements:
        num, den = _cleared(mat, ctx)
        if not ctx.vec_eq(mat_vec(num, w), vscale(den, w)):
            raise RuntimeError("group element does not fix the vertex average")
    return omega_m


def projector_per_element(g: SymmetryGroup, ctx: Context):
    """``avg T`` summed one element at a time."""
    total = None
    for mat in g.elements:
        total = mat if total is None else mat_add(total, mat)
    return mat_scale(1 / ctx.convert(g.order), total)


def canonical_group_per_element(g: SymmetryGroup, transform) -> tuple:
    """The elements of ``canonicalize``'s group: each one in floats, conjugated
    one at a time as ``transform . m . transform^-1``."""
    inv_t = inverse(transform, FLOAT)
    return tuple(mat_mul(mat_mul(transform, tuple(tuple(float(a) for a in row) for row in m)), inv_t)
                 for m in g.elements)


# ---------------------------------------------------------------------------
# linear programs: the list tableau, scipy's HiGHS, and the compatibility LPs in
# vertex (H-row) form

class ListTableau:
    """Dense simplex tableau in standard form: min c.y, A y = b, y >= 0.

    The oracle for `linprog._Tableau`: the same pivots (the most negative
    reduced cost enters, Bland's rule after a run of degenerate pivots) on
    Python lists of scalars, one loop per row, with every scalar operation
    in the same order as the numpy tableau, so both reach the same floats
    or Fractions.  Unlike the numpy tableau it keeps the objective row and -z
    apart from the rows, and gives each artificial a real unit column.
    """

    def __init__(self, rows, rhs, ctx, den):
        # numerators over `den`, as `linprog._Tableau` takes them: exact ones
        # become the Fractions x / den, floats (over 1) stay as they are
        scalar = (lambda x: Fraction(x, den)) if ctx.exact else (lambda x: x)
        self.rows = [[scalar(x) for x in row] for row in np.asarray(rows).tolist()]
        self.rhs = [scalar(x) for x in np.asarray(rhs).tolist()]
        self.ctx = ctx
        self.basis = [-1] * len(rows)
        self.width = np.shape(rows)[1]

    def add_artificial_columns(self):
        """A real unit column for each basis index at or past the width of the
        rows, where `linprog._Tableau` keeps none."""
        zero, one = self.ctx.zero(), self.ctx.one()
        for bj, i in sorted((bj, i) for i, bj in enumerate(self.basis) if bj >= self.width):
            for r, row in enumerate(self.rows):
                row.extend([zero] * (bj - len(row)) + [one if r == i else zero])

    def price_out(self, cost):
        """Objective row (reduced costs) for the current basis, plus -z."""
        ctx = self.ctx
        obj = list(cost)
        zval = ctx.zero()
        for i, bj in enumerate(self.basis):
            cb = cost[bj]
            if cb == 0:
                continue
            row = self.rows[i]
            for j in range(len(obj)):
                obj[j] -= cb * row[j]
            zval -= cb * self.rhs[i]
        return obj, zval

    def pivot(self, r, c):
        rows, rhs = self.rows, self.rhs
        prow = rows[r]
        pv = prow[c]
        inv = 1 / pv
        rows[r] = prow = [v * inv for v in prow]
        rhs[r] *= inv
        for i in range(len(rows)):
            if i == r:
                continue
            f = rows[i][c]
            if f == 0:
                continue
            rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
            rhs[i] -= f * rhs[r]
        self.basis[r] = c

    def run(self, cost, nenter):
        """Minimise cost over the current basis, entering only columns below
        `nenter`; returns (status, z)."""
        ctx = self.ctx
        self.add_artificial_columns()
        obj, zval = self.price_out(cost)
        degenerate = 0
        for _ in range(_MAX_PIVOTS):
            enter = -1
            for j in range(nenter):
                if ctx.lt(obj[j], 0):
                    if degenerate >= _DEGENERATE_RUN:
                        enter = j  # Bland: lowest index
                        break
                    if enter < 0 or obj[j] < obj[enter]:
                        enter = j  # Dantzig: most negative, first on ties
            if enter < 0:
                return "optimal", zval
            leave, best = -1, None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if not ctx.gt(a, 0):
                    continue
                ratio = self.rhs[i] / a
                if best is None or ratio < best or (
                    ratio == best and self.basis[i] < self.basis[leave]
                ):
                    leave, best = i, ratio
            if leave < 0:
                return "unbounded", zval
            degenerate = 0 if ctx.gt(self.rhs[leave], 0) else degenerate + 1
            self.pivot(leave, enter)
            # update the objective row with the normalized pivot row
            fobj = obj[enter]
            if fobj != 0:
                prow = self.rows[leave]
                for j in range(len(obj)):
                    obj[j] -= fobj * prow[j]
                zval -= fobj * self.rhs[leave]
        raise RuntimeError("simplex exceeded pivot budget (cycling?)")

    # phase-1 steps

    def unit_columns(self, ncols):
        """Per row, the highest of the first `ncols` columns that is the unit
        vector with its 1 in that row, or -1."""
        one, nrows = self.ctx.one(), len(self.rows)
        found = []
        for i, row in enumerate(self.rows):
            found.append(-1)
            for j in range(ncols - 1, -1, -1):
                if row[j] == one and all(self.rows[k][j] == 0 for k in range(nrows) if k != i):
                    found[i] = j
                    break
        return found

    def first_nonzero(self, rows, ncols):
        """Per row of `rows`, the lowest of the first `ncols` columns where it is
        not zero, or -1."""
        return [next((j for j in range(ncols) if not self.ctx.is_zero(self.rows[i][j])), -1)
                for i in rows]

    def drop(self, drop_rows):
        """Delete the given rows and the artificial columns."""
        for i in sorted(drop_rows, reverse=True):
            del self.rows[i]
            del self.rhs[i]
            del self.basis[i]
        for row in self.rows:
            del row[self.width:]


def standardize_reference(p: LinearProgram, ctx: Context):
    """The oracle for `linprog._standardize`, in list arithmetic.

    A variable with a lower bound of 0 or more is one column ``y``; any other
    is ``y+ - y-``, two adjacent columns.  Every bound but ``x >= 0`` is a row
    after the LP's own: the lower bounds as ``>=`` rows, then the upper bounds
    as ``<=`` rows, each in variable order.  A slack per inequality row, then
    rows with a negative right-hand side negated.

    Returns (rows, rhs, cost, recover, ncols) where recover maps a standard
    point y back to original coordinates.
    """
    zero, one = ctx.zero(), ctx.one()
    if p.sense not in ("min", "max"):
        raise ValueError(f"unknown sense {p.sense!r}")
    n = p.n_vars
    def bound(which, j):
        b = p._bound(which, j)
        return None if b is None else ctx.convert(b)

    lower, upper = [bound("lo", j) for j in range(n)], [bound("up", j) for j in range(n)]
    free = [lb is None or not lb >= 0 for lb in lower]
    cols, ncol = [], 0  # per variable, its first column
    for j in range(n):
        cols.append(ncol)
        ncol += 2 if free[j] else 1

    def unit(j):
        return [one if k == j else zero for k in range(n)]

    raw = [([ctx.convert(a) for a in coeffs], rel, ctx.convert(b))
           for coeffs, rel, b in p.constraints]
    raw += [(unit(j), GE, lb) for j, lb in enumerate(lower) if lb is not None and lb != 0]
    raw += [(unit(j), LE, ub) for j, ub in enumerate(upper) if ub is not None]

    obj = [ctx.convert(c) for c in p.objective]
    if p.sense == "max":
        obj = [-c for c in obj]
    cost = [zero] * ncol
    for j, c in enumerate(obj):
        cost[cols[j]] = c
        if free[j]:
            cost[cols[j] + 1] = -c

    nslack = sum(rel != EQ for _, rel, _ in raw)
    rows, rhs, k = [], [], 0
    for coeffs, rel, b in raw:
        row = [zero] * (ncol + nslack)
        for j, a in enumerate(coeffs):
            if a != 0:
                row[cols[j]] += a
                if free[j]:
                    row[cols[j] + 1] -= a
        if rel != EQ:
            row[ncol + k] = one if rel == LE else -one
            k += 1
        rows.append(row)
        rhs.append(b)
    if not ctx.exact and not all(map(math.isfinite, chain(cost, rhs, *rows))):
        raise ValueError("LP objective, constraints and bounds must be finite")
    for i, b in enumerate(rhs):
        if b < 0:
            rows[i], rhs[i] = [-v for v in rows[i]], -b

    def recover(y):
        return tuple(y[c] - y[c + 1] if f else y[c] + 0 for c, f in zip(cols, free))

    return rows, rhs, cost + [zero] * nslack, recover, ncol + nslack


def highs(p: LinearProgram, feasibility: bool = False):
    """(status, value) of the same LP under scipy's HiGHS, statuses named as in lp_solve.

    Test-only: skips the calling test when scipy is not installed.
    """
    optimize = pytest.importorskip("scipy.optimize")
    sign = -1.0 if p.sense == "max" else 1.0
    ub, ub_rhs, eq, eq_rhs = [], [], [], []
    for coeffs, rel, rhs in p.constraints:
        row = [float(a) for a in coeffs]
        if rel == EQ:
            eq.append(row)
            eq_rhs.append(float(rhs))
        else:
            flip = -1.0 if rel == GE else 1.0
            ub.append([flip * a for a in row])
            ub_rhs.append(flip * float(rhs))
    bounds = [tuple(None if b is None else float(b) for b in (p._bound("lo", j), p._bound("up", j)))
              for j in range(p.n_vars)]
    cost = [0.0] * p.n_vars if feasibility else [sign * float(c) for c in p.objective]
    kw = dict(A_ub=ub or None, b_ub=ub_rhs or None, A_eq=eq or None, b_eq=eq_rhs or None,
              bounds=bounds, method="highs")
    res = optimize.linprog(cost, **kw)
    if res.status == 2:
        # HiGHS's presolve reports some feasible unbounded LPs as infeasible
        # (see test_random_lps_match_highs); the solver without presolve tells them apart
        res = optimize.linprog(cost, options={"presolve": False}, **kw)
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status]
    return status, sign * res.fun if status == "optimal" else None


def cone_lp_reference(rays, ctx: Context, n_blocks: int, eqs, objective=(), sense="min",
                      upper=None, orbits=None):
    """The oracle for `cones.cone_lp`: the same LP with every row built as a list,
    one ``coef * r[c]`` per ray and coordinate, and its point map summing each
    coordinate over the rays in order, from zero, skipping zero weights.  With
    `orbits`, each row and the cost sum their entries into one per orbit, from
    zero in variable order, an orbit takes its first member's bound, and the
    point map gives each member its orbit's weight."""
    rays = unstacked(*rays, ctx).tolist()  # Python floats or Fractions
    k, d, zero = len(rays), len(rays[0]), ctx.zero()
    nmu = n_blocks * k
    nvars = nmu + len(objective)
    cost = [zero] * nmu + list(objective)
    bounds = None if upper is None else [None] * nmu + list(upper)
    rows = []
    for blocks, scalars, rhs in eqs:
        for c in range(d):
            row = [zero] * nvars
            for i, coef in blocks.items():
                row[i * k:(i + 1) * k] = [coef * r[c] for r in rays]
            for j, w in scalars.items():
                row[nmu + j] = w[c]
            rows.append((row, rhs[c]))
    if orbits is not None:
        orbits = [int(o) for o in orbits]

        def summed(entries):
            out = [zero] * (max(orbits) + 1)
            for x, o in enumerate(orbits):
                out[o] += entries[x]
            return out

        rows = [(summed(row), rhs) for row, rhs in rows]
        first = {}
        for x, o in enumerate(orbits):
            first.setdefault(o, x)
        cost = summed(cost)
        bounds = None if bounds is None else [bounds[first[o]] for o in range(len(cost))]
    p = LinearProgram(n_vars=len(cost), objective=cost, sense=sense, lower=zero, upper=bounds)
    for row, rhs in rows:
        p.add(row, EQ, rhs)

    def vectors(point, count: int) -> list:
        if orbits is not None:
            point = [point[o] for o in orbits]
        out = []
        for i in range(count):
            vec = []
            for c in range(d):
                total = zero
                for m, r in zip(point[i * k:(i + 1) * k], rays):
                    if m:
                        total += m * r[c]
                vec.append(total)
            out.append(tuple(vec))
        return out

    return p, vectors


def orbits_reference(t, elements, block_images, scalar_images):
    """The oracle for `compat._orbits`: each variable's least image, found one
    element and one variable at a time, and the orbits numbered by
    ``np.unique(least, return_inverse=True)``, in the order of their first members."""
    facet_perms = t.effect_action[elements].tolist()
    nf, n_blocks = len(facet_perms[0]), block_images.shape[1]
    least = []
    for x in range(n_blocks * nf + scalar_images.shape[1]):
        if x < n_blocks * nf:
            i, j = divmod(x, nf)
            images = [int(blocks[i]) * nf + perm[j]
                      for blocks, perm in zip(block_images.tolist(), facet_perms)]
        else:
            images = [n_blocks * nf + int(s[x - n_blocks * nf]) for s in scalar_images.tolist()]
        least.append(min(images))
    return np.unique(least, return_inverse=True)[1]


def full_compat_lp(family: str, t, f, g) -> LinearProgram:
    """The LP of `family` ("is_jointly_measurable", "max_fuzz_lambda" or
    "min_mur_linf") over every (cell, ray) pair, one variable each, as
    ``compat`` writes it for a one-shot call: over the theory's rays
    (``Theory.facet_table``), not restricted to the joints that the pair's
    stabiliser fixes.  It has the same verdict or optimum."""
    ctx, u = t.ctx, t.unit_effect
    na, nb = f.n_outcomes, g.n_outcomes
    ncells = na * nb
    rows = [{a * nb + b: 1 for b in range(nb)} for a in range(na)]
    cols = [{a * nb + b: 1 for a in range(na)} for b in range(nb)]
    if family == "is_jointly_measurable":
        eqs = [(cells, {}, e) for cells, e in zip(rows + cols, f.effects + g.effects)]
        return cone_lp(t.facet_table[:2], ctx, ncells, eqs)[0]
    if family == "max_fuzz_lambda":
        half_u = vscale(1 / ctx.convert(2), u)
        eqs = [(cells, {0: vsub(half_u, e)}, half_u)
               for cells, e in zip(rows + cols, f.effects + g.effects)]
        return cone_lp(t.facet_table[:2], ctx, 4, eqs, objective=[ctx.one()], sense="max",
                       upper=[ctx.one()])[0]
    if family == "min_mur_linf":
        minus_u = vscale(-ctx.one(), u)
        eqs, n_blocks = [({i: 1 for i in range(ncells)}, {}, u)], ncells
        for s, (marginal_cells, m) in enumerate(((rows, f), (cols, g))):
            bounded = 1 if m.n_outcomes == 2 else m.n_outcomes
            for sums, e in zip(marginal_cells[:bounded], m.effects):
                eqs.append(({**sums, n_blocks: 1}, {s: minus_u}, e))
                eqs.append(({**sums, n_blocks + 1: -1}, {s: u}, e))
                n_blocks += 2
        return cone_lp(t.facet_table[:2], ctx, n_blocks, eqs, objective=[ctx.one()] * 2)[0]
    raise ValueError(f"unknown compatibility LP {family!r}")


def _hrow_lp(t, n_cells: int, n_extra: int, **kw):
    """Free cell coordinates, then `n_extra` trailing scalars, with one
    positivity row per cell and vertex: <cell, v> >= 0."""
    ctx, d = t.ctx, t.dim
    nvars = n_cells * d + n_extra
    p = LinearProgram(n_vars=nvars, **kw)
    for i in range(n_cells):
        for v in t.vertices:
            row = [ctx.zero()] * nvars
            row[i * d:(i + 1) * d] = v
            p.add(row, GE, ctx.zero())
    return p


def hrow_compat_lp(family: str, t, f, g):
    """The LP of `family` ("is_jointly_measurable", "max_fuzz_lambda" or
    "min_mur_linf") with positivity and sup-gap bounds checked vertex by vertex.

    Cell (a, b) holds coordinates ``(a * nb + b) * d ...`` of the point;
    trailing scalars are lambda, or the two sup-gaps.  The optimum has the
    same value as the library's effect-cone LP.
    """
    ctx, d = t.ctx, t.dim
    na, nb = f.n_outcomes, g.n_outcomes
    ncells = na * nb
    zero, one = ctx.zero(), ctx.one()
    row_cells = [[a * nb + b for b in range(nb)] for a in range(na)]
    col_cells = [[a * nb + b for a in range(na)] for b in range(nb)]
    marginals = list(zip(row_cells + col_cells, f.effects + g.effects))
    if family == "is_jointly_measurable":
        p = _hrow_lp(t, ncells, 0, objective=[zero] * (ncells * d))
        for cells, e in marginals:
            for c in range(d):
                row = [zero] * p.n_vars
                for i in cells:
                    row[i * d + c] = one
                p.add(row, EQ, e[c])
        return p
    if family == "max_fuzz_lambda":
        nv = ncells * d + 1
        p = _hrow_lp(t, ncells, 1, objective=[zero] * (nv - 1) + [one], sense="max",
                     lower=[None] * (nv - 1) + [zero], upper=[None] * (nv - 1) + [one])
        half_u = tuple(x / 2 for x in t.unit_effect)
        for cells, e in marginals:
            for c in range(d):
                row = [zero] * nv
                for i in cells:
                    row[i * d + c] = one
                row[-1] = -(e[c] - half_u[c])
                p.add(row, EQ, half_u[c])
        return p
    if family == "min_mur_linf":
        nv = ncells * d + 2
        p = _hrow_lp(t, ncells, 2, objective=[zero] * (nv - 2) + [one, one],
                     lower=[None] * (nv - 2) + [zero, zero])
        for c in range(d):
            row = [zero] * nv
            for i in range(ncells):
                row[i * d + c] = one
            p.add(row, EQ, t.unit_effect[c])
        for m, (cells, e) in enumerate(marginals):
            s = nv - 2 if m < na else nv - 1
            for v in t.vertices:
                target = dot(e, v)
                row = [zero] * nv
                for i in cells:
                    row[i * d:(i + 1) * d] = v
                row[s] = -one
                p.add(row, LE, target)
                row = list(row)
                row[s] = one
                p.add(row, GE, target)
        return p
    raise ValueError(f"unknown compatibility LP {family!r}")


# ---------------------------------------------------------------------------
# exact mode on the theory's own scalars: rank, extremality, the dual cone,
# the ideal search

def rank_fraction(rows) -> int:
    """Rank by Gauss-Jordan elimination in Fractions, pivoting on the first nonzero."""
    m = [[Fraction(a) for a in r] for r in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(len(m)):
            f = m[i][c] / m[r][c]
            if i != r and f != 0:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def _pivot_reference(col_abs, ctx: Context):
    # exact: the first nonzero; float: partial pivoting, None at or below tol
    if ctx.exact:
        for i, v in enumerate(col_abs):
            if v != 0:
                return i
        return None
    best, best_i = 0.0, None
    for i, v in enumerate(col_abs):
        if v > best:
            best, best_i = v, i
    if best_i is None or best <= ctx.tol:
        return None
    return best_i


def rank_float_loop(rows, ctx: Context) -> int:
    """Float rank by Gauss-Jordan elimination with partial pivoting, each row
    cleared by a multiple ``m_ic / p`` of the undivided pivot row."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    r = 0
    for c in range(len(m[0])):
        pivot = _pivot_reference([abs(m[i][c]) for i in range(r, len(m))], ctx)
        if pivot is None:
            continue
        p = r + pivot
        m[r], m[p] = m[p], m[r]
        pv = m[r][c]
        for i in range(len(m)):
            if i == r:
                continue
            f = m[i][c] / pv
            if f == 0:
                continue
            m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def rank_reference(rows, ctx: Context) -> int:
    return rank_fraction(rows) if ctx.exact else rank_float_loop(rows, ctx)


def spanning_rows_greedy(rows, d: int, ctx: Context) -> list:
    """Indices of the first rows, in order, that each raise the rank of the
    rows chosen before them, up to ``d`` of them: one rank per row."""
    idx: list[int] = []
    for i, row in enumerate(rows):
        if rank_reference([rows[j] for j in idx] + [row], ctx) > len(idx):
            idx.append(i)
        if len(idx) == d:
            break
    return idx


def gauss_jordan_reference(a, rhs, ctx: Context):
    """Reduce [a | rhs] to [I | a^-1 rhs] on the scalars as given (Fraction
    division in exact mode); the rows of a^-1 rhs, or None when singular."""
    d = len(a)
    m = [list(row) + list(extra) for row, extra in zip(a, rhs)]
    for c in range(d):
        pivot = _pivot_reference([abs(m[i][c]) for i in range(c, d)], ctx)
        if pivot is None:
            return None
        p = c + pivot
        m[c], m[p] = m[p], m[c]
        pv = m[c][c]
        m[c] = [v / pv for v in m[c]]
        for i in range(d):
            if i == c:
                continue
            f = m[i][c]
            if f == 0:
                continue
            m[i] = [u - f * v for u, v in zip(m[i], m[c])]
    return [row[d:] for row in m]


def vertex_extreme(t, i: int) -> bool:
    """Vertex i spans an extreme ray of the state cone and no other vertex equals it.

    One vertex at a time: its dot product with every facet normal, and its
    comparison with every other vertex.
    """
    ctx, v = t.ctx, t.vertices[i]
    if any(ctx.vec_eq(w, v) for j, w in enumerate(t.vertices) if j != i):
        return False
    tight = [n for n in t.facet_table[0].tolist() if ctx.is_zero(dot(n, v))]
    return rank_reference(tight, ctx) == t.dim - 1


def dual_cone_reference(c: Cone, g: InnerProduct, ctx: Context) -> Cone:
    """The double description on the cone's own scalars: ``G v`` per generator
    by ``mat_vec``, rays kept in Fractions (exact) or floats and normalised
    after every combination, the adjacency test over all other rays."""
    def normalize(v):
        if ctx.exact:
            den = math.lcm(*(Fraction(a).denominator for a in v))
            ints = [int(a * den) for a in v]
            return tuple(Fraction(a, math.gcd(*ints)) for a in ints)
        m = max(abs(a) for a in v)
        return tuple(a / m for a in v)

    d = c.dim
    normals = [mat_vec(g.gram, v) for v in c.generators]
    basis_idx = spanning_rows_greedy(normals, d, ctx)
    if len(basis_idx) < d:
        raise LinealityError("generators do not span the ambient space")
    rays = [normalize(col) for col in transpose(inverse(tuple(normals[i] for i in basis_idx), ctx))]
    zsets = [frozenset(basis_idx) - {basis_idx[j]} for j in range(d)]
    for i, a in enumerate(normals):
        if i in basis_idx:
            continue
        vals = [dot(a, r) for r in rays]
        signs = [ctx.sign(v) for v in vals]
        plus = [k for k, s in enumerate(signs) if s > 0]
        zero = [k for k, s in enumerate(signs) if s == 0]
        minus = [k for k, s in enumerate(signs) if s < 0]
        new_rays, new_zsets = [], []
        for kp in plus:
            for km in minus:
                meet = zsets[kp] & zsets[km]
                if any(meet <= zsets[ko] for ko in range(len(rays)) if ko not in (kp, km)):
                    continue
                ray = normalize(vsub(vscale(vals[kp], rays[km]), vscale(vals[km], rays[kp])))
                if not any(ctx.vec_eq(ray, r) for r in new_rays):
                    new_rays.append(ray)
                    new_zsets.append(meet | {i})
        rays = [rays[k] for k in plus] + [rays[k] for k in zero] + new_rays
        zsets = [zsets[k] for k in plus] + [zsets[k] | {i} for k in zero] + new_zsets
        if not rays:
            raise LinealityError("dual cone degenerated to the origin")
    return Cone(tuple(rays))


def affine_hull_reference(vertices, ctx: Context) -> tuple:
    """``(dim, origin_outside)``: the affine dimension of the vertices' hull, the
    rank of their differences from the first vertex, and whether the first
    vertex raises that rank, so that the hull misses the origin.  This is the
    rule ``validate_theory`` applied before the facet table alone decided full
    dimension: a valid theory in R^d has ``(d - 1, True)``."""
    v0 = vertices[0]
    diffs = [vsub(v, v0) for v in vertices[1:]]
    dim = rank_reference(diffs, ctx)
    return dim, rank_reference(diffs + [v0], ctx) > dim


def validation_reference(t) -> bool:
    """Does ``t`` pass the checks of ``validate_theory`` as they were with the
    affine-hull rule?  Vertices of one length, the unit effect's; the unit effect
    one on every vertex; the rule of :func:`affine_hull_reference`; a facet table;
    every vertex extreme by :func:`vertex_extreme`."""
    ctx = t.ctx
    if not t.vertices or {len(v) for v in t.vertices} | {len(t.unit_effect)} != {t.dim}:
        return False
    if not all(ctx.eq(dot(t.unit_effect, v), 1) for v in t.vertices):
        return False
    if affine_hull_reference(t.vertices, ctx) != (t.dim - 1, True):
        return False
    try:
        t.facet_table
    except ValueError:
        return False
    return all(vertex_extreme(t, i) for i in range(t.n_vertices))


def assert_validation_matches_oracle(t) -> None:
    """``validate_theory`` passes exactly when every vertex is extreme by
    :func:`vertex_extreme`, and otherwise names the lowest vertex that is not."""
    bad = [i for i in range(t.n_vertices) if not vertex_extreme(t, i)]
    try:
        validate_theory(t)
        got = None
    except ValueError as exc:
        got = str(exc)
    assert got == (f"vertex {bad[0]} is a convex combination of the others" if bad else None)


def _veckey(v, ctx: Context):
    """``v`` as a dict key: exact, or each float rounded to the digits of ``tol``,
    the keys that ``enumerate_ideal_measurements`` used before it coded them."""
    if ctx.exact:
        return tuple(v)
    digits = round(-math.log10(ctx.tol))
    return tuple(round(a, digits) for a in v)


def enumerate_ideal_reference(t, max_outcomes: int) -> tuple:
    """``enumerate_ideal_measurements`` on the theory's own scalars.

    Sums of pure effects, their vertex values (from ``prob_table``), the
    remainder and its vertex values are Fractions in exact mode, and each
    measurement is keyed by its effects' own coordinate vectors.
    """
    from gptlab.measures import FiniteMetricSpace

    if max_outcomes < 2:
        return ()
    ctx = t.ctx
    pures = indecomposable_pure_effects(t)
    sums = {}

    def grow(start, idx, vec):
        for i in range(start, len(pures)):
            cand = vadd(vec, pures[i]) if vec is not None else pures[i]
            if all(ctx.le(p, 1) for p in prob_table(t, [cand])[0]):
                sums[idx | {i}] = cand
                grow(i + 1, idx | {i}, cand)

    grow(0, frozenset(), None)
    u = t.unit_effect
    order = sorted(sums, key=lambda s: (len(s), sorted(s)))
    seen, unique = set(), []
    for tag, s in [("sum", s) for s in order] + [("complement", s) for s in order]:
        vec = sums[s] if tag == "sum" else vsub(u, sums[s])
        key = _veckey(vec, ctx)
        if key not in seen and not is_zero_effect(t, vec):
            seen.add(key)
            unique.append((tag, s, vec))
    *rows, u_evals = prob_table(t, [c[2] for c in unique] + [u])
    kept = [(c, row) for c, row in zip(unique, rows)
            if all(ctx.ge(p, 0) and ctx.le(p, 1) for p in row)]
    candidates, evals = [c for c, _ in kept], [row for _, row in kept]
    by_key = {_veckey(c[2], ctx): i for i, c in enumerate(candidates)}
    found = {}

    def record(chosen):
        order = sorted(range(len(chosen)), key=lambda i: _veckey(chosen[i][2], ctx))
        key = tuple(_veckey(chosen[i][2], ctx) for i in order)
        if key not in found:
            k = len(chosen)
            found[key] = IdealMeasurement(
                outcomes=tuple(range(k)), effects=tuple(chosen[i][2] for i in order),
                metric=FiniteMetricSpace.discrete(tuple(range(k))),
                provenance=tuple((chosen[i][0], chosen[i][1]) for i in order))

    def search(start, chosen, rest, rest_evals):
        if chosen and is_zero_effect(t, rest):
            if len(chosen) >= 2:
                record(chosen)
            return
        slots = max_outcomes - len(chosen)
        if slots == 0:
            return
        if chosen and slots == 1:
            i = by_key.get(_veckey(rest, ctx))
            if i is not None and i >= start:
                record(chosen + [candidates[i]])
            return
        for i in range(start, len(candidates)):
            new_evals = tuple(r - e for r, e in zip(rest_evals, evals[i]))
            if not any(ctx.lt(v, 0) for v in new_evals):
                search(i, chosen + [candidates[i]], vsub(rest, candidates[i][2]), new_evals)

    search(0, [], u, u_evals)
    return tuple(sorted(found.values(), key=lambda m: (
        m.n_outcomes, tuple(_veckey(e, ctx) for e in m.effects))))


# ---------------------------------------------------------------------------
# widths and witness scans, one call at a time


def ordered_sum(values):
    """The values added in order from zero, as ``scalars.dot`` adds them."""
    total = 0
    for v in values:
        total += v
    return total


def width_candidates_reference(metric) -> tuple:
    """{0} plus the doubled pairwise distances, ascending."""
    vals = {0 * metric.dist[0][0]}
    for row in metric.dist:
        for v in row:
            vals.add(2 * v)
    return tuple(sorted(vals))


def ball_reference(metric, a, width, ctx: Context) -> tuple:
    """Indices of the points within width/2 of the label ``a``, by distance."""
    ia = metric.points.index(a)
    half = width / 2
    return tuple(j for j in range(len(metric.points)) if ctx.le(metric.dist[ia][j], half))


def overall_width_reference(p, eps, ctx: Context = FLOAT):
    """The first candidate at which some point's ball carries 1 - eps."""
    eps = ctx.convert(eps)
    need = 1 - eps
    for w in width_candidates_reference(p.metric):
        for a in p.metric.points:
            if ctx.ge(ordered_sum(p.probs[j] for j in ball_reference(p.metric, a, w, ctx)), need):
                return w
    raise RuntimeError("width candidates exhausted")


def error_bar_width_reference(t, f_approx, f_ideal, eps):
    """The first candidate whose balls carry 1 - eps on every eigenstate vertex,
    with the approximating effects evaluated on every vertex."""
    ctx, metric = t.ctx, f_ideal.metric
    eps = ctx.convert(eps)
    faces = [[v for v, p in enumerate(row) if ctx.eq(p, 1)]
             for row in prob_table(t, f_ideal.effects)]
    approx = prob_table(t, f_approx.effects)
    for w in width_candidates_reference(metric):
        balls = [ball_reference(metric, label, w, ctx) for label in f_ideal.outcomes]
        if all(ctx.ge(ordered_sum(approx[j][v] for j in ball), 1 - eps)
               for ball, face in zip(balls, faces) for v in face):
            return w
    raise RuntimeError("width candidates exhausted")


def werner_distance_reference(t, f_approx, f_ideal):
    """The vertex maximum of the Lipschitz-ball gap, from both full probability tables."""
    ctx, metric = t.ctx, f_ideal.metric
    k = len(metric.points)
    if k == 1:
        return ctx.zero()
    d10 = ctx.convert(metric.dist[1][0])
    best = ctx.zero()
    approx, ideal = prob_table(t, f_approx.effects), prob_table(t, f_ideal.effects)
    for pa, pi in zip(zip(*approx), zip(*ideal)):
        if k == 2:
            delta = pa[1] - pi[1]
            value = ctx.zero() if ctx.is_zero(delta) else abs(delta) * d10
        else:
            value = _lipschitz_ball_lp(metric, [a - i for a, i in zip(pa, pi)], ctx)
        if ctx.gt(value, best):
            best = value
    return best


def _cell_scan_reference(t, f, g, j, check: bool):
    """(cell labels, state, F distribution, G distribution) per cell of positive
    mass, in grid order; with ``check`` a state outside Omega raises ValueError."""
    ctx = t.ctx
    cells = []
    for a, row in zip(j.row_labels, j.effects):
        for b, e in zip(j.col_labels, row):
            mass = dot(t.unit_effect, e)
            if not ctx.gt(mass, 0):
                continue
            state = vscale(1 / mass, e)
            if check and not in_state_space(t, state):
                raise ValueError("joint cell does not normalize into the state space; "
                                 "theory is not in a conforming representation")
            cells.append(((a, b), state))
    for cell, state in cells:
        yield (cell, state,
               *(OutcomeDistribution(m.metric, tuple(effect_eval(t, e, state) for e in m.effects))
                 for m in (f, g)))


def verify_thm1_reference(t, f, g, j, eps1, eps2):
    """``harness.verify_thm1`` with every width and ball found again by distance."""
    mf, mg = marginals(j)
    w1 = error_bar_width_reference(t, mf, f, eps1)
    w2 = error_bar_width_reference(t, mg, g, eps2)
    eps = eps1 + eps2
    scored = [
        (ordered_sum(df.probs[i] for i in ball_reference(f.metric, a, w1, t.ctx))
         + ordered_sum(dg.probs[i] for i in ball_reference(g.metric, b, w2, t.ctx)),
         state,
         [("errorbar_F >= overall_F", w1, overall_width_reference(df, eps, t.ctx)),
          ("errorbar_G >= overall_G", w2, overall_width_reference(dg, eps, t.ctx))])
        for (a, b), state, df, dg in _cell_scan_reference(t, f, g, j, check=True)
    ]
    best = max(scored, key=lambda c: c[0], default=None)
    return _witness_report(
        "thm1", t, {"eps1": eps1, "eps2": eps2},
        [(state, rows) for _score, state, rows in scored],
        ("no candidate satisfied both width bounds", w1, w2),
        extra={"proof_candidate_ok": best is not None and _holds(best[2], t.ctx.tol)},
    )


def verify_cor1_reference(t, f, g, j, eps1, eps2):
    """``harness.verify_cor1`` with every width found again by distance."""
    mf, mg = marginals(j)
    dw_f = werner_distance_reference(t, mf, f)
    dw_g = werner_distance_reference(t, mg, g)
    eps = eps1 + eps2
    return _witness_report(
        "cor1", t, {"eps1": eps1, "eps2": eps2},
        ((state, [("D_W(F) >= eps1/2 * overall_F", dw_f,
                   eps1 / 2 * overall_width_reference(df, eps, t.ctx)),
                  ("D_W(G) >= eps2/2 * overall_G", dw_g,
                   eps2 / 2 * overall_width_reference(dg, eps, t.ctx))])
         for _ab, state, df, dg in _cell_scan_reference(t, f, g, j, check=False)),
        ("no candidate satisfied both scaled width bounds", dw_f, dw_g),
    )


def verify_thm2_reference(t, f, g, j):
    """``harness.verify_thm2`` on the cells of the reference scan."""
    mf, mg = marginals(j)
    d_f, d_g = linf_distance(t, mf, f), linf_distance(t, mg, g)
    lhs = d_f + d_g
    return _witness_report(
        "thm2", t, {},
        ((state, [("D_inf(F)+D_inf(G) >= LE(F)+LE(G)", lhs,
                   localization_error(df) + localization_error(dg))])
         for _ab, state, df, dg in _cell_scan_reference(t, f, g, j, check=False)),
        ("no candidate satisfied the localization-error bound", d_f, d_g),
        tail=(("D_inf sum >= min_LE_sum", lhs, min_le_sum(t, f, g).value),),
    )


def psi_effect_reference(e, n, inverse=False):
    """An effect of the even n-gon mapped into the stretched one, or back with
    ``inverse``, as the library wrote it before ``model.Coordinates``: one
    ``mat_vec`` by ``diag(1/r, 1/r, 1)``, or by ``diag(r, r, 1)`` back."""
    r = polygon_radius(n)
    s = r if inverse else 1.0 / r
    return mat_vec(((s, 0.0, 0.0), (0.0, s, 0.0), (0.0, 0.0, 1.0)), e)


def psi_theory_reference(raw):
    """The stretched polygon as ``ideal.psi_transform`` built it before the record:
    every vertex by one ``mat_vec`` with ``diag(r, r, 1)``, the unit effect kept."""
    r = polygon_radius(raw.n)
    stretch = ((r, 0.0, 0.0), (0.0, r, 0.0), (0.0, 0.0, 1.0))
    return replace(raw, name=raw.name + "-psi", kind="polygon-psi",
                   vertices=tuple(mat_vec(stretch, v) for v in raw.vertices))


def _float_reference(t, g):
    """``(theory, group)`` in float mode, each exact entry rounded by ``float``, the
    group kept on the theory: the demotion before the coordinate record."""
    gf = SymmetryGroup(*g.stack(FLOAT), g.perms)
    if t.ctx.exact:
        t = replace(t, vertices=tuple(tuple(map(float, v)) for v in t.vertices),
                    unit_effect=tuple(map(float, t.unit_effect)), ctx=FLOAT)
    return t.with_group(gf), gf


def rescale_unit_norm_reference(t, g=None):
    """``symmetry.rescale_unit_norm`` before the coordinate record: one ``vscale``
    by ``s`` on every vertex and by ``1/s`` on the unit effect."""
    g = automorphism_group(t) if g is None else g
    norm2 = sum(a * a for a in maximally_mixed(t, g))
    if t.ctx.eq(norm2, 1):
        return t
    try:
        scale = 1 / sqrt_scalar(norm2, t.ctx)
    except ValueError:
        t, g = _float_reference(t, g)
        scale = 1 / math.sqrt(float(norm2))
    return replace(t, vertices=tuple(vscale(scale, v) for v in t.vertices),
                   unit_effect=vscale(1 / scale, t.unit_effect), canonicalized=False).with_group(g)


def canonical_theory_reference(t, transform):
    """The theory of ``symmetry.canonicalize(t)`` re-expressed as before the record,
    from that form's ``transform``: the float copy, rescaled by
    ``rescale_unit_norm_reference``, then one ``mat_vec`` by ``transform`` on every
    vertex and by its inverse transpose on the unit effect, and the group conjugated."""
    tf, gf = _float_reference(t, automorphism_group(t))
    tf = rescale_unit_norm_reference(tf, gf)
    inv_t = inverse(transform, FLOAT)
    stack = gf.stack(FLOAT)[0]
    group = SymmetryGroup(ordered_matmul(ordered_matmul(np.array(transform), stack),
                                         np.array(inv_t)), 1, gf.perms)
    return replace(tf, name=t.name if t.canonicalized else f"{t.name}-canonical",
                   vertices=tuple(mat_vec(transform, v) for v in tf.vertices),
                   unit_effect=mat_vec(transpose(inv_t), tf.unit_effect),
                   canonicalized=True).with_group(group)


def verify_thm3_even_reference(n, f, g, j, mode, eps1=0.2, eps2=0.2):
    """``harness.verify_thm3_even`` over the reference verifiers and the reference
    stretch (``psi_theory_reference``, ``psi_effect_reference``)."""
    raw = make_polygon(n)
    hat = psi_theory_reference(raw)

    def stretch(effects):
        return tuple(psi_effect_reference(e, n) for e in effects)

    f_hat, g_hat = replace(f, effects=stretch(f.effects)), replace(g, effects=stretch(g.effects))
    j_hat = replace(j, effects=tuple(stretch(row) for row in j.effects))
    max_dev = 0.0
    for meas_raw, meas_hat in ((f, f_hat), (g, g_hat)):
        for row_raw, row_hat in zip(prob_table(raw, meas_raw.effects),
                                    prob_table(hat, meas_hat.effects)):
            max_dev = max(max_dev, *(abs(p - q) for p, q in zip(row_raw, row_hat)))
    rep = {"thm1": lambda: verify_thm1_reference(hat, f_hat, g_hat, j_hat, eps1, eps2),
           "cor1": lambda: verify_cor1_reference(hat, f_hat, g_hat, j_hat, eps1, eps2),
           "thm2": lambda: verify_thm2_reference(hat, f_hat, g_hat, j_hat)}[mode]()
    return replace(rep, check=f"thm3[{mode}]", theory=f"polygon-{n}",
                   passed=rep.passed and max_dev < raw.ctx.tol,
                   extra={**rep.extra, "psi_probability_deviation": max_dev})


def verify_propc_reference(t, f_approx, f_ideal, eps_grid):
    """``harness.verify_propc`` over the reference widths and Werner distance."""
    dw = werner_distance_reference(t, f_approx, f_ideal)
    ineqs = []
    for eps in eps_grid:
        w = error_bar_width_reference(t, f_approx, f_ideal, eps)
        ok = w <= (2 / eps) * dw + t.ctx.tol
        ineqs.append({"label": f"W_eps <= (2/eps) D_W @ eps={eps}",
                      "lhs": float(w), "rhs": float((2 / eps) * dw), "ok": bool(ok)})
    return VerificationReport(check="propC", theory=t.name,
                              params={"eps_grid": tuple(map(float, eps_grid))},
                              inequalities=ineqs, witness=None,
                              passed=all(iq["ok"] for iq in ineqs))


def random_joint_reference(t, f, g, rng) -> JointMeasurement:
    """``harness.random_joint`` as one loop per cell over hand-built component grids."""
    ctx = t.ctx
    na, nb = f.n_outcomes, g.n_outcomes
    lam_f, lam_g = rng.uniform(), rng.uniform()
    ft = fuzzify(t, f, ctx.convert(lam_f))
    gt = fuzzify(t, g, ctx.convert(lam_g))
    qa = _distribution(ctx, rng.dirichlet(np.ones(na)))
    qb = _distribution(ctx, rng.dirichlet(np.ones(nb)))
    components = []
    if na == nb:
        zero = tuple(ctx.zero() for _ in range(t.dim))
        components.append(tuple(
            tuple(ft.effects[a] if a == b else zero for b in range(nb)) for a in range(na)))
        components.append(tuple(
            tuple(gt.effects[b] if a == b else zero for b in range(nb)) for a in range(na)))
    components.append(tuple(
        tuple(vscale(qb[b], ft.effects[a]) for b in range(nb)) for a in range(na)))
    components.append(tuple(
        tuple(vscale(qa[a], gt.effects[b]) for b in range(nb)) for a in range(na)))
    ucell = vscale(1 / ctx.convert(na * nb), t.unit_effect)
    components.append(tuple(tuple(ucell for _ in range(nb)) for _ in range(na)))
    weights = _distribution(ctx, rng.dirichlet(np.ones(len(components))))
    weights = [w * ctx.convert("9/10") for w in weights]
    weights[-1] += ctx.convert("1/10")
    grid = []
    for a in range(na):
        row = []
        for b in range(nb):
            cell = tuple(ctx.zero() for _ in range(t.dim))
            for w, comp in zip(weights, components):
                cell = vadd(cell, vscale(w, comp[a][b]))
            row.append(cell)
        grid.append(tuple(row))
    return JointMeasurement(row_labels=f.outcomes, col_labels=g.outcomes, effects=tuple(grid),
                            row_metric=f.metric, col_metric=g.metric)


def random_postprocessed_reference(t, f, rng) -> Measurement:
    """``harness.random_postprocessed`` as one loop per effect; exact draws are not
    rescaled, so only its float output is a reference."""
    ctx = t.ctx
    k = f.n_outcomes
    w = rng.dirichlet(np.ones(k), size=k).T
    effects = []
    for a in range(k):
        e = tuple(ctx.zero() for _ in range(t.dim))
        for b in range(k):
            e = vadd(e, vscale(ctx.convert(w[a][b]), f.effects[b]))
        effects.append(e)
    return Measurement(outcomes=f.outcomes, effects=tuple(effects), metric=f.metric)
