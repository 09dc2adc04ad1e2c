"""Joint measurability, measurement-error minimisation, and fuzzing bounds.

A joint measurement is a measurement on the outcome grid A x B; its row
and column marginals approximate the two target measurements.  All
feasibility and optimisation questions here are linear: positivity of a
joint effect only needs checking on the vertices of the state space
(exact for polytopes), and marginal matching is coordinatewise affine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .linprog import EQ, GE, LE, LinearProgram, lp_feasible, lp_solve
from .measures import metric_of
from .model import Measurement, Theory, effect_eval
from .scalars import vadd, vscale


@dataclass(frozen=True)
class JointMeasurement:
    """Effects indexed by outcome pairs, with the parent outcome labels."""

    row_labels: tuple
    col_labels: tuple
    effects: tuple  # grid[i][j] is the effect for (row_labels[i], col_labels[j])
    row_metric: object = None
    col_metric: object = None

    def __post_init__(self):
        object.__setattr__(
            self, "effects", tuple(tuple(tuple(e) for e in row) for row in self.effects)
        )
        if len(self.effects) != len(self.row_labels) or any(
            len(r) != len(self.col_labels) for r in self.effects
        ):
            raise ValueError("effect grid shape does not match outcome labels")

    @property
    def shape(self) -> tuple:
        return (len(self.row_labels), len(self.col_labels))

    def as_measurement(self) -> Measurement:
        """Flatten the grid into an ordinary measurement on A x B."""
        from .measures import FiniteMetricSpace

        labels, effects = [], []
        for a, row in zip(self.row_labels, self.effects):
            for b, e in zip(self.col_labels, row):
                labels.append((a, b))
                effects.append(e)
        return Measurement(
            outcomes=tuple(labels),
            effects=tuple(effects),
            metric=FiniteMetricSpace.discrete(tuple(labels)),
        )


def marginals(j: JointMeasurement) -> tuple:
    """Row and column marginal measurements of the joint."""
    row_effects = []
    for row in j.effects:
        total = row[0]
        for e in row[1:]:
            total = vadd(total, e)
        row_effects.append(total)
    col_effects = []
    for cidx in range(len(j.col_labels)):
        total = j.effects[0][cidx]
        for ridx in range(1, len(j.row_labels)):
            total = vadd(total, j.effects[ridx][cidx])
        col_effects.append(total)
    return (
        Measurement(outcomes=j.row_labels, effects=tuple(row_effects), metric=j.row_metric),
        Measurement(outcomes=j.col_labels, effects=tuple(col_effects), metric=j.col_metric),
    )


def joint_violations(t: Theory, j: JointMeasurement) -> list:
    ctx = t.ctx
    problems = []
    total = None
    for row in j.effects:
        for e in row:
            total = e if total is None else vadd(total, e)
            for v in t.vertices:
                if not ctx.ge(effect_eval(t, e, v), 0):
                    problems.append("joint effect negative on a vertex")
                    break
    if total is None or not ctx.vec_eq(total, t.unit_effect):
        problems.append("joint effects do not sum to the unit effect")
    return problems


def validate_joint(t: Theory, j: JointMeasurement) -> bool:
    return not joint_violations(t, j)


def product_joint(f: Measurement) -> JointMeasurement:
    """The diagonal joint measurement of a measurement with itself."""
    k = f.n_outcomes
    zero = tuple(0 * c for c in f.effects[0])
    grid = tuple(
        tuple(f.effects[i] if i == jdx else zero for jdx in range(k)) for i in range(k)
    )
    m = metric_of(f)
    return JointMeasurement(
        row_labels=f.outcomes, col_labels=f.outcomes, effects=grid, row_metric=m, col_metric=m
    )


def uniform_joint(t: Theory, f: Measurement, g: Measurement) -> JointMeasurement:
    ctx = t.ctx
    na, nb = f.n_outcomes, g.n_outcomes
    cell = vscale(1 / ctx.convert(na * nb), t.unit_effect)
    grid = tuple(tuple(cell for _ in range(nb)) for _ in range(na))
    return JointMeasurement(
        row_labels=f.outcomes,
        col_labels=g.outcomes,
        effects=grid,
        row_metric=metric_of(f),
        col_metric=metric_of(g),
    )


@dataclass(frozen=True)
class CompatibilityResult:
    """Joint measurability of a pair, with a joint measurement when compatible."""

    compatible: bool
    witness: Optional[JointMeasurement] = None


def _cell_vars(na: int, nb: int, d: int):
    """Column index of coordinate c of cell (a, b) in the LP variable vector."""

    def idx(a, b, c):
        return (a * nb + b) * d + c

    return idx, na * nb * d


def _paired_vertices(t: Theory) -> tuple:
    """Gram-paired vertices: effect evaluation is a plain dot with these."""
    from .scalars import mat_vec

    return tuple(mat_vec(t.inner.gram, v) for v in t.vertices)


def _positivity_rows(t: Theory, p: LinearProgram, idx, na: int, nb: int) -> None:
    ctx = t.ctx
    d = t.dim
    nv = p.n_vars
    paired_verts = _paired_vertices(t)
    for a in range(na):
        for b in range(nb):
            for paired in paired_verts:
                row = [ctx.zero()] * nv
                for c in range(d):
                    row[idx(a, b, c)] = paired[c]
                p.add(row, GE, ctx.zero())


def is_jointly_measurable(t: Theory, f: Measurement, g: Measurement) -> CompatibilityResult:
    """Feasibility of the exact joint-measurement constraints."""
    ctx = t.ctx
    na, nb, d = f.n_outcomes, g.n_outcomes, t.dim
    idx, nvars = _cell_vars(na, nb, d)
    p = LinearProgram(n_vars=nvars, objective=[ctx.zero()] * nvars)
    _positivity_rows(t, p, idx, na, nb)
    for a in range(na):
        for c in range(d):
            row = [ctx.zero()] * nvars
            for b in range(nb):
                row[idx(a, b, c)] = ctx.one()
            p.add(row, EQ, f.effects[a][c])
    for b in range(nb):
        for c in range(d):
            row = [ctx.zero()] * nvars
            for a in range(na):
                row[idx(a, b, c)] = ctx.one()
            p.add(row, EQ, g.effects[b][c])
    res = lp_feasible(p, ctx)
    if not res.feasible:
        return CompatibilityResult(False, None)
    return CompatibilityResult(True, _grid_from_point(t, res.witness, f, g))


def _grid_from_point(t: Theory, point, f: Measurement, g: Measurement) -> JointMeasurement:
    na, nb, d = f.n_outcomes, g.n_outcomes, t.dim
    idx, _ = _cell_vars(na, nb, d)
    grid = tuple(
        tuple(tuple(point[idx(a, b, c)] for c in range(d)) for b in range(nb))
        for a in range(na)
    )
    return JointMeasurement(
        row_labels=f.outcomes,
        col_labels=g.outcomes,
        effects=grid,
        row_metric=metric_of(f),
        col_metric=metric_of(g),
    )


@dataclass(frozen=True)
class MurResult:
    """The least total sup-gap of `min_mur_linf` and a joint measurement attaining it."""

    value: object
    joint: JointMeasurement


def min_mur_linf(t: Theory, f: Measurement, g: Measurement) -> MurResult:
    """Minimise D_inf(row marginal, F) + D_inf(col marginal, G) in one LP."""
    ctx = t.ctx
    na, nb, d = f.n_outcomes, g.n_outcomes, t.dim
    idx, ncells = _cell_vars(na, nb, d)
    nvars = ncells + 2  # trailing: t1, t2
    p = LinearProgram(n_vars=nvars, objective=[ctx.zero()] * ncells + [ctx.one(), ctx.one()])
    lower = [None] * ncells + [ctx.zero(), ctx.zero()]
    p.lower = lower
    _positivity_rows(t, p, idx, na, nb)
    # total equals the unit effect
    for c in range(d):
        row = [ctx.zero()] * nvars
        for a in range(na):
            for b in range(nb):
                row[idx(a, b, c)] = ctx.one()
        p.add(row, EQ, t.unit_effect[c])
    # |row-marginal deviation| <= t1 and |col-marginal deviation| <= t2 on vertices
    paired_verts = _paired_vertices(t)
    for a in range(na):
        for v, paired in zip(t.vertices, paired_verts):
            fval = effect_eval(t, f.effects[a], v)
            row = [ctx.zero()] * nvars
            for b in range(nb):
                for c in range(d):
                    row[idx(a, b, c)] = paired[c]
            row[ncells] = -ctx.one()
            p.add(row, LE, fval)
            row2 = list(row)
            row2[ncells] = ctx.one()
            p.add(row2, GE, fval)
    for b in range(nb):
        for v, paired in zip(t.vertices, paired_verts):
            gval = effect_eval(t, g.effects[b], v)
            row = [ctx.zero()] * nvars
            for a in range(na):
                for c in range(d):
                    row[idx(a, b, c)] = paired[c]
            row[ncells + 1] = -ctx.one()
            p.add(row, LE, gval)
            row2 = list(row)
            row2[ncells + 1] = ctx.one()
            p.add(row2, GE, gval)
    res = lp_solve(p, ctx)
    if res.status != "optimal":
        raise RuntimeError(f"measurement-error LP ended {res.status}")
    return MurResult(value=res.value, joint=_grid_from_point(t, res.point, f, g))


def max_fuzz_lambda(t: Theory, f: Measurement, g: Measurement, with_joint: bool = False):
    """Largest fuzzing weight keeping the fuzzified pair jointly measurable.

    One LP in the joint effects and the weight; the marginal constraints
    are affine in both.  Defined for binary measurements.  With
    ``with_joint=True`` also returns the optimal joint measurement.
    """
    ctx = t.ctx
    if f.n_outcomes != 2 or g.n_outcomes != 2:
        raise ValueError("the fuzzing family is defined for binary measurements")
    na, nb, d = 2, 2, t.dim
    idx, ncells = _cell_vars(na, nb, d)
    nvars = ncells + 1  # trailing: lambda
    p = LinearProgram(
        n_vars=nvars,
        objective=[ctx.zero()] * ncells + [ctx.one()],
        sense="max",
        lower=[None] * ncells + [ctx.zero()],
        upper=[None] * ncells + [ctx.one()],
    )
    _positivity_rows(t, p, idx, na, nb)
    half_u = vscale(1 / ctx.convert(2), t.unit_effect)
    for a in range(na):
        for c in range(d):
            row = [ctx.zero()] * nvars
            for b in range(nb):
                row[idx(a, b, c)] = ctx.one()
            row[ncells] = -(f.effects[a][c] - half_u[c])
            p.add(row, EQ, half_u[c])
    for b in range(nb):
        for c in range(d):
            row = [ctx.zero()] * nvars
            for a in range(na):
                row[idx(a, b, c)] = ctx.one()
            row[ncells] = -(g.effects[b][c] - half_u[c])
            p.add(row, EQ, half_u[c])
    res = lp_solve(p, ctx)
    if res.status != "optimal":
        raise RuntimeError(f"fuzzing LP ended {res.status}")
    if with_joint:
        return res.value, _grid_from_point(t, res.point, f, g)
    return res.value


def degree_bound_rhs(t: Theory, f: Measurement, g: Measurement):
    """max over states of (max_i f_i + max_j g_j) - 1, exact on vertices."""
    if f.n_outcomes != 2 or g.n_outcomes != 2:
        raise ValueError("degree-of-incompatibility bound is for binary measurements")
    best = None
    for v in t.vertices:
        val = max(effect_eval(t, e, v) for e in f.effects) + max(
            effect_eval(t, e, v) for e in g.effects
        )
        if best is None or val > best:
            best = val
    return best - 1


def degree_bound_closed_form(n) -> float:
    """Closed-form bound for perpendicular pairs in 4k-gons (inf for the disc)."""
    if n == math.inf or n == "inf":
        return 1 / math.sqrt(2)
    n = int(n)
    if n % 4 != 0:
        raise ValueError("closed form applies to side counts divisible by 4")
    if n % 8 == 4:
        rsq = 1.0 / math.cos(math.pi / n)
        return rsq / math.sqrt(2)
    return 1 / math.sqrt(2)
