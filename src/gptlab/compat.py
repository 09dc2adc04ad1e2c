"""Joint measurability, measurement-error minimisation, and fuzzing bounds.

A joint measurement is a measurement on the outcome grid A x B; its row
and column marginals approximate the two target measurements.  All
feasibility and optimisation questions here are linear.  An effect is
nonnegative on every state exactly when it lies in the effect cone, the
dual of the state cone under the dot product, which the theory's cached
facet normals generate; so each joint cell is written as a nonnegative
combination of those normals.  Marginal matching is then coordinatewise
equality, and the LP has the same number of rows whatever the number of
vertices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

from .cones import cone_lp
from .linprog import lp_feasible, lp_solve
from .model import FiniteMetricSpace, Measurement, Theory, outcome_metric, prob_table
from .scalars import vadd, vscale, vsub


@dataclass(frozen=True)
class JointMeasurement:
    """Effects indexed by outcome pairs, with the parent outcome labels.

    Each label tuple has an outcome metric, as a :class:`Measurement` does:
    None means the discrete metric on the labels.
    """

    row_labels: tuple
    col_labels: tuple
    effects: tuple  # grid[i][j] is the effect for (row_labels[i], col_labels[j])
    row_metric: Optional[FiniteMetricSpace] = None
    col_metric: Optional[FiniteMetricSpace] = None

    def __post_init__(self):
        object.__setattr__(
            self, "effects", tuple(tuple(tuple(e) for e in row) for row in self.effects)
        )
        if len(self.effects) != len(self.row_labels) or any(
            len(r) != len(self.col_labels) for r in self.effects
        ):
            raise ValueError("effect grid shape does not match outcome labels")
        rows, cols = tuple(self.row_labels), tuple(self.col_labels)
        object.__setattr__(self, "row_labels", rows)
        object.__setattr__(self, "col_labels", cols)
        object.__setattr__(self, "row_metric", outcome_metric(self.row_metric, rows))
        object.__setattr__(self, "col_metric", outcome_metric(self.col_metric, cols))

    @property
    def shape(self) -> tuple:
        return (len(self.row_labels), len(self.col_labels))


def marginals(j: JointMeasurement) -> tuple:
    """Row and column marginal measurements of the joint."""
    return (
        Measurement(j.row_labels, [functools.reduce(vadd, row) for row in j.effects],
                    j.row_metric),
        Measurement(j.col_labels, [functools.reduce(vadd, col) for col in zip(*j.effects)],
                    j.col_metric),
    )


def joint_violations(t: Theory, j: JointMeasurement) -> list:
    ctx = t.ctx
    cells = [e for row in j.effects for e in row]
    problems = ["joint effect negative on a vertex"
                for row in prob_table(t, cells) if not all(ctx.ge(p, 0) for p in row)]
    if not cells or not ctx.vec_eq(functools.reduce(vadd, cells), t.unit_effect):
        problems.append("joint effects do not sum to the unit effect")
    return problems


def validate_joint(t: Theory, j: JointMeasurement) -> bool:
    return not joint_violations(t, j)


def _joint(f: Measurement, g: Measurement, cells) -> JointMeasurement:
    """The joint on f's and g's outcomes with cell (a, b) = cells[a * nb + b]."""
    nb = g.n_outcomes
    return JointMeasurement(
        row_labels=f.outcomes,
        col_labels=g.outcomes,
        effects=tuple(tuple(cells[a * nb:(a + 1) * nb]) for a in range(f.n_outcomes)),
        row_metric=f.metric,
        col_metric=g.metric,
    )


def product_joint(f: Measurement) -> JointMeasurement:
    """The diagonal joint measurement of a measurement with itself."""
    k = f.n_outcomes
    zero = tuple(0 * c for c in f.effects[0])
    return _joint(f, f, [f.effects[i] if i == j else zero for i in range(k) for j in range(k)])


def uniform_joint(t: Theory, f: Measurement, g: Measurement) -> JointMeasurement:
    ncells = f.n_outcomes * g.n_outcomes
    return _joint(f, g, [vscale(1 / t.ctx.convert(ncells), t.unit_effect)] * ncells)


@dataclass(frozen=True)
class CompatibilityResult:
    """Joint measurability of a pair, with a joint measurement when compatible."""

    compatible: bool
    witness: Optional[JointMeasurement] = None


def _marginal_cells(na: int, nb: int) -> list:
    """Per row outcome, then per column outcome, the cells that sum to its marginal."""
    rows = [{a * nb + b: 1 for b in range(nb)} for a in range(na)]
    return rows + [{a * nb + b: 1 for a in range(na)} for b in range(nb)]


def is_jointly_measurable(t: Theory, f: Measurement, g: Measurement) -> CompatibilityResult:
    """Feasibility of the exact joint-measurement constraints."""
    ncells = f.n_outcomes * g.n_outcomes
    eqs = [(cells, {}, e) for cells, e in
           zip(_marginal_cells(f.n_outcomes, g.n_outcomes), f.effects + g.effects)]
    p, effects = cone_lp(t.facet_normals, t.ctx, ncells, eqs)
    res = lp_feasible(p, t.ctx)
    if not res.feasible:
        return CompatibilityResult(False, None)
    return CompatibilityResult(True, _joint(f, g, effects(res.witness, ncells)))


@dataclass(frozen=True)
class MurResult:
    """The least total sup-gap of `min_mur_linf` and a joint measurement attaining it."""

    value: object
    joint: JointMeasurement


def min_mur_linf(t: Theory, f: Measurement, g: Measurement) -> MurResult:
    """Minimise D_inf(row marginal, F) + D_inf(col marginal, G) in one LP.

    The sup-gap bound ``|<marginal - target, omega>| <= s`` holds on every
    state exactly when ``s u - (marginal - target)`` and
    ``s u + (marginal - target)`` are both effects, so each bound is two
    more cone blocks next to the joint's cells.  The two deviations of a
    binary marginal are opposite, so its first outcome's bound covers both.
    Bounding the second as well would put the same effects in two more
    blocks, and on that degenerate LP the float simplex cycles.
    """
    ctx = t.ctx
    u = t.unit_effect
    minus_u = vscale(-ctx.one(), u)
    na, nb = f.n_outcomes, g.n_outcomes
    ncells = na * nb
    cells = _marginal_cells(na, nb)
    eqs = [({i: 1 for i in range(ncells)}, {}, u)]
    n_blocks = ncells
    for s, (marginal_cells, m) in enumerate(((cells[:na], f), (cells[na:], g))):
        bounded = 1 if m.n_outcomes == 2 else m.n_outcomes
        for sums, e in zip(marginal_cells[:bounded], m.effects):
            eqs.append(({**sums, n_blocks: 1}, {s: minus_u}, e))
            eqs.append(({**sums, n_blocks + 1: -1}, {s: u}, e))
            n_blocks += 2
    p, effects = cone_lp(t.facet_normals, ctx, n_blocks, eqs, objective=[ctx.one()] * 2)
    res = lp_solve(p, ctx)
    if res.status != "optimal":
        raise RuntimeError(f"measurement-error LP ended {res.status}")
    return MurResult(value=res.value, joint=_joint(f, g, effects(res.point, ncells)))


def max_fuzz_lambda(t: Theory, f: Measurement, g: Measurement, with_joint: bool = False):
    """Largest fuzzing weight keeping the fuzzified pair jointly measurable.

    One LP in the joint effects and the weight; the marginal constraints
    are affine in both.  Defined for binary measurements.  With
    ``with_joint=True`` also returns the optimal joint measurement.
    """
    ctx = t.ctx
    if f.n_outcomes != 2 or g.n_outcomes != 2:
        raise ValueError("the fuzzing family is defined for binary measurements")
    half_u = vscale(1 / ctx.convert(2), t.unit_effect)
    for e in f.effects + g.effects:
        if len(e) != len(half_u):  # vsub would cut the longer one short
            raise ValueError(f"dimension mismatch: cone in R^{len(half_u)}, vector in R^{len(e)}")
    # marginal = lambda e + (1 - lambda) u/2, i.e. marginal + lambda (u/2 - e) = u/2
    eqs = [(cells, {0: vsub(half_u, e)}, half_u)
           for cells, e in zip(_marginal_cells(2, 2), f.effects + g.effects)]
    p, effects = cone_lp(t.facet_normals, ctx, 4, eqs, objective=[ctx.one()], sense="max",
                         upper=[ctx.one()])
    res = lp_solve(p, ctx)
    if res.status != "optimal":
        raise RuntimeError(f"fuzzing LP ended {res.status}")
    if with_joint:
        return res.value, _joint(f, g, effects(res.point, 4))
    return res.value


def degree_bound_rhs(t: Theory, f: Measurement, g: Measurement):
    """max over states of (max_i f_i + max_j g_j) - 1, exact on vertices."""
    if f.n_outcomes != 2 or g.n_outcomes != 2:
        raise ValueError("degree-of-incompatibility bound is for binary measurements")
    pf, pg = prob_table(t, f.effects), prob_table(t, g.effects)
    return max(max(cf) + max(cg) for cf, cg in zip(zip(*pf), zip(*pg))) - 1


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
