"""Joint measurability, measurement-error minimisation, and fuzzing bounds.

A joint measurement is a measurement on the outcome grid A x B; its row
and column marginals approximate the two target measurements.  All
feasibility and optimisation questions here are linear.  An effect is
nonnegative on every state exactly when it lies in the effect cone, the
dual of the state cone under the dot product, which the theory's facet
normals generate; so each joint cell is written as a nonnegative
combination of one ray set, the normals scaled so that each automorphism
``T`` permutes them exactly as rows, ``r -> r T`` (``Theory.facet_table``).
Marginal matching is then coordinatewise equality, and the LP has the same
number of rows whatever the number of vertices.

All three LPs, joint measurability, ``min_mur_linf`` and
``max_fuzz_lambda``, are built by one function (``_joint_lp``).  Each is
mapped onto itself by every automorphism that relabels the pair's
outcomes or exchanges the two measurements with the grid transposed, so
averaging a feasible or optimal joint over that stabiliser gives one that
it fixes.  On a theory instance whose group is known they run over fixed
joints only: one variable per orbit of (cell, ray) pairs (Boedi, Herr &
Joswig, Math. Program. 137, 2013), the rays moved as ``r -> r T``
(``_facet_perms``), whose column is the sum of its members' columns in
the full LP.  The verdict or optimum is the full LP's, float bits within
the tolerance, and the joint returned is one that the stabiliser fixes.
The group is known once kept on the instance, or sought within a budget
by its second compat LP of any kind (``_over_orbits``): the search pays
off only over repeated calls, so a one-shot call solves the full LP, as
does every call on a theory whose group is too large for its LP.  The instance also keeps
one record per measurement pair (``Theory.pair_records``): the pair's
stabiliser, its action on the rays and, per LP kind, its orbit numbering.
Like the group, a record pays off only over repeated calls on one instance
and pair; a hit builds and solves the LP that a miss would.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cones import cone_lp
from .linprog import lp_feasible, lp_solve
from .model import FiniteMetricSpace, Measurement, Theory, outcome_metric, prob_table
from .scalars import narrowed, ordered_matmul, stacked, vadd, vscale, vsub
from .symmetry import _BATCH_CELLS, _matches, automorphism_group


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
    """Feasibility of the exact joint-measurement constraints.  Once the group is
    known, over the joints that the pair's stabiliser fixes (module docstring):
    the verdict is the full LP's, and the witness a joint that it fixes."""
    eqs = [(cells, {}, e) for cells, e in
           zip(_marginal_cells(f.n_outcomes, g.n_outcomes), f.effects + g.effects)]
    p, joint = _joint_lp(t, f, g, "is_jointly_measurable", f.n_outcomes * g.n_outcomes, eqs)
    res = lp_feasible(p, t.ctx)
    if not res.feasible:
        return CompatibilityResult(False, None)
    return CompatibilityResult(True, joint(res.witness))


@dataclass(frozen=True)
class MurResult:
    """The least total sup-gap of `min_mur_linf` and a joint measurement attaining it."""

    value: object
    joint: JointMeasurement


def _check_dims(t: Theory, effects) -> None:
    """``cones.cone_lp``'s error for an effect of another length, raised before the
    effects are stacked into one array."""
    for e in effects:
        if len(e) != t.dim:
            raise ValueError(f"dimension mismatch: cone in R^{t.dim}, vector in R^{len(e)}")


# the group search for the compat LPs may compare about this many vertex
# coordinates per tableau cell of the full fuzzing LP: on the psi-polygons that
# is some ten full LPs (psi-96: 23 ms of search against 2.4 ms per LP)
_SEARCH_WORK = 1000


def _over_orbits(t: Theory) -> bool:
    """Whether the compat LPs on ``t`` run over orbits of the group.

    Orbits pay off on a reused theory instance only: finding the group, once
    per instance, costs what several smaller LPs save (on the psi-48-gon,
    about eight).  So a group kept on the instance is used at once; otherwise
    the first compat LP of any kind on the instance is the full LP, and the
    second seeks the group, for itself and every later call.
    The search gives up once its leaf check could compare more than
    ``_SEARCH_WORK`` vertex coordinates (nodes times ``n_vertices ** 2``) per
    tableau cell of the full fuzzing LP (4 ``dim`` rows by 4 facet-normal
    columns).  A group with more elements than that LP has cells is not used
    either, as each pair's stabiliser is sought element by element.  Then
    every LP on the instance is the full LP.

    Once this holds, the first call on a pair finds its stabiliser and its
    action on the rays, the first of each LP kind its orbits, and the instance
    keeps them for that pair (``_pair_orbits``): a saving over repeated calls
    on one instance and pair only, as a fresh instance or another pair starts
    without them.
    """
    cells = 16 * t.dim * len(t.facet_table[0])
    if t.group_cache is None:
        runs = t.lp_runs
        object.__setattr__(t, "lp_runs", min(runs + 1, 2))
        if runs != 1:
            return False
        try:
            automorphism_group(t, max_nodes=_SEARCH_WORK * cells // t.n_vertices ** 2)
        except ValueError:
            return False
    return t.group_cache.order <= cells


def _stabiliser(t: Theory, f: Measurement, g: Measurement) -> tuple:
    """``(elements, swap, pf, pg)``: the automorphisms that map the pair onto itself.

    Element ``k`` fixes the pair when it relabels the outcomes of both
    (``swap`` False: ``f_a -> f_pf[a]`` and ``g_b -> g_pg[b]``) or exchanges
    them (``swap`` True: ``f_a -> g_pf[a]`` and ``g_b -> f_pg[b]``), its images
    ``e T`` of the effects equal to the context's tolerance (``symmetry._matches``,
    as ``_facet_perms`` matches the rays').  The stabiliser is a group, so acting
    by ``T^-1`` would find the same elements and swaps.  Only the elements that send the
    first effect to one of the pair's are checked on the others.
    """
    ctx = t.ctx
    maps, den = automorphism_group(t).stack(ctx)
    na, m = f.n_outcomes, f.n_outcomes + g.n_outcomes
    e, _ = stacked(f.effects + g.effects, ctx)
    e, maps, target = narrowed(e, maps, t.dim, den * e)
    first = _matches(ordered_matmul(e[:1], maps), target, ctx)[:, 0]
    elements = np.flatnonzero(first.any(axis=-1))
    # hit[k, a, b]: element elements[k] sends effect a to effect b
    hit = _matches(ordered_matmul(e, maps[elements]), target, ctx)
    # per swap (a relabelling, an exchange) an allowed image of every effect, itself
    # if allowed (so equal effects keep the identity) or else the first, kept where
    # the images form a bijection
    weight, offset = _swap_weights(na, m)
    score = hit * weight[:, None]
    image = score.argmax(axis=-1)
    ok = score.max(axis=-1).all(axis=-1) & (np.sort(image, axis=-1) == np.arange(m)).all(axis=-1)
    swap, keep = np.nonzero(ok)
    image = image[swap, keep] - offset[swap]
    return elements[keep], swap.astype(bool), image[:, :na], image[:, na:]


@functools.cache
def _swap_weights(na: int, m: int) -> tuple:
    """Per swap s: ``weight[s, a, b]``, 0 where s may not send effect a to effect b, 3
    for b = a, else 1; ``offset[s, a]``, the first index of the measurement s sends a
    into.  The pair's first `na` of `m` effects are f's."""
    side = np.arange(m) >= na
    same = side[:, None] == side
    weight = np.stack([same, ~same]) * (1 + 2 * np.identity(m, dtype=int))
    offset = np.where(side == np.array([[False], [True]]), 0, na)
    for shared in (weight, offset):
        shared.setflags(write=False)
    return weight, offset


def _facet_perms(t: Theory, elements) -> np.ndarray:
    """``facet_perms[n, j]``: the ray of ``Theory.facet_table`` that element
    ``elements[n]``, the state map ``T``, sends ray ``r_j`` to.  ``T`` fixes
    ``omega_M`` and maps facets onto facets, so ``r_j T`` is a ray, found as
    ``_stabiliser`` finds effects, a batch of elements at a time."""
    ctx, rays = t.ctx, t.facet_table[0]
    maps, den = automorphism_group(t).stack(ctx)
    rays, maps, target = narrowed(rays, maps[elements], t.dim, den * rays)
    perms, step = [], max(1, _BATCH_CELLS // (len(rays) * rays.size))
    for start in range(0, len(maps), step):
        hit = _matches(ordered_matmul(rays, maps[start:start + step]), target, ctx)
        if not hit.any(axis=-1).all():
            raise RuntimeError(f"the group of theory {t.name!r} does not permute its facets")
        perms.append(hit.argmax(axis=-1))
    return np.concatenate(perms)


def _orbits(facet_perms, block_images, scalar_images):
    """Per variable of ``cones.cone_lp`` (block-major ``(block, ray)`` pairs, then
    the scalars), its orbit under the stabiliser: the least index that an element
    sends it to, numbered from 0.  Element ``n`` sends block ``i`` to
    ``block_images[n, i]``, ray ``j`` to ``facet_perms[n, j]`` and scalar ``j`` to
    ``scalar_images[n, j]``."""
    nf = facet_perms.shape[1]
    mu = (block_images[:, :, None] * nf + facet_perms[:, None, :]).reshape(len(facet_perms), -1)
    least = np.concatenate((mu, block_images.shape[1] * nf + scalar_images), axis=1).min(axis=0)
    # least[i] is the first member of i's orbit, so the first members, counted in
    # order, number the orbits as they come
    return (np.cumsum(least == np.arange(len(least))) - 1)[least]


def _pair_orbits(t: Theory, f: Measurement, g: Measurement, kind: str, gap_images,
                 n_scalars: int):
    """The orbits of the `kind` LP's variables under the pair's stabiliser, as
    ``_orbits`` numbers them: an element sends cell ``(a, b)`` to
    ``(pf[a], pg[b])``, or, exchanging f and g, to ``(pg[b], pf[a])``, and reverses
    the `n_scalars` scalars (the two sup-gaps; one scalar stays);
    ``gap_images(swap, pf, pg)`` lists the images of the later blocks.

    The stabiliser's relabellings and action on the rays (``_facet_perms``) and each
    kind's numbering are kept on ``t``, in one record per pair
    (``Theory.pair_records``).  The pair is keyed by its values, so a pair
    rebuilt with equal effects finds its record; the numbering, read-only, is
    the one a miss computes."""
    na, nb = f.n_outcomes, g.n_outcomes
    key = (na, f.effects + g.effects)
    record = t.pair_records.get(key)
    if record is None:
        elements, swap, pf, pg = _stabiliser(t, f, g)
        record = t.pair_records[key] = ((swap, pf, pg, _facet_perms(t, elements)), {})
    (swap, pf, pg, facet_perms), numbered = record
    if kind not in numbered:
        a, b = np.divmod(np.arange(na * nb), nb)
        fa, gb = pf[:, a], pg[:, b]
        images = [np.where(swap[:, None], gb * nb + fa, fa * nb + gb)]
        images += gap_images(swap, pf, pg) if gap_images else []
        scalars = np.arange(n_scalars)
        orbits = _orbits(facet_perms, np.column_stack(images),
                         np.where(swap[:, None], scalars[::-1], scalars))
        orbits.flags.writeable = False
        numbered[kind] = orbits
    return numbered[kind]


def _joint_lp(t: Theory, f: Measurement, g: Measurement, kind: str, n_blocks: int, eqs,
              gap_images=None, **lp):
    """``(p, joint)``: ``cones.cone_lp`` over `n_blocks` vectors, the joint's cells
    ``a * nb + b`` first, with the equations `eqs` and the keywords `lp`, and the
    map from a point of ``p`` to its joint.  Once the group is known
    (``_over_orbits``), over the joints that the pair's stabiliser fixes, with the
    orbits of the `kind` LP that ``_pair_orbits`` keeps."""
    _check_dims(t, f.effects + g.effects)
    orbits = None
    if _over_orbits(t):
        orbits = _pair_orbits(t, f, g, kind, gap_images, len(lp.get("objective", ())))
    p, effects = cone_lp(t.facet_table[:2], t.ctx, n_blocks, eqs, orbits=orbits, **lp)
    return p, lambda point: _joint(f, g, effects(point, f.n_outcomes * g.n_outcomes))


def min_mur_linf(t: Theory, f: Measurement, g: Measurement) -> MurResult:
    """Minimise D_inf(row marginal, F) + D_inf(col marginal, G) in one LP.

    The sup-gap bound ``|<marginal - target, omega>| <= s`` holds on every
    state exactly when ``s u - (marginal - target)`` and
    ``s u + (marginal - target)`` are both effects, so each bound is two
    more cone blocks next to the joint's cells.  The two deviations of a
    binary marginal are opposite, so its first outcome's bound covers both.
    Bounding the second as well would put the same effects in two more
    blocks, and on that degenerate LP the float simplex cycles.

    Once the group is known, the LP runs over the joints that the pair's
    stabiliser fixes (module docstring), and the joint returned is an
    optimal one that it fixes; until then, the full LP.
    """
    ctx = t.ctx
    u = t.unit_effect
    minus_u = vscale(-ctx.one(), u)
    na, nb = f.n_outcomes, g.n_outcomes
    ncells = na * nb
    cells = _marginal_cells(na, nb)
    eqs = [({i: 1 for i in range(ncells)}, {}, u)]
    n_blocks = ncells
    bounded = [1 if m.n_outcomes == 2 else m.n_outcomes for m in (f, g)]
    for s, (marginal_cells, m) in enumerate(((cells[:na], f), (cells[na:], g))):
        for sums, e in zip(marginal_cells[:bounded[s]], m.effects):
            eqs.append(({**sums, n_blocks: 1}, {s: minus_u}, e))
            eqs.append(({**sums, n_blocks + 1: -1}, {s: u}, e))
            n_blocks += 2

    def gap_images(swap, pf, pg) -> list:
        # outcome a's bounds on side s are blocks start[s] + 2a and the next; an
        # exchange (only between sides with as many outcomes) sends side s to the
        # other, its blocks and its sup-gap
        start, images = np.array([ncells, ncells + 2 * bounded[0]]), []
        for s, outcomes in enumerate((pf, pg)):
            to = start[s ^ swap]
            for a in range(bounded[s]):
                out = outcomes[:, a]
                # binary: outcome 1's deviation is minus outcome 0's, so its blocks swap
                base, flip = (0, out) if bounded[s] == 1 else (2 * out, 0)
                images += [to + base + (k ^ flip) for k in (0, 1)]
        return images

    p, joint = _joint_lp(t, f, g, "min_mur_linf", n_blocks, eqs, gap_images,
                          objective=[ctx.one()] * 2)
    res = lp_solve(p, ctx)
    if res.status != "optimal":
        raise RuntimeError(f"measurement-error LP ended {res.status}")
    return MurResult(value=res.value, joint=joint(res.point))


def max_fuzz_lambda(t: Theory, f: Measurement, g: Measurement, with_joint: bool = False):
    """Largest fuzzing weight keeping the fuzzified pair jointly measurable.

    One LP in the joint effects and the weight; the marginal constraints
    are affine in both.  Defined for binary measurements.  With
    ``with_joint=True`` also returns the optimal joint measurement.

    Once the group is known, the LP runs over the joints that the pair's
    stabiliser fixes (module docstring), and the joint returned is an
    optimal one that it fixes; until then, the full LP.
    """
    ctx = t.ctx
    if f.n_outcomes != 2 or g.n_outcomes != 2:
        raise ValueError("the fuzzing family is defined for binary measurements")
    _check_dims(t, f.effects + g.effects)  # before vsub raises its own error
    half_u = vscale(1 / ctx.convert(2), t.unit_effect)
    # marginal = lambda e + (1 - lambda) u/2, i.e. marginal + lambda (u/2 - e) = u/2
    eqs = [(cells, {0: vsub(half_u, e)}, half_u)
           for cells, e in zip(_marginal_cells(2, 2), f.effects + g.effects)]
    p, joint = _joint_lp(t, f, g, "max_fuzz_lambda", 4, eqs, objective=[ctx.one()],
                         sense="max", upper=[ctx.one()])
    res = lp_solve(p, ctx)
    if res.status != "optimal":
        raise RuntimeError(f"fuzzing LP ended {res.status}")
    if with_joint:
        return res.value, joint(res.point)
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
