"""Pure indecomposable effects and ideal measurements.

In a transitive theory whose cone equals its dual under the invariant
inner product, the pure indecomposable effects are the pure states
rescaled by the common squared norm.  Even polygons are only weakly
self-dual; their effects are handled either in the raw representation
(rotated extreme effects) or after the probability-preserving affine
re-expression that stretches states and shrinks effects, in which the
eigenstate relation holds again.

An ideal measurement assigns each outcome a sum of pure indecomposable
effects, or the unit effect minus such a sum; this is the polytope
analogue of a projection-valued measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    _BATCH_CELLS,
    FiniteMetricSpace,
    Measurement,
    Theory,
    effect_eval,
    in_state_space,
    polygon_radius,
)
from .scalars import (
    Context,
    dot,
    mat_vec,
    narrowed,
    ordered_matmul,
    stacked,
    unstacked,
    vadd,
    vscale,
    vsub,
)
from .symmetry import _coder, is_self_dual


@dataclass(frozen=True)
class IdealMeasurement(Measurement):
    """Measurement whose outcomes carry index-set provenance per the ideal form."""

    provenance: tuple = ()  # per outcome: ("sum" | "complement", frozenset of indices)


def _even_polygon_effects(n: int, r) -> tuple:
    """Pure effects of an even n-gon at angles (2i - 1) pi / n with in-plane
    factor ``r``: the polygon radius in the raw theory, 1 after the stretch."""
    angles = ((2 * i - 1) * math.pi / n for i in range(n))
    return tuple((0.5 * r * math.cos(a), 0.5 * r * math.sin(a), 0.5) for a in angles)


def indecomposable_pure_effects(t: Theory) -> tuple:
    """One pure indecomposable effect per pure state.

    Self-dual theories (classical, odd polygons, canonicalized custom
    theories) use the vertex/norm^2 rule; even polygons use their
    closed-form effect families, raw or re-expressed.
    """
    if t.kind == "polygon-psi":
        return _even_polygon_effects(t.n, 1)
    if t.kind == "polygon" and t.n % 2 == 0:
        return _even_polygon_effects(t.n, polygon_radius(t.n))
    ctx = t.ctx
    norms = [dot(v, v) for v in t.vertices]
    if any(not ctx.eq(nm, norms[0]) for nm in norms[1:]):
        raise ValueError("pure states do not have equal norm; theory is not transitive")
    if not is_self_dual(t, t.inner):
        raise ValueError(
            "no pure-effect rule available: theory is not self-dual under the dot product "
            "and is not an even polygon"
        )
    return tuple(vscale(1 / norms[0], v) for v in t.vertices)


def eigenstate(t: Theory, f, ideal: bool = False):
    """The state f / <u, f>; raises if it leaves the state space.

    With ``ideal=True`` additionally asserts that the effect evaluates to
    one on it, which characterises effects of ideal measurements.
    """
    ctx = t.ctx
    mass = dot(t.unit_effect, f)
    if not ctx.gt(mass, 0):
        raise ValueError("effect has zero mass on the unit effect")
    state = vscale(1 / mass, f)
    if not in_state_space(t, state):
        raise ValueError(
            "f/<u,f> is not a state; the representation is not self-dual "
            "(even polygons must be re-expressed first)"
        )
    if ideal:
        val = effect_eval(t, f, state)
        if not ctx.eq(val, 1):
            raise ValueError(f"effect is not ideal: <f, f/<u,f>> = {val}")
    return state


def fuzzify(t: Theory, m: Measurement, lam) -> Measurement:
    """Mix with uniform trivial noise: lam * f_a + (1-lam)/|A| * u.

    The two-outcome case is the standard fuzzy pair; for more outcomes the
    trivial observable splits the unit effect uniformly.
    """
    ctx = t.ctx
    lam = ctx.convert(lam)
    if not (ctx.ge(lam, 0) and ctx.le(lam, 1)):
        raise ValueError("fuzzing parameter must lie in [0, 1]")
    k = ctx.convert(m.n_outcomes)
    noise = vscale((1 - lam) / k, t.unit_effect)
    effects = tuple(vadd(vscale(lam, e), noise) for e in m.effects)
    return Measurement(outcomes=m.outcomes, effects=effects, metric=m.metric)


# ---------------------------------------------------------------------------
# affine re-expression of even polygons

def psi_matrix(n: int, inverse: bool = False) -> tuple:
    r = polygon_radius(n)
    s = 1.0 / r if inverse else r
    return ((s, 0.0, 0.0), (0.0, s, 0.0), (0.0, 0.0, 1.0))


def psi_transform(t: Theory, inverse: bool = False) -> Theory:
    """Re-express an even polygon: states stretched, effects shrunk.

    Probabilities are preserved because the state map and the effect map
    are contragredient.  ``inverse=True`` undoes the re-expression.
    """
    if t.n is None or t.n % 2 != 0:
        raise ValueError("the re-expression is defined for even polygons only")
    if inverse:
        if t.kind != "polygon-psi":
            raise ValueError("inverse transform expects a re-expressed polygon")
        mat = psi_matrix(t.n, inverse=True)
        new_kind, suffix = "polygon", ""
        name = t.name.removesuffix("-psi")
    else:
        if t.kind != "polygon":
            raise ValueError("forward transform expects a raw polygon")
        mat = psi_matrix(t.n)
        new_kind, suffix = "polygon-psi", "-psi"
        name = t.name + suffix
    return replace(
        t,
        name=name,
        vertices=tuple(mat_vec(mat, v) for v in t.vertices),
        unit_effect=t.unit_effect,  # (0,0,1) is fixed by the stretch
        kind=new_kind,
        canonicalized=False,
    ).with_group(t.group_cache)


def psi_map_effect(e, n: int, inverse: bool = False):
    """Map one effect into (or back from) the re-expressed polygon."""
    mat = psi_matrix(n, inverse=not inverse)  # effects move by the inverse stretch
    return mat_vec(mat, e)


def psi_map_measurement(m: Measurement, n: int, inverse: bool = False) -> Measurement:
    """Map measurement effects into (or back from) the re-expressed polygon."""
    return replace(m, effects=tuple(psi_map_effect(e, n, inverse) for e in m.effects))


def psi_map_joint(j, n: int, inverse: bool = False):
    """Map every cell of a joint measurement into (or back from) the re-expressed polygon."""
    return replace(j, effects=tuple(
        tuple(psi_map_effect(e, n, inverse) for e in row) for row in j.effects
    ))


# ---------------------------------------------------------------------------
# enumeration

def _valid_sums(pures, verts, one, ctx: Context) -> tuple:
    """``(sums, sets)``: every valid nonzero effect ``sum_{i in S} e_i``, one row
    each, in order of ``(len(S), sorted(S))``, and the index sets ``S``.

    Effects and vertices are numerators (see ``enumerate_ideal_measurements``),
    so an effect is at most one on a vertex when its product is at most
    ``one``.  The sets grow breadth first, each valid set by every index above
    its last; vertex values of a sum are monotone in S (pure effects are
    nonnegative on states), so supersets of an invalid sum are pruned.
    """
    n = len(pures)
    level, sets = pures, np.arange(n)[:, None]
    out_sums, out_sets = [], []
    while len(level):
        ok = ctx.le(ordered_matmul(level, verts.T), one).all(axis=1)
        level, sets = level[ok], sets[ok]
        out_sums.append(level)
        out_sets += sets.tolist()
        rows, cols = np.nonzero(np.arange(n) > sets[:, -1:])
        level, sets = level[rows] + pures[cols], np.column_stack((sets[rows], cols))
    return np.concatenate(out_sums), out_sets


def enumerate_ideal_measurements(t: Theory, max_outcomes: int) -> tuple:
    """All ideal measurements with at most ``max_outcomes`` outcomes, an integer.

    Each effect is a valid nonzero sum of pure indecomposable effects or
    the unit effect minus one; families must sum to the unit effect.
    Relabelings are collapsed by sorting the effects by their keys, the
    codes of their coordinates (``symmetry._coder``); the output is ordered by
    length, then by those keys.  Every measurement with k outcomes shares
    one discrete metric.

    The search runs on numerators: effects over one common denominator and
    vertices over another, int64 where ``scalars.narrowed`` proves that no
    sum or product overflows, Python ints otherwise, and the floats
    themselves in float mode.  A vertex value is then an ordered product of
    numerators, the sum ``prob_table`` forms, over the product of the two
    denominators, and the search adds, compares and keys no Fraction.  It
    grows the multisets of candidates breadth first, one array step per
    outcome count, as ``symmetry._search_group`` grows its partial maps,
    on at most ``model._BATCH_CELLS`` cells at a time.  The candidates
    become scalars once, by ``scalars.unstacked``, after the search.
    """
    if int(max_outcomes) != max_outcomes:
        raise ValueError(f"max_outcomes must be an integer, not {max_outcomes!r}")
    max_outcomes = int(max_outcomes)
    if max_outcomes < 2:
        return ()
    ctx = t.ctx
    pures = indecomposable_pure_effects(t)
    effects, eden = stacked(list(pures) + [t.unit_effect], ctx)
    verts, vden = stacked(t.vertices, ctx)
    # a pool vector is a sum of at most len(pures) rows of effects, or u minus one,
    # and a remainder is u minus at most max_outcomes of them: bounding their vertex
    # values so bounds their entries too, as some vertex numerator is at least 1
    effects, verts = narrowed(effects, verts,
                              t.dim * (len(pures) + 1) * (max_outcomes + 1))
    pures, u = effects[:-1], effects[-1]
    one = eden * vden  # the numerator of a vertex value of one
    sums, sets = _valid_sums(pures, verts, one, ctx)

    # one candidate per key, sums before complements; only valid effects (in
    # [0, 1] on every vertex, enough by convexity) enter the search, which
    # tracks the remainder's vertex values as they decrease
    pool = np.concatenate((sums, u - sums))
    nonzero = np.flatnonzero(~ctx.is_zero(pool).all(axis=1))
    keys, code = _coder(pool[nonzero], ctx)
    order = np.lexsort(keys.T[::-1])  # stable: the first of equal keys comes first
    head = np.ones(len(order), dtype=bool)
    head[1:] = (keys[order[1:]] != keys[order[:-1]]).any(axis=1)
    first = np.sort(order[head])
    vals = ordered_matmul(pool[nonzero[first]], verts.T)
    valid = (ctx.ge(vals, 0) & ctx.le(vals, one)).all(axis=1)
    kept, keys, vals = nonzero[first[valid]], keys[first[valid]], vals[valid]
    cands = pool[kept]
    by_key = {key: i for i, key in enumerate(map(tuple, keys.tolist()))}

    # the multisets, breadth first: nondecreasing candidate indices, with the
    # remainder u - sum and its vertex values
    chosen, rest = np.zeros((1, 0), dtype=np.intp), u[None]
    rest_vals = ordered_matmul(rest, verts.T)
    found = []
    step = max(1, _BATCH_CELLS // max(1, vals.size))
    for level in range(max_outcomes):
        if level:
            zero = ctx.is_zero(rest).all(axis=1)
            if level >= 2:
                found.append(chosen[zero])
            chosen, rest, rest_vals = chosen[~zero], rest[~zero], rest_vals[~zero]
        if level == max_outcomes - 1:  # one slot left: the remainder must be a candidate
            last = np.array([by_key.get(key, -1) for key in map(tuple, code(rest).tolist())],
                            dtype=np.intp)
            ok = last >= chosen[:, -1]
            found.append(np.column_stack((chosen[ok], last[ok])))
            break
        start = chosen[:, -1:] if level else np.zeros((1, 1), dtype=np.intp)
        parts = []
        for lo in range(0, len(chosen), step):  # at most _BATCH_CELLS cells at a time
            new_vals = rest_vals[lo:lo + step, None] - vals
            ok = ctx.ge(new_vals, 0).all(axis=2) & (np.arange(len(cands)) >= start[lo:lo + step])
            r, c = np.nonzero(ok)
            parts.append((np.column_stack((chosen[lo + r], c)), rest[lo + r] - cands[c],
                          new_vals[r, c]))
        if not parts:
            break
        chosen, rest, rest_vals = (np.concatenate(arrays) for arrays in zip(*parts))

    # each measurement's effects by key, the measurements by length, then keys
    by_rank = np.lexsort(keys.T[::-1])
    rank = np.argsort(by_rank)
    values = list(map(tuple, unstacked(cands, eden, ctx).tolist()))
    tags = [("sum", frozenset(sets[i])) if i < len(sets) else
            ("complement", frozenset(sets[i - len(sets)])) for i in kept.tolist()]
    out = []
    for group in found:
        k = group.shape[1]
        ranks = np.sort(rank[group], axis=1)
        metric = FiniteMetricSpace.discrete(tuple(range(k)))
        for row in by_rank[ranks[np.lexsort(ranks.T[::-1])]].tolist():
            out.append(IdealMeasurement(
                outcomes=tuple(range(k)),
                effects=tuple(values[i] for i in row),
                metric=metric,
                provenance=tuple(tags[i] for i in row),
            ))
    return tuple(out)


def binary_ideal_measurement(t: Theory, index: int) -> IdealMeasurement:
    """The two-outcome ideal measurement built on one pure effect."""
    pures = indecomposable_pure_effects(t)
    e = pures[index % len(pures)]
    u_minus = vsub(t.unit_effect, e)
    return IdealMeasurement(
        outcomes=(0, 1),
        effects=(e, u_minus),
        provenance=(("sum", frozenset({index % len(pures)})), ("complement", frozenset({index % len(pures)}))),
    )


def perpendicular_ideal_pair(t: Theory) -> tuple:
    """Two binary ideal measurements with orthogonal in-plane directions.

    Needs a polygon with side count divisible by four; the base effect
    sits at angle pi/n and its partner a quarter turn away.
    """
    if t.kind not in ("polygon", "polygon-psi") or t.n is None:
        raise ValueError("perpendicular pairs are defined for polygon theories")
    n = t.n
    if n % 4 != 0:
        raise ValueError("side count must be a multiple of 4")
    f = binary_ideal_measurement(t, 1)
    g = binary_ideal_measurement(t, 1 + n // 4)
    return f, g
