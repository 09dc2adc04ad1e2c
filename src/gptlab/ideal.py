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

from .model import (
    Measurement,
    Theory,
    effect_eval,
    in_state_space,
    is_valid_effect,
    is_zero_effect,
    polygon_radius,
)
from .scalars import Context, mat_vec, vadd, vscale, vsub
from .symmetry import is_self_dual


@dataclass(frozen=True)
class IdealMeasurement(Measurement):
    """Measurement whose outcomes carry index-set provenance per the ideal form."""

    provenance: tuple = ()  # per outcome: ("sum" | "complement", frozenset of indices)


def polygon_raw_pure_effects(t: Theory) -> tuple:
    """Extreme (pure, indecomposable) effects of a raw polygon theory."""
    n = t.n
    r = polygon_radius(n)
    out = []
    if n % 2 == 0:
        for i in range(n):
            a = (2 * i - 1) * math.pi / n
            out.append((0.5 * r * math.cos(a), 0.5 * r * math.sin(a), 0.5))
    else:
        for i in range(n):
            a = 2 * i * math.pi / n
            s = 1.0 / (1.0 + r * r)
            out.append((s * r * math.cos(a), s * r * math.sin(a), s))
    return tuple(out)


def psi_pure_effects(n: int) -> tuple:
    """Modified pure effects of an even polygon in the re-expressed theory."""
    out = []
    for i in range(n):
        a = (2 * i - 1) * math.pi / n
        out.append((0.5 * math.cos(a), 0.5 * math.sin(a), 0.5))
    return tuple(out)


def indecomposable_pure_effects(t: Theory) -> tuple:
    """One pure indecomposable effect per pure state.

    Self-dual theories (classical, odd polygons, canonicalized custom
    theories) use the vertex/norm^2 rule; even polygons use their
    closed-form effect families, raw or re-expressed.
    """
    if t.kind == "polygon-psi":
        return psi_pure_effects(t.n)
    if t.kind == "polygon" and t.n % 2 == 0:
        return polygon_raw_pure_effects(t)
    ctx = t.ctx
    norms = [t.inner.norm2(v) for v in t.vertices]
    if any(not ctx.eq(nm, norms[0]) for nm in norms[1:]):
        raise ValueError("pure states do not have equal norm; theory is not transitive")
    if not is_self_dual(t, t.inner):
        raise ValueError(
            "no pure-effect rule available: theory is not self-dual under its pairing "
            "and is not an even polygon"
        )
    return tuple(vscale(1 / norms[0], v) for v in t.vertices)


def eigenstate(t: Theory, f, ideal: bool = False):
    """The state f / <u, f>; raises if it leaves the state space.

    With ``ideal=True`` additionally asserts that the effect evaluates to
    one on it, which characterises effects of ideal measurements.
    """
    ctx = t.ctx
    mass = t.inner.pair(t.unit_effect, f)
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
        group_cache=t.group_cache,
    )


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

def _veckey(v, ctx: Context):
    if ctx.exact:
        return tuple(v)
    return tuple(round(float(a), 9) for a in v)


def _valid_sums(t: Theory, pures) -> dict:
    """All valid nonzero effects of the form sum_{i in S} e_i, keyed by S.

    Vertex values of a sum are monotone in S (pure effects are nonnegative
    on states), so supersets of an invalid sum are pruned.
    """
    ctx = t.ctx
    n = len(pures)
    out = {}

    def grow(start: int, idx: frozenset, vec) -> None:
        for i in range(start, n):
            cand = vadd(vec, pures[i]) if vec is not None else pures[i]
            if all(ctx.le(effect_eval(t, cand, v), 1) for v in t.vertices):
                s = idx | {i}
                out[frozenset(s)] = cand
                grow(i + 1, frozenset(s), cand)

    grow(0, frozenset(), None)
    return out


def enumerate_ideal_measurements(t: Theory, max_outcomes: int) -> tuple:
    """All ideal measurements with at most ``max_outcomes`` outcomes.

    Each effect is a valid nonzero sum of pure indecomposable effects or
    the unit effect minus one; families must sum to the unit effect.
    Relabelings are collapsed by sorting the effect coordinate vectors.
    """
    from .measures import FiniteMetricSpace

    if max_outcomes < 2:
        return ()
    ctx = t.ctx
    pures = indecomposable_pure_effects(t)
    sums = _valid_sums(t, pures)
    u = t.unit_effect

    raw_candidates = []  # (tag, indices, vec) in deterministic order
    for s in sorted(sums, key=lambda s: (len(s), sorted(s))):
        raw_candidates.append(("sum", s, sums[s]))
    for s in sorted(sums, key=lambda s: (len(s), sorted(s))):
        comp = vsub(u, sums[s])
        if not is_zero_effect(t, comp):
            raw_candidates.append(("complement", s, comp))
    by_key = {}
    candidates = []
    for cand in raw_candidates:  # dedupe by coordinates, sum form preferred
        key = _veckey(cand[2], ctx)
        if key not in by_key:
            by_key[key] = len(candidates)
            candidates.append(cand)
    # outcome probabilities per candidate; the search tracks the remainder's
    # vertex values, which only decrease as effects are added
    evals = [tuple(effect_eval(t, c[2], v) for v in t.vertices) for c in candidates]
    u_evals = tuple(effect_eval(t, u, v) for v in t.vertices)

    found = {}

    def search(start: int, chosen: list, rest, rest_evals) -> None:
        if chosen and is_zero_effect(t, rest):
            if len(chosen) >= 2:
                _record(chosen)
            return  # nonzero effects cannot extend a zero remainder
        slots = max_outcomes - len(chosen)
        if slots == 0:
            return
        if chosen and slots == 1:
            i = by_key.get(_veckey(rest, ctx))
            if i is not None and i >= start:
                _record(chosen + [candidates[i]])
            return
        for i in range(start, len(candidates)):
            new_evals = tuple(r - e for r, e in zip(rest_evals, evals[i]))
            if any(ctx.lt(v, 0) for v in new_evals):
                continue  # remainder went negative on a vertex; dead end
            search(
                i,
                chosen + [candidates[i]],
                vsub(rest, candidates[i][2]),
                new_evals,
            )

    def _record(chosen: list) -> None:
        order = sorted(range(len(chosen)), key=lambda i: _veckey(chosen[i][2], ctx))
        key = tuple(_veckey(chosen[i][2], ctx) for i in order)
        if key in found:
            return
        effects = tuple(chosen[i][2] for i in order)
        prov = tuple((chosen[i][0], chosen[i][1]) for i in order)
        k = len(effects)
        found[key] = IdealMeasurement(
            outcomes=tuple(range(k)),
            effects=effects,
            metric=FiniteMetricSpace.discrete(tuple(range(k))),
            provenance=prov,
        )

    search(0, [], u, u_evals)
    out = [m for m in found.values() if all(is_valid_effect(t, e) for e in m.effects)]
    out.sort(key=lambda m: (m.n_outcomes, tuple(_veckey(e, ctx) for e in m.effects)))
    return tuple(out)


def binary_ideal_measurement(t: Theory, index: int) -> IdealMeasurement:
    """The two-outcome ideal measurement built on one pure effect."""
    from .measures import FiniteMetricSpace

    pures = indecomposable_pure_effects(t)
    e = pures[index % len(pures)]
    u_minus = vsub(t.unit_effect, e)
    return IdealMeasurement(
        outcomes=(0, 1),
        effects=(e, u_minus),
        metric=FiniteMetricSpace.discrete((0, 1)),
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
