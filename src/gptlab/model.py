"""GPT theories: state spaces, effects, measurements, built-in models.

A theory is a polytopic state space given by its pure states (vertices)
in R^(N+1), together with the unit effect.  Built-in constructors cover
classical simplices (exact rational mode) and regular polygon theories
(float mode, since the vertex coordinates involve cos/sin).

Effects are plain coordinate tuples that meet states through the natural
dual pairing, the dot product of coordinates; ``effect_eval`` evaluates
one on a state.  Extrema over states of affine or concave functions of
the outcome probabilities sit on the vertices, so the measures and
validity checks read ``prob_table``: every effect of a list on every
vertex.  An inner product enters only to state self-duality
(``symmetry.is_self_dual``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Optional

from .cones import Cone, LinealityError, affine_hull_check, dual_cone
from .scalars import (
    Context,
    EXACT,
    FLOAT,
    InnerProduct,
    dot,
    float_vec,
    ordered_matmul,
    rank,
    stacked,
    vadd,
)

if TYPE_CHECKING:
    from .measures import FiniteMetricSpace
    from .symmetry import SymmetryGroup


@dataclass(frozen=True)
class Theory:
    """A polytopic state space with its unit effect."""

    name: str
    vertices: tuple
    unit_effect: tuple
    ctx: Context
    kind: str = "custom"  # "classical" | "polygon" | "polygon-psi" | "custom"
    n: Optional[int] = None  # polygon side count / classical N
    canonicalized: bool = False
    group_cache: Optional["SymmetryGroup"] = field(default=None, repr=False, compare=False)

    @property
    def dim(self) -> int:
        """Ambient dimension N+1."""
        return len(self.vertices[0])

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def inner(self) -> InnerProduct:
        """The Euclidean inner product, whose Gram matrix is the identity."""
        return InnerProduct.euclidean(self.dim, self.ctx)

    @property
    def cone(self) -> Cone:
        """Positive cone: rays over the pure states."""
        return Cone(self.vertices)

    @cached_property
    def facet_normals(self) -> tuple:
        """Inward facet normals of the positive cone (its H-representation).

        These are the extreme rays of the Euclidean dual cone, found by
        double description on first use and kept on this instance.
        Raises ValueError when the vertices do not span the ambient space.
        """
        try:
            dual = dual_cone(self.cone, self.inner, self.ctx)
        except LinealityError as exc:
            raise ValueError(
                f"the state space of theory {self.name!r} in R^{self.dim} "
                f"has no facet description: {exc}"
            ) from exc
        return dual.generators

    def with_group(self, group) -> "Theory":
        return replace(self, group_cache=group)


@dataclass(frozen=True)
class Measurement:
    """Labelled effects summing to the unit effect, plus an outcome metric."""

    outcomes: tuple
    effects: tuple
    metric: Optional["FiniteMetricSpace"] = None

    def __post_init__(self):
        if len(self.outcomes) != len(self.effects):
            raise ValueError("outcomes and effects must align")
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        object.__setattr__(self, "effects", tuple(tuple(e) for e in self.effects))

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)


def effect_eval(t: Theory, e, omega):
    """Probability of the effect on a state: the dot product ``e . omega``."""
    if len(e) != t.dim or len(omega) != t.dim:
        raise ValueError("dimension mismatch")
    return dot(e, omega)


def prob_table(t: Theory, effects) -> tuple:
    """``P[i][v]``: the probability of ``effects[i]`` on vertex ``v``.

    Each entry is ``e . v``, the arithmetic of :func:`effect_eval`, so it
    equals ``effect_eval(t, effects[i], t.vertices[v])`` bit for bit.
    An effect of the wrong length raises ValueError.
    """
    return tuple(tuple(dot(e, v) for v in t.vertices) for e in effects)


def in_state_space(t: Theory, omega) -> bool:
    """omega is normalised (u . omega = 1) and on the inner side of every facet.

    The facet normals are cached on the theory (:attr:`Theory.facet_normals`);
    both tests compare with the context tolerance.
    """
    ctx = t.ctx
    if not ctx.eq(dot(t.unit_effect, omega), 1):
        return False
    return all(ctx.ge(dot(n, omega), 0) for n in t.facet_normals)


def is_valid_effect(t: Theory, e) -> bool:
    """0 <= e(omega) <= 1 on every vertex; enough by convexity."""
    ctx = t.ctx
    return all(ctx.ge(p, 0) and ctx.le(p, 1) for p in prob_table(t, [e])[0])


def is_zero_effect(t: Theory, e) -> bool:
    return all(t.ctx.is_zero(a) for a in e)


def measurement_violations(t: Theory, m: Measurement) -> list:
    """Human-readable list of violated measurement invariants (empty = valid)."""
    ctx = t.ctx
    problems = []
    if m.n_outcomes < 2:
        problems.append("trivial measurement: fewer than 2 outcomes")
    if not m.effects:
        return problems
    total = m.effects[0]
    for e in m.effects[1:]:
        total = vadd(total, e)
    if not ctx.vec_eq(total, t.unit_effect):
        problems.append("effects do not sum to the unit effect")
    for label, e, row in zip(m.outcomes, m.effects, prob_table(t, m.effects)):
        if is_zero_effect(t, e):
            problems.append(f"effect for outcome {label!r} is zero")
        elif not all(ctx.ge(p, 0) and ctx.le(p, 1) for p in row):
            problems.append(f"effect for outcome {label!r} is not in the effect space")
    if m.metric is not None and m.metric.points != m.outcomes:
        problems.append(f"metric points {m.metric.points!r} are not the outcomes {m.outcomes!r}")
    return problems


def validate_measurement(t: Theory, m: Measurement) -> bool:
    return not measurement_violations(t, m)


def validate_theory(t: Theory) -> None:
    """Check the structural invariants; raises ValueError on the first failure.

    Vertex i is extreme when no other vertex equals it and the facet
    normals tight at it have rank d - 1: a ray of a pointed cone is
    extreme exactly then, and the unit effect is one on every vertex, so a
    second vertex on the same ray is the same point.  One facet-by-vertex
    product, on numerators in exact mode and summed in index order as
    ``dot`` does in float mode, gives every tight normal; the lowest
    failing vertex is reported.
    """
    ctx = t.ctx
    if not t.vertices:
        raise ValueError("theory has no vertices")
    dims = {len(v) for v in t.vertices}
    if dims != {t.dim} or len(t.unit_effect) != t.dim:
        raise ValueError("inconsistent ambient dimensions")
    for v, p in zip(t.vertices, prob_table(t, [t.unit_effect])[0]):
        if not ctx.eq(p, 1):
            raise ValueError(f"unit effect does not evaluate to 1 on vertex {v}")
    hull = affine_hull_check(t.vertices, ctx)
    if not hull.origin_outside:
        raise ValueError("affine hull of the state space contains the origin")
    if hull.dim != t.dim - 1:
        raise ValueError(
            f"affine dimension {hull.dim} does not match ambient dimension {t.dim}"
        )
    normals, _ = stacked(t.facet_normals, ctx)
    verts, _ = stacked(t.vertices, ctx)
    tight = ctx.is_zero(ordered_matmul(normals, verts.T))  # tight[k, i]: n_k . v_i = 0
    same = ctx.eq(verts[:, None, :], verts).all(axis=-1)
    for i in range(t.n_vertices):
        if same[i].sum() > 1 or rank(normals[tight[:, i]].tolist(), ctx) != t.dim - 1:
            raise ValueError(f"vertex {i} is a convex combination of the others")


# ---------------------------------------------------------------------------
# built-in theories

def make_classical(n_levels: int) -> Theory:
    """Classical theory on N+1 levels: the N-dimensional standard simplex."""
    if n_levels < 1:
        raise ValueError("classical theory needs N >= 1")
    d = n_levels + 1
    ctx = EXACT
    vertices = tuple(
        tuple(Fraction(1) if j == i else Fraction(0) for j in range(d)) for i in range(d)
    )
    u = tuple(Fraction(1) for _ in range(d))
    return Theory(
        name=f"classical-{n_levels}",
        vertices=vertices,
        unit_effect=u,
        ctx=ctx,
        kind="classical",
        n=n_levels,
    )


def polygon_radius(n: int) -> float:
    return math.sqrt(1.0 / math.cos(math.pi / n))


def make_polygon(n: int) -> Theory:
    """Regular polygon theory with n sides (float mode: cos/sin coordinates)."""
    if n < 3:
        raise ValueError("polygon theory needs n >= 3")
    r = polygon_radius(n)
    vertices = tuple(
        (r * math.cos(2 * math.pi * i / n), r * math.sin(2 * math.pi * i / n), 1.0)
        for i in range(n)
    )
    return Theory(
        name=f"polygon-{n}",
        vertices=vertices,
        unit_effect=(0.0, 0.0, 1.0),
        ctx=FLOAT,
        kind="polygon",
        n=n,
    )


def make_disc_approx(m: int) -> Theory:
    """Finite inner approximation of the disc theory by an m-gon (m >= 8)."""
    if m < 8:
        raise ValueError("disc approximation needs m >= 8")
    t = make_polygon(m)
    return replace(t, name=f"disc-approx-{m}")


BUILTIN_KINDS = ("classical", "polygon", "polygon-psi")


def builtin_theory(kind: str, n: int) -> Theory:
    """The classical theory on n + 1 levels, the n-gon, or the re-expressed n-gon."""
    if kind not in BUILTIN_KINDS:
        raise ValueError(f"unknown built-in theory kind {kind!r}")
    if kind == "classical":
        return make_classical(n)
    from .ideal import psi_transform

    return psi_transform(make_polygon(n)) if kind == "polygon-psi" else make_polygon(n)


def theory_to_float(t: Theory) -> Theory:
    """Demote an exact theory to float mode (idempotent)."""
    if not t.ctx.exact:
        return t
    return replace(
        t,
        vertices=tuple(float_vec(v) for v in t.vertices),
        unit_effect=float_vec(t.unit_effect),
        ctx=FLOAT,
        group_cache=None,
    )


# ---------------------------------------------------------------------------
# JSON interchange
#
# Theory files: {"name": str, "dim": int, "vertices": [[num|"p/q", ...], ...],
#                "unit_effect": [num|"p/q", ...], optionally "kind": str, "n": int}
# Entries that are ints or "p/q" strings load exactly; any bare float makes
# the whole theory run in float mode.  "kind" and "n" name a built-in theory,
# whose closed-form pure effects and re-expression then apply; a file may
# name one only if it holds exactly that theory's vertices and unit effect,
# in its mode.

def _is_builtin(t: Theory) -> bool:
    try:
        ref = builtin_theory(t.kind, t.n)
    except (ValueError, TypeError):
        return False
    return (ref.ctx, ref.vertices, ref.unit_effect) == (t.ctx, t.vertices, t.unit_effect)


def _num_to_json(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return float(x)


def _num_from_json(x):
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, int):
        return Fraction(x)
    return float(x)


def theory_to_dict(t: Theory) -> dict:
    out = {
        "name": t.name,
        "dim": t.dim,
        "vertices": [[_num_to_json(a) for a in v] for v in t.vertices],
        "unit_effect": [_num_to_json(a) for a in t.unit_effect],
    }
    if _is_builtin(t):
        out["kind"], out["n"] = t.kind, t.n
    return out


def theory_from_dict(data: dict) -> Theory:
    raw_vertices = [[_num_from_json(a) for a in v] for v in data["vertices"]]
    raw_u = [_num_from_json(a) for a in data["unit_effect"]]
    entries = [a for v in raw_vertices for a in v] + list(raw_u)
    exact = all(isinstance(a, Fraction) for a in entries)
    ctx = EXACT if exact else FLOAT
    t = Theory(
        name=data.get("name", "theory"),
        vertices=tuple(ctx.vec(v) for v in raw_vertices),
        unit_effect=ctx.vec(raw_u),
        ctx=ctx,
        kind=data.get("kind", "custom"),
        n=data.get("n"),
    )
    if int(data["dim"]) != t.dim:
        raise ValueError("declared dim does not match vertex length")
    if t.kind != "custom" and not _is_builtin(t):
        raise ValueError(
            f"theory {t.name!r} declares kind {t.kind!r} with n={t.n!r}, but it is not that "
            f"built-in theory (kinds {', '.join(BUILTIN_KINDS)}; vertices, unit effect and "
            "mode must match)"
        )
    validate_theory(t)
    return t


def save_theory(t: Theory, path) -> None:
    with open(path, "w") as fh:
        json.dump(theory_to_dict(t), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_theory(path) -> Theory:
    with open(path) as fh:
        return theory_from_dict(json.load(fh))


def measurement_to_dict(m: Measurement) -> dict:
    out = {
        "outcomes": list(m.outcomes),
        "effects": [[_num_to_json(a) for a in e] for e in m.effects],
    }
    if m.metric is not None:
        out["metric"] = {
            "points": list(m.metric.points),
            "dist": [[_num_to_json(a) for a in row] for row in m.metric.dist],
        }
    return out


def measurement_from_dict(data: dict, ctx: Context) -> Measurement:
    from .measures import FiniteMetricSpace

    metric = None
    if "metric" in data:
        md = data["metric"]
        metric = FiniteMetricSpace(
            points=tuple(md["points"]),
            dist=tuple(tuple(ctx.convert(_num_from_json(a)) for a in row) for row in md["dist"]),
        )
    return Measurement(
        outcomes=tuple(data["outcomes"]),
        effects=tuple(tuple(ctx.convert(_num_from_json(a)) for a in e) for e in data["effects"]),
        metric=metric,
    )


def load_measurement(path, ctx: Context) -> Measurement:
    with open(path) as fh:
        return measurement_from_dict(json.load(fh), ctx)


def save_measurement(m: Measurement, path) -> None:
    with open(path, "w") as fh:
        json.dump(measurement_to_dict(m), fh, indent=2, sort_keys=True)
        fh.write("\n")
