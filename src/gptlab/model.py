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

A measurement carries a metric on its outcomes, which the widths and
distances of ``measures`` are taken in: a :class:`FiniteMetricSpace`
whose points are the outcomes, in order, the discrete metric unless one
is given.  ``Measurement`` checks that structure when it is built;
``measurement_violations`` is the one check of everything else, the
metric axioms included.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Optional

import numpy as np

from .cones import Cone, LinealityError, dual_cone
from .scalars import (
    Context,
    EXACT,
    FLOAT,
    InnerProduct,
    dot,
    identity,
    mat_vec,
    ordered_matmul,
    reduced,
    stacked,
    transpose,
    vadd,
)

if TYPE_CHECKING:
    from .symmetry import SymmetryGroup

def _read_only(a: np.ndarray) -> np.ndarray:
    """`a`, which a write now raises ValueError on, as ``SymmetryGroup.nums``."""
    a.flags.writeable = False
    return a


def _through(maps, v) -> tuple:
    """``v`` through each matrix by ``mat_vec``; exact entries meet a float matrix as
    floats, rounded once here as each product (``float * float(Fraction)``) rounds them."""
    for m in maps:
        if v and isinstance(m[0][0], float) and not isinstance(v[0], float):
            v = tuple(map(float, v))
        v = mat_vec(m, v)
    return v


@dataclass(frozen=True)
class Coordinates:
    """A change of coordinates that keeps every probability: ``steps`` holds pairs
    ``(M, M^-1)`` in the order they apply; states move by each ``M``, and effects,
    measurements and joints by each ``M^-T``, so every ``e . omega`` is kept.  Each
    step is one ``mat_vec`` per vector, and no step returns the vector as it is."""

    steps: tuple = ()

    @classmethod
    def demoting(cls, t: "Theory") -> "Coordinates":
        """The float identity for an exact theory (each entry rounds once); none for a float one."""
        one = identity(t.dim, FLOAT)
        return cls(((one, one),) if t.ctx.exact else ())

    @cached_property
    def _effect_maps(self) -> tuple:
        return tuple(transpose(inv) for _m, inv in self.steps)

    @cached_property
    def inverse(self) -> "Coordinates":
        """The record that undoes this one: the steps reversed, each ``(M^-1, M)``."""
        return Coordinates(tuple((inv, m) for m, inv in reversed(self.steps)))

    def then(self, other: "Coordinates") -> "Coordinates":
        """This record followed by ``other``."""
        return Coordinates(self.steps + other.steps)

    def state(self, omega) -> tuple:
        return _through([m for m, _inv in self.steps], omega)

    def effect(self, e) -> tuple:
        return _through(self._effect_maps, e)

    def measurement(self, m):
        return replace(m, effects=tuple(map(self.effect, m.effects)))

    def joint(self, j):
        return replace(j, effects=tuple(tuple(map(self.effect, row)) for row in j.effects))

    def theory(self, t: "Theory", group, **fields) -> "Theory":
        """``t`` with its vertices mapped as states, its unit effect as an effect and
        ``fields`` replaced (``canonicalized`` False unless given), keeping ``group``."""
        out = replace(t, vertices=tuple(map(self.state, t.vertices)),
                      unit_effect=self.effect(t.unit_effect), **{"canonicalized": False, **fields})
        object.__setattr__(out, "group_cache", group)
        object.__setattr__(out, "coordinates", self)
        return out


@dataclass(frozen=True)
class Theory:
    """A polytopic state space with its unit effect.  Frozen covers the value fields only:
    ``facet_table``, ``group_cache``, ``lp_runs``, ``pair_records`` and ``coordinates`` are
    per-instance slots, which ``replace`` does not copy; the caches fill on first use from
    ``vertices``, which are kept as tuples, as ``unit_effect`` is."""

    name: str
    vertices: tuple
    unit_effect: tuple
    ctx: Context
    kind: str = "custom"  # "classical" | "polygon" | "polygon-psi" | "custom"
    n: Optional[int] = None  # polygon side count / classical N
    canonicalized: bool = False
    # the automorphism group, kept by ``with_group`` or by the first
    # ``symmetry.automorphism_group`` call; ``replace`` never copies it
    group_cache: Optional["SymmetryGroup"] = field(default=None, init=False, repr=False,
                                                   compare=False)
    # ``compat``'s LPs of any kind (joint measurability, MUR, fuzzing) run on this
    # instance, counted up to 2: the second one seeks the group (``compat._over_orbits``)
    lp_runs: int = field(default=0, init=False, repr=False, compare=False)
    # ``compat``'s symmetry reduction per measurement pair, once the LPs run over orbits:
    # ``(f.n_outcomes, f.effects + g.effects)`` -> the pair's stabiliser, its action on
    # the facet rays and, per LP kind, its orbit numbering (``compat._pair_orbits``); one
    # record per pair seen, for the instance's life
    pair_records: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # the record that made this theory from the one ``Coordinates.theory`` was given
    coordinates: Coordinates = field(default=Coordinates(), init=False, repr=False,
                                     compare=False)

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(tuple(v) for v in self.vertices))
        object.__setattr__(self, "unit_effect", tuple(self.unit_effect))

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
    def facet_table(self) -> tuple:
        """``(rays, den, tight)``: the facets of the positive cone, from one double
        description on first use, kept on this instance; it needs no group.  The rows
        of ``rays / den`` are the inward facet normals, which generate the effect cone,
        scaled so that ``r . omega_M = 1`` (``omega_M`` the vertex average), in the form
        ``scalars.stacked`` gives: Python ints over one denominator, or float64 over 1.
        Every facet sign check and compat LP reads them.  ``tight[j, i]``: facet ``j``
        holds vertex ``i``.  Both arrays are read-only.  Raises ValueError when the
        vertices do not span the space."""
        ctx = self.ctx
        try:
            dual = dual_cone(self.cone, self.inner, ctx)
        except LinealityError as exc:
            raise ValueError(f"the state space of theory {self.name!r} in R^{self.dim} "
                             f"has no facet description: {exc}") from exc
        (normals, _), (verts, vden) = stacked(dual.generators, ctx), stacked(self.vertices, ctx)
        total = np.array(functools.reduce(vadd, verts))[:, None]  # n_vertices omega_M, times vden
        sums, tight = ordered_matmul(normals, total), ctx.is_zero(ordered_matmul(normals, verts.T))
        if ctx.exact:
            den = math.lcm(*sums.ravel().tolist())
            rays, den = reduced(normals * (self.n_vertices * vden * (den // sums)), den)
        else:
            rays, den = normals * (self.n_vertices / sums), 1
        return _read_only(rays), den, _read_only(tight)

    def with_group(self, group) -> "Theory":
        """A copy with no coordinate record that keeps ``group`` as its automorphism group."""
        return Coordinates().theory(self, group, canonicalized=self.canonicalized)


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Finitely many outcome labels with a metric between them.

    Frozen covers ``points`` and ``dist``.  The width candidates and, per
    :class:`Context` and candidate, the balls of every point
    (:meth:`ball_rows`) are per-instance caches, built on first use as
    ``Theory.facet_table`` is, which ``replace`` does not copy.
    """

    points: tuple
    dist: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "dist", tuple(tuple(row) for row in self.dist))

    @classmethod
    def discrete(cls, points, scale=1) -> "FiniteMetricSpace":
        k = len(points)
        return cls(points, tuple(tuple(0 if i == j else scale for j in range(k)) for i in range(k)))

    @classmethod
    def line(cls, points) -> "FiniteMetricSpace":
        k = len(points)
        return cls(points, tuple(tuple(abs(i - j) for j in range(k)) for i in range(k)))

    def index(self, label) -> int:
        """Position of ``label`` among the points; an unknown label raises ValueError."""
        try:
            return self.points.index(label)
        except ValueError:
            raise ValueError(f"{label!r} is not a point of the metric on {self.points!r}") from None

    def validate(self, ctx: Context = FLOAT) -> None:
        """Raise ValueError naming the first failed metric axiom."""
        k = len(self.points)
        if len(self.dist) != k or any(len(r) != k for r in self.dist):
            raise ValueError("distance matrix shape does not match points")
        for i, p in enumerate(self.points):
            if self.points.index(p) != i:  # index would find only the first
                raise ValueError(f"point {p!r} is repeated")
        for i in range(k):
            if not ctx.is_zero(self.dist[i][i]):
                raise ValueError("nonzero self-distance")
            for j in range(k):
                if not ctx.eq(self.dist[i][j], self.dist[j][i]):
                    raise ValueError("distance matrix is not symmetric")
                if i != j and not ctx.gt(self.dist[i][j], 0):
                    raise ValueError("distinct points at non-positive distance")
        for i in range(k):
            for j in range(k):
                for l in range(k):
                    if not ctx.le(self.dist[i][j], self.dist[i][l] + self.dist[l][j]):
                        raise ValueError("triangle inequality fails")

    def ball(self, a, width, ctx: Context) -> tuple:
        """Indices of points within width/2 of the label ``a``, ascending."""
        return self._ball_at(self.index(a), width, ctx)

    def _ball_at(self, ia: int, width, ctx: Context) -> tuple:
        half = width / 2
        return tuple(j for j in range(len(self.points)) if ctx.le(self.dist[ia][j], half))

    def width_candidates(self) -> tuple:
        """{0} plus the doubled pairwise distances, ascending."""
        return self._candidates

    @cached_property
    def _candidates(self) -> tuple:
        if not self.points:
            raise ValueError("a metric with no points has no width candidates")
        vals = {0 * self.dist[0][0]}
        for row in self.dist:
            for v in row:
                vals.add(2 * v)
        return tuple(sorted(vals))

    def ball_rows(self, ctx: Context):
        """Iterator over the ball rows at the width candidates, in order: the
        row at candidate ``c`` holds, for each point ``i``,
        ``ball(points[i], width_candidates()[c], ctx)``.

        Every width on this metric is a candidate (the ball composition only
        changes there), so widths and ball masses read these rows instead of
        comparing distances again.  Each row is built when first reached and
        kept per context: a reader that stops at an early candidate builds no
        later row, and all rows together hold at most C * k**2 indices for k
        points and C <= k(k-1)/2 + 1 candidates.
        """
        rows, k = self._rows.setdefault(ctx, []), len(self.points)
        for c, w in enumerate(self._candidates):
            if c == len(rows):
                rows.append(tuple(self._ball_at(i, w, ctx) for i in range(k)))
            yield rows[c]

    @cached_property
    def _rows(self) -> dict:
        return {}


def outcome_metric(metric: Optional[FiniteMetricSpace], outcomes: tuple) -> FiniteMetricSpace:
    """``metric``, or the discrete metric on ``outcomes`` when it is None;
    a metric on other points than the outcomes raises ValueError."""
    metric = metric or FiniteMetricSpace.discrete(outcomes)
    if metric.points != outcomes:
        raise ValueError(f"metric points {metric.points!r} are not the outcomes {outcomes!r}")
    return metric


@dataclass(frozen=True)
class Measurement:
    """Labelled effects summing to the unit effect, plus an outcome metric.

    The metric's points are the outcomes, in order; ``metric=None`` means
    the discrete metric on them.  The metric axioms are checked by
    :func:`measurement_violations`, not here.
    """

    outcomes: tuple
    effects: tuple
    metric: Optional[FiniteMetricSpace] = None

    def __post_init__(self):
        if len(self.outcomes) != len(self.effects):
            raise ValueError("outcomes and effects must align")
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        object.__setattr__(self, "effects", tuple(tuple(e) for e in self.effects))
        object.__setattr__(self, "metric", outcome_metric(self.metric, self.outcomes))

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

    The facets are the rays of :attr:`Theory.facet_table`, which a positive
    scale leaves on the same side; both tests compare with the context tolerance.
    """
    ctx = t.ctx
    if not ctx.eq(dot(t.unit_effect, omega), 1):
        return False
    return all(ctx.ge(dot(r, omega), 0) for r in t.facet_table[0].tolist())


def is_valid_effect(t: Theory, e) -> bool:
    """0 <= e(omega) <= 1 on every vertex; enough by convexity."""
    ctx = t.ctx
    return all(ctx.ge(p, 0) and ctx.le(p, 1) for p in prob_table(t, [e])[0])


def is_zero_effect(t: Theory, e) -> bool:
    return all(t.ctx.is_zero(a) for a in e)


def measurement_violations(t: Theory, m: Measurement) -> list:
    """Human-readable list of violated measurement invariants (empty = valid).

    An effect of the wrong length is reported alone; a failed metric axiom
    comes last, as ``"metric: ..."``.
    """
    ctx = t.ctx
    if any(len(e) != t.dim for e in m.effects):
        return [f"every effect needs {t.dim} coordinates"]
    problems = []
    if m.n_outcomes < 2:
        problems.append("trivial measurement: fewer than 2 outcomes")
    if m.effects and not ctx.vec_eq(functools.reduce(vadd, m.effects), t.unit_effect):
        problems.append("effects do not sum to the unit effect")
    for label, e, row in zip(m.outcomes, m.effects, prob_table(t, m.effects)):
        if is_zero_effect(t, e):
            problems.append(f"effect for outcome {label!r} is zero")
        elif not all(ctx.ge(p, 0) and ctx.le(p, 1) for p in row):
            problems.append(f"effect for outcome {label!r} is not in the effect space")
    try:
        m.metric.validate(ctx)
    except ValueError as exc:
        problems.append(f"metric: {exc}")
    return problems


def validate_measurement(t: Theory, m: Measurement) -> bool:
    return not measurement_violations(t, m)


def validate_theory(t: Theory) -> None:
    """Check the structural invariants; raises ValueError on the first failure.

    Once the unit effect is one on every vertex, the vertices lie on the
    hyperplane ``u . x = 1``, which misses the origin, so their affine hull has
    dimension d - 1 exactly when they span R^d: ``Theory.facet_table`` decides
    that, and raises a ValueError naming the theory when they do not.

    Vertex i fails when another vertex lies on every facet that i lies on.
    Those facets cut out the least face that holds i, and that face holds a
    second vertex exactly when i is not extreme or is listed twice (a second
    vertex on i's ray is the same point, as both lie on the hyperplane).  The
    incidence is the facet table's; the lowest failing vertex is reported.
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
    tight = t.facet_table[2]
    for i in range(t.n_vertices):
        if tight[tight[:, i]].all(axis=0).sum() > 1:
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


@functools.cache
def psi_coordinates(n: int) -> Coordinates:
    """The stretch of the even n-gon, kept per side count: states by
    ``diag(r, r, 1)``, effects by ``diag(1/r, 1/r, 1)``, ``r`` the polygon radius."""
    r = polygon_radius(n)
    s = 1.0 / r
    return Coordinates(((((r, 0.0, 0.0), (0.0, r, 0.0), (0.0, 0.0, 1.0)),
                         ((s, 0.0, 0.0), (0.0, s, 0.0), (0.0, 0.0, 1.0))),))


def psi_transform(t: Theory) -> Theory:
    """Re-express an even polygon: states stretched, effects shrunk.

    Probabilities are preserved because the state map and the effect map
    are contragredient; the result's ``coordinates`` undo it by ``inverse``.
    """
    if t.n is None or t.n % 2 != 0:
        raise ValueError("the re-expression is defined for even polygons only")
    if t.kind != "polygon":
        raise ValueError("the re-expression expects a raw polygon")
    return psi_coordinates(t.n).theory(t, t.group_cache, name=t.name + "-psi", kind="polygon-psi")


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
    return psi_transform(make_polygon(n)) if kind == "polygon-psi" else make_polygon(n)


def theory_to_float(t: Theory) -> Theory:
    """Demote an exact theory to float mode (idempotent)."""
    if not t.ctx.exact:
        return t
    return Coordinates.demoting(t).theory(t, None, ctx=FLOAT, canonicalized=t.canonicalized)


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
    return Fraction(x) if isinstance(x, (str, int)) else float(x)


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
    if t.vertices and int(data["dim"]) != t.dim:  # before the double description
        raise ValueError("declared dim does not match vertex length")
    validate_theory(t)
    if t.kind != "custom" and not _is_builtin(t):
        raise ValueError(
            f"theory {t.name!r} declares kind {t.kind!r} with n={t.n!r}, but it is not that "
            f"built-in theory (kinds {', '.join(BUILTIN_KINDS)}; vertices, unit effect and "
            "mode must match)"
        )
    return t


def save_theory(t: Theory, path) -> None:
    with open(path, "w") as fh:
        json.dump(theory_to_dict(t), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_theory(path) -> Theory:
    with open(path) as fh:
        return theory_from_dict(json.load(fh))


def measurement_to_dict(m: Measurement) -> dict:
    return {
        "outcomes": list(m.outcomes),
        "effects": [[_num_to_json(a) for a in e] for e in m.effects],
        "metric": {
            "points": list(m.metric.points),
            "dist": [[_num_to_json(a) for a in row] for row in m.metric.dist],
        },
    }


def measurement_from_dict(data: dict, ctx: Context) -> Measurement:
    def nums(rows) -> list:
        return [[ctx.convert(_num_from_json(a)) for a in row] for row in rows]

    md = data.get("metric")
    return Measurement(
        outcomes=data["outcomes"],
        effects=nums(data["effects"]),
        metric=FiniteMetricSpace(md["points"], nums(md["dist"])) if "metric" in data else None,
    )


def load_measurement(path, ctx: Context) -> Measurement:
    with open(path) as fh:
        return measurement_from_dict(json.load(fh), ctx)


def save_measurement(m: Measurement, path) -> None:
    with open(path, "w") as fh:
        json.dump(measurement_to_dict(m), fh, indent=2, sort_keys=True)
        fh.write("\n")
