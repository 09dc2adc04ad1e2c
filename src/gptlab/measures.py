"""Width and error measures for outcome distributions and measurements.

Two preparation-side measures (overall width at a confidence level,
minimum localization error) and three measurement-error measures (error
bar width, the Lipschitz-ball expectation distance, and the worst-case
per-outcome probability gap).

Every measure is taken in the outcome metric that each measurement
carries (``model.FiniteMetricSpace``, re-exported here); a measure of
two measurements uses the reference's metric and needs one outcome set.

Widths are infima over ball diameters; on a finite metric space the ball
composition only changes at diameters 0 and 2*d(x, a), so the infimum is
attained on that finite candidate set and is computed exactly.  The
metric keeps its candidates, and the balls of every point at a candidate
as index sets (``FiniteMetricSpace.ball_rows``), built when first read.
A width is then read off a width profile, one ball mass per candidate
(:func:`width_profile` for a distribution, :func:`error_bar_profile` for
a measurement against an ideal one): it is the first candidate whose
mass reaches 1 - eps (:func:`needed_mass`, :func:`width_index`).  A
profile is a lazy iterator, so a one-shot width builds no ball row past
the candidate it returns, and a profile kept as a tuple answers every
eps.  Ball masses are added in index order from zero, as ``scalars.dot``
adds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linprog import GE, LE, LinearProgram, lp_solve
from .model import FiniteMetricSpace, Measurement, Theory, effect_eval, in_state_space, prob_table
from .scalars import Context, FLOAT, dot


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities aligned with the points of a finite metric space."""

    metric: FiniteMetricSpace
    probs: tuple

    def __post_init__(self):
        object.__setattr__(self, "probs", tuple(self.probs))

    def max_prob(self):
        return max(self.probs)


def distribution(t: Theory, m: Measurement, omega, check_state: bool = True) -> OutcomeDistribution:
    """Outcome statistics of the measurement on a state."""
    if check_state and not in_state_space(t, omega):
        raise ValueError("omega is not a state of the theory")
    return OutcomeDistribution(
        metric=m.metric, probs=tuple(effect_eval(t, e, omega) for e in m.effects)
    )


def needed_mass(eps, ctx: Context):
    """``1 - eps`` in the scalars of ``ctx``: the mass a ball must carry at
    confidence ``eps``.  An ``eps`` outside [0, 1] raises ValueError."""
    eps = ctx.convert(eps)
    if not (ctx.ge(eps, 0) and ctx.le(eps, 1)):
        raise ValueError("confidence parameter must lie in [0, 1]")
    return 1 - eps


def ball_mass(probs, ball):
    """The probability of a ball: its entries of ``probs``, added in index order
    from zero on every Python version (``sum`` compensates float rounding from
    3.12 on)."""
    total = 0
    for i in ball:
        total += probs[i]
    return total


def width_index(masses, need, ctx: Context) -> int:
    """Index of the first width candidate whose profile mass is at least ``need``."""
    for c, mass in enumerate(masses):
        if ctx.ge(mass, need):
            return c
    raise RuntimeError("width candidates exhausted; distribution not normalized?")


def width_profile(p: OutcomeDistribution, ctx: Context = FLOAT):
    """Iterator over the largest ball mass of ``p`` at each width candidate of
    its metric, in order."""
    probs = p.probs
    return (max([ball_mass(probs, ball) for ball in row]) for row in p.metric.ball_rows(ctx))


def overall_width(p: OutcomeDistribution, eps, ctx: Context = FLOAT):
    """Smallest ball diameter carrying mass at least 1 - eps."""
    need = needed_mass(eps, ctx)
    return p.metric.width_candidates()[width_index(width_profile(p, ctx), need, ctx)]


def localization_error(p: OutcomeDistribution):
    """One minus the largest outcome probability."""
    return 1 - p.max_prob()


def _shared_metric(f_ideal: Measurement, f_approx: Measurement) -> FiniteMetricSpace:
    if f_ideal.outcomes != f_approx.outcomes:
        raise ValueError("measurements must share one outcome set")
    return f_ideal.metric


def _require_conforming(t: Theory) -> None:
    if t.kind == "polygon" and t.n is not None and t.n % 2 == 0:
        raise ValueError(
            "even polygons must be re-expressed (psi_transform) before "
            "eigenstate-based measures are taken"
        )


def error_bar_profile(t: Theory, f_approx: Measurement, f_ideal: Measurement):
    """Iterator over the smallest ball mass that ``f_approx`` gives around an
    ideal outcome, on the vertices of that outcome's eigenstate face, at each
    width candidate in order.

    The faces are where the ideal effects are one; the approximating effects
    are evaluated on the face vertices only.  An outcome with an empty face
    signals a non-ideal reference measurement and raises ValueError.
    """
    ctx = t.ctx
    _require_conforming(t)
    metric = _shared_metric(f_ideal, f_approx)
    columns = []  # (outcome, the approximating effects on one of its face vertices)
    for i, (label, row) in enumerate(zip(f_ideal.outcomes, prob_table(t, f_ideal.effects))):
        face = [v for v, p in enumerate(row) if ctx.eq(p, 1)]
        if not face:
            raise ValueError(
                f"outcome {label!r} has no eigenstate among the vertices; "
                "reference measurement is not ideal in this representation"
            )
        columns += [(i, tuple(dot(e, t.vertices[v]) for e in f_approx.effects)) for v in face]
    return (min(ball_mass(col, row[i]) for i, col in columns) for row in metric.ball_rows(ctx))


def error_bar_width(t: Theory, f_approx: Measurement, f_ideal: Measurement, eps):
    """Spread of the approximating outcomes around each ideal outcome.

    For every outcome the constraint is checked on the vertices of that
    outcome's eigenstate face (where its ideal effect is one); the face is
    a polytope face, so vertex checks are exhaustive.  An outcome with an
    empty face signals a non-ideal reference measurement.
    """
    need = needed_mass(eps, t.ctx)
    masses = error_bar_profile(t, f_approx, f_ideal)
    return f_ideal.metric.width_candidates()[width_index(masses, need, t.ctx)]


def werner_distance(t: Theory, f_approx: Measurement, f_ideal: Measurement):
    """Worst expectation gap over the Lipschitz ball of outcome functions.

    The gap is |affine| in the state, so its supremum is attained at a
    vertex.  With two outcomes the ball only constrains
    |h(a_1) - h(a_0)| <= d(a_1, a_0), and the gap on a vertex is the
    Kantorovich-Rubinstein closed form |delta_1| * d(a_1, a_0): exactly the
    value :func:`_lipschitz_ball_lp` returns, zero included when |delta_1|
    is within the tolerance.  Larger outcome sets solve that LP per vertex.
    """
    ctx = t.ctx
    metric = _shared_metric(f_ideal, f_approx)
    k = len(metric.points)
    if k == 1:
        return ctx.zero()
    best = ctx.zero()
    if k == 2:  # only outcome 1's probabilities enter the closed form
        d10 = ctx.convert(metric.dist[1][0])
        for pa, pi in zip(*prob_table(t, (f_approx.effects[1], f_ideal.effects[1]))):
            delta = pa - pi
            value = ctx.zero() if ctx.is_zero(delta) else abs(delta) * d10
            if ctx.gt(value, best):
                best = value
        return best
    approx, ideal = prob_table(t, f_approx.effects), prob_table(t, f_ideal.effects)
    for pa, pi in zip(zip(*approx), zip(*ideal)):
        value = _lipschitz_ball_lp(metric, [a - i for a, i in zip(pa, pi)], ctx)
        if ctx.gt(value, best):
            best = value
    return best


def _lipschitz_ball_lp(metric: FiniteMetricSpace, deltas, ctx: Context):
    """max sum_k h(a_k) deltas[k] over 1-Lipschitz h on the metric.

    The objective is shift-invariant (the deltas sum to zero), so h(a_0)
    is pinned to zero; the ball is symmetric, so the maximum is also the
    largest absolute gap.
    """
    k = len(metric.points)
    # variables: h(a_1) ... h(a_{k-1}); two rows per pair of points, the pairs with a_0
    # first: h(a_i) - h(a_j) <= d(a_i, a_j), then >= -d(a_i, a_j)
    pairs = [(i, 0) for i in range(1, k)] + [(i, j) for i in range(1, k) for j in range(i + 1, k)]
    rows = []
    for i, j in pairs:
        row = [ctx.zero()] * k  # with h(a_0), which is dropped
        row[i], row[j] = ctx.one(), -ctx.one()
        rows += [[*row[1:], metric.dist[i][j]], [*row[1:], -metric.dist[i][j]]]
    p = LinearProgram(n_vars=k - 1, objective=deltas[1:], sense="max")
    res = lp_solve(p.add_block(rows, [LE, GE] * len(pairs)), ctx)
    if res.status != "optimal":
        raise RuntimeError(f"Lipschitz-ball LP ended {res.status}")
    return res.value


def linf_distance(t: Theory, f_approx: Measurement, f_ideal: Measurement):
    """Largest per-outcome probability gap over all states (vertex maximum)."""
    if f_approx.outcomes != f_ideal.outcomes:
        raise ValueError("measurements must share one outcome set")
    best = t.ctx.zero()
    for ra, ri in zip(prob_table(t, f_approx.effects), prob_table(t, f_ideal.effects)):
        for pa, pi in zip(ra, ri):
            best = max(best, abs(pa - pi))
    return best


@dataclass(frozen=True)
class MinLeSum:
    value: object
    argmin: tuple


def min_le_sum(t: Theory, f: Measurement, g: Measurement) -> MinLeSum:
    """Minimum over states of LE(omega^F) + LE(omega^G).

    Each localization error is one minus a maximum of affine functions,
    hence concave; a concave sum attains its minimum at a vertex.
    """
    best, arg = None, None
    pf, pg = prob_table(t, f.effects), prob_table(t, g.effects)
    for v, cf, cg in zip(t.vertices, zip(*pf), zip(*pg)):
        s = (1 - max(cf)) + (1 - max(cg))
        if best is None or s < best:
            best, arg = s, v
    return MinLeSum(value=best, argmin=arg)
