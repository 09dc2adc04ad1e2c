"""Self-contained two-phase simplex solver.

Used for cone membership certificates, joint-measurability feasibility,
measurement-error minimisation, and Lipschitz-ball optimisation.  Exact
pivoting over rationals is needed for cone certificates, so we ship our own
dense tableau simplex instead of binding an external solver.

An LP keeps its rows as blocks ``[A | b]``, each one 2-D array: one that a
builder such as ``cones.cone_lp`` writes in one step, or a row added alone.
:func:`lp_solve` and :func:`lp_feasible` share one path: convert the blocks,
objective and bounds once, into float64 or int numerators over one
denominator; substitute ``x = x0 + S.y``, ``y >= 0`` (Chvatal 1983, ch. 8): a
lower-bounded variable is ``l + y``, one with only an upper bound ``u - y``, a
free one ``y+ - y-``, and an upper bound beside a lower one is a ``<=`` row (S
= I when every variable has a lower bound; offsets ``b - a_j x0_j`` sum in
ascending j, with the bits of scalar arithmetic); run phase 1 (and phase 2 for
``lp_solve``) on the numerators in the tableau; map the basic point back and
certify it.  A scalar lower bound of +0 (every cone LP's) with no right-hand side
-0.0 is ``x = y + 0``: no offsets and no gather in the map back.

One tableau serves both scalar modes (:class:`_Tableau`): the rows and then the
objective row (Chvatal 1983, ch. 2), right-hand side and -z last, in one array
over one denominator, so a pivot is one rank-1 update of every row: masked to
the rows with a nonzero multiplier in float mode, which keeps their signed
zeros, and fraction-free in exact mode (Edmonds 1967; Bareiss 1968), scaling
every row by the pivot and reducing the array by its gcd.  Exact numerators
are int64 while a bound checked before each pivot proves that the pivot's ints
fit, and Python ints from the first pivot where it does not; exact values leave
as Fractions.  A phase-1 artificial is a basis index past the columns, with no
column: its cost of 1 enters only through pricing out, and it never re-enters.
Dantzig pricing (1963) enters the argmin of the reduced costs, lowest index on
ties, when it is below ``-tol``; after ``_DEGENERATE_RUN`` pivots in a row whose
leaving right-hand side is within ``tol`` of zero, Bland's rule (1977) enters
the lowest index with a negative reduced cost until a nondegenerate pivot.
Least ratios compare as floats, or exactly as ``b_k a_j <= b_j a_k`` on the
numerators; ties break toward the lowest basis index, so the fallback cannot
cycle.  Float LP data must be finite; a nan or inf raises ValueError first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .scalars import (Context, FLOAT, int_dtype, max_abs, narrowed, numerators, reduced, stacked,
                      unstacked)

LE, EQ, GE = "<=", "==", ">="

_MAX_PIVOTS = 50_000
_DEGENERATE_RUN = 50  # degenerate pivots in a row before Bland's rule takes over


@dataclass
class LinearProgram:
    """min/max c.x subject to blocks of rows and optional var bounds.

    A block ``(ab, rels, den)`` is the rows ``[A | b] / den`` of the 2-D array `ab`
    of scalars (numbers, or over 1 'p/q' strings), one relation each.
    Variables are free unless bounded: `lower` and `upper` may be None (all free),
    a scalar for every variable, or a per-variable sequence with None unbounded.
    """

    n_vars: int
    objective: Sequence
    sense: str = "min"
    blocks: list = field(default_factory=list)
    lower: object = None
    upper: object = None

    def __post_init__(self):
        if len(self.objective) != self.n_vars:
            raise ValueError(
                f"objective has {len(self.objective)} coefficients, expected {self.n_vars}")
        for name in ("lower", "upper"):
            b = getattr(self, name)
            if isinstance(b, (list, tuple)) and len(b) != self.n_vars:
                raise ValueError(f"{name} has {len(b)} bounds, expected {self.n_vars}")

    def add(self, coeffs, rel, rhs):
        """Append the row ``coeffs . x rel rhs`` as a block of its own."""
        return self.add_block([[*coeffs, rhs]], [rel])

    def add_block(self, ab, rels, den: int = 1):
        """Append the rows ``[A | b] / den`` of `ab`, an array or a list of rows, as one
        array, with the relations `rels`."""
        ab = ab if isinstance(ab, np.ndarray) else np.array(ab, dtype=object)
        if ab.ndim != 2:
            raise ValueError(f"constraint rows must form a 2-D array, not shape {ab.shape}")
        for width in {ab.shape[1]} - {self.n_vars + 1}:
            raise ValueError(f"constraint has {width - 1} coefficients, expected {self.n_vars}")
        for rel in set(rels) - {LE, EQ, GE}:
            raise ValueError(f"unknown relation {rel!r}")
        if len(rels) != len(ab) or type(den) is not int or den < 1:
            raise ValueError(f"{len(ab)} rows need as many relations and a positive int den")
        self.blocks.append((ab, list(rels), den))
        return self

    @property
    def constraints(self) -> list:
        """Every row as ``(coeffs, rel, rhs)``, divided by its block's denominator."""
        return [(tuple(row[:-1]), rel, row[-1]) for ab, rels, den in self.blocks for row, rel in
                zip((ab.astype(object) / Fraction(den) if den > 1 else ab).tolist(), rels)]

    def _bound(self, which, j):
        b = self.lower if which == "lo" else self.upper
        return b[j] if isinstance(b, (list, tuple)) else b


@dataclass(frozen=True)
class LpResult:
    """What `lp_solve` found; value and point are set when the status is optimal."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    value: object = None
    point: Optional[tuple] = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


@dataclass(frozen=True)
class FeasibilityResult:
    """What `lp_feasible` found, with a witness point when feasible."""

    feasible: bool
    witness: Optional[tuple] = None


class _Tableau:
    """Dense simplex tableau in standard form: min c.y, A y = b, y >= 0.

    One array ``t`` over one positive int `den` holds the rows, right-hand side
    last, and then the objective row, reduced costs and -z: float64 over 1, or
    exact numerators.  Those are int64 while ``scalars.int_dtype`` finds that every
    int a pivot forms fits, and Python ints (object dtype) from the first pivot
    that might overflow on; one numpy path serves all three.  A basis index past
    the columns is an artificial, which has no column."""

    def __init__(self, rows, rhs, ctx, den):
        rows = np.asarray(rows)
        t = np.zeros((len(rows) + 1, rows.shape[1] + 1), dtype=rows.dtype)
        t[:-1, :-1], t[:-1, -1] = rows, rhs  # and the objective row, which price_out writes
        self.t, self.den = t.astype(int_dtype(max_abs(t), den)) if ctx.exact else t, den
        self.ctx = ctx  # entering and pivot tests compare with its tol
        self.basis = [-1] * len(rhs)

    @property
    def rhs(self):
        return unstacked(self.t[:-1, -1], self.den, self.ctx).tolist()

    def price_out(self, cost):
        """Write the objective row for `cost` (per column, then per artificial) and
        the current basis into ``t``.  Exact costs price against the rows over
        ``den``; the rows then move to ``den`` times the costs' denominator."""
        t, exact = self.t, self.ctx.exact
        cost, cden = numerators(cost) if exact else (cost, 1)
        dtype = object if exact else t.dtype
        obj = np.array(cost[:t.shape[1] - 1] + [0], dtype=dtype) * self.den
        # minus cb t_i for each basic row with a nonzero cost cb, in row order
        rows = [i for i, bj in enumerate(self.basis) if cost[bj] != 0]
        if rows:
            cb = np.array([cost[self.basis[i]] for i in rows], dtype=dtype)
            obj = np.subtract.accumulate(
                np.concatenate((obj[None], cb[:, None] * t[rows].astype(dtype, copy=False))))[-1]
        if exact:  # a tableau on Python ints stays so
            t = np.vstack((t[:-1].astype(object) * cden, obj))
            dtype = int_dtype(max_abs(t), self.den * cden) if self.t.dtype == np.int64 else object
            self.t, self.den = reduced(t.astype(dtype), self.den * cden)
        else:
            t[-1] = obj

    def pivot(self, r, c):
        t = self.t
        f = t[:, c].copy()
        f[r] = 0
        if self.ctx.exact:
            # over den * p: row r becomes den t_r, every other row p t_i - t_ic t_r,
            # on int64 until a bound on those ints reaches 2^63 (Bareiss, 1968)
            nz = f.nonzero()[0]
            p, prow = int(t[r, c]), t[r].copy()
            if t.dtype == np.int64:
                size = max_abs(prow)
                dtype = int_dtype(abs(p) * max_abs(t) + max_abs(f) * size, self.den * size)
                t, f, prow = (x.astype(dtype, copy=False) for x in (t, f, prow))
            t *= p
            t[r] = self.den * prow
            t[nz] -= np.outer(f[nz], prow)
            self.t, self.den = reduced(t, self.den * p)
        else:  # rows with a zero multiplier are not written, so their -0.0 stay
            t[r] *= 1 / t[r, c]
            np.subtract(t, f[:, None] * t[r], out=t, where=(f != 0)[:, None])
        self.basis[r] = c

    def run(self, cost, nenter):
        """Minimise cost over the current basis, entering only columns below
        `nenter`; returns (status, z)."""
        tol = self.ctx.tol
        self.price_out(cost)
        degenerate = 0  # degenerate pivots in a row
        for _ in range(_MAX_PIVOTS):
            # Dantzig: the most negative reduced cost, lowest index on ties; Bland
            # (the lowest index of a negative one) after a run of degenerate pivots
            t = self.t
            head = t[-1, :nenter]
            bland = degenerate >= _DEGENERATE_RUN
            enter = int((~(0 <= head + tol)).argmax() if bland else head.argmin()) if nenter else 0
            if not nenter or 0 <= head[enter] + tol:
                return "optimal", unstacked(t[-1, -1:], self.den, self.ctx).item()
            col = t[:-1, enter]
            rows = (~(col <= tol)).nonzero()[0]
            if not rows.size:
                return "unbounded", unstacked(t[-1, -1:], self.den, self.ctx).item()
            # the least ratios b_k / a_k; exact ones where b_k a_j <= b_j a_k for every j
            if self.ctx.exact:
                b, a = narrowed(t[rows, -1][:, None], col[rows][None, :], 1)
                least = (b * a <= (b * a).T).all(axis=1)
            else:
                ratios = t[rows, -1] / col[rows]
                least = ratios == ratios.min()
            leave = min(rows[least].tolist(), key=self.basis.__getitem__)
            degenerate = degenerate + 1 if t[leave, -1] <= tol else 0
            self.pivot(leave, enter)
        raise RuntimeError("simplex exceeded pivot budget (cycling?)")

    # phase-1 steps

    def unit_columns(self, ncols):
        """Per row, the highest of the first `ncols` columns that is the unit
        vector with its 1 in that row, or -1."""
        block = self.t[:-1, :ncols]
        unit = (block == self.den) & ((block != 0).sum(axis=0) == 1)
        return ((unit * np.arange(1, ncols + 1)).max(axis=1, initial=0) - 1).tolist()

    def first_nonzero(self, rows, ncols):
        """Per row of `rows`, the lowest of the first `ncols` columns where it is
        not zero, or -1."""
        nonzero = ~(np.abs(self.t[rows, :ncols]) <= self.ctx.tol)
        return np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), -1).tolist()

    def drop(self, drop_rows):
        """Delete the given constraint rows."""
        keep = np.ones(len(self.t), dtype=bool)
        keep[drop_rows] = False
        self.t, self.basis = self.t[keep], [bj for bj, k in zip(self.basis, keep.tolist()) if k]


def _bounds(b, n: int):
    """A `lower` or `upper` spec as a list to convert (0 where unbounded) and the bounded mask."""
    if isinstance(b, (list, tuple)):
        given = [v is not None for v in b]
        return [v if g else 0 for v, g in zip(b, given)], np.array(given, bool)
    return [0 if b is None else b] * n, np.full(n, b is not None)


def _converted(blocks, ctx: Context):
    """``(array, den)``: the rows ``[A | b]`` of `blocks` over one denominator, each block
    converted once by :func:`stacked`, divided by its den if float."""
    parts = []
    for ab, _, den in blocks:
        nums, d = stacked(ab if ctx.exact or den == 1 else ab / den, ctx)
        parts.append((nums, d * den if ctx.exact else 1))
    if len(parts) == 1:
        return parts[0]
    den = math.lcm(*(d for _, d in parts))
    return np.vstack([a if d == den else a * (den // d) for a, d in parts]), den


@np.errstate(invalid="ignore", over="ignore")  # a nan or inf result raises below
def _standardize(p: LinearProgram, ctx: Context):
    """The substitution of the module docstring, a slack per inequality row, and rows
    with a negative right-hand side negated.  Returns (rows, rhs, den, cost, recover,
    const, ncols, data): numerators over den, a map from a standard point y back to x,
    the objective offset, and the LP as converted, which :func:`_certify` checks.
    A scalar lower bound of +0 is ``x = y + 0`` (module docstring)."""
    if p.sense not in ("min", "max"):
        raise ValueError(f"unknown sense {p.sense!r}")
    n, rels = p.n_vars, [rel for _, block_rels, _ in p.blocks for rel in block_rels]
    (lo, has_lo), (up, has_up), m = _bounds(p.lower, n), _bounds(p.upper, n), len(rels)
    plain = isinstance(p.lower, (int, float, Fraction)) and p.lower == 0 and not (
        math.copysign(1, p.lower) < 0)
    # [A | b], the objective and the bounds over one den, products of two over den**2
    if ctx.exact:
        extra = np.array([[*p.objective, 0], lo + [0], up + [0]], dtype=object)
        arr, den = _converted(p.blocks + [(extra, (), 1)], ctx)
        ab, (obj, lo, up) = arr[:m], arr[m:, :n]
    else:
        ab, den = _converted(p.blocks, ctx) if p.blocks else (np.zeros((0, n + 1)), 1)
        obj, lo, up = stacked([p.objective, lo, up], ctx)[0]
    obj = -obj if p.sense == "max" else obj

    # an upper bound beside a lower bound is the row y <= u - l
    both = np.flatnonzero(has_lo & has_up)
    if both.size:
        ab = np.concatenate((ab, np.zeros((len(both), n + 1), dtype=ab.dtype)))
        ab[range(m, m + len(both)), both] = den
        ab[m:, -1], rels = up[both], rels + [LE] * len(both)
    scale, rhs, const, cost, ident, var = 1, ab[:, -1], ctx.zero(), obj, True, range(n)
    negative_zero = not ctx.exact and np.signbit(rhs[rhs == 0]).any()
    if plain and not negative_zero:
        def recover(y):
            return tuple((np.array(y[:n], dtype=ab.dtype) + 0).tolist())
    else:
        x0, fixed = np.where(has_lo, lo, up), has_lo | has_up
        # one (variable, sign) pair per column of S: l + y, u - y, or y+ - y-; S = I if
        # every x >= l
        ident, first = has_lo.all(), np.arange(n)
        var, sign, second, back = first, 1, first, 1  # back: the sign of x's second column
        if not ident:
            width = 2 - fixed
            var, first = np.repeat(first, width), np.cumsum(width) - width
            sign = np.ones(len(var), dtype=int)
            sign[np.concatenate((first[has_up & ~has_lo], first[~fixed] + 1))] = -1
            cost, second = obj[var] * sign, first + ~fixed  # second: y- for a free x, else y
            back = sign[second]
        # b - a_j x0_j and the offset obj_j x0_j over den**2, summed in ascending j, skipping
        # a zero a_j, and a zero x0_j unless some b is -0.0, the one value its signed zero
        # changes
        shift = fixed & ((x0 != 0) | negative_zero)
        if shift.any():
            a = ab[:, np.flatnonzero(shift)]
            a = np.multiply(a, x0[shift], out=np.zeros_like(a), where=a != 0)
            rhs = np.subtract.accumulate(np.hstack([rhs[:, None] * den, a]), axis=1)[:, -1]
            scale = den
            const = np.add.accumulate(np.concatenate(([0], obj[shift] * x0[shift]))).item(-1)
        if ctx.exact:
            x0, const = unstacked(x0, den, ctx), Fraction(const, den**2)

        def recover(y):
            y = np.array(y, dtype=ab.dtype)
            return tuple((np.where(fixed, x0, y[first]) + back * y[second]).tolist())

    s = ab[:, :n] if ident else ab[:, var] * sign
    s = s * scale if ctx.exact else s + 0  # + 0: a zero coefficient is 0.0, not -0.0
    ineq = [i for i, rel in enumerate(rels) if rel != EQ]
    slack = np.zeros((len(rels), len(ineq)), dtype=ab.dtype)
    slack[ineq, range(len(ineq))] = [den * scale if rels[i] == LE else -den * scale for i in ineq]
    block = np.concatenate((s, slack, rhs[:, None]), axis=1)
    np.negative(block, out=block, where=(rhs < 0)[:, None])

    if not ctx.exact and not np.isfinite(np.concatenate((block.ravel(), cost, [const]))).all():
        raise ValueError("LP objective, constraints and bounds must be finite")
    if ctx.exact:
        cost = unstacked(cost, den, ctx)
    return (block[:, :-1], block[:, -1], den * scale, cost.tolist() + [ctx.zero()] * len(ineq),
            recover, const, len(var) + len(ineq), (ab[:m], lo, up, den, rels[:m], has_lo, has_up))


def _phase1(tab, nstruct: int, ctx: Context) -> str:
    """Install a basis: slack columns where possible, artificials elsewhere."""
    tab.basis = tab.unit_columns(nstruct)
    need_artificial = [i for i, found in enumerate(tab.basis) if found < 0]
    if not need_artificial:
        return "optimal"
    for k, i in enumerate(need_artificial):
        tab.basis[i] = nstruct + k  # artificial k: no column, a cost of 1
    cost = [ctx.zero()] * nstruct + [ctx.one()] * len(need_artificial)
    status, zval = tab.run(cost, nstruct)
    if status != "optimal":
        raise RuntimeError("phase 1 cannot be unbounded")
    if ctx.gt(-zval, 0):  # min sum of artificials > 0
        return "infeasible"
    # drive leftover artificials out of the basis, in row order; a row with nothing to
    # pivot on is redundant.  Only a pivot changes the rows, so the rows are searched
    # once, and again after each pivot
    drop_rows, rows = [], [i for i, bj in enumerate(tab.basis) if bj >= nstruct]
    while rows:
        pivots = tab.first_nonzero(rows, nstruct)
        k = next((k for k, piv in enumerate(pivots) if piv >= 0), len(rows))
        drop_rows += rows[:k]
        if k < len(rows):
            tab.pivot(rows[k], pivots[k])
        rows = rows[k + 1:]
    tab.drop(drop_rows)
    return "optimal"


def _certify(p: LinearProgram, data, x, ctx: Context):
    """Substitute the reported point into every constraint and bound of
    ``data``, the LP as converted by :func:`_standardize`."""
    arr, lo, up, den, rels, has_lo, has_up = data
    m, slack_tol = len(rels), 100 * ctx.tol
    # rows [a | b] times [x | 0]: running sums give every a.x, added in index order as
    # dot adds; exact ones are ints over den * xden, compared with b scaled to that
    xs, xden = numerators(x) if ctx.exact else (list(x), 1)
    xv = np.array(xs + [0], dtype=arr.dtype)
    ax = np.add.accumulate(arr[:m] * xv, axis=1)[:, -1]
    for i, (rel, v, bv) in enumerate(zip(rels, ax.tolist(), (arr[:m, -1] * xden).tolist())):
        if not (v <= bv + slack_tol if rel == LE else
                v >= bv - slack_tol if rel == GE else abs(v - bv) <= slack_tol):
            lhs, rhs = unstacked(ax[i:i + 1], den * xden, ctx), unstacked(arr[i, -1:], den, ctx)
            raise RuntimeError(f"certification failed: {lhs.item()} {rel} {rhs.item()}")
    xv = xv[:-1] * den
    low = has_lo & ~(xv >= lo * xden - slack_tol)
    high = has_up & ~(xv <= up * xden + slack_tol)
    for j in np.flatnonzero(low | high)[:1].tolist():
        raise RuntimeError(f"certification failed: bound x[{j}] "
                           + (f">= {p._bound('lo', j)}" if low[j] else f"<= {p._bound('up', j)}"))


def _solve(p: LinearProgram, ctx: Context, optimise: bool) -> tuple:
    """(status, value, x): phase 1 on the standard form of p, then phase 2
    when `optimise`; an optimal or feasible x is certified."""
    rows, rhs, den, cost, recover, const, nstruct, data = _standardize(p, ctx)
    status, z, y = "optimal", ctx.zero(), [ctx.zero()] * nstruct
    if len(rhs):
        tab = _Tableau(rows, rhs, ctx, den)
        if _phase1(tab, nstruct, ctx) == "infeasible":
            return "infeasible", None, None
        if optimise:
            status, z = tab.run(cost, nstruct)
        for bj, value in zip(tab.basis, tab.rhs):
            y[bj] = value
    elif optimise and not all(ctx.ge(c, 0) for c in cost):
        # no rows: y = 0 minimises cost.y over y >= 0 unless some direction improves
        status = "unbounded"
    if status != "optimal":
        return status, None, None
    x = recover(y)
    _certify(p, data, x, ctx)
    value = -z + const
    return status, -value if p.sense == "max" else value, x


def lp_solve(p: LinearProgram, ctx: Context = FLOAT) -> LpResult:
    """Two-phase simplex on the standard form of p (see the module docstring).  An
    optimal point is checked by substituting it back into every constraint and
    bound; the optimal value and an infeasible or unbounded verdict are not."""
    return LpResult(*_solve(p, ctx, optimise=True))


def lp_feasible(p: LinearProgram, ctx: Context = FLOAT) -> FeasibilityResult:
    """Phase-1 feasibility test on the standard form of p, with a witness
    point when feasible; the witness is checked like an optimum of
    :func:`lp_solve`, and the objective must still be finite in float mode."""
    status, _value, x = _solve(p, ctx, optimise=False)
    return FeasibilityResult(status == "optimal", x)
