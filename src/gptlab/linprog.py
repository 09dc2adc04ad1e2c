"""Self-contained two-phase simplex solver.

Used for cone membership certificates, joint-measurability feasibility,
measurement-error minimisation, and Lipschitz-ball optimisation.  Exact
pivoting over rationals is needed for cone certificates, so we ship our
own dense tableau simplex instead of binding an external solver.

:func:`lp_solve` and :func:`lp_feasible` share one path: bring the LP to
standard form, run phase 1 (and phase 2 for ``lp_solve``) on the
tableau, map the basic point back and certify it.  The standard form is
one substitution ``x = x0 + S.y`` with ``y >= 0`` (Chvatal 1983, ch. 8):
a lower-bounded variable is ``l + y``, one with only an upper bound is
``u - y``, a free one is ``y+ - y-``, and an upper bound beside a lower
bound becomes a ``<=`` row.  Every nonzero entry of the LP is converted
into the context's scalars once, and the rows are built from those
nonzero terms alone; the certificate checks the point against the
converted rows and bounds.

One tableau serves both scalar modes (:class:`_Tableau`): its rows and
right-hand side sit in one numpy array over one denominator, float64
over 1 in float mode and Python int numerators (object dtype) over a
positive int in exact mode, so a pivot is one rank-1 update instead of
a Python loop per row.  The exact pivot is fraction-free (Edmonds 1967;
Bareiss 1968): every row is scaled by the pivot instead of divided by
it, and the array is then reduced by its gcd.  Price-out, the entering
test and the phase-1 steps are the same code in either mode; the pivot
update and the ratio test have one exact branch each, where ratios
compare as Fractions of the candidate rows.  Exact values leave the
tableau as Fractions, equal to those of Fraction arithmetic.  Pivots
use Dantzig pricing, with Bland's rule after 50 degenerate pivots in a
row: the entering variable has the most negative reduced cost (Dantzig
1963), lowest index on ties, but after ``_DEGENERATE_RUN`` pivots in a
row whose leaving right-hand side is within ``tol`` of zero it is the
lowest index with a negative reduced cost (Bland 1977), until a
nondegenerate pivot.  Ties in the ratio test always break toward the
lowest basis index, so the fallback cannot cycle.  Float LP data must be
finite; a nan or inf raises a ValueError before any pivot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .scalars import Context, FLOAT, dot, numerators, reduced, stacked

LE, EQ, GE = "<=", "==", ">="

_MAX_PIVOTS = 50_000
_DEGENERATE_RUN = 50  # degenerate pivots in a row before Bland's rule takes over


@dataclass
class LinearProgram:
    """min/max c.x subject to rows (coeffs, rel, rhs) and optional var bounds.

    Variables are free unless a lower/upper bound is given.  `lower` and
    `upper` may be None (all free), a scalar applied to every variable, or
    a per-variable sequence where None means unbounded on that side.
    """

    n_vars: int
    objective: Sequence
    sense: str = "min"
    constraints: list = field(default_factory=list)
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
        if len(coeffs) != self.n_vars:
            raise ValueError(f"constraint has {len(coeffs)} coefficients, expected {self.n_vars}")
        if rel not in (LE, EQ, GE):
            raise ValueError(f"unknown relation {rel!r}")
        self.constraints.append((tuple(coeffs), rel, rhs))
        return self

    def _bound(self, which, j):
        b = self.lower if which == "lo" else self.upper
        if b is None:
            return None
        if isinstance(b, (list, tuple)):
            return b[j]
        return b


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

    Rows and right-hand side live in one array ``t`` over one positive
    denominator ``den``: float64 over 1 in float mode, Python int
    numerators (object dtype) in exact mode.  The last column holds the
    right-hand side, and the objective row, numerators over a denominator
    of its own, carries -z in its last entry, so a pivot updates both with
    the rows.  The exact pivot is the integer-preserving update followed
    by a reduction to lowest terms; values leave as Fractions (``rhs``
    and the z of :meth:`run`).
    """

    def __init__(self, rows, rhs, ctx):
        self.t, self.den = stacked([list(row) + [b] for row, b in zip(rows, rhs)], ctx)
        self.exact = ctx.exact
        self.tol = ctx.tol  # entering and pivot tests compare with this
        self.basis = [-1] * len(rows)

    def _value(self, num, den):
        return Fraction(num, den) if self.exact else num

    @property
    def rhs(self):
        return [self._value(b, self.den) for b in self.t[:, -1].tolist()]

    def price_out(self, cost):
        """``(obj, oden)``: the objective row (reduced costs, then -z) for the
        current basis, as numerators over ``oden``."""
        cost, cden = numerators(cost) if self.exact else (cost, 1)
        obj = np.array(cost + [0], dtype=self.t.dtype) * self.den
        for i, bj in enumerate(self.basis):
            cb = cost[bj]
            if cb == 0:
                continue
            obj -= cb * self.t[i]
        return reduced(obj, cden * self.den) if self.exact else (obj, 1)

    def pivot(self, r, c):
        t = self.t
        f = t[:, c].copy()
        f[r] = 0
        nz = np.flatnonzero(f)
        if self.exact:
            # over den * p: row r becomes den t_r, every other row p t_i - t_ic t_r
            p, prow = t[r, c], t[r].copy()
            t *= p
            t[r] = self.den * prow
            t[nz] -= np.outer(f[nz], prow)
            self.t, self.den = reduced(t, self.den * p)
        else:
            t[r] *= 1 / t[r, c]
            t[nz] -= np.outer(f[nz], t[r])
        self.basis[r] = c

    def run(self, cost, nenter):
        """Minimise cost over the current basis, entering only columns below
        `nenter`; returns (status, z)."""
        tol = self.tol
        obj, oden = self.price_out(cost)
        degenerate = 0  # degenerate pivots in a row
        for _ in range(_MAX_PIVOTS):
            negative = np.flatnonzero(~(0 <= obj[:nenter] + tol))
            if not negative.size:
                return "optimal", self._value(obj.item(-1), oden)
            # Dantzig: the most negative reduced cost, lowest index on ties;
            # Bland (the lowest index) after a run of degenerate pivots
            enter = int(negative[0] if degenerate >= _DEGENERATE_RUN
                        else negative[np.argmin(obj[negative])])
            t = self.t
            col = t[:, enter]
            rows = np.flatnonzero(~(col <= tol))
            if not rows.size:
                return "unbounded", self._value(obj.item(-1), oden)
            # exact ratios compare as Fractions of the candidate rows
            ratios = (_fractions if self.exact else np.divide)(t[rows, -1], col[rows])
            tied = rows[ratios == ratios.min()]
            leave = int(min(tied, key=self.basis.__getitem__))
            degenerate = degenerate + 1 if t[leave, -1] <= tol else 0
            self.pivot(leave, enter)
            fobj = obj[enter]
            if self.exact:
                obj, oden = reduced(obj * self.den - fobj * self.t[leave], oden * self.den)
            elif fobj != 0:
                obj -= fobj * self.t[leave]
        raise RuntimeError("simplex exceeded pivot budget (cycling?)")

    # phase-1 steps

    def unit_columns(self, ncols):
        """Per row, the highest of the first `ncols` columns that is the unit
        vector with its 1 in that row, or -1."""
        block = self.t[:, :ncols]
        unit = (block == self.den) & ((block != 0).sum(axis=0) == 1)
        return [int(js[-1]) if js.size else -1 for js in map(np.flatnonzero, unit)]

    def add_artificials(self, need):
        """Append a unit column for each row in `need`, make it basic there,
        and return the new column indices."""
        base = self.t.shape[1] - 1
        art = np.zeros((len(self.basis), len(need)), dtype=self.t.dtype)
        art[need, range(len(need))] = self.den
        self.t = np.hstack([self.t[:, :base], art, self.t[:, base:]])
        for k, i in enumerate(need):
            self.basis[i] = base + k
        return list(range(base, base + len(need)))

    def first_nonzero(self, i, ncols):
        """Lowest of the first `ncols` columns where row i is not zero, or -1."""
        js = np.flatnonzero(~(np.abs(self.t[i, :ncols]) <= self.tol))
        return int(js[0]) if js.size else -1

    def drop(self, drop_rows, ncols):
        """Delete the given rows and every column from `ncols` on."""
        keep = [i for i in range(len(self.basis)) if i not in drop_rows]
        self.t = np.hstack([self.t[keep, :ncols], self.t[keep, -1:]])
        self.basis = [self.basis[i] for i in keep]


_fractions = np.frompyfunc(Fraction, 2, 1)


def _standardize(p: LinearProgram, ctx: Context):
    """The substitution ``x = x0 + S.y`` of the module docstring, with one
    (variable, sign) pair per column of S, a slack per inequality row, and
    rows with a negative right-hand side negated.

    Returns (rows, rhs, cost, recover, const, ncols, data): recover maps a
    standard point y back to x, const is the objective offset, and data is
    (constraints, lower, upper) converted, which :func:`_certify` checks.
    """
    zero, one, conv = ctx.zero(), ctx.one(), ctx.convert
    lower, upper = ([None if v is None else conv(v) for v in b] if isinstance(b, (list, tuple))
                    else [None if b is None else conv(b)] * p.n_vars for b in (p.lower, p.upper))
    x0 = [ub if lb is None else lb for lb, ub in zip(lower, upper)]  # None: free
    # one (variable, sign) pair per column of S: l + y, u - y, or y+ - y-
    cols = [(j, s) for j, (lb, ub) in enumerate(zip(lower, upper))
            for s in ((1,) if lb is not None else (-1,) if ub is not None else (1, -1))]
    var_cols = [[] for _ in range(p.n_vars)]
    for k, (j, s) in enumerate(cols):
        var_cols[j].append((k, s))

    obj = list(map(conv, p.objective))
    if p.sense == "max":
        obj = [-c for c in obj]
    elif p.sense != "min":
        raise ValueError(f"unknown sense {p.sense!r}")
    cost = [obj[j] if s > 0 else -obj[j] for j, s in cols]
    const = zero
    for cj, x0j in zip(obj, x0):
        if x0j is not None:
            const += cj * x0j

    # each row as its nonzero (variable, coefficient) terms, converted once;
    # the converted rows that _certify checks hold the context's zero elsewhere
    constraints, sparse = [], []
    for coeffs, rel, rhs in p.constraints:
        terms = [(j, a) for j, raw in enumerate(coeffs) if raw != 0 and (a := conv(raw))]
        row = [zero] * p.n_vars
        for j, a in terms:
            row[j] = a
        b = conv(rhs)
        constraints.append((row, rel, b))
        sparse.append((terms, rel, b))
    sparse += [([(j, one)], LE, ub) for j, (lb, ub) in enumerate(zip(lower, upper))
               if lb is not None and ub is not None]
    nslack = sum(rel != EQ for _, rel, _ in sparse)
    rows, rhs, slack = [], [], len(cols)
    for terms, rel, b in sparse:
        row = [zero] * (len(cols) + nslack)
        for j, a in terms:  # ascending j
            for k, s in var_cols[j]:
                row[k] = a if s > 0 else -a
            if x0[j] is not None:
                b -= a * x0[j]
        if rel != EQ:
            row[slack] = one if rel == LE else -one
            slack += 1
        if b < 0:
            row, b = [-v for v in row], -b
        rows.append(row)
        rhs.append(b)

    if not ctx.exact and not all(map(math.isfinite, chain(cost, (const,), rhs, *rows))):
        raise ValueError("LP objective, constraints and bounds must be finite")

    def recover(y):
        x = list(x0)
        for (j, s), v in zip(cols, y):
            x[j] = v if x[j] is None else x[j] + v if s > 0 else x[j] - v
        return tuple(x)

    return (rows, rhs, cost + [zero] * nslack, recover, const, len(cols) + nslack,
            (constraints, lower, upper))


def _phase1(tab, nstruct: int, ctx: Context) -> str:
    """Install a basis: slack columns where possible, artificials elsewhere."""
    need_artificial = []
    for i, found in enumerate(tab.unit_columns(nstruct)):
        if found >= 0:
            tab.basis[i] = found
        else:
            need_artificial.append(i)
    if not need_artificial:
        return "optimal"
    art_cols = tab.add_artificials(need_artificial)
    cost = [ctx.zero()] * nstruct + [ctx.one()] * len(art_cols)
    status, zval = tab.run(cost, nstruct)  # artificials never re-enter
    if status != "optimal":
        raise RuntimeError("phase 1 cannot be unbounded")
    if ctx.gt(-zval, 0):  # min sum of artificials > 0
        return "infeasible"
    # drive leftover artificials out of the basis
    art_set = set(art_cols)
    drop_rows = []
    for i in range(len(tab.basis)):
        if tab.basis[i] in art_set:
            piv = tab.first_nonzero(i, nstruct)
            if piv >= 0:
                tab.pivot(i, piv)
            else:
                drop_rows.append(i)  # redundant row
    tab.drop(drop_rows, nstruct)
    return "optimal"


def _certify(p: LinearProgram, data, x, ctx: Context):
    """Substitute the reported point into every constraint and bound of
    ``data``, the LP as converted by :func:`_standardize`."""
    constraints, lower, upper = data
    slack_tol = 100 * ctx.tol
    # rows [a | b] times the point [x | 0]: a running sum of the products
    # gives every a.x, added in index order as dot adds; in exact mode ints
    # over den**2, compared with b's numerators scaled to the same denominator
    arr, den = stacked([[*coeffs, b] for coeffs, _, b in constraints] + [[*x, 0]], ctx)
    ax = np.add.accumulate(arr[:-1] * arr[-1], axis=1)[:, -1].tolist()
    for (coeffs, rel, b), v, bv in zip(constraints, ax, (arr[:-1, -1] * den).tolist()):
        if not (v <= bv + slack_tol if rel == LE else
                v >= bv - slack_tol if rel == GE else abs(v - bv) <= slack_tol):
            raise RuntimeError(f"certification failed: {dot(coeffs, x)} {rel} {b}")
    for j, (lb, ub, xj) in enumerate(zip(lower, upper, x)):
        if lb is not None and not xj >= lb - slack_tol:
            raise RuntimeError(f"certification failed: bound x[{j}] >= {p._bound('lo', j)}")
        if ub is not None and not xj <= ub + slack_tol:
            raise RuntimeError(f"certification failed: bound x[{j}] <= {p._bound('up', j)}")


def _solve(p: LinearProgram, ctx: Context, optimise: bool) -> tuple:
    """(status, value, x): phase 1 on the standard form of p, then phase 2
    when `optimise`; an optimal or feasible x is certified."""
    rows, rhs, cost, recover, const, nstruct, data = _standardize(p, ctx)
    status, z, y = "optimal", ctx.zero(), [ctx.zero()] * nstruct
    if rows:
        tab = _Tableau(rows, rhs, ctx)
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
    """Two-phase simplex on the standard form of p, with Dantzig pricing
    and Bland's rule after 50 degenerate pivots in a row.

    Bounds are substituted away (``x = x0 + S.y``, ``y >= 0``; see
    :func:`_standardize`).  An optimal point is checked by substituting
    it back into every constraint and bound; the optimal value and an
    infeasible or unbounded verdict are not certified.
    """
    return LpResult(*_solve(p, ctx, optimise=True))


def lp_feasible(p: LinearProgram, ctx: Context = FLOAT) -> FeasibilityResult:
    """Phase-1 feasibility test on the standard form of p, with a witness
    point when feasible; the witness is checked like an optimum of
    :func:`lp_solve`, and the objective must still be finite in float mode."""
    status, _value, x = _solve(p, ctx, optimise=False)
    return FeasibilityResult(status == "optimal", x)
