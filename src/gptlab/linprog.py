"""Self-contained two-phase simplex solver.

Used for cone membership certificates, joint-measurability feasibility,
measurement-error minimisation, and Lipschitz-ball optimisation.  Exact
pivoting over rationals is needed for cone certificates, so we ship our
own dense tableau simplex instead of binding an external solver.

:func:`lp_solve` and :func:`lp_feasible` share one path: bring the LP to
standard form, run phase 1 (and phase 2 for ``lp_solve``) on the
tableau, map the basic point back and certify it against the LP.  The
standard form is one substitution ``x = x0 + S.y``, ``y >= 0`` (Chvatal
1983, ch. 8): a lower-bounded variable is ``l + y``, one with only an
upper bound ``u - y``, a free one ``y+ - y-``, and an upper bound beside
a lower one becomes a ``<=`` row.  It runs on arrays: ``[A | b]``, the
objective and the bounds are converted once, into float64 or into int
numerators over one denominator, S is a signed column gather, and the
offsets ``b - a_j x0_j`` are taken over the nonzero ``a_j`` in ascending
j, so every float has the bits of scalar arithmetic in that order.

One tableau serves both scalar modes (:class:`_Tableau`): rows and
right-hand side sit in one numpy array over one denominator, float64
over 1 or Python int numerators (object dtype) over a positive int, so
a pivot is one rank-1 update.  The float update is masked to the rows
with a nonzero multiplier, which keeps their signed zeros; the exact one
is fraction-free (Edmonds 1967; Bareiss 1968), scaling every row by the
pivot and reducing the array by its gcd, and exact ratios compare as
Fractions.  Exact values leave as Fractions, equal to those of Fraction
arithmetic.  Dantzig pricing (1963) enters the argmin of the reduced
costs, lowest index on ties, when it is below ``-tol``; after
``_DEGENERATE_RUN`` = 50 pivots in a row whose leaving right-hand side
is within ``tol`` of zero, Bland's rule (1977) enters the lowest index
with a negative reduced cost until a nondegenerate pivot.  Ratio-test
ties break toward the lowest basis index, so the fallback cannot cycle.
Float LP data must be finite; a nan or inf raises ValueError first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .scalars import Context, FLOAT, numerators, reduced, stacked

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

    Rows and right-hand side (arrays or nested sequences of scalars) live in one
    array ``t`` over one positive denominator ``den``, float64 over 1 or Python int
    numerators (object dtype), the right-hand side last; the objective row has a
    denominator of its own and -z last.  Exact values leave as Fractions."""

    def __init__(self, rows, rhs, ctx):
        self.t, self.den = stacked(np.column_stack((rows, rhs)), ctx)
        self.exact = ctx.exact
        self.tol = ctx.tol  # entering and pivot tests compare with this
        self.basis = [-1] * len(rhs)

    @property
    def rhs(self):
        return [_scalar(b, self.den, self.exact) for b in self.t[:, -1].tolist()]

    def price_out(self, cost):
        """``(obj, oden)``: the objective row (reduced costs, then -z) for the
        current basis, as numerators over ``oden``."""
        cost, cden = numerators(cost) if self.exact else (cost, 1)
        obj = np.array(cost + [0], dtype=self.t.dtype) * self.den
        for i, cb in enumerate(cost[bj] for bj in self.basis):
            if cb != 0:
                obj -= cb * self.t[i]
        return reduced(obj, cden * self.den) if self.exact else (obj, 1)

    def pivot(self, r, c):
        t = self.t
        f = t[:, c].copy()
        f[r] = 0
        if self.exact:
            # over den * p: row r becomes den t_r, every other row p t_i - t_ic t_r
            nz = f.nonzero()[0]
            p, prow = t[r, c], t[r].copy()
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
        tol = self.tol
        obj, oden = self.price_out(cost)
        degenerate = 0  # degenerate pivots in a row
        for _ in range(_MAX_PIVOTS):
            # Dantzig: the most negative reduced cost, lowest index on ties; Bland
            # (the lowest index of a negative one) after a run of degenerate pivots
            head = obj[:nenter]
            bland = degenerate >= _DEGENERATE_RUN
            enter = int((~(0 <= head + tol)).argmax() if bland else head.argmin()) if nenter else 0
            if not nenter or 0 <= head[enter] + tol:
                return "optimal", _scalar(obj.item(-1), oden, self.exact)
            t = self.t
            col = t[:, enter]
            rows = (~(col <= tol)).nonzero()[0]
            if not rows.size:
                return "unbounded", _scalar(obj.item(-1), oden, self.exact)
            # exact ratios compare as Fractions of the candidate rows
            ratios = (_fraction if self.exact else np.divide)(t[rows, -1], col[rows])
            leave = min(rows[ratios == ratios.min()].tolist(), key=self.basis.__getitem__)
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
        return ((unit * np.arange(1, ncols + 1)).max(axis=1, initial=0) - 1).tolist()

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


_fraction = np.frompyfunc(Fraction, 2, 1)


def _fractions(nums, den):
    """``nums / den`` as an array of Fractions, built for the nonzero entries only."""
    out, nz = np.full(nums.shape, Fraction(0), dtype=object), nums != 0
    out[nz] = _fraction(nums[nz], den)
    return out


def _scalar(num, den, exact: bool):
    return Fraction(num, den) if exact else num


def _bounds(b, n: int):
    """A `lower` or `upper` spec as n values, 0 where there is no bound, and
    the mask of the variables that have one."""
    if not isinstance(b, (list, tuple)):
        return [0 if b is None else b] * n, np.full(n, b is not None)
    vals = np.array(b, dtype=object)
    given = vals != None  # noqa: E711 (elementwise)
    vals[~given] = 0
    return vals.tolist(), given


def _converted(raw, ctx: Context):
    """``(array, den)``: the rows ``raw`` converted once, as :func:`stacked` gives them;
    only values that it does not read (such as 'p/q' strings) go through ``ctx.convert``."""
    if not ctx.exact:
        try:
            return np.array(raw, dtype=float), 1
        except ValueError:
            pass
    flat = np.fromiter(chain.from_iterable(raw), dtype=object, count=len(raw) * len(raw[0]))
    if not ctx.exact or not set(map(type, flat)) <= {int, Fraction}:
        flat = np.frompyfunc(ctx.convert, 1, 1)(flat)
    return stacked(flat.reshape(len(raw), -1), ctx)


@np.errstate(invalid="ignore", over="ignore")  # a nan or inf result raises below
def _standardize(p: LinearProgram, ctx: Context):
    """The substitution ``x = x0 + S.y`` of the module docstring, with one (variable,
    sign) pair per column of S, a slack per inequality row, and rows with a negative
    right-hand side negated.  Returns (rows, rhs, cost, recover, const, ncols, data):
    rows and rhs are arrays of the context's scalars, recover maps a standard point y
    back to x, const is the objective offset, and data is the LP as converted, which
    :func:`_certify` checks."""
    if p.sense not in ("min", "max"):
        raise ValueError(f"unknown sense {p.sense!r}")
    n, m = p.n_vars, len(p.constraints)
    (lo, has_lo), (up, has_up) = _bounds(p.lower, n), _bounds(p.upper, n)
    # [A | b], the objective and the bounds over one den; the products of two
    # of them, and so the standard form, are over den**2
    arr, den = _converted([[*coeffs, rhs] for coeffs, _, rhs in p.constraints]
                          + [[*p.objective, 0], [*lo, 0], [*up, 0]], ctx)
    obj, lo, up = arr[m:, :n]
    obj, x0, fixed = -obj if p.sense == "max" else obj, np.where(has_lo, lo, up), has_lo | has_up
    # one (variable, sign) pair per column of S: l + y, u - y, or y+ - y-
    width = 2 - fixed
    var, first = np.repeat(np.arange(n), width), np.cumsum(width) - width
    sign = np.ones(len(var), dtype=int)
    sign[np.concatenate((first[has_up & ~has_lo], first[~fixed] + 1))] = -1
    cost = obj[var] * sign
    const = np.add.accumulate(np.concatenate(([0], obj[fixed] * x0[fixed]))).item(-1)

    # an upper bound beside a lower bound is the row y <= u - l
    both = np.flatnonzero(has_lo & has_up)
    ab = np.vstack([arr[:m], np.zeros((len(both), n + 1), dtype=arr.dtype)])
    ab[range(m, m + len(both)), both] = den
    ab[m:, -1] = up[both]
    rels = [rel for _, rel, _ in p.constraints] + [LE] * len(both)
    ineq = [i for i, rel in enumerate(rels) if rel != EQ]
    slack = np.zeros((len(rels), len(ineq)), dtype=arr.dtype)
    slack[ineq, range(len(ineq))] = [den * den if rels[i] == LE else -den * den for i in ineq]
    # b - a_j x0_j over the nonzero a_j, ascending j (subtracting +0 changes no bit)
    a = ab[:, fixed.nonzero()[0]]
    a = np.multiply(a, x0[fixed], out=np.zeros_like(a), where=a != 0)
    rhs = np.subtract.accumulate(np.hstack([ab[:, -1:] * den, a]), axis=1)[:, -1]
    s = ab[:, var] * sign + 0  # + 0: a zero coefficient of y- is 0.0, not -0.0
    block = np.hstack([s * den, slack, rhs[:, None]])
    np.negative(block, out=block, where=(rhs < 0)[:, None])

    if not ctx.exact and not np.isfinite(np.concatenate((block.ravel(), cost, [const]))).all():
        raise ValueError("LP objective, constraints and bounds must be finite")
    if ctx.exact:
        block, cost, x0 = _fractions(block, den * den), _fractions(cost, den), _fractions(x0, den)
        const = Fraction(const, den * den)
    x0 = np.where(fixed, x0, None).tolist()  # None: free
    cols = list(zip(var.tolist(), sign.tolist()))

    def recover(y):
        x = list(x0)
        for (j, s), v in zip(cols, y):
            x[j] = v if x[j] is None else x[j] + v if s > 0 else x[j] - v
        return tuple(x)

    return (block[:, :-1], block[:, -1], cost.tolist() + [ctx.zero()] * len(ineq), recover,
            const, len(cols) + len(ineq), (arr, den, rels[:m], has_lo, has_up))


def _phase1(tab, nstruct: int, ctx: Context) -> str:
    """Install a basis: slack columns where possible, artificials elsewhere."""
    tab.basis = tab.unit_columns(nstruct)
    need_artificial = [i for i, found in enumerate(tab.basis) if found < 0]
    if not need_artificial:
        return "optimal"
    art_cols = tab.add_artificials(need_artificial)
    cost = [ctx.zero()] * nstruct + [ctx.one()] * len(art_cols)
    status, zval = tab.run(cost, nstruct)  # artificials never re-enter
    if status != "optimal":
        raise RuntimeError("phase 1 cannot be unbounded")
    if ctx.gt(-zval, 0):  # min sum of artificials > 0
        return "infeasible"
    # drive leftover artificials out of the basis; a row with nothing to pivot on is redundant
    art_set, drop_rows = set(art_cols), []
    for i in range(len(tab.basis)):
        if tab.basis[i] in art_set:
            piv = tab.first_nonzero(i, nstruct)
            if piv >= 0:
                tab.pivot(i, piv)
            else:
                drop_rows.append(i)
    tab.drop(drop_rows, nstruct)
    return "optimal"


def _certify(p: LinearProgram, data, x, ctx: Context):
    """Substitute the reported point into every constraint and bound of
    ``data``, the LP as converted by :func:`_standardize`."""
    arr, den, rels, has_lo, has_up = data
    m, slack_tol = len(rels), 100 * ctx.tol
    # rows [a | b] times [x | 0]: running sums give every a.x, added in index order as
    # dot adds; exact ones are ints over den * xden, compared with b scaled to that
    xs, xden = numerators(x) if ctx.exact else (list(x), 1)
    xv = np.array(xs + [0], dtype=arr.dtype)
    ax = np.add.accumulate(arr[:m] * xv, axis=1)[:, -1].tolist()
    for i, (rel, v, bv) in enumerate(zip(rels, ax, (arr[:m, -1] * xden).tolist())):
        if not (v <= bv + slack_tol if rel == LE else
                v >= bv - slack_tol if rel == GE else abs(v - bv) <= slack_tol):
            raise RuntimeError(f"certification failed: {_scalar(v, den * xden, ctx.exact)} "
                               f"{rel} {_scalar(arr.item(i, -1), den, ctx.exact)}")
    xv = xv[:-1] * den
    low = has_lo & ~(xv >= arr[m + 1, :-1] * xden - slack_tol)
    high = has_up & ~(xv <= arr[m + 2, :-1] * xden + slack_tol)
    for j in np.flatnonzero(low | high)[:1].tolist():
        raise RuntimeError(f"certification failed: bound x[{j}] "
                           + (f">= {p._bound('lo', j)}" if low[j] else f"<= {p._bound('up', j)}"))


def _solve(p: LinearProgram, ctx: Context, optimise: bool) -> tuple:
    """(status, value, x): phase 1 on the standard form of p, then phase 2
    when `optimise`; an optimal or feasible x is certified."""
    rows, rhs, cost, recover, const, nstruct, data = _standardize(p, ctx)
    status, z, y = "optimal", ctx.zero(), [ctx.zero()] * nstruct
    if len(rhs):
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
    """Two-phase simplex on the standard form of p (``x = x0 + S.y``, ``y >= 0``; see
    :func:`_standardize`), with Dantzig pricing and Bland's rule after 50 degenerate
    pivots in a row.  An optimal point is checked by substituting it back into every
    constraint and bound; the optimal value and an infeasible or unbounded verdict
    are not certified."""
    return LpResult(*_solve(p, ctx, optimise=True))


def lp_feasible(p: LinearProgram, ctx: Context = FLOAT) -> FeasibilityResult:
    """Phase-1 feasibility test on the standard form of p, with a witness
    point when feasible; the witness is checked like an optimum of
    :func:`lp_solve`, and the objective must still be finite in float mode."""
    status, _value, x = _solve(p, ctx, optimise=False)
    return FeasibilityResult(status == "optimal", x)
