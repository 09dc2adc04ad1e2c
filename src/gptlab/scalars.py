"""Scalar contexts and small dense linear algebra over rationals or floats.

Every computation in this package runs in one of two scalar modes: exact
rational arithmetic (``fractions.Fraction``) or double precision with an
absolute comparison tolerance.  A :class:`Context` bundles the mode with
its comparison rules so the geometry, LP, and model layers stay agnostic
about which one is active.

Vectors are plain tuples and matrices are tuples of row tuples.  Ambient
dimensions here are tiny (rarely above five), so the helpers are pure
Python and accept Fractions and floats alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence


@dataclass(frozen=True)
class Context:
    """Arithmetic mode: exact rationals, or floats with an absolute tolerance."""

    exact: bool = False
    tol: float = 1e-9

    def __post_init__(self):
        if self.exact and self.tol != 0:
            raise ValueError("exact mode does not take a tolerance")
        if not self.exact and not self.tol > 0:
            raise ValueError("float mode requires tol > 0")

    def convert(self, x):
        """Coerce a number (or 'p/q' string) into this context's scalar type."""
        if self.exact:
            return Fraction(x)
        if isinstance(x, str):
            return float(Fraction(x))
        return float(x)

    def vec(self, xs) -> tuple:
        return tuple(self.convert(x) for x in xs)

    def mat(self, rows) -> tuple:
        return tuple(self.vec(r) for r in rows)

    def zero(self):
        return Fraction(0) if self.exact else 0.0

    def one(self):
        return Fraction(1) if self.exact else 1.0

    def eq(self, a, b) -> bool:
        if self.exact:
            return a == b
        return abs(a - b) <= self.tol

    def is_zero(self, a) -> bool:
        return self.eq(a, 0)

    def le(self, a, b) -> bool:
        if self.exact:
            return a <= b
        return a <= b + self.tol

    def ge(self, a, b) -> bool:
        return self.le(b, a)

    def lt(self, a, b) -> bool:
        return not self.le(b, a)

    def gt(self, a, b) -> bool:
        return not self.le(a, b)

    def sign(self, a) -> int:
        """-1, 0, +1 with zero widened by the tolerance in float mode."""
        if self.is_zero(a):
            return 0
        return 1 if a > 0 else -1

    def vec_eq(self, x, y) -> bool:
        return len(x) == len(y) and all(self.eq(a, b) for a, b in zip(x, y))

    def mat_eq(self, a, b) -> bool:
        return len(a) == len(b) and all(self.vec_eq(r, s) for r, s in zip(a, b))


EXACT = Context(exact=True, tol=0.0)
FLOAT = Context(exact=False, tol=1e-9)


# ---------------------------------------------------------------------------
# vector / matrix helpers (tuples in, tuples out)

def dot(x, y):
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    return sum(a * b for a, b in zip(x, y))


def vadd(x, y):
    return tuple(a + b for a, b in zip(x, y))


def vsub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def vscale(c, x):
    return tuple(c * a for a in x)


def mat_vec(m, x):
    return tuple(dot(row, x) for row in m)


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(m):
    return tuple(zip(*m))


def identity(d: int, ctx: Context = FLOAT):
    one, zero = ctx.one(), ctx.zero()
    return tuple(tuple(one if i == j else zero for j in range(d)) for i in range(d))


def outer(x, y):
    return tuple(tuple(a * b for b in y) for a in x)


def mat_add(a, b):
    return tuple(vadd(r, s) for r, s in zip(a, b))


def mat_sub(a, b):
    return tuple(vsub(r, s) for r, s in zip(a, b))


def mat_scale(c, m):
    return tuple(vscale(c, r) for r in m)


def norm2_euclid(x):
    return sum(a * a for a in x)


def _pivot_order(col_abs, ctx):
    # float mode: partial pivoting; exact: first nonzero
    if ctx.exact:
        for i, v in enumerate(col_abs):
            if v != 0:
                return i
        return None
    best, best_i = 0.0, None
    for i, v in enumerate(col_abs):
        if v > best:
            best, best_i = v, i
    if best_i is None or best <= ctx.tol:
        return None
    return best_i


def rank(rows: Sequence[Sequence], ctx: Context) -> int:
    """Rank by Gaussian elimination with the context's zero test."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        pivot = _pivot_order([abs(m[i][c]) for i in range(r, len(m))], ctx)
        if pivot is None:
            continue
        p = r + pivot
        m[r], m[p] = m[p], m[r]
        pv = m[r][c]
        for i in range(len(m)):
            if i == r:
                continue
            f = m[i][c] / pv
            if f == 0:
                continue
            m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def _gauss_jordan(a, rhs, ctx: Context) -> Optional[list]:
    """Reduce [a | rhs] to [I | a^-1 rhs]; the rows of a^-1 rhs, or None when singular."""
    d = len(a)
    m = [list(row) + list(extra) for row, extra in zip(a, rhs)]
    for c in range(d):
        pivot = _pivot_order([abs(m[i][c]) for i in range(c, d)], ctx)
        if pivot is None:
            return None
        p = c + pivot
        m[c], m[p] = m[p], m[c]
        pv = m[c][c]
        m[c] = [v / pv for v in m[c]]
        for i in range(d):
            if i == c:
                continue
            f = m[i][c]
            if f == 0:
                continue
            m[i] = [u - f * v for u, v in zip(m[i], m[c])]
    return [row[d:] for row in m]


def solve(a, b, ctx: Context) -> Optional[tuple]:
    """Solve the square system a x = b; None when singular."""
    rows = _gauss_jordan(a, [(rhs,) for rhs in b], ctx)
    return None if rows is None else tuple(row[0] for row in rows)


def inverse(a, ctx: Context) -> Optional[tuple]:
    """Matrix inverse by Gauss-Jordan; None when singular."""
    rows = _gauss_jordan(a, identity(len(a), ctx), ctx)
    return None if rows is None else tuple(tuple(row) for row in rows)


@dataclass(frozen=True)
class InnerProduct:
    """A symmetric positive-definite Gram matrix defining a pairing on V."""

    gram: tuple

    @classmethod
    def euclidean(cls, d: int, ctx: Context = FLOAT) -> "InnerProduct":
        return cls(identity(d, ctx))

    @property
    def dim(self) -> int:
        return len(self.gram)

    def pair(self, x, y):
        return dot(x, mat_vec(self.gram, y))

    def norm2(self, x):
        return self.pair(x, x)

    def is_symmetric(self, ctx: Context) -> bool:
        g = self.gram
        return all(ctx.eq(g[i][j], g[j][i]) for i in range(self.dim) for j in range(i))

    def is_positive_definite(self, ctx: Context) -> bool:
        """Symmetric with all pivots of the symmetric elimination positive.

        The pivots are ratios of leading principal minors, so this is the
        classical all-leading-minors-positive test.
        """
        if not self.is_symmetric(ctx):
            return False
        d = self.dim
        m = [list(r) for r in self.gram]
        for k in range(d):
            piv = m[k][k]
            if not ctx.gt(piv, 0):
                return False
            for i in range(k + 1, d):
                f = m[i][k] / piv
                if f == 0:
                    continue
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
        return True


def as_context_of(x) -> Context:
    """Infer the scalar context of a value (Fraction -> exact, else float)."""
    return EXACT if isinstance(x, Fraction) else FLOAT


def float_vec(x):
    return tuple(float(a) for a in x)


def float_mat(m):
    return tuple(float_vec(r) for r in m)


def sqrt_scalar(x, ctx: Context):
    """Square root, staying exact when the radicand is a perfect square."""
    if ctx.exact:
        f = Fraction(x)
        if f < 0:
            raise ValueError("negative radicand")
        num = math.isqrt(f.numerator)
        den = math.isqrt(f.denominator)
        if num * num == f.numerator and den * den == f.denominator:
            return Fraction(num, den)
        raise ValueError("irrational square root in exact mode")
    return math.sqrt(x)
