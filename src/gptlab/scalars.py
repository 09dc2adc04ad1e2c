"""Scalar contexts and small dense linear algebra over rationals or floats.

Every computation in this package runs in one of two scalar modes: exact
rational arithmetic (``fractions.Fraction``) or double precision with an
absolute comparison tolerance.  A :class:`Context` bundles the mode with
its comparison rules so the geometry, LP, and model layers stay agnostic
about which one is active.

Vectors are plain tuples and matrices are tuples of row tuples.  Ambient
dimensions here are tiny (rarely above five), so the helpers are pure
Python and accept Fractions and floats alike.

Exact mode runs its heavy arithmetic on Python ints over one common
denominator: :func:`numerators` clears the denominators of a list,
:func:`stacked` turns nested sequences into one numpy array of numerators
(object dtype, or float64 over 1 in float mode), :func:`reduced` keeps
such an array in lowest terms, and :func:`ordered_matmul` multiplies
stacks of matrices with every sum taken in index order, as :func:`dot`
does.  A Fraction is built only where a value leaves those layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np


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
    """Sum of the products, added in order from zero on every Python version
    (``sum`` compensates float rounding from 3.12 on)."""
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    total = 0
    for a, b in zip(x, y):
        total += a * b
    return total


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


def mat_add(a, b):
    return tuple(vadd(r, s) for r, s in zip(a, b))


def mat_sub(a, b):
    return tuple(vsub(r, s) for r, s in zip(a, b))


def mat_scale(c, m):
    return tuple(vscale(c, r) for r in m)


def numerators(xs) -> tuple:
    """``(nums, den)``: the rationals ``xs`` as a list of ints over the lcm of
    their denominators, so ``xs[i] == nums[i] / den``."""
    den = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


def stacked(xs, ctx: Context):
    """``(array, den)``: nested sequences of scalars as one array of numerators over ``den``.

    Exact scalars become Python ints (object dtype) over the lcm of all
    their denominators, so products and comparisons run on ints instead
    of Fractions; floats become float64 over 1.
    """
    if not ctx.exact:
        return np.array(xs, dtype=float), 1
    arr = np.array(xs, dtype=object)
    nums, den = numerators(arr.ravel().tolist())
    return np.array(nums, dtype=object).reshape(arr.shape), den


def reduced(nums, den) -> tuple:
    """``(nums // g, den // g)`` for the int array ``nums`` over the nonzero ``den``:
    ``g`` is the gcd of ``den`` and every entry, signed so the new ``den`` is positive."""
    g = math.gcd(den, *nums.ravel().tolist())
    if den < 0:
        g = -g
    return nums // g, den // g


def ordered_matmul(a, b):
    """``a @ b`` over the last two axes, broadcast over the leading ones.

    Each entry sums over the inner index in order, starting from zero, as
    :func:`dot` does, so float entries are bit-identical to ``mat_mul``.
    """
    total = 0
    for i in range(a.shape[-1]):
        total = total + a[..., :, i, None] * b[..., None, i, :]
    return total


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
    """Rank by Gaussian elimination with the context's zero test.

    Exact rows are scaled to integers, which keeps the rank, and reduced by
    fraction-free elimination (Bareiss, 1968): ``m_i <- (p m_i - m_ic m_r) / p_prev``
    with ``p_prev`` the previous pivot, an exact integer division.
    """
    if ctx.exact:
        return _int_rank([numerators(r)[0] for r in rows])
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


def spanning_rows(rows: Sequence[Sequence], d: int, ctx: Context) -> list:
    """Indices of the first rows, in the given order, that each raise the
    rank of the rows chosen before them, stopping once there are ``d``."""
    idx: list[int] = []
    for i, row in enumerate(rows):
        if rank([rows[j] for j in idx] + [row], ctx) > len(idx):
            idx.append(i)
        if len(idx) == d:
            break
    return idx


def _int_rank(m: list) -> int:
    r, prev = 0, 1
    for c in range(len(m[0]) if m else 0):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        pv = m[r][c]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            m[i] = [(pv * a - f * b) // prev for a, b in zip(m[i], m[r])]
        prev = pv
        r += 1
        if r == len(m):
            break
    return r


def _gauss_jordan(a, rhs, ctx: Context) -> Optional[list]:
    """Reduce [a | rhs] to [I | a^-1 rhs]; the rows of a^-1 rhs, or None when singular."""
    d = len(a)
    widths = sorted({len(row) for row in a})
    if widths not in ([], [d]) or len(rhs) != d:
        shape = f"{d}x{widths[0] if widths else 0}" if len(widths) <= 1 else f"{d}-row ragged"
        raise ValueError(f"expected a square matrix and a right-hand side of the same "
                         f"length, got a {shape} matrix and a right-hand side of length {len(rhs)}")
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


def float_vec(x):
    return tuple(float(a) for a in x)


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
