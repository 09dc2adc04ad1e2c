"""Scalar contexts and small dense linear algebra over rationals or floats.

Every computation in this package runs in one of two scalar modes: exact
rational arithmetic (``fractions.Fraction``) or double precision with an
absolute comparison tolerance.  A :class:`Context` bundles the mode with
its comparison rules so the geometry, LP, and model layers stay agnostic
about which one is active.

``Context.tol`` is the package's one tolerance policy.  Comparisons (the
context's ``eq``/``le``/``sign``, pivot tests, theorem verdicts) allow
``tol``; residual checks (LP certificates, the two-block fit of
``symmetry.xi_canonicalize``) allow ``residual_tol``, ``100 * tol``; float
keys code sorted values with a new code at every gap above ``tol``.  In exact mode ``tol`` is
the int 0, so every one of these compares exactly and ``x - tol`` keeps a
Fraction ``x`` a Fraction.

Vectors are plain tuples and matrices are tuples of row tuples.  Ambient
dimensions here are tiny (rarely above five), so the helpers are pure
Python and accept Fractions and floats alike.

Exact mode runs its heavy arithmetic on Python ints over one common
denominator: :func:`numerators` clears the denominators of a list,
:func:`stacked` turns nested sequences into one numpy array of numerators
(object dtype, or float64 over 1 in float mode), :func:`reduced` keeps
such an array in lowest terms, and :func:`ordered_matmul` multiplies
stacks of matrices with every sum taken in index order, as :func:`dot`
does.  :func:`narrowed` hands such ints to a product as int64 where a
bound proves that nothing overflows; :func:`int_dtype` is that one
int64-or-Python-int decision.  :func:`unstacked` turns numerators
back into scalars where a value leaves those layers.

One Gauss-Jordan elimination serves :func:`rank`, :func:`spanning_rows`,
:func:`solve`, :func:`stacked_inverse` and :func:`inverse`: on floats with
partial pivoting, and fraction-free on each exact row's int numerators, so
an exact solution leaves as ints over the last pivot.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class Context:
    """Arithmetic mode: exact rationals, or floats with an absolute tolerance."""

    exact: bool = False
    tol: float = 1e-9  # the int 0 in exact mode

    def __post_init__(self):
        if self.exact:
            if self.tol != 0:
                raise ValueError("exact mode does not take a tolerance")
            object.__setattr__(self, "tol", 0)
        if not self.exact and not self.tol > 0:
            raise ValueError("float mode requires tol > 0")

    @property
    def residual_tol(self):
        """The bound of every residual check, ``100 * tol``: the int 0 in exact mode."""
        return 100 * self.tol

    def convert(self, x):
        """Coerce a number (or 'p/q' string) into this context's scalar type."""
        if self.exact:
            return x if type(x) is Fraction else Fraction(x)
        return x if type(x) is float else float(Fraction(x)) if isinstance(x, str) else float(x)

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


EXACT = Context(exact=True, tol=0)
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
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    return tuple(map(operator.add, x, y))


def vsub(x, y):
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    return tuple(map(operator.sub, x, y))


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
    of Fractions, and ints stay as they are; floats become float64 over 1.
    Only values that numpy (float mode) or Fraction arithmetic (exact mode)
    does not read, such as 'p/q' strings, go through ``ctx.convert``.
    """
    if not ctx.exact:
        try:
            return np.array(xs, dtype=float), 1
        except ValueError:
            return np.array(np.frompyfunc(ctx.convert, 1, 1)(np.array(xs, dtype=object)),
                            dtype=float), 1
    arr = np.array(xs, dtype=object)
    types = set(map(type, arr.ravel().tolist()))
    if types <= {int}:
        return arr, 1
    if not types <= {int, Fraction}:
        arr = np.frompyfunc(ctx.convert, 1, 1)(arr)
    nums, den = numerators(arr.ravel().tolist())
    return np.array(nums, dtype=object).reshape(arr.shape), den


def reduced(nums, den) -> tuple:
    """``(nums // g, den // g)`` for the int array ``nums`` over the nonzero ``den``:
    ``g`` is the gcd of ``den`` and every entry, signed so the new ``den`` is positive.
    An int64 array takes its gcd with ``np.gcd.reduce``, Python ints with ``math.gcd``."""
    flat = nums.ravel()
    g = math.gcd(den, int(np.gcd.reduce(flat)) if flat.dtype == np.int64 else
                 math.gcd(*flat.tolist()))
    if den < 0:
        g = -g
    return nums // g, den // g


def unstacked(nums, den, ctx: Context):
    """The inverse of :func:`stacked`: numerators ``nums`` over ``den`` as ctx's scalars,
    one Fraction per distinct numerator in exact mode.  In float mode an int over an
    int rounds once, as ``float(Fraction)`` does, and floats over 1 keep their bits."""
    if not ctx.exact:
        return np.asarray(nums / den, dtype=float)
    flat = nums.ravel().tolist()
    values = {x: Fraction(x, den) for x in set(flat)}
    return np.array([values[x] for x in flat], dtype=object).reshape(nums.shape)


# output entries up to which one accumulate beats a numpy call per inner index (measured)
_ACCUMULATE_MAX = 256


def ordered_matmul(a, b):
    """``a @ b`` over the last two axes, broadcast over the leading ones.

    Each entry sums over the inner index in order, starting from zero, as
    :func:`dot` does, so float entries are bit-identical to ``mat_mul``.  Up
    to ``_ACCUMULATE_MAX`` output entries, broadcast ones included, one
    ``np.add.accumulate`` sums all the products (``+ 0`` then turns a -0.0
    into the 0.0 that a sum from zero gives); a larger product, or an empty
    inner dimension, adds one inner index at a time into zeros of the
    product's shape, as numpy's accumulate along a strided axis is slower.
    Exact entries sum the same in any order, so int64 arrays and object
    arrays, which hold exact scalars (Python ints, Fractions) throughout this
    package, take ``a @ b``.
    """
    if a.dtype.kind in "iO" and b.dtype.kind in "iO":
        return a @ b
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1])
    if a.shape[-1] and math.prod(shape) <= _ACCUMULATE_MAX:
        return np.add.accumulate(a[..., :, :, None] * b[..., None, :, :], axis=-2)[..., -1, :] + 0
    total = np.zeros(shape, dtype=np.result_type(a, b))
    for i in range(a.shape[-1]):
        total += a[..., :, i, None] * b[..., None, i, :]
    return total


# exact ints below this in size fit int64; a test may lower it to force Python ints
_INT64_LIMIT = 1 << 63


def max_abs(x) -> int:
    """The largest ``|entry|`` of the int array ``x`` as a Python int, 0 when it is empty."""
    return int(np.abs(x).max(initial=0))


def int_dtype(*bounds):
    """``np.int64`` when every bound is below ``2^63``, else ``object`` (Python ints):
    the dtype for exact numerators when ``bounds`` bound every int formed from them."""
    return np.int64 if all(b < _INT64_LIMIT for b in bounds) else object


def narrowed(a, b, k: int, *more) -> tuple:
    """``(a, b, *more)`` as int64 copies when they hold exact ints and nothing can
    overflow: ``k·max|a|·max|b| < 2^63``, which bounds every entry of an ordered
    product of ``a`` and ``b`` over ``k`` terms and every partial sum of one, and
    each array has entries below ``2^63`` in size (a zero ``a`` bounds the product
    but not ``b``).  Otherwise the exact arrays as Python ints (object dtype), and
    float arrays as they are, so a caller runs one numpy path on whichever dtype it
    gets."""
    arrays = (a, b, *more)
    if a.dtype.kind == "f":
        return arrays
    dtype = int_dtype(k * max_abs(a) * max_abs(b), *map(max_abs, arrays))
    return tuple(x.astype(dtype) for x in arrays)


def _rows(rows, ctx: Context) -> list:
    # the rows as lists for _eliminate; in exact mode each row's int
    # numerators, a positive multiple of the row
    return [numerators(r)[0] if ctx.exact else list(r) for r in rows]


def _eliminate(m: list, ncols: int, ctx: Context) -> list:
    """Gauss-Jordan elimination of the rows ``m`` in place, pivoting in their
    first ``ncols`` columns; the pivot columns, in order.

    Float rows pivot on the largest |entry| (none when it is at most
    ``tol``), and the pivot row is divided by its pivot before it clears
    the column.  Exact rows are ints, reduced fraction-free (Bareiss, 1968)
    on the first nonzero entry: every other row becomes
    ``(p m_i - m_ic m_r) // p_prev``, with ``p_prev`` the previous pivot, an
    exact division.  Every pivot column then holds the latest pivot ``p`` in
    its own row and 0 elsewhere, so a nonsingular square block ends as ``p I``.
    """
    pivots, prev = [], 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        p, best = None, ctx.tol
        for i in range(r, len(m)):
            if abs(m[i][c]) > best:
                p, best = i, abs(m[i][c])
                if ctx.exact:
                    break
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        pv = m[r][c]
        if not ctx.exact:
            m[r] = [v / pv for v in m[r]]
        for i, row in enumerate(m):
            if i == r:
                continue
            f = row[c]
            if ctx.exact:  # a zero f still rescales the row
                m[i] = [(pv * a - f * b) // prev for a, b in zip(row, m[r])]
            elif f != 0:
                m[i] = [a - f * b for a, b in zip(row, m[r])]
        prev = pv
        pivots.append(c)
    return pivots


def rank(rows: Sequence[Sequence], ctx: Context) -> int:
    """Rank by elimination with the context's zero test: the number of pivots."""
    return len(_eliminate(_rows(rows, ctx), len(rows[0]) if rows else 0, ctx))


def spanning_rows(rows: Sequence[Sequence], d: int, ctx: Context) -> list:
    """Indices of the first rows, in the given order, that each raise the
    rank of the rows chosen before them, stopping once there are ``d``:
    the pivot columns of the transposed rows."""
    return _eliminate(_rows(transpose(rows), ctx), len(rows), ctx)[:d]


def _solve_rows(a, rhs, ctx: Context) -> Optional[tuple]:
    """Reduce [a | rhs] to [p I | p a^-1 rhs]; ``(rows, p)`` with the rows of
    ``p a^-1 rhs``, or None when singular.  ``p`` is the last pivot, an int, in
    exact mode and 1 in float mode."""
    d = len(a)
    widths = sorted({len(row) for row in a})
    if widths not in ([], [d]) or len(rhs) != d:
        shape = f"{d}x{widths[0] if widths else 0}" if len(widths) <= 1 else f"{d}-row ragged"
        raise ValueError(f"expected a square matrix and a right-hand side of the same "
                         f"length, got a {shape} matrix and a right-hand side of length {len(rhs)}")
    m = _rows([list(row) + list(extra) for row, extra in zip(a, rhs)], ctx)
    if len(_eliminate(m, d, ctx)) < d:
        return None
    return [row[d:] for row in m], m[0][0] if ctx.exact and d else 1


def solve(a, b, ctx: Context) -> Optional[tuple]:
    """Solve the square system a x = b; None when singular."""
    out = _solve_rows(a, [(rhs,) for rhs in b], ctx)
    if out is None:
        return None
    rows, den = out
    return tuple(unstacked(stacked([row[0] for row in rows], ctx)[0], den, ctx).tolist())


def stacked_inverse(a, ctx: Context) -> Optional[tuple]:
    """``(nums, den)``: the inverse of the square matrix ``a`` as :func:`stacked`
    gives it, or None when singular.  Exact numerators are the Python ints that
    the fraction-free elimination leaves over its last pivot, in lowest terms,
    so no Fraction is built."""
    # an int identity: exact rows need no Fraction, and float rows, each divided
    # by its pivot, come out as the floats 1.0 and 0.0 would give
    out = _solve_rows(a, np.identity(len(a), dtype=int).tolist(), ctx)
    if out is None:
        return None
    nums = stacked(out[0], ctx)[0]
    return reduced(nums, out[1]) if ctx.exact else (nums, 1)


def inverse(a, ctx: Context) -> Optional[tuple]:
    """Matrix inverse by Gauss-Jordan; None when singular."""
    out = stacked_inverse(a, ctx)
    return None if out is None else tuple(map(tuple, unstacked(*out, ctx).tolist()))


@dataclass(frozen=True)
class InnerProduct:
    """A symmetric positive-definite Gram matrix defining a pairing on V."""

    gram: tuple

    def __post_init__(self):
        object.__setattr__(self, "gram", tuple(tuple(row) for row in self.gram))

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
