"""Polyhedral cones by generating rays: duality, membership, equality.

The dual cone is computed with the double description method: the
generators of the primal cone give the facet normals ``G v`` of the dual
(one ``scalars.ordered_matmul`` product), and the normals are inserted one
by one into a simplicial starting cone, in the given generator order (no
preordering) so results are reproducible.  Exact mode runs on int rows and
keeps each ray a primitive integer vector, with Fractions only in the basis
inverse and the output; float rays have largest |coordinate| 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .linprog import EQ, LinearProgram, lp_feasible
from .scalars import (
    Context,
    FLOAT,
    InnerProduct,
    dot,
    inverse,
    numerators,
    ordered_matmul,
    rank,
    spanning_rows,
    stacked,
    transpose,
    vscale,
    vsub,
)


class LinealityError(ValueError):
    """Raised when a dual cone contains a line and has no ray representation."""


@dataclass(frozen=True)
class Cone:
    """Conic hull of finitely many generating rays."""

    generators: tuple

    def __post_init__(self):
        for g in self.generators:
            if not any(g):
                raise ValueError("zero vector is not a valid cone generator")

    @property
    def dim(self) -> int:
        return len(self.generators[0]) if self.generators else 0


def normalize_ray(v, ctx: Context):
    """Canonical representative of a ray (positive rescaling only): the
    primitive integer vector in exact mode, largest |coordinate| 1 in float mode."""
    if ctx.exact:
        nums, _ = numerators(v)
        g = gcd(*nums)
        if g == 0:
            raise ValueError("cannot normalize the zero ray")
        return tuple(a // g for a in nums)
    m = max(abs(a) for a in v)
    if m == 0:
        raise ValueError("cannot normalize the zero ray")
    return tuple(a / m for a in v)


def cone_member(c: Cone, x, ctx: Context = FLOAT) -> bool:
    """x in conic hull of the generators, decided by LP feasibility."""
    if not c.generators:
        raise ValueError("empty generator list")
    d = c.dim
    if len(x) != d:
        raise ValueError(f"dimension mismatch: cone in R^{d}, point in R^{len(x)}")
    k = len(c.generators)
    p = LinearProgram(n_vars=k, objective=[ctx.zero()] * k, lower=ctx.zero())
    cols = transpose(c.generators)
    for i in range(d):
        p.add(cols[i], EQ, x[i])
    return lp_feasible(p, ctx).feasible


def cones_equal(c1: Cone, c2: Cone, ctx: Context = FLOAT) -> bool:
    """Mutual inclusion, checked generator by generator."""
    if c1.dim != c2.dim:
        raise ValueError("cones live in different ambient dimensions")
    return all(cone_member(c2, g, ctx) for g in c1.generators) and all(
        cone_member(c1, g, ctx) for g in c2.generators
    )


def dual_cone(c: Cone, g: InnerProduct, ctx: Context = FLOAT) -> Cone:
    """Generators of {y | <y, x>_g >= 0 for all x in c} (double description).

    Requires the generators of c to span the ambient space; otherwise the
    dual contains the orthogonal complement as lineality and has no ray
    representation, which is reported as :class:`LinealityError`.
    """
    if not c.generators:
        raise ValueError("empty generator list")
    d = c.dim
    if g.dim != d:
        raise ValueError(f"dimension mismatch: cone in R^{d}, pairing on R^{g.dim}")
    # rows G v, each entry summed in order as mat_vec does; in exact mode a
    # positive multiple of them, which changes no sign and no normalised ray
    normals = ordered_matmul(stacked(c.generators, ctx)[0], stacked(g.gram, ctx)[0].T).tolist()

    basis_idx = spanning_rows(normals, d, ctx)  # greedy, in the given insertion order
    if len(basis_idx) < d:
        raise LinealityError(
            f"generators span only a {len(basis_idx)}-dimensional subspace; "
            f"the dual cone contains a lineality space of dimension {d - len(basis_idx)}"
        )

    binv = inverse(ctx.mat(normals[i] for i in basis_idx), ctx)
    rays = [normalize_ray(col, ctx) for col in transpose(binv)]
    # zero sets over processed normal indices; initial ray j is tight on all
    # basis normals except its own
    zsets = [frozenset(basis_idx) - {basis_idx[j]} for j in range(d)]

    for i, a in enumerate(normals):
        if i in basis_idx:
            continue
        vals = [dot(a, r) for r in rays]
        signs = [ctx.sign(v) for v in vals]
        plus, zero, minus = ([k for k, s in enumerate(signs) if s == side] for side in (1, 0, -1))
        new_rays, new_zsets = [], []
        for kp in plus:
            for km in minus:
                meet = zsets[kp] & zsets[km]
                for ko, z in enumerate(zsets):
                    if meet <= z and ko != kp and ko != km:
                        break  # not adjacent
                else:
                    combo = vsub(vscale(vals[kp], rays[km]), vscale(vals[km], rays[kp]))
                    ray = normalize_ray(combo, ctx)
                    if not any(ctx.vec_eq(ray, r) for r in new_rays):
                        new_rays.append(ray)
                        new_zsets.append(meet | {i})
        rays = [rays[k] for k in plus + zero] + new_rays
        zsets = [zsets[k] for k in plus] + [zsets[k] | {i} for k in zero] + new_zsets
        if not rays:
            raise LinealityError("dual cone degenerated to the origin")
    return Cone(ctx.mat(rays) if ctx.exact else tuple(rays))


@dataclass(frozen=True)
class AffineHullInfo:
    dim: int
    origin_outside: bool


def affine_hull_check(vertices, ctx: Context = FLOAT) -> AffineHullInfo:
    """Affine dimension of the hull and whether the origin avoids it.

    A valid state space must have origin_outside True with ambient
    dimension equal to dim + 1.
    """
    if not vertices:
        raise ValueError("nonempty vertex list required")
    v0 = vertices[0]
    diffs = [vsub(v, v0) for v in vertices[1:]]
    adim = rank(diffs, ctx)
    outside = rank(diffs + [list(v0)], ctx) > adim
    return AffineHullInfo(dim=adim, origin_outside=outside)
