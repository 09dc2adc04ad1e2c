"""Polyhedral cones by generating rays: duality, membership, equality.

The dual cone is computed with the double description method: the
generators of the primal cone give the facet normals ``G v`` of the dual
(one ``scalars.ordered_matmul`` product), and the normals are inserted one
by one into a simplicial starting cone, in the given generator order (no
preordering) so results are reproducible.  Exact mode runs on int rows,
the basis inverse included (``scalars.stacked_inverse``), and keeps each ray
a primitive integer vector, with Fractions only in the output; float rays
have largest |coordinate| 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

import numpy as np

from .linprog import EQ, LinearProgram, lp_feasible
from .scalars import (Context, FLOAT, InnerProduct, dot, numerators, ordered_matmul,
                      spanning_rows, stacked, stacked_inverse, unstacked, vscale, vsub)


class LinealityError(ValueError):
    """Raised when a dual cone contains a line and has no ray representation."""


@dataclass(frozen=True)
class Cone:
    """Conic hull of finitely many generating rays."""

    generators: tuple

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(tuple(g) for g in self.generators))
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


def cone_lp(rays, ctx: Context, n_blocks: int, eqs, objective=(), sense="min", upper=None,
            orbits=None):
    """One LP over `n_blocks` vectors ``E_i = sum_k mu_ik r_k``, ``mu >= 0``,
    in the cone generated by the rays ``r_k``, then nonnegative scalars ``s_j``,
    one per `objective` entry, below `upper` if given.  `rays` is ``(R, den)``,
    the rays as the rows of ``R / den`` in the form ``scalars.stacked`` gives.

    Each ``(blocks, scalars, rhs)`` in `eqs` is one row per coordinate of
    ``sum_i c_i E_i + sum_j s_j w_j = rhs``, `blocks` mapping ``i`` to ``c_i``
    and `scalars` ``j`` to ``w_j``.  The rows are one array block: ``C kron R^T``
    (C the ``c_i`` of every group, R the rays as rows), the ``w_j`` and the
    right-hand sides.  Returns the LP and a map from a point to its first
    ``count`` vectors, each ``R^T mu_i``.

    `orbits` is an int array that names the orbit of every variable, the
    ``mu_ik`` at ``i * len(R) + k`` and then the ``s_j``, numbered from 0
    in the order of their first members; by default every variable is its
    own.  The LP has one variable per orbit, the weight that each member
    takes: its column and cost are the sums of the members' (in variable
    order), its upper bound any scalar member's.  The point map gives each
    member its orbit's weight.
    """
    (r, rden), zero = rays, ctx.zero()
    (k, d), nmu = r.shape, n_blocks * len(r)
    for w in (w for _, scalars, rhs in eqs for w in (rhs, *scalars.values()) if len(w) != d):
        raise ValueError(f"dimension mismatch: cone in R^{d}, vector in R^{len(w)}")
    if orbits is None:
        orbits = np.arange(nmu + len(objective))
    coef, cden = stacked([[blocks.get(i, 0) for i in range(n_blocks)] for blocks, _, _ in eqs], ctx)
    # per group, its w_j and rhs as columns, then one row per coordinate
    zeros = (0,) * d
    tail, tden = stacked([[scalars.get(j, zeros) for j in range(len(objective))] + [rhs]
                          for _, scalars, rhs in eqs], ctx)
    tail = tail.transpose(0, 2, 1).reshape(len(eqs) * d, len(objective) + 1)
    den = lcm(cden * rden, tden)
    kron = (coef[:, None, :, None] * r.T[None, :, None, :]).reshape(len(tail), nmu)  # C kron R^T
    block = np.concatenate((kron * (den // (cden * rden)), tail * (den // tden)), axis=1)
    n_orbits = int(orbits.max()) + 1
    if n_orbits < len(orbits):  # each orbit's column summed from zero in variable order
        rows, width = len(block), n_orbits + 1
        summed = np.zeros((rows, width), dtype=block.dtype)
        # one member at a time, not pairwise: the flat index runs row by row
        at = (np.arange(rows)[:, None] * width + orbits).ravel()
        np.add.at(summed.ravel(), at, block[:, :-1].ravel())
        summed[:, -1], block = block[:, -1], summed
    cost, bounds = [zero] * n_orbits, None if upper is None else [None] * n_orbits
    for j, o in enumerate(orbits[nmu:].tolist()):  # a mu_ik costs nothing, has no bound
        cost[o] += objective[j]
        if upper is not None:
            bounds[o] = upper[j]
    p = LinearProgram(len(cost), cost, sense, lower=zero, upper=bounds)
    p.add_block(block, [EQ] * len(block), den)

    def vectors(point, count: int) -> list:
        mu = np.array(point, dtype=r.dtype)[orbits[:count * k]]
        mu, mden = numerators(mu.tolist()) if ctx.exact else (mu, 1)
        e = ordered_matmul(np.asarray(mu, dtype=r.dtype).reshape(count, k), r)
        return list(map(tuple, unstacked(e, mden * rden, ctx).tolist()))

    return p, vectors


def cone_member(c: Cone, x, ctx: Context = FLOAT) -> bool:
    """x in conic hull of the generators, decided by LP feasibility."""
    if not c.generators:
        raise ValueError("empty generator list")
    p, _ = cone_lp(stacked(c.generators, ctx), ctx, 1, [({0: 1}, {}, x)])
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
    normals = ordered_matmul(stacked(c.generators, ctx)[0],
                             stacked(ctx.mat(g.gram), ctx)[0].T).tolist()

    basis_idx = spanning_rows(normals, d, ctx)  # greedy, in the given insertion order
    if len(basis_idx) < d:
        raise LinealityError(
            f"generators span only a {len(basis_idx)}-dimensional subspace; "
            f"the dual cone contains a lineality space of dimension {d - len(basis_idx)}"
        )

    # the columns of the basis inverse, ints over one denominator in exact mode
    binv, _ = stacked_inverse([normals[i] for i in basis_idx], ctx)
    rays = [normalize_ray(col, ctx) for col in binv.T.tolist()]
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
    # v0 comes last, so it is chosen only when it lies outside the span of the diffs
    idx = spanning_rows(diffs + [v0], len(v0), ctx)
    outside = len(diffs) in idx
    return AffineHullInfo(dim=len(idx) - outside, origin_outside=outside)
