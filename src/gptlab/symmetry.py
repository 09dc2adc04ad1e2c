"""State-space symmetries, canonical coordinates, and self-duality.

The linear automorphism group of a polytopic state space is finite
whenever the vertices span the ambient space, so the invariant (Haar)
average becomes a uniform average over the group elements.  That average
yields the invariant inner product, the maximally mixed state, the
projection onto the invariant subspace, and the canonical (Bloch)
coordinates in which the unit effect coincides with the maximally mixed
state.

Self-duality under an inner product G and the J-positivity checks of
``xi_canonicalize`` solve no LP: they are sign checks of vertices against
vertices under G, and of the cached facet normals ``n_k`` against the
dual cone's rays ``G^-1 n_k``, all through one batched sign check
(``_pairs_nonnegative``) on stacked numerators.

Every group not already kept on the theory, built-in or custom, comes
from one backtracking search over the images of a spanning subset of the
vertices only, pruned by the congruence-invariant form
Q = sum_i v_i v_i^T and stopped with a ValueError after a fixed number
of search nodes.  Those images fix a linear map; the maps of all
leaves are built in one batch and checked on every vertex, so only maps
that permute the vertices, and so carry the polytope onto itself, are
kept, in lexicographic order of their permutation.

Exact and float mode share one code path on numpy arrays:
``scalars.stacked`` turns a list of matrices into one ``(k, rows, cols)``
array of numerators over one denominator, Python ints (object dtype) in
exact mode and float64 in float mode.  Each group keeps one such stack
per mode (:meth:`SymmetryGroup.stack`), built at most once, and the
search hands it the numerators it already has.  The group averages
(invariant product, the fixed point check of the mixed state, invariant
projection, the conjugation into canonical coordinates) run on that stack
with one batched product, ``scalars.ordered_matmul``, which sums the
inner index in order from zero as ``scalars.dot`` does, so float results
are bit-identical to the tuple formulas.  A Fraction is built only for
each distinct stored entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .model import Theory, theory_to_float
from .scalars import (
    Context,
    FLOAT,
    InnerProduct,
    identity,
    inverse,
    mat_add,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_vec,
    ordered_matmul,
    reduced,
    spanning_rows,
    sqrt_scalar,
    stacked,
    transpose,
    vscale,
    vsub,
)


@dataclass(frozen=True)
class SymmetryGroup:
    """Finite matrix group together with its action on the vertex list."""

    elements: tuple  # matrices
    perms: tuple  # vertex permutations aligned with elements
    # ctx.exact -> the read-only stack of the elements in that mode
    _stacks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    def stack(self, ctx: Context) -> tuple:
        """``(array, den)``: the elements as ``scalars.stacked`` gives them in
        ctx's mode, built on first use and kept on this group."""
        if ctx.exact not in self._stacks:
            self._keep(ctx, *stacked(self.elements, ctx))
        return self._stacks[ctx.exact]

    def _keep(self, ctx: Context, arr, den) -> None:
        arr.flags.writeable = False
        self._stacks[ctx.exact] = (arr, den)


def automorphism_group(t: Theory) -> SymmetryGroup:
    """All linear bijections mapping the state space onto itself.

    The group kept on the theory if it has one, else the result of the
    spanning-basis search, built-in or not.
    """
    if t.group_cache is not None:
        return t.group_cache
    return _search_group(t)


def _as_tuples(arr, den=1):
    """The entries of an array as nested tuples: ints become Fractions ``x / den``
    (one per distinct value), floats stay as they are."""
    if arr.dtype == object:
        values, where = np.unique(arr, return_inverse=True)
        fractions = np.array([Fraction(x, den) for x in values.tolist()], dtype=object)
        arr = fractions[where].reshape(arr.shape)
    return _nested_tuples(arr.tolist())


def _nested_tuples(rows: list) -> tuple:
    return tuple(map(_nested_tuples, rows)) if isinstance(rows[0], list) else tuple(rows)


# backtracking nodes before the search gives up; the largest in-repo search
# (the tesseract) visits 0.7 k to 1.3 k, depending on the vertex order
_MAX_SEARCH_NODES = 1_000_000


# vertex-image comparisons per batch of candidate maps: bounds the memory
# of the check on polytopes with many vertices or many search leaves
_BATCH_CELLS = 1 << 20


def _vertex_perms(maps, w, target, ctx):
    """``(perms, maps)`` of the stacked candidate maps that permute the vertices.

    ``maps`` holds ``(k, d, d)`` numerators ``t``, ``w`` the vertex rows and
    ``target`` the rows ``t`` must reach: ``t w_j`` has to equal some
    ``target[c]`` for every vertex ``j``, and those ``c`` have to be a
    permutation.  The survivors come in lexicographic order of their
    permutation, each as a tuple of ints.
    """
    step = max(1, _BATCH_CELLS // (len(w) * w.size))
    found = []
    for start in range(0, len(maps), step):
        images = np.swapaxes(ordered_matmul(maps[start:start + step], w.T), 1, 2)  # t_k w_j
        hit = ctx.eq(images[:, :, None, :], target).all(axis=-1)  # hit[k, j, c]
        perms = hit.argmax(axis=-1)
        ok = hit.any(axis=-1).all(axis=-1)  # every image is a target row
        ok &= (np.sort(perms, axis=-1) == np.arange(len(w))).all(axis=-1)  # and a bijection
        found += [(tuple(perms[k].tolist()), start + k) for k in np.flatnonzero(ok)]
    found.sort()
    return [p for p, _ in found], maps[[k for _, k in found]]


def _search_group(t: Theory) -> SymmetryGroup:
    ctx = t.ctx
    verts = t.vertices
    nv = len(verts)
    d = t.dim
    w, vden = stacked(verts, ctx)  # vertices w / vden
    # the pruning form m = V Q^-1 V^T with Q = sum_v v v^T, on numerators
    # (a positive factor off in exact mode, which no comparison sees)
    qinv = inverse(_as_tuples(ordered_matmul(w.T, w), vden * vden), ctx)
    if qinv is None:
        raise ValueError("vertices do not span the ambient space")
    qi, _ = stacked(qinv, ctx)
    m = ordered_matmul(w, ordered_matmul(qi, w.T)).tolist()

    span_idx = spanning_rows(verts, d, ctx)
    # spanning-basis inverse wa / aden: a candidate map is
    # T = (w_img / vden)(wa / aden), i.e. t / wden with t = w_img wa
    wa, aden = stacked(inverse(transpose([verts[i] for i in span_idx]), ctx), ctx)
    wden = vden * aden

    # backtracking over the images of the spanning vertices only: they fix the map
    leaves = []
    img = [-1] * d
    used = [False] * nv
    nodes = 0

    def extend(k: int) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > _MAX_SEARCH_NODES:
            raise ValueError(
                f"automorphism search on theory {t.name!r} ({nv} vertices) visited "
                f"{_MAX_SEARCH_NODES} nodes without finishing"
            )
        if k == d:
            leaves.append(tuple(img))
            return
        i = span_idx[k]
        for c in range(nv):
            if used[c] or not ctx.eq(m[c][c], m[i][i]):
                continue
            if all(ctx.eq(m[img[j]][c], m[span_idx[j]][i]) for j in range(k)):
                img[k] = c
                used[c] = True
                extend(k + 1)
                used[c] = False
                img[k] = -1

    extend(0)
    # t = w_img^T wa for every leaf at once; T v_j = v_p(j) iff t w_j = wden w_p(j),
    # and this check on every vertex is what makes T an automorphism
    maps = ordered_matmul(np.swapaxes(w[np.array(leaves)], 1, 2), wa)
    perms, maps = _vertex_perms(maps, w, wden * w, ctx)
    if ctx.exact:
        maps, wden = reduced(maps, wden)  # lowest terms: what stacking the elements gives
    group = SymmetryGroup(_as_tuples(maps, wden), tuple(perms))
    group._keep(ctx, maps, wden)
    return group


def is_transitive(g: SymmetryGroup, t: Theory) -> bool:
    """Does the orbit of vertex 0 cover the whole vertex set?"""
    orbit = {p[0] for p in g.perms}
    return len(orbit) == t.n_vertices


def maximally_mixed(t: Theory, g: Optional[SymmetryGroup] = None):
    """The unique invariant state: the average of the pure states."""
    if g is None:
        g = automorphism_group(t)
    if not is_transitive(g, t):
        raise ValueError("maximally mixed state requires a transitive theory")
    ctx = t.ctx
    total = t.vertices[0]
    for v in t.vertices[1:]:
        total = tuple(a + b for a, b in zip(total, v))
    k = ctx.convert(t.n_vertices)
    omega_m = tuple(a / k for a in total)
    w, _ = stacked([omega_m], ctx)
    stack, den = g.stack(ctx)
    if not ctx.eq(ordered_matmul(stack, w.T), den * w.T).all():
        raise RuntimeError("group element does not fix the vertex average")
    return omega_m


def _float_theory(t: Theory, g: SymmetryGroup) -> tuple:
    """``(theory, group)`` in float mode, the group kept on the theory.

    Each element entry is its stacked numerator over the denominator,
    rounded once: an int over an int rounds as ``float(Fraction)`` does.
    """
    stack, den = g.stack(t.ctx)
    stack = (stack / den).astype(float)
    gf = SymmetryGroup(_as_tuples(stack), g.perms)
    gf._keep(FLOAT, stack, 1)
    return theory_to_float(t).with_group(gf), gf


def rescale_unit_norm(t: Theory, g: Optional[SymmetryGroup] = None) -> Theory:
    """Rescale so the maximally mixed state has Euclidean norm 1.

    Exact theories whose rescaling factor is irrational are demoted to
    float mode first; the rescaled theory is reported in whichever mode
    can represent it.
    """
    if g is None:
        g = automorphism_group(t)
    omega_m = maximally_mixed(t, g)
    ctx = t.ctx
    norm2 = sum(a * a for a in omega_m)
    if ctx.eq(norm2, 1):
        return t
    try:
        scale = 1 / sqrt_scalar(norm2, ctx)
    except ValueError:
        t, g = _float_theory(t, g)
        scale = 1 / math.sqrt(float(norm2))
    return replace(
        t,
        vertices=tuple(vscale(scale, v) for v in t.vertices),
        unit_effect=vscale(1 / scale, t.unit_effect),
        canonicalized=False,
        group_cache=g,
    )


def averaged_inner_product(g: SymmetryGroup, ctx: Context = FLOAT) -> InnerProduct:
    """Group average of the Euclidean inner product: gram = avg T^T T.

    The elements are stacked over one common denominator, the terms are
    added in element order and divided once, so exact results need no
    Fraction arithmetic and float ones equal the sum of the ``mat_mul``
    terms bit for bit.
    """
    if not g.elements:
        raise ValueError("empty group")
    stack, den = g.stack(ctx)
    total = np.add.accumulate(ordered_matmul(np.swapaxes(stack, 1, 2), stack))[-1]
    return InnerProduct(mat_scale(1 / ctx.convert(g.order * den * den), total.tolist()))


def projector_pm(g: SymmetryGroup, ctx: Context = FLOAT):
    """Group average of the elements themselves: the invariant projection.

    The elements are added in order, as in ``averaged_inner_product``.
    """
    if not g.elements:
        raise ValueError("empty group")
    stack, den = g.stack(ctx)
    return mat_scale(1 / ctx.convert(g.order * den), np.add.accumulate(stack)[-1].tolist())


@dataclass(frozen=True)
class CanonicalForm:
    """Orthonormal invariant coordinates with the mixed state as last axis."""

    basis: tuple  # rows of the rescaled-raw-coordinate basis, last = omega_M
    transform: tuple  # old (rescaled) coordinates -> canonical coordinates
    theory: Theory  # canonical theory: invariant product = dot product, u = omega_M = (0,..,0,1)
    group: SymmetryGroup


def canonicalize(t: Theory) -> CanonicalForm:
    """Bloch coordinates: the invariant product is the dot product, unit effect = mixed state axis.

    The output theory always lives in float mode because the orthonormal
    basis involves square roots.  The first in-plane basis vector is
    aligned with (vertex0 - omega_M) to make the form deterministic.
    """
    g = automorphism_group(t)
    if not is_transitive(g, t):
        raise ValueError("canonicalization requires a transitive theory")
    tf, gf = _float_theory(t, g)
    ctx = tf.ctx
    tf = rescale_unit_norm(tf, gf)
    omega_m = maximally_mixed(tf, gf)
    gram = averaged_inner_product(gf, ctx)

    d = tf.dim
    basis = []
    for v in tf.vertices:
        cand = vsub(v, omega_m)
        for b in basis:
            c = gram.pair(b, cand)
            cand = vsub(cand, vscale(c, b))
        nrm2 = gram.norm2(cand)
        if ctx.gt(nrm2, 0):
            basis.append(vscale(1 / math.sqrt(nrm2), cand))
        if len(basis) == d - 1:
            break
    if len(basis) != d - 1:
        raise RuntimeError("could not build an in-plane orthonormal basis")
    basis.append(omega_m)

    transform = tuple(tuple(mat_vec(gram.gram, b)) for b in basis)  # rows b_l^T G
    inv_t = inverse(transform, ctx)
    new_vertices = tuple(mat_vec(transform, v) for v in tf.vertices)
    # effects map contravariantly: e_new = (M^-1)^T e
    new_u = mat_vec(transpose(inv_t), tf.unit_effect)
    stack, _ = gf.stack(ctx)
    conjugated = ordered_matmul(ordered_matmul(np.array(transform), stack), np.array(inv_t))
    new_group = SymmetryGroup(_as_tuples(conjugated), gf.perms)
    new_group._keep(ctx, conjugated, 1)
    theory_c = replace(
        tf,
        name=t.name if t.canonicalized else f"{t.name}-canonical",
        vertices=new_vertices,
        unit_effect=tuple(new_u),
        canonicalized=True,
        group_cache=new_group,
    )
    return CanonicalForm(basis=tuple(basis), transform=transform, theory=theory_c, group=new_group)


def _pairs_nonnegative(ctx: Context, left: tuple, right: tuple) -> bool:
    """Is ``(A_1 ... A_p x_i) . (B_1 ... B_q y_j) >= 0`` for every i and j?

    ``left = (A_1, ..., A_p, xs)`` and ``right = (B_1, ..., B_q, ys)``.  The
    images are ``ordered_matmul`` products on stacked numerators, the last
    matrix first, as nested ``mat_vec`` calls and a closing ``dot`` form
    them, so float values are bit-identical to those; exact ones are
    positive multiples of the true values, which keep their signs.
    """
    def images(chain):
        *maps, vecs = chain
        out = stacked(vecs, ctx)[0].T
        for m in reversed(maps):
            out = ordered_matmul(stacked(m, ctx)[0], out)
        return out

    return bool(ctx.ge(ordered_matmul(images(left).T, images(right)), 0).all())


def is_self_dual(t: Theory, gram: Optional[InnerProduct] = None) -> bool:
    """Is the positive cone equal to its internal dual under the given product?

    Defaults to the group-averaged inner product of the theory.  The cone
    lies in its dual when every ``<v_i, v_j>_G >= 0``; the dual, spanned by
    the rays ``G^-1 n_k``, lies in the cone when every ``n_f . G^-1 n_k >= 0``.
    """
    ctx = t.ctx
    if gram is None:
        gram = averaged_inner_product(automorphism_group(t), ctx)
    pairing = ctx.mat(gram.gram)  # in t's mode: euclidean() defaults to float entries
    if not _pairs_nonnegative(ctx, (t.vertices,), (pairing, t.vertices)):
        return False
    ginv = inverse(pairing, ctx)
    if ginv is None:
        raise ValueError("the pairing's Gram matrix is singular")
    return _pairs_nonnegative(ctx, (t.facet_normals,), (ginv, t.facet_normals))


def _average_conjugates(g: SymmetryGroup, j_map, ctx: Context):
    """Group average of ``M^-1 J M``, summed as in ``averaged_inner_product``.

    The inverse of an element is the element whose permutation is the inverse one.
    """
    index = {p: k for k, p in enumerate(g.perms)}
    inverses = [index[tuple(np.argsort(p).tolist())] for p in g.perms]
    stack, den = g.stack(ctx)
    j, jden = stacked(j_map, ctx)
    total = np.add.accumulate(ordered_matmul(ordered_matmul(stack[inverses], j), stack))[-1]
    return mat_scale(1 / ctx.convert(g.order * den * den * jden), total.tolist())


def xi_canonicalize(t: Theory, j_map, g: Optional[SymmetryGroup] = None) -> Theory:
    """Re-express a transitive self-dual theory so the cone equals its dual.

    ``j_map`` must be strictly positive with respect to the averaged inner
    product and map the positive cone onto its internal dual.  The group
    average of its conjugates collapses to P_M + xi P_M^perp; the square
    root of that map is applied to the state space, after which the cone
    is self-dual with respect to the averaged product of the result.
    """
    if g is None:
        g = automorphism_group(t)
    if not is_transitive(g, t):
        raise ValueError("xi canonicalization requires a transitive theory")
    ctx = t.ctx
    j_map = ctx.mat(j_map)
    gram = averaged_inner_product(g, ctx)
    d = t.dim

    # validation: symmetry and strict positivity w.r.t. the averaged product
    gj = mat_mul(gram.gram, j_map)
    if not InnerProduct(gj).is_symmetric(ctx):
        raise ValueError("J is not self-adjoint for the averaged inner product")
    if not InnerProduct(gj).is_positive_definite(ctx):
        raise ValueError("J is not strictly positive for the averaged inner product")
    if not _pairs_nonnegative(ctx, (j_map, t.vertices), (gram.gram, t.vertices)):
        raise ValueError("J does not map the positive cone into the dual cone")
    onto = (inverse(j_map, ctx), inverse(gram.gram, ctx), t.facet_normals)
    if not _pairs_nonnegative(ctx, (t.facet_normals,), onto):
        raise ValueError("J does not map the positive cone onto the dual cone")

    omega_m = maximally_mixed(t, g)
    # normalize so the invariant component of the average has coefficient one;
    # an overall positive scaling of J never changes cone images
    c = gram.pair(omega_m, mat_vec(j_map, omega_m)) / gram.norm2(omega_m)
    if not ctx.gt(c, 0):
        raise ValueError("J is not positive on the maximally mixed state")
    j_norm = mat_scale(1 / c, j_map)

    j_av = _average_conjugates(g, j_norm, ctx)

    pm = projector_pm(g, ctx)
    pperp = mat_sub(identity(d, ctx), pm)
    trace_perp = sum(pperp[i][i] for i in range(d))
    if ctx.is_zero(trace_perp):
        raise ValueError("invariant complement is trivial")
    xi = sum(mat_mul(j_av, pperp)[i][i] for i in range(d)) / trace_perp
    model = mat_add(pm, mat_scale(xi, pperp))
    scale = max(1.0, abs(float(xi)))
    resid = max(
        abs(float(j_av[i][k] - model[i][k])) for i in range(d) for k in range(d)
    )
    # the two-block form is exact for transitive inputs; 1e-7 relative spread
    if resid > 1e-7 * scale:
        raise ValueError(
            f"averaged J is not of the form P_M + xi P_perp (residual {resid:.3e}); "
            "the input is not transitive or J is malformed"
        )

    try:
        sq = sqrt_scalar(xi, ctx)
        tt = t
    except ValueError:
        tt = theory_to_float(t)
        ctx = tt.ctx
        pm = tuple(tuple(float(a) for a in row) for row in pm)
        pperp = tuple(tuple(float(a) for a in row) for row in pperp)
        sq = math.sqrt(float(xi))
    xi_mat = mat_add(pm, mat_scale(sq, pperp))
    new_u = mat_vec(transpose(inverse(xi_mat, ctx)), tt.unit_effect)
    return replace(
        tt,
        name=f"{t.name}-xi",
        vertices=tuple(mat_vec(xi_mat, v) for v in tt.vertices),
        unit_effect=tuple(new_u),
        canonicalized=False,
        group_cache=g if ctx is t.ctx else None,
    )
