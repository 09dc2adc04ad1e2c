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
vertices under G, and of the facet rays ``n_k`` of ``Theory.facet_table``
against the dual cone's rays ``G^-1 n_k``, all through one batched sign
check (``_pairs_nonnegative``) on stacked numerators.

Every group not already kept on the theory, built-in or custom, comes
from one breadth-first search, which the theory instance then keeps, over
the images of a spanning subset of the vertices only, one array step per
spanning vertex, pruned by the coded congruence-invariant form V Q^-1 V^T
with Q = sum_i v_i v_i^T and stopped with a ValueError once it would pass
a number of search nodes (a fixed one, or the caller's).
Those images fix a linear map; the maps of all leaves are built in one
batch and checked on every vertex, so only maps that permute the
vertices, and so carry the polytope onto itself, are kept, in
lexicographic order of their permutation.  Exact searches run on int
numerators, int64 where ``scalars.narrowed`` proves that no product
overflows, and build no Fraction.

Exact and float mode share one code path on numpy arrays:
``scalars.stacked`` turns a list of matrices into one ``(k, rows, cols)``
array of numerators over one denominator, Python ints (object dtype) in
exact mode and float64 in float mode.  A group is one such read-only
stack (:class:`SymmetryGroup`), and the search hands it the numerators it
already has.  The group averages
(invariant product, the fixed point check of the mixed state, invariant
projection, the conjugation into canonical coordinates) run on that stack
with one batched product, ``scalars.ordered_matmul``, which sums the
inner index in order from zero as ``scalars.dot`` does, so float results
are bit-identical to the tuple formulas.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import Coordinates, Theory, theory_to_float
from .scalars import (
    Context,
    EXACT,
    FLOAT,
    InnerProduct,
    identity,
    inverse,
    mat_add,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_vec,
    narrowed,
    ordered_matmul,
    reduced,
    spanning_rows,
    sqrt_scalar,
    stacked,
    stacked_inverse,
    transpose,
    unstacked,
    vadd,
    vscale,
    vsub,
)


# array cells per batch: image comparisons per batch of candidate maps in the group
# search and of stabiliser elements in ``compat._facet_perms``, candidate images per
# batch of partial maps, remainder vertex values per batch of multisets in the ideal
# search.  1 << 16 keeps the searches of the psi-polygons 4..48 within about 1 MB of
# resident memory (1 << 20 took 3.7 MB, 7 MB comparing whole rows) and no slower
_BATCH_CELLS = 1 << 16


@dataclass(frozen=True, eq=False)
class SymmetryGroup:
    """Finite matrix group together with its action on the vertex list.

    The elements are one ``(order, d, d)`` stack of numerators over ``den``, as
    ``scalars.stacked`` gives them, which the group makes read-only: Python ints
    in exact mode, float64 over 1 in float mode.  ``perms[k]`` is the vertex
    permutation of element ``k``.
    """

    nums: np.ndarray
    den: int
    perms: tuple

    def __post_init__(self):
        if not self.perms:
            raise ValueError("empty group")
        self.nums.flags.writeable = False

    @classmethod
    def from_elements(cls, elements, perms, ctx: Context) -> "SymmetryGroup":
        """The group of the given matrices, stacked in ctx's mode."""
        return cls(*stacked(elements, ctx), tuple(perms))

    @property
    def order(self) -> int:
        return len(self.perms)

    @functools.cached_property
    def elements(self) -> tuple:
        """The elements as matrices of scalars, built on first read and kept."""
        arr = unstacked(self.nums, self.den, EXACT if self.nums.dtype == object else FLOAT)
        return tuple(tuple(map(tuple, m)) for m in arr.tolist())

    def stack(self, ctx: Context) -> tuple:
        """``(array, den)``: the elements as ``scalars.stacked`` gives them in ctx's
        mode.  The stored stack in the group's own mode; a new array in the other,
        where each exact entry rounds once, as ``float(Fraction)`` does."""
        if ctx.exact == (self.nums.dtype == object):
            return self.nums, self.den
        return stacked(self.nums, ctx) if ctx.exact else (unstacked(self.nums, self.den, ctx), 1)


def automorphism_group(t: Theory, max_nodes: Optional[int] = None) -> SymmetryGroup:
    """All linear bijections mapping the state space onto itself.

    The group kept on the theory if it has one, else the result of the
    spanning-basis search, built-in or not, which is then kept on the
    theory instance, as ``Theory.facet_table`` is.  The search raises a
    ValueError, and keeps nothing, once it would visit more than
    `max_nodes` partial maps (default ``_MAX_SEARCH_NODES``).
    """
    if t.group_cache is None:
        object.__setattr__(t, "group_cache", _search_group(t, max_nodes))
    return t.group_cache


# partial maps, over all levels and the root included, before the search gives up;
# the largest in-repo searches visit 1,957 (classical-5) and 0.7 k to 1.6 k (the
# tesseract, depending on the vertex order)
_MAX_SEARCH_NODES = 1_000_000


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
        hit = _matches(images, target, ctx)  # hit[k, j, c]: t_k w_j is target[c]
        perms = hit.argmax(axis=-1)
        ok = hit.any(axis=-1).all(axis=-1)  # every image is a target row
        ok &= (np.sort(perms, axis=-1) == np.arange(len(w))).all(axis=-1)  # and a bijection
        found += [(tuple(perms[k].tolist()), start + k) for k in np.flatnonzero(ok)]
    found.sort()
    return [p for p, _ in found], maps[[k for _, k in found]]


def _matches(images, rows, ctx: Context) -> np.ndarray:
    """``hit[..., i, j]``: the row ``images[..., i, :]`` equals ``rows[j]`` to ctx's
    tolerance.  Compared one coordinate at a time, so each temporary holds a d-th of
    the images against every row."""
    hit = ctx.eq(images[..., None, 0], rows[:, 0])
    for a in range(1, rows.shape[1]):
        hit &= ctx.eq(images[..., None, a], rows[:, a])
    return hit


def _coder(pool, ctx: Context):
    """``(codes, code)``: the entries of the array ``pool`` as ints from 0 in the
    order of their values, and ``code``, which gives each entry of an array the
    code of a pool entry that ``ctx.eq`` accepts, or -1.

    The pool's values are sorted and a new code starts wherever the gap to the
    previous one exceeds ``tol``: in exact mode at every distinct value, as
    ``np.unique`` numbers them, and in float mode every pair that ``ctx.eq``
    accepts shares a code; a chain of close values may share one too, which
    only lets more maps through to the vertex check.  An entry ``x`` takes the
    code of the first pool value at least ``x - tol`` when that value is within
    ``tol`` of ``x``.
    """
    flat = pool.ravel()
    order = np.argsort(flat, kind="stable")
    values = flat[order]
    ranks = np.cumsum(np.diff(values, prepend=values[:1]) > ctx.tol)
    codes = np.empty(len(flat), dtype=np.intp)
    codes[order] = ranks

    def code(x):
        pos = np.searchsorted(values, x - ctx.tol).clip(max=len(values) - 1)
        return np.where(ctx.eq(values[pos], x), ranks[pos], -1)

    return codes.reshape(pool.shape), code


def _extensions(part, code, span, i):
    """``(rows, cols)``: vertex ``cols[n]`` may follow the partial map ``part[rows[n]]``
    as the image of vertex ``i``, in lexicographic order of the longer maps.

    A candidate is unused, and its codes with itself and with the images placed so
    far equal those of ``i`` with itself and with the spanning vertices they image.
    """
    keep = np.repeat((code.diagonal() == code[i, i])[None], len(part), axis=0)
    keep[np.arange(len(part))[:, None], part] = False
    for j in range(part.shape[1]):
        keep &= code[part[:, j]] == code[span[j], i]
    return np.nonzero(keep)


def _search_group(t: Theory, max_nodes: Optional[int] = None) -> SymmetryGroup:
    """The group of every linear map that permutes the vertices of ``t``.

    A map is fixed by the images of a spanning subset of the vertices.  The
    search assigns them breadth first, one level per spanning vertex: the
    partial maps are one ``(count, k)`` array of vertex indices, and boolean
    ``(count, nv)`` masks (``_extensions``) keep the candidate images that the
    coded pruning form ``m = V Q^-1 V^T`` (``Q = sum_v v v^T``, which every
    automorphism leaves congruent) admits.  Every partial map counts as a node
    against `max_nodes` (default ``_MAX_SEARCH_NODES``).  The leaves are
    checked on every vertex by ``_vertex_perms``; exact products there run on
    int64 when ``scalars.narrowed`` proves that they cannot overflow.
    """
    ctx = t.ctx
    verts = t.vertices
    nv = len(verts)
    d = t.dim
    max_nodes = _MAX_SEARCH_NODES if max_nodes is None else max_nodes
    w, vden = stacked(verts, ctx)  # vertices w / vden
    # the pruning form on numerators, coded (a positive factor off in exact mode,
    # which no comparison of codes sees)
    qinv = stacked_inverse(ordered_matmul(w.T, w).tolist(), ctx)
    if qinv is None:
        raise ValueError("vertices do not span the ambient space")
    code = _coder(ordered_matmul(w, ordered_matmul(qinv[0], w.T)), ctx)[0]

    span = spanning_rows(verts, d, ctx)
    part = np.zeros((1, 0), dtype=np.intp)  # the partial maps: images of span[:k]
    nodes, step = 1, max(1, _BATCH_CELLS // nv)
    for i in span:
        rows, cols = [], []
        for start in range(0, len(part), step):  # at most _BATCH_CELLS mask cells at a time
            r, c = _extensions(part[start:start + step], code, span, i)
            nodes += len(r)
            if nodes > max_nodes:
                raise ValueError(
                    f"automorphism search on theory {t.name!r} ({nv} vertices) visited "
                    f"{max_nodes} nodes without finishing"
                )
            rows.append(start + r)
            cols.append(c)
        part = np.column_stack((part[np.concatenate(rows)], np.concatenate(cols)))

    # spanning-basis inverse wa / aden: a leaf's map is T = (w_img / vden)(wa / aden),
    # i.e. t / wden with t = w_img^T wa; T v_j = v_p(j) iff t w_j = wden w_p(j),
    # and this check on every vertex is what makes T an automorphism
    wa, aden = stacked_inverse(transpose([verts[i] for i in span]), ctx)
    wden = vden * aden
    wn, wa = narrowed(w, wa, d)
    maps = ordered_matmul(np.swapaxes(wn[part], 1, 2), wa)
    perms, maps = _vertex_perms(*narrowed(maps, w, d, wden * w), ctx)
    if ctx.exact:  # lowest terms, as Python ints: what stacking the elements gives
        maps, wden = reduced(maps, wden)
        maps = maps.astype(object)
    return SymmetryGroup(maps, wden, tuple(perms))


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
    k = ctx.convert(t.n_vertices)
    omega_m = tuple(a / k for a in functools.reduce(vadd, t.vertices))
    w, _ = stacked([omega_m], ctx)
    stack, den = g.stack(ctx)
    if not ctx.eq(ordered_matmul(stack, w.T), den * w.T).all():
        raise RuntimeError("group element does not fix the vertex average")
    return omega_m


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
        scale, to_float = 1 / sqrt_scalar(norm2, ctx), Coordinates()
    except ValueError:
        to_float, ctx, g = Coordinates.demoting(t), FLOAT, SymmetryGroup(*g.stack(FLOAT), g.perms)
        scale = 1 / math.sqrt(float(norm2))
    one = identity(t.dim, ctx)  # states by s I, effects by I / s
    coords = to_float.then(Coordinates(((mat_scale(scale, one), mat_scale(1 / scale, one)),)))
    return coords.theory(t, g, ctx=ctx)


def averaged_inner_product(g: SymmetryGroup, ctx: Context = FLOAT) -> InnerProduct:
    """Group average of the Euclidean inner product: gram = avg T^T T.

    The elements are stacked over one common denominator, the terms are
    added in element order and divided once, so exact results need no
    Fraction arithmetic and float ones equal the sum of the ``mat_mul``
    terms bit for bit.
    """
    stack, den = g.stack(ctx)
    total = np.add.accumulate(ordered_matmul(np.swapaxes(stack, 1, 2), stack))[-1]
    return InnerProduct(mat_scale(1 / ctx.convert(g.order * den * den), total.tolist()))


def projector_pm(g: SymmetryGroup, ctx: Context = FLOAT):
    """Group average of the elements themselves: the invariant projection.

    The elements are added in order, as in ``averaged_inner_product``.
    """
    stack, den = g.stack(ctx)
    return mat_scale(1 / ctx.convert(g.order * den), np.add.accumulate(stack)[-1].tolist())


@dataclass(frozen=True)
class CanonicalForm:
    """Orthonormal invariant coordinates with the mixed state as last axis."""

    basis: tuple  # rows of the rescaled-raw-coordinate basis, last = omega_M
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
    gf = SymmetryGroup(*g.stack(FLOAT), g.perms)
    # with_group's copy keeps no record, so tf's coordinates are the rescale's alone
    tf = rescale_unit_norm(theory_to_float(t).with_group(gf), gf)
    ctx = tf.ctx
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
    stack, _ = gf.stack(ctx)
    conjugated = ordered_matmul(ordered_matmul(np.array(transform), stack), np.array(inv_t))
    new_group = SymmetryGroup(conjugated, 1, gf.perms)
    # one step per stage, as the stages round: the demotion, the rescale, the basis
    coords = Coordinates.demoting(t).then(tf.coordinates).then(Coordinates(((transform, inv_t),)))
    theory_c = coords.theory(t, new_group, ctx=FLOAT, canonicalized=True,
                             name=t.name if t.canonicalized else f"{t.name}-canonical")
    return CanonicalForm(basis=tuple(basis), theory=theory_c, group=new_group)


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
    return _pairs_nonnegative(ctx, (t.facet_table[0],), (ginv, t.facet_table[0]))


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
    onto = (inverse(j_map, ctx), inverse(gram.gram, ctx), t.facet_table[0])
    if not _pairs_nonnegative(ctx, (t.facet_table[0],), onto):
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
    resid = max(abs(j_av[i][k] - model[i][k]) for i in range(d) for k in range(d))
    # the two-block form is exact for transitive inputs: a residual check
    # relative to max(1, |xi|)
    if resid > ctx.residual_tol * max(1, abs(xi)):
        raise ValueError(
            f"averaged J is not of the form P_M + xi P_perp (residual {float(resid):.3e}); "
            "the input is not transitive or J is malformed"
        )

    try:
        sq, to_float = sqrt_scalar(xi, ctx), Coordinates()
    except ValueError:
        to_float, ctx = Coordinates.demoting(t), FLOAT
        pm, pperp = ctx.mat(pm), ctx.mat(pperp)
        sq = math.sqrt(float(xi))
    xi_mat = mat_add(pm, mat_scale(sq, pperp))
    coords = to_float.then(Coordinates(((xi_mat, inverse(xi_mat, ctx)),)))
    return coords.theory(t, None if to_float.steps else g, name=f"{t.name}-xi", ctx=ctx)
