"""Theorem verification: witness scans, randomized batteries, reports.

The main inequalities state that for ideal measurement pairs, any joint
measurement's marginal errors are bounded below by a preparation width
on some witness state.  The proofs construct the witnesses explicitly:
every cell of the joint, normalised by its mass on the unit effect, is a
state, and at least one of them satisfies the inequalities.  The
verifiers scan exactly that candidate family and treat an empty scan as
a hard failure, since the covered theory class proves existence.

Random joints are built feasible-by-construction (mixtures of diagonal
joints of fuzzified measurements, rank-one noise joints, and the uniform
joint with Dirichlet weights), so the battery never needs rejection
sampling and is reproducible from its seed.
"""

from __future__ import annotations

import csv
import json
import os
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from types import MappingProxyType
from typing import Optional

import numpy as np

from .compat import (
    JointMeasurement,
    _joint,
    degree_bound_closed_form,
    degree_bound_rhs,
    joint_violations,
    marginals,
    product_joint,
    uniform_joint,
)
from .ideal import (
    IdealMeasurement,
    binary_ideal_measurement,
    enumerate_ideal_measurements,
    fuzzify,
    perpendicular_ideal_pair,
    psi_transform,
)
from .measures import (
    ball_mass,
    distribution,
    error_bar_profile,
    linf_distance,
    localization_error,
    min_le_sum,
    needed_mass,
    werner_distance,
    width_index,
    width_profile,
)
from .model import Measurement, Theory, _read_only, in_state_space, make_classical, make_polygon
from .scalars import dot, ordered_matmul, vscale
from .symmetry import canonicalize, is_self_dual


@dataclass(frozen=True)
class VerificationReport:
    """Self-contained record of one theorem check, replayable from inputs.

    Read-only: ``inequalities`` and ``witness`` are stored as tuples, and
    ``params``, ``extra`` and each inequality row as read-only views
    (``types.MappingProxyType``) of the dicts given, which the verifiers
    build for the report alone.
    """

    check: str
    theory: str
    params: Mapping
    inequalities: tuple  # mappings: {label, lhs, rhs, ok}
    witness: Optional[tuple]
    passed: bool
    extra: Mapping = field(default_factory=dict)

    def __post_init__(self):
        rows = tuple(map(MappingProxyType, self.inequalities))
        object.__setattr__(self, "params", MappingProxyType(self.params))
        object.__setattr__(self, "inequalities", rows)
        object.__setattr__(self, "witness", None if self.witness is None else tuple(self.witness))
        object.__setattr__(self, "extra", MappingProxyType(self.extra))

    def to_dict(self) -> dict:
        """The fields in order, in new lists and dicts that the report does not share."""
        return {"check": self.check, "theory": self.theory, "params": dict(self.params),
                "inequalities": list(map(dict, self.inequalities)),
                "witness": None if self.witness is None else list(self.witness),
                "passed": self.passed, "extra": dict(self.extra)}


def prepare_conforming(t: Theory) -> Theory:
    """Re-express a theory so the eigenstate lemma applies.

    Odd polygons and re-expressed even polygons pass through; raw even
    polygons get the stretch re-expression; anything else is
    canonicalized (which also covers classical theories).  A canonical form
    that is not self-dual under the dot product raises ValueError.  The
    result's ``coordinates`` map effects of ``t`` into it.
    """
    if t.kind == "polygon" and t.n % 2 == 0:
        return psi_transform(t)
    if t.kind in ("polygon", "polygon-psi"):
        return t.with_group(t.group_cache) if t.coordinates.steps else t  # a copy, no stretch record
    tc = canonicalize(t).theory
    if not is_self_dual(tc, tc.inner):
        raise ValueError(f"the canonical form of theory {t.name!r} is not self-dual")
    return tc


def _cell_states(t: Theory, j: JointMeasurement, check: bool = False) -> list:
    """((a, b), m_ab / <u, m_ab>) for every cell of positive mass, in grid order,
    with a and b the row and column positions.

    With ``check`` every state is tested for membership in Omega, and a
    cell that leaves it raises ValueError.
    """
    ctx = t.ctx
    out = []
    for a, row in enumerate(j.effects):
        for b, e in enumerate(row):
            mass = dot(t.unit_effect, e)
            if not ctx.gt(mass, 0):
                continue
            state = vscale(1 / mass, e)
            if check and not in_state_space(t, state):
                raise ValueError(
                    "joint cell does not normalize into the state space; "
                    "theory is not in a conforming representation"
                )
            out.append(((a, b), state))
    return out


def _holds(rows, tol) -> bool:
    """Every (label, lhs, rhs) row satisfies lhs >= rhs up to ``tol``, the
    theory's ``ctx.tol`` (0 in exact mode, so exact rows compare exactly)."""
    return all(lhs >= rhs - tol for _label, lhs, rhs in rows)


def _witness_report(check: str, t: Theory, params: dict, candidates, fail: tuple,
                    tail: tuple = (), extra: Optional[dict] = None) -> VerificationReport:
    """Report on the first (state, rows) candidate whose rows all hold.

    Its rows become the passing inequalities; when no candidate holds,
    the single (label, lhs, rhs) ``fail`` row is reported instead.  The
    ``tail`` rows are checked and appended either way and also gate
    ``passed``; ``extra`` is kept only when a witness was found.
    """
    tol = t.ctx.tol
    witness, rows = next(((s, r) for s, r in candidates if _holds(r, tol)), (None, [fail]))
    found = witness is not None
    checked = [(row, found) for row in rows] + [(row, _holds([row], tol)) for row in tail]
    ineqs = [{"label": label, "lhs": float(lhs), "rhs": float(rhs), "ok": ok}
             for (label, lhs, rhs), ok in checked]
    return VerificationReport(
        check=check,
        theory=t.name,
        params=params,
        inequalities=ineqs,
        witness=[float(x) for x in witness] if found else None,
        passed=all(iq["ok"] for iq in ineqs),
        extra=(extra or {}) if found else {},
    )


class _JointScan:
    """The eps-free part of the witness scans on one joint.

    Each piece (marginals, error-bar profiles, Werner distances, and per cell
    its state, both distributions and their width profiles) is formed on first
    use and kept for this scan only, so one scan answers any number of eps
    pairs, and a scan that stops at its first witness forms no more cells.
    With ``check`` every cell state is tested in Omega.
    """

    def __init__(self, t: Theory, f: IdealMeasurement, g: IdealMeasurement,
                 j: JointMeasurement, check: bool):
        self.t, self.f, self.g, self.j, self.check = t, f, g, j, check
        self._cells, self._peaks = [], []  # per cell formed so far, in grid order

    @cached_property
    def marginals(self) -> tuple:
        return marginals(self.j)

    @cached_property
    def error_bars(self) -> tuple:
        mf, mg = self.marginals
        return (tuple(error_bar_profile(self.t, mf, self.f)),
                tuple(error_bar_profile(self.t, mg, self.g)))

    @cached_property
    def werner(self) -> tuple:
        mf, mg = self.marginals
        return werner_distance(self.t, mf, self.f), werner_distance(self.t, mg, self.g)

    @cached_property
    def _states(self) -> list:
        return _cell_states(self.t, self.j, self.check)

    def cells(self):
        """Yields (row, column, state, F distribution, G distribution) per cell
        state, in grid order.  Each report reads its marginals before the cells,
        and those match the outcomes of F and G, so the row and column positions
        are the points' indices in the metrics of F and G."""
        t, f, g, done = self.t, self.f, self.g, self._cells
        for i, ((a, b), state) in enumerate(self._states):
            if i == len(done):
                done.append((a, b, state,
                             distribution(t, f, state, check_state=False),
                             distribution(t, g, state, check_state=False)))
            yield done[i]

    def overall_widths(self, eps):
        """Yields each cell of :meth:`cells` followed by the overall widths of its
        F and G distributions at confidence ``eps``."""
        ctx, peaks = self.t.ctx, self._peaks
        need = needed_mass(eps, ctx)
        wf, wg = self.f.metric.width_candidates(), self.g.metric.width_candidates()
        for i, cell in enumerate(self.cells()):
            if i == len(peaks):  # the largest ball mass per width candidate
                peaks.append((tuple(width_profile(cell[3], ctx)),
                              tuple(width_profile(cell[4], ctx))))
            pf, pg = peaks[i]
            yield (*cell, wf[width_index(pf, need, ctx)], wg[width_index(pg, need, ctx)])


def _cor1_eps(eps1, eps2) -> None:
    if not (0 < eps1 <= 1 and 0 < eps2 <= 1 and eps1 + eps2 <= 1):
        raise ValueError("confidence levels must satisfy eps1, eps2 in (0,1], eps1+eps2 <= 1")


def _thm1_report(scan: _JointScan, eps1, eps2) -> VerificationReport:
    t, f, g = scan.t, scan.f, scan.g
    ctx = t.ctx
    eb_f, eb_g = scan.error_bars
    c1 = width_index(eb_f, needed_mass(eps1, ctx), ctx)
    c2 = width_index(eb_g, needed_mass(eps2, ctx), ctx)
    w1, w2 = f.metric.width_candidates()[c1], g.metric.width_candidates()[c2]
    # the error-bar profiles have built every ball row
    balls_f, balls_g = tuple(f.metric.ball_rows(ctx))[c1], tuple(g.metric.ball_rows(ctx))[c2]
    # (the proof's scan functional: ball mass of F around a' plus of G around
    # b', state, rows) for every cell, not just up to the first witness
    scored = [
        (ball_mass(df.probs, balls_f[ia]) + ball_mass(dg.probs, balls_g[ib]),
         state,
         [("errorbar_F >= overall_F", w1, over_f), ("errorbar_G >= overall_G", w2, over_g)])
        for ia, ib, state, df, dg, over_f, over_g in scan.overall_widths(eps1 + eps2)
    ]
    # proof-faithfulness: the cell maximizing the scan functional must itself
    # be a passing witness
    best = max(scored, key=lambda c: c[0], default=None)
    return _witness_report(
        "thm1", t, {"eps1": eps1, "eps2": eps2},
        [(state, rows) for _score, state, rows in scored],
        ("no candidate satisfied both width bounds", w1, w2),
        extra={"proof_candidate_ok": best is not None and _holds(best[2], ctx.tol)},
    )


def _cor1_report(scan: _JointScan, eps1, eps2) -> VerificationReport:
    dw_f, dw_g = scan.werner
    return _witness_report(
        "cor1", scan.t, {"eps1": eps1, "eps2": eps2},
        ((state, [("D_W(F) >= eps1/2 * overall_F", dw_f, eps1 / 2 * over_f),
                  ("D_W(G) >= eps2/2 * overall_G", dw_g, eps2 / 2 * over_g)])
         for _ia, _ib, state, _df, _dg, over_f, over_g in scan.overall_widths(eps1 + eps2)),
        ("no candidate satisfied both scaled width bounds", dw_f, dw_g),
    )


def _thm2_report(scan: _JointScan) -> VerificationReport:
    t, f, g = scan.t, scan.f, scan.g
    mf, mg = scan.marginals
    d_f = linf_distance(t, mf, f)
    d_g = linf_distance(t, mg, g)
    lhs = d_f + d_g
    # cross-module law: the sum also dominates the global vertex minimum
    mls = min_le_sum(t, f, g)
    return _witness_report(
        "thm2", t, {},
        ((state, [("D_inf(F)+D_inf(G) >= LE(F)+LE(G)", lhs,
                   localization_error(df) + localization_error(dg))])
         for _ia, _ib, state, df, dg in scan.cells()),
        ("no candidate satisfied the localization-error bound", d_f, d_g),
        tail=(("D_inf sum >= min_LE_sum", lhs, mls.value),),
    )


def verify_thm1(t: Theory, f: IdealMeasurement, g: IdealMeasurement,
                j: JointMeasurement, eps1: float, eps2: float) -> VerificationReport:
    """Error-bar widths of the marginals bound overall widths on a witness.

    A cell that does not normalize into the state space raises ValueError.
    """
    if not (0 <= eps1 <= 1 and 0 <= eps2 <= 1 and eps1 + eps2 <= 1):
        raise ValueError("confidence levels must satisfy eps1, eps2 in [0,1], eps1+eps2 <= 1")
    return _thm1_report(_JointScan(t, f, g, j, check=True), eps1, eps2)


def verify_cor1(t: Theory, f: IdealMeasurement, g: IdealMeasurement,
                j: JointMeasurement, eps1: float, eps2: float) -> VerificationReport:
    """Lipschitz-ball distances bound scaled overall widths on a witness."""
    _cor1_eps(eps1, eps2)
    return _cor1_report(_JointScan(t, f, g, j, check=False), eps1, eps2)


def verify_thm2(t: Theory, f: IdealMeasurement, g: IdealMeasurement,
                j: JointMeasurement) -> VerificationReport:
    """Summed sup-gaps of the marginals bound summed localization errors."""
    return _thm2_report(_JointScan(t, f, g, j, check=False))


@dataclass(frozen=True)
class GridReports:
    """The reports of one joint: ``thm1[i]`` and ``cor1[i]`` for the i-th eps
    pair, and the eps-free ``thm2``."""

    thm1: tuple
    cor1: tuple
    thm2: VerificationReport


def verify_grid(t: Theory, f: IdealMeasurement, g: IdealMeasurement,
                j: JointMeasurement, eps_pairs) -> GridReports:
    """The thm1, cor1 and thm2 reports of one joint for every (eps1, eps2) pair,
    from one scan of its cells.

    Each report is the one the single-pair verifier returns.  Every pair
    must suit both thm1 and cor1, and, as in thm1, a cell that does not
    normalize into the state space raises ValueError.
    """
    eps_pairs = tuple(eps_pairs)
    for eps1, eps2 in eps_pairs:
        _cor1_eps(eps1, eps2)
    scan = _JointScan(t, f, g, j, check=True)
    return GridReports(thm1=tuple(_thm1_report(scan, *pair) for pair in eps_pairs),
                       cor1=tuple(_cor1_report(scan, *pair) for pair in eps_pairs),
                       thm2=_thm2_report(scan))


def verify_mode(mode: str, t: Theory, f: IdealMeasurement, g: IdealMeasurement,
                j: JointMeasurement, eps1: float, eps2: float) -> VerificationReport:
    """Run the verifier named by ``mode``: "thm1", "cor1" or "thm2"."""
    if mode == "thm1":
        return verify_thm1(t, f, g, j, eps1, eps2)
    if mode == "cor1":
        return verify_cor1(t, f, g, j, eps1, eps2)
    if mode == "thm2":
        return verify_thm2(t, f, g, j)
    raise ValueError(f"unknown mode {mode!r}")


@cache
def _psi_polygon(n: int) -> tuple:
    """``(raw, hat, vertices)`` for the even n-gon, kept per side count for the
    process: the polygon, its stretch, and both vertex sets as one (2, 3, n)
    float array, raw first, read-only as the facet table is, since every later
    probability gate reads it.  The theories' own ``facet_table`` caches then
    fill once.  No compat LP runs on either theory, so ``Theory.lp_runs``
    stays 0."""
    raw = make_polygon(n)
    hat = psi_transform(raw)
    return raw, hat, _read_only(np.array([raw.vertices, hat.vertices]).transpose(0, 2, 1))


def verify_thm3_even(n: int, f: IdealMeasurement, g: IdealMeasurement,
                     j: JointMeasurement, mode: str,
                     eps1: float = 0.2, eps2: float = 0.2) -> VerificationReport:
    """Even-polygon version: re-express, delegate, and check probability agreement.

    Inputs are given in raw polygon coordinates; both measurements and the
    joint are mapped through the stretch before the chosen verifier runs
    on the stretched polygon.  The raw and stretched polygons are built
    once per side count (``_psi_polygon``), so repeated calls do not redo
    the double description of the facets.  The probability gate compares
    every effect of F and G on every vertex, raw against stretched, in one
    ordered product, summed as ``prob_table`` sums them.
    """
    if n % 2 != 0:
        raise ValueError("this check is for even polygons")
    raw, hat, vertices = _psi_polygon(n)
    psi = hat.coordinates
    f_hat, g_hat, j_hat = psi.measurement(f), psi.measurement(g), psi.joint(j)
    # probability covariance across the re-expression
    effects = np.array([f.effects + g.effects, f_hat.effects + g_hat.effects], dtype=float)
    probs = ordered_matmul(effects, vertices)
    max_dev = float(np.abs(probs[0] - probs[1]).max(initial=0.0))
    rep = verify_mode(mode, hat, f_hat, g_hat, j_hat, eps1, eps2)
    return replace(
        rep,
        check=f"thm3[{mode}]",
        theory=f"polygon-{n}",
        passed=rep.passed and max_dev < raw.ctx.tol,
        extra={**rep.extra, "psi_probability_deviation": max_dev},
    )


def verify_propc(t: Theory, f_approx: Measurement, f_ideal: Measurement,
                 eps_grid) -> VerificationReport:
    """Error-bar width is bounded by (2/eps) times the Lipschitz distance.

    One error-bar profile answers every eps of the grid.
    """
    dw = werner_distance(t, f_approx, f_ideal)
    eps_grid = tuple(eps_grid)
    if not all(0 < eps <= 1 for eps in eps_grid):
        raise ValueError("eps must lie in (0, 1]")
    masses = tuple(error_bar_profile(t, f_approx, f_ideal)) if eps_grid else ()
    ineqs = []
    ok_all = True
    for eps in eps_grid:
        w = f_ideal.metric.width_candidates()[width_index(masses, needed_mass(eps, t.ctx), t.ctx)]
        ok = w <= (2 / eps) * dw + t.ctx.tol
        ok_all = ok_all and ok
        ineqs.append({"label": f"W_eps <= (2/eps) D_W @ eps={eps}",
                      "lhs": float(w), "rhs": float((2 / eps) * dw), "ok": bool(ok)})
    return VerificationReport(
        check="propC",
        theory=t.name,
        params={"eps_grid": tuple(map(float, eps_grid))},
        inequalities=ineqs,
        witness=None,
        passed=ok_all,
    )


# ---------------------------------------------------------------------------
# randomized inputs (deterministic under a seeded generator)

def _distribution(ctx, p) -> list:
    """A drawn probability vector in the scalars of ``ctx``.

    Exact entries are rescaled by their exact sum: the float draw sums to 1
    only up to rounding, and the Fractions would carry that error.
    """
    q = [ctx.convert(x) for x in p]
    if ctx.exact:
        total = sum(q)
        q = [x / total for x in q]
    return q


def random_joint(t: Theory, f: Measurement, g: Measurement,
                 rng: np.random.Generator) -> JointMeasurement:
    """A valid random joint on the F x G outcome grid, feasible by construction.

    Dirichlet mixture of: the diagonal joints of fuzzified F and G (when
    the grids are square), rank-one joints built from a fuzzified
    measurement and a random outcome distribution, and the uniform joint.
    The uniform component keeps a fixed floor so no cell vanishes.  One
    ordered product of the weights and the stacked grids forms every cell.
    """
    ctx = t.ctx
    na, nb = f.n_outcomes, g.n_outcomes
    ft = fuzzify(t, f, ctx.convert(rng.uniform()))
    gt = fuzzify(t, g, ctx.convert(rng.uniform()))
    qa = np.array(_distribution(ctx, rng.dirichlet(np.ones(na))))
    qb = np.array(_distribution(ctx, rng.dirichlet(np.ones(nb))))
    fe, ge = np.array(ft.effects), np.array(gt.effects)
    components = [product_joint(ft).effects, product_joint(gt).effects] if na == nb else []
    components += [qb[None, :, None] * fe[:, None, :], qa[:, None, None] * ge[None, :, :],
                   uniform_joint(t, f, g).effects]
    weights = np.array(_distribution(ctx, rng.dirichlet(np.ones(len(components)))))
    weights *= ctx.convert("9/10")
    weights[-1] += ctx.convert("1/10")  # keep every cell strictly positive in mass
    cells = ordered_matmul(weights[None, :], np.reshape(components, (len(components), -1)))
    j = _joint(f, g, cells.reshape(na * nb, t.dim).tolist())
    problems = joint_violations(t, j)
    if problems:
        raise RuntimeError("random joint failed validation: " + "; ".join(problems))
    return j


def random_postprocessed(t: Theory, f: Measurement, rng: np.random.Generator) -> Measurement:
    """Dirichlet-perturbed version of a measurement: a random stochastic
    post-processing of its effects, which is always a valid measurement.

    Row ``b`` of the draw spreads effect ``b`` over the outcomes.
    """
    k = f.n_outcomes
    draws = [_distribution(t.ctx, row) for row in rng.dirichlet(np.ones(k), size=k)]
    effects = ordered_matmul(np.array(draws).T, np.array(f.effects))
    return Measurement(outcomes=f.outcomes, effects=effects.tolist(), metric=f.metric)


def ideal_pair_for(t: Theory) -> tuple:
    """A canonical ideal measurement pair used by the batteries."""
    if t.kind in ("polygon", "polygon-psi") and t.n % 4 == 0:
        return perpendicular_ideal_pair(t)
    if t.kind in ("polygon", "polygon-psi"):
        return binary_ideal_measurement(t, 0), binary_ideal_measurement(t, 1)
    ms = enumerate_ideal_measurements(t, max_outcomes=2)
    if len(ms) == 1:
        return ms[0], ms[0]
    if not ms:
        raise ValueError("no binary ideal measurements available")
    return ms[0], ms[1]


# ---------------------------------------------------------------------------
# report battery

def default_battery() -> dict:
    return {
        "schema": 1,
        "polygons": [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16],
        "theorem_theories": {"polygon": [3, 5, 7, 8, 12], "classical": [1, 2], "even": [4, 6, 8]},
        "joints_per_case": 20,
        "eps_grid": [0.1, 0.2, 0.3, 0.45],
        "propc_cases": 10,
    }


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_config(cfg: dict) -> None:
    """Raise a ValueError that names the first battery value of the wrong type,
    length or range, before ``run_report`` writes anything."""
    theories = cfg["theorem_theories"]
    if not isinstance(theories, dict):
        raise ValueError(f"config theorem_theories must map kinds to lists, got {theories!r}")
    kinds = [k for k in theories if k not in ("polygon", "classical", "even")]
    if kinds:
        raise ValueError(f"unknown theorem_theories kinds {kinds}; "
                         "known: polygon, classical, even")
    for key in ("joints_per_case", "propc_cases"):
        if not (_is_int(cfg[key]) and cfg[key] >= 0):
            raise ValueError(f"config {key} must be a non-negative int, got {cfg[key]!r}")
    eps = cfg["eps_grid"]
    if not (isinstance(eps, (list, tuple)) and len(eps) >= 2 and all(
            isinstance(e, (int, float)) and not isinstance(e, bool) for e in eps)):
        raise ValueError(f"config eps_grid must hold at least two numbers, got {eps!r}")
    try:
        _cor1_eps(*eps[:2])
    except ValueError as exc:
        raise ValueError(f"config eps_grid: {exc}") from None
    lists = {"polygons": cfg["polygons"],
             **{f"theorem_theories {kind}": sizes for kind, sizes in theories.items()}}
    for key, sizes in lists.items():
        if not (isinstance(sizes, (list, tuple)) and all(map(_is_int, sizes))):
            raise ValueError(f"config {key} must be a list of ints, got {sizes!r}")
        even, least = key.endswith("even"), {"classical": 1, "even": 4}.get(key.split()[-1], 3)
        if any(n < least or even and n % 2 for n in sizes):
            raise ValueError(f"config {key} must hold{' even' if even else ''} sizes >= {least}, "
                             f"got {sizes!r}")


def run_report(config: Optional[dict] = None, out_dir: str = "report",
               seed: int = 0) -> dict:
    """Run the declared battery and write JSON + CSV outputs.

    Identical config and seed produce byte-identical files: all randomness
    flows through one seeded generator and results are emitted in declared
    order.
    """
    cfg = dict(default_battery())
    unknown = [key for key in config or () if key not in cfg]
    if unknown:
        raise ValueError(f"unknown config keys {unknown}; known: {', '.join(cfg)}")
    cfg.update(config or ())
    _check_config(cfg)
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    rows = []  # check, theory, n, param, lhs, rhs, verdict
    reports = []

    def note(rep: VerificationReport, n, param=""):
        reports.append(rep.to_dict())
        for iq in rep.inequalities:
            rows.append([rep.check, rep.theory, n, param, iq["lhs"], iq["rhs"],
                         "pass" if iq["ok"] else "fail"])

    for n in cfg["theorem_theories"].get("polygon", []):
        t = prepare_conforming(make_polygon(n))
        f, g = ideal_pair_for(t)
        for k in range(cfg["joints_per_case"]):
            j = random_joint(t, f, g, rng)
            grid = verify_grid(t, f, g, j, [cfg["eps_grid"][:2]])
            for rep in (grid.thm1[0], grid.cor1[0], grid.thm2):
                note(rep, n, f"joint{k}")
    for nn in cfg["theorem_theories"].get("classical", []):
        t = prepare_conforming(make_classical(nn))
        f, g = ideal_pair_for(t)
        for k in range(cfg["joints_per_case"]):
            j = random_joint(t, f, g, rng)
            note(verify_thm2(t, f, g, j), nn, f"joint{k}")
    for n in cfg["theorem_theories"].get("even", []):
        raw, hat, _ = _psi_polygon(n)
        f_raw, g_raw = ideal_pair_for(raw)
        f_hat, g_hat = map(hat.coordinates.measurement, (f_raw, g_raw))
        for k in range(cfg["joints_per_case"]):
            j_hat = random_joint(hat, f_hat, g_hat, rng)
            j_raw = hat.coordinates.inverse.joint(j_hat)
            note(verify_thm3_even(n, f_raw, g_raw, j_raw, "thm2"), n, f"joint{k}")

    for t in [prepare_conforming(make_polygon(n)) for n in (5, 8)]:
        f, _ = ideal_pair_for(t)
        for k in range(cfg["propc_cases"]):
            ft = random_postprocessed(t, f, rng)
            note(verify_propc(t, ft, f, cfg["eps_grid"]), t.n, f"case{k}")

    # curve data: preparation bound and incompatibility bounds vs side count
    plot_rows = []
    for n in cfg["polygons"]:
        if n % 4 != 0:
            continue
        t = psi_transform(make_polygon(n))
        f, g = perpendicular_ideal_pair(t)
        mls = min_le_sum(t, f, g)
        plot_rows.append([n, float(mls.value), float(degree_bound_rhs(t, f, g)),
                          float(degree_bound_closed_form(n))])

    report = {
        "schema": 1,
        "seed": seed,
        "config": cfg,
        "results": reports,
        "n_pass": sum(1 for r in reports if r["passed"]),
        "n_fail": sum(1 for r in reports if not r["passed"]),
    }
    report_path = os.path.join(out_dir, "report.json")
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    csv_path = os.path.join(out_dir, "summary.csv")
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["check", "theory", "n", "param", "lhs", "rhs", "verdict"])
        w.writerows(rows)
    plot_path = os.path.join(out_dir, "plot_data.csv")
    with open(plot_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "min_le_sum", "degree_bound_rhs", "degree_bound_closed_form"])
        w.writerows(plot_rows)
    return {"report": report_path, "summary": csv_path, "plot_data": plot_path,
            "n_pass": report["n_pass"], "n_fail": report["n_fail"]}
