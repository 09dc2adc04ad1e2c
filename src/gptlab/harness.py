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
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .compat import (
    JointMeasurement,
    degree_bound_closed_form,
    degree_bound_rhs,
    joint_violations,
    marginals,
)
from .ideal import (
    IdealMeasurement,
    binary_ideal_measurement,
    enumerate_ideal_measurements,
    fuzzify,
    perpendicular_ideal_pair,
    psi_map_joint,
    psi_map_measurement,
    psi_transform,
)
from .measures import (
    distribution,
    error_bar_width,
    linf_distance,
    localization_error,
    metric_of,
    min_le_sum,
    overall_width,
    werner_distance,
)
from .model import Measurement, Theory, effect_eval, in_state_space, make_classical, make_polygon
from .scalars import vadd, vscale
from .symmetry import canonicalize

SLACK = 1e-9  # absolute slack granted to the ">=" side of every inequality


@dataclass(frozen=True)
class VerificationReport:
    """Self-contained record of one theorem check, replayable from inputs."""

    check: str
    theory: str
    params: dict
    inequalities: list  # dicts: {label, lhs, rhs, ok}
    witness: Optional[list]
    passed: bool
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "theory": self.theory,
            "params": self.params,
            "inequalities": self.inequalities,
            "witness": self.witness,
            "passed": self.passed,
            "extra": self.extra,
        }


def prepare_conforming(t: Theory) -> Theory:
    """Re-express a theory so the eigenstate lemma applies.

    Odd polygons and re-expressed even polygons pass through; raw even
    polygons get the stretch re-expression; anything else is
    canonicalized (which also covers classical theories).
    """
    if t.kind == "polygon-psi":
        return t
    if t.kind == "polygon":
        if t.n % 2 == 0:
            return psi_transform(t)
        return t
    return canonicalize(t).theory


def _cell_states(t: Theory, j: JointMeasurement, check: bool = False) -> list:
    """((a, b), m_ab / <u, m_ab>) for every cell of positive mass, in grid order.

    With ``check`` every state is tested for membership in Omega, and a
    cell that leaves it raises ValueError.
    """
    ctx = t.ctx
    out = []
    for a, row in zip(j.row_labels, j.effects):
        for b, e in zip(j.col_labels, row):
            mass = t.inner.pair(t.unit_effect, e)
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


def witness_candidates(t: Theory, j: JointMeasurement) -> list:
    """All cell states m_ab / <u, m_ab> with positive mass, checked in Omega."""
    return [state for _ab, state in _cell_states(t, j, check=True)]


def _cell_scan(t: Theory, f: Measurement, g: Measurement, j: JointMeasurement,
               check: bool = False):
    """(cell, state, F distribution, G distribution) per cell state, in grid order."""
    for cell, state in _cell_states(t, j, check):
        yield (cell, state, distribution(t, f, state, check_state=False),
               distribution(t, g, state, check_state=False))


def _holds(rows) -> bool:
    """Every (label, lhs, rhs) row satisfies lhs >= rhs up to SLACK."""
    return all(lhs >= rhs - SLACK for _label, lhs, rhs in rows)


def _witness_report(check: str, t: Theory, params: dict, candidates, fail: tuple,
                    tail: tuple = (), extra: Optional[dict] = None) -> VerificationReport:
    """Report on the first (state, rows) candidate whose rows all hold.

    Its rows become the passing inequalities; when no candidate holds,
    the single (label, lhs, rhs) ``fail`` row is reported instead.  The
    ``tail`` rows are checked and appended either way and also gate
    ``passed``; ``extra`` is kept only when a witness was found.
    """
    witness, rows = next(((s, r) for s, r in candidates if _holds(r)), (None, [fail]))
    found = witness is not None
    checked = [(row, found) for row in rows] + [(row, _holds([row])) for row in tail]
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


def verify_thm1(t: Theory, f: IdealMeasurement, g: IdealMeasurement,
                j: JointMeasurement, eps1: float, eps2: float) -> VerificationReport:
    """Error-bar widths of the marginals bound overall widths on a witness."""
    if not (0 <= eps1 <= 1 and 0 <= eps2 <= 1 and eps1 + eps2 <= 1):
        raise ValueError("confidence levels must satisfy eps1, eps2 in [0,1], eps1+eps2 <= 1")
    mf, mg = marginals(j)
    w1 = error_bar_width(t, mf, f, eps1)
    w2 = error_bar_width(t, mg, g, eps2)
    eps = eps1 + eps2
    metric_f, metric_g = metric_of(f), metric_of(g)
    # (the proof's scan functional: ball mass of F around a' plus of G around
    # b', state, rows) for every cell, not just up to the first witness
    scored = [
        (sum(df.probs[i] for i in metric_f.ball(a, w1, t.ctx))
         + sum(dg.probs[i] for i in metric_g.ball(b, w2, t.ctx)),
         state,
         [("errorbar_F >= overall_F", w1, overall_width(df, eps, t.ctx)),
          ("errorbar_G >= overall_G", w2, overall_width(dg, eps, t.ctx))])
        for (a, b), state, df, dg in _cell_scan(t, f, g, j, check=True)
    ]
    # proof-faithfulness: the cell maximizing the scan functional must itself
    # be a passing witness
    best = max(scored, key=lambda c: c[0], default=None)
    return _witness_report(
        "thm1", t, {"eps1": eps1, "eps2": eps2},
        [(state, rows) for _score, state, rows in scored],
        ("no candidate satisfied both width bounds", w1, w2),
        extra={"proof_candidate_ok": best is not None and _holds(best[2])},
    )


def verify_cor1(t: Theory, f: IdealMeasurement, g: IdealMeasurement,
                j: JointMeasurement, eps1: float, eps2: float) -> VerificationReport:
    """Lipschitz-ball distances bound scaled overall widths on a witness."""
    if not (0 < eps1 <= 1 and 0 < eps2 <= 1 and eps1 + eps2 <= 1):
        raise ValueError("confidence levels must satisfy eps1, eps2 in (0,1], eps1+eps2 <= 1")
    mf, mg = marginals(j)
    dw_f = werner_distance(t, mf, f)
    dw_g = werner_distance(t, mg, g)
    eps = eps1 + eps2
    return _witness_report(
        "cor1", t, {"eps1": eps1, "eps2": eps2},
        ((state, [("D_W(F) >= eps1/2 * overall_F", dw_f,
                   eps1 / 2 * overall_width(df, eps, t.ctx)),
                  ("D_W(G) >= eps2/2 * overall_G", dw_g,
                   eps2 / 2 * overall_width(dg, eps, t.ctx))])
         for _ab, state, df, dg in _cell_scan(t, f, g, j)),
        ("no candidate satisfied both scaled width bounds", dw_f, dw_g),
    )


def verify_thm2(t: Theory, f: IdealMeasurement, g: IdealMeasurement,
                j: JointMeasurement) -> VerificationReport:
    """Summed sup-gaps of the marginals bound summed localization errors."""
    mf, mg = marginals(j)
    d_f = linf_distance(t, mf, f)
    d_g = linf_distance(t, mg, g)
    lhs = d_f + d_g
    # cross-module law: the sum also dominates the global vertex minimum
    mls = min_le_sum(t, f, g)
    return _witness_report(
        "thm2", t, {},
        ((state, [("D_inf(F)+D_inf(G) >= LE(F)+LE(G)", lhs,
                   localization_error(df) + localization_error(dg))])
         for _ab, state, df, dg in _cell_scan(t, f, g, j)),
        ("no candidate satisfied the localization-error bound", d_f, d_g),
        tail=(("D_inf sum >= min_LE_sum", lhs, mls.value),),
    )


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


def verify_thm3_even(n: int, f: IdealMeasurement, g: IdealMeasurement,
                     j: JointMeasurement, mode: str,
                     eps1: float = 0.2, eps2: float = 0.2) -> VerificationReport:
    """Even-polygon version: re-express, delegate, and check probability agreement.

    Inputs are given in raw polygon coordinates; the theory, both
    measurements, and the joint are mapped through the stretch before the
    chosen verifier runs.
    """
    if n % 2 != 0:
        raise ValueError("this check is for even polygons")
    raw = make_polygon(n)
    hat = psi_transform(raw)
    f_hat = psi_map_measurement(f, n)
    g_hat = psi_map_measurement(g, n)
    j_hat = psi_map_joint(j, n)
    # probability covariance across the re-expression
    max_dev = 0.0
    for meas_raw, meas_hat in ((f, f_hat), (g, g_hat)):
        for v_raw, v_hat in zip(raw.vertices, hat.vertices):
            for e_raw, e_hat in zip(meas_raw.effects, meas_hat.effects):
                dev = abs(effect_eval(raw, e_raw, v_raw) - effect_eval(hat, e_hat, v_hat))
                max_dev = max(max_dev, dev)
    rep = verify_mode(mode, hat, f_hat, g_hat, j_hat, eps1, eps2)
    return replace(
        rep,
        check=f"thm3[{mode}]",
        theory=f"polygon-{n}",
        passed=rep.passed and max_dev < 1e-9,
        extra={**rep.extra, "psi_probability_deviation": max_dev},
    )


def verify_propc(t: Theory, f_approx: Measurement, f_ideal: Measurement,
                 eps_grid) -> VerificationReport:
    """Error-bar width is bounded by (2/eps) times the Lipschitz distance."""
    dw = werner_distance(t, f_approx, f_ideal)
    ineqs = []
    ok_all = True
    for eps in eps_grid:
        if not 0 < eps <= 1:
            raise ValueError("eps must lie in (0, 1]")
        w = error_bar_width(t, f_approx, f_ideal, eps)
        ok = w <= (2 / eps) * dw + SLACK
        ok_all = ok_all and ok
        ineqs.append({"label": f"W_eps <= (2/eps) D_W @ eps={eps}",
                      "lhs": float(w), "rhs": float((2 / eps) * dw), "ok": bool(ok)})
    return VerificationReport(
        check="propC",
        theory=t.name,
        params={"eps_grid": list(map(float, eps_grid))},
        inequalities=ineqs,
        witness=None,
        passed=ok_all,
    )


# ---------------------------------------------------------------------------
# randomized inputs (deterministic under a seeded generator)

def random_joint(t: Theory, f: Measurement, g: Measurement,
                 rng: np.random.Generator) -> JointMeasurement:
    """A valid random joint on the F x G outcome grid, feasible by construction.

    Dirichlet mixture of: the diagonal joints of fuzzified F and G (when
    the grids are square), rank-one joints built from a fuzzified
    measurement and a random outcome distribution, and the uniform joint.
    The uniform component keeps a fixed floor so no cell vanishes.
    """
    ctx = t.ctx
    na, nb = f.n_outcomes, g.n_outcomes
    lam_f, lam_g = rng.uniform(), rng.uniform()
    ft = fuzzify(t, f, ctx.convert(lam_f))
    gt = fuzzify(t, g, ctx.convert(lam_g))
    qa = rng.dirichlet(np.ones(na))
    qb = rng.dirichlet(np.ones(nb))

    components = []
    if na == nb:
        zero = tuple(ctx.zero() for _ in range(t.dim))
        components.append(tuple(
            tuple(ft.effects[a] if a == b else zero for b in range(nb)) for a in range(na)
        ))
        components.append(tuple(
            tuple(gt.effects[b] if a == b else zero for b in range(nb)) for a in range(na)
        ))
    components.append(tuple(
        tuple(vscale(ctx.convert(qb[b]), ft.effects[a]) for b in range(nb)) for a in range(na)
    ))
    components.append(tuple(
        tuple(vscale(ctx.convert(qa[a]), gt.effects[b]) for b in range(nb)) for a in range(na)
    ))
    ucell = vscale(1 / ctx.convert(na * nb), t.unit_effect)
    components.append(tuple(tuple(ucell for _ in range(nb)) for _ in range(na)))

    weights = rng.dirichlet(np.ones(len(components)))
    weights = weights * 0.9
    weights[-1] += 0.1  # keep every cell strictly positive in mass
    grid = []
    for a in range(na):
        row = []
        for b in range(nb):
            cell = tuple(ctx.zero() for _ in range(t.dim))
            for w, comp in zip(weights, components):
                cell = vadd(cell, vscale(ctx.convert(w), comp[a][b]))
            row.append(cell)
        grid.append(tuple(row))
    j = JointMeasurement(
        row_labels=f.outcomes, col_labels=g.outcomes, effects=tuple(grid),
        row_metric=metric_of(f), col_metric=metric_of(g),
    )
    problems = joint_violations(t, j)
    if problems:
        raise RuntimeError("random joint failed validation: " + "; ".join(problems))
    return j


def random_postprocessed(t: Theory, f: Measurement, rng: np.random.Generator) -> Measurement:
    """Dirichlet-perturbed version of a measurement: a random stochastic
    post-processing of its effects, which is always a valid measurement."""
    ctx = t.ctx
    k = f.n_outcomes
    w = rng.dirichlet(np.ones(k), size=k)  # w[:, b] columns sum to 1 after transpose
    w = w.T
    effects = []
    for a in range(k):
        e = tuple(ctx.zero() for _ in range(t.dim))
        for b in range(k):
            e = vadd(e, vscale(ctx.convert(w[a][b]), f.effects[b]))
        effects.append(e)
    return Measurement(outcomes=f.outcomes, effects=tuple(effects), metric=f.metric)


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


def run_report(config: Optional[dict] = None, out_dir: str = "report",
               seed: int = 0) -> dict:
    """Run the declared battery and write JSON + CSV outputs.

    Identical config and seed produce byte-identical files: all randomness
    flows through one seeded generator and results are emitted in declared
    order.
    """
    cfg = dict(default_battery())
    if config:
        cfg.update(config)
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
            note(verify_thm1(t, f, g, j, cfg["eps_grid"][0], cfg["eps_grid"][1]), n, f"joint{k}")
            note(verify_cor1(t, f, g, j, cfg["eps_grid"][0], cfg["eps_grid"][1]), n, f"joint{k}")
            note(verify_thm2(t, f, g, j), n, f"joint{k}")
    for nn in cfg["theorem_theories"].get("classical", []):
        t = prepare_conforming(make_classical(nn))
        f, g = ideal_pair_for(t)
        for k in range(cfg["joints_per_case"]):
            j = random_joint(t, f, g, rng)
            note(verify_thm2(t, f, g, j), nn, f"joint{k}")
    for n in cfg["theorem_theories"].get("even", []):
        raw = make_polygon(n)
        f_raw, g_raw = ideal_pair_for(raw)
        hat = psi_transform(raw)
        f_hat, g_hat = psi_map_measurement(f_raw, n), psi_map_measurement(g_raw, n)
        for k in range(cfg["joints_per_case"]):
            j_hat = random_joint(hat, f_hat, g_hat, rng)
            j_raw = psi_map_joint(j_hat, n, inverse=True)
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
