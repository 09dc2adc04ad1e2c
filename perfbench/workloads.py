"""The benchmark's three workloads: inputs, ops, and answer checks.

Each workload has a ``setup`` that builds its inputs from the seed and a
``pass_ops`` generator that yields one pass of ops.  An op is one public
library call; the runner times ``Op.call``, sends the result back into
the generator (later ops may consume it) and then runs ``Op.check``,
which raises :class:`WrongAnswer` on a wrong result.  A call that raises
is a failed op, not a wrong answer.

- ``battery``: the seeded theorem battery (acceptance criteria 7 and 8).
  Thousands of tiny LPs, the Gram pairing and effect evaluation; a few
  theories serve many ops, so a per-theory cache would pay off here.
- ``curve``: the incompatibility curve on psi-re-expressed 4k-gons.  A
  few large dense float LPs; Werner, membership and the Gram hot path are
  skipped.  Known LP defects on this ladder are kept, not skipped.
- ``structure``: exact structure analysis of rational polytopes read from
  JSON, mostly through the CLI.  Nothing is shared between ops, as for a
  CLI user, so a cache cannot help and float-only LP changes cannot move
  it.
"""

from __future__ import annotations

import io
import itertools
import json
import os
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Any, Callable, Optional

import numpy as np

TOL = 1e-9  # agreement with recorded answers


class WrongAnswer(Exception):
    """A library call returned a result that contradicts its certificate."""


@dataclass
class Op:
    name: str  # the library call, for failure counts
    detail: str  # its inputs, for failure messages
    call: Callable[[], Any]
    check: Optional[Callable[[Any], None]] = None


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


# ---------------------------------------------------------------------------
# battery

EPS_GRID = [0.1, 0.2, 0.3, 0.45]
EPS_PAIRS = [(e1, e2) for e1 in EPS_GRID for e2 in EPS_GRID if e1 + e2 <= 1]
PROPC_GRID = [0.1 * k for k in range(1, 10)]


def setup_battery(g, seed: int, smoke: bool, workdir: str) -> dict:
    H, M, I = g.harness, g.model, g.ideal
    polygons, classical, even = ((3,), (1,), (4,)) if smoke else ((3, 5, 7, 8, 12), (1, 2), (4, 6, 8))
    theories = [H.prepare_conforming(M.make_polygon(n)) for n in polygons]
    theories += [H.prepare_conforming(M.make_classical(n)) for n in classical]
    evens = []
    for n in even:
        raw = M.make_polygon(n)
        f, gg = H.ideal_pair_for(raw)
        evens.append((n, f, gg, I.psi_transform(raw),
                      I.psi_map_measurement(f, n), I.psi_map_measurement(gg, n)))
    propc = [M.make_polygon(5)] if smoke else [
        M.make_polygon(5), I.psi_transform(M.make_polygon(8)), M.make_polygon(7)]
    return {
        "rng": np.random.default_rng(seed),
        "conforming": [(t, *H.ideal_pair_for(t)) for t in theories],
        "even": evens,
        "propc": [(t, H.ideal_pair_for(t)[0]) for t in propc],
    }


def _verdict(ref: dict, name: str):
    def check(rep) -> None:
        _expect(rep.passed == ref[name], f"{name} verdict {rep.passed}, recorded {ref[name]}")
        if name == "verify_thm1":
            ok = rep.extra.get("proof_candidate_ok")
            want = ref["verify_thm1.proof_candidate_ok"]
            _expect(ok == want, f"thm1 proof candidate {ok}, recorded {want}")
    return check


def _raw_joint(g, n, hat, fh, gh, rng):
    """A random joint on the re-expressed polygon, mapped back to raw coordinates."""
    jh = g.harness.random_joint(hat, fh, gh, rng)
    back = tuple(tuple(g.ideal.psi_map_effect(e, n, inverse=True) for e in row)
                 for row in jh.effects)
    return g.compat.JointMeasurement(jh.row_labels, jh.col_labels, back,
                                     jh.row_metric, jh.col_metric)


def battery_pass(g, st: dict, ref: dict, k: int):
    H = g.harness
    rng, ref = st["rng"], ref["battery"]["verdicts"]
    for t, f, gg in st["conforming"]:
        j = yield Op("random_joint", t.name, partial(H.random_joint, t, f, gg, rng))
        if j is None:
            continue
        yield Op("verify_thm2", t.name, partial(H.verify_thm2, t, f, gg, j),
                 _verdict(ref, "verify_thm2"))
        for e1, e2 in EPS_PAIRS:
            yield Op("verify_thm1", t.name, partial(H.verify_thm1, t, f, gg, j, e1, e2),
                     _verdict(ref, "verify_thm1"))
            yield Op("verify_cor1", t.name, partial(H.verify_cor1, t, f, gg, j, e1, e2),
                     _verdict(ref, "verify_cor1"))
    for n, f, gg, hat, fh, gh in st["even"]:
        j = yield Op("random_joint", f"polygon-{n}-psi",
                     partial(_raw_joint, g, n, hat, fh, gh, rng))
        if j is None:
            continue
        modes = (("thm2", (0.2, 0.2)), ("thm1", EPS_PAIRS[k % len(EPS_PAIRS)]),
                 ("cor1", EPS_PAIRS[(k + 3) % len(EPS_PAIRS)]))
        for mode, (e1, e2) in modes:
            yield Op("verify_thm3_even", f"n={n} {mode}",
                     partial(H.verify_thm3_even, n, f, gg, j, mode, e1, e2),
                     _verdict(ref, "verify_thm3_even"))
    for t, f in st["propc"]:
        ft = yield Op("random_postprocessed", t.name, partial(H.random_postprocessed, t, f, rng))
        if ft is None:
            continue
        yield Op("verify_propc", t.name, partial(H.verify_propc, t, ft, f, PROPC_GRID),
                 _verdict(ref, "verify_propc"))


# ---------------------------------------------------------------------------
# curve

def curve_sizes(smoke: bool) -> tuple:
    """Side counts, and the largest n for the joint-measurability and MUR LPs."""
    if smoke:
        return tuple(range(4, 13, 4)), 8, 8
    return tuple(range(4, 49, 4)), 32, 20


def setup_curve(g, seed: int, smoke: bool, workdir: str) -> dict:
    """Theories, perpendicular pairs and random pairs of the ladder.

    The random pairs do not depend on ``seed``: their LP cost varies tenfold
    from pair to pair (and some fail), so per-seed pairs would make the
    curve a different workload on every run.  They come from one fixed
    generator instead, and every run measures the same ops; the seed
    shuffles their order in each pass, so that ops of similar cost do not
    all run in the same stretch of time.
    """
    I, M = g.ideal, g.model
    ladder, jm_max, mur_max = curve_sizes(smoke)
    pair_rng = np.random.default_rng(0)
    rows = []
    for n in ladder:
        t = I.psi_transform(M.make_polygon(n))
        i, j = (int(x) for x in pair_rng.choice(n, size=2, replace=False))
        rows.append((n, t, *I.perpendicular_ideal_pair(t), i, j))
    return {"rng": np.random.default_rng(seed), "ladder": rows,
            "jm_max": jm_max, "mur_max": mur_max}


def _joint_certificate(g, t, joint, f, gg) -> None:
    """The joint is a valid measurement whose marginals are f and gg."""
    problems = g.compat.joint_violations(t, joint)
    _expect(not problems, "joint certificate: " + "; ".join(problems))
    for got, want in zip(g.compat.marginals(joint), (f, gg)):
        for eg, ew in zip(got.effects, want.effects):
            _expect(t.ctx.vec_eq(eg, ew), f"marginal {eg} differs from target effect {ew}")


def _fuzz_check(g, t, f, gg, recorded):
    def check(result) -> None:
        lam, joint = result
        _expect(0.5 - TOL <= lam <= 1 + TOL, f"lambda {lam} outside [1/2, 1]")
        if isinstance(recorded, float):
            _expect(abs(lam - recorded) <= TOL, f"lambda {lam!r}, recorded {recorded!r}")
        _joint_certificate(g, t, joint, g.ideal.fuzzify(t, f, lam), g.ideal.fuzzify(t, gg, lam))
    return check


def _mur_check(g, t, recorded):
    def check(res) -> None:
        if isinstance(recorded, float):
            _expect(abs(res.value - recorded) <= TOL, f"MUR {res.value!r}, recorded {recorded!r}")
        mf, mg = g.compat.marginals(res.joint)
        _joint_certificate(g, t, res.joint, mf, mg)
    return check


def _jm_check(g, t, f, gg, recorded):
    def check(res) -> None:
        if isinstance(recorded, bool):
            _expect(res.compatible == recorded,
                    f"compatible {res.compatible}, recorded {recorded}")
        if res.compatible:
            _joint_certificate(g, t, res.witness, f, gg)
    return check


def curve_pass(g, st: dict, ref: dict, k: int):
    C, I = g.compat, g.ideal
    ref = ref["curve"]
    ops = []
    for n, t, f, gg, i, j in st["ladder"]:
        key = str(n)
        ops.append(Op("max_fuzz_lambda", f"perpendicular n={n}",
                      partial(C.max_fuzz_lambda, t, f, gg, with_joint=True),
                      _fuzz_check(g, t, f, gg, ref["perp_lambda"][key])))
        fr, gr = I.binary_ideal_measurement(t, i), I.binary_ideal_measurement(t, j)
        ops.append(Op("max_fuzz_lambda", f"pair ({i},{j}) n={n}",
                      partial(C.max_fuzz_lambda, t, fr, gr, with_joint=True),
                      _fuzz_check(g, t, fr, gr, None)))
        if n <= st["jm_max"]:
            ops.append(Op("is_jointly_measurable", f"perpendicular n={n}",
                          partial(C.is_jointly_measurable, t, f, gg),
                          _jm_check(g, t, f, gg, ref["perp_jm"][key])))
        if n <= st["mur_max"]:
            ops.append(Op("min_mur_linf", f"perpendicular n={n}",
                          partial(C.min_mur_linf, t, f, gg),
                          _mur_check(g, t, ref["perp_mur"][key])))
    for idx in st["rng"].permutation(len(ops)):
        yield ops[idx]


# ---------------------------------------------------------------------------
# structure

def polytopes(smoke: bool) -> dict:
    """In-plane vertex coordinates of the rational test polytopes."""
    cube = list(itertools.product((-1, 1), repeat=3))
    tri = [(1, 0), (0, 1), (-1, -1)]
    out = {
        "square": list(itertools.product((-1, 1), repeat=2)),
        "hexagon": [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
        "prism": [p + (z,) for p in tri for z in (-1, 1)],
        "octahedron": [tuple(s if i == k else 0 for i in range(3))
                       for k in range(3) for s in (1, -1)],
        "cube": cube,
        "cross4": [tuple(s if i == k else 0 for i in range(4))
                   for k in range(4) for s in (1, -1)],
        "tesseract": list(itertools.product((-1, 1), repeat=4)),
    }
    if smoke:
        out = {k: out[k] for k in ("square", "hexagon", "prism")}
    return out


def classical_sizes(smoke: bool) -> tuple:
    return (2, 3) if smoke else (2, 3, 4, 5)


def theory_doc(name: str, pts) -> dict:
    """A theory JSON document: vertices (p, 1), unit effect (0, ..., 0, 1)."""
    d = len(pts[0]) + 1
    return {"name": name, "dim": d,
            "vertices": [[str(Fraction(c)) for c in p] + [1] for p in pts],
            "unit_effect": [0] * (d - 1) + [1]}


def setup_structure(g, seed: int, smoke: bool, workdir: str) -> dict:
    rng = np.random.default_rng(seed)
    os.makedirs(workdir, exist_ok=True)
    files = []
    for name, pts in polytopes(smoke).items():
        # a vertex relabelling and a signed permutation of the in-plane axes
        axes = rng.permutation(len(pts[0]))
        signs = rng.choice((-1, 1), size=len(pts[0]))
        moved = [tuple(int(signs[a]) * p[axes[a]] for a in range(len(p))) for p in pts]
        moved = [moved[i] for i in rng.permutation(len(moved))]
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(theory_doc(name, moved), fh)
        files.append((name, path, len(pts[0]) + 1))
    sizes = classical_sizes(smoke)
    return {"files": files, "classical": sizes,
            "pair_draws": {n: rng.uniform(size=2) for n in sizes}, "dual_rays": {}}


def _cli(g, argv) -> str:
    """Run the gptlab command in-process and return what it printed."""
    out = io.StringIO()
    with redirect_stdout(out):
        rc = g.cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"gptlab {' '.join(argv)} exited {rc}")
    return out.getvalue()


def _load_canonical(g, path):
    t = g.model.load_theory(path)
    return t, g.symmetry.canonicalize(t)


def _analyze_check(ref: dict, dim: int):
    def check(text: str) -> None:
        out = json.loads(text)
        for key in ("group_order", "transitive", "self_dual"):
            _expect(out[key] == ref[key], f"{key} {out[key]}, recorded {ref[key]}")
        if out["transitive"]:
            mixed = [0.0] * (dim - 1) + [1.0]
            _expect(all(abs(a - b) <= TOL for a, b in zip(out["maximally_mixed"], mixed)),
                    f"maximally mixed state {out['maximally_mixed']}")
    return check


def _canonical_check(g, st: dict, name: str, ref: dict):
    def check(result) -> None:
        t, form = result
        tc = form.theory
        _expect(form.group.order == ref["group_order"],
                f"canonical group order {form.group.order}, recorded {ref['group_order']}")
        _expect(tc.inner.gram == g.scalars.identity(tc.dim, tc.ctx), "pairing is not Euclidean")
        norms = [sum(a * a for a in v) for v in tc.vertices]
        _expect(max(norms) - min(norms) <= TOL, "canonical vertices differ in norm")
        _expect(all(abs(sum(a * b for a, b in zip(tc.unit_effect, v)) - 1) <= TOL
                    for v in tc.vertices), "unit effect is not one on every vertex")
        if name not in st["dual_rays"]:
            st["dual_rays"][name] = len(g.cones.dual_cone(t.cone, t.inner, t.ctx).generators)
        rays = st["dual_rays"][name]
        _expect(rays == ref["dual_rays"], f"dual cone has {rays} rays, recorded {ref['dual_rays']}")
    return check


def _listing_check(count: int, dim: int):
    unit = [Fraction(1)] * dim

    def check(text: str) -> None:
        ms = json.loads(text)
        _expect(len(ms) == count, f"{len(ms)} ideal measurements, recorded {count}")
        for m in ms:
            total = [sum(Fraction(e[c]) for e in m["effects"]) for c in range(dim)]
            _expect(total == unit, "listed measurement does not sum to the unit effect")
    return check


def structure_pass(g, st: dict, ref: dict, k: int):
    M, C = g.model, g.compat
    ref = ref["structure"]
    for name, path, dim in st["files"]:
        yield Op("cli.theory_analyze", name,
                 partial(_cli, g, ["theory", "analyze", "--theory", path]),
                 _analyze_check(ref["polytopes"][name], dim))
    for name, path, _dim in st["files"]:
        yield Op("canonicalize", name, partial(_load_canonical, g, path),
                 _canonical_check(g, st, name, ref["polytopes"][name]))
    listings = {}
    for n in st["classical"]:
        argv = ["measurements", "list", "--theory", f"classical:{n}", "--max-outcomes", "3"]
        text = yield Op("cli.measurements_list", f"classical:{n}", partial(_cli, g, argv),
                        _listing_check(ref["ideal_count"][str(n)], n + 1))
        if text is not None:
            listings[n] = json.loads(text)
    for n, ms in listings.items():
        # a seeded binary and a seeded three-outcome measurement: the LP's size
        # then depends on n only, not on the draw
        t = M.make_classical(n)
        binary = [m for m in ms if len(m["outcomes"]) == 2]
        ternary = [m for m in ms if len(m["outcomes"]) == 3]
        u, w = st["pair_draws"][n]
        f = M.measurement_from_dict(binary[int(u * len(binary))], t.ctx)
        gg = M.measurement_from_dict(ternary[int(w * len(ternary))], t.ctx)
        yield Op("is_jointly_measurable", f"classical:{n}",
                 partial(C.is_jointly_measurable, t, f, gg),
                 _jm_check(g, t, f, gg, ref["jm_compatible"]))


WORKLOADS = {
    "battery": (setup_battery, battery_pass),
    "curve": (setup_curve, curve_pass),
    "structure": (setup_structure, structure_pass),
}
