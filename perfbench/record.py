#!/usr/bin/env python3
"""Record the answers the benchmark's correctness gate compares against.

    python3 perfbench/record.py > perfbench/reference.json

Run this only at a commit whose answers are trusted: the gate then holds
every later commit to them.  It records

- the sha256 of ``report.json``, ``summary.csv`` and ``plot_data.csv`` from
  ``run_report(seed=0)`` on the default battery;
- each verifier's verdict over one battery pass;
- ``max_fuzz_lambda``, ``min_mur_linf`` and ``is_jointly_measurable`` of the
  perpendicular pair on every side count of the curve ladder, or the error
  text where the call fails;
- group order, transitivity, self-duality and dual-ray count of each
  structure polytope, and the ideal-measurement count of each classical
  theory listed.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

from run import OUT, REPORT_FILES, import_gptlab
import workloads as W


def _report_hashes(g) -> dict:
    out_dir = OUT / "report-record"
    try:
        g.harness.run_report(None, out_dir=str(out_dir), seed=0)
        return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                for name in REPORT_FILES}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _battery_verdicts(g) -> dict:
    st = W.setup_battery(g, 0, False, "")
    verdicts = {}
    gen = W.battery_pass(g, st, {"battery": {"verdicts": {}}}, 0)
    result = None
    while True:
        try:
            op = gen.send(result)
        except StopIteration:
            break
        result = op.call()
        if op.name.startswith("verify_"):
            verdicts[op.name] = verdicts.get(op.name, True) and bool(result.passed)
            if op.name == "verify_thm1":
                key = "verify_thm1.proof_candidate_ok"
                ok = bool(result.extra.get("proof_candidate_ok"))
                verdicts[key] = verdicts.get(key, True) and ok
    return verdicts


def _attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def _curve(g) -> dict:
    ladder, jm_max, mur_max = W.curve_sizes(False)
    lam, jm, mur = {}, {}, {}
    for n in ladder:
        t = g.ideal.psi_transform(g.model.make_polygon(n))
        f, gg = g.ideal.perpendicular_ideal_pair(t)
        lam[str(n)] = _attempt(g.compat.max_fuzz_lambda, t, f, gg)
        if n <= jm_max:
            res = _attempt(g.compat.is_jointly_measurable, t, f, gg)
            jm[str(n)] = res if isinstance(res, dict) else res.compatible
        if n <= mur_max:
            res = _attempt(g.compat.min_mur_linf, t, f, gg)
            mur[str(n)] = res if isinstance(res, dict) else res.value
    return {"perp_lambda": lam, "perp_jm": jm, "perp_mur": mur}


def _structure(g) -> dict:
    polys = {}
    for name, pts in W.polytopes(False).items():
        t = g.model.theory_from_dict(W.theory_doc(name, pts))
        grp = g.symmetry.automorphism_group(t)
        polys[name] = {
            "group_order": grp.order,
            "transitive": g.symmetry.is_transitive(grp, t),
            "self_dual": g.symmetry.is_self_dual(t, g.symmetry.averaged_inner_product(grp, t.ctx)),
            "dual_rays": len(g.cones.dual_cone(t.cone, t.inner, t.ctx).generators),
        }
    counts, compatible = {}, True
    for n in W.classical_sizes(False):
        t = g.model.make_classical(n)
        ms = g.ideal.enumerate_ideal_measurements(t, 3)
        counts[str(n)] = len(ms)
        compatible = compatible and g.compat.is_jointly_measurable(t, ms[0], ms[-1]).compatible
    return {"polytopes": polys, "ideal_count": counts, "jm_compatible": compatible}


def main() -> int:
    g = import_gptlab()
    ref = {
        "report_sha256": _report_hashes(g),
        "battery": {"verdicts": _battery_verdicts(g)},
        "curve": _curve(g),
        "structure": _structure(g),
    }
    json.dump(ref, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
