#!/usr/bin/env python3
"""Preparation uncertainty implies measurement uncertainty: live checks.

Every random joint measurement of an ideal pair hides a witness state on
which the marginal errors dominate the preparation widths.  The verifiers
scan the proof's own candidate family (normalized joint cells) and report
the inequalities; a small batch battery writes report files.
"""

import tempfile

import numpy as np

from gptlab import make_polygon
from gptlab.harness import (
    ideal_pair_for,
    prepare_conforming,
    random_joint,
    run_report,
    verify_cor1,
    verify_thm1,
    verify_thm2,
    verify_thm3_even,
)

rng = np.random.default_rng(12345)

print("=== one random joint on the heptagon, all three statements ===")
t = prepare_conforming(make_polygon(7))
f, g = ideal_pair_for(t)
j = random_joint(t, f, g, rng)
for rep in (verify_thm1(t, f, g, j, 0.2, 0.25),
            verify_cor1(t, f, g, j, 0.2, 0.25),
            verify_thm2(t, f, g, j)):
    print(f"{rep.check}: passed={rep.passed}")
    for iq in rep.inequalities:
        print(f"    {iq['label']}: lhs={iq['lhs']:.6f} rhs={iq['rhs']:.6f}")
    if rep.witness:
        print(f"    witness state: {tuple(round(x, 6) for x in rep.witness)}")

print()
print("=== the even-polygon route (re-express, then verify) ===")
raw = make_polygon(6)
f6, g6 = ideal_pair_for(raw)
from gptlab.ideal import psi_transform

hat = psi_transform(raw)
psi = hat.coordinates  # states stretched, effects shrunk; psi.inverse maps back
jh = random_joint(hat, psi.measurement(f6), psi.measurement(g6), rng)
j_raw = psi.inverse.joint(jh)
rep = verify_thm3_even(6, f6, g6, j_raw, "thm2")
print(f"{rep.check}: passed={rep.passed}, "
      f"probability deviation across the re-expression: "
      f"{rep.extra['psi_probability_deviation']:.2e}")

print()
print("=== a small batch battery ===")
with tempfile.TemporaryDirectory() as tmp:
    cfg = {
        "theorem_theories": {"polygon": [5, 8], "classical": [2], "even": [4]},
        "joints_per_case": 5,
        "propc_cases": 3,
        "polygons": [4, 8, 12, 16],
    }
    out = run_report(cfg, out_dir=tmp, seed=7)
    print(f"checks passed: {out['n_pass']}, failed: {out['n_fail']}")
    with open(out["plot_data"]) as fh:
        print("plot data (preparation floor and incompatibility bounds vs n):")
        print(fh.read().strip())
