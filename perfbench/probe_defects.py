#!/usr/bin/env python3
"""Opt-in probe of the known min_mur_linf scaling defects (outside the benchmark).

    python3 perfbench/probe_defects.py

Runs ``min_mur_linf`` once on the perpendicular pair of the
psi-re-expressed polygon at n = 28 and once at n = 40, and prints one JSON
line per call with its wall time and outcome.  At the commit that added
the benchmark, both calls fail after about 47 s each (see NOTES.md); a fix
to the LP engine should turn both into fast optimal answers.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from run import import_gptlab

SIDES = (28, 40)


def main() -> int:
    g = import_gptlab()
    for n in SIDES:
        t = g.ideal.psi_transform(g.model.make_polygon(n))
        f, gg = g.ideal.perpendicular_ideal_pair(t)
        t0 = perf_counter()
        try:
            value = g.compat.min_mur_linf(t, f, gg).value
            outcome = {"status": "optimal", "value": float(value)}
        except Exception as exc:
            outcome = {"status": "error", "error": f"{type(exc).__name__}: {exc}"}
        print(json.dumps({"probe": f"min_mur_linf perpendicular n={n}",
                          "seconds": round(perf_counter() - t0, 3), **outcome}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
