#!/usr/bin/env python3
"""Joint measurability and the degree of incompatibility across polygons.

For perpendicular binary pairs in 4k-gons, the largest fuzzing weight
that keeps the pair jointly measurable is found by one LP, and the
analytic bound from the measurement-uncertainty relation brackets it.
Writes ``incompatibility_vs_n.csv`` next to this script.
"""

import csv
import math
import os

from gptlab import (
    degree_bound_closed_form,
    degree_bound_rhs,
    is_jointly_measurable,
    make_classical,
    make_polygon,
    marginals,
    max_fuzz_lambda,
    min_le_sum,
    min_mur_linf,
    perpendicular_ideal_pair,
    psi_transform,
)
from gptlab.ideal import enumerate_ideal_measurements

print("=== compatibility checks ===")
trit = make_classical(2)
m_all = enumerate_ideal_measurements(trit, 3)
print(f"classical trit: every ideal pair compatible: "
      f"{all(is_jointly_measurable(trit, a, b).compatible for a in m_all for b in m_all)}")
sq = psi_transform(make_polygon(4))
f4, g4 = perpendicular_ideal_pair(sq)
print(f"square perpendicular pair compatible: {is_jointly_measurable(sq, f4, g4).compatible}")

print()
print("=== fuzz until compatible: the square needs lambda <= 1/2 ===")
lam = max_fuzz_lambda(sq, f4, g4)
print(f"max lambda, square: {float(lam):.9f}")
res = min_mur_linf(sq, f4, g4)
print(f"min total sup-gap, square: {float(res.value):.9f} (= 2 * (1 - lambda)/2 at lambda = 1/2)")
mf, mg = marginals(res.joint)
print("optimal joint's row marginal:", [tuple(round(x, 4) for x in e) for e in mf.effects])

print()
print("=== degree-of-incompatibility bounds vs side count ===")
print(f"{'n':>4} {'max-lambda':>11} {'bound(LP-free)':>15} {'closed form':>12} "
      f"{'min LE sum':>11} {'min MUR':>9}")
rows = []
for n in range(4, 49, 4):
    t = psi_transform(make_polygon(n))
    f, g = perpendicular_ideal_pair(t)
    lam = float(max_fuzz_lambda(t, f, g))
    rhs = float(degree_bound_rhs(t, f, g))
    closed = degree_bound_closed_form(n)
    ple = float(min_le_sum(t, f, g).value)
    mur = float(min_mur_linf(t, f, g).value)
    rows.append([n, lam, rhs, closed, ple, mur])
    print(f"{n:>4} {lam:>11.6f} {rhs:>15.6f} {closed:>12.6f} {ple:>11.6f} {mur:>9.6f}")
print(f"(disc limit: closed form {degree_bound_closed_form(math.inf):.6f} = 1/sqrt(2), "
      "the qubit value)")

out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "incompatibility_vs_n.csv")
with open(out, "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["n", "max_lambda", "degree_bound_rhs", "degree_bound_closed_form",
                "min_le_sum", "min_mur_linf"])
    w.writerows(rows)
print(f"wrote {out}")
