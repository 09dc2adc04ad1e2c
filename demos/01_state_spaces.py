#!/usr/bin/env python3
"""Tour of the built-in state spaces.

Classical simplices live in exact rational arithmetic; regular polygons
carry cos/sin coordinates and run in float mode.  Every theory knows its
vertices (pure states), unit effect, and positive cone.
"""

import json
import math

from gptlab import (
    effect_eval,
    in_state_space,
    make_classical,
    make_disc_approx,
    make_polygon,
    theory_to_dict,
    validate_theory,
)

print("=== classical bit and trit (exact mode) ===")
for n_levels in (1, 2):
    t = make_classical(n_levels)
    validate_theory(t)
    print(f"{t.name}: vertices = {t.vertices}")
    print(f"          unit effect = {t.unit_effect}")

print()
print("=== regular polygons: circumradius r_n -> 1 as n grows ===")
print(f"{'n':>4} {'r_n':>12} {'r_n^2':>12}")
for n in (3, 4, 5, 6, 8, 12, 16, 32, 64):
    t = make_polygon(n)
    r = math.hypot(t.vertices[0][0], t.vertices[0][1])
    print(f"{n:>4} {r:>12.8f} {r * r:>12.8f}")

print()
print("=== structural checks ===")
t = make_polygon(7)
validate_theory(t)  # unit effect, full dimension (the facet table), extremality
print(f"polygon-7 facets: {len(t.facet_table[0])}")
print(f"unit effect on vertex 3: {effect_eval(t, t.unit_effect, t.vertices[3]):.12f}")
center = (0.0, 0.0, 1.0)
print(f"center is a state: {in_state_space(t, center)}")
print(f"(2, 0, 1) is a state: {in_state_space(t, (2.0, 0.0, 1.0))}")

print()
print("=== the disc as a limit of polygons ===")
t = make_disc_approx(64)
print(f"{t.name}: first vertex {tuple(round(x, 6) for x in t.vertices[0])}")

print()
print("=== JSON interchange (rationals stay exact) ===")
doc = theory_to_dict(make_classical(2))
print(json.dumps(doc, indent=2, sort_keys=True))
