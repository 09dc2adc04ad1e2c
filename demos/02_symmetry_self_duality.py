#!/usr/bin/env python3
"""Symmetry groups, the invariant inner product, and self-duality.

Transitive theories have a unique invariant (maximally mixed) state and a
group-averaged inner product that turns every automorphism into an
isometry.  Odd polygons are self-dual under it; even polygons are only
weakly self-dual (their cone is a rotated copy of its dual).
"""

from dataclasses import replace

from gptlab import (
    automorphism_group,
    canonicalize,
    cones_equal,
    dual_cone,
    is_self_dual,
    is_transitive,
    make_classical,
    make_polygon,
    maximally_mixed,
    projector_pm,
    xi_canonicalize,
)
from gptlab.scalars import mat_vec

print("=== automorphism groups ===")
for t in (make_polygon(5), make_polygon(6), make_classical(2), make_classical(3)):
    g = automorphism_group(t)
    print(f"{t.name}: order {g.order}, transitive: {is_transitive(g, t)}")

print()
print("=== invariant state and projector ===")
t = make_polygon(8)
g = automorphism_group(t)
omega = maximally_mixed(t, g)
pm = projector_pm(g, t.ctx)
print(f"polygon-8 mixed state: {tuple(round(x, 12) for x in omega)}")
print("group average of the elements (projects onto the invariant axis):")
for row in pm:
    print("   ", tuple(round(x, 12) for x in row))

print()
print("=== self-duality classification ===")
print(f"{'n':>4} {'self-dual':>10}")
for n in range(3, 13):
    print(f"{n:>4} {str(is_self_dual(make_polygon(n))):>10}")

print()
print("=== the square's dual cone is a quarter-turn of the square ===")
t4 = make_polygon(4)
dual = dual_cone(t4.cone, t4.inner, t4.ctx)
print("dual rays (normalized):")
for ray in dual.generators:
    print("   ", tuple(round(x, 6) for x in ray))
print(f"equal to the primal cone: {cones_equal(t4.cone, dual, t4.ctx)}")

print()
print("=== canonical (Bloch) coordinates: unit effect = mixed state ===")
form = canonicalize(make_classical(2))
tc = form.theory
print(f"{tc.name}: unit effect {tuple(round(x, 9) for x in tc.unit_effect)}")
print("vertices (last coordinate is 1):")
for v in tc.vertices:
    print("   ", tuple(round(x, 6) for x in v))

print()
print("=== re-expressing a distorted self-dual theory ===")
p5 = make_polygon(5)
stretch = ((2.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 1.0))
stretched = replace(p5, name="pentagon-stretched", kind="custom",
                    vertices=tuple(mat_vec(stretch, v) for v in p5.vertices))
print("stretched pentagon self-dual w.r.t. its invariant product: "
      f"{is_self_dual(stretched)}")
j = ((0.25, 0.0, 0.0), (0.0, 0.25, 0.0), (0.0, 0.0, 1.0))
recovered = xi_canonicalize(stretched, j)
print(f"after the square-root re-expression: {is_self_dual(recovered)}")
print("first vertex:", tuple(round(x, 9) for x in recovered.vertices[0]),
      "(the regular pentagon again)")
