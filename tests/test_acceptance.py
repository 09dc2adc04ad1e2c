"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time
from fractions import Fraction as Fr

import numpy as np

from gptlab import harness
from gptlab.cones import Cone, cone_member
from gptlab.compat import degree_bound_closed_form, degree_bound_rhs, max_fuzz_lambda, min_mur_linf
from gptlab.ideal import (
    binary_ideal_measurement,
    enumerate_ideal_measurements,
    fuzzify,
    perpendicular_ideal_pair,
    psi_transform,
)
from gptlab.measures import min_le_sum, werner_distance
from gptlab.model import effect_eval, make_classical, make_polygon
from gptlab.scalars import EXACT
from gptlab.symmetry import (
    automorphism_group,
    averaged_inner_product,
    canonicalize,
    is_self_dual,
    maximally_mixed,
    xi_canonicalize,
)

from helpers import member_bruteforce

INV_SQ2 = 1 / math.sqrt(2)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:2d}] {verdict}: {name}{suffix}")
    assert ok, f"criterion {num} failed: {name} {suffix}"


def test_criterion_01_self_duality_classification():
    t0 = time.time()
    ok = True
    for n in (3, 5, 7, 9):
        ok = ok and is_self_dual(make_polygon(n))
    for n in (4, 6, 8, 10):
        ok = ok and not is_self_dual(make_polygon(n))
    elapsed = time.time() - t0
    report(1, "self-duality of polygons (odd yes, even no)", ok and elapsed < 1.0,
           f"{elapsed: .2f}s")


def test_criterion_02_averaged_inner_product_identity():
    worst = 0.0
    for n in range(3, 13):
        t = make_polygon(n)
        gram = averaged_inner_product(automorphism_group(t), t.ctx).gram
        dev = max(abs(gram[i][j] - (1.0 if i == j else 0.0))
                  for i in range(3) for j in range(3))
        worst = max(worst, dev)
    ok = worst < 1e-12
    exact_ok = True
    for nn in (1, 2, 3):
        t = make_classical(nn)
        gram = averaged_inner_product(automorphism_group(t), t.ctx).gram
        d = nn + 1
        exact_ok = exact_ok and gram == tuple(
            tuple(Fr(1) if i == j else Fr(0) for j in range(d)) for i in range(d)
        )
    report(2, "group-averaged product is the Euclidean one", ok and exact_ok,
           f"max float deviation {worst:.2e}, classical exact {exact_ok}")


def test_criterion_03_degree_bounds_match_closed_form():
    t0 = time.time()
    expected = {4: 1.0, 8: INV_SQ2, 12: (1 / math.cos(math.pi / 12)) * INV_SQ2, 16: INV_SQ2}
    ok = True
    details = []
    for n, want in expected.items():
        t = psi_transform(make_polygon(n))
        f, g = perpendicular_ideal_pair(t)
        got = float(degree_bound_rhs(t, f, g))
        closed = degree_bound_closed_form(n)
        ok = ok and abs(got - closed) < 1e-9 and abs(got - want) < 1e-9
        details.append(f"n={n}: {got:.7f}")
    elapsed = time.time() - t0
    report(3, "incompatibility bounds for perpendicular pairs", ok and elapsed < 1.0,
           "; ".join(details))


def test_criterion_04_preparation_uncertainty_floors():
    t8 = psi_transform(make_polygon(8))
    v8 = float(min_le_sum(t8, *perpendicular_ideal_pair(t8)).value)
    t12 = psi_transform(make_polygon(12))
    v12 = float(min_le_sum(t12, *perpendicular_ideal_pair(t12)).value)
    want8 = 1 - INV_SQ2
    want12 = 1 - (1 / math.cos(math.pi / 12)) * INV_SQ2
    ok = abs(v8 - want8) < 1e-9 and abs(v12 - want12) < 1e-9
    report(4, "minimal localization-error sums (octagon, 12-gon)", ok,
           f"n=8: {v8:.9f}; n=12: {v12:.9f}")


def test_criterion_05_measurement_uncertainty_floors():
    t8 = psi_transform(make_polygon(8))
    mur8 = float(min_mur_linf(t8, *perpendicular_ideal_pair(t8)).value)
    t4 = psi_transform(make_polygon(4))
    mur4 = float(min_mur_linf(t4, *perpendicular_ideal_pair(t4)).value)
    ok = mur8 >= 1 - INV_SQ2 - 1e-9 and mur4 <= 0.5 + 1e-9
    report(5, "LP error floor: octagon above PUR bound, square at one half", ok,
           f"n=8: {mur8:.9f} >= {1 - INV_SQ2:.9f}; n=4: {mur4:.9f} <= 0.5")


def test_criterion_06_fuzzing_thresholds():
    t4 = psi_transform(make_polygon(4))
    lam4 = float(max_fuzz_lambda(t4, *perpendicular_ideal_pair(t4)))
    ok = abs(lam4 - 0.5) < 1e-9
    worst = 1.0
    for n in range(4, 17):
        t = psi_transform(make_polygon(n)) if n % 2 == 0 else make_polygon(n)
        pures = range(0, (n + 1) // 2)
        f = binary_ideal_measurement(t, 0)
        for k in list(pures)[1:]:
            g = binary_ideal_measurement(t, k)
            lam = float(max_fuzz_lambda(t, f, g))
            worst = min(worst, lam)
            ok = ok and lam >= 0.5 - 1e-9
    report(6, "fuzzing threshold: square pair at 1/2, all pairs above 1/2", ok,
           f"square: {lam4:.9f}; smallest over n in 4..16: {worst:.9f}")


def test_criterion_07_theorem_property_suite():
    t0 = time.time()
    rng = np.random.default_rng(2026)
    eps_grid = [0.1, 0.2, 0.3, 0.45]
    pairs = [(e1, e2) for e1 in eps_grid for e2 in eps_grid if e1 + e2 <= 1]
    n_joints = 100
    failures = []
    checked = 0

    theories = [harness.prepare_conforming(make_polygon(n)) for n in (3, 5, 7, 8, 12)]
    theories += [harness.prepare_conforming(make_classical(nn)) for nn in (1, 2)]
    for t in theories:
        f, g = harness.ideal_pair_for(t)
        for k in range(n_joints):
            j = harness.random_joint(t, f, g, rng)
            grid = harness.verify_grid(t, f, g, j, pairs)
            if not grid.thm2.passed:
                failures.append((t.name, k, "thm2"))
            checked += 1
            for (e1, e2), r1, r2 in zip(pairs, grid.thm1, grid.cor1):
                if not (r1.passed and r1.extra.get("proof_candidate_ok")):
                    failures.append((t.name, k, f"thm1@{e1},{e2}"))
                if not r2.passed:
                    failures.append((t.name, k, f"cor1@{e1},{e2}"))
                checked += 2

    from gptlab.ideal import psi_map_measurement

    for n in (4, 6, 8):
        raw = make_polygon(n)
        f_raw, g_raw = harness.ideal_pair_for(raw)
        hat = psi_transform(raw)
        fh = psi_map_measurement(f_raw, n)
        gh = psi_map_measurement(g_raw, n)
        for k in range(n_joints):
            j_raw = hat.coordinates.inverse.joint(harness.random_joint(hat, fh, gh, rng))
            for mode, (e1, e2) in (("thm2", (0.2, 0.2)), ("thm1", pairs[k % len(pairs)]),
                                   ("cor1", pairs[(k + 3) % len(pairs)])):
                rep = harness.verify_thm3_even(n, f_raw, g_raw, j_raw, mode, e1, e2)
                if not rep.passed:
                    failures.append((f"polygon-{n}-psi", k, f"thm3[{mode}]"))
                checked += 1

    elapsed = time.time() - t0
    ok = not failures and elapsed < 120
    report(7, "theorem suite on seeded random joints", ok,
           f"{checked} checks, {len(failures)} failures, {elapsed:.1f}s")


def test_criterion_08_error_bar_vs_lipschitz_suite():
    rng = np.random.default_rng(404)
    eps_grid = [0.1 * k for k in range(1, 10)]
    violations = 0
    cases = 0
    theories = [make_polygon(5), psi_transform(make_polygon(8)), make_polygon(7)]
    per_theory = (17, 17, 16)  # 50 perturbed measurements in total
    for t, reps in zip(theories, per_theory):
        f, _ = harness.ideal_pair_for(t)
        for _ in range(reps):
            ft = harness.random_postprocessed(t, f, rng)
            rep = harness.verify_propc(t, ft, f, eps_grid)
            cases += 1
            if not rep.passed:
                violations += 1
    closed_ok = True
    t5 = make_polygon(5)
    f5 = binary_ideal_measurement(t5, 0)
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        dw = werner_distance(t5, fuzzify(t5, f5, lam), f5)
        closed_ok = closed_ok and abs(float(dw) - (1 - lam) / 2) < 1e-9
    ok = violations == 0 and cases == 50 and closed_ok
    report(8, "error-bar width bounded by scaled Lipschitz distance", ok,
           f"{cases} perturbed measurements, {violations} violations, closed form {closed_ok}")


def test_criterion_09_eigenstate_lemmas():
    ok_u = True
    for t in (make_classical(1), make_classical(2), make_polygon(5), make_polygon(6)):
        form = canonicalize(t)
        tc = form.theory
        omega = maximally_mixed(tc, form.group)
        ok_u = ok_u and all(abs(a - b) < 1e-9 for a, b in zip(tc.unit_effect, omega))
    ok_eig = True
    n_effects = 0
    for n in (3, 5, 7, 9):
        t = make_polygon(n)
        for m in enumerate_ideal_measurements(t, 3):
            for e in m.effects:
                mass = t.inner.pair(t.unit_effect, e)
                val = effect_eval(t, e, tuple(c / mass for c in e))
                ok_eig = ok_eig and abs(val - 1) < 1e-9
                n_effects += 1
    for n in (4, 6, 8):
        t = psi_transform(make_polygon(n))
        for m in enumerate_ideal_measurements(t, 3):
            for e in m.effects:
                mass = t.inner.pair(t.unit_effect, e)
                val = effect_eval(t, e, tuple(c / mass for c in e))
                ok_eig = ok_eig and abs(val - 1) < 1e-9
                n_effects += 1
    report(9, "unit effect meets mixed state; ideal effects hit one on eigenstates",
           ok_u and ok_eig, f"{n_effects} ideal effects checked")


def test_criterion_10_xi_reexpression():
    from dataclasses import replace
    from gptlab.scalars import mat_vec

    t = make_polygon(5)
    stretch = ((2.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 1.0))
    stretched = replace(t, name="pentagon-stretched", kind="custom",
                        vertices=tuple(mat_vec(stretch, v) for v in t.vertices))
    j = ((0.25, 0.0, 0.0), (0.0, 0.25, 0.0), (0.0, 0.0, 1.0))
    out = xi_canonicalize(stretched, j)
    ok_stretch = is_self_dual(out)

    ident = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    out_id = xi_canonicalize(t, ident)
    dev = max(abs(a - b) for v, w in zip(out_id.vertices, t.vertices) for a, b in zip(v, w))
    ok_id = dev < 1e-12
    report(10, "stretched pentagon re-expressed to a self-dual form", ok_stretch and ok_id,
           f"identity-map deviation {dev:.2e}")


def test_criterion_11_oracle_equivalences():
    # (a) membership LP against brute-force facet enumeration
    rnd = np.random.default_rng(77)
    queries = 0
    ok_a = True
    while queries < 200:
        d = int(rnd.integers(2, 5))
        k = int(rnd.integers(d, 9))
        gens = []
        for _ in range(k):
            g = tuple(Fr(int(x)) for x in rnd.integers(-4, 5, size=d))
            if any(a != 0 for a in g):
                gens.append(g)
        from gptlab.scalars import rank

        if len(gens) < d or rank(gens, EXACT) < d:
            continue
        cone = Cone(tuple(gens))
        if rnd.uniform() < 0.5:
            weights = [Fr(int(x)) for x in rnd.integers(0, 4, size=len(gens))]
            q = tuple(sum(w * g[i] for w, g in zip(weights, gens)) for i in range(d))
        else:
            q = tuple(Fr(int(x)) for x in rnd.integers(-5, 6, size=d))
        ok_a = ok_a and cone_member(cone, q, EXACT) == member_bruteforce(gens, q, EXACT)
        queries += 1

    # (b) Lipschitz-ball LP against the fuzzified closed form
    t5 = make_polygon(5)
    f5 = binary_ideal_measurement(t5, 0)
    ok_b = all(
        abs(float(werner_distance(t5, fuzzify(t5, f5, lam), f5)) - (1 - lam) / 2) < 1e-9
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0)
    )

    # (c) automorphism backtracking against the closed-form group orders
    ok_c = True
    for n in (3, 4, 5, 6, 8):
        ok_c = ok_c and automorphism_group(make_polygon(n)).order == 2 * n
    for nn in (1, 2, 3):
        ok_c = ok_c and automorphism_group(make_classical(nn)).order == math.factorial(nn + 1)

    report(11, "LP/search implementations agree with independent oracles",
           ok_a and ok_b and ok_c,
           f"membership queries: {queries}, werner grid ok: {ok_b}, groups ok: {ok_c}")
