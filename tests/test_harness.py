"""Verification pipelines, random joints, reports, and the CLI surface."""

import dataclasses
import functools
import hashlib
import importlib
import importlib.util
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gptlab import cli, harness, model
from gptlab.compat import JointMeasurement, joint_violations, marginals, product_joint, uniform_joint
from gptlab.ideal import (
    binary_ideal_measurement,
    fuzzify,
    perpendicular_ideal_pair,
    psi_map_measurement,
    psi_transform,
)
from gptlab.model import (
    FiniteMetricSpace,
    Theory,
    make_classical,
    make_polygon,
    measurement_to_dict,
    measurement_violations,
    save_measurement,
    save_theory,
    theory_to_float,
    validate_measurement,
)
from gptlab.measures import error_bar_width, linf_distance, min_le_sum, werner_distance
from gptlab.scalars import EXACT, FLOAT, Context

from helpers import (
    random_joint_reference,
    random_postprocessed_reference,
    verify_cor1_reference,
    verify_propc_reference,
    verify_thm1_reference,
    verify_thm2_reference,
    verify_thm3_even_reference,
)


def cell_states(t, j) -> list:
    """The cell states of ``j``, each checked in the state space."""
    return [state for _ab, state in harness._cell_states(t, j, check=True)]


class TestWitnessCandidates:
    def test_product_joint_gives_eigenstates(self):
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        j = product_joint(f)
        states = cell_states(t, j)
        from gptlab.ideal import eigenstate

        expected = [eigenstate(t, e) for e in f.effects]
        assert len(states) == 2
        for s, e in zip(states, expected):
            assert s == pytest.approx(e)

    def test_uniform_joint_gives_mixed_state(self):
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        j = uniform_joint(t, f, f)
        for s in cell_states(t, j):
            assert s == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)

    def test_random_joint_candidates_are_states(self):
        rng = np.random.default_rng(3)
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        g = binary_ideal_measurement(t, 2)
        for _ in range(10):
            j = harness.random_joint(t, f, g, rng)
            states = cell_states(t, j)  # raises on failure
            assert len(states) == 4

    def test_nonconforming_cell_rejected(self):
        # raw even polygons are not self-dual: eigenstates leave the state space
        t = make_polygon(6)
        j = product_joint(binary_ideal_measurement(t, 0))
        with pytest.raises(ValueError, match="conforming representation"):
            cell_states(t, j)


# the theories that run_report draws joints on, by its theorem_theories kinds
BATTERY = ([("polygon", n) for n in (3, 5, 7, 8, 12)] + [("classical", n) for n in (1, 2)]
           + [("even", n) for n in (4, 6, 8)])


@functools.cache
def battery_case(kind, n) -> tuple:
    """``(t, f, g)``: a battery theory and the ideal pair that run_report draws joints for."""
    if kind == "even":
        raw, hat, _ = harness._psi_polygon(n)
        return (hat, *map(hat.coordinates.measurement, harness.ideal_pair_for(raw)))
    t = harness.prepare_conforming({"polygon": make_polygon, "classical": make_classical}[kind](n))
    return (t, *harness.ideal_pair_for(t))


class TestRandomInputs:
    @settings(max_examples=60, deadline=None)
    @given(case=st.sampled_from(BATTERY), seed=st.integers(0, 2**32 - 1))
    def test_float_draws_match_the_per_cell_loops(self, case, seed):
        # same cells to the bit, and the same draws, so the generator ends in the same state
        t, f, g = battery_case(*case)
        assert not t.ctx.exact
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):
            assert (repr(harness.random_joint(t, f, g, rng))
                    == repr(random_joint_reference(t, f, g, ref)))
            assert rng.bit_generator.state == ref.bit_generator.state
            assert (repr(harness.random_postprocessed(t, f, rng))
                    == repr(random_postprocessed_reference(t, f, ref)))
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_random_joints_always_valid(self):
        rng = np.random.default_rng(11)
        for t in (make_polygon(5), psi_transform(make_polygon(6))):
            f = binary_ideal_measurement(t, 0)
            g = binary_ideal_measurement(t, 1)
            for _ in range(20):
                j = harness.random_joint(t, f, g, rng)
                assert not joint_violations(t, j)

    def test_random_joints_exact(self):
        # exact draws are rescaled by their exact sums, so every exact joint and
        # post-processing sums to the unit effect, square grids and others alike
        for n in (1, 2, 3, 4):
            t = make_classical(n)
            assert t.ctx.exact
            ms = harness.enumerate_ideal_measurements(t, max_outcomes=3)
            binary = (binary_ideal_measurement(t, 0), binary_ideal_measurement(t, n))
            for seed in range(5):
                rng = np.random.default_rng(seed)
                for f, g in [binary, (ms[0], ms[-1]), (ms[-1], ms[0]), (ms[-1], ms[-1])]:
                    j = harness.random_joint(t, f, g, rng)
                    assert joint_violations(t, j) == []
                    m = harness.random_postprocessed(t, f, rng)
                    assert measurement_violations(t, m) == []
                    cells = [e for row in j.effects for e in row] + list(m.effects)
                    assert all(type(a) is Fraction for e in cells for a in e)

    def test_random_postprocessed_valid(self):
        rng = np.random.default_rng(5)
        t = make_polygon(7)
        f = binary_ideal_measurement(t, 0)
        for _ in range(20):
            assert validate_measurement(t, harness.random_postprocessed(t, f, rng))

    def test_deterministic_under_seed(self):
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        g = binary_ideal_measurement(t, 2)
        j1 = harness.random_joint(t, f, g, np.random.default_rng(42))
        j2 = harness.random_joint(t, f, g, np.random.default_rng(42))
        assert j1.effects == j2.effects


class TestPrepareConforming:
    def test_odd_polygon_untouched(self):
        t = make_polygon(5)
        assert harness.prepare_conforming(t) is t

    def test_even_polygon_reexpressed(self):
        t = harness.prepare_conforming(make_polygon(6))
        assert t.kind == "polygon-psi"

    def test_classical_canonicalized(self):
        t = harness.prepare_conforming(make_classical(2))
        assert t.canonicalized
        assert t.unit_effect == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)

    def test_custom_simplex_not_self_dual_rejected(self):
        # canonicalization fixes the invariant product but not the in-plane
        # scale: this triangle's canonical form is not self-dual
        fr = Fraction
        t = Theory("skew-triangle", ((fr(1), fr(0), fr(1)), (fr(0), fr(1), fr(1)),
                                     (fr(-1), fr(-1), fr(1))), (fr(0), fr(0), fr(1)), EXACT)
        with pytest.raises(ValueError, match="canonical form of theory 'skew-triangle' is not "
                                             "self-dual"):
            harness.prepare_conforming(t)


class TestVerifiers:
    def test_thm1_product_joint_trivial(self):
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        rep = harness.verify_thm1(t, f, f, product_joint(f), 0.2, 0.2)
        assert rep.passed and rep.witness is not None

    def test_cor1_classical_zero_widths(self):
        t = harness.prepare_conforming(make_classical(2))
        f, g = harness.ideal_pair_for(t)
        j = harness.random_joint(t, f, g, np.random.default_rng(0))
        rep = harness.verify_cor1(t, f, g, j, 0.3, 0.3)
        assert rep.passed

    def test_thm2_product_joint_both_sides_zero(self):
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        rep = harness.verify_thm2(t, f, f, product_joint(f))
        assert rep.passed
        lead = rep.inequalities[0]
        assert lead["lhs"] == pytest.approx(0.0, abs=1e-9)

    def test_thm2_octagon_floor(self):
        t = psi_transform(make_polygon(8))
        f, g = perpendicular_ideal_pair(t)
        from gptlab.compat import min_mur_linf

        res = min_mur_linf(t, f, g)
        rep = harness.verify_thm2(t, f, g, res.joint)
        assert rep.passed
        assert rep.inequalities[0]["lhs"] >= 1 - 1 / math.sqrt(2) - 1e-9

    def test_thm2_failed_scan_reports_failing_row(self, monkeypatch):
        # no cell state meets the bound, yet the global min_LE_sum row (which
        # measures computes with its own localization_error) still holds
        monkeypatch.setattr(harness, "localization_error", lambda p: 1.0)
        t = harness.prepare_conforming(make_polygon(5))
        f, g = harness.ideal_pair_for(t)
        rep = harness.verify_thm2(t, f, g, harness.random_joint(t, f, g, np.random.default_rng(2)))
        assert rep.passed is False
        assert rep.inequalities[-1]["label"] == "D_inf sum >= min_LE_sum"
        assert rep.inequalities[-1]["ok"]
        assert any(not iq["ok"] for iq in rep.inequalities)

    def test_thm2_global_row_gates_pass(self, monkeypatch):
        monkeypatch.setattr(harness, "min_le_sum", lambda t, f, g: SimpleNamespace(value=10.0))
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        rep = harness.verify_thm2(t, f, f, product_joint(f))
        assert rep.witness is not None and rep.inequalities[0]["ok"]
        assert rep.inequalities[-1]["ok"] is False and rep.passed is False

    def test_failure_rows(self, monkeypatch):
        monkeypatch.setattr(harness, "_holds", lambda rows, tol: False)  # no row holds
        t = harness.prepare_conforming(make_polygon(5))
        f, g = harness.ideal_pair_for(t)
        j = harness.random_joint(t, f, g, np.random.default_rng(1))
        mf, mg = marginals(j)
        d_f, d_g = linf_distance(t, mf, f), linf_distance(t, mg, g)

        def row(label, lhs, rhs, ok=False):
            return {"label": label, "lhs": float(lhs), "rhs": float(rhs), "ok": ok}

        expected = {
            "thm1": [row("no candidate satisfied both width bounds",
                         error_bar_width(t, mf, f, 0.2), error_bar_width(t, mg, g, 0.3))],
            "cor1": [row("no candidate satisfied both scaled width bounds",
                         werner_distance(t, mf, f), werner_distance(t, mg, g))],
            "thm2": [row("no candidate satisfied the localization-error bound", d_f, d_g),
                     row("D_inf sum >= min_LE_sum", d_f + d_g, min_le_sum(t, f, g).value)],
        }
        for rep in (harness.verify_thm1(t, f, g, j, 0.2, 0.3),
                    harness.verify_cor1(t, f, g, j, 0.2, 0.3),
                    harness.verify_thm2(t, f, g, j)):
            assert rep.passed is False and rep.witness is None and rep.extra == {}
            assert rep.to_dict()["inequalities"] == expected[rep.check]

    def test_holds_compares_at_the_context_tolerance(self):
        assert EXACT.tol == 0 and type(EXACT.tol) is int
        assert type(Context(exact=True, tol=0.0).tol) is int
        short = Fraction(1, 10**10)
        assert not harness._holds([("exact", Fraction(1) - short, Fraction(1))], EXACT.tol)
        assert harness._holds([("exact", Fraction(1), Fraction(1))], EXACT.tol)
        assert harness._holds([("float", 1.0 - 1e-10, 1.0)], FLOAT.tol)
        assert not harness._holds([("float", 1.0 - 1e-8, 1.0)], FLOAT.tol)

    def test_residual_tolerance_is_one_derived_bound(self):
        # LP certificates and the two-block fit of xi_canonicalize read this one bound
        assert "residual_tol" not in {f.name for f in dataclasses.fields(Context)}
        assert FLOAT.residual_tol == 100 * FLOAT.tol == 1.0000000000000001e-07
        assert EXACT.residual_tol == 0 and type(EXACT.residual_tol) is int
        assert Context(tol=1e-6).residual_tol == 100 * 1e-6

    def test_thm1_eps_validation(self):
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        with pytest.raises(ValueError):
            harness.verify_thm1(t, f, f, product_joint(f), 0.7, 0.7)

    def test_thm3_square_fuzzified_joint(self):
        n = 4
        raw = make_polygon(n)
        f, g = harness.ideal_pair_for(raw)
        hat = psi_transform(raw)
        fh, gh = psi_map_measurement(f, n), psi_map_measurement(g, n)
        # explicit joint with half-fuzzed marginals, built by the LP
        from gptlab.compat import is_jointly_measurable

        res = is_jointly_measurable(hat, fuzzify(hat, fh, 0.5), fuzzify(hat, gh, 0.5))
        assert res.compatible
        j_raw = hat.coordinates.inverse.joint(res.witness)
        rep = harness.verify_thm3_even(n, f, g, j_raw, "thm2")
        assert rep.passed
        assert rep.extra["psi_probability_deviation"] < 1e-9

    def test_thm3_describes_the_stretched_polygon_once_per_side_count(self, monkeypatch):
        # the double description of the stretched polygon's facets runs once per
        # n, however many joints and modes follow
        cases = []
        rng = np.random.default_rng(7)
        for n in (4, 6, 8):
            raw = make_polygon(n)
            f, g = harness.ideal_pair_for(raw)
            hat = psi_transform(raw)
            fh, gh = psi_map_measurement(f, n), psi_map_measurement(g, n)
            for _ in range(3):
                j = hat.coordinates.inverse.joint(harness.random_joint(hat, fh, gh, rng))
                cases.append((n, f, g, j))
        calls = []
        dual_cone = model.dual_cone
        monkeypatch.setattr(model, "dual_cone", lambda *a: calls.append(a) or dual_cone(*a))
        harness._psi_polygon.cache_clear()
        for _ in range(2):
            for n, f, g, j in cases:
                for mode in ("thm1", "cor1", "thm2"):
                    assert harness.verify_thm3_even(n, f, g, j, mode).passed
        assert len(calls) == 3
        assert harness._psi_polygon.cache_info().currsize == 3

    def test_thm3_odd_side_count_raises_and_caches_nothing(self):
        harness._psi_polygon.cache_clear()
        f = binary_ideal_measurement(make_polygon(5), 0)
        for mode in ("thm1", "cor1", "thm2"):
            with pytest.raises(ValueError, match="this check is for even polygons"):
                harness.verify_thm3_even(5, f, f, product_joint(f), mode)
        assert harness._psi_polygon.cache_info().currsize == 0

    def test_psi_polygon_cache_is_read_only(self):
        # the cache lives for the process: a write would change every later
        # probability gate of verify_thm3_even
        raw, _hat, vertices = harness._psi_polygon(8)
        assert vertices.shape == (2, 3, 8)
        with pytest.raises(ValueError, match="read-only"):
            vertices[0, 0, 0] = 2.0
        assert harness._psi_polygon(8)[2] is vertices and vertices[0, 0, 0] == raw.vertices[0][0]

    @pytest.mark.parametrize("exact", [True, False])
    def test_propc_compares_at_the_context_tolerance(self, monkeypatch, exact):
        # W_eps over (2/eps) D_W by 1e-12: within float tol, a failure in exact mode.
        # At eps = 1/2 only the second width candidate, 1/5 + 1e-12, carries the mass.
        monkeypatch.setattr(harness, "werner_distance", lambda t, a, i: Fraction(1, 20))
        monkeypatch.setattr(harness, "error_bar_profile", lambda t, a, i: iter((0, 1)))
        d = Fraction(1, 10) + Fraction(1, 2 * 10**12)
        ideal = SimpleNamespace(metric=FiniteMetricSpace((0, 1), ((0, d), (d, 0))))
        t = make_classical(2) if exact else theory_to_float(make_classical(2))
        rep = harness.verify_propc(t, None, ideal, [Fraction(1, 2)])
        assert rep.inequalities[0]["lhs"] == float(Fraction(1, 5) + Fraction(1, 10**12))
        assert rep.passed is not exact

    def test_propc_reads_one_error_bar_profile_for_the_grid(self, monkeypatch):
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        calls, profile = [], harness.error_bar_profile
        monkeypatch.setattr(harness, "error_bar_profile",
                            lambda *args: calls.append(args) or profile(*args))
        grid = [0.1 * k for k in range(1, 10)]
        assert harness.verify_propc(t, fuzzify(t, f, 0.6), f, grid).passed
        assert len(calls) == 1

    @pytest.mark.parametrize("grid", [[0.5, 0], [1.5], [-0.1, 0.5]])
    def test_propc_rejects_eps_outside_the_unit_interval(self, grid):
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\]"):
            harness.verify_propc(t, f, f, grid)

    def test_propc_identity(self):
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        rep = harness.verify_propc(t, f, f, [0.1, 0.5, 1.0])
        assert rep.passed

    def test_propc_fuzzified_tight_case(self):
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        ft = fuzzify(t, f, 0.6)
        rep = harness.verify_propc(t, ft, f, [0.1, 0.3, 0.5, 0.7, 0.9])
        assert rep.passed
        low = rep.inequalities[0]
        assert low["lhs"] == pytest.approx(2.0)  # eps below (1-lambda)/2 forces the wide ball


EPS_GRID = [0.1, 0.2, 0.3, 0.45]
EPS_PAIRS = [(e1, e2) for e1 in EPS_GRID for e2 in EPS_GRID if e1 + e2 <= 1]


def _criterion_7_cases():
    """(theory, f, g, joints) on every theory of acceptance criterion 7."""
    rng = np.random.default_rng(7)
    theories = [harness.prepare_conforming(make_polygon(n)) for n in (3, 5, 7, 8, 12)]
    theories += [harness.prepare_conforming(make_classical(n)) for n in (1, 2)]
    out = []
    for t in theories:
        f, g = harness.ideal_pair_for(t)
        out.append((t, f, g, [harness.random_joint(t, f, g, rng) for _ in range(3)]))
    return out


class TestScanOracle:
    """Every verifier report is `repr`-equal to the per-call oracle of
    `tests/helpers.py`, which finds each width and ball again by distance."""

    @pytest.mark.parametrize("case", range(7))
    def test_grid_and_single_calls_match_the_oracle(self, case):
        t, f, g, joints = _criterion_7_cases()[case]
        for j in joints + [product_joint(f)] * (f is g):
            grid = harness.verify_grid(t, f, g, j, EPS_PAIRS)
            assert len(grid.thm1) == len(grid.cor1) == len(EPS_PAIRS) == 16
            thm2 = repr(verify_thm2_reference(t, f, g, j))
            assert repr(grid.thm2) == repr(harness.verify_thm2(t, f, g, j)) == thm2
            for (e1, e2), r1, r2 in zip(EPS_PAIRS, grid.thm1, grid.cor1):
                want = repr(verify_thm1_reference(t, f, g, j, e1, e2))
                assert repr(r1) == repr(harness.verify_thm1(t, f, g, j, e1, e2)) == want
                want = repr(verify_cor1_reference(t, f, g, j, e1, e2))
                assert repr(r2) == repr(harness.verify_cor1(t, f, g, j, e1, e2)) == want

    def test_exact_classical_matches_the_oracle(self):
        for n in (1, 2, 3):
            t = make_classical(n)
            f, g = binary_ideal_measurement(t, 0), binary_ideal_measurement(t, n)
            ft, gt = fuzzify(t, f, Fraction(3, 5)), fuzzify(t, g, Fraction(4, 5))
            j = JointMeasurement(
                f.outcomes, g.outcomes,
                [[tuple(x * y for x, y in zip(a, b)) for b in gt.effects] for a in ft.effects],
                f.metric, g.metric)
            grid = harness.verify_grid(t, f, g, j, EPS_PAIRS)
            assert repr(grid.thm2) == repr(verify_thm2_reference(t, f, g, j))
            for (e1, e2), r1, r2 in zip(EPS_PAIRS, grid.thm1, grid.cor1):
                assert repr(r1) == repr(verify_thm1_reference(t, f, g, j, e1, e2))
                assert repr(r2) == repr(verify_cor1_reference(t, f, g, j, e1, e2))

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_thm3_even_matches_the_oracle(self, n):
        rng = np.random.default_rng(n)
        raw = make_polygon(n)
        f, g = harness.ideal_pair_for(raw)
        hat = psi_transform(raw)
        fh, gh = psi_map_measurement(f, n), psi_map_measurement(g, n)
        for k in range(3):
            j = hat.coordinates.inverse.joint(harness.random_joint(hat, fh, gh, rng))
            for mode in ("thm1", "cor1", "thm2"):
                for e1, e2 in EPS_PAIRS[k::3]:
                    got = harness.verify_thm3_even(n, f, g, j, mode, e1, e2)
                    assert repr(got) == repr(verify_thm3_even_reference(n, f, g, j, mode, e1, e2))

    def test_propc_matches_the_oracle(self):
        rng = np.random.default_rng(404)
        grid = [0.1 * k for k in range(1, 10)]
        for t in (make_polygon(5), psi_transform(make_polygon(8)), make_polygon(7)):
            f, _ = harness.ideal_pair_for(t)
            for _ in range(4):
                ft = harness.random_postprocessed(t, f, rng)
                assert repr(harness.verify_propc(t, ft, f, grid)) == repr(
                    verify_propc_reference(t, ft, f, grid))

    def test_grid_checks_every_pair_first(self):
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        with pytest.raises(ValueError, match=r"eps1, eps2 in \(0,1\]"):
            harness.verify_grid(t, f, f, product_joint(f), [(0.2, 0.2), (0.0, 0.5)])


def test_verify_mode_runs_the_named_verifier():
    t = harness.prepare_conforming(make_polygon(5))
    f, g = harness.ideal_pair_for(t)
    j = harness.random_joint(t, f, g, np.random.default_rng(3))
    direct = {"thm1": harness.verify_thm1(t, f, g, j, 0.1, 0.3),
              "cor1": harness.verify_cor1(t, f, g, j, 0.1, 0.3),
              "thm2": harness.verify_thm2(t, f, g, j)}
    for mode, want in direct.items():
        assert repr(harness.verify_mode(mode, t, f, g, j, 0.1, 0.3)) == repr(want)
    with pytest.raises(ValueError, match="unknown mode 'thm3'"):
        harness.verify_mode("thm3", t, f, g, j, 0.1, 0.3)


class TestNonConformingJoint:
    """A joint whose cell normalizes outside the pentagon: only thm1 tests membership."""

    @staticmethod
    def _joint():
        t = make_polygon(5)
        f, g = harness.ideal_pair_for(t)
        q = 0.25
        cells = [[(0.5, 0.0, q), (-0.5, 0.0, q)], [(0.0, 0.5, q), (0.0, -0.5, q)]]
        return t, f, g, JointMeasurement(f.outcomes, g.outcomes, cells, f.metric, g.metric)

    def test_thm1_raises(self):
        t, f, g, j = self._joint()
        with pytest.raises(ValueError, match="conforming representation"):
            harness.verify_thm1(t, f, g, j, 0.2, 0.2)
        with pytest.raises(ValueError, match="conforming representation"):
            harness.verify_grid(t, f, g, j, [(0.2, 0.2)])

    def test_cor1_and_thm2_do_not_check_membership(self):
        t, f, g, j = self._joint()
        assert repr(harness.verify_cor1(t, f, g, j, 0.2, 0.2)) == repr(
            verify_cor1_reference(t, f, g, j, 0.2, 0.2))
        assert repr(harness.verify_thm2(t, f, g, j)) == repr(verify_thm2_reference(t, f, g, j))


class TestReport:
    def test_report_files_and_determinism(self, tmp_path):
        cfg = {
            "theorem_theories": {"polygon": [5], "classical": [1], "even": [4]},
            "joints_per_case": 2,
            "propc_cases": 1,
            "polygons": [4, 8],
        }
        out1 = harness.run_report(cfg, out_dir=str(tmp_path / "a"), seed=9)
        out2 = harness.run_report(cfg, out_dir=str(tmp_path / "b"), seed=9)
        assert out1["n_fail"] == 0
        for key in ("report", "summary", "plot_data"):
            with open(out1[key], "rb") as fa, open(out2[key], "rb") as fb:
                assert fa.read() == fb.read()

    def test_empty_battery(self, tmp_path):
        cfg = {"theorem_theories": {}, "joints_per_case": 0, "propc_cases": 0, "polygons": []}
        out = harness.run_report(cfg, out_dir=str(tmp_path / "empty"), seed=0)
        assert out["n_pass"] == 0 and out["n_fail"] == 0
        data = json.loads(open(out["report"]).read())
        assert data["schema"] == 1 and data["results"] == []

    @pytest.mark.parametrize("config, message", [
        ({"joints_per_case": "3"}, "config joints_per_case must be a non-negative int, got '3'"),
        ({"propc_cases": -1}, "config propc_cases must be a non-negative int, got -1"),
        ({"joints_per_case": True}, "config joints_per_case must be a non-negative int, got True"),
        ({"eps_grid": [0.1]}, "config eps_grid must hold at least two numbers, got [0.1]"),
        ({"eps_grid": [0.1, "0.2"]},
         "config eps_grid must hold at least two numbers, got [0.1, '0.2']"),
        ({"eps_grid": [0.6, 0.5, 0.1]}, "config eps_grid: confidence levels must satisfy "
                                        "eps1, eps2 in (0,1], eps1+eps2 <= 1"),
        ({"polygons": [4, "8"]}, "config polygons must be a list of ints, got [4, '8']"),
        ({"theorem_theories": {"even": [4.0]}},
         "config theorem_theories even must be a list of ints, got [4.0]"),
        ({"theorem_theories": [5]}, "config theorem_theories must map kinds to lists, got [5]"),
        ({"theorem_theories": {"even": [5]}},
         "config theorem_theories even must hold even sizes >= 4, got [5]"),
        ({"theorem_theories": {"even": [2]}},
         "config theorem_theories even must hold even sizes >= 4, got [2]"),
        ({"theorem_theories": {"polygon": [2]}},
         "config theorem_theories polygon must hold sizes >= 3, got [2]"),
        ({"polygons": [4, 0]}, "config polygons must hold sizes >= 3, got [4, 0]"),
        ({"theorem_theories": {"classical": [0]}},
         "config theorem_theories classical must hold sizes >= 1, got [0]"),
    ])
    def test_bad_config_values_fail_before_anything_is_written(self, tmp_path, config, message):
        out = tmp_path / "out"
        with pytest.raises(ValueError) as exc:
            harness.run_report(config, out_dir=str(out), seed=0)
        assert str(exc.value) == message and not out.exists()

    def test_least_sizes_run(self, tmp_path):
        cfg = {"theorem_theories": {"polygon": [3], "classical": [1], "even": [4]},
               "joints_per_case": 1, "propc_cases": 0, "polygons": [3, 4]}
        out = harness.run_report(cfg, out_dir=str(tmp_path / "least"), seed=0)
        assert out["n_pass"] > 0 and out["n_fail"] == 0

    def test_plot_data_columns(self, tmp_path):
        cfg = {"theorem_theories": {}, "joints_per_case": 0, "propc_cases": 0,
               "polygons": [4, 8, 12]}
        out = harness.run_report(cfg, out_dir=str(tmp_path / "plot"), seed=0)
        rows = open(out["plot_data"]).read().strip().splitlines()
        assert rows[0] == "n,min_le_sum,degree_bound_rhs,degree_bound_closed_form"
        assert len(rows) == 4


    def test_default_report_bytes_match_the_benchmark_reference(self, tmp_path):
        # the report_sha256 values perfbench/record.py recorded for seed 0
        ref = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
        want = json.loads(ref.read_text())["report_sha256"]
        harness.run_report(out_dir=str(tmp_path), seed=0)
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in want}
        assert got == want

    def test_report_dict_shares_no_container_with_the_report(self):
        rep = harness.VerificationReport(
            check="thm1", theory="polygon-5", params={"eps1": 0.1},
            inequalities=[{"label": "a >= b", "lhs": 1.0, "rhs": 0.5, "ok": True}],
            witness=[0.0, 0.0, 1.0], passed=True, extra={"proof_candidate_ok": True},
        )
        before = json.dumps(rep.to_dict())
        d = rep.to_dict()
        d["params"]["eps2"] = 0.2
        d["inequalities"].append(1)
        d["inequalities"][0]["ok"] = False
        d["witness"].append(1.0)
        d["extra"]["more"] = 1
        assert json.dumps(rep.to_dict()) == before
        assert list(rep.to_dict()) == ["check", "theory", "params", "inequalities", "witness",
                                       "passed", "extra"]

    def test_report_is_read_only(self):
        rep = harness.VerificationReport(
            "thm1", "polygon-5", {"eps1": 0.1},
            [{"label": "a >= b", "lhs": 1.0, "rhs": 0.5, "ok": True}], [0.0, 0.0, 1.0], True,
            {"proof_candidate_ok": True},
        )
        for mutate in (lambda: rep.inequalities.append(1),
                       lambda: rep.inequalities[0].update(ok=False),
                       lambda: rep.params.update(eps2=0.2),
                       lambda: rep.witness.append(1.0),
                       lambda: rep.extra.update(more=1)):
            with pytest.raises((AttributeError, TypeError)):
                mutate()
        assert rep.to_dict() == {
            "check": "thm1", "theory": "polygon-5", "params": {"eps1": 0.1},
            "inequalities": [{"label": "a >= b", "lhs": 1.0, "rhs": 0.5, "ok": True}],
            "witness": [0.0, 0.0, 1.0], "passed": True, "extra": {"proof_candidate_ok": True}}
        later = dataclasses.replace(rep, extra={**rep.extra, "more": 1})
        assert later.to_dict()["extra"] == {"proof_candidate_ok": True, "more": 1}


def test_every_traced_name_resolves():
    # the benchmark's tracer wraps these names and fails on a missing one
    spans = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", spans)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for mod, names in module.LAYERS.items():
        home = importlib.import_module(f"gptlab.{mod}")
        for name in names:
            owner, _, attr = name.rpartition(".")
            where = vars(getattr(home, owner)) if owner else vars(home)
            assert callable(where.get(attr)), f"gptlab.{mod}.{name} is traced but missing"


class TestCli:
    def run(self, capsys, *argv):
        assert cli.main(list(argv)) == 0
        return json.loads(capsys.readouterr().out)

    def test_theory_analyze_builtin(self, capsys):
        out = self.run(capsys, "theory", "analyze", "--theory", "polygon:5")
        assert out["group_order"] == 10
        assert out["self_dual"] is True
        assert out["transitive"] is True

    def test_theory_analyze_file(self, capsys, tmp_path):
        path = tmp_path / "trit.json"
        save_theory(make_classical(2), path)
        out = self.run(capsys, "theory", "analyze", "--theory", str(path))
        assert out["group_order"] == 6

    def test_measurements_list(self, capsys):
        out = self.run(capsys, "measurements", "list", "--theory", "polygon:5",
                       "--max-outcomes", "2")
        assert len(out) == 5

    UNRESOLVABLE = {
        "polygon:abc": "not a file or builtin shorthand",
        "classical:": "not a file or builtin shorthand",
        "disc:8.5": "not a file or builtin shorthand",
        "polygon:-3": "not a file or builtin shorthand",
        "nope": "not a file or builtin shorthand",
        "polygon:2": "polygon theory needs n >= 3",
        "classical:0": "classical theory needs N >= 1",
        "disc:5": "disc approximation needs m >= 8",
        "polygon-psi:5": "the re-expression is defined for even polygons only",
    }

    @pytest.mark.parametrize("spec", list(UNRESOLVABLE))
    def test_unresolvable_theory_exits_with_message(self, spec):
        message = f"cannot resolve theory '{spec}': {self.UNRESOLVABLE[spec]}"
        with pytest.raises(SystemExit, match=re.escape(message)):
            cli.main(["theory", "analyze", "--theory", spec])

    INVALID_THEORY_FILES = {
        "no-dim": ('{"vertices": [[1, 0], [0, 1]], "unit_effect": [1, 1]}', "'dim'"),
        "no-vertices": ('{"dim": 3, "vertices": [], "unit_effect": [0, 0, 1]}',
                        "theory has no vertices"),
        "not-json": ("vertices: [[1, 0], [0, 1]]", "Expecting value: line 1 column 1"),
        "vertices-not-a-list": ('{"dim": 2, "vertices": 5, "unit_effect": [1, 1]}',
                                "'int' object is not iterable"),
        "interior-point": (json.dumps({"dim": 3, "unit_effect": [0, 0, 1], "vertices": [
            [1, 1, 1], [-1, 1, 1], [-1, -1, 1], [1, -1, 1], [0, 0, 1]]}),
            "vertex 4 is a convex combination of the others"),
        "flat": (json.dumps({"dim": 3, "unit_effect": [0, 0, 1],
                             "vertices": [[0, 0, 1], [1, 0, 1], [2, 0, 1]]}),
                 "the state space of theory 'theory' in R^3 has no facet description: "
                 "generators span only a 2-dimensional subspace; "
                 "the dual cone contains a lineality space of dimension 1"),
    }

    @pytest.mark.parametrize("name", list(INVALID_THEORY_FILES))
    def test_invalid_theory_file_exits_with_message(self, tmp_path, name):
        text, reason = self.INVALID_THEORY_FILES[name]
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        message = f"invalid theory file {str(path)!r}: {reason}"
        with pytest.raises(SystemExit, match=re.escape(message)):
            cli.main(["theory", "analyze", "--theory", str(path)])

    @pytest.mark.parametrize("theory, state, problem", [
        ("polygon:5", "1,2", "needs 3 comma-separated coordinates for theory 'polygon-5', got 2"),
        ("polygon:5", "0,0,1,1", "needs 3 comma-separated coordinates for theory 'polygon-5', got 4"),
        ("polygon:5", "a,b,c", "needs 3 comma-separated coordinates for theory 'polygon-5'"),
        ("classical:2", "1/2,x,1/2", "needs 3 comma-separated coordinates for theory 'classical-2'"),
        ("classical:2", "1/0,0,1", "needs 3 comma-separated coordinates for theory 'classical-2'"),
        ("polygon:5", "2,0,1", "'2,0,1' is not a state of theory 'polygon-5'"),
    ], ids=["short", "long", "letters", "exact-letter", "zero-denominator", "outside"])
    def test_bad_state_exits_with_message(self, theory, state, problem):
        for which in ("overall-width", "localization-error"):
            with pytest.raises(SystemExit, match=re.escape(f"--state {problem}")):
                cli.main(["measure", which, "--theory", theory, "--ideal-index", "0",
                          "--state", state])

    def test_theory_export(self, capsys):
        out = self.run(capsys, "theory", "export", "--theory", "classical:2")
        assert out["vertices"][0] == [1, 0, 0]

    def test_measure_overall_width_with_state(self, capsys):
        out = self.run(capsys, "measure", "overall-width", "--theory", "polygon:5",
                       "--ideal-index", "0", "--state", "0,0,1", "--epsilon", "0.3")
        assert out["value"] == 2.0
        out = self.run(capsys, "measure", "localization-error", "--theory", "polygon:5",
                       "--ideal-index", "0", "--state", "0,0,1")
        assert 0 < out["value"] < 1

    def test_measure_min_le_sum(self, capsys):
        out = self.run(capsys, "measure", "min-le-sum", "--theory", "polygon-psi:8", "--pair")
        assert out["value"] == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-9)

    def test_measure_werner_with_files(self, capsys, tmp_path):
        t = psi_transform(make_polygon(8))
        f, _ = perpendicular_ideal_pair(t)
        ft = fuzzify(t, f, 0.5)
        fi, fa = tmp_path / "ideal.json", tmp_path / "approx.json"
        save_measurement(f, fi)
        save_measurement(ft, fa)
        out = self.run(capsys, "measure", "werner", "--theory", "polygon-psi:8",
                       "--approx", str(fa), "--ideal", str(fi))
        assert out["value"] == pytest.approx(0.25, abs=1e-9)

    @staticmethod
    def measurement_file(tmp_path, name, **data):
        """A file with polygon:5's first binary ideal measurement, `data` replacing its keys."""
        doc = measurement_to_dict(binary_ideal_measurement(make_polygon(5), 0))
        doc.update(data)
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("data, problem", [
        ({"effects": [[0.9, 0, 0.9], [0, 0, 0.3]]}, "effects do not sum to the unit effect"),
        ({"effects": [[0.5, 0.5], [-0.5, 0.5]]}, "every effect needs 3 coordinates"),
        ({"metric": {"points": [0, 1], "dist": [[0, -3], [2, 0]]}},
         "metric: distance matrix is not symmetric"),
        ({"outcomes": [], "effects": [], "metric": {"points": [], "dist": []}},
         "trivial measurement"),
        ({"outcomes": [], "effects": []}, "metric points (0, 1) are not the outcomes ()"),
        ({"outcomes": [0, 1, 2]}, "outcomes and effects must align"),
        ({"metric": {"points": [1, 0], "dist": [[0, 1], [1, 0]]}},
         "metric points (1, 0) are not the outcomes (0, 1)"),
    ], ids=["sum", "length", "metric", "empty", "empty-base-metric", "unaligned", "order"])
    def test_invalid_measurement_file_exits_with_message(self, tmp_path, data, problem):
        bad = self.measurement_file(tmp_path, "bad.json", **data)
        good = self.measurement_file(tmp_path, "good.json")
        message = re.escape(f"invalid measurement file {bad!r}: ") + ".*" + re.escape(problem)
        for argv in (["measure", "linf", "--approx", bad, "--ideal", good],
                     ["measure", "werner", "--approx", good, "--ideal", bad],
                     ["measure", "overall-width", "--measurement", bad, "--state", "0,0,1"],
                     ["compat", "check", "--first", bad, "--second", good],
                     ["verify", "thm2", "--first", good, "--second", bad, "--random", "1"]):
            with pytest.raises(SystemExit, match=message):
                cli.main(argv + ["--theory", "polygon:5"])

    # every bad input exits with one line; {name} is a file of test_bad_input_exits_with_one_line
    BAD_INPUTS = {
        "epsilon": (["measure", "overall-width", "--theory", "polygon:5", "--ideal-index", "0",
                     "--state", "0,0,1", "--epsilon", "2"],
                    "measure overall-width: confidence parameter must lie in [0, 1]"),
        "eps-sum": (["verify", "thm1", "--theory", "polygon:5", "--eps1", "0.9", "--eps2", "0.9"],
                    "verify thm1: confidence levels must satisfy eps1, eps2 in [0,1], "
                    "eps1+eps2 <= 1"),
        "eps-grid": (["verify", "propC", "--theory", "polygon:5", "--eps-grid", "0"],
                     "verify propC: eps must lie in (0, 1]"),
        "max-lambda-ternary": (["compat", "max-lambda", "--theory", "classical:3",
                                "--first", "{ternary}", "--second", "{binary}"],
                               "compat max-lambda: the fuzzing family is defined for binary "
                               "measurements"),
        "degree-bound-ternary": (["compat", "degree-bound", "--theory", "classical:3",
                                  "--first", "{ternary}", "--second", "{binary}"],
                                 "compat degree-bound: degree-of-incompatibility bound is for "
                                 "binary measurements"),
        **{f"{which}-outcome-sets": (["measure", which, "--theory", "polygon:5",
                                      "--approx", "{relabelled}", "--ideal", "{good}"],
                                     f"measure {which}: measurements must share one outcome set")
           for which in ("werner", "linf", "error-bar")},
        "error-bar-raw-octagon": (["measure", "error-bar", "--theory", "polygon:8",
                                   "--ideal-index", "1"],
                                  "measure error-bar: even polygons must be re-expressed "
                                  "(psi_transform) before eigenstate-based measures are taken"),
        **{f"missing-{flag}": (argv + ["--theory", "polygon:5"], "cannot read measurement file "
                                "'{missing}': No such file or directory")
           for flag, argv in {
               "first": ["compat", "check", "--first", "{missing}", "--second", "{good}"],
               "second": ["compat", "check", "--first", "{good}", "--second", "{missing}"],
               "approx": ["measure", "werner", "--approx", "{missing}", "--ideal", "{good}"],
               "ideal": ["measure", "linf", "--approx", "{good}", "--ideal", "{missing}"],
               "measurement": ["measure", "overall-width", "--measurement", "{missing}",
                               "--state", "0,0,1"],
           }.items()},
        "config-missing": (["report", "run", "--config", "{missing}", "--out", "{out}"],
                           "cannot read config file '{missing}': No such file or directory"),
        "config-malformed": (["report", "run", "--config", "{malformed}", "--out", "{out}"],
                             "invalid config file '{malformed}': Expecting property name enclosed "
                             "in double quotes: line 1 column 2 (char 1)"),
        "config-not-an-object": (["report", "run", "--config", "{listed}", "--out", "{out}"],
                                 "invalid config file '{listed}': not a JSON object"),
        **{f"random-{n}-{which}": (["verify", which, "--theory", "polygon:5", "--random", n],
                                   f"verify {which} needs --random >= 1, got {n}")
           for n in ("0", "-2") for which in ("thm1", "cor1", "thm2", "thm3", "propC")},
        "repeated-labels": (["measure", "werner", "--theory", "polygon:5", "--approx", "{repeated}",
                             "--ideal", "{good}"],
                            "invalid measurement file '{repeated}': metric: point 0 is repeated"),
        "config-key": (["report", "run", "--config", "{typo}", "--out", "{out}"],
                       "report run: unknown config keys ['joint_per_case']; known: schema, "
                       "polygons, theorem_theories, joints_per_case, eps_grid, propc_cases"),
        "config-kind": (["report", "run", "--config", "{kind}", "--out", "{out}"],
                        "report run: unknown theorem_theories kinds ['polygn']; known: polygon, "
                        "classical, even"),
        "config-count-type": (["report", "run", "--config", "{count}", "--out", "{out}"],
                              "report run: config joints_per_case must be a non-negative int, "
                              "got '3'"),
        "config-short-eps": (["report", "run", "--config", "{short}", "--out", "{out}"],
                             "report run: config eps_grid must hold at least two numbers, "
                             "got [0.1]"),
    }

    @pytest.mark.parametrize("name", list(BAD_INPUTS))
    def test_bad_input_exits_with_one_line(self, capsys, tmp_path, name):
        ms = harness.enumerate_ideal_measurements(make_classical(3), max_outcomes=3)
        files = {
            "ternary": str(tmp_path / "ternary.json"),
            "binary": str(tmp_path / "binary.json"),
            "good": self.measurement_file(tmp_path, "good.json"),
            "relabelled": self.measurement_file(
                tmp_path, "relabelled.json", outcomes=["a", "b"],
                metric={"points": ["a", "b"], "dist": [[0, 1], [1, 0]]}),
            "repeated": self.measurement_file(
                tmp_path, "repeated.json", outcomes=[0, 0],
                metric={"points": [0, 0], "dist": [[0, 1], [1, 0]]}),
            "missing": str(tmp_path / "missing.json"),
            "out": str(tmp_path / "out"),
        }
        for key, text in {"malformed": "{bad", "listed": "[1]", "typo": '{"joint_per_case": 1}',
                          "kind": '{"theorem_theories": {"polygn": [5]}}',
                          "count": '{"joints_per_case": "3"}', "short": '{"eps_grid": [0.1]}'
                          }.items():
            files[key] = str(tmp_path / f"{key}.json")
            pathlib.Path(files[key]).write_text(text)
        save_measurement(ms[-1], files["ternary"])
        save_measurement(ms[0], files["binary"])
        assert (ms[-1].n_outcomes, ms[0].n_outcomes) == (3, 2)
        argv, message = self.BAD_INPUTS[name]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main([arg.format(**files) for arg in argv])
        # Python prints a string exit code as one stderr line and exits with status 1
        assert exc.value.code == message.format(**files)
        assert "\n" not in exc.value.code
        assert capsys.readouterr().out == ""
        assert not os.path.exists(files["out"])

    def test_bad_input_exit_status_and_stderr(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
        for argv, message in (self.BAD_INPUTS["epsilon"], self.BAD_INPUTS["random-0-thm2"]):
            done = subprocess.run([sys.executable, "-m", "gptlab.cli", *argv], capture_output=True,
                                  text=True, env=env, cwd=tmp_path)
            assert (done.returncode, done.stdout, done.stderr) == (1, "", message + "\n")

    def test_compat_check_and_max_lambda(self, capsys):
        out = self.run(capsys, "compat", "check", "--theory", "polygon-psi:4", "--pair")
        assert out["status"] == "incompatible"
        out = self.run(capsys, "compat", "max-lambda", "--theory", "polygon-psi:4", "--pair")
        assert out["value"] == pytest.approx(0.5, abs=1e-9)

    def test_verify_thm2(self, capsys):
        out = self.run(capsys, "verify", "thm2", "--theory", "polygon:5",
                       "--random", "3", "--seed", "1")
        assert out["passed"] is True

    @pytest.mark.parametrize("argv, problem", [
        (["compat", "check", "--theory", "classical:2"],
         "'classical-2': perpendicular pairs are defined for polygon theories"),
        (["compat", "min-mur", "--theory", "polygon:6"],
         "'polygon-6': side count must be a multiple of 4"),
        (["measure", "min-le-sum", "--theory", "classical:2"],
         "'classical-2': perpendicular pairs are defined for polygon theories"),
        (["measure", "werner", "--theory", "polygon:6"],
         "'polygon-6': side count must be a multiple of 4"),
    ], ids=["compat-classical", "compat-hexagon", "measure-classical", "measure-hexagon"])
    def test_pair_without_perpendicular_pair_exits_with_message(self, argv, problem):
        with pytest.raises(SystemExit, match=re.escape(f"--pair on theory {problem}")):
            cli.main(argv + ["--pair"])

    def listed_pair(self, capsys, tmp_path, theory, first, second):
        """Two of the measurements that ``measurements list`` prints for `theory`, as files."""
        ms = self.run(capsys, "measurements", "list", "--theory", theory)
        paths = [tmp_path / f"{theory.replace(':', '-')}-{i}.json" for i in (first, second)]
        for path, i in zip(paths, (first, second)):
            path.write_text(json.dumps(ms[i]))
        return [str(p) for p in paths]

    def test_degree_bound_closed_form_only_for_polygons(self, capsys, tmp_path):
        # the 4k-gon closed form belongs to polygons, not to every theory with n % 4 == 0
        f, g = self.listed_pair(capsys, tmp_path, "classical:4", 0, -1)
        out = self.run(capsys, "compat", "degree-bound", "--theory", "classical:4",
                       "--first", f, "--second", g)
        assert out == {"status": "ok", "value": 1.0}
        for theory in ("polygon:8", "polygon-psi:8"):
            out = self.run(capsys, "compat", "degree-bound", "--theory", theory, "--pair")
            assert out["closed_form"] == pytest.approx(1 / math.sqrt(2))

    def test_verify_files_of_a_raw_even_polygon(self, capsys, tmp_path):
        # the files are checked against the named polygon, then stretched
        f, g = self.listed_pair(capsys, tmp_path, "polygon:8", 0, 2)
        for which in ("thm1", "cor1", "thm2"):
            out = self.run(capsys, "verify", which, "--theory", "polygon:8", "--first", f,
                           "--second", g, "--random", "2")
            assert out["passed"] is True and len(out["reports"]) == 2

    def test_verify_files_of_a_canonicalized_theory(self, capsys, tmp_path):
        # the files hold effects of the named theory; the verifier maps them into
        # the canonical coordinates it runs in
        scaled = tmp_path / "scaled.json"
        scaled.write_text(json.dumps({"name": "scaled", "dim": 3,
                                      "vertices": [[3, 0, 0], [0, 3, 0], [0, 0, 3]],
                                      "unit_effect": ["1/3", "1/3", "1/3"]}))
        for theory in ("classical:2", str(scaled)):
            f, g = self.listed_pair(capsys, tmp_path, theory, 0, -1)
            for which in ("thm1", "cor1", "thm2"):
                out = self.run(capsys, "verify", which, "--theory", theory, "--first", f,
                               "--second", g, "--random", "2")
                assert out["passed"] is True and len(out["reports"]) == 2

    def test_verify_files_of_a_stretched_polygon_are_read_as_they_are(self, capsys, tmp_path):
        # polygon-psi:8 runs as it is named, though it was built by the stretch, so
        # the files it lists are not stretched again
        paths = self.listed_pair(capsys, tmp_path, "polygon-psi:8", 0, 2)
        t = psi_transform(make_polygon(8))
        f, g = (model.load_measurement(p, t.ctx) for p in paths)
        rep = harness.verify_thm2(t, f, g, harness.random_joint(t, f, g, np.random.default_rng(0)))
        out = self.run(capsys, "verify", "thm2", "--theory", "polygon-psi:8", "--first", paths[0],
                       "--second", paths[1], "--random", "1")
        assert out["reports"] == [json.loads(json.dumps(rep.to_dict(), default=float))]

    def test_verify_lone_second_exits(self, tmp_path):
        # effects summing to (10, 10, 10): read, the file would be rejected too
        junk = tmp_path / "junk.json"
        junk.write_text(json.dumps({"outcomes": [0, 1], "effects": [[5, 5, 5], [5, 5, 5]]}))
        for which in ("thm1", "cor1", "thm2"):
            with pytest.raises(SystemExit, match="missing --first"):
                cli.main(["verify", which, "--theory", "polygon:5", "--second", str(junk),
                          "--random", "1"])

    @staticmethod
    def triangle_file(tmp_path, name, vertices):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"name": name, "dim": 3, "vertices": vertices,
                                    "unit_effect": [0, 0, 1]}))
        return str(path)

    @pytest.mark.parametrize("which", ["thm1", "cor1", "thm2", "propC"])
    def test_verify_non_conforming_theory_exits(self, tmp_path, which):
        # a valid triangle whose canonical form is not self-dual under the dot product
        tri = self.triangle_file(tmp_path, "tri", [[1, 0, 1], [0, 1, 1], [0, 0, 1]])
        message = f"verify {which} on theory 'tri': the canonical form of theory 'tri' is not self-dual"
        with pytest.raises(SystemExit, match=f"^{re.escape(message)}$"):
            cli.main(["verify", which, "--theory", tri, "--random", "1"])

    @pytest.mark.parametrize("argv, what", [
        (["measurements", "list"], "measurements list"),
        (["measure", "overall-width", "--ideal-index", "0", "--state", "0,0,1"], "--ideal-index"),
    ], ids=["list", "ideal-index"])
    def test_unequal_norms_exit(self, tmp_path, argv, what):
        # no pure effects: the vertices of this valid triangle have unequal norms
        skew = self.triangle_file(tmp_path, "skew", [[2, 0, 1], [0, 1, 1], [0, 0, 1]])
        message = f"{what} on theory 'skew': pure states do not have equal norm"
        with pytest.raises(SystemExit, match=f"^{re.escape(message)}"):
            cli.main(argv + ["--theory", skew])

    @pytest.mark.parametrize("index", ["99", "5", "-1"])
    def test_ideal_index_out_of_range_exits(self, index):
        # the command line names the flag and the range that the library's ValueError gives
        message = f"--ideal-index {index} on theory 'polygon-5': not in 0..4"
        for which in ("overall-width", "localization-error"):
            with pytest.raises(SystemExit, match=f"^{re.escape(message)}$"):
                cli.main(["measure", which, "--theory", "polygon:5", "--ideal-index", index,
                          "--state", "0,0,1"])

    def test_ideal_index_in_range(self, capsys):
        for index in range(5):
            out = self.run(capsys, "measure", "localization-error", "--theory", "polygon:5",
                           "--ideal-index", str(index), "--state", "0,0,1")
            assert set(out) == {"value"}

    def test_parser_kept_between_calls(self, capsys):
        # main builds its parser once, on its first call, not at import; a flag of
        # one call does not carry over to the next
        code = "import gptlab.cli as c; print(c.build_parser.cache_info().currsize)"
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
        assert subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True).stdout == "0\n"
        assert cli.main(["compat", "check", "--theory", "polygon:8", "--pair"]) == 0
        with pytest.raises(SystemExit, match="missing --first"):
            cli.main(["compat", "max-lambda", "--theory", "polygon:8"])
        assert cli.build_parser() is cli.build_parser()
        argv = ["verify", "thm3", "--n", "8", "--random", "2"]
        capsys.readouterr()
        assert cli.main(argv) == 0
        kept = capsys.readouterr().out
        args = cli.build_parser.__wrapped__().parse_args(argv)
        args.func(args)
        assert capsys.readouterr().out == kept

    def test_verify_thm3(self, capsys):
        out = self.run(capsys, "verify", "thm3", "--n", "4", "--mode", "thm2",
                       "--random", "2", "--seed", "2")
        assert out["passed"] is True

    def test_verify_thm3_defaults_to_the_square(self, capsys):
        argv = ("verify", "thm3", "--random", "1", "--seed", "2")
        assert self.run(capsys, *argv) == self.run(capsys, *argv, "--n", "4")

    @pytest.mark.parametrize("n", ["0", "5", "2"])
    def test_verify_thm3_rejects_a_side_count(self, n):
        with pytest.raises(SystemExit, match=re.escape(f"verify thm3 needs an even --n >= 4, got {n}")):
            cli.main(["verify", "thm3", "--n", n, "--random", "1"])

    def test_report_run(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "theorem_theories": {"polygon": [5]},
            "joints_per_case": 1,
            "propc_cases": 0,
            "polygons": [4],
        }))
        out = self.run(capsys, "report", "run", "--config", str(cfg),
                       "--seed", "3", "--out", str(tmp_path / "rep"))
        assert out["n_fail"] == 0
        assert os.path.exists(out["report"])
