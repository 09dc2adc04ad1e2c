"""Verification pipelines, random joints, reports, and the CLI surface."""

import json
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from gptlab import cli, harness
from gptlab.compat import joint_violations, marginals, product_joint, uniform_joint
from gptlab.ideal import (
    binary_ideal_measurement,
    fuzzify,
    perpendicular_ideal_pair,
    psi_map_joint,
    psi_map_measurement,
    psi_transform,
)
from gptlab.model import (
    make_classical,
    make_polygon,
    save_measurement,
    save_theory,
    validate_measurement,
)
from gptlab.measures import error_bar_width, linf_distance, min_le_sum, werner_distance


class TestWitnessCandidates:
    def test_product_joint_gives_eigenstates(self):
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        j = product_joint(f)
        states = harness.witness_candidates(t, j)
        from gptlab.ideal import eigenstate

        expected = [eigenstate(t, e) for e in f.effects]
        assert len(states) == 2
        for s, e in zip(states, expected):
            assert s == pytest.approx(e)

    def test_uniform_joint_gives_mixed_state(self):
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        j = uniform_joint(t, f, f)
        for s in harness.witness_candidates(t, j):
            assert s == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)

    def test_random_joint_candidates_are_states(self):
        rng = np.random.default_rng(3)
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        g = binary_ideal_measurement(t, 2)
        for _ in range(10):
            j = harness.random_joint(t, f, g, rng)
            states = harness.witness_candidates(t, j)  # raises on failure
            assert len(states) == 4

    def test_nonconforming_cell_rejected(self):
        # raw even polygons are not self-dual: eigenstates leave the state space
        t = make_polygon(6)
        j = product_joint(binary_ideal_measurement(t, 0))
        with pytest.raises(ValueError, match="conforming representation"):
            harness.witness_candidates(t, j)


class TestRandomInputs:
    def test_random_joints_always_valid(self):
        rng = np.random.default_rng(11)
        for t in (make_polygon(5), psi_transform(make_polygon(6))):
            f = binary_ideal_measurement(t, 0)
            g = binary_ideal_measurement(t, 1)
            for _ in range(20):
                j = harness.random_joint(t, f, g, rng)
                assert not joint_violations(t, j)

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
        monkeypatch.setattr(harness, "SLACK", -10.0)  # no inequality can hold
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
            assert rep.inequalities == expected[rep.check]

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
        j_raw = psi_map_joint(res.witness, n, inverse=True)
        rep = harness.verify_thm3_even(n, f, g, j_raw, "thm2")
        assert rep.passed
        assert rep.extra["psi_probability_deviation"] < 1e-9

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

    def test_plot_data_columns(self, tmp_path):
        cfg = {"theorem_theories": {}, "joints_per_case": 0, "propc_cases": 0,
               "polygons": [4, 8, 12]}
        out = harness.run_report(cfg, out_dir=str(tmp_path / "plot"), seed=0)
        rows = open(out["plot_data"]).read().strip().splitlines()
        assert rows[0] == "n,min_le_sum,degree_bound_rhs,degree_bound_closed_form"
        assert len(rows) == 4


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

    def test_compat_check_and_max_lambda(self, capsys):
        out = self.run(capsys, "compat", "check", "--theory", "polygon-psi:4", "--pair")
        assert out["status"] == "incompatible"
        out = self.run(capsys, "compat", "max-lambda", "--theory", "polygon-psi:4", "--pair")
        assert out["value"] == pytest.approx(0.5, abs=1e-9)

    def test_verify_thm2(self, capsys):
        out = self.run(capsys, "verify", "thm2", "--theory", "polygon:5",
                       "--random", "3", "--seed", "1")
        assert out["passed"] is True

    def test_verify_thm3(self, capsys):
        out = self.run(capsys, "verify", "thm3", "--n", "4", "--mode", "thm2",
                       "--random", "2", "--seed", "2")
        assert out["passed"] is True

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
