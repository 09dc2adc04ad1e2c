"""Verification pipelines, random joints, reports, and the CLI surface."""

import json
import math
import os
import re
from fractions import Fraction
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
    Theory,
    make_classical,
    make_polygon,
    measurement_to_dict,
    save_measurement,
    save_theory,
    validate_measurement,
)
from gptlab.measures import error_bar_width, linf_distance, min_le_sum, werner_distance
from gptlab.scalars import EXACT


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

    def test_random_joints_exact(self):
        # exact weights are rescaled to sum to one, so exact joints validate
        for n in (1, 2, 3):
            t = make_classical(n)
            f = binary_ideal_measurement(t, 0)
            g = binary_ideal_measurement(t, n)
            for seed in range(20):
                j = harness.random_joint(t, f, g, np.random.default_rng(seed))
                assert not joint_violations(t, j)
                assert all(isinstance(a, Fraction) for row in j.effects for e in row for a in e)

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
        "not-json": ("vertices: [[1, 0], [0, 1]]", "Expecting value: line 1 column 1"),
        "vertices-not-a-list": ('{"dim": 2, "vertices": 5, "unit_effect": [1, 1]}',
                                "'int' object is not iterable"),
        "interior-point": (json.dumps({"dim": 3, "unit_effect": [0, 0, 1], "vertices": [
            [1, 1, 1], [-1, 1, 1], [-1, -1, 1], [1, -1, 1], [0, 0, 1]]}),
            "vertex 4 is a convex combination of the others"),
        "flat": (json.dumps({"dim": 3, "unit_effect": [0, 0, 1],
                             "vertices": [[0, 0, 1], [1, 0, 1], [2, 0, 1]]}),
                 "affine dimension 1 does not match ambient dimension 3"),
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
        ({"outcomes": [], "effects": []}, "trivial measurement"),
        ({"outcomes": [0, 1, 2]}, "outcomes and effects must align"),
        ({"metric": {"points": [1, 0], "dist": [[0, 1], [1, 0]]}},
         "metric points (1, 0) are not the outcomes (0, 1)"),
    ], ids=["sum", "length", "metric", "empty", "unaligned", "order"])
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

    def test_compat_check_and_max_lambda(self, capsys):
        out = self.run(capsys, "compat", "check", "--theory", "polygon-psi:4", "--pair")
        assert out["status"] == "incompatible"
        out = self.run(capsys, "compat", "max-lambda", "--theory", "polygon-psi:4", "--pair")
        assert out["value"] == pytest.approx(0.5, abs=1e-9)

    def test_verify_thm2(self, capsys):
        out = self.run(capsys, "verify", "thm2", "--theory", "polygon:5",
                       "--random", "3", "--seed", "1")
        assert out["passed"] is True

    def test_verify_lone_second_exits(self, tmp_path):
        # effects summing to (10, 10, 10): read, the file would be rejected too
        junk = tmp_path / "junk.json"
        junk.write_text(json.dumps({"outcomes": [0, 1], "effects": [[5, 5, 5], [5, 5, 5]]}))
        for which in ("thm1", "cor1", "thm2"):
            with pytest.raises(SystemExit, match="missing --first"):
                cli.main(["verify", which, "--theory", "polygon:5", "--second", str(junk),
                          "--random", "1"])

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
