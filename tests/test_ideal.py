"""Pure effects, ideal measurement enumeration, eigenstates, fuzzing, psi map."""

import hashlib
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gptlab.ideal
import gptlab.scalars
from gptlab import cli
from gptlab.ideal import (
    binary_ideal_measurement,
    enumerate_ideal_measurements,
    eigenstate,
    fuzzify,
    indecomposable_pure_effects,
    perpendicular_ideal_pair,
    psi_map_measurement,
    psi_transform,
)
from gptlab.model import (
    Measurement,
    effect_eval,
    in_state_space,
    make_classical,
    make_polygon,
    theory_from_dict,
    validate_measurement,
)
from gptlab.model import load_theory
from gptlab.scalars import EXACT, FLOAT
from gptlab.symmetry import _coder, automorphism_group, canonicalize

from helpers import enumerate_ideal_reference
from test_symmetry import structure_theory_files

SQ2 = math.sqrt(2)


class TestPureEffects:
    def test_triangle_matches_closed_form(self):
        t = make_polygon(3)
        es = indecomposable_pure_effects(t)
        for i, e in enumerate(es):
            a = 2 * math.pi * i / 3
            assert e == pytest.approx((SQ2 * math.cos(a) / 3, SQ2 * math.sin(a) / 3, 1 / 3))

    def test_delta_on_vertices_triangle(self):
        t = make_polygon(3)
        es = indecomposable_pure_effects(t)
        for i, e in enumerate(es):
            for j, v in enumerate(t.vertices):
                expect = 1.0 if i == j else 0.0
                # triangle = simplex: effects are dual to vertices
                assert effect_eval(t, e, v) == pytest.approx(expect, abs=1e-12)

    def test_classical_canonical_dual_to_vertices(self):
        form = canonicalize(make_classical(2))
        t = form.theory
        es = indecomposable_pure_effects(t)
        for i, e in enumerate(es):
            for j, v in enumerate(t.vertices):
                assert effect_eval(t, e, v) == pytest.approx(1.0 if i == j else 0.0, abs=1e-9)

    def test_classical_raw_self_dual_formula(self):
        t = make_classical(2)
        es = indecomposable_pure_effects(t)
        assert es == t.vertices  # unit vertex norm makes effects equal states

    def test_even_polygon_needs_no_self_duality(self):
        t = make_polygon(4)
        es = indecomposable_pure_effects(t)
        r = math.sqrt(SQ2)
        assert es[0] == pytest.approx((r * math.cos(-math.pi / 4) / 2,
                                       r * math.sin(-math.pi / 4) / 2, 0.5))

    def test_unit_sum_only_for_triangle(self):
        # sum of all pure effects is the unit effect exactly when n = 3
        t3 = make_polygon(3)
        total = [0.0, 0.0, 0.0]
        for e in indecomposable_pure_effects(t3):
            total = [a + b for a, b in zip(total, e)]
        assert tuple(total) == pytest.approx(t3.unit_effect, abs=1e-12)
        t5 = make_polygon(5)
        total5 = [0.0, 0.0, 0.0]
        for e in indecomposable_pure_effects(t5):
            total5 = [a + b for a, b in zip(total5, e)]
        assert total5[2] != pytest.approx(1.0)

    def test_bookkeeping_norms_and_unit_mass(self):
        # for a sum of k distinct pure effects in a self-dual theory, the
        # self-pairing and the unit-effect pairing both equal k / |omega_0|^2
        for t in (make_polygon(5), make_polygon(7)):
            norm2 = t.inner.norm2(t.vertices[0])
            for m in enumerate_ideal_measurements(t, 2):
                for e, (tag, idx) in zip(m.effects, m.provenance):
                    k = len(idx)
                    if tag == "sum":
                        assert t.inner.norm2(e) == pytest.approx(k / norm2)
                        assert t.inner.pair(t.unit_effect, e) == pytest.approx(k / norm2)
                    else:
                        assert t.inner.pair(t.unit_effect, e) == pytest.approx(1 - k / norm2)


class TestBinaryIdealMeasurement:
    def test_every_index_builds_on_its_pure_effect(self):
        t = make_polygon(5)
        pures = indecomposable_pure_effects(t)
        for i, e in enumerate(pures):
            m = binary_ideal_measurement(t, i)
            assert m.effects[0] == e and m.provenance[0] == ("sum", frozenset({i}))

    @pytest.mark.parametrize("index", [5, 99, -1, -5])
    def test_index_out_of_range_raises(self, index):
        # the pentagon has pure effects 0..4; no index wraps around to one of them
        with pytest.raises(ValueError, match=rf"^pure effect index {index} not in 0\.\.4$"):
            binary_ideal_measurement(make_polygon(5), index)

    def test_unequal_norms_name_the_coordinates(self):
        # a triangle, transitive with group order 6, whose vertices have unequal norms
        t = theory_from_dict({"name": "skew", "dim": 3, "unit_effect": [0, 0, 1],
                              "vertices": [[2, 0, 1], [0, 1, 1], [0, 0, 1]]})
        assert automorphism_group(t).order == 6
        with pytest.raises(ValueError, match="^pure states do not have equal norm in these "
                                             "coordinates; canonicalize the theory first$"):
            binary_ideal_measurement(t, 0)


class TestEnumeration:
    def test_square_psi_two_binary(self):
        t = psi_transform(make_polygon(4))
        ms = enumerate_ideal_measurements(t, 2)
        assert len(ms) == 2
        for m in ms:
            assert m.n_outcomes == 2
            s = tuple(a + b for a, b in zip(*m.effects))
            assert s == pytest.approx(t.unit_effect, abs=1e-12)

    def test_classical_trit_fine_and_coarse(self):
        t = make_classical(2)
        ms = enumerate_ideal_measurements(t, 3)
        sizes = sorted(m.n_outcomes for m in ms)
        assert sizes == [2, 2, 2, 3]  # three coarse-grainings plus fine-grained

    def test_pentagon_binary_family(self):
        t = make_polygon(5)
        ms = enumerate_ideal_measurements(t, 2)
        assert len(ms) == 5
        for m in ms:
            assert sorted(len(idx) for _tag, idx in m.provenance) == [1, 1]

    def test_all_enumerated_are_valid(self):
        for t in (make_polygon(5), make_classical(2), psi_transform(make_polygon(6))):
            for m in enumerate_ideal_measurements(t, 3):
                assert validate_measurement(t, m)

    def test_relabelings_deduplicated(self):
        t = make_polygon(5)
        ms = enumerate_ideal_measurements(t, 2)
        keys = {tuple(sorted(tuple(round(x, 9) for x in e) for e in m.effects)) for m in ms}
        assert len(keys) == len(ms)

    @pytest.mark.parametrize("k", [2.5, Fraction(5, 2), "3"])
    def test_non_integral_max_outcomes_rejected(self, k):
        # 2.5 used to list the measurements of up to 4 outcomes: the last slot
        # was never reached
        with pytest.raises(ValueError, match="max_outcomes must be an integer, not "):
            enumerate_ideal_measurements(make_classical(3), k)

    @pytest.mark.parametrize("k", [np.int64(3), 3.0, Fraction(6, 2)])
    def test_integral_max_outcomes_accepted(self, k):
        t = make_classical(3)
        assert enumerate_ideal_measurements(t, k) == enumerate_ideal_measurements(t, 3)

    def test_one_metric_per_outcome_count(self):
        ms = enumerate_ideal_measurements(make_classical(3), 4)
        for k in (2, 3, 4):
            metrics = {id(m.metric) for m in ms if m.n_outcomes == k}
            assert len(metrics) == 1

    def test_memory_is_chunked(self):
        # the search holds at most _BATCH_CELLS cells of candidate steps at a
        # time; unchunked, the breadth-first search peaked at 7.7 MB here
        enumerate_ideal_measurements(make_classical(6), 4)
        t = make_classical(6)
        tracemalloc.start()
        try:
            ms = enumerate_ideal_measurements(t, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ms) == 714 and peak <= 2_000_000


class TestKeys:
    def test_values_within_tol_share_a_code(self):
        # the first two round apart at the 9 digits of tol, but lie within it
        pool = np.array([[0.1234567894, 0.5], [0.1234567896, 0.7], [0.3, 0.5]])
        codes, code = _coder(pool, FLOAT)
        assert codes.tolist() == [[0, 2], [0, 3], [1, 2]]
        assert code(np.array([0.12345678951, 0.6, 0.3 + 5e-10, 0.7 - 2e-9])).tolist() == [
            0, -1, 1, -1]

    def test_exact_codes_are_the_distinct_values_in_order(self):
        pool = np.array([[5, -1], [2, 5]], dtype=object)
        codes, code = _coder(pool, EXACT)
        assert codes.tolist() == np.unique(pool.astype(int), return_inverse=True)[1].reshape(
            2, 2).tolist()
        assert code(np.array([2, 3, -1, 6], dtype=object)).tolist() == [1, -1, 0, -1]


# sha256 of `gptlab measurements list --theory <theory> --max-outcomes 3`, recorded
# before the listing ran on arrays
LISTING_SHA256 = {
    "classical:2": "836e290e80521913e0162e236a00c66dba95461ccf6e93e511625a25c53eb505",
    "classical:3": "a0fb94051f5b04ecd09feb8967945e180f4fee41f2ff9dd1b5d51ac5fb36d39f",
    "classical:4": "d32584188709d35d2d4fc9d73590dfee8776fc5664b24929708ff8d55937484c",
    "classical:5": "f2104ef5a7d74ca21bcd0a530da45038785564382073c71b6b19289658fe5d9e",
    "polygon:5": "bebb622c754b2ee573d5a927fac67cdcf65cb51339fc2ee6fc1bacff5be688cd",
    "polygon-psi:8": "8538313935dadbf1c51d8dc076c639b1daf62716b259f317d91f1c696ccf8e0c",
}


@pytest.mark.parametrize("theory", sorted(LISTING_SHA256))
def test_listing_output_unchanged(theory, capsys):
    assert cli.main(["measurements", "list", "--theory", theory, "--max-outcomes", "3"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == LISTING_SHA256[theory]


def _enumerated(enumerate_, t, k):
    try:
        return enumerate_(t, k)
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestEnumerationAgainstFractionSearch:
    """The search on numerators against the search on the theory's own scalars."""

    @pytest.mark.parametrize("n_levels", [1, 2, 3, 4, 5])
    def test_classical(self, n_levels):
        t = make_classical(n_levels)
        for k in (2, 3, 4):
            got = enumerate_ideal_measurements(t, k)
            want = enumerate_ideal_reference(t, k)
            assert got == want and repr(got) == repr(want)
        assert all(isinstance(a, Fraction) for m in got for e in m.effects for a in e)

    def test_structure_polytopes(self, tmp_path):
        # none of them is self-dual with equal vertex norms as written, so both
        # refuse with the same message
        for path in structure_theory_files(tmp_path, seed=5).values():
            t = load_theory(path)
            for k in (2, 3):
                got = _enumerated(enumerate_ideal_measurements, t, k)
                assert got == _enumerated(enumerate_ideal_reference, t, k)
                assert got.startswith("ValueError")

    def test_exact_enumeration_does_no_fraction_arithmetic(self, monkeypatch):
        # once the pure effects are known, no Fraction is added, multiplied or
        # compared: Fractions are only built for the effects of the result
        t = make_classical(4)
        pures = indecomposable_pure_effects(t)
        monkeypatch.setattr(gptlab.ideal, "indecomposable_pure_effects", lambda _t: pures)
        calls = []
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__", "__lt__", "__le__", "__gt__", "__ge__",
                     "__eq__"):
            op = getattr(Fraction, name)
            monkeypatch.setattr(Fraction, name,
                                lambda a, b, op=op, name=name: calls.append(name) or op(a, b))
        ms = enumerate_ideal_measurements(t, 4)
        monkeypatch.undo()
        assert calls == []
        assert repr(ms) == repr(enumerate_ideal_reference(t, 4)) and len(ms) == 50

    @pytest.mark.parametrize("n_levels", [2, 3, 4])
    def test_rotated_classical(self, n_levels):
        # a rational rotation keeps the simplex self-dual under the dot product
        # and gives its values denominators 5 and 25
        t = make_classical(n_levels)
        rot = [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]]

        def turn(v):
            return (rot[0][0] * v[0] + rot[0][1] * v[1], rot[1][0] * v[0] + rot[1][1] * v[1]) + v[2:]

        t = replace(t, name="rotated", kind="custom", n=None,
                    vertices=tuple(map(turn, t.vertices)), unit_effect=turn(t.unit_effect))
        for k in (2, 3, 4):
            got = enumerate_ideal_measurements(t, k)
            assert got and repr(got) == repr(enumerate_ideal_reference(t, k))

    @pytest.mark.parametrize("n_levels", [6, 7])
    def test_larger_classical(self, n_levels):
        t = make_classical(n_levels)
        got = enumerate_ideal_measurements(t, 3)
        assert got and repr(got) == repr(enumerate_ideal_reference(t, 3))

    def test_python_ints_when_int64_might_overflow(self, monkeypatch):
        # with every int64 bound failing, the search runs on Python ints
        monkeypatch.setattr(gptlab.scalars, "_INT64_LIMIT", 0)
        for n_levels in (2, 3, 4):
            t = make_classical(n_levels)
            for k in (2, 3, 4):
                assert repr(enumerate_ideal_measurements(t, k)) == repr(
                    enumerate_ideal_reference(t, k))

    def test_float_theories_bit_identical(self):
        theories = [make_polygon(n) for n in range(3, 13)]
        theories += [psi_transform(make_polygon(n)) for n in range(4, 33, 2)]
        for t in theories:
            for k in (2, 3):
                assert repr(enumerate_ideal_measurements(t, k)) == repr(
                    enumerate_ideal_reference(t, k))


class TestEigenstate:
    def test_triangle_pure_effect(self):
        t = make_polygon(3)
        es = indecomposable_pure_effects(t)
        assert eigenstate(t, es[0], ideal=True) == pytest.approx(t.vertices[0])

    def test_unit_effect_gives_mixed_state(self):
        t = make_polygon(5)
        assert eigenstate(t, t.unit_effect) == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)

    def test_square_psi_edge_midpoint(self):
        t = psi_transform(make_polygon(4))
        es = indecomposable_pure_effects(t)
        for i in (0, 1, 2, 3):
            state = eigenstate(t, es[i], ideal=True)
            a = (2 * i - 1) * math.pi / 4
            assert state == pytest.approx((math.cos(a), math.sin(a), 1.0))
            assert in_state_space(t, state)

    def test_raw_even_polygon_fails_membership(self):
        t = make_polygon(4)
        es = indecomposable_pure_effects(t)
        with pytest.raises(ValueError, match="not a state"):
            eigenstate(t, es[0])

    def test_zero_mass_rejected(self):
        t = make_polygon(5)
        with pytest.raises(ValueError, match="zero mass"):
            eigenstate(t, (0.1, 0.0, 0.0))


class TestFuzzify:
    def test_lambda_one_identity(self):
        t = make_polygon(6)
        f = binary_ideal_measurement(t, 0)
        out = fuzzify(t, f, 1.0)
        for e, d in zip(out.effects, f.effects):
            assert e == pytest.approx(d)

    def test_lambda_zero_trivial(self):
        t = make_polygon(6)
        f = binary_ideal_measurement(t, 0)
        out = fuzzify(t, f, 0.0)
        for e in out.effects:
            assert e == pytest.approx((0.0, 0.0, 0.5))

    def test_half_formula(self):
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 2)
        out = fuzzify(t, f, 0.5)
        for e, d in zip(out.effects, f.effects):
            expect = tuple(0.5 * a + 0.25 * u for a, u in zip(d, t.unit_effect))
            assert e == pytest.approx(expect)

    def test_out_of_range_rejected(self):
        t = make_polygon(5)
        f = binary_ideal_measurement(t, 0)
        with pytest.raises(ValueError):
            fuzzify(t, f, 1.5)

    def test_effect_of_another_dimension_rejected(self):
        # the psi-8-gon is 3-dimensional: a fourth coordinate is not dropped
        t = psi_transform(make_polygon(8))
        f, _ = perpendicular_ideal_pair(t)
        bad = Measurement(f.outcomes, [e + (0.5,) for e in f.effects], f.metric)
        with pytest.raises(ValueError, match=r"dimension mismatch: 4 vs 3$"):
            fuzzify(t, bad, 0.7)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_valid_for_all_lambda(self, lam):
        t = make_polygon(7)
        f = binary_ideal_measurement(t, 3)
        assert validate_measurement(t, fuzzify(t, f, lam))


class TestPsiTransform:
    def test_square_vertices(self):
        t = psi_transform(make_polygon(4))
        for i, v in enumerate(t.vertices):
            a = math.pi * i / 2
            assert v == pytest.approx((SQ2 * math.cos(a), SQ2 * math.sin(a), 1.0), abs=1e-12)

    def test_pure_effects_sum_to_unit(self):
        t = psi_transform(make_polygon(4))
        es = indecomposable_pure_effects(t)
        s = tuple(a + b for a, b in zip(es[0], es[2]))
        assert s == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)

    def test_probability_preservation(self):
        for n in (4, 6, 8):
            raw = make_polygon(n)
            hat = psi_transform(raw)
            meas = Measurement(outcomes=(0, 1), effects=(
                indecomposable_pure_effects(raw)[1],
                tuple(u - e for u, e in zip(raw.unit_effect, indecomposable_pure_effects(raw)[1])),
            ))
            meas_hat = psi_map_measurement(meas, n)
            for v_raw, v_hat in zip(raw.vertices, hat.vertices):
                for e_raw, e_hat in zip(meas.effects, meas_hat.effects):
                    assert effect_eval(raw, e_raw, v_raw) == pytest.approx(
                        effect_eval(hat, e_hat, v_hat), abs=1e-12
                    )

    def test_round_trip_bitwise_float(self):
        raw = make_polygon(6)
        hat = psi_transform(raw)
        back = hat.coordinates.inverse.theory(hat, None)
        for v, w in zip(raw.vertices, back.vertices):
            assert v == pytest.approx(w, abs=1e-12)

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            psi_transform(make_polygon(5))


class TestPerpendicularPair:
    def test_octagon_angles(self):
        t = psi_transform(make_polygon(8))
        f, g = perpendicular_ideal_pair(t)
        af = math.atan2(f.effects[0][1], f.effects[0][0])
        ag = math.atan2(g.effects[0][1], g.effects[0][0])
        assert af == pytest.approx(math.pi / 8)
        assert ag == pytest.approx(5 * math.pi / 8)

    def test_square_pair_is_both_binaries(self):
        t = psi_transform(make_polygon(4))
        f, g = perpendicular_ideal_pair(t)
        ms = enumerate_ideal_measurements(t, 2)
        keys = {tuple(sorted(tuple(round(x, 9) for x in e) for e in m.effects)) for m in ms}
        for m in (f, g):
            k = tuple(sorted(tuple(round(x, 9) for x in e) for e in m.effects))
            assert k in keys

    def test_bloch_vectors_orthogonal(self):
        for n in (4, 8, 12, 16):
            t = psi_transform(make_polygon(n))
            f, g = perpendicular_ideal_pair(t)
            dot2 = f.effects[0][0] * g.effects[0][0] + f.effects[0][1] * g.effects[0][1]
            assert dot2 == pytest.approx(0.0, abs=1e-12)

    def test_non_multiple_of_four_rejected(self):
        with pytest.raises(ValueError):
            perpendicular_ideal_pair(psi_transform(make_polygon(6)))
