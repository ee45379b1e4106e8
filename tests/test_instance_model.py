"""Data model, JSON round-trips, validation and the deterministic generators."""

import json
import pickle
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from graphbalance import (
    ParseError,
    Regime,
    SolveMode,
    ValidationError,
    derive_beta,
    generate_adversarial_path,
    generate_general,
    generate_two_valued,
    parse_fraction,
    parse_instance,
    serialize_instance,
    solve,
    validate,
)

from conftest import build

README = Path(__file__).resolve().parent.parent / "README.md"
MINIMAL = '{"machines":[{"id":"m1"}],"jobs":[{"id":"j1","weight":5,"eligible":["m1"]}]}'


class TestParsing:
    def test_readme_instance_examples_parse(self):
        text = README.read_text(encoding="utf-8")
        blocks = re.findall(r"```json\n(.*?)```", text, re.DOTALL)
        assert blocks
        for block in blocks:
            parse_instance(block)

    def test_minimal_document(self):
        inst = parse_instance(MINIMAL)
        assert len(inst.machines) == 1 and len(inst.jobs) == 1
        assert inst.jobs[0].weight == 5
        assert inst.mode_hint == SolveMode.AUTO

    def test_dangling_machine_reference(self):
        doc = '{"machines":[{"id":"m1"}],"jobs":[{"id":"j1","weight":5,"eligible":["m9"]}]}'
        with pytest.raises(ParseError, match="unknown machine 'm9'"):
            parse_instance(doc)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_instance('{"machines": [}')
        assert err.value.line == 1 and err.value.col is not None

    def test_duplicate_ids_rejected(self):
        doc = '{"machines":[{"id":"m1"},{"id":"m1"}],"jobs":[]}'
        with pytest.raises(ParseError, match="duplicate machine"):
            parse_instance(doc)

    def test_nonpositive_weight_rejected(self):
        doc = '{"machines":[{"id":"m1"}],"jobs":[{"id":"j","weight":0,"eligible":["m1"]}]}'
        with pytest.raises(ParseError, match="positive integer"):
            parse_instance(doc)

    def test_unknown_fields_rejected(self):
        doc = '{"machines":[{"id":"m1","speed":2}],"jobs":[]}'
        with pytest.raises(ParseError, match="unknown fields"):
            parse_instance(doc)

    def test_float_weight_rejected(self):
        doc = '{"machines":[{"id":"m1"}],"jobs":[{"id":"j","weight":1.5,"eligible":["m1"]}]}'
        with pytest.raises(ParseError, match="JSON integer"):
            parse_instance(doc)

    def test_adversarial_path_round_trips(self):
        for k in (1, 2, 5):
            inst = generate_adversarial_path(k, 100)
            assert parse_instance(serialize_instance(inst)) == inst

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_generated_instances_round_trip(self, seed):
        inst = generate_two_valued(4, 2, 3, 9, 2, 3, seed)
        assert parse_instance(serialize_instance(inst)) == inst


M1 = {"id": "m1"}
J1 = {"id": "j1", "weight": 5, "eligible": ["m1"]}


def document(**fields):
    """MINIMAL as JSON with each of *fields* set at the top level, or
    dropped where it is None."""
    doc = {"machines": [M1], "jobs": [J1], **fields}
    return json.dumps({key: value for key, value in doc.items() if value is not None})


NOT_STRING_ARRAY = "'eligible' must be a string array"
PARSE_REFUSALS = {
    "top-not-object": ("[]", "top-level document must be a JSON object"),
    "unknown-top-field": (document(extra=1), "unknown top-level fields: ['extra']"),
    "no-machines": (document(machines=None), "missing required field 'machines'"),
    "no-jobs": (document(jobs=None), "missing required field 'jobs'"),
    "machines-not-array": (
        document(machines={"m1": {}}), "'machines' and 'jobs' must be arrays"
    ),
    "jobs-not-array": (document(jobs="j1"), "'machines' and 'jobs' must be arrays"),
    "machine-not-object": (document(machines=["m1"]), "machine entry must be an object"),
    "machine-without-id": (
        document(machines=[{"dedicated_load": 2}]), "machine entry is missing 'id'"
    ),
    "empty-machine-id": (
        document(machines=[{"id": ""}]), "machine id must be a non-empty string"
    ),
    "negative-dedicated-load": (
        document(machines=[{"id": "m1", "dedicated_load": -1}]),
        "dedicated_load must be >= 0",
    ),
    "job-not-object": (document(jobs=[["j1", 5, ["m1"]]]), "job entry must be an object"),
    "unknown-job-field": (
        document(jobs=[{**J1, "due": 3}]), "job entry has unknown fields: ['due']"
    ),
    "missing-job-field": (
        document(jobs=[{"id": "j1", "eligible": ["m1"]}]), "job entry is missing 'weight'"
    ),
    "eligible-not-array": (document(jobs=[{**J1, "eligible": "m1"}]), NOT_STRING_ARRAY),
    "eligible-not-strings": (document(jobs=[{**J1, "eligible": [1]}]), NOT_STRING_ARRAY),
    "eligible-repeats": (
        document(jobs=[{**J1, "eligible": ["m1", "m1"]}]),
        "duplicate machines in 'eligible'",
    ),
    "empty-eligible": (
        document(jobs=[{**J1, "eligible": []}]), "eligible set must be non-empty"
    ),
    "empty-job-id": (
        document(jobs=[{**J1, "id": ""}]), "job id must be a non-empty string"
    ),
    "duplicate-job-id": (document(jobs=[J1, J1]), "duplicate job id 'j1'"),
    "bad-mode-hint": (document(mode_hint="fast"), "invalid mode_hint 'fast'"),
}


@pytest.mark.parametrize(
    "doc, message", PARSE_REFUSALS.values(), ids=PARSE_REFUSALS.keys()
)
def test_parse_refusal(doc, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_instance(doc)


class TestFractions:
    def test_parse_forms(self):
        assert parse_fraction("7/10") == Fraction(7, 10)
        assert parse_fraction("3") == Fraction(3)

    @pytest.mark.parametrize("bad", ["0.7", "7/0", "x", "1/2/3"])
    def test_rejects_non_fractions(self, bad):
        with pytest.raises(ValueError):
            parse_fraction(bad)


class TestValidation:
    def test_two_valued_accepts_two_weights(self):
        inst = build(
            [("a", 0), ("b", 0), ("c", 0)],
            [("h", 7, ["a", "b"]), ("l", 3, ["a", "b", "c"])],
        )
        regime = validate(inst, SolveMode.TWO_VALUED)
        assert regime == Regime(SolveMode.TWO_VALUED, None, 7, 3)

    def test_heavy_on_three_machines_violates(self):
        inst = build(
            [("a", 0), ("b", 0), ("c", 0)],
            [("h", 7, ["a", "b", "c"]), ("l", 3, ["a", "b"])],
        )
        with pytest.raises(ValidationError) as raised:
            validate(inst, SolveMode.TWO_VALUED)
        assert "heavy weight" in raised.value.violations[0]

    def test_general_boundary_is_exclusive(self):
        # beta*W_max = 70: weight 71 on three machines violates, 70 does not
        base = [("a", 0), ("b", 0), ("c", 0)]
        pin = ("pin", 100, ["a", "b"])
        bad = build(base, [pin, ("x", 71, ["a", "b", "c"])])
        good = build(base, [pin, ("y", 70, ["a", "b", "c"])])
        with pytest.raises(ValidationError):
            validate(bad, SolveMode.GENERAL, Fraction(7, 10))
        regime = validate(good, SolveMode.GENERAL, Fraction(7, 10))
        assert regime == Regime(SolveMode.GENERAL, Fraction(7, 10))

    def test_beta_range_error(self):
        inst = build([("a", 0), ("b", 0)], [("j", 5, ["a", "b"])])
        with pytest.raises(ValidationError, match=r"\[4/7, 1\)"):
            validate(inst, SolveMode.GENERAL, Fraction(4, 7) - Fraction(1, 1000))
        with pytest.raises(ValidationError):
            validate(inst, SolveMode.GENERAL, Fraction(1))

    @pytest.mark.parametrize("mode", (SolveMode.AUTO, SolveMode.TWO_VALUED))
    @pytest.mark.parametrize(
        "beta", (Fraction(1, 2), Fraction(3, 2)), ids=("1/2", "3/2")
    )
    def test_beta_range_error_in_every_mode(self, mode, beta):
        # the instance resolves to two_valued, where no beta is used
        inst = generate_two_valued(4, 2, 3, 10, 3, 2, 1)
        with pytest.raises(ValidationError, match=r"beta must lie in \[4/7, 1\)"):
            validate(inst, mode, beta)
        with pytest.raises(ValidationError, match=r"beta must lie in \[4/7, 1\)"):
            solve(inst, mode, beta)

    def test_validation_error_survives_pickling(self):
        error = ValidationError(["beta 1 lies outside [4/7, 1)", "job x fits no mode"])
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is ValidationError
        assert copy.violations == error.violations
        assert str(copy) == str(error)

    def test_auto_resolution(self):
        two = build(
            [("a", 0), ("b", 0)], [("h", 7, ["a", "b"]), ("l", 3, ["a", "b"])]
        )
        assert validate(two, SolveMode.AUTO).mode == SolveMode.TWO_VALUED
        single = build([("a", 0), ("b", 0)], [("j", 7, ["a", "b"])])
        regime = validate(single, SolveMode.AUTO)
        assert regime.mode == SolveMode.GENERAL and regime.beta == Fraction(4, 7)

    def test_derive_beta_scales_with_wide_jobs(self):
        inst = build(
            [("a", 0), ("b", 0), ("c", 0)],
            [("big", 10, ["a", "b"]), ("wide", 8, ["a", "b", "c"])],
        )
        assert derive_beta(inst) == Fraction(8, 10)
        hopeless = build(
            [("a", 0), ("b", 0), ("c", 0)], [("wide", 8, ["a", "b", "c"])]
        )
        with pytest.raises(ValidationError):
            derive_beta(hopeless)


class TestGenerators:
    def test_two_valued_deterministic(self):
        a = generate_two_valued(4, 3, 5, 10, 3, 4, seed=1)
        b = generate_two_valued(4, 3, 5, 10, 3, 4, seed=1)
        assert a == b
        assert serialize_instance(a) == serialize_instance(b)

    def test_two_valued_forced_shape(self):
        inst = generate_two_valued(2, 1, 0, 10, 3, 2, seed=9)
        assert len(inst.jobs) == 1
        assert inst.jobs[0].eligible == frozenset({"m0", "m1"})

    def test_two_valued_rejects_bad_params(self):
        with pytest.raises(ValueError):
            generate_two_valued(4, 1, 1, 5, 5, 2, seed=0)
        with pytest.raises(ValueError):
            generate_two_valued(1, 1, 1, 5, 2, 2, seed=0)
        with pytest.raises(ValueError):
            generate_two_valued(6, 0, 4, 10, 3, 6, seed=0)

    @pytest.mark.parametrize("seed", range(100))
    def test_two_valued_always_validates(self, seed):
        inst = generate_two_valued(5, 3, 4, 12, 5, 4, seed=seed)
        regime = validate(inst, SolveMode.TWO_VALUED)
        assert regime == Regime(SolveMode.TWO_VALUED, None, 12, 5)

    @pytest.mark.parametrize("seed", range(100))
    def test_general_always_validates(self, seed):
        beta = Fraction(7, 10)
        inst = generate_general(5, 7, beta, 20, seed=seed)
        assert validate(inst, SolveMode.GENERAL, beta) == Regime(SolveMode.GENERAL, beta)

    def test_general_weight_ranges(self):
        beta = Fraction(7, 10)
        inst = generate_general(4, 30, beta, 100, seed=3)
        for job in inst.jobs:
            if job.weight > 70:
                assert len(job.eligible) == 2
            else:
                assert 1 <= job.weight <= 70
        assert inst.max_weight() == 100

    def test_general_deterministic(self):
        beta = Fraction(4, 7)
        assert generate_general(3, 6, beta, 14, 5) == generate_general(3, 6, beta, 14, 5)

    def test_adversarial_path_layout(self):
        inst = generate_adversarial_path(2, 100)
        assert [m.id for m in inst.machines] == ["p0", "p1", "p2", "p3"]
        assert [m.dedicated_load for m in inst.machines] == [100, 0, 0, 25]
        assert [j.weight for j in inst.jobs] == [96, 96, 96]
        small = generate_adversarial_path(1, 100)
        assert len(small.machines) == 3 and len(small.jobs) == 2
        assert all(j.weight == 96 for j in small.jobs)

    def test_adversarial_path_guards(self):
        with pytest.raises(ValueError):
            generate_adversarial_path(0, 100)
        with pytest.raises(ValueError):
            generate_adversarial_path(2, 99)
