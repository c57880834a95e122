import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from credence.files import (
    FileFormatError,
    format_ratios,
    load_assessment,
    load_model,
    load_session,
    model_to_dict,
    parse_rational,
    rational_pair,
)
from credence.logic import Language, LogicError, Theory, unparse
from credence.model import ModelError

from helpers import explicit_lambda, load_session_oracle

ROOT = Path(__file__).resolve().parent.parent


class TestRationals:
    def test_parse_forms(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("2") == Fraction(2)
        assert parse_rational(1) == Fraction(1)

    def test_floats_rejected(self):
        with pytest.raises(FileFormatError):
            parse_rational(0.5)

    def test_garbage_rejected(self):
        with pytest.raises(FileFormatError):
            parse_rational("1/0")
        with pytest.raises(FileFormatError):
            parse_rational("one half")

    @pytest.mark.parametrize("value,pair", [
        ("2/4", (2, 4)), ("-1000/2000", (-1000, 2000)), ("0/5", (0, 5)), ("6", (6, 1)),
        (" 6/4 ", (3, 2)), ("0.50", (1, 2)), (-4, (-4, 1)),
    ])
    def test_plain_ratio_as_written_other_forms_in_lowest_terms(self, value, pair):
        assert rational_pair(value) == pair

    @pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no digit limit")
    @pytest.mark.parametrize("form", ["{n}", "-{n}", "1/{n}", "{n}/3"])
    def test_integers_past_the_digit_limit_are_bad_rationals(self, form):
        # the int fast path reports them as Fraction's parser does
        text = form.format(n="7" * (sys.get_int_max_str_digits() + 1))
        with pytest.raises(ValueError) as want:
            Fraction(text)
        with pytest.raises(FileFormatError) as got:
            rational_pair(text)
        assert str(got.value) == f"bad rational {text!r}: {want.value}"

    def test_format_reduces(self):
        assert format_ratios([2, -3, 0, 4, 2], 4) == ["1/2", "-3/4", "0", "1", "1/2"]

    @pytest.mark.parametrize("value", [True, False])
    def test_booleans_rejected(self, value):
        with pytest.raises(FileFormatError) as e:
            parse_rational(value)
        assert str(e.value) == f"rationals must be strings like '3/4' or integers, got {value!r}"

    def test_boolean_probability_rejected(self, tmp_path):
        path = tmp_path / "assessment.json"
        path.write_text(json.dumps({"atoms": ["p"], "pi": {"p": True}}))
        with pytest.raises(FileFormatError):
            load_assessment(path)

    @given(st.one_of(
        st.sampled_from([" 3/4 ", "+2", "-3/4", "0.5", "1e2", "1/0", "007/14", "\u00b2"]),
        st.text(alphabet="0123456789/+-._eE \u00b2\u0663", max_size=8),
    ))
    @example("-0/5")
    @example("--3")
    @example("3/-4")
    @example("\u0663/4")
    @settings(max_examples=500, deadline=None)
    def test_parse_matches_fraction_text(self, text):
        try:
            want = Fraction(text)
        except (ValueError, ZeroDivisionError) as e:
            want = f"bad rational {text!r}: {e}"
        try:
            got = parse_rational(text)
        except FileFormatError as e:
            got = str(e)
        assert got == want and type(got) is type(want)


class TestSchemas:
    def test_atom_mismatch_between_session_and_assessment(self, tmp_path):
        (tmp_path / "assessment.json").write_text(
            json.dumps({"atoms": ["a"], "pi": {"a": "1/2"}})
        )
        (tmp_path / "session.json").write_text(
            json.dumps({"atoms": ["b"], "assessment": "assessment.json"})
        )
        session = load_session(tmp_path / "session.json")  # reads no assessment
        with pytest.raises(FileFormatError, match=r"atom list \['a'\] disagrees"):
            session.assessment

    def test_unknown_state_in_event(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(
            json.dumps(
                {"states": ["w1"], "t": {"p": ["w1"]}, "lambda": {"w9": "1/2"}}
            )
        )
        with pytest.raises(FileFormatError):
            load_model(path, Language(["p"]))

    @pytest.mark.parametrize("data,error,message", [
        ({"states": [], "t": {}}, ModelError, "a model needs at least one state"),
        ({"states": ["w1", "w1"], "t": {"p": ["w9"]}}, ModelError, "duplicate state labels"),
        ({"states": ["w|1"], "t": {}}, ModelError, "state label 'w|1' may not contain '|'"),
        ({"states": [{"x": 1}], "t": {}}, ModelError, "state label {'x': 1} is not a string"),
        ({"states": [1, 2], "t": {}}, ModelError, "state label 1 is not a string"),
        ({"states": ["a", ""], "t": {}, "lambda": {"": "0", "|a": "1"}}, ModelError,
         "state label '' is empty"),
        ({"states": ["w1", "w|1"], "t": {"p": 5}}, ModelError,
         "state label 'w|1' may not contain '|'"),
        ({"states": ["w1"], "t": {"p": 5}}, ModelError,
         "truth event for p must be a list of state labels"),
        ({"states": ["a", "b"], "t": {"p": "ab"}}, ModelError,
         "truth event for p must be a list of state labels"),
        ({"states": ["a", "b"], "t": {"p": ["a", 1]}}, ModelError,
         "truth event for p must be a list of state labels"),
        ({"states": ["w1"], "t": {"p": ["w1", "w9"]}}, ModelError,
         "truth event for p mentions unknown states"),
        ({"states": ["w1"], "t": {"T": []}}, ModelError, "T must be valued as ['w1']"),
        ({"states": ["w1", "w2"], "t": {}, "mass": {"w9": "1"}}, ModelError,
         "mass assigned to unknown state 'w9'"),
        ({"states": ["w1", "w2"], "t": {}, "mass": {"w1": "1/2"}}, ModelError,
         "state masses must sum to exactly 1"),
        ({"states": ["w1", "w2"], "t": {}, "mass": {"w1": "3/2", "w2": "-1/2"}}, ModelError,
         "state masses must be nonnegative; w2 has -1/2"),
        ({"states": ["w1", "w2"], "t": {}, "lambda": {"w1|w9": "1/2"}}, FileFormatError,
         "unknown state labels in event 'w1|w9': ['w9']"),
        ({"states": ["w1", "w2"], "t": {}, "lambda": {"w1|w2": "1/2"}}, ModelError,
         "lambda(w1|w2) must equal 1"),
        ({"states": ["w1", "w2"], "t": {}, "lambda": {"w2": "1/3"},
          "mass": {"w1": "1/2", "w2": "1/2"}}, ModelError,
         "explicit lambda(w2) = 1/3 disagrees with the additive masses (1/2)"),
        ({"states": ["a", "c"], "t": {}, "lambda": {"a": "1/4", "a|a": "1/2"}},
         FileFormatError, "lambda keys 'a' and 'a|a' name the same event"),
        ({"states": ["a", "b", "c"], "t": {}, "lambda": {"a|c": "3/4", "c|a": "1/3"}},
         FileFormatError, "lambda keys 'a|c' and 'c|a' name the same event"),
    ])
    def test_invalid_model_named(self, tmp_path, data, error, message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        with pytest.raises(error) as e:
            load_model(path, Language(["p"]))
        assert str(e.value) == message

    BAD_X = "bad rational 'x': Invalid literal for Fraction: 'x'"
    UNKNOWN_ZZ = "unknown state labels in event 'a|zz': ['zz']"
    SAME_A = "lambda keys 'a' and 'a|a' name the same event"
    LIST = "rationals must be strings like '3/4' or integers, got [1]"

    @pytest.mark.parametrize("lam,message", [
        # a bad value before a bad key, and after one
        ({"a": "x", "a|zz": "1/2"}, BAD_X),
        ({"a|zz": "1/2", "a": "x"}, UNKNOWN_ZZ),
        ({"a": "1/4", "b": "x", "a|a": "1/2"}, BAD_X),
        ({"a": "1/4", "a|a": "1/2", "b": "x"}, SAME_A),
        # a key and its own value both bad: the key is read first
        ({"a": "1/4", "a|zz": "x"}, UNKNOWN_ZZ),
        ({"a": "1/4", "a|a": "x"}, SAME_A),
        # a value read once for two keys is reported at the first
        ({"a": "1/4", "b": "x", "a|b": "x"}, BAD_X),
        # values that are no strings, and an unhashable one
        ({"a": 1, "b": True}, "rationals must be strings like '3/4' or integers, got True"),
        ({"a": True, "b": 1}, "rationals must be strings like '3/4' or integers, got True"),
        ({"a": "x", "b": [1]}, BAD_X),
        ({"a": [1], "b": "x"}, LIST),
        ({"a": "1/2", "a|zz": [1]}, UNKNOWN_ZZ),
        # the empty key names the empty event, and is no head
        ({"": "0", "|a": "1/2"}, "unknown state labels in event '|a': ['']"),
        ({"a": "0", "a|": "1/2"}, "unknown state labels in event 'a|': ['']"),
        # a head not read before is split
        ({"b|a": "1/2", "b|a|zz": "1"}, "unknown state labels in event 'b|a|zz': ['zz']"),
        ({"b|a": "1/2", "a|b": "1/2"}, "lambda keys 'b|a' and 'a|b' name the same event"),
    ])
    def test_first_bad_key_or_value_in_file_order(self, tmp_path, lam, message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"states": ["a", "b"], "t": {}, "lambda": lam}))
        with pytest.raises(FileFormatError) as e:
            load_model(path, Language([]))
        assert str(e.value) == message

    def test_undeclared_atom_in_formula(self, tmp_path):
        path = tmp_path / "assessment.json"
        path.write_text(json.dumps({"atoms": ["a"], "pi": {"z": "1/2"}}))
        with pytest.raises(LogicError):
            load_assessment(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "assessment.json"
        path.write_text(json.dumps({"atoms": ["a"]}))
        with pytest.raises(FileFormatError):
            load_assessment(path)

    def test_model_roundtrip_through_dict(self, linda, tmp_path):
        m2 = linda.models["model2"]
        data = model_to_dict(m2)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        again = load_model(path, linda.language)
        assert again.states == m2.states
        assert again.truth == m2.truth
        assert explicit_lambda(again) == explicit_lambda(m2)

    def test_redundant_factors_leave_the_denominator_least(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "states": ["a", "b"], "t": {}, "lambda": {"a": "1000/2000", "b": "300/1200"},
        }))
        model = load_model(path, Language([]))
        assert model.denominator == 4
        assert explicit_lambda(model) == {0: 0, 1: Fraction(1, 2), 2: Fraction(1, 4), 3: 1}
        path.write_text(json.dumps({
            "states": ["a", "b"], "t": {},
            "lambda": {"a": "1000/2000"}, "mass": {"a": "2/4", "b": "50/100"},
        }))
        assert load_model(path, Language([])).denominator == 2

    def test_source_text_preserved_for_reports(self, voting):
        texts = [voting.assessment.text(f) for f in voting.assessment.formulas]
        assert "(r <-> !b)" in texts


def _perfbench_gen():
    """The benchmark's seeded session generator, read from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def files_read(session) -> dict:
    """Every file a session names, read through its attributes, as data
    that compares across languages."""
    a, theory = session.assessment, session.theory
    return {
        "format": session.output_format,
        "choice": session.choice,
        "assessment": a and (a.texts, [str(a.value(f)) for f in a.statements]),
        "theory": theory and theory.generator_texts,
        "models": {name: model_to_dict(m) for name, m in session.models.items()},
        "strategies": [
            (s.name, {unparse(f): str(v) for f, v in s.payoffs.items()})
            for s in session.strategies
        ],
    }


FIXTURE_SESSIONS = [
    "linda/session.json", "voting/session.json", "certainty/session.json",
    "strategies/session-maps.json", "strategies/session-rationalize.json",
]


class TestFirstUseSession:
    """``load_session`` reads the session file alone; each file it names
    is read on first use and reads as the eager reader read it."""

    @pytest.mark.parametrize("name", FIXTURE_SESSIONS)
    def test_fixture_sessions_read_as_the_eager_reader_reads_them(self, name):
        path = ROOT / "fixtures" / name
        assert files_read(load_session(path)) == files_read(load_session_oracle(path))

    @pytest.mark.parametrize("workload", ["grade", "audit", "rationalize"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generated_sessions_read_as_the_eager_reader_reads_them(
        self, tmp_path, workload, seed
    ):
        plan = _perfbench_gen().generate(workload, seed, tmp_path, tiny=True)
        for name in plan["sessions"]:
            path = tmp_path / name
            assert files_read(load_session(path)) == files_read(load_session_oracle(path))

    def test_each_file_is_read_once_and_kept(self):
        session = load_session(ROOT / "fixtures" / "strategies" / "session-maps.json")
        assert session.model("capacity") is session.models["capacity"]
        assert session.strategies is session.strategies
        assert session.assessment is None and session.theory is None

    def test_a_model_is_read_alone(self, tmp_path):
        (tmp_path / "broken.json").write_text("[")
        good = ROOT / "fixtures" / "linda" / "model1.json"
        (tmp_path / "session.json").write_text(json.dumps({
            "atoms": ["f", "t"], "assessment": "broken.json",
            "models": {"good": str(good), "bad": "broken.json"},
        }))
        session = load_session(tmp_path / "session.json")
        assert model_to_dict(session.model("good")) == model_to_dict(
            load_model(good, session.language)
        )
        with pytest.raises(FileFormatError, match="invalid JSON in .*broken.json"):
            session.model("bad")
        with pytest.raises(FileFormatError, match="invalid JSON in .*broken.json"):
            session.assessment

    def test_a_theory_set_in_place_of_the_sessions_own_is_kept(self, tmp_path):
        (tmp_path / "session.json").write_text(json.dumps({"atoms": ["p"], "theory": "nope.json"}))
        session = load_session(tmp_path / "session.json")
        session.theory = Theory.from_texts(session.language, ["p"])
        assert session.theory.generator_texts == ("p",)

    def test_files_are_pinned_where_the_session_was_loaded(self, tmp_path, monkeypatch):
        """A session loaded by a relative path reads its files from where
        they were at load time, after a change of directory, and its error
        messages name them by the relative path."""
        linda = ROOT / "fixtures" / "linda"
        work = tmp_path / "work"
        work.mkdir()
        (work / "assessment.json").write_text((linda / "assessment.json").read_text())
        (work / "broken.json").write_text("[")
        (work / "session.json").write_text(json.dumps({
            "atoms": ["f", "t"], "assessment": "assessment.json",
            "models": {"bad": "broken.json"},
        }))
        monkeypatch.chdir(tmp_path)
        session = load_session("work/session.json")
        monkeypatch.chdir(ROOT)
        got, want = session.assessment, load_assessment(linda / "assessment.json")
        assert (got.texts, got.numerators, got.denominator) == (
            want.texts, want.numerators, want.denominator
        )
        with pytest.raises(FileFormatError, match=r"^invalid JSON in work/broken\.json: "):
            session.model("bad")
