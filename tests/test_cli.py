import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from credence.logic import Language

from helpers import disjoint_gap_tables, run_cli as invoke

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "fixtures"


class TestCheck:
    def test_linda_implication_fails(self):
        res = invoke("check", FIXTURES / "linda" / "session.json", "i")
        assert res.exit_code == 1
        assert "(t & f)" in res.output

    def test_linda_nt_passes(self):
        res = invoke("check", FIXTURES / "linda" / "session.json", "nt")
        assert res.exit_code == 0

    def test_voting_theory_implication_fails(self):
        res = invoke("check", FIXTURES / "voting" / "session.json", "s-i")
        assert res.exit_code == 1
        assert "Theory Implication" in res.output

    def test_all_applicable_by_default(self):
        res = invoke("check", FIXTURES / "voting" / "session.json")
        assert "Theory Implication" in res.output
        assert "Non-Triviality" in res.output

    def test_unknown_axiom_is_input_error(self):
        res = invoke("check", FIXTURES / "linda" / "session.json", "xyz")
        assert res.exit_code == 2

    def test_missing_file_is_input_error(self):
        res = invoke("check", FIXTURES / "linda" / "nope.json", "i")
        assert res.exit_code == 2

    def test_n_max_is_no_option(self):
        res = invoke("check", FIXTURES / "linda" / "session.json", "ie",
                     "--n-max", "3")
        assert res.exit_code == 2
        assert "error: unrecognized arguments: --n-max 3" in res.stderr
        assert "Inclusion/Exclusion" not in res.output

    def test_ie_text_names_each_family(self):
        res = invoke("check", FIXTURES / "linda" / "session.json", "ie")
        assert res.stdout.splitlines()[1:] == [
            f"  violated: pi(t) + even conjunctions >= odd conjunctions for family {family}"
            "  [lhs=1/4, rhs=1/2]"
            for family in ("{(t & f)}", "{(t & f), F}")
        ]

    def test_json_format_deterministic(self):
        args = ["--format", "json", "check", str(FIXTURES / "voting" / "session.json")]
        out1 = invoke(*args).output
        out2 = invoke(*args).output
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["command"] == "check"


class TestBuild:
    def test_canonical_sound_on_linda(self, tmp_path):
        out = tmp_path / "model.json"
        res = invoke(
            "build", FIXTURES / "linda" / "session.json", "canonical-sound",
            "--out", out,
        )
        assert res.exit_code == 0
        data = json.loads(out.read_text())
        assert set(data["states"]) == {"v00", "v10", "v01", "v11"}

    def test_interval_on_linda_fails_with_exit_1(self):
        res = invoke(
            "build", FIXTURES / "linda" / "session.json", "interval-additive"
        )
        assert res.exit_code == 1
        assert "axiom I" in res.output

    def test_product_succeeds(self):
        res = invoke("build", FIXTURES / "linda" / "session.json", "product")
        assert res.exit_code == 0

    def test_belief_lift_from_capacity(self):
        res = invoke(
            "build", FIXTURES / "strategies" / "session-maps.json",
            "belief-lift", "--model", "capacity",
        )
        assert res.exit_code == 0
        assert "likelihoods preserved" in res.output

    def test_belief_lift_with_colliding_state_labels_exits_1(self, tmp_path):
        # mass 1/2 on {a, b} and 1/2 on {a+b}: a valid belief function
        # whose focal events would both be labelled a+b
        lam = {"": "0", "a": "0", "b": "0", "a|b": "1/2", "a+b": "1/2", "a|a+b": "1/2",
               "b|a+b": "1/2", "a|b|a+b": "1"}
        (tmp_path / "model.json").write_text(
            json.dumps({"states": ["a", "b", "a+b"], "t": {}, "lambda": lam})
        )
        session = tmp_path / "session.json"
        session.write_text(json.dumps({"atoms": ["p"], "models": {"m": "model.json"}}))
        res = invoke("build", session, "belief-lift")
        assert res.exit_code == 1
        assert "focal events a+b and a|b would both become the state a+b" in res.output

    def test_complete_maxent_is_no_option(self):
        res = invoke(
            "build", FIXTURES / "voting" / "session.json", "additive-sound",
            "--complete-maxent",
        )
        assert res.exit_code == 2
        assert "error: unrecognized arguments: --complete-maxent" in res.stderr

    def test_built_model_reloads(self, tmp_path):
        out = tmp_path / "interval.json"
        res = invoke(
            "build", FIXTURES / "voting" / "session.json",
            "interval-additive", "--out", out,
        )
        assert res.exit_code == 0
        from credence.files import load_model, load_session

        session = load_session(FIXTURES / "voting" / "session.json")
        model = load_model(out, session.language)
        from credence.model import represents

        assert represents(model, session.assessment).ok


class TestIdentify:
    def test_linda_reports_misunderstood_pair(self):
        res = invoke("identify", FIXTURES / "linda" / "session.json")
        assert res.exit_code == 1
        assert "(t & f) implies t" in res.output

    def test_voting_reports_subtheory(self):
        res = invoke("identify", FIXTURES / "voting" / "session.json")
        assert res.exit_code == 0
        assert "{(r <-> !b)}" in res.output

    def test_certainty_fixture_refuses_certainty_route(self):
        res = invoke("identify", FIXTURES / "certainty" / "session.json")
        assert res.exit_code == 1
        assert "refused" in res.output

    def test_trivial_assessment_all_understood(self, tmp_path):
        (tmp_path / "assessment.json").write_text(
            json.dumps({"atoms": ["p"], "pi": {"p": "1/2"}})
        )
        (tmp_path / "session.json").write_text(
            json.dumps({"atoms": ["p"], "assessment": "assessment.json"})
        )
        res = invoke("identify", tmp_path / "session.json")
        assert res.exit_code == 0
        assert "all understood" in res.output

    def unnormalized_session(self, tmp_path):
        (tmp_path / "assessment.json").write_text(
            json.dumps({"atoms": ["p"], "pi": {"T": "1/2"}})
        )
        (tmp_path / "session.json").write_text(
            json.dumps({"atoms": ["p"], "assessment": "assessment.json"})
        )
        return tmp_path / "session.json"

    def test_unnormalized_assessment_is_refused_in_text(self, tmp_path):
        res = invoke("identify", self.unnormalized_session(tmp_path))
        assert res.exit_code == 1
        assert res.output == (
            "identification: refused (identification requires a normalized "
            "assessment (axiom NT))\n"
        )

    def test_unnormalized_assessment_is_refused_in_json(self, tmp_path):
        res = invoke(
            "--format", "json", "identify", self.unnormalized_session(tmp_path)
        )
        assert res.exit_code == 1
        assert json.loads(res.output) == {
            "command": "identify",
            "refused": "identification requires a normalized assessment (axiom NT)",
        }

    def test_theory_override_refusal_path(self, tmp_path):
        # handing a theory to an assessment that breaks axiom I: the
        # sub-theory search must refuse, and the exit code stays 1
        (tmp_path / "theory.json").write_text(json.dumps({"generators": ["f"]}))
        res = invoke(
            "identify", FIXTURES / "linda" / "session.json",
            "--theory", tmp_path / "theory.json",
        )
        assert res.exit_code == 1
        assert "refused" in res.output

    def test_a_non_unique_subtheory_exits_1(self, tmp_path):
        # every implication is understood and the certainty route succeeds:
        # only the tie between largest sub-theories fails the run
        atoms = ["p", "q"]
        pi, generators = disjoint_gap_tables(Language(atoms), 1)
        res = invoke("identify", write_session(tmp_path, atoms, pi, generators))
        assert res.exit_code == 1
        assert res.output == (
            "implications within the universe: 6\n"
            "  all understood\n"
            "largest understood sub-theory: {(!p | q)}  (not unique; see candidates)\n"
            "certainty-based sub-theory: {}\n"
        )


def write_session(path, atoms, pi, generators):
    (path / "assessment.json").write_text(json.dumps({"atoms": atoms, "pi": pi}))
    (path / "theory.json").write_text(json.dumps({"generators": generators}))
    (path / "session.json").write_text(json.dumps(
        {"atoms": atoms, "assessment": "assessment.json", "theory": "theory.json"}
    ))
    return path / "session.json"


class TestIdentifyBeyondFourAtoms:
    def test_five_atom_session_gets_its_subtheory(self, tmp_path):
        session = write_session(
            tmp_path, list("abcde"),
            {"a": "3/10", "b": "2/5", "(((a & b) & c) & d)": "3/10", "e": "1/10"},
            ["(a -> b)", "((((a & b) & c) & d) -> e)"],
        )
        res = invoke("identify", session)
        assert res.exit_code == 0
        assert "largest understood sub-theory: {(a -> b)}\n" in res.output

    def test_too_many_minimal_transversals_are_refused(self, tmp_path):
        atoms = list("abcde")
        pi, generators = disjoint_gap_tables(Language(atoms), 12)
        res = invoke("identify", write_session(tmp_path, atoms, pi, generators))
        assert res.exit_code == 1
        assert (
            "largest sub-theory: refused (sub-theory search holds 2048 minimal "
            "transversals after 11 of 12 residual gaps, over the cap of 1024)"
        ) in res.output


class TestRationalize:
    def test_maximal_model_rationalizable(self):
        res = invoke(
            "rationalize", FIXTURES / "strategies" / "session-rationalize.json"
        )
        assert res.exit_code == 0
        assert "rationalizable" in res.output
        assert "s3: 1/3" in res.output and "s1: 1/4" in res.output

    def test_additive_only_not_rationalizable(self):
        res = invoke(
            "rationalize", FIXTURES / "strategies" / "session-rationalize.json",
            "--additive-only",
        )
        assert res.exit_code == 1
        assert "1/6" in res.output

    def test_explicit_choice(self):
        res = invoke(
            "rationalize", FIXTURES / "strategies" / "session-rationalize.json",
            "--choice", "s1",
        )
        assert res.exit_code == 0

    def test_unknown_choice_is_input_error(self):
        res = invoke(
            "rationalize", FIXTURES / "strategies" / "session-rationalize.json",
            "--choice", "nope",
        )
        assert res.exit_code == 2

    def test_json_report_deterministic(self):
        args = [
            "--format", "json", "rationalize",
            str(FIXTURES / "strategies" / "session-rationalize.json"),
        ]
        out1 = invoke(*args).output
        out2 = invoke(*args).output
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["witness_lambda"]["w1"] == "1/4"

    @pytest.mark.parametrize("flags", [[], ["--additive-only"]])
    def test_choice_with_the_payoffs_of_another_member(self, tmp_path, flags):
        # s4 pays what s3 pays, so the two are equal strategies; the
        # report must still name the one chosen
        source = FIXTURES / "strategies"
        (tmp_path / "model_objective.json").write_text(
            (source / "model_objective.json").read_text()
        )
        strategies = json.loads((source / "strategies-rat.json").read_text())
        strategies["s4"] = {"payoffs": {"T": "1/3"}}
        (tmp_path / "strategies-rat.json").write_text(json.dumps(strategies))
        session = json.loads((source / "session-rationalize.json").read_text())
        session["choice"] = "s4"
        (tmp_path / "session.json").write_text(json.dumps(session))
        res = invoke("--format", "json", "rationalize", tmp_path / "session.json", *flags)
        payload = json.loads(res.output)
        assert payload["choice"] == "s4"
        assert payload["rationalizable"] == (not flags)


class TestInternalErrors:
    def test_unverified_witness_exits_3(self, monkeypatch):
        # a Choquet integral that ranks the constant strategy last makes
        # every witness fail its re-verification
        from credence import games

        monkeypatch.setattr(games, "choquet", lambda model, vec: sum(vec))
        res = invoke(
            "rationalize", FIXTURES / "strategies" / "session-rationalize.json"
        )
        assert res.exit_code == 3
        assert "internal: no witness appraisal verified" in res.output

    def test_unreproduced_build_exits_3(self, monkeypatch):
        from credence import construct
        from credence.model import RepresentationReport

        monkeypatch.setattr(
            construct, "represents", lambda model, a: RepresentationReport(False, {}, [])
        )
        res = invoke("build", FIXTURES / "linda" / "session.json", "canonical-sound")
        assert res.exit_code == 3
        assert "internal: built model fails to reproduce" in res.output

    def test_unsolved_matrix_game_exits_3(self, monkeypatch):
        # the shifted game's LP is always optimal with a positive value
        from credence import _simplex

        monkeypatch.setattr(
            _simplex, "maximize", lambda *args: _simplex.LpResult("unbounded", None, None)
        )
        res = invoke(
            "rationalize", FIXTURES / "strategies" / "session-rationalize.json",
            "--additive-only",
        )
        assert res.exit_code == 3
        assert res.output == "error: internal: the game's LP came back unbounded, value None\n"

    SELF_CHECKS = [
        ("unsolved", [], "the dominance LP came back unbounded\n"),
        ("negative worst margin", ["--weak"],
         "the weak dominance LP broke its own constraint\n"),
        ("shifted worst margin", [],
         "the mixture's worst-case margin 4/27 is not the LP optimum 0\n"),
        ("zero margin dual", [], "the margin row has no positive dual\n"),
        ("marginal above 1", [], "the dual marginals give "),
        ("rejected best response", ["--additive-only", "--choice", "s1"],
         "additive witness failed verification\n"),
    ]

    @pytest.mark.parametrize("fault, flags, message", SELF_CHECKS,
                             ids=[fault for fault, _, _ in SELF_CHECKS])
    def test_failed_dominance_self_check_exits_3(self, monkeypatch, fault, flags,
                                                  message):
        """Each self-check of the dominance LP and the additive witness,
        made to fire by a broken LP or witness, is an internal error."""
        from credence import _simplex, games

        maximize, worst_margin = _simplex.maximize, games._worst_margin
        best_response = games._best_response

        def broken_maximize(*args):
            res = maximize(*args)
            scale, *duals = res.dual_numerators
            if fault == "zero margin dual":
                res.dual_numerators = [0, *duals]
            else:
                res.dual_numerators = [scale, *(scale + 1 for _ in duals)]
            return res

        if fault == "unsolved":
            monkeypatch.setattr(
                _simplex, "maximize", lambda *args: _simplex.LpResult("unbounded")
            )
        elif fault == "negative worst margin":
            monkeypatch.setattr(games, "_worst_margin", lambda *args: -1)
        elif fault == "shifted worst margin":
            monkeypatch.setattr(games, "_worst_margin",
                                lambda *args: worst_margin(*args) + 4)
        elif fault == "rejected best response":
            monkeypatch.setattr(games, "_best_response",
                                lambda *args: (best_response(*args)[0], False))
        else:
            monkeypatch.setattr(_simplex, "maximize", broken_maximize)
        res = invoke(
            "rationalize", FIXTURES / "strategies" / "session-rationalize.json", *flags
        )
        assert res.exit_code == 3
        assert res.output.startswith(f"error: internal: {message}")
        assert "Traceback" not in res.output

    def test_unpreserved_belief_lift_exits_3(self, monkeypatch):
        # a Mobius transform with all mass on the whole space makes the
        # lift the vacuous belief function, whose likelihoods differ
        from credence import construct

        monkeypatch.setattr(construct, "mobius", lambda model: {model.omega: Fraction(1)})
        res = invoke("build", FIXTURES / "strategies" / "session-maps.json",
                     "belief-lift", "--model", "capacity")
        assert res.exit_code == 3
        assert res.output == (
            "error: internal: lift failed to preserve statement likelihoods\n"
        )

    @pytest.mark.parametrize("value", [Fraction(1, 2), 0.5, {1: "x"}],
                             ids=["fraction", "float", "int key"])
    def test_unwritable_report_exits_3(self, monkeypatch, value):
        from credence import assessment
        from credence.assessment import AxiomReport

        # a checker whose report carries the value where the writer reads it
        monkeypatch.setitem(assessment.CHECKERS, "nt",
                            lambda a: AxiomReport("NT", meta={"lhs": value}))
        session = FIXTURES / "linda" / "session.json"
        res = invoke("--format", "json", "check", session, "nt")
        assert res.exit_code == 3
        assert "error: report is not writable as JSON" in res.output
        assert "Traceback" not in res.output
        # the text report never builds the JSON payload
        assert invoke("--format", "text", "check", session, "nt").exit_code == 0


class TestInterruptions:
    """A closed stdout pipe ends the command with exit 141 and a Ctrl-C
    with exit 130, the shell's codes, and neither prints a traceback."""

    def test_a_reader_that_stops_early(self):
        # an 82 KB report, more than a pipe holds, so the writer is still
        # writing when the reader closes its end
        proc = subprocess.Popen(
            [sys.executable, "-m", "credence.cli", "--format", "json", "build",
             str(FIXTURES / "voting" / "session.json"), "product"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(HERE.parent / "src")},
        )
        assert proc.stdout.read(10) == b'{\n  "certi'
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 141
        assert err == b""

    def test_a_closed_pipe_in_process(self):
        from credence.cli import main

        class ClosedPipe(io.StringIO):
            def __init__(self, fd):
                super().__init__()
                self.fd = fd

            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return self.fd

        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            with contextlib.redirect_stdout(ClosedPipe(write_end)):
                with pytest.raises(SystemExit) as exit_:
                    main(["check", str(FIXTURES / "linda" / "session.json")])
            assert exit_.value.code == 141
            # the descriptor now writes to the null device, not the pipe
            assert os.write(write_end, b"x") == 1
        finally:
            os.close(write_end)

    def test_ctrl_c(self, monkeypatch):
        from credence import assessment

        def interrupted(a):
            raise KeyboardInterrupt

        monkeypatch.setitem(assessment.CHECKERS, "ie", interrupted)
        res = invoke("check", FIXTURES / "linda" / "session.json", "nt", "ie")
        assert res.exit_code == 130
        assert res.output == ""


class TestChoquetAndMobius:
    def test_choquet_value(self, tmp_path):
        act = tmp_path / "act.json"
        act.write_text(json.dumps({"w1": "3", "w2": "4", "w3": "2"}))
        res = invoke(
            "choquet", FIXTURES / "strategies" / "session-maps.json",
            "--model", "capacity", "--act", act,
        )
        assert res.exit_code == 0
        assert "7/3" in res.output

    def test_mobius_masses(self):
        res = invoke(
            "mobius", FIXTURES / "strategies" / "session-maps.json",
            "--model", "capacity",
        )
        assert res.exit_code == 0
        assert "w1|w2|w3: 1/3" in res.output

    def test_mobius_invert_from_masses(self):
        res = invoke(
            "mobius", FIXTURES / "strategies" / "session-maps.json",
            "--model", "exact", "--invert",
        )
        assert res.exit_code == 0
        assert "w1|w2: 2/3" in res.output

    def test_bad_act_vector(self, tmp_path):
        act = tmp_path / "act.json"
        act.write_text(json.dumps({"w1": "1"}))
        res = invoke(
            "choquet", FIXTURES / "strategies" / "session-maps.json",
            "--model", "capacity", "--act", act,
        )
        assert res.exit_code == 2


class TestModelFileChecks:
    def session(self, tmp_path, model, **extra):
        (tmp_path / "model.json").write_text(json.dumps(model))
        path = tmp_path / "session.json"
        path.write_text(json.dumps({"atoms": ["p"], "models": {"m": "model.json"}, **extra}))
        return path

    def test_negative_mass_is_input_error(self, tmp_path):
        session = self.session(
            tmp_path, {"states": ["a", "b"], "t": {}, "mass": {"a": "3/2", "b": "-1/2"}}
        )
        act = tmp_path / "act.json"
        act.write_text(json.dumps({"a": "1", "b": "2"}))
        for args in (["choquet", session, "--act", act], ["mobius", session]):
            res = invoke(*args)
            assert res.exit_code == 2
            assert "state masses must be nonnegative; b has -1/2" in res.output

    @pytest.mark.parametrize("flag", ["false", 0, None])
    def test_exact_lookup_must_be_a_boolean(self, tmp_path, flag):
        session = self.session(
            tmp_path, {"states": ["a"], "t": {"p": ["a"]}, "exact_lookup": flag}
        )
        res = invoke("mobius", session)
        assert res.exit_code == 2
        assert f"key 'exact_lookup' must be a bool, got {flag!r}" in res.output

    def test_exact_lookup_boolean_loads(self, tmp_path):
        session = self.session(
            tmp_path, {"states": ["a"], "t": {"p": ["a"]}, "exact_lookup": False}
        )
        assert invoke("mobius", session).exit_code == 0

    @pytest.mark.parametrize("fmt", ["JSON", "yaml", None])
    def test_session_format_is_text_or_json(self, tmp_path, fmt):
        session = self.session(tmp_path, {"states": ["a"], "t": {}}, format=fmt)
        res = invoke("mobius", session)
        assert res.exit_code == 2
        assert f"key 'format' must be 'text' or 'json', got {fmt!r}" in res.output


class TestMalformedSessions:
    """Session shapes that are wrong exit 2 with a one-line error naming
    the key or file, never 1 with a traceback."""

    def session(self, tmp_path, **keys):
        path = tmp_path / "session.json"
        path.write_text(json.dumps({"atoms": ["p"], **keys}))
        return path

    def assessed(self, tmp_path, **keys):
        """A session with a valid assessment, so that ``check`` goes on to
        read its other files."""
        (tmp_path / "assessment.json").write_text(json.dumps({"atoms": ["p"], "pi": {"p": "1/2"}}))
        return self.session(tmp_path, assessment="assessment.json", **keys)

    def assert_input_error(self, res, message):
        assert res.exit_code == 2
        assert res.output.count("\n") == 1 and message in res.output
        assert "Traceback" not in res.output

    def test_models_given_as_a_list(self, tmp_path):
        session = self.session(tmp_path, models=["model.json"])
        res = invoke("mobius", session)
        self.assert_input_error(res, "key 'models' must be a dict")

    def test_model_path_not_a_string(self, tmp_path):
        session = self.session(tmp_path, models={"m": 5})
        self.assert_input_error(invoke("mobius", session), "key 'm' must be a str")

    @pytest.mark.parametrize("key", ["assessment", "theory", "strategies"])
    def test_file_path_not_a_string(self, tmp_path, key):
        res = invoke("check", self.session(tmp_path, **{key: 5}))
        self.assert_input_error(res, f"key {key!r} must be a str")

    def test_strategies_file_given_as_a_list(self, tmp_path):
        (tmp_path / "strategies.json").write_text(json.dumps([{"payoffs": {"p": "1"}}]))
        session = self.session(tmp_path, strategies="strategies.json", choice="s1")
        res = invoke("rationalize", session)
        self.assert_input_error(res, "strategies.json: the top level must be a JSON object")

    def test_strategy_body_not_an_object(self, tmp_path):
        (tmp_path / "strategies.json").write_text(json.dumps({"s1": 5}))
        session = self.session(tmp_path, strategies="strategies.json", choice="s1")
        res = invoke("rationalize", session)
        self.assert_input_error(res, "key 's1' must be a dict")

    def test_payoff_file_given_as_a_list(self, tmp_path):
        act = tmp_path / "act.json"
        act.write_text(json.dumps(["3", "4", "2"]))
        res = invoke(
            "choquet", FIXTURES / "strategies" / "session-maps.json",
            "--model", "capacity", "--act", act,
        )
        self.assert_input_error(res, "act.json: the top level must be a JSON object")

    @pytest.mark.parametrize("choice", [5, ["s1"], None])
    def test_choice_not_a_string(self, tmp_path, choice):
        session = FIXTURES / "strategies" / "session-rationalize.json"
        data = json.loads(session.read_text())
        for key in ("models", "strategies"):
            value = data[key]
            data[key] = (
                {k: str(session.parent / v) for k, v in value.items()}
                if isinstance(value, dict) else str(session.parent / value)
            )
        data["choice"] = choice
        (tmp_path / "session.json").write_text(json.dumps(data))
        res = invoke("rationalize", tmp_path / "session.json")
        self.assert_input_error(res, "key 'choice' must be a str")

    @pytest.mark.parametrize("key", ["lambda", "mass"])
    def test_model_table_given_as_a_list(self, tmp_path, key):
        (tmp_path / "model.json").write_text(json.dumps({"states": ["a"], "t": {}, key: ["1"]}))
        session = self.session(tmp_path, models={"m": "model.json"})
        self.assert_input_error(invoke("mobius", session), f"key {key!r} must be a dict")

    def test_atom_not_a_string(self, tmp_path):
        path = tmp_path / "session.json"
        path.write_text(json.dumps({"atoms": [["p"]]}))
        self.assert_input_error(invoke("mobius", path), "invalid atom name ['p']")

    def test_generator_not_a_string(self, tmp_path):
        (tmp_path / "theory.json").write_text(json.dumps({"generators": [5]}))
        res = invoke("check", self.assessed(tmp_path, theory="theory.json"))
        self.assert_input_error(res, "every generator must be a formula string")

    def test_session_path_is_a_directory(self, tmp_path):
        res = invoke("check", tmp_path)
        self.assert_input_error(res, f"error: cannot read {tmp_path}: Is a directory")

    def test_out_path_is_a_directory(self, tmp_path):
        res = invoke("build", FIXTURES / "linda" / "session.json", "product",
                     "--out", tmp_path)
        self.assert_input_error(res, f"error: cannot write {tmp_path}: Is a directory")

    def test_nul_byte_in_a_path(self, tmp_path):
        session = self.session(tmp_path, assessment="assessment\0.json")
        self.assert_input_error(invoke("check", session), ": embedded null byte")

    @pytest.mark.parametrize(
        "args",
        [
            ["check", "a\0b.json"],
            ["check", FIXTURES / "voting" / "session.json", "s-i", "--theory", "t\0.json"],
            ["identify", FIXTURES / "voting" / "session.json", "--theory", "t\0.json"],
            ["build", "a\0b.json", "product"],
            ["build", FIXTURES / "linda" / "session.json", "product", "--out", "m\0.json"],
            ["choquet", FIXTURES / "strategies" / "session-maps.json", "--model", "capacity",
             "--act", "x\0y"],
        ],
        ids=["session", "check-theory", "identify-theory", "build-session", "out", "act"],
    )
    def test_nul_byte_in_a_command_line_path(self, args):
        self.assert_input_error(invoke(*args), ": embedded null byte")

    def test_file_not_utf8(self, tmp_path):
        (tmp_path / "theory.json").write_bytes(b'{"generators": ["\xff"]}')
        res = invoke("check", self.assessed(tmp_path, theory="theory.json"))
        self.assert_input_error(res, "theory.json: 'utf-8' codec can't decode byte 0xff")

    def test_file_not_json(self, tmp_path):
        (tmp_path / "theory.json").write_text('{"generators": ["p"]')
        res = invoke("check", self.assessed(tmp_path, theory="theory.json"))
        self.assert_input_error(res, "theory.json: Expecting ',' delimiter")
        assert "error: invalid JSON in " in res.output

    def test_json_nested_too_deep(self, tmp_path):
        (tmp_path / "theory.json").write_text("[" * 100_000)
        res = invoke("check", self.assessed(tmp_path, theory="theory.json"))
        self.assert_input_error(res, "theory.json: maximum recursion depth exceeded")

    @pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no digit limit")
    def test_integer_past_the_digit_limit(self, tmp_path):
        digits = "7" * (sys.get_int_max_str_digits() + 1)
        (tmp_path / "assessment.json").write_text(
            json.dumps({"atoms": ["p"], "pi": {"p": f"1/{digits}"}})
        )
        res = invoke("check", self.session(tmp_path, assessment="assessment.json"))
        self.assert_input_error(res, "error: bad rational '1/777")

    @pytest.mark.parametrize("command", [["mobius"], ["choquet", "--act", "act.json"],
                                         ["build", "belief-lift"], ["rationalize"]])
    def test_session_without_models(self, tmp_path, command):
        (tmp_path / "strategies.json").write_text(json.dumps({"s": {"payoffs": {"p": "1"}}}))
        session = self.session(tmp_path, strategies="strategies.json", choice="s")
        res = invoke(command[0], session, *command[1:])
        self.assert_input_error(res, "error: session declares no model files")

    @pytest.mark.parametrize("keys, choice, message", [
        ({}, "s", "session declares no strategies"),
        ({"strategies": "strategies.json"}, None,
         "no strategy chosen; set 'choice' in the session or pass --choice"),
    ])
    def test_strategy_not_chosen(self, tmp_path, keys, choice, message):
        (tmp_path / "strategies.json").write_text(json.dumps({"s": {"payoffs": {"p": "1"}}}))
        session = self.session(tmp_path, **keys)
        res = invoke("rationalize", session, *(["--choice", choice] if choice else []))
        self.assert_input_error(res, f"error: {message}")


    @pytest.mark.parametrize("keys, which, message", [
        ({}, [], "session declares no assessment"),
        ({"assessment": "assessment.json"}, ["s-i"], "the s-i check needs a theory file"),
    ])
    def test_check_without_what_it_grades(self, tmp_path, keys, which, message):
        (tmp_path / "assessment.json").write_text(json.dumps({"atoms": ["p"], "pi": {}}))
        res = invoke("check", self.session(tmp_path, **keys), *which)
        self.assert_input_error(res, f"error: {message}")

    @pytest.mark.parametrize("model, message", [
        (None, "several models in session; pick one of: m, n"),
        ("o", "no model named 'o' in session"),
    ])
    def test_model_not_chosen(self, tmp_path, model, message):
        (tmp_path / "model.json").write_text(json.dumps({"states": ["a"], "t": {}}))
        session = self.session(tmp_path, models={"m": "model.json", "n": "model.json"})
        res = invoke("mobius", session, *(["--model", model] if model else []))
        self.assert_input_error(res, f"error: {message}")


class TestFirstUseReading:
    """A command reads only the files it uses, each when it first uses
    it, so an error in a file it does not read changes nothing."""

    VOTING = FIXTURES / "voting"

    def session(self, tmp_path, **keys):
        """The voting fixture's session, its files named by absolute path,
        with ``keys`` added or replaced."""
        data = {
            "atoms": ["r", "b", "p"],
            "assessment": str(self.VOTING / "assessment.json"),
            "theory": str(self.VOTING / "theory.json"),
            **keys,
        }
        path = tmp_path / "session.json"
        path.write_text(json.dumps(data))
        return path

    def same(self, session, *args):
        """The command's exit code and output on ``session`` are those on
        the voting fixture."""
        want = invoke(args[0], self.VOTING / "session.json", *args[1:])
        got = invoke(args[0], session, *args[1:])
        assert (got.exit_code, got.output) == (want.exit_code, want.output)

    @pytest.mark.parametrize("command", [["check"], ["identify"], ["build", "product"]])
    def test_a_malformed_model_is_not_read(self, tmp_path, command):
        (tmp_path / "model.json").write_text('{"states": ')
        self.same(self.session(tmp_path, models={"m": "model.json"}), *command)

    @pytest.mark.parametrize("command", [["mobius"], ["build", "belief-lift"]])
    def test_a_command_reading_the_malformed_model_names_it(self, tmp_path, command):
        (tmp_path / "model.json").write_text('{"states": ')
        session = self.session(tmp_path, models={"m": "model.json"})
        res = invoke(command[0], session, *command[1:])
        assert res.exit_code == 2
        assert f"error: invalid JSON in {tmp_path / 'model.json'}: " in res.output

    def test_theory_option_never_opens_the_sessions_own_theory(self, tmp_path):
        (tmp_path / "theory.json").write_text('{"generators": ')
        session = self.session(tmp_path, theory="theory.json")
        self.same(session, "check", "--theory", self.VOTING / "theory.json")
        res = invoke("check", session)
        assert res.exit_code == 2
        assert f"error: invalid JSON in {tmp_path / 'theory.json'}: " in res.output

    def test_grading_without_s_i_reads_no_theory(self, tmp_path):
        (tmp_path / "theory.json").write_text('{"generators": ')
        self.same(self.session(tmp_path, theory="theory.json"), "check", "i", "ie")

    def test_a_missing_assessment_comes_before_file_errors(self, tmp_path):
        (tmp_path / "theory.json").write_text('{"generators": ')
        session = self.session(tmp_path, theory="theory.json")
        data = json.loads(session.read_text())
        del data["assessment"]
        session.write_text(json.dumps(data))
        res = invoke("identify", session)
        assert res.exit_code == 2
        assert res.output == "error: session declares no assessment\n"

    @pytest.mark.parametrize("command", [
        ["mobius", "--model", "model1"],
        ["choquet", "--model", "model1", "--act", HERE / "golden" / "act3.json"],
    ])
    def test_model_commands_read_neither_assessment_nor_theory(self, tmp_path, command):
        (tmp_path / "broken.json").write_text("[")
        linda = FIXTURES / "linda"
        session = tmp_path / "session.json"
        session.write_text(json.dumps({
            "atoms": ["f", "t"], "assessment": "broken.json", "theory": "broken.json",
            "strategies": "broken.json", "models": {"model1": str(linda / "model1.json")},
        }))
        want = invoke(command[0], linda / "session.json", *command[1:])
        got = invoke(command[0], session, *command[1:])
        assert got.exit_code == 0
        assert (got.exit_code, got.output) == (want.exit_code, want.output)


class TestOversizedValues:
    def test_mobius_mass_past_the_digit_limit_is_input_error(self, tmp_path):
        # lam(S) = (|S| + 1/d_S) / 5 with distinct 400-digit d_S: the
        # full set's Mobius mass has a denominator of thousands of digits
        rng = random.Random(4)
        states = ["a", "b", "c", "d"]
        lam = {"a|b|c|d": "1"}
        for ev in range(1, 15):
            d = rng.randrange(10**399, 10**400)
            value = (ev.bit_count() + Fraction(1, d)) / 5
            lam["|".join(s for i, s in enumerate(states) if ev >> i & 1)] = str(value)
        (tmp_path / "model.json").write_text(json.dumps({"states": states, "t": {}, "lambda": lam}))
        session = tmp_path / "session.json"
        session.write_text(json.dumps({"atoms": ["p"], "models": {"m": "model.json"}}))
        for fmt in ("text", "json"):
            res = invoke("--format", fmt, "mobius", session)
            assert res.exit_code == 2
            assert res.output == (
                f"error: an exact value has more than {sys.get_int_max_str_digits()} "
                "decimal digits, more than Python writes as text\n"
            )
        # the same values load and integrate: only writing them fails
        act = tmp_path / "act.json"
        act.write_text(json.dumps({s: "1" for s in states}))
        res = invoke("choquet", session, "--act", act)
        assert res.exit_code == 0 and "choquet integral: 1" in res.output


VOTING = FIXTURES / "voting"
MAPS = FIXTURES / "strategies" / "session-maps.json"
HEDGING = FIXTURES / "strategies" / "session-rationalize.json"
ACT3 = HERE / "golden" / "act3.json"


class TestArguments:
    """Options stand anywhere among a command's arguments, and every
    usage error exits 2 with its message on stderr and nothing on
    stdout."""

    @pytest.mark.parametrize("args, same", [
        (["check", VOTING / "session.json", "i", "--theory", VOTING / "theory.json", "ie", "s-i"],
         ["check", VOTING / "session.json", "i", "ie", "s-i"]),
        (["check", "--theory", VOTING / "theory.json", VOTING / "session.json", "i", "ie"],
         ["check", VOTING / "session.json", "i", "ie"]),
        (["check", "--", VOTING / "session.json", "nt"], ["check", VOTING / "session.json", "nt"]),
        (["check", VOTING / "session.json", "i", "--", "ie"],
         ["check", VOTING / "session.json", "i", "ie"]),
        (["--format=json", "mobius", MAPS, "--model=capacity"],
         ["--format", "json", "mobius", MAPS, "--model", "capacity"]),
        (["build", "--model", "capacity", MAPS, "belief-lift"],
         ["build", MAPS, "belief-lift", "--model", "capacity"]),
        (["rationalize", "--weak", HEDGING, "--choice", "s1"],
         ["rationalize", HEDGING, "--choice", "s1", "--weak"]),
        (["choquet", "--act", ACT3, MAPS, "--model", "capacity"],
         ["choquet", MAPS, "--model", "capacity", "--act", ACT3]),
    ])
    def test_argument_orders_parse_alike(self, args, same):
        got, want = invoke(*args), invoke(*same)
        assert want.stdout and not want.stderr
        assert (got.exit_code, got.stdout, got.stderr) == (
            want.exit_code, want.stdout, want.stderr
        )

    @pytest.mark.parametrize("args, message", [
        (["check", VOTING / "session.json", "--n-max", "3"], "unrecognized arguments: --n-max 3"),
        (["rationalize", HEDGING, "--add"], "unrecognized arguments: --add"),
        (["--form=json", "check", VOTING / "session.json"], "unrecognized arguments: --form=json"),
        (["check", VOTING / "session.json", "--format", "json"],
         "unrecognized arguments: --format json"),
        (["--format", "yaml", "check", VOTING / "session.json"],
         "argument --format: invalid choice: 'yaml'"),
        (["build", VOTING / "session.json", "nope"],
         "argument CONSTRUCTION: invalid choice: 'nope'"),
        (["choquet", MAPS, "--model", "capacity"], "the following arguments are required: --act"),
        (["check"], "the following arguments are required: SESSION_FILE"),
        ([], "the following arguments are required: COMMAND"),
        (["--format", "json"], "the following arguments are required: COMMAND"),
        (["grade", VOTING / "session.json"], "argument COMMAND: invalid choice: 'grade'"),
    ], ids=["unknown option", "prefix", "top-level prefix", "top-level option after the command",
            "bad format", "bad construction", "missing act", "missing session", "no command",
            "format but no command", "unknown command"])
    def test_usage_error_exits_2(self, args, message):
        res = invoke(*args)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.startswith("usage: credence")
        assert f": error: {message}" in res.stderr

    @pytest.mark.parametrize("args", [["--help"], ["check", "--help"]])
    def test_help_exits_0(self, args):
        res = invoke(*args)
        assert res.exit_code == 0 and res.stderr == ""
        assert res.stdout.startswith(f"usage: {' '.join(['credence', *args[:-1]])} [-h]")
        if args == ["--help"]:
            for name in ("check", "build", "identify", "rationalize", "choquet", "mobius"):
                assert f"\n  {name} " in res.stdout

    def test_the_parsers_are_built_once(self):
        from credence import cli

        invoke("check", VOTING / "session.json", "nt")
        built = cli._parsers("credence")
        invoke("mobius", MAPS, "--model", "capacity")
        assert cli._parsers("credence") is built

    @pytest.mark.parametrize("args, code", [
        (["check", VOTING / "session.json", "nt"], 0),
        (["check", VOTING / "session.json", "--bogus"], 2),
    ])
    def test_click_calling_convention_ends_in_system_exit(self, capsys, args, code):
        from credence.cli import main

        with pytest.raises(SystemExit) as exit_:
            main.main(args=[str(a) for a in args], prog_name="credence", standalone_mode=False)
        assert exit_.value.code == code
        out, err = capsys.readouterr()
        assert bool(out) == (code == 0) and bool(err) == (code == 2)

    def test_the_entry_point_reads_sys_argv(self, monkeypatch, capsys):
        from credence.cli import main

        monkeypatch.setattr(sys, "argv", ["credence", "check", str(VOTING / "session.json"), "nt"])
        with pytest.raises(SystemExit) as exit_:
            main()
        assert exit_.value.code == 0
        assert capsys.readouterr().out == "Non-Triviality (NT): pass\n"
