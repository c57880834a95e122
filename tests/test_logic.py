import copy
import gc
import json
import pickle
import random
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credence import logic
from credence.errors import InputError
from credence.logic import (
    FALSE,
    TRUE,
    And,
    Atom,
    Const,
    InconsistentTheoryError,
    Language,
    Not,
    Or,
    ParseError,
    Theory,
    UndeclaredAtomError,
    unparse,
)
from credence.identify import _theory_for_valuations

from helpers import (
    formula_depth,
    run_cli,
    tautological_theory,
    theory_contains,
    truth_table_implies,
    valuation_atoms,
)

PQ = Language(["p", "q"])
P = Language(["p"])


def formulas(atoms=("p", "q"), max_depth=5):
    leaves = st.sampled_from([Atom(a) for a in atoms] + [TRUE, FALSE])
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            inner.map(Not),
            st.tuples(inner, inner).map(lambda t: And(*t)),
            st.tuples(inner, inner).map(lambda t: Or(*t)),
        ),
        max_leaves=2 ** max_depth,
    )


class TestNodes:
    def test_equal_formulas_are_one_node(self):
        f = PQ.parse("((p -> q) & !p)")
        assert f is PQ.parse("((p->q)&!p)")
        assert f is And(Or(Not(Atom("p")), Atom("q")), Not(Atom("p")))
        assert f != PQ.parse("((p -> q) & !q)")

    def test_constants_are_the_module_nodes(self):
        assert Const(True) is TRUE
        assert Const(False) is FALSE

    @pytest.mark.parametrize(
        "roundtrip",
        [copy.copy, copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_are_the_interned_node(self, roundtrip):
        for f in (TRUE, Atom("p"), PQ.parse("((p <-> q) | !(p & T))")):
            assert roundtrip(f) is f

    def test_nodes_are_immutable(self):
        f = PQ.parse("(p & q)")
        with pytest.raises(FrozenInstanceError):
            f.left = Atom("q")
        with pytest.raises(FrozenInstanceError):
            del f.right
        with pytest.raises(FrozenInstanceError):
            TRUE.value = False
        assert f.left is Atom("p")

    @pytest.mark.parametrize("shape", ["negations", "conjunctions"])
    def test_repr_and_pickle_at_the_depth_bound(self, shape):
        # repr took two frames per level and pickle recursed down the tree,
        # so both failed below MAX_DEPTH
        depth = logic.MAX_DEPTH
        if shape == "negations":
            f = PQ.parse("!" * depth + "p")
            assert repr(f) == "Not(child=" * depth + "Atom(name='p')" + ")" * depth
        else:
            text = "p"
            for _ in range(depth):
                text = f"({text} & q)"
            f = PQ.parse(text)
            innermost = "And(left=Atom(name='p'), right=Atom(name='q'))"
            assert repr(f).startswith("And(left=" * (depth - 1) + innermost)
        assert logic._depth(f) == depth
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(f, protocol)) is f

    def test_a_pickled_formula_is_rebuilt_in_a_new_table(self):
        f = PQ.parse("((p <-> q) | !(p & T))")
        data = pickle.dumps([f, f.left])
        del f
        gc.collect()
        g, left = pickle.loads(data)
        assert g is PQ.parse("((p <-> q) | !(p & T))") and left is g.left

    def test_dataclass_style_repr(self):
        assert repr(PQ.parse("(p | !q)")) == (
            "Or(left=Atom(name='p'), right=Not(child=Atom(name='q')))"
        )
        assert repr(TRUE) == "Const(value=True)"

    def test_wrong_arity_is_a_type_error(self):
        with pytest.raises(TypeError):
            And(Atom("p"))

    def test_the_table_keeps_nothing_after_a_command(self):
        session = Path(__file__).resolve().parent.parent / "fixtures" / "linda" / "session.json"
        gc.collect()
        before = len(logic._table)
        # a kept result would hold the command's traceback, and its formulas
        codes = [
            run_cli(command, session, *rest).exit_code
            for command, *rest in (["identify"], ["build", "canonical-sound"], ["check"])
        ]
        assert codes == [1, 0, 1]
        gc.collect()
        assert len(logic._table) == before


class TestParse:
    def test_and_not(self):
        assert PQ.parse("(p & !q)") == And(Atom("p"), Not(Atom("q")))

    def test_constant(self):
        assert PQ.parse("T") == TRUE
        assert PQ.parse("F") == FALSE

    def test_nested_with_constant(self):
        assert PQ.parse("((p | q) & F)") == And(Or(Atom("p"), Atom("q")), FALSE)

    def test_sugar_expands(self):
        assert PQ.parse("(p -> q)") == Or(Not(Atom("p")), Atom("q"))
        f = PQ.parse("(p <-> q)")
        assert PQ.equivalent(f, PQ.parse("((p & q) | (!p & !q))"))

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as e:
            PQ.parse("(p & ")
        assert e.value.position == 5

    def test_missing_connective(self):
        with pytest.raises(ParseError):
            PQ.parse("(p q)")

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            PQ.parse("p q")

    def test_undeclared_atom(self):
        with pytest.raises(UndeclaredAtomError):
            PQ.parse("(p & r)")

    def test_bad_character(self):
        with pytest.raises(ParseError):
            PQ.parse("p + q")

    def test_unclosed_parenthesis(self):
        with pytest.raises(ParseError) as e:
            PQ.parse("(p & q q)")
        assert str(e.value) == "expected ')' (at position 7)"

    @pytest.mark.parametrize("text,error,message,position", [
        # the whole text is scanned first, so a bad character anywhere
        # is reported before an earlier syntax error
        ("(p q) é", ParseError, "unexpected character 'é'", 6),
        ("!" * (logic.MAX_DEPTH + 1) + "p é", ParseError, "unexpected character 'é'",
         logic.MAX_DEPTH + 3),
        ("(p <- q)", ParseError, "unexpected character '<'", 3),
        ("(p q)", ParseError, "expected a connective, got 'q'", 3),
        ("(p &", ParseError, "expected a formula, got 'end of input'", 4),
        ("(p & q", ParseError, "expected ')'", 6),
        ("p q", ParseError, "trailing input 'q'", 2),
        ("(p -> )", ParseError, "expected a formula, got ')'", 6),
        ("", ParseError, "expected a formula, got 'end of input'", 0),
        ("Tp", UndeclaredAtomError, "undeclared atom 'Tp'", 0),
        ("(p & r)", UndeclaredAtomError, "undeclared atom 'r'", 5),
    ])
    def test_every_parse_error_names_its_position(self, text, error, message, position):
        with pytest.raises(ParseError) as e:
            PQ.parse(text)
        assert type(e.value) is error
        assert str(e.value) == f"{message} (at position {position})"
        assert e.value.position == position

    def test_formulas_at_the_depth_bound_are_evaluated_and_rendered(self):
        deep = "!" * logic.MAX_DEPTH + "p"
        flip = PQ.full_mask if logic.MAX_DEPTH % 2 else 0
        assert PQ.sat(PQ.parse(deep)) == PQ.sat(Atom("p")) ^ flip
        assert unparse(PQ.parse(deep)) == deep
        # an implication is two levels deep once expanded
        text, bits = "p", PQ.sat(Atom("p"))
        for _ in range(logic.MAX_DEPTH // 2):
            text, bits = f"({text} -> q)", (PQ.full_mask & ~bits) | PQ.sat(Atom("q"))
        f = PQ.parse(text)
        assert PQ.sat(f) == bits
        assert unparse(f).count("!") == logic.MAX_DEPTH // 2
        # an equivalence is three
        f = PQ.parse("!" * (logic.MAX_DEPTH - 3) + "(p <-> q)")
        assert PQ.sat(f) in (0b1001, 0b0110)
        assert unparse(f).startswith("!" * (logic.MAX_DEPTH - 3) + "((")

    @pytest.mark.parametrize("text,position", [
        ("!" * (logic.MAX_DEPTH + 1) + "p", logic.MAX_DEPTH),
        ("(" * (logic.MAX_DEPTH + 1) + "p", logic.MAX_DEPTH),
        ("!" * (logic.MAX_DEPTH - 2) + "(p <-> q)", 0),
        ("(" * (logic.MAX_DEPTH // 2 + 1) + "p" + " -> q)" * (logic.MAX_DEPTH // 2 + 1), 0),
    ])
    def test_formulas_past_the_depth_bound_are_parse_errors(self, text, position):
        with pytest.raises(ParseError) as e:
            PQ.parse(text)
        assert e.value.position == position
        assert f"nests more than {logic.MAX_DEPTH} levels deep" in str(e.value)

    @given(formulas(max_depth=7))
    @settings(max_examples=200)
    def test_depth_counts_the_connectives_on_the_longest_path(self, f):
        assert logic._depth(f) == formula_depth(f) - 1

    def test_deeply_nested_assessment_key_exits_2(self, tmp_path):
        (tmp_path / "assessment.json").write_text(
            json.dumps({"atoms": ["p"], "pi": {"p": "1/2", "!" * 5000 + "p": "1/2"}})
        )
        (tmp_path / "session.json").write_text(
            json.dumps({"atoms": ["p"], "assessment": "assessment.json"})
        )
        res = run_cli("check", tmp_path / "session.json")
        assert res.exit_code == 2
        assert f"nests more than {logic.MAX_DEPTH} levels deep" in res.output

    def test_atom_named_like_constant_rejected(self):
        with pytest.raises(Exception):
            Language(["T"])

    @pytest.mark.parametrize("atoms, message", [
        ([f"a{j}" for j in range(logic.MAX_ATOMS + 1)],
         f"valuation table over {logic.MAX_ATOMS + 1} atoms would have "
         f"2^{logic.MAX_ATOMS + 1} entries"),
        (["p", "q", "p"], "duplicate atom names"),
    ])
    def test_language_refusals(self, atoms, message):
        with pytest.raises(logic.LogicError) as e:
            Language(atoms)
        assert message in str(e.value)

    @given(formulas())
    @settings(max_examples=200)
    def test_unparse_roundtrip(self, f):
        assert PQ.parse(unparse(f)) == f


class TestSat:
    def test_single_atom(self):
        # valuation index 1 is the one making p true
        assert P.sat(Atom("p")) == 0b10

    def test_conjunction_is_intersection(self):
        assert PQ.sat(PQ.parse("(p & q)")) == PQ.sat(Atom("p")) & PQ.sat(Atom("q"))

    def test_excluded_middle(self):
        assert P.sat(P.parse("(p | !p)")) == P.full_mask

    def test_constants(self):
        assert PQ.sat(TRUE) == PQ.full_mask
        assert PQ.sat(FALSE) == 0

    def test_undeclared_atom_is_refused(self):
        with pytest.raises(UndeclaredAtomError) as refused:
            P.sat(Atom("q"))
        assert str(refused.value) == "undeclared atom 'q' (at position 0)"
        assert refused.value.position == 0
        assert isinstance(refused.value, InputError)

    @pytest.mark.parametrize("refuse", [P.sat, unparse], ids=["sat", "unparse"])
    def test_a_non_formula_is_a_type_error(self, refuse):
        with pytest.raises(TypeError) as refused:
            refuse("p")
        assert str(refused.value) == "not a formula: 'p'"
        assert type(refused.value) is TypeError

    def test_minterm_over_no_atoms_is_true(self):
        assert Language([]).minterm(0) is TRUE

    @pytest.mark.parametrize("n", range(9))
    def test_atom_masks_match_the_literal_definition(self, n):
        lang = Language([f"a{j}" for j in range(n)])
        for j, a in enumerate(lang.atoms):
            literal = sum(1 << i for i in range(lang.n_valuations) if (i >> j) & 1)
            assert lang.sat(Atom(a)) == literal

    @given(formulas())
    @settings(max_examples=200)
    def test_sat_matches_direct_evaluation(self, f):
        from helpers import eval_formula

        bits = PQ.sat(f)
        for i in range(PQ.n_valuations):
            assert bool((bits >> i) & 1) == eval_formula(f, valuation_atoms(PQ, i))


class TestImplication:
    def test_conjunction_implies_conjunct(self):
        assert PQ.implies(PQ.parse("(p & q)"), Atom("p"))

    def test_disjunction_introduction(self):
        assert PQ.implies(Atom("p"), PQ.parse("(p | q)"))

    def test_false_implies_anything(self):
        for text in ("p", "(p & q)", "F", "T"):
            assert PQ.implies(FALSE, PQ.parse(text))

    def test_atom_does_not_imply_conjunction(self):
        assert not PQ.implies(Atom("p"), PQ.parse("(p & q)"))

    @given(formulas(), formulas())
    @settings(max_examples=150)
    def test_agrees_with_truth_table_oracle(self, f, g):
        assert PQ.implies(f, g) == truth_table_implies(PQ, f, g)

    @given(formulas(), formulas(), formulas())
    @settings(max_examples=100)
    def test_preorder(self, f, g, h):
        assert PQ.implies(f, f)
        if PQ.implies(f, g) and PQ.implies(g, h):
            assert PQ.implies(f, h)


class TestEquivalence:
    def test_absorption_identity(self):
        f, g = Atom("p"), Atom("q")
        lhs = Or(f, And(g, Not(f)))
        assert PQ.equivalent(lhs, Or(f, g))

    def test_reflexive(self):
        f = PQ.parse("(p & !q)")
        assert PQ.equivalent(f, f)

    def test_distinct_atoms(self):
        assert not PQ.equivalent(Atom("p"), Atom("q"))

    @given(formulas(), formulas())
    @settings(max_examples=100)
    def test_equivalent_iff_mutual_implication(self, f, g):
        assert PQ.equivalent(f, g) == (PQ.implies(f, g) and PQ.implies(g, f))

    @given(formulas(), formulas())
    @settings(max_examples=100)
    def test_de_morgan_and_distributivity(self, f, g):
        assert PQ.equivalent(Not(And(f, g)), Or(Not(f), Not(g)))
        assert PQ.equivalent(Not(Or(f, g)), And(Not(f), Not(g)))
        h = Atom("p")
        assert PQ.equivalent(And(h, Or(f, g)), Or(And(h, f), And(h, g)))


class TestTheory:
    def test_contradictory_generators(self):
        with pytest.raises(InconsistentTheoryError):
            Theory(P, [Atom("p"), Not(Atom("p"))])

    def test_water_theory_consistent(self):
        assert Theory(PQ, [PQ.parse("(!q | p)")]).valuations != 0

    def test_voting_rules_consistent(self):
        lang = Language(["r", "b", "p"])
        gens = [lang.parse("(r <-> !b)"), lang.parse("(p -> b)")]
        assert Theory(lang, gens).valuations != 0

    def test_contains_weakening(self):
        t = Theory(PQ, [Atom("p")])
        assert theory_contains(t, PQ.parse("(p | q)"))
        assert not theory_contains(t, Atom("q"))
        assert theory_contains(t, TRUE)

    def test_theory_implication(self):
        t = Theory(PQ, [PQ.parse("(!q | p)")])
        assert t.implies(Atom("q"), Atom("p"))
        assert not PQ.implies(Atom("q"), Atom("p"))

    def test_empty_theory_is_plain_implication(self):
        t = tautological_theory(PQ)
        f, g = PQ.parse("(p & q)"), Atom("p")
        assert t.implies(f, g) == PQ.implies(f, g)
        assert not t.implies(Atom("p"), Atom("q"))

    def test_voting_contradiction(self):
        lang = Language(["r", "b", "p"])
        t = Theory.from_texts(lang, ["(r <-> !b)", "(p -> b)"])
        assert t.implies(TRUE, lang.parse("!(r & p)"))

    @given(formulas(), formulas())
    @settings(max_examples=80)
    def test_tautological_theory_matches_implies(self, f, g):
        t = tautological_theory(PQ)
        assert t.implies(f, g) == PQ.implies(f, g)


class TestFormulaFromValuations:
    def test_constants(self):
        assert PQ.formula_from_valuations(PQ.full_mask) == TRUE
        assert PQ.formula_from_valuations(0) == FALSE

    def test_recovers_atom(self):
        assert PQ.formula_from_valuations(PQ.sat(Atom("p"))) == Atom("p")

    def test_negated_atom(self):
        got = PQ.formula_from_valuations(PQ.sat(PQ.parse("!q")))
        assert PQ.equivalent(got, PQ.parse("!q"))
        assert unparse(got) == "!q"

    def test_dont_cares_shrink_terms(self):
        # require p&!q true, p&q / !p&!q false, !p&q unconstrained
        include = PQ.sat(PQ.parse("(p & !q)"))
        exclude = PQ.sat(PQ.parse("(p & q)")) | PQ.sat(PQ.parse("(!p & !q)"))
        got = PQ.formula_from_valuations(include, exclude)
        assert unparse(got) == "(p & !q)"
        include2 = PQ.sat(Atom("p"))
        exclude2 = PQ.sat(PQ.parse("(!p & !q)"))
        assert unparse(PQ.formula_from_valuations(include2, exclude2)) == "p"

    @given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15))
    @settings(max_examples=200)
    def test_constraints_respected(self, include, raw_exclude):
        exclude = raw_exclude & ~include
        f = PQ.formula_from_valuations(include, exclude)
        bits = PQ.sat(f)
        assert bits & include == include
        assert bits & exclude == 0

    def test_overlap_rejected(self):
        with pytest.raises(Exception):
            PQ.formula_from_valuations(0b0011, 0b0010)

    def test_zero_atom_language(self):
        lang = Language([])
        assert lang.parse("T") == TRUE
        assert lang.sat(TRUE) == 1
        assert lang.formula_from_valuations(1) == TRUE

    @pytest.mark.parametrize("atoms, count", [(10, 1000), (16, 5000)])
    def test_large_sets_render_and_evaluate(self, atoms, count):
        # a left-nested minterm disjunction of this many valuations made
        # unparse and sat recurse past the interpreter's limit
        lang = Language([f"a{j}" for j in range(atoms)])
        include = sum(1 << i for i in random.Random(atoms).sample(range(lang.n_valuations), count))
        f = lang.formula_from_valuations(include)
        text = unparse(f)
        assert lang.sat(f) == include
        assert Language(lang.atoms).sat(lang.parse(text)) == include
        theory, texts = _theory_for_valuations(lang, include, tautological_theory(lang))
        assert texts == (text,)
        assert theory.valuations == include
