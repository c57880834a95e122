import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credence.assessment import (
    Assessment,
    AssessmentError,
    AxiomReport,
    Bet,
    Violation,
    bet_value,
    check_a,
    check_e,
    check_i,
    check_ie,
    check_nt,
    check_s_i,
)
from credence.errors import InputError
from credence.logic import FALSE, TRUE, Language, Theory

from helpers import full_closure_classes, random_monotone_assessment, tautological_theory

F = Fraction
PQ = Language(["p", "q"])


def make(lang, table):
    return Assessment(lang, {lang.parse(t): F(v) for t, v in table.items()})


@pytest.fixture(scope="module")
def linda_assessment():
    lang = Language(["f", "t"])
    return make(lang, {"f": "3/4", "t": "1/4", "(t & f)": "1/2"})


class TestAssessmentType:
    def test_constants_added_with_normalized_values(self, linda_assessment):
        assert linda_assessment.value(TRUE) == 1
        assert linda_assessment.value(FALSE) == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(AssessmentError):
            make(PQ, {"p": "3/2"})

    def test_duplicate_rejected(self):
        lang = Language(["p"])
        f = lang.parse("p")
        with pytest.raises(AssessmentError):
            Assessment(lang, [(f, F(1, 2)), (f, F(1, 3))])

    def test_value_outside_universe(self, linda_assessment):
        with pytest.raises(AssessmentError):
            linda_assessment.value(linda_assessment.language.parse("!f"))

    def test_a_float_value_is_refused(self):
        # Fraction(0.1) would be a 56-bit dyadic rational, not 1/10
        lang = Language(["p"])
        with pytest.raises(AssessmentError, match="0.1 is a binary float"):
            Assessment(lang, {lang.parse("p"): 0.1})
        assert Assessment(lang, {lang.parse("p"): "1/10"}).denominator == 10


class TestBets:
    def test_primitive_bet_value(self):
        a = make(PQ, {"p": "3/4"})
        assert bet_value(a, Bet.primitive(PQ.parse("p"))) == F(3, 4)

    def test_half_half_constants(self):
        a = make(PQ, {})
        b = Bet({TRUE: F(1, 2), FALSE: F(1, 2)})
        assert bet_value(a, b) == F(1, 2)

    def test_linda_half_half(self, linda_assessment):
        lang = linda_assessment.language
        b = Bet({lang.parse("t"): F(1, 2), lang.parse("f"): F(1, 2)})
        assert bet_value(linda_assessment, b) == F(1, 2)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(AssessmentError):
            Bet({TRUE: F(1, 2)})

    def test_a_float_weight_is_refused(self):
        with pytest.raises(AssessmentError, match="binary float"):
            Bet({TRUE: 0.5, FALSE: F(1, 2)})
        b = Bet.primitive(TRUE)
        with pytest.raises(AssessmentError, match="binary float"):
            Bet.mix(b, b, 0.25)

    @pytest.mark.parametrize("make_bet, message", [
        (lambda: Bet({}), "a bet needs nonempty support"),
        (lambda: Bet([]), "a bet needs nonempty support"),
        (lambda: Bet({TRUE: F(0), FALSE: F(1)}), "bet weights must be positive"),
        (lambda: Bet({TRUE: F(3, 2), FALSE: F(-1, 2)}), "bet weights must be positive"),
        (lambda: Bet({TRUE: F(1, 3), FALSE: F(1, 3)}), "bet weights must sum to exactly 1"),
        (lambda: Bet.mix(Bet.primitive(TRUE), Bet.primitive(FALSE), F(-1, 4)),
         "mixture weight outside [0, 1]"),
        (lambda: Bet.mix(Bet.primitive(TRUE), Bet.primitive(FALSE), F(5, 4)),
         "mixture weight outside [0, 1]"),
    ], ids=["empty dict", "empty list", "zero weight", "negative weight", "sum 2/3",
            "mix below 0", "mix above 1"])
    def test_refusals_are_input_errors(self, make_bet, message):
        with pytest.raises(AssessmentError) as refused:
            make_bet()
        assert str(refused.value) == message
        assert isinstance(refused.value, InputError)

    def test_support_outside_universe(self, linda_assessment):
        b = Bet({linda_assessment.language.parse("!t"): F(1)})
        with pytest.raises(AssessmentError):
            bet_value(linda_assessment, b)

    @given(
        st.fractions(0, 1),
        st.fractions(F(1, 8), 1),
        st.fractions(F(1, 8), 1),
    )
    @settings(max_examples=60)
    def test_bet_value_linear_in_mixtures(self, alpha, w1, w2):
        a = make(PQ, {"p": "1/3", "q": "2/3"})
        b1 = Bet({PQ.parse("p"): w1, TRUE: 1 - w1}) if w1 < 1 else Bet({PQ.parse("p"): 1})
        b2 = Bet({PQ.parse("q"): w2, FALSE: 1 - w2}) if w2 < 1 else Bet({PQ.parse("q"): 1})
        mixed = Bet.mix(b1, b2, alpha)
        assert bet_value(a, mixed) == alpha * bet_value(a, b1) + (1 - alpha) * bet_value(a, b2)


class TestReportRows:
    """A report holds each violation as a row of statement indices and
    int numerators; its ``violations`` build each ``Violation`` when read."""

    def test_rows_name_statements_by_index(self, linda_assessment):
        r = check_i(linda_assessment)
        a = linda_assessment
        (names, lhs, rhs), = r.rows
        assert [a.texts[i] for i in names] == ["(t & f)", "t"]
        assert (F(lhs, a.denominator), F(rhs, a.denominator)) == (F(1, 2), F(1, 4))
        assert r.entries() == [
            (["(t & f)", "t"], "1/2", "1/4", "(t & f) implies t so pi(t) >= pi((t & f))")
        ]

    def test_violations_read_like_a_list(self, linda_assessment):
        r = check_ie(linda_assessment)
        built = [r.violation(k) for k in range(len(r.rows))]
        assert len(r.violations) == len(built) == 2
        assert r.violations == built and built == r.violations
        assert r.violations == check_ie(linda_assessment).violations
        assert r.violations != built[:1] and r.violations != tuple(built)
        assert r.violations[-1] == built[-1] and r.violations[1:] == built[1:]
        assert list(reversed(r.violations)) == built[::-1]
        assert repr(r.violations) == repr(built)
        with pytest.raises(IndexError):
            r.violations[2]

    def test_a_report_without_rows_passes(self):
        r = AxiomReport("NT", meta={"k": 1})
        assert r.passed and not r.violations and r.entries() == []
        assert r.to_dict() == {"axiom": "NT", "passed": True, "violations": [],
                               "untestable": [], "meta": {"k": 1}}

    def test_nt_names_the_constants_as_written(self):
        # the file's own text for T is not what NT's violation names
        lang = PQ
        a = Assessment(lang, {TRUE: F(1, 2), FALSE: F(1, 3)}, texts={TRUE: "(T)"})
        assert check_nt(a).violations == [
            Violation("NT", ("F",), F(1, 3), F(0), "pi(F) = 0"),
            Violation("NT", ("T",), F(1, 2), F(1), "pi(T) = 1"),
        ]


class TestNT:
    def test_pass(self):
        r = check_nt(make(PQ, {"T": "1", "F": "0", "p": "1/2"}))
        assert r.passed

    def test_false_mispriced(self):
        r = check_nt(make(PQ, {"F": "1/10"}))
        assert not r.passed
        assert r.violations[0].formulas == ("F",)

    def test_linda_extended_passes(self, linda_assessment):
        assert check_nt(linda_assessment).passed


class TestE:
    def test_commuted_conjunction_equal(self):
        r = check_e(make(PQ, {"(p & q)": "1/3", "(q & p)": "1/3"}))
        assert r.passed

    def test_double_negation_mismatch(self):
        r = check_e(make(PQ, {"p": "1/2", "!!p": "1/3"}))
        assert not r.passed
        assert ("!!p", "p") == tuple(sorted(r.violations[0].formulas))

    def test_linda_vacuous(self, linda_assessment):
        assert check_e(linda_assessment).passed


class TestI:
    def test_linda_conjunction_fallacy(self, linda_assessment):
        r = check_i(linda_assessment)
        assert not r.passed
        assert [v.formulas for v in r.violations] == [("(t & f)", "t")]

    def test_constant_assessment_passes(self):
        r = check_i(make(PQ, {"p": "1/2", "q": "1/2", "(p & q)": "1/2", "(p | q)": "1/2"}))
        assert r.passed

    def test_monotone_chain_passes(self):
        r = check_i(make(PQ, {"(p & q)": "1/4", "p": "1/2"}))
        assert r.passed


class TestIE:
    def test_singleton_family_matches_i(self, linda_assessment):
        # a one-statement family (psi, phi) is I's reversed entailment (phi, psi)
        singletons = [
            v.formulas for v in check_ie(linda_assessment).violations if len(v.formulas) == 2
        ]
        reversed_entailments = [v.formulas for v in check_i(linda_assessment).violations]
        assert reversed_entailments
        assert sorted((phi, psi) for psi, phi in singletons) == sorted(reversed_entailments)

    def test_additive_assessment_passes(self):
        # pi from the uniform distribution over the four valuations
        table = {}
        for bits, f in full_closure_classes(PQ):
            table[f] = F(bin(bits).count("1"), 4)
        a = Assessment(PQ, table)
        assert check_ie(a).passed

    def test_two_set_violation(self):
        a = make(
            PQ,
            {"(p | q)": "1/2", "p": "1/2", "q": "1/2", "(p & q)": "0"},
        )
        r = check_ie(a)
        assert not r.passed
        assert ("(p | q)", "p", "q") in {v.formulas for v in r.violations}

    def test_missing_conjunction_reported_untestable(self):
        a = make(PQ, {"(p | q)": "1/2", "p": "1/2", "q": "1/2"})
        r = check_ie(a)
        assert r.untestable
        assert any("(p & q)" in u or "p & q" in u for u in r.untestable)


class TestA:
    def test_complementary_pair(self):
        a = make(PQ, {"p": "1/3", "!p": "2/3", "(p | !p)": "1"})
        assert check_a(a).passed

    def test_non_additive_complements(self):
        a = make(PQ, {"p": "1/2", "!p": "1/4", "(p | !p)": "1"})
        r = check_a(a)
        assert not r.passed
        assert r.violations[0].lhs == F(3, 4)
        assert r.violations[0].rhs == 1

    def test_false_pairs_pass_given_e(self):
        a = make(PQ, {"p": "1/2", "(p | F)": "1/2"})
        assert check_a(a).passed
        assert check_e(a).passed

    def test_missing_disjunction_untestable(self):
        a = make(PQ, {"(p & q)": "1/4", "(!p & !q)": "1/4"})
        r = check_a(a)
        assert r.untestable


class TestSI:
    @pytest.fixture(scope="class")
    def voting_bits(self, voting):
        return voting.assessment, voting.theory

    def test_voting_violation(self, voting):
        r = check_s_i(voting.assessment, voting.theory)
        assert not r.passed
        texts = {v.formulas for v in r.violations}
        assert ("(r & p)", "(b & p)") in texts
        assert ("(r & p)", "F") in texts

    def test_subtheory_passes(self, voting):
        sub = Theory.from_texts(voting.language, ["(r <-> !b)"])
        assert check_s_i(voting.assessment, sub).passed

    def test_tautological_theory_matches_check_i(self, linda_assessment):
        t = tautological_theory(linda_assessment.language)
        r_si = check_s_i(linda_assessment, t)
        r_i = check_i(linda_assessment)
        assert r_si.passed == r_i.passed
        assert [v.formulas for v in r_si.violations] == [
            v.formulas for v in r_i.violations
        ]


class TestHierarchy:
    """A => IE => I => E on a universe with one representative per
    equivalence class (the chain needs the closure; see the additivity
    argument in the module docstrings)."""

    CLASSES = full_closure_classes(PQ)

    @given(st.lists(st.fractions(0, 1), min_size=16, max_size=16))
    @settings(max_examples=120, deadline=None)
    def test_chain_on_random_assessments(self, values):
        table = {}
        for (bits, f), v in zip(self.CLASSES, values):
            if bits == 0:
                v = F(0)
            elif bits == PQ.full_mask:
                v = F(1)
            table[f] = v
        a = Assessment(PQ, table)
        ok = {
            "a": check_a(a).passed,
            "ie": check_ie(a).passed,
            "i": check_i(a).passed,
            "e": check_e(a).passed,
        }
        if ok["a"]:
            assert ok["ie"]
        if ok["ie"]:
            assert ok["i"]
        if ok["i"]:
            assert ok["e"]

    def test_measure_induced_passes_everything(self):
        rng = random.Random(3)
        for _ in range(20):
            weights = [F(rng.randint(0, 6)) for _ in range(4)]
            if sum(weights) == 0:
                weights[0] = F(1)
            total = sum(weights)
            table = {
                f: sum(weights[i] for i in range(4) if (bits >> i) & 1) / total
                for bits, f in self.CLASSES
            }
            a = Assessment(PQ, table)
            assert check_a(a).passed
            assert check_ie(a).passed
            assert check_i(a).passed
            assert check_e(a).passed

    def test_capacity_induced_passes_i(self):
        rng = random.Random(11)
        for _ in range(20):
            a = random_monotone_assessment(rng, PQ, self.CLASSES)
            assert check_nt(a).passed
            assert check_e(a).passed
            assert check_i(a).passed

    def test_chain_survives_equivalent_duplicates(self):
        # an equivalence violation must surface through the whole chain,
        # not hide behind member lookup: the singleton family under !!p
        # is p itself, valued 9/10
        a = make(PQ, {"p": "9/10", "!!p": "1/10"})
        assert not check_e(a).passed
        assert not check_i(a).passed
        assert not check_ie(a).passed
