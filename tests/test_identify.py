import random
from fractions import Fraction

import pytest

from credence.assessment import Assessment, check_i, check_s_i
from credence.identify import (
    MAX_TRANSVERSALS,
    IdentifyError,
    largest_subtheory,
    subtheory_via_certainty,
    understood_implications,
)
from credence.logic import Language, Theory

from helpers import (
    disjoint_gap_tables,
    full_closure_classes,
    largest_subtheory_oracle,
    random_monotone_assessment,
)

F = Fraction
PQ = Language(["p", "q"])
# a and b in order, and the conjunction abcd valued above e
ABOVE_FOUR = {"a": "3/10", "b": "2/5", "(((a & b) & c) & d)": "3/10", "e": "1/10"}


def make(lang, table):
    return Assessment(lang, {lang.parse(t): F(v) for t, v in table.items()})


class TestUnderstoodImplications:
    def test_linda_flags_exactly_the_conjunction_fallacy(self, linda):
        verdicts = understood_implications(linda.assessment)
        bad = [(v.antecedent, v.consequent) for v in verdicts if not v.understood]
        assert bad == [("(t & f)", "t")]
        margins = {
            (v.antecedent, v.consequent): v.margin for v in verdicts
        }
        assert margins[("(t & f)", "t")] == F(-1, 4)
        assert margins[("(t & f)", "f")] == F(1, 4)

    def test_false_antecedent_always_understood(self, linda):
        verdicts = understood_implications(linda.assessment)
        from_false = [v for v in verdicts if v.antecedent == "F"]
        assert from_false and all(v.understood for v in from_false)

    def test_requires_normalization(self):
        a = make(PQ, {"F": "1/10", "p": "1/2"})
        with pytest.raises(IdentifyError):
            understood_implications(a)

    def test_agrees_with_check_i(self):
        rng = random.Random(13)
        for _ in range(15):
            a = random_monotone_assessment(rng, PQ)
            verdicts = understood_implications(a)
            assert all(v.understood for v in verdicts) == check_i(a).passed

    def test_misunderstanding_shows_up_in_both_reports(self, linda):
        verdicts = understood_implications(linda.assessment)
        assert any(not v.understood for v in verdicts)
        assert not check_i(linda.assessment).passed


class TestLargestSubtheory:
    def test_voting_recovers_the_understood_rule(self, voting):
        sub = largest_subtheory(voting.assessment, voting.theory)
        assert sub.unique
        assert sub.generator_texts == ("(r <-> !b)",)
        assert sub.valuations == voting.language.sat(voting.language.parse("(r <-> !b)"))
        assert sub.verification.passed
        assert check_s_i(voting.assessment, sub.theory).passed

    def test_fully_respected_theory_is_returned_whole(self, voting):
        lang = voting.language
        table = {
            "T": "1", "F": "0",
            "r": "3/5", "b": "2/5", "!r": "2/5", "!b": "3/5",
            "p": "1/5", "(r & p)": "0", "(b & p)": "1/5",
            "(r <-> !b)": "1", "(p -> b)": "1",
        }
        a = make(lang, table)
        assert check_i(a).passed
        assert check_s_i(a, voting.theory).passed
        sub = largest_subtheory(a, voting.theory)
        assert sub.unique
        assert sub.valuations == voting.theory.valuations
        assert set(sub.generator_texts) == {"(r <-> !b)", "(p -> b)"}

    def test_nothing_understood_gives_tautological_theory(self):
        a = make(
            PQ,
            {"p": "1/2", "q": "1/2", "(p & q)": "0", "(p | q)": "1/2"},
        )
        assert check_i(a).passed
        theory = Theory(PQ, [PQ.parse("p")])
        sub = largest_subtheory(a, theory)
        assert sub.unique
        assert sub.valuations == PQ.full_mask
        assert sub.generator_texts == ()

    def test_requires_axiom_i(self, linda):
        t = Theory(linda.language, [linda.language.parse("f")])
        with pytest.raises(IdentifyError):
            largest_subtheory(linda.assessment, t)

    def test_competing_maximal_candidates_are_surfaced(self):
        # pi strictly drops from the disjunction to the conjunction, and the
        # theory pins the two apart: two incomparable minimal passing sets
        a = make(
            PQ,
            {"(p & q)": "1/4", "(p | q)": "3/4"},
        )
        theory = Theory.from_texts(PQ, ["((p & q) | (!p & !q))"])
        sub = largest_subtheory(a, theory)
        assert not sub.unique
        assert len(sub.candidates) == 2

    def test_smallest_minimal_passing_set_is_chosen(self):
        # residual gaps {v0, v3} and {v1, v3} have the minimal transversals
        # {v3} and {v0, v1}: fewer valuations first, even though the pair
        # is the smaller bitmask
        lang = Language(["p", "q", "r"])
        a = Assessment(lang, {lang.formula_from_valuations(m): F(1, 2) for m in (0b1001, 0b1010)})
        theory = Theory.from_texts(lang, ["r"])
        sub = largest_subtheory(a, theory)
        assert not sub.unique
        assert sub.valuations == theory.valuations | 0b1000
        assert len(sub.candidates) == 2
        assert sub.diagnostics["residual_gaps"] == 2
        expected = largest_subtheory_oracle(a, theory)
        assert (sub.generator_texts, sub.candidates) == (
            expected.generator_texts,
            expected.candidates,
        )

    def test_five_atoms_recover_the_understood_rule(self):
        # abcd is valued above e, so the rule abcd -> e is not understood;
        # its one excluded valuation is the single residual gap
        lang = Language(list("abcde"))
        theory = Theory.from_texts(lang, ["(a -> b)", "((((a & b) & c) & d) -> e)"])
        a = make(lang, ABOVE_FOUR)
        sub = largest_subtheory(a, theory)
        assert sub.unique and sub.verification.passed
        assert sub.generator_texts == ("(a -> b)",)
        assert sub.valuations == lang.sat(lang.parse("(a -> b)"))
        assert sub.diagnostics["residual_gaps"] == 1
        expected = largest_subtheory_oracle(a, theory)
        assert (sub.valuations, sub.candidates) == (expected.valuations, expected.candidates)

    def test_six_atoms_surface_both_candidates(self):
        # the rule abcd -> e now excludes two valuations (f and !f), and
        # restoring either one breaks the reversal: two minimal passing sets
        lang = Language(list("abcdef"))
        theory = Theory.from_texts(lang, ["((a & f) -> b)", "((((a & b) & c) & d) -> e)"])
        a = make(lang, ABOVE_FOUR)
        sub = largest_subtheory(a, theory)
        assert not sub.unique and sub.verification.passed
        assert len(sub.candidates) == 2
        assert sub.diagnostics["minimal_passing_sets"] == 2
        expected = largest_subtheory_oracle(a, theory)
        assert (sub.valuations, sub.generator_texts, sub.candidates) == (
            expected.valuations,
            expected.generator_texts,
            expected.candidates,
        )

    def test_transversal_cap_names_the_count(self):
        lang = Language(list("abcde"))
        pi, gens = disjoint_gap_tables(lang, 10)
        sub = largest_subtheory(make(lang, pi), Theory.from_texts(lang, gens))
        assert len(sub.candidates) == MAX_TRANSVERSALS == 2**10
        pi, gens = disjoint_gap_tables(lang, 12)
        with pytest.raises(IdentifyError, match="2048 minimal transversals after 11 of 12"):
            largest_subtheory(make(lang, pi), Theory.from_texts(lang, gens))

    def test_shrinking_theory_never_enlarges_the_answer(self, voting):
        sub_full = largest_subtheory(voting.assessment, voting.theory)
        smaller = Theory.from_texts(voting.language, ["(r <-> !b)"])
        sub_small = largest_subtheory(voting.assessment, smaller)
        assert sub_small.valuations | sub_full.valuations == sub_small.valuations
        rng = random.Random(19)
        for _ in range(10):
            a = random_monotone_assessment(rng, PQ)
            big = Theory.from_texts(PQ, ["p", "q"])
            small = Theory.from_texts(PQ, ["p"])
            s_big = largest_subtheory(a, big)
            s_small = largest_subtheory(a, small)
            if s_big.unique and s_small.unique:
                assert s_small.valuations | s_big.valuations == s_small.valuations


class TestSubtheoryViaCertainty:
    def test_voting_certainty_route_agrees(self, voting):
        by_value = subtheory_via_certainty(voting.assessment, voting.theory)
        by_search = largest_subtheory(voting.assessment, voting.theory)
        assert by_value.valuations == by_search.valuations
        assert by_value.generator_texts == ("(r <-> !b)",)
        assert by_value.verification.passed

    def test_all_generators_certain_returns_whole_theory(self, voting):
        lang = voting.language
        a = make(
            lang,
            {
                "r": "0", "b": "1", "!r": "1", "!b": "0",
                "p": "1/5", "(r & p)": "0", "(b & p)": "1/5",
                "(r <-> !b)": "1", "(p -> b)": "1",
            },
        )
        sub = subtheory_via_certainty(a, voting.theory)
        assert sub.valuations == voting.theory.valuations

    def test_certainty_refused_with_ie_diagnostic(self, certainty):
        with pytest.raises(IdentifyError) as e:
            subtheory_via_certainty(certainty.assessment, certainty.theory)
        assert e.value.report is not None
        assert e.value.report.axiom == "IE"
        assert not e.value.report.passed

    def test_agreement_under_ie_exhaustive_small(self):
        # cross-validate the two routes on measure-induced assessments,
        # where IE holds, over several theories
        rng = random.Random(23)
        classes = full_closure_classes(PQ)
        for _ in range(15):
            weights = [F(rng.randint(0, 5)) for _ in range(4)]
            if sum(weights) == 0:
                weights[0] = F(1)
            total = sum(weights)
            table = {
                f: sum(weights[i] for i in range(4) if (bits >> i) & 1) / total
                for bits, f in classes
            }
            a = Assessment(PQ, table)
            for gens in (["p"], ["(p | q)"], ["p", "q"]):
                try:
                    theory = Theory.from_texts(PQ, gens)
                except Exception:
                    continue
                fast = subtheory_via_certainty(a, theory)
                slow = largest_subtheory(a, theory)
                if slow.unique:
                    assert fast.valuations == slow.valuations
