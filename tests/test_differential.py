"""Differential tests of the indexed fast paths against the pair-loop and
subset-sum oracles in ``helpers``."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credence.assessment import Assessment, check_i, check_nt, check_s_i
from credence.identify import IdentifyError, largest_subtheory, understood_implications
from credence.logic import TRUE, And, Language, Theory
from credence.model import SubjectiveModel, inverse_mobius, mobius

from helpers import (
    check_i_oracle,
    check_s_i_oracle,
    full_closure_classes,
    inverse_mobius_oracle,
    passes_s_i_oracle,
    truth_table_implies,
)

F = Fraction
GRID = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
LANGUAGES = {n: Language(["p", "q", "r"][:n]) for n in (2, 3)}
CLASSES = {n: full_closure_classes(lang) for n, lang in LANGUAGES.items()}


@st.composite
def assessments_and_masks(draw):
    """A random assessment on 2-3 atoms and a nonempty valuation mask.

    Statements are drawn from one formula per equivalence class, some
    restated as ``(f & T)`` so that equivalent statements meet.  Values are
    either off a grid (axiom I mostly fails) or induced by random
    valuation weights (axiom I holds, so the sub-theory search runs)."""
    n = draw(st.sampled_from([2, 3]))
    lang = LANGUAGES[n]
    classes = CLASSES[n]
    picks = draw(st.lists(st.integers(0, len(classes) - 1), min_size=1, max_size=8))
    formulas = []
    for i in picks:
        bits, f = classes[i]
        if f in formulas or draw(st.booleans()):
            f = And(f, TRUE)
        if f not in formulas:
            formulas.append(f)
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(0, 3), min_size=lang.n_valuations,
                                max_size=lang.n_valuations))
        if not any(weights):
            weights[0] = 1
        total = sum(weights)
        pi = {
            f: F(sum(w for v, w in enumerate(weights) if (lang.sat(f) >> v) & 1), total)
            for f in formulas
        }
    else:
        pi = {f: draw(st.sampled_from(GRID)) for f in formulas}
    mask = draw(st.integers(1, lang.full_mask))
    return Assessment(lang, pi), mask


def dicts(violations):
    return [v.to_dict() for v in violations]


@given(assessments_and_masks())
@settings(max_examples=150, deadline=None)
def test_reversals_match_the_pair_loops(case):
    a, mask = case
    lang = a.language
    theory = Theory(lang, [lang.formula_from_valuations(mask)])
    assert theory.valuations == mask

    i_report = check_i(a)
    assert dicts(i_report.violations) == dicts(check_i_oracle(a))
    s_i_report = check_s_i(a, theory)
    assert dicts(s_i_report.violations) == dicts(check_s_i_oracle(a, theory))
    assert s_i_report.passed == passes_s_i_oracle(a, mask)

    if check_nt(a).passed:
        fs = a.sorted_formulas()
        verdicts = understood_implications(a)
        assert [(v.antecedent, v.consequent, v.margin) for v in verdicts] == [
            (a.text(f), a.text(g), a.value(g) - a.value(f))
            for f in fs
            for g in fs
            if truth_table_implies(lang, f, g)
        ]

    if not i_report.passed:
        with pytest.raises(IdentifyError):
            largest_subtheory(a, theory)
        return
    sub = largest_subtheory(a, theory)
    free = [v for v in range(lang.n_valuations) if not (mask >> v) & 1]
    passing = []
    for r in range(len(free) + 1):
        for picked in itertools.combinations(free, r):
            v = mask | sum(1 << b for b in picked)
            if passes_s_i_oracle(a, v):
                passing.append(v)
    assert sub.diagnostics["passing_valuation_sets"] == len(passing)
    assert sub.valuations in passing
    assert sub.verification.passed


@given(st.integers(1, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_inverse_mobius_is_the_subset_sum_and_undoes_mobius(n, data):
    states = [f"s{i}" for i in range(n)]
    events = [
        frozenset(c) for r in range(1, n + 1) for c in itertools.combinations(states, r)
    ]
    masses = {ev: data.draw(st.sampled_from([F(-1, 2), F(0), F(1, 3), F(1)])) for ev in events}
    masses[frozenset(states)] += 1 - sum(masses.values())
    lam = inverse_mobius(masses, states)
    assert lam == inverse_mobius_oracle(masses, states)
    model = SubjectiveModel(Language([]), states, {}, lam=lam)
    assert mobius(model) == masses
