"""Differential tests of the indexed fast paths against the pair-loop and
subset-sum oracles in ``helpers``, of the affine rationalizability LP
against dominance in the materialized maximal model, and of the single
simplex tableau against the simplex and game solver it replaced."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from credence._simplex import maximize, solve_matrix_game
from credence.assessment import Assessment, check_i, check_ie, check_nt, check_s_i
from credence.games import (
    Strategy,
    pointwise_undominated,
    rationalizable,
    strategy_events,
    t_circ,
    transported_vector,
)
from credence.identify import IdentifyError, largest_subtheory, understood_implications
from credence.logic import TRUE, And, Atom, Language, Theory
from credence.model import SubjectiveModel, choquet, inverse_mobius, mobius

from helpers import (
    check_i_oracle,
    check_ie_oracle,
    check_s_i_oracle,
    full_closure_classes,
    inverse_mobius_oracle,
    layerings,
    maximal_model,
    maximize_oracle,
    passes_s_i_oracle,
    random_capacity,
    random_fraction,
    solve_matrix_game_oracle,
    transported_vector_oracle,
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


# -- inclusion/exclusion: one scan per family against one per consequent ----

# mixed denominators, so the common denominator is not any one value's
IE_VALUES = [F(0), F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(5, 6), F(1)]


@st.composite
def ie_universes(draw):
    """A random assessment on 2-3 atoms with values drawn from
    ``IE_VALUES`` (so not monotone) and an ``n_max`` of 1 to 4.  Picked classes are sometimes
    closed under pairwise conjunction, so that families are testable;
    otherwise conjunctions are often missing and families untestable."""
    n = draw(st.sampled_from([2, 3]))
    lang = LANGUAGES[n]
    classes = CLASSES[n]
    picks = draw(st.lists(st.integers(0, len(classes) - 1), min_size=1, max_size=7))
    if draw(st.booleans()):
        picks += [a & b for a, b in itertools.combinations(picks, 2)][:5]
    formulas = []
    for i in picks:
        _, f = classes[i]
        if f in formulas or draw(st.booleans()):
            f = And(f, TRUE)
        if f not in formulas:
            formulas.append(f)
    pi = {f: draw(st.sampled_from(IE_VALUES)) for f in formulas}
    return Assessment(lang, pi), draw(st.integers(1, 4))


@given(ie_universes())
@settings(max_examples=200, deadline=None)
def test_check_ie_matches_the_per_consequent_loop(case):
    a, n_max = case
    assert check_ie(a, n_max).to_dict() == check_ie_oracle(a, n_max).to_dict()


def test_check_ie_matches_the_oracle_on_64_classes():
    """64 of the 256 classes of 3 atoms, values at random: the universe
    lacks many conjunctions, so violations and untestables both run long."""
    rng = random.Random(64)
    lang = LANGUAGES[3]
    picked = rng.sample(CLASSES[3], 64)
    a = Assessment(lang, {f: random_fraction(rng, 12) for _, f in picked})
    report = check_ie(a)
    assert report.violations and report.untestable
    assert report.to_dict() == check_ie_oracle(a).to_dict()


# -- rationalizability: affine LP against the materialized maximal model ----

# the atom sets of the fixture sessions, one language per size
FIXTURE_ATOMS = (["p"], ["f", "t"], ["r", "b", "p"])
CLASSES_BY_ATOMS = {len(a): full_closure_classes(Language(a)) for a in FIXTURE_ATOMS}
# the largest k the oracle is run at, strict and weak: the weak oracle's
# LP has a row per maximal-model state
ORACLE_COORDINATES = {False: 6, True: 5}


def sound_model(lang: Language, lam=None) -> SubjectiveModel:
    """States are the atom valuations and truth is classical."""
    states = [f"v{i}" for i in range(lang.n_valuations)]
    truth = {
        Atom(a): frozenset(s for i, s in enumerate(states) if lang.valuation_atoms(i)[a])
        for a in lang.atoms
    }
    return SubjectiveModel(lang, states, truth, lam=lam)


def witness_confirms(result, pool, model) -> bool:
    """Whether the reported witness appraisal, rebuilt from its events,
    gives the choice the largest Choquet value in the pool."""
    witness = SubjectiveModel(
        model.language, model.states, dict(model.truth), lam=dict(result.witness_events)
    )
    values = {s.name: choquet(witness, t_circ(model, s)) for s in pool}
    return values[result.choice] == max(values.values())


@st.composite
def pools(draw):
    """A pool of 2-5 strategies on a fixture language, a chosen member and
    a sound model, with or without an appraisal of its own.  A pool may
    carry the choice plus a bonus, on T (strictly dominating) or on a
    statement (weakly dominating), so dominated choices come up often."""
    atoms = draw(st.sampled_from(FIXTURE_ATOMS))
    lang = Language(atoms)
    classes = [f for bits, f in CLASSES_BY_ATOMS[len(atoms)] if bits not in (0, lang.full_mask)]
    payoff = st.sampled_from([F(1, 3), F(1, 2), F(1), F(3, 2), F(2)])
    pool = []
    for _ in range(draw(st.integers(2, 5))):
        support = draw(st.lists(st.sampled_from(classes), min_size=1, max_size=2, unique=True))
        pool.append({f: draw(payoff) for f in support})
    choice = draw(st.integers(0, len(pool) - 1))
    bonus = draw(st.sampled_from([None, TRUE] + classes))
    if bonus is not None:
        better = dict(pool[choice])
        better[bonus] = better.get(bonus, F(0)) + draw(payoff)
        pool.append(better)
    strategies = [Strategy(p, name=f"s{i + 1}") for i, p in enumerate(pool)]
    lam = None
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2**16))
        lam = random_capacity(random.Random(seed), [f"v{i}" for i in range(lang.n_valuations)])
    return strategies, strategies[choice], sound_model(lang, lam)


@given(pools(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_affine_lp_matches_the_maximal_model(case, weak):
    pool, chosen, model = case
    layers = layerings(model, pool)
    events = strategy_events(model, layers)
    assume(len(events) <= ORACLE_COORDINATES[weak])
    mm = maximal_model(model, events)
    ys = [transported_vector_oracle(mm, model, s) for s in pool]
    for s_layers, y in zip(layers, ys):
        constant, coefficients = transported_vector(model, events, s_layers)
        for i, state in enumerate(mm.states):
            bits = sum(c for j, c in enumerate(coefficients) if (i >> j) & 1)
            assert constant + bits == y[state]

    yx = ys[pool.index(chosen)]
    oracle = pointwise_undominated(yx, ys, weak=weak)
    result = rationalizable(chosen, pool, model, weak=weak)
    assert result.rationalizable == (not oracle.dominated)
    assert result.epsilon == oracle.epsilon
    assert result.coordinates == events
    if not result.rationalizable:
        mix = [w for _, w in result.dominating_mixture]
        assert sum(mix) == 1 and min(mix) >= 0
        mixed = {s: sum(w * y[s] for w, y in zip(mix, ys)) for s in mm.states}
        if weak:
            assert all(mixed[s] >= yx[s] for s in mm.states)
            assert sum(mixed[s] - yx[s] for s in mm.states) == result.epsilon
        else:
            assert all(mixed[s] > yx[s] for s in mm.states)
    elif not weak:
        assert result.verified
        assert witness_confirms(result, pool, model)


def test_pool_above_sixteen_coordinates_is_decided_and_witnessed():
    # 2^17 and more maximal-model states: the affine LP needs none of them
    lang = Language(FIXTURE_ATOMS[2])
    classes = [f for bits, f in CLASSES_BY_ATOMS[3] if bits not in (0, lang.full_mask)]
    model = sound_model(lang)
    rng = random.Random(71)
    pool = [
        Strategy({f: F(rng.randint(1, 6), rng.randint(1, 3)) for f in rng.sample(classes, 3)},
                 name=f"s{i + 1}")
        for i in range(8)
    ]
    pool.append(Strategy({**pool[0].payoffs, TRUE: F(1, 4)}, name="s9"))
    assert len(strategy_events(model, layerings(model, pool))) > 16

    decided = [rationalizable(s, pool, model) for s in pool]
    assert not decided[0].rationalizable and decided[0].epsilon == F(1, 4)
    witnessed = [r for r in decided if r.rationalizable]
    assert witnessed
    for result in witnessed:
        assert result.verified and result.witness_source == "maximal-model prior"
        assert witness_confirms(result, pool, model)


ENTRY = st.fractions(F(-3), F(3), max_denominator=2)


@st.composite
def lps(draw):
    """A small LP with inequality rows (some with a negative right-hand
    side, so phase 1 runs), equality rows, often with a zero right-hand
    side (an artificial may end phase 1 basic at zero), and copies of
    equality rows, plain or scaled, which leave a redundant row basic on
    an artificial."""
    n = draw(st.integers(1, 4))
    row = st.lists(ENTRY, min_size=n, max_size=n)
    c = draw(row)
    a_ub = draw(st.lists(row, max_size=4))
    b_ub = draw(st.lists(ENTRY, min_size=len(a_ub), max_size=len(a_ub)))
    a_eq = draw(st.lists(row, max_size=3))
    rhs = st.one_of(st.just(F(0)), ENTRY)
    b_eq = draw(st.lists(rhs, min_size=len(a_eq), max_size=len(a_eq)))
    if a_eq:
        for i in draw(st.lists(st.integers(0, len(a_eq) - 1), max_size=2)):
            scale = draw(st.sampled_from([F(1), F(-1), F(2)]))
            a_eq.append([scale * v for v in a_eq[i]])
            b_eq.append(scale * b_eq[i])
    return c, a_ub, b_ub, a_eq, b_eq


@given(lps())
@settings(max_examples=400, deadline=None)
def test_maximize_matches_the_big_m_simplex(lp):
    got, want = maximize(*lp), maximize_oracle(*lp)
    assert (got.status, got.x, got.value) == (want.status, want.x, want.value)
    assert got.duals == want.duals


@st.composite
def game_matrices(draw):
    n = draw(st.integers(1, 5))
    return draw(st.lists(st.lists(ENTRY, min_size=n, max_size=n), min_size=1, max_size=5))


@given(game_matrices())
@settings(max_examples=200, deadline=None)
def test_matrix_game_matches_its_own_tableau(g):
    got, want = solve_matrix_game(g), solve_matrix_game_oracle(g)
    assert got.value == want.value
    assert got.row_mixture == want.row_mixture
    assert got.col_mixture == want.col_mixture
