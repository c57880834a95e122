"""Differential tests of the indexed fast paths against the pair-loop and
subset-sum oracles in ``helpers``, of the affine rationalizability LP
against dominance in the materialized maximal model, of the decision in
ints over the pool's one denominator against the ``Fraction`` decision
it replaced, of the single
integer simplex tableau against the big-M simplex and game solver and
the ``Fraction`` tableau it replaced, of the additive-sound build's
integer elimination against its ``Fraction`` row reduction, and of the
indexed model core and its builders against the frozenset model and
builders they replaced, of model file loading against the ``Fraction``
loader it replaced, of the CLI's JSON report writer against the json
module, of the axiom reports' violation rows against the ``Violation``
lists, dicts and JSON text they replaced, and of hash-consed formulas against the frozen-dataclass trees they
replaced, of the token-pattern parser against the parser on the
character-by-character tokenizer it replaced, and of the formula
renderer against the exact, greedy and minterm covers it replaced."""

import itertools
import json
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from credence import _simplex
from credence._simplex import maximize, pivot, solve_matrix_game
from credence.assessment import (
    Assessment,
    check_a,
    check_e,
    check_i,
    check_ie,
    check_nt,
    check_s_i,
)
from credence.cli import _json_text, _report_json, _report_lines
from credence.construct import (
    BuildError,
    build_additive_sound,
    build_belief_lift,
    build_canonical_sound,
    build_interval_additive,
    build_product_model,
)
from credence.files import FileFormatError, load_model, model_to_dict
from credence.games import (
    Strategy,
    pointwise_undominated,
    rationalizable,
    strategy_events,
    t_circ,
    transported_vector,
)
from credence.identify import IdentifyError, largest_subtheory, understood_implications
from credence.logic import (
    FALSE,
    TRUE,
    And,
    Atom,
    Language,
    Not,
    Or,
    ParseError,
    Theory,
    unparse,
)
from credence import model as model_module
from credence.model import (
    ModelError,
    SubjectiveModel,
    choquet,
    classify_lambda,
    classify_truth,
    inverse_mobius,
    mobius,
    represents,
)

from helpers import (
    LabelModel,
    by_labels,
    build_additive_sound_oracle,
    build_belief_lift_oracle,
    build_canonical_sound_oracle,
    build_interval_additive_oracle,
    build_product_oracle,
    check_a_oracle,
    check_e_oracle,
    check_i_oracle,
    check_json_oracle,
    check_nt_oracle,
    choquet_oracle,
    classify_lambda_oracle,
    classify_truth_oracle,
    event_labels,
    explicit_lambda,
    load_model_oracle,
    event_mask,
    from_labels,
    indexed,
    mobius_model_oracle,
    model_to_dict_oracle,
    represents_oracle,
    check_ie_oracle,
    check_s_i_oracle,
    exact_cover_oracle,
    formula_depth,
    formula_from_valuations_oracle,
    full_closure_classes,
    inverse_mobius_oracle,
    json_text_oracle,
    label_oracle,
    largest_subtheory_oracle,
    layerings,
    maximal_model,
    maximize_fraction_oracle,
    maximize_oracle,
    parse_oracle,
    passes_s_i_oracle,
    random_capacity,
    random_fraction,
    random_full_rank_assessment,
    random_and_closed_universe,
    random_monotone_assessment,
    rationalizable_oracle,
    report_lines_oracle,
    report_oracle,
    solve_matrix_game_oracle,
    transported_vector_oracle,
    truth_table_implies,
    valuation_atoms,
    violation_dict,
    as_tree,
    tree_parse,
    tree_sat,
    tree_unparse,
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
    return [violation_dict(v) for v in violations]


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

    assert_same_subtheory(a, theory)


def subtheory_fields(sub):
    return (
        sub.valuations,
        sub.unique,
        sub.generator_texts,
        sub.candidates,
        sub.verification.passed,
    )


def assert_same_subtheory(a, theory):
    """The minimal-transversal search and the superset enumeration give
    the same answer, or both refuse."""
    try:
        expected = largest_subtheory_oracle(a, theory)
    except IdentifyError:
        with pytest.raises(IdentifyError):
            largest_subtheory(a, theory)
        return
    sub = largest_subtheory(a, theory)
    assert subtheory_fields(sub) == subtheory_fields(expected)
    assert sub.verification.passed


SUBTHEORY_LANGUAGES = {n: Language(["p", "q", "r", "s"][:n]) for n in (2, 3, 4)}


@st.composite
def subtheory_cases(draw):
    """A random assessment on 2-4 atoms whose values are monotone in the
    valuation set (a measure, its square or a possibility measure, so
    axiom I holds), or off a grid, and a theory.  Theory valuation sets
    are small, leaving many free valuations and often several minimal
    passing sets; on 4 atoms at most 9 valuations are left free so the
    enumeration stays small."""
    n = draw(st.sampled_from([2, 3, 4]))
    lang = SUBTHEORY_LANGUAGES[n]
    nv = lang.n_valuations
    masks = draw(st.lists(st.integers(0, lang.full_mask), min_size=1, max_size=7, unique=True))
    weights = draw(st.lists(st.integers(0, 3), min_size=nv, max_size=nv))
    if not any(weights):
        weights[0] = 1
    kind = draw(st.sampled_from(["measure", "square", "possibility", "grid"]))

    def value(bits):
        inside = [w for v, w in enumerate(weights) if (bits >> v) & 1]
        if kind == "possibility":
            return F(max(inside, default=0), max(weights))
        m = F(sum(inside), sum(weights))
        if kind == "grid":
            return draw(st.sampled_from(GRID))
        return m * m if kind == "square" else m

    pi = {lang.formula_from_valuations(bits): value(bits) for bits in masks}
    if n == 4:
        free = draw(st.lists(st.integers(0, nv - 1), max_size=9, unique=True))
        base = lang.full_mask & ~sum(1 << v for v in free)
    else:
        picked = draw(st.lists(st.integers(0, nv - 1), min_size=1, max_size=3, unique=True))
        base = sum(1 << v for v in picked)
    return Assessment(lang, pi), Theory(lang, [lang.formula_from_valuations(base)])


@given(subtheory_cases())
@settings(max_examples=200, deadline=None)
def test_largest_subtheory_matches_the_superset_enumeration(case):
    assert_same_subtheory(*case)


@given(st.integers(1, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_inverse_mobius_is_the_subset_sum_and_undoes_mobius(n, data):
    states = [f"s{i}" for i in range(n)]
    events = [
        frozenset(c) for r in range(1, n + 1) for c in itertools.combinations(states, r)
    ]
    masses = {ev: data.draw(st.sampled_from([F(-1, 2), F(0), F(1, 3), F(1)])) for ev in events}
    masses[frozenset(states)] += 1 - sum(masses.values())
    model = from_labels(Language([]), states, {}, lam=inverse_mobius_oracle(masses, states))
    by_mask = {event_mask(model, ev): v for ev, v in masses.items()}
    lam = inverse_mobius(by_mask, n)
    assert lam == explicit_lambda(model)
    assert mobius(model) == by_mask


# -- inclusion/exclusion: one scan per family against one per consequent ----

# mixed denominators, so the common denominator is not any one value's
IE_VALUES = [F(0), F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(5, 6), F(1)]


@st.composite
def ie_universes(draw):
    """A random assessment on 2-3 atoms with values drawn from
    ``IE_VALUES`` (so not monotone).  Picked classes are sometimes
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
    return Assessment(lang, pi)


@given(ie_universes())
@settings(max_examples=200, deadline=None)
def test_check_ie_matches_the_per_consequent_loop(a):
    assert check_ie(a).to_dict() == check_ie_oracle(a, 3).to_dict()


def test_check_ie_matches_the_oracle_on_64_classes():
    """64 of the 256 classes of 3 atoms, values at random: the universe
    lacks many conjunctions, so from pairs on violations and untestables
    both run long (4,990 violations and 55,478 untestables)."""
    rng = random.Random(64)
    lang = LANGUAGES[3]
    picked = rng.sample(CLASSES[3], 64)
    a = Assessment(lang, {f: random_fraction(rng, 12) for _, f in picked})
    report = check_ie(a)
    assert report.violations and report.untestable
    oracle = check_ie_oracle(a, 3)
    # the fields compared directly: ``to_dict`` copies would double the memory
    assert report.violations == oracle.violations
    assert report.untestable == oracle.untestable
    assert report.meta == oracle.meta


# -- axiom reports: violation rows against Violation lists -----------------


def report_cases(rng: random.Random):
    """An assessment on 2-3 atoms and a theory, from one of the random
    assessments in ``helpers``: a capacity on a sample of the classes (NT,
    E and I hold), an intersection-closed universe or a full-rank one with
    values at random, or a sample of the classes with values at random,
    some restated as ``(f & T)``, and T and F sometimes valued off."""
    lang = LANGUAGES[rng.choice([2, 3])]
    classes = CLASSES[len(lang.atoms)]
    kind = rng.choice(["monotone", "and-closed", "full-rank", "random"])
    if kind == "monotone":
        a = random_monotone_assessment(rng, lang, rng.sample(classes, rng.randint(1, 8)))
    elif kind == "full-rank":
        a = random_full_rank_assessment(rng, lang)
    else:
        if kind == "and-closed":
            picked = random_and_closed_universe(rng, lang, rng.randint(1, 4))
        else:
            picked = rng.sample(classes, rng.randint(1, 8))
        pi = {}
        for _, f in picked:
            if kind == "random" and (f in pi or rng.random() < 0.3):
                f = And(f, TRUE)
            pi[f] = random_fraction(rng, 6)
        if kind == "random" and rng.random() < 0.3:
            pi[TRUE] = random_fraction(rng, 3)
            pi[FALSE] = random_fraction(rng, 3)
        a = Assessment(lang, pi)
    theory = Theory(lang, [lang.formula_from_valuations(rng.randint(1, lang.full_mask))])
    return a, theory


def assert_reports_match(a: Assessment, theory: Theory) -> list:
    """Each checker's report against its oracle: its dict, its
    ``Violation``s, its text lines, and the ``check`` JSON of all six.
    Returns the reports."""
    reports = [check(a) for check in (check_nt, check_e, check_i, check_ie, check_a)]
    reports.append(check_s_i(a, theory))
    oracles = [
        check_nt_oracle(a),
        check_e_oracle(a),
        report_oracle("I", check_i_oracle(a)),
        check_ie_oracle(a, 3),
        check_a_oracle(a),
        report_oracle("S-I", check_s_i_oracle(a, theory),
                      meta={"theory": list(theory.generator_texts)}),
    ]
    for report, oracle in zip(reports, oracles):
        assert report.to_dict() == oracle.to_dict()
        assert report.passed == oracle.passed
        assert report.violations == oracle.violations
        assert _report_lines(report) == report_lines_oracle(oracle)
        if report.rows:
            assert report.violation(0) == oracle.violations[0]
    payload = {"command": "check", "reports": list(map(_report_json, reports))}
    assert _json_text(payload) == check_json_oracle(oracles)
    return reports


@given(st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_reports_match_the_violation_lists(seed):
    assert_reports_match(*report_cases(random.Random(seed)))


def test_report_cases_reach_every_kind_of_listing():
    """Over 60 seeded cases every checker both passes and fails, and
    sides that reduce to 0 and to 1 are written."""
    verdicts, sides = set(), set()
    for seed in range(60):
        for report in assert_reports_match(*report_cases(random.Random(seed))):
            verdicts.add((report.axiom, report.passed))
            sides.update(side for entry in report.entries() for side in entry[1:3])
    assert verdicts == {(axiom, passed) for axiom in ("NT", "E", "I", "IE", "A", "S-I")
                        for passed in (True, False)}
    assert {"0", "1"} <= sides


def test_statements_that_share_a_text_sort_as_the_oracle_does():
    """Given texts may repeat; rows then sort by their texts, ties by
    statement order, as the ``Violation`` lists sort stably."""
    lang = LANGUAGES[2]
    p, q = Atom("p"), Atom("q")
    pi = {p: F(1, 2), q: F(1, 3), And(p, q): F(3, 4), And(q, p): F(2, 3), Or(p, q): F(1, 4)}
    a = Assessment(lang, pi, texts={p: "x", q: "x", And(p, q): "y", And(q, p): "y"})
    assert len(set(a.texts)) < len(a.texts)
    reports = assert_reports_match(a, Theory(lang, [p]))
    ie = reports[3]
    assert ie.rows != sorted(ie.rows)  # the texts' order is not the statements'


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
        Atom(a): frozenset(s for i, s in enumerate(states) if valuation_atoms(lang, i)[a])
        for a in lang.atoms
    }
    return from_labels(lang, states, truth, lam=lam)


def witness_confirms(result, pool, model) -> bool:
    """Whether the reported witness appraisal, rebuilt from its events,
    gives the choice the largest Choquet value in the pool."""
    witness = SubjectiveModel(
        model.language, model.states, dict(model.truth), lam=dict(result.witness_events)
    )
    values = {s.name: choquet(witness, t_circ(model, s)) for s in pool}
    return values[result.choice] == max(values.values())


SHARED_PAYOFFS = st.sampled_from([F(1, 3), F(1, 2), F(1), F(3, 2), F(2)])
# denominators with no common factor, so the pool's one denominator is
# their product
UNRELATED_PAYOFFS = st.builds(
    F, st.integers(1, 60), st.sampled_from([1, 2, 3, 7, 11, 13, 97, 65521])
)


@st.composite
def pools(draw, payoff=SHARED_PAYOFFS):
    """A pool of 2-5 strategies on a fixture language, a chosen member and
    a sound model, with or without an appraisal of its own.  A pool may
    carry the choice plus a bonus, on T (strictly dominating) or on a
    statement (weakly dominating), so dominated choices come up often."""
    atoms = draw(st.sampled_from(FIXTURE_ATOMS))
    lang = Language(atoms)
    classes = [f for bits, f in CLASSES_BY_ATOMS[len(atoms)] if bits not in (0, lang.full_mask)]
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


@given(pools(UNRELATED_PAYOFFS), st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_int_decision_matches_the_fraction_decision(case, additive_only, weak):
    """Every mode, general or additive and strict or weak, reports what
    the decision on ``Fraction``s reports, to the last witness value."""
    pool, chosen, model = case
    got = rationalizable(chosen, pool, model, additive_only=additive_only, weak=weak)
    want = rationalizable_oracle(chosen, pool, model, additive_only=additive_only, weak=weak)
    assert got.to_dict() == want.to_dict()


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
# large prime denominators, so one LP mixes them with small ones and its
# common denominator is large
WIDE_ENTRY = st.builds(F, st.integers(-3 * 65521, 3 * 65521), st.sampled_from([7919, 65521]))
MIXED_ENTRY = st.one_of(ENTRY, WIDE_ENTRY)
# phase 1 ends at once with the artificial of the equality row basic at
# zero, and driving it out pivots on a negative entry
NEGATIVE_DRIVE_OUT = [
    ([1, 1], [[1, 1]], [2], [[-1, -1]], [0]),
    ([F(1, 7919), 1], [[1, F(1, 65521)]], [2], [[-F(1, 7919), -F(2, 65521)]], [0]),
]


@st.composite
def lps(draw):
    """A small LP with inequality rows (some with a negative right-hand
    side, so phase 1 runs), equality rows, often with a zero right-hand
    side (an artificial may end phase 1 basic at zero), and copies of
    equality rows, plain or scaled, which leave a redundant row basic on
    an artificial.  Entries are halves, or halves mixed with multiples
    of 1/7919 and 1/65521."""
    entry = draw(st.sampled_from([ENTRY, MIXED_ENTRY]))
    n = draw(st.integers(1, 4))
    row = st.lists(entry, min_size=n, max_size=n)
    c = draw(row)
    a_ub = draw(st.lists(row, max_size=4))
    b_ub = draw(st.lists(entry, min_size=len(a_ub), max_size=len(a_ub)))
    a_eq = draw(st.lists(row, max_size=3))
    rhs = st.one_of(st.just(F(0)), entry)
    b_eq = draw(st.lists(rhs, min_size=len(a_eq), max_size=len(a_eq)))
    if a_eq:
        for i in draw(st.lists(st.integers(0, len(a_eq) - 1), max_size=2)):
            scale = draw(st.sampled_from([F(1), F(-1), F(2)]))
            a_eq.append([scale * v for v in a_eq[i]])
            b_eq.append(scale * b_eq[i])
    return c, a_ub, b_ub, a_eq, b_eq


def assert_same_lp_result(got, want):
    assert (got.status, got.x, got.value) == (want.status, want.x, want.value)
    assert got.duals == want.duals


@given(lps())
@settings(max_examples=400, deadline=None)
def test_maximize_matches_the_big_m_simplex(lp):
    assert_same_lp_result(maximize(*lp), maximize_oracle(*lp))


@given(lps())
@settings(max_examples=400, deadline=None)
def test_maximize_matches_the_fraction_simplex(lp):
    assert_same_lp_result(maximize(*lp), maximize_fraction_oracle(*lp))


@pytest.mark.parametrize("lp", NEGATIVE_DRIVE_OUT)
def test_negative_drive_out_pivot_matches_both_oracles(lp, monkeypatch):
    pivots = []

    def recording_pivot(tab, d, r, c):
        pivots.append(tab[r][c])
        return pivot(tab, d, r, c)

    monkeypatch.setattr(_simplex, "pivot", recording_pivot)
    got = maximize(*lp)
    assert pivots and pivots[0] < 0
    assert got.status == "optimal"
    assert_same_lp_result(got, maximize_oracle(*lp))
    assert_same_lp_result(got, maximize_fraction_oracle(*lp))


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


def test_20_by_128_game_matches_the_fraction_simplex(monkeypatch):
    rng = random.Random(20128)
    g = [[F(rng.randint(-6, 6), 2) for _ in range(128)] for _ in range(20)]
    got = solve_matrix_game(g)
    monkeypatch.setattr(_simplex, "maximize", maximize_fraction_oracle)
    want = solve_matrix_game(g)
    assert got.value == want.value
    assert got.row_mixture == want.row_mixture
    assert got.col_mixture == want.col_mixture


VALUATION_LANGUAGES = {n: Language(["p", "q", "r"][:n]) for n in (1, 2, 3)}
VALUATION_CLASSES = {n: full_closure_classes(lang) for n, lang in VALUATION_LANGUAGES.items()}


@st.composite
def valuation_systems(draw):
    """An assessment on 1-3 atoms whose values are either the sums of
    random valuation masses over denominators up to 65521 (a consistent
    system, unique or under-determined) or drawn freely, small or with
    large denominators (mostly inconsistent)."""
    n = draw(st.sampled_from([1, 2, 3]))
    lang = VALUATION_LANGUAGES[n]
    classes = VALUATION_CLASSES[n]
    picks = draw(st.lists(st.integers(0, len(classes) - 1), unique=True, min_size=1,
                          max_size=lang.n_valuations + 2))
    formulas = [classes[i][1] for i in picks]
    if draw(st.booleans()):
        total = draw(st.sampled_from([1, 6, 7919, 65521]))
        cuts = sorted(draw(st.lists(st.integers(0, total), min_size=lang.n_valuations - 1,
                                    max_size=lang.n_valuations - 1)))
        masses = [F(b - a, total) for a, b in zip([0] + cuts, cuts + [total])]
        pi = {f: sum((m for v, m in enumerate(masses) if lang.sat(f) >> v & 1), F(0))
              for f in formulas}
    else:
        value = st.one_of(st.sampled_from(GRID), st.builds(F, st.integers(0, 7919), st.just(7919)))
        pi = {f: draw(value) for f in formulas}
    return Assessment(lang, pi)


# names that prefix one another, so the order of the listed minterms is tested
PREFIX_ATOMS = ["a", "a1", "a_", "ab", "b"]
LISTING_LANGUAGES = {n: Language(PREFIX_ATOMS[:n]) for n in (2, 3, 4, 5)}


@st.composite
def sparse_valuation_systems(draw):
    """A consistent assessment on 2-5 atoms of 1-4 statements, each true
    on a drawn valuation set and valued by drawn valuation masses: mostly
    under-determined, at 4 and 5 atoms often with more than 10
    unresolved valuations."""
    lang = LISTING_LANGUAGES[draw(st.sampled_from([2, 3, 4, 5]))]
    nv = lang.n_valuations
    sets = draw(st.lists(st.integers(0, lang.full_mask), min_size=1, max_size=4))
    weights = draw(st.lists(st.integers(0, 5), min_size=nv, max_size=nv))
    weights[0] += not any(weights)
    total = sum(weights)
    return Assessment(lang, {
        lang.formula_from_valuations(bits):
            F(sum(w for v, w in enumerate(weights) if bits >> v & 1), total)
        for bits in sets
    })


@given(st.one_of(valuation_systems(), sparse_valuation_systems()))
@settings(max_examples=500, deadline=None)
def test_valuation_solve_matches_the_fraction_row_reduction(a):
    assert built(build_additive_sound, a) == built(build_additive_sound_oracle, a)


FORCED_NEGATIVE = "no additive measure reproduces the assessment: forced negative mass on "


def test_full_rank_universes_match_the_oracle():
    """Full-rank universes valued freely, on 1-3 atoms: the unique
    solution is the build's model, or its forced negative masses are
    refused as axiom A, in the oracle's words."""
    refusals = []
    for seed in range(300):
        rng = random.Random(seed)
        a = random_full_rank_assessment(rng, VALUATION_LANGUAGES[rng.choice([1, 2, 3])])
        got = built(build_additive_sound, a)
        assert got == built(build_additive_sound_oracle, a), seed
        if got[0] == "BuildError":
            refusals.append(got)
    negative = [r for r in refusals if r[1].startswith(FORCED_NEGATIVE)]
    assert negative and all(axiom == "A" for _, _, axiom in negative)
    assert len(refusals) < 300  # some universes are built


def test_forced_negative_mass_is_refused_as_the_oracle_refuses():
    lang = VALUATION_LANGUAGES[2]
    a = Assessment(lang, {lang.parse("p"): F(1, 4), lang.parse("q"): F(1, 4),
                          lang.parse("(p & q)"): F(1, 2)})
    got = built(build_additive_sound, a)
    assert got == built(build_additive_sound_oracle, a)
    assert got == ("BuildError", FORCED_NEGATIVE + "(p & !q), (!p & q)", "A")


@pytest.mark.parametrize("seed", range(3))
def test_11_atom_universes_match_the_oracle(seed):
    """Atoms a0-a10, so a1 prefixes a10; a few literal clauses, one
    minterm, and T, valued by seeded valuation weights."""
    rng = random.Random(seed)
    lang = Language([f"a{j}" for j in range(11)])
    weights = [rng.randint(0, 3) for _ in range(lang.n_valuations)]
    weights[0] += 1
    texts = ["T", unparse(lang.minterm(rng.randrange(lang.n_valuations)))]
    for _ in range(3):
        x, y = rng.sample(lang.atoms, 2)
        texts.append(f"({x} {rng.choice('&|')} {rng.choice(['', '!'])}{y})")
    pi = {}
    for t in texts:
        f = lang.parse(t)
        pi[f] = F(sum(w for v, w in enumerate(weights) if lang.sat(f) >> v & 1), sum(weights))
    a = Assessment(lang, pi)
    got = built(build_additive_sound, a)
    assert got == built(build_additive_sound_oracle, a)
    assert got[1].startswith("universe under-determined: ")


# -- the indexed model core against the frozenset model -------------------

# labels whose text order differs from any drawn state order
STATE_LABELS = ["b", "a10", "a2", "w", "A", "z3", "m1"]
MODEL_LANGUAGES = [Language([]), Language(["p"]), Language(["p", "q"])]
MODEL_VALUES = [F(0), F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1)]


def model_formulas(lang: Language) -> list:
    """Atoms, their negations and pairwise connectives, plus restatements
    equivalent to an atom under other texts."""
    atoms = [Atom(a) for a in lang.atoms]
    out = list(atoms) + [Not(a) for a in atoms]
    for a, b in itertools.combinations(atoms, 2):
        out += [And(a, b), Or(a, b), And(a, Not(b))]
    for a in atoms:
        out += [And(a, TRUE), Not(Not(a))]
    return out


@st.composite
def label_models(draw):
    """A frozenset model on 1-6 states: truth either grounded in a state
    valuation (sometimes with one compound off it) or arbitrary; the
    appraisal a full random capacity, a partial one, masses, or masses
    with explicit values that agree; exact lookup on or off.  Now and
    then an entry is invalid, so that both models must refuse alike.
    Returns the model's arguments."""
    n = draw(st.integers(1, 6))
    states = draw(st.permutations(STATE_LABELS))[:n]
    lang = draw(st.sampled_from(MODEL_LANGUAGES))
    pool = model_formulas(lang)
    picked = draw(st.lists(st.sampled_from(pool), unique=True, max_size=6)) if pool else []
    if pool and draw(st.booleans()):
        valuation = {s: draw(st.integers(0, lang.n_valuations - 1)) for s in states}
        picked = [Atom(a) for a in lang.atoms] + [f for f in picked if not isinstance(f, Atom)]
        truth = {
            f: frozenset(s for s in states if (lang.sat(f) >> valuation[s]) & 1) for f in picked
        }
        if picked[len(lang.atoms):] and draw(st.booleans()):
            truth[picked[-1]] = frozenset(draw(st.sets(st.sampled_from(states))))
    else:
        truth = {f: frozenset(draw(st.sets(st.sampled_from(states)))) for f in picked}
    events = [frozenset(c) for r in range(n + 1) for c in itertools.combinations(states, r)]
    kind = draw(st.sampled_from(["capacity", "partial", "mass", "mass+lam"]))
    lam = mass = None
    if kind in ("capacity", "partial"):
        lam = random_capacity(random.Random(draw(st.integers(0, 2**16))), states)
        if kind == "partial":
            lam = {ev: v for ev, v in lam.items() if draw(st.booleans())}
    else:
        weights = [draw(st.integers(0, 3)) for _ in states]
        if not any(weights):
            weights[0] = 1
        mass = {s: F(w, sum(weights)) for s, w in zip(states, weights)}
        if kind == "mass+lam":
            lam = {ev: sum((mass[s] for s in ev), F(0))
                   for ev in draw(st.lists(st.sampled_from(events), max_size=4))}
    invalid = draw(st.sampled_from([None] * 8 + ["T", "lam", "mass"]))
    if invalid == "T":
        truth[TRUE] = frozenset(states[:-1])
    elif invalid == "lam":
        lam = dict(lam or {})
        lam[frozenset(states)] = F(1, 2)
    elif invalid == "mass":
        mass = {s: F(1, 2) for s in states}
    return lang, states, truth, lam, mass, draw(st.booleans())


def outcome(fn, *args):
    """What a call returns, or the message of the model or build error it
    raises."""
    try:
        return fn(*args)
    except (ModelError, BuildError) as e:
        return (type(e).__name__, str(e))


@given(label_models(), st.data())
@settings(max_examples=300, deadline=None)
def test_indexed_model_matches_the_frozenset_model(args, data):
    lang, states, truth, lam, mass, exact_lookup = args
    kwargs = dict(lam=lam, mass=mass, exact_lookup=exact_lookup)
    oracle = outcome(lambda: LabelModel(lang, states, truth, **kwargs))
    model = outcome(lambda: from_labels(lang, states, truth, **kwargs))
    if isinstance(oracle, tuple):
        assert model == oracle
        return
    assert model.grounded == oracle.grounded
    assert model.grounding_mismatches == oracle.grounding_mismatches
    assert model_to_dict(model) == model_to_dict_oracle(oracle)

    for f in model_formulas(lang) + [TRUE, FALSE]:
        ev = model.truth_of(f)
        assert (None if ev is None else event_labels(model, ev)) == oracle.truth_of(f)
    for ev in data.draw(st.lists(st.sets(st.sampled_from(states)), max_size=4)):
        assert model.lambda_of(event_mask(model, ev)) == oracle.lambda_of(ev)
    assert {event_labels(model, b) for b in model.field_atoms()} == set(oracle.field_atoms())
    fields = outcome(model.field_events), outcome(oracle.field_events)
    if isinstance(fields[1], tuple):
        assert fields[0] == fields[1]
    else:
        assert len(fields[0]) == len(fields[1])
        assert {event_labels(model, ev) for ev in fields[0]} == set(fields[1])

    pool = model_formulas(lang)
    graded = data.draw(st.lists(st.sampled_from(pool + [TRUE]), max_size=5))
    for formulas in (None, graded):
        assert outcome(lambda: classify_truth(model, formulas).to_dict()) == outcome(
            lambda: classify_truth_oracle(oracle, formulas).to_dict())
    assert outcome(lambda: classify_lambda(model).to_dict()) == outcome(
        lambda: classify_lambda_oracle(oracle).to_dict())
    assert outcome(lambda: by_labels(model, mobius(model))) == outcome(
        mobius_model_oracle, oracle)
    if mass is not None:
        singletons = {1 << i: v for i, v in enumerate(model.mass)}
        assert by_labels(model, inverse_mobius(singletons, len(states))) == inverse_mobius_oracle(
            {frozenset([s]): v for s, v in oracle.mass.items()}, states)

    payoff = data.draw(st.lists(st.sampled_from(MODEL_VALUES), min_size=len(states),
                                max_size=len(states)))
    assert outcome(choquet, model, payoff) == outcome(
        choquet_oracle, oracle, dict(zip(states, payoff)))

    universe = data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=5)) if pool else []
    pi = {}
    for f in universe:
        exact_value = outcome(lambda: oracle.lambda_of(oracle.truth_of(f) or ()))
        pi[f] = data.draw(st.sampled_from(MODEL_VALUES + [exact_value]
                                          if isinstance(exact_value, Fraction) else MODEL_VALUES))
    a = Assessment(lang, pi)
    assert represents(model, a).to_dict() == represents_oracle(oracle, a).to_dict()

    lifted = outcome(lambda: build_belief_lift(model).to_dict())
    lifted_oracle = outcome(lambda: build_belief_lift_oracle(oracle).to_dict())
    if isinstance(lifted, dict) or isinstance(lifted_oracle, dict):
        assert lifted == lifted_oracle


ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
FILE_VALUES = [F(0), F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(3, 4), F(1), F(-3, 4), F(1, 10),
               F(1000)]
BAD_VALUES = ["1/0", "\u00b2", True, 0.5, "1/2/3", "1/2 3", "3 /4", None]


def spellings(v: Fraction) -> list:
    """Every accepted spelling of a rational that the model files use."""
    n, d = v.numerator, v.denominator
    ratio = f"{n}/{d}"
    out = [ratio, f"{2 * n}/{2 * d}", f" {ratio} ", ratio.translate(ARABIC_INDIC),
           f"{1000 * n:_}/{1000 * d:_}"]
    if d == 1:
        out += [n, str(n), f"{n:_}"]
    for k in (1, 2, 3):
        if 10**k % d == 0:
            scaled = n * 10**k // d
            out += [str(Decimal(scaled).scaleb(-k)), f"{scaled}e-{k}"]
            break
    return out


# labels that are text prefixes of one another, so a key's head may also
# be the start of another label
PREFIX_LABELS = ["w1", "w10", "w11", "w", "w0"]


@st.composite
def model_files(draw):
    """A model file's JSON on 1-4 states: a capacity, masses, or both;
    every value in a random accepted spelling.  The ``lambda`` keys are
    either sorted, each label list and the keys themselves, so that each
    key's prefix comes first as the package's writers write them, or
    each has its labels in a random order and the keys come in a random
    order; the table is random or holds all 2^n events.  Now and then a
    value is bad, a key names an unknown state or an event named before
    (by its labels reversed, or one label twice), or the exact-lookup
    flag is bad, so that both loaders must refuse alike; a bad key goes
    in at a random place, before or after a bad value."""
    n = draw(st.integers(1, 4))
    states = draw(st.permutations(draw(st.sampled_from([STATE_LABELS, PREFIX_LABELS]))))[:n]
    lang = draw(st.sampled_from(MODEL_LANGUAGES))
    atoms = draw(st.lists(st.sampled_from(lang.atoms), unique=True)) if lang.atoms else []
    data = {"states": states,
            "t": {a: draw(st.lists(st.sampled_from(states), unique=True)) for a in atoms}}

    def spell(v):
        return draw(st.sampled_from(spellings(v)))

    kind = draw(st.sampled_from(["lambda", "mass", "both"]))
    mass = None
    if kind != "lambda":
        weights = [draw(st.integers(-1, 3)) for _ in states]
        if sum(weights) <= 0:
            weights[0] += 1 - sum(weights)
        mass = {s: F(w, sum(weights)) for s, w in zip(states, weights)}
        data["mass"] = {s: spell(v) for s, v in mass.items() if v or draw(st.booleans())}
    if kind != "mass":
        events = [c for r in range(n + 1) for c in itertools.combinations(states, r)]
        if not draw(st.integers(0, 3)):
            drawn = draw(st.permutations(events))
        else:
            drawn = draw(st.lists(st.sampled_from(events), unique=True, max_size=2**n))
        ordered = draw(st.booleans())
        lam = {}
        for ev in drawn:
            if mass is not None and draw(st.integers(0, 9)):
                v = sum((mass[s] for s in ev), F(0))
            elif len(ev) in (0, n) and draw(st.integers(0, 9)):
                v = F(len(ev) // n)
            else:
                v = draw(st.sampled_from(FILE_VALUES))
            lam["|".join(sorted(ev) if ordered else draw(st.permutations(ev)))] = spell(v)
        data["lambda"] = dict(sorted(lam.items())) if ordered else lam
    exact = draw(st.sampled_from([None, None, None, True, False, "false", 1]))
    if exact is not None:
        data["exact_lookup"] = exact
    section = data.get("lambda") if "lambda" in data else data["mass"]
    if section and not draw(st.integers(0, 5)):
        section[draw(st.sampled_from(sorted(section)))] = draw(st.sampled_from(BAD_VALUES))
    bad = draw(st.sampled_from([None] * 4 + ["unknown", "same event", "reversed", "twice"]))
    if bad is not None and "lambda" in data:
        named = [k.split("|") for k in data["lambda"] if k]
        if bad == "unknown":
            key = f"{states[0]}|zz"
        elif bad == "same event":
            key = f"{states[-1]}|{states[0]}|{states[-1]}"
        elif bad == "reversed" and any(len(labels) > 1 for labels in named):
            key = "|".join(reversed(draw(st.sampled_from(
                [labels for labels in named if len(labels) > 1]))))
        else:
            labels = draw(st.sampled_from(named)) if named else [states[0]]
            key = "|".join(labels + labels[-1:])
        items = list(data["lambda"].items())
        items.insert(draw(st.integers(0, len(items))), (key, "1/2"))
        data["lambda"] = dict(items)
    return lang, data


@given(model_files())
@settings(max_examples=300, deadline=None)
def test_load_model_matches_the_fraction_loader(tmp_path_factory, case):
    lang, data = case
    path = tmp_path_factory.getbasetemp() / "model-file.json"
    path.write_text(json.dumps(data))

    def loaded(load):
        try:
            return load(path, lang)
        except (ModelError, FileFormatError) as e:
            return (type(e).__name__, str(e))

    model, oracle = loaded(load_model), loaded(load_model_oracle)
    if isinstance(oracle, tuple):
        assert model == oracle
        return
    for ev in range(1 << len(model.states)):
        assert model.lambda_of(ev) == oracle.lambda_of(event_labels(model, ev))
    assert model.mass == (None if oracle.mass is None
                          else tuple(oracle.mass[s] for s in model.states))
    assert model.exact_lookup == oracle.exact_lookup
    assert _json_text(model_to_dict(model)) == _json_text(model_to_dict_oracle(oracle))


def built(builder, *args):
    """A build's outcome and model as dicts, or the message it refuses with."""
    try:
        out = builder(*args)
    except BuildError as e:
        return ("BuildError", str(e), e.axiom)
    if isinstance(out.model, LabelModel):
        return out.to_dict(), model_to_dict_oracle(out.model)
    return out.to_dict(), model_to_dict(out.model)


@given(assessments_and_masks())
@settings(max_examples=150, deadline=None)
def test_builders_match_the_frozenset_builders(case):
    a, _ = case
    pairs = [
        (build_product_model, build_product_oracle),
        (build_canonical_sound, build_canonical_sound_oracle),
        (build_interval_additive, build_interval_additive_oracle),
        (build_additive_sound, build_additive_sound_oracle),
    ]
    for builder, oracle in pairs:
        assert built(builder, a) == built(oracle, a)
    try:
        sound = build_canonical_sound_oracle(a).model
    except BuildError:
        return
    assert built(build_belief_lift, indexed(sound), a) == built(build_belief_lift_oracle, sound, a)


# -- the report writer against the json module -------------------------------

# quotes, backslashes, control characters, DEL and non-ASCII text up to
# the astral planes, so every escape of the encoder is met
JSON_CHARS = st.characters() | st.sampled_from(
    '"\\/\x00\x08\t\n\x0c\r\x1f\x7f\x80\xe9\u2028\u20ac\U0001f600'
)
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**60), 10**60)
    | st.text(JSON_CHARS, max_size=12)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(st.text(JSON_CHARS, max_size=6), inner, max_size=5),
    max_leaves=40,
)


@given(JSON_VALUES)
@settings(max_examples=500, deadline=None)
def test_report_writer_matches_sorted_indented_json(value):
    assert _json_text(value) == json_text_oracle(value)


# -- event labels against the state-by-state scan ------------------------------

# 8 states to a byte of the label tables; with ``TABLE_MIN_EVENTS``
# events, 32 states and fewer take the tables and 33 and more one pass
LABEL_STATE_COUNTS = (1, 7, 8, 9, 16, 17, 32, 33, 1024)


@st.composite
def labelled_events(draw):
    """A model over 1 to 1,024 states, named so that text order is index
    order (up to 10 numbered states) or not, and events over it: the
    empty and the full event, then random ones, either few or enough for
    the byte tables."""
    n = draw(st.sampled_from(LABEL_STATE_COUNTS) | st.integers(1, 1024))
    naming = draw(st.sampled_from(["numbered", "bit-reversed", "shuffled"]))
    if naming == "numbered":  # w10 before w2
        states = [f"w{i}" for i in range(n)]
    elif naming == "bit-reversed":  # as the product model names its states
        width = max(1, (n - 1).bit_length())
        states = ["w" + format(i, f"0{width}b")[::-1] for i in range(n)]
    else:
        states = [f"s{i}" for i in range(n)]
        draw(st.randoms(use_true_random=False)).shuffle(states)
    model = SubjectiveModel(Language([]), states)
    count = draw(st.sampled_from([0, 3, model_module.TABLE_MIN_EVENTS, 100]))
    rng = draw(st.randoms(use_true_random=False))
    events = [0, model.omega] + [rng.getrandbits(n) for _ in range(count)]
    return model, events


@given(labelled_events())
@settings(max_examples=150, deadline=None)
def test_event_labels_match_the_state_by_state_scan(case):
    model, events = case
    want = [label_oracle(model, ev) for ev in events]
    assert model.label_events(events) == want
    # both regimes, whichever the counts pick
    assert model._labels_by_bytes(events) == want
    assert ["|".join(model._selected(ev)) for ev in events] == want
    assert [model.label(ev) for ev in events[:4]] == want[:4]
    assert ["|".join(model.labels(ev)) for ev in events[:4]] == want[:4]
    label = dict(zip(events, want))
    by_size_then_label = sorted(set(events), key=lambda ev: (ev.bit_count(), label[ev]))
    assert model.report_order(set(events)) == (by_size_then_label, label)


# -- hash-consed formulas against the tree they replaced ---------------------

PQR = LANGUAGES[3]
FORMULA_TEXTS = st.recursive(
    st.sampled_from(["p", "q", "r", "T", "F"]),
    lambda inner: inner.map(lambda t: "!" + t)
    | st.tuples(inner, st.sampled_from(["&", "|", "->", "<->"]), inner).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})"
    ),
    max_leaves=12,
)


@given(FORMULA_TEXTS, st.data())
@settings(max_examples=300, deadline=None)
def test_interned_parse_matches_the_tree_parse(text, data):
    f, tree = PQR.parse(text), tree_parse(PQR, text)
    assert as_tree(f) == tree
    assert unparse(f) == tree_unparse(tree)
    # the frozen dataclasses' repr, class names without the prefix
    assert repr(f) == repr(tree).replace("Tree", "")
    assert PQR.sat(f) == tree_sat(PQR, tree)
    # the other formula is drawn at random, or respells this one
    other = data.draw(FORMULA_TEXTS | st.just(text.replace(" ", "")) | st.just(unparse(f)))
    g, other_tree = PQR.parse(other), tree_parse(PQR, other)
    assert (f == g) == (f is g) == (tree == other_tree)


# pieces of formula text, valid or not: the atoms, an undeclared atom,
# the constants, the connectives, parentheses, halves of an arrow, two
# characters no token starts with, ASCII spaces and an em space
PARSE_PIECES = st.sampled_from(
    ["p", "q", "r", "s", "T", "F", "!", "&", "|", "->", "<->", "(", ")",
     "<", "-", "+", "\u00e9", " ", "  ", "\u2003"]
)


@st.composite
def parse_texts(draw):
    """Text drawn piece by piece, or a prefix or a one-character mutation
    of a well-formed formula: one character replaced, deleted, or
    inserted before it."""
    kind = draw(st.sampled_from(["pieces", "prefix", "mutation"]))
    if kind == "pieces":
        return "".join(draw(st.lists(PARSE_PIECES, max_size=16)))
    text = draw(FORMULA_TEXTS)
    i = draw(st.integers(min_value=0, max_value=len(text)))
    if kind == "prefix":
        return text[:i]
    c = draw(PARSE_PIECES)[0]
    return draw(st.sampled_from(
        [text[:i] + c + text[i + 1:], text[:i] + text[i + 1:], text[:i] + c + text[i:]]
    ))


def parse_outcome(parse, text: str):
    """The formula ``parse`` reads from ``text``, or the class, message
    and position of the error it raises."""
    try:
        return parse(PQR, text)
    except ParseError as e:
        return type(e), str(e), e.position


@given(parse_texts())
@settings(max_examples=1000, deadline=None)
def test_parse_matches_the_character_scan(text):
    assert parse_outcome(Language.parse, text) == parse_outcome(parse_oracle, text)


@st.composite
def valuation_sets(draw):
    """A language of 1-16 atoms and disjoint include and exclude sets on
    it; without don't-cares the exclude set is None, the complement.  At
    most 256 valuations each valuation is drawn at one density; above
    that, up to 300 valuations are sampled for each set."""
    # half the draws at the 1-4 atoms where the exact search runs
    n = draw(st.integers(min_value=1, max_value=4) | st.integers(min_value=1, max_value=16))
    lang = Language([f"a{j}" for j in range(n)])  # each its own sat cache
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    dont_cares = draw(st.booleans())
    nv = lang.n_valuations

    def pick(free: int) -> int:
        if nv <= 256:
            p = rng.choice((0.1, 0.5, 0.9))
            return sum(1 << i for i in range(nv) if free >> i & 1 and rng.random() < p)
        return sum(1 << i for i in rng.sample(range(nv), rng.randrange(300)) if free >> i & 1)

    include = pick(lang.full_mask)
    exclude = pick(lang.full_mask & ~include) if dont_cares else None
    return lang, include, exclude


@given(valuation_sets())
@settings(max_examples=300, deadline=None)
def test_renderer_matches_the_exact_cover_and_bounds_its_depth(case):
    lang, include, exclude = case
    f = lang.formula_from_valuations(include, exclude)
    excluded = lang.full_mask & ~include if exclude is None else exclude
    bits = lang.sat(f)
    assert bits & include == include
    assert bits & excluded == 0
    assert formula_depth(f) <= 2 * len(lang.atoms) + 2
    exact = exact_cover_oracle(lang, include, exclude)
    if exact is not None:
        assert unparse(f) == unparse(exact)
    if len(lang.atoms) <= 6:  # the oracle's minterm disjunction stays shallow
        care = include | excluded
        assert lang.sat(formula_from_valuations_oracle(lang, include, exclude)) & care == include


@pytest.mark.parametrize("n", [1, 2, 3])
def test_renderer_matches_the_exact_cover_on_every_set_to_three_atoms(n):
    # each valuation included, excluded or free: 3^(2^n) cases, and an
    # exact cover of at most 4 terms exists for every one of them
    lang = Language([f"a{j}" for j in range(n)])
    for roles in itertools.product((0, 1, 2), repeat=lang.n_valuations):
        include = sum(1 << i for i, r in enumerate(roles) if r == 1)
        exclude = sum(1 << i for i, r in enumerate(roles) if r == 2)
        want = exact_cover_oracle(lang, include, exclude)
        assert unparse(lang.formula_from_valuations(include, exclude)) == unparse(want)
