"""End-to-end acceptance suite.

Each test implements one numbered criterion and prints a PASS line when
it holds; every comparison is exact rational arithmetic, no tolerances.
Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from credence.assessment import Assessment, check_e, check_i, check_ie, check_nt
from credence.construct import (
    build_belief_lift,
    build_canonical_sound,
    build_interval_additive,
)
from credence.games import (
    Strategy,
    layer_decompose,
    pointwise_undominated,
    rationalizable,
    t_bullet,
    t_circ,
    verify_integral_equality,
)
from credence.identify import (
    IdentifyError,
    largest_subtheory,
    subtheory_via_certainty,
    understood_implications,
)
from credence.logic import Language, unparse
from credence.model import (
    choquet,
    classify_lambda,
    classify_truth,
    mobius,
    represents,
)

from helpers import (
    from_labels,
    grid_dominance_oracle,
    random_and_closed_universe,
    random_capacity,
    random_monotone_assessment,
)

F = Fraction


def report(n, text):
    print(f"ACCEPTANCE {n}: {text}: PASS")


def test_criterion_1_linda_representations(linda):
    start = time.monotonic()
    lang = linda.language
    core = [lang.parse("f"), lang.parse("t"), lang.parse("(t & f)")]
    for name in ("model1", "model2"):
        rep = represents(linda.models[name], linda.assessment)
        assert rep.ok
        for f in core:
            assert rep.residuals[linda.assessment.text(f)] == 0
    flags1 = classify_truth(linda.models["model1"], linda.assessment.formulas)
    assert flags1.monotone is False
    flags2 = classify_lambda(linda.models["model2"])
    assert flags2.monotone is False
    assert ("w2", "w2|w3") in flags2.witnesses["monotone"]
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"both representations verified in {elapsed:.3f}s")


def test_criterion_2_linda_identification(linda):
    verdicts = understood_implications(linda.assessment)
    flagged = [
        (v.antecedent, v.consequent, v.margin) for v in verdicts if not v.understood
    ]
    assert flagged == [("(t & f)", "t", F(-1, 4))]
    report(2, "exactly the conjunction-fallacy pair flagged, margin -1/4")


def test_criterion_3_voting_subtheory(voting):
    # the fixture instantiates the elicited constraints with alpha = 3/5:
    # matched marginals, positive pivot likelihood, and a weak preference
    # for betting on red-and-pivotal over blue-and-pivotal
    a = voting.assessment
    lang = voting.language
    val = lambda t: a.value(lang.parse(t))
    alpha = val("r")
    assert 0 < alpha < 1
    assert val("!b") == alpha and val("b") == 1 - alpha and val("!r") == 1 - alpha
    assert val("p") > 0
    assert val("(r & p)") >= val("(b & p)")
    assert check_i(a).passed  # the agent is logically coherent outright
    sub = largest_subtheory(voting.assessment, voting.theory)
    assert sub.unique is True
    assert sub.generator_texts == ("(r <-> !b)",)
    assert sub.valuations == voting.language.sat(voting.language.parse("(r <-> !b)"))
    assert sub.verification.passed
    report(3, "largest understood sub-theory is the closure of (r <-> !b), unique")


def test_criterion_4_duality_suite():
    start = time.monotonic()
    lang = Language(["a", "b", "c"])
    rng = random.Random(2024)
    count = 0
    while count < 500:
        classes = random_and_closed_universe(rng, lang, n_base=rng.randint(2, 4))
        if len(classes) > 30:
            continue
        a = random_monotone_assessment(rng, lang, classes)
        assert check_nt(a).passed and check_e(a).passed and check_i(a).passed
        sound = build_canonical_sound(a)
        assert classify_truth(sound.model, a.formulas).sound
        assert represents(sound.model, a).ok
        interval = build_interval_additive(a)
        assert interval.model.mass is not None
        assert classify_lambda(interval.model).additive
        assert represents(interval.model, a).ok
        count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(4, f"{count} random assessments, both constructions verified in {elapsed:.1f}s")


def test_criterion_5_belief_lift_suite():
    lang = Language(["a", "b"])
    states = ["w1", "w2", "w3"]
    # a fixed sound valuation over three states
    truth = {
        lang.parse("a"): frozenset(["w1", "w2"]),
        lang.parse("b"): frozenset(["w1", "w3"]),
        lang.parse("(a & b)"): frozenset(["w1"]),
        lang.parse("(a | b)"): frozenset(["w1", "w2", "w3"]),
        lang.parse("!a"): frozenset(["w3"]),
        lang.parse("!b"): frozenset(["w2"]),
    }
    grid = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
    proper = [
        frozenset(c)
        for r in (1, 2)
        for c in itertools.combinations(states, r)
    ]
    tested = 0
    for values in itertools.product(grid, repeat=len(proper)):
        lam = dict(zip(proper, values))
        lam[frozenset()] = F(0)
        lam[frozenset(states)] = F(1)
        model = from_labels(lang, states, truth, lam=lam)
        masses = mobius(model)
        if any(m < 0 for m in masses.values()):
            continue
        out = build_belief_lift(model)
        lifted = out.model
        for f in truth:
            assert model.lambda_of(model.truth[f]) == lifted.lambda_of(lifted.truth[f])
        flags = classify_truth(lifted, list(truth))
        assert flags.and_distributive
        tested += 1
    assert tested > 100
    report(5, f"{tested} totally monotone appraisals lifted with values preserved")


def test_criterion_6_choquet_properties():
    rng = random.Random(99)
    checked = 0
    for _ in range(1000):
        n = rng.randint(2, 4)
        states = [f"s{i}" for i in range(n)]
        lam = random_capacity(rng, states, den_max=6)
        m = from_labels(Language([]), states, {}, lam=lam)
        order = list(range(n))
        rng.shuffle(order)
        xs = sorted(F(rng.randint(0, 12), 4) for _ in states)
        ys = sorted(F(rng.randint(0, 12), 4) for _ in states)
        x = [xs[order.index(i)] for i in range(n)]
        y = [ys[order.index(i)] for i in range(n)]
        total = [a + b for a, b in zip(x, y)]
        assert choquet(m, total) == choquet(m, x) + choquet(m, y)
        bigger = [a + F(rng.randint(0, 4), 4) for a in x]
        assert choquet(m, bigger) >= choquet(m, x)
        checked += 1
    # additive case: integral is exactly the mass-weighted dot product
    for _ in range(200):
        n = rng.randint(2, 4)
        states = [f"s{i}" for i in range(n)]
        weights = [F(rng.randint(0, 5)) for _ in states]
        if sum(weights) == 0:
            weights[0] = F(1)
        total_w = sum(weights)
        mass = {s: w / total_w for s, w in zip(states, weights)}
        m = from_labels(Language([]), states, {}, mass=mass)
        x = [F(rng.randint(0, 9), 3) for _ in states]
        assert choquet(m, x) == sum(mass[s] * v for s, v in zip(states, x))
    assert checked == 1000
    report(6, "comonotone additivity, monotonicity and the additive case hold")


def test_criterion_7_transport_maps(transport_maps):
    capacity = transport_maps.models["capacity"]
    exact = transport_maps.models["exact"]
    s = transport_maps.strategies[0]
    x = t_circ(capacity, s)
    assert dict(zip(capacity.states, x)) == {"w1": F(3), "w2": F(4), "w3": F(2)}
    layers = [(a, unparse(f)) for a, f in layer_decompose(x, capacity)]
    assert layers == [(F(4), "(p & !q)"), (F(3), "p"), (F(2), "T")]
    y = t_bullet(capacity, exact, s)
    assert dict(zip(exact.states, y)) == {"w1": F(3), "w2": F(2), "w3": F(2)}
    res = verify_integral_equality(capacity, exact, s)
    assert res.equal and res.source_value == F(7, 3)
    report(7, "payoff maps reproduce (3,4,2) -> layers -> (3,2,2), integrals 7/3")


def test_criterion_8_rationalizability(hedging):
    model = hedging.models["objective"]
    by_name = {s.name: s for s in hedging.strategies}
    additive = rationalizable(
        by_name["s3"], hedging.strategies, model, additive_only=True
    )
    assert not additive.rationalizable
    assert additive.epsilon == F(1, 6)
    assert additive.dominating_mixture == [
        ("s1", F(1, 2)),
        ("s2", F(1, 2)),
        ("s3", F(0)),
    ]
    general = rationalizable(by_name["s3"], hedging.strategies, model)
    assert general.rationalizable and general.verified
    values = dict(general.choquet_values)
    assert values == {"s1": F(1, 4), "s2": F(1, 4), "s3": F(1, 3)}
    report(8, "additive route dominated (1/2,1/2,0; eps 1/6); witness gives 1/3 vs 1/4")


def test_criterion_9_lp_vs_oracle():
    values = [F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1)]
    agreements = 0
    # exhaustive on 2 strategies x 2 states over denominator <= 2 grids
    states = ["a", "b"]
    for v1 in itertools.product([F(0), F(1, 2), F(1)], repeat=2):
        for v2 in itertools.product([F(0), F(1, 2), F(1)], repeat=2):
            alts = [dict(zip(states, v1)), dict(zip(states, v2))]
            res = pointwise_undominated(alts[0], alts)
            oracle = grid_dominance_oracle(alts[0], alts)
            assert not (oracle is not None and not res.dominated)
            if res.dominated:
                for s in states:
                    mixed = sum(w * alt[s] for w, alt in zip(res.mixture, alts))
                    assert mixed > alts[0][s]
            agreements += 1
    # seeded sample across <= 3 strategies, <= 4 states, denominators <= 4
    rng = random.Random(2718)
    for _ in range(400):
        n_states = rng.randint(2, 4)
        n_alts = rng.randint(2, 3)
        sts = [f"s{i}" for i in range(n_states)]
        alts = [{s: rng.choice(values) for s in sts} for _ in range(n_alts)]
        x = alts[0]
        res = pointwise_undominated(x, alts)
        oracle = grid_dominance_oracle(x, alts)
        assert not (oracle is not None and not res.dominated)
        if res.dominated:
            for s in sts:
                mixed = sum(w * alt[s] for w, alt in zip(res.mixture, alts))
                assert mixed > x[s]
        agreements += 1
    report(9, f"LP agrees with the grid oracle on {agreements} instances")


def test_criterion_10_certainty(certainty):
    assert check_i(certainty.assessment).passed
    ie = check_ie(certainty.assessment)
    assert not ie.passed
    # the violating family exhibits p and q below their disjunction while
    # their conjunction carries no weight
    families = {v.formulas for v in ie.violations}
    assert ("(p | q)", "p", "q") in families
    with pytest.raises(IdentifyError) as e:
        subtheory_via_certainty(certainty.assessment, certainty.theory)
    assert e.value.report is not None and e.value.report.axiom == "IE"
    report(10, "axiom I holds, IE fails at the {p, q} family, certainty route refuses")
