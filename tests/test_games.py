import itertools
import random
from fractions import Fraction

import pytest

from credence.assessment import Assessment
from credence.games import (
    GamesError,
    Strategy,
    _agreement_check,
    layer_decompose,
    pointwise_undominated,
    rationalizable,
    strategy_events,
    t_bullet,
    t_circ,
    transported_vector,
    verify_integral_equality,
)
from credence.errors import InputError
from credence.logic import TRUE, Language, unparse
from credence.model import ModelError, SubjectiveModel, choquet
from credence.construct import build_canonical_sound, build_interval_additive

from helpers import (
    event_mask,
    explicit_lambda,
    from_labels,
    full_closure_classes,
    grid_dominance_oracle,
    layerings,
    maximal_model,
    random_monotone_assessment,
    shift_nonnegative,
    transported_vector_oracle,
    vector,
)

F = Fraction


def strat(lang, table, name=None):
    return Strategy({lang.parse(t): F(v) for t, v in table.items()}, name=name)


def by_label(model, x):
    """A payoff vector in state order, keyed by state label."""
    return dict(zip(model.states, x))


@pytest.fixture(scope="module")
def capacity(transport_maps):
    return transport_maps.models["capacity"]


@pytest.fixture(scope="module")
def exact(transport_maps):
    return transport_maps.models["exact"]


@pytest.fixture(scope="module")
def alt(transport_maps):
    return transport_maps.models["alt"]


@pytest.fixture(scope="module")
def maps_strategy(transport_maps):
    return transport_maps.strategies[0]


class TestStrategy:
    def test_equal_payoffs_make_one_strategy(self, capacity):
        # a zero payoff is dropped, and the name is no part of a strategy's value
        lang = capacity.language
        a = strat(lang, {"p": "1", "q": "0"}, name="a")
        b = strat(lang, {"p": "1"}, name="b")
        assert a == b and hash(a) == hash(b)
        assert len({a, b, strat(lang, {"q": "1"})}) == 2


class TestTCirc:
    def test_worked_example(self, capacity, maps_strategy):
        assert by_label(capacity, t_circ(capacity, maps_strategy)) == {
            "w1": F(3),
            "w2": F(4),
            "w3": F(2),
        }

    def test_primitive_bet_is_indicator(self, capacity):
        lang = capacity.language
        s = strat(lang, {"p": "1"})
        assert by_label(capacity, t_circ(capacity, s)) == {"w1": F(1), "w2": F(1), "w3": F(0)}

    def test_empty_support_is_zero(self, capacity):
        s = Strategy({})
        assert set(t_circ(capacity, s)) == {F(0)}

    def test_linear_in_the_strategy(self, capacity):
        lang = capacity.language
        rng = random.Random(3)
        texts = ["p", "q", "(p & q)", "!q", "T", "(p | q)"]
        for _ in range(30):
            pay1 = {t: F(rng.randint(0, 5), 2) for t in rng.sample(texts, 3)}
            pay2 = {t: F(rng.randint(0, 5), 2) for t in rng.sample(texts, 3)}
            a, b = F(rng.randint(0, 3)), F(rng.randint(0, 3))
            combo = {}
            for t, v in pay1.items():
                combo[t] = combo.get(t, F(0)) + a * v
            for t, v in pay2.items():
                combo[t] = combo.get(t, F(0)) + b * v
            lhs = t_circ(capacity, strat(lang, combo))
            x1 = t_circ(capacity, strat(lang, pay1))
            x2 = t_circ(capacity, strat(lang, pay2))
            assert lhs == [a * v1 + b * v2 for v1, v2 in zip(x1, x2)]

    def test_rejects_unsound_model(self, linda):
        s = strat(linda.language, {"f": "1"})
        with pytest.raises(GamesError):
            t_circ(linda.models["model1"], s)

    def test_a_float_payoff_is_refused(self, capacity):
        lang = capacity.language
        with pytest.raises(GamesError, match="0.5 is a binary float"):
            Strategy({lang.parse("p"): 0.5})
        assert Strategy({lang.parse("p"): "1/2"}).payoffs == {lang.parse("p"): F(1, 2)}

    def test_negative_payoffs_rejected_with_shift_helper(self, capacity):
        lang = capacity.language
        with pytest.raises(GamesError):
            strat(lang, {"p": "-1"})
        shifted, shift = shift_nonnegative({lang.parse("p"): F(-1), TRUE: F(2)})
        assert shift == 1
        assert shifted[lang.parse("p")] == 0
        assert shifted[TRUE] == 3


class TestLayerDecompose:
    def test_worked_example(self, capacity, maps_strategy):
        x = t_circ(capacity, maps_strategy)
        layers = layer_decompose(x, capacity)
        assert [(a, unparse(f)) for a, f in layers] == [
            (F(4), "(p & !q)"),
            (F(3), "p"),
            (F(2), "T"),
        ]

    def test_constant_payoff_single_layer(self, capacity):
        x = [F(5, 7)] * len(capacity.states)
        layers = layer_decompose(x, capacity)
        assert [(a, unparse(f)) for a, f in layers] == [(F(5, 7), "T")]

    def test_indicator_single_layer(self, capacity):
        x = vector(capacity, {"w1": F(1), "w2": F(1), "w3": F(0)})
        layers = layer_decompose(x, capacity)
        assert [(a, unparse(f)) for a, f in layers] == [(F(1), "p")]

    def test_reconstruction_identity(self, capacity):
        rng = random.Random(5)
        for _ in range(40):
            x = [F(rng.randint(0, 6), 2) for _ in capacity.states]
            layers = layer_decompose(x, capacity)
            rebuilt = [F(0)] * len(capacity.states)
            for i, (a, f) in enumerate(layers):
                nxt = layers[i + 1][0] if i + 1 < len(layers) else F(0)
                for j in range(len(capacity.states)):
                    if capacity.truth_of(f) >> j & 1:
                        rebuilt[j] += a - nxt
            assert rebuilt == x

    @pytest.mark.parametrize("payoff, message", [
        ([F(1), F(2)], "payoff must value exactly the model's states"),
        ([F(1), F(2), F(0), F(1)], "payoff must value exactly the model's states"),
        ([F(1), F(-1, 2), F(0)], "payoff must be nonnegative"),
    ], ids=["too few", "too many", "negative"])
    def test_payoff_refusals_are_input_errors(self, capacity, payoff, message):
        with pytest.raises(GamesError) as refused:
            layer_decompose(payoff, capacity)
        assert str(refused.value) == message
        assert isinstance(refused.value, InputError)

    def test_unnameable_upper_set(self):
        lang = Language(["p"])
        m = from_labels(
            lang,
            ["w1", "w2", "w3"],
            {lang.parse("p"): frozenset(["w1", "w2"])},
            mass={"w1": F(1, 3), "w2": F(1, 3), "w3": F(1, 3)},
        )
        x = vector(m, {"w1": F(1), "w2": F(2), "w3": F(0)})
        with pytest.raises(GamesError):
            layer_decompose(x, m)


class TestTBullet:
    def test_worked_example(self, capacity, exact, maps_strategy):
        assert by_label(exact, t_bullet(capacity, exact, maps_strategy)) == {
            "w1": F(3),
            "w2": F(2),
            "w3": F(2),
        }

    def test_primitive_bet_maps_to_target_indicator(self, capacity, exact):
        lang = capacity.language
        s = strat(lang, {"p": "1"})
        y = t_bullet(capacity, exact, s)
        assert by_label(exact, y) == {"w1": F(1), "w2": F(0), "w3": F(0)}

    def test_source_choice_is_irrelevant(self, capacity, alt, exact, maps_strategy):
        y1 = t_bullet(capacity, exact, maps_strategy)
        y2 = t_bullet(alt, exact, maps_strategy)
        assert y1 == y2

    def test_mismatched_source_detected(self, capacity, exact, maps_strategy):
        # swapping the two atoms' events without adjusting the appraisal
        # produces a model of a different assessment; the transport refuses
        lang = capacity.language
        tilde = SubjectiveModel(
            lang,
            capacity.states,
            {
                lang.parse("p"): event_mask(capacity, ["w1"]),
                lang.parse("q"): event_mask(capacity, ["w1", "w2"]),
            },
            lam=explicit_lambda(capacity),
        )
        with pytest.raises(GamesError) as e:
            t_bullet(tilde, exact, maps_strategy)
        assert "mismatch" in str(e.value)

    def test_missing_layer_statement_in_target(self, capacity, maps_strategy):
        lang = capacity.language
        bare = from_labels(
            lang,
            ["u1", "u2"],
            {lang.parse("p"): frozenset(["u1"])},
            mass={"u1": F(1, 3), "u2": F(2, 3)},
        )
        bare.grounded = False  # force explicit-only lookups
        with pytest.raises(GamesError):
            t_bullet(capacity, bare, maps_strategy)

    def test_layer_statement_without_a_target_appraisal(self, capacity, maps_strategy):
        # the target grounds the top layer (p & !q) on {w2} but values no event
        unvalued = SubjectiveModel(capacity.language, capacity.states, dict(capacity.truth))
        with pytest.raises(GamesError) as refused:
            t_bullet(capacity, unvalued, maps_strategy)
        assert str(refused.value) == "appraisal missing on the events of (p & !q)"
        assert isinstance(refused.value, InputError)

    def test_models_must_reproduce_the_given_assessment(self, capacity, exact, maps_strategy):
        lang = capacity.language
        heavy = SubjectiveModel(
            lang, exact.states, dict(exact.truth), mass=[F(1, 2), F(1, 4), F(1, 4)],
            exact_lookup=True,
        )
        # capacity values p at 1/3, heavy at 1/2
        for value, target, label in ((F(1, 2), exact, "source"), (F(1, 3), heavy, "target")):
            a = Assessment(lang, {lang.parse("p"): value})
            with pytest.raises(GamesError) as refused:
                t_bullet(capacity, target, maps_strategy, a)
            assert str(refused.value) == (
                f"representation mismatch: the {label} model does not reproduce the assessment"
            )
            assert isinstance(refused.value, InputError)

    def test_target_statement_without_an_appraisal_is_skipped(self, capacity, maps_strategy):
        # q's event {w1} has no value in the target, and q is no layer statement
        lam = explicit_lambda(capacity)
        del lam[event_mask(capacity, ["w1"])]
        target = SubjectiveModel(capacity.language, capacity.states, dict(capacity.truth), lam=lam)
        assert target.lambda_of(target.truth_of(capacity.language.parse("q"))) is None
        assert t_bullet(capacity, target, maps_strategy) == [F(3), F(4), F(2)]

    @pytest.mark.parametrize("required", [True, False])
    def test_agreement_refuses_a_statement_without_a_truth_event(
        self, capacity, exact, required
    ):
        # t_bullet's optional pass runs over the target's own truth domain,
        # where both models give truth events; a direct call reaches the refusal
        xnor = capacity.language.parse("(p <-> q)")
        assert exact.truth_of(xnor) is None
        with pytest.raises(GamesError) as refused:
            _agreement_check(capacity, exact, [xnor], required=required)
        assert str(refused.value) == (
            "target model does not value layer statement ((!p | q) & (!q | p))"
        )


class TestIntegralEquality:
    def test_worked_example(self, capacity, exact, maps_strategy):
        res = verify_integral_equality(capacity, exact, maps_strategy)
        assert res.equal
        assert res.source_value == F(7, 3)
        assert res.target_value == F(7, 3)

    def test_comparison_as_json(self, capacity, exact, maps_strategy):
        res = verify_integral_equality(capacity, exact, maps_strategy)
        assert res.to_dict() == {"equal": True, "source_value": "7/3", "target_value": "7/3"}

    def test_constant_strategy(self, capacity, exact):
        s = strat(capacity.language, {"T": "4/9"})
        res = verify_integral_equality(capacity, exact, s)
        assert res.equal and res.source_value == F(4, 9)

    def test_primitive_bet_gives_statement_value(self, capacity, exact):
        s = strat(capacity.language, {"q": "1"})
        res = verify_integral_equality(capacity, exact, s)
        assert res.equal and res.source_value == F(1, 3)

    def test_random_strategies_over_built_pairs(self):
        # canonical (sound) and interval (exact + additive) models of one
        # random entailment-respecting assessment
        lang = Language(["p", "q"])
        rng = random.Random(37)
        for _ in range(15):
            a = random_monotone_assessment(rng, lang)
            sound = build_canonical_sound(a).model
            target = build_interval_additive(a).model
            members = [a.text(f) for f in a.sorted_formulas()]
            for _ in range(4):
                support = rng.sample(members, rng.randint(1, 3))
                s = strat(lang, {t: F(rng.randint(0, 6), 3) for t in support})
                res = verify_integral_equality(sound, target, s)
                assert res.equal

    def test_random_strategies_three_atoms(self):
        # a fully closed three-atom universe, so every layer statement of
        # every strategy resolves in the target representation
        lang = Language(["p", "q", "r"])
        rng = random.Random(61)
        classes = full_closure_classes(lang)
        a = random_monotone_assessment(rng, lang, classes)
        sound = build_canonical_sound(a).model
        target = build_interval_additive(a).model
        members = [a.text(f) for f in a.sorted_formulas()]
        for _ in range(6):
            support = rng.sample(members, 3)
            s = strat(lang, {t: F(rng.randint(0, 6), 3) for t in support})
            res = verify_integral_equality(sound, target, s)
            assert res.equal

    def test_duplicated_state_source_agrees(self):
        # two sound models of one assessment, one with a split state
        lang = Language(["p", "q"])
        rng = random.Random(39)
        for _ in range(10):
            a = random_monotone_assessment(rng, lang)
            m1 = build_canonical_sound(a).model
            # the new state vdup is the last bit, and copies the first state
            states2 = list(m1.states) + ["vdup"]
            dup = 1 << len(m1.states)
            truth2 = {f: ev | dup if ev & 1 else ev for f, ev in m1.truth.items()}
            lam2 = {}
            for ev, v in explicit_lambda(m1).items():
                lam2[ev] = v
                if ev & 1:
                    lam2[ev | dup] = v
            m2 = SubjectiveModel(lang, states2, truth2, lam=lam2)
            target = build_interval_additive(a).model
            members = [a.text(f) for f in a.sorted_formulas()]
            support = rng.sample(members, 3)
            s = strat(lang, {t: F(rng.randint(0, 6), 3) for t in support})
            assert t_bullet(m1, target, s) == t_bullet(m2, target, s)


class TestMaximalModel:
    """The materialized maximal model in ``helpers`` is the oracle for the
    affine transport; these pin the oracle itself and the affine form."""

    def test_two_coordinates_four_states(self, hedging):
        m = hedging.models["objective"]
        events = strategy_events(m, layerings(m, hedging.strategies))
        assert events == [event_mask(m, ["w1"]), event_mask(m, ["w2"])]
        mm = maximal_model(m, events)
        assert len(mm.states) == 4

    def test_single_coordinate_two_states(self, hedging):
        m = hedging.models["objective"]
        mm = maximal_model(m, [event_mask(m, ["w1"])])
        assert len(mm.states) == 2

    def test_transported_strategies(self, hedging):
        m = hedging.models["objective"]
        by_name = {s.name: s for s in hedging.strategies}
        mm = maximal_model(m, strategy_events(m, layerings(m, hedging.strategies)))
        y3 = transported_vector_oracle(mm, m, by_name["s3"])
        assert set(y3.values()) == {F(1, 3)}
        y1 = transported_vector_oracle(mm, m, by_name["s1"])
        cyl = mm.cylinder(event_mask(m, ["w1"]))
        assert all((y1[s] == 1) == (s in cyl) for s in mm.states)

    def test_affine_transport(self, hedging):
        m = hedging.models["objective"]
        by_name = {s.name: s for s in hedging.strategies}
        layers = dict(zip(by_name, layerings(m, hedging.strategies)))
        events = strategy_events(m, layers.values())
        assert transported_vector(m, events, layers["s1"]) == (F(0), [F(1), F(0)])
        assert transported_vector(m, events, layers["s2"]) == (F(0), [F(0), F(1)])
        assert transported_vector(m, events, layers["s3"]) == (F(1, 3), [F(0), F(0)])

    def test_affine_transport_rejects_unknown_event(self, hedging):
        m = hedging.models["objective"]
        by_name = {s.name: s for s in hedging.strategies}
        with pytest.raises(GamesError):
            transported_vector(m, [event_mask(m, ["w1"])], *layerings(m, [by_name["s2"]]))

    def test_cylinder_rejects_unknown_event(self, hedging):
        m = hedging.models["objective"]
        mm = maximal_model(m, [event_mask(m, ["w1"])])
        with pytest.raises(GamesError):
            mm.cylinder(event_mask(m, ["w2"]))

    def test_coordinate_validation(self, hedging):
        m = hedging.models["objective"]
        with pytest.raises(GamesError):
            maximal_model(m, [m.omega])


class TestPointwiseUndominated:
    def test_mixture_dominates_the_hedge(self):
        x = {"a": F(1, 3), "b": F(1, 3)}
        alts = [
            {"a": F(1), "b": F(0)},
            {"a": F(0), "b": F(1)},
            x,
        ]
        res = pointwise_undominated(x, alts)
        assert res.dominated
        assert res.epsilon == F(1, 6)
        assert res.mixture == [F(1, 2), F(1, 2), F(0)]

    def test_pointwise_maximal_is_undominated(self):
        x = {"a": F(2), "b": F(2)}
        alts = [x, {"a": F(1), "b": F(2)}, {"a": F(2), "b": F(0)}]
        res = pointwise_undominated(x, alts)
        assert not res.dominated
        assert res.prior is not None

    def test_alone_never_dominates_itself(self):
        x = {"a": F(1), "b": F(0)}
        res = pointwise_undominated(x, [x])
        assert not res.dominated

    def test_empty_alternatives_rejected(self):
        with pytest.raises(GamesError):
            pointwise_undominated({"a": F(0)}, [])

    def test_results_as_json(self):
        corners = [{"a": F(1), "b": F(0)}, {"a": F(0), "b": F(1)}]
        assert pointwise_undominated({"a": F(1, 2), "b": F(1, 4)}, corners).to_dict() == {
            "dominated": True, "mode": "strict", "epsilon": "1/8",
            "mixture": ["5/8", "3/8"], "prior": None,
        }
        assert pointwise_undominated({"a": F(1, 2), "b": F(1, 2)}, corners).to_dict() == {
            "dominated": False, "mode": "strict", "epsilon": "0",
            "mixture": None, "prior": {"a": "1/2", "b": "1/2"},
        }

    def test_alternatives_on_other_states_rejected(self):
        with pytest.raises(GamesError) as refused:
            pointwise_undominated({"a": F(0), "b": F(0)}, [{"a": F(1)}])
        assert str(refused.value) == "payoff vectors must share one state space"
        assert isinstance(refused.value, InputError)

    def test_weak_mode_without_a_mixture_kept_above_x(self):
        # the one alternative pays less than x at a, so the weak LP is infeasible
        res = pointwise_undominated({"a": 1, "b": 1}, [{"a": 0, "b": 2}], weak=True)
        assert not res.dominated
        assert res.epsilon is None and res.mixture is None and res.prior is None

    def test_weak_mode_catches_weak_dominance(self):
        x = {"a": F(1), "b": F(0)}
        alts = [x, {"a": F(1), "b": F(1)}]
        strict = pointwise_undominated(x, alts)
        weak = pointwise_undominated(x, alts, weak=True)
        assert not strict.dominated
        assert weak.dominated

    def test_prior_certifies_best_response(self):
        rng = random.Random(41)
        for _ in range(40):
            n_states = rng.randint(2, 4)
            n_alts = rng.randint(1, 3)
            states = [f"s{i}" for i in range(n_states)]
            alts = [
                {s: F(rng.randint(0, 4), rng.randint(1, 4)) for s in states}
                for _ in range(n_alts)
            ]
            x = alts[rng.randrange(n_alts)]
            res = pointwise_undominated(x, alts)
            if res.dominated:
                mix = res.mixture
                for s in states:
                    mixed = sum(w * alt[s] for w, alt in zip(mix, alts))
                    assert mixed >= x[s] + res.epsilon
            else:
                p = res.prior
                mine = sum(p[s] * x[s] for s in states)
                for alt in alts:
                    assert mine >= sum(p[s] * alt[s] for s in states)

    def test_agrees_with_grid_oracle(self):
        rng = random.Random(43)
        values = [F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1)]
        # exhaustive over tiny instances
        states = ["a", "b"]
        for v1 in itertools.product([F(0), F(1, 2), F(1)], repeat=2):
            for v2 in itertools.product([F(0), F(1, 2), F(1)], repeat=2):
                alts = [dict(zip(states, v1)), dict(zip(states, v2))]
                x = alts[0]
                res = pointwise_undominated(x, alts)
                oracle = grid_dominance_oracle(x, alts)
                if oracle is not None:
                    assert res.dominated
                if not res.dominated:
                    assert oracle is None
        # random larger instances
        for _ in range(120):
            n_states = rng.randint(2, 4)
            n_alts = rng.randint(2, 3)
            states = [f"s{i}" for i in range(n_states)]
            alts = [
                {s: rng.choice(values) for s in states} for _ in range(n_alts)
            ]
            x = alts[0]
            res = pointwise_undominated(x, alts)
            oracle = grid_dominance_oracle(x, alts)
            if oracle is not None:
                assert res.dominated
            if not res.dominated:
                assert oracle is None


class TestRationalizable:
    def test_fixture_not_rationalizable_with_additive_priors(self, hedging):
        m = hedging.models["objective"]
        by_name = {s.name: s for s in hedging.strategies}
        res = rationalizable(
            by_name["s3"], hedging.strategies, m, additive_only=True
        )
        assert not res.rationalizable
        assert res.epsilon == F(1, 6)
        assert res.dominating_mixture == [
            ("s1", F(1, 2)),
            ("s2", F(1, 2)),
            ("s3", F(0)),
        ]

    def test_fixture_rationalizable_in_maximal_model(self, hedging):
        m = hedging.models["objective"]
        by_name = {s.name: s for s in hedging.strategies}
        res = rationalizable(by_name["s3"], hedging.strategies, m)
        assert res.rationalizable and res.verified
        values = dict(res.choquet_values)
        assert values["s3"] == F(1, 3)
        assert values["s1"] == F(1, 4)
        assert values["s2"] == F(1, 4)
        assert res.witness_source == "model"
        # witness is a genuine likelihood appraisal
        assert res.witness_events[m.omega] == 1
        assert res.witness_events[0] == 0

    def test_pulled_back_witness_when_model_lambda_absent(self, hedging):
        m = hedging.models["objective"]
        bare = SubjectiveModel(m.language, m.states, dict(m.truth))
        by_name = {s.name: s for s in hedging.strategies}
        res = rationalizable(by_name["s3"], hedging.strategies, bare)
        assert res.rationalizable and res.verified
        assert res.witness_source == "maximal-model prior"
        values = dict(res.choquet_values)
        assert values["s3"] >= values["s1"]
        assert values["s3"] >= values["s2"]

    def test_model_appraisal_missing_an_upper_set_falls_back_to_the_prior(self):
        # lambda is given on p's event only, so the model's own Choquet sum
        # of q's payoff raises and the pulled-back prior is the witness
        lang = Language(["p", "q"])
        p, q = lang.parse("p"), lang.parse("q")
        m = SubjectiveModel(
            lang, ["v00", "v10", "v01", "v11"], {p: 0b1010, q: 0b1100}, lam={0b1010: F(1, 2)}
        )
        pool = [strat(lang, {"p": 1}), strat(lang, {"q": 1}), strat(lang, {"T": F(1, 3)})]
        with pytest.raises(ModelError, match="not in the appraisal's domain"):
            choquet(m, t_circ(m, pool[1]))
        for s in pool:
            res = rationalizable(s, pool, m)
            assert res.rationalizable and res.verified
            assert res.witness_source == "maximal-model prior"

    def test_dominated_strategies_stay_unrationalizable(self, hedging):
        m = hedging.models["objective"]
        lang = m.language
        pool = hedging.strategies + [strat(lang, {"T": "1/5"}, name="s4")]
        res = rationalizable(pool[-1], pool, m)
        assert not res.rationalizable
        assert res.dominating_mixture is not None

    def test_singleton_pool_always_rationalizable(self, hedging):
        m = hedging.models["objective"]
        s = hedging.strategies[0]
        res = rationalizable(s, [s], m)
        assert res.rationalizable and res.verified

    def test_choice_must_be_in_pool(self, hedging):
        m = hedging.models["objective"]
        outsider = strat(m.language, {"T": "1/2"})
        with pytest.raises(GamesError):
            rationalizable(outsider, hedging.strategies, m)

    def test_witness_reverified_by_choquet(self, hedging):
        m = hedging.models["objective"]
        by_name = {s.name: s for s in hedging.strategies}
        res = rationalizable(by_name["s3"], hedging.strategies, m)
        witness = SubjectiveModel(
            m.language, m.states, dict(m.truth), lam=dict(res.witness_events)
        )
        vals = {
            s.name: choquet(witness, t_circ(m, s)) for s in hedging.strategies
        }
        assert vals["s3"] == max(vals.values())

    def test_unconditional_bonus_always_dominates(self, transport_maps):
        # adding 1 util unconditionally shifts every Choquet value by
        # exactly 1, so the base strategy can never be a best response;
        # the maximal-model reduction must agree
        cap = transport_maps.models["capacity"]
        lang = cap.language
        pool = [
            strat(lang, {"p": "1"}, name="bet_p"),
            strat(lang, {"q": "1"}, name="bet_q"),
            strat(lang, {"T": "1", "p": "1"}, name="bonus_p"),
            strat(lang, {"T": "2/5"}, name="hedge"),
        ]
        res_p = rationalizable(pool[0], pool, cap)
        assert not res_p.rationalizable and res_p.epsilon == F(1)
        res_hedge = rationalizable(pool[3], pool, cap)
        assert not res_hedge.rationalizable
        # betting on q is a best response to the appraisal that pins
        # t(q) at 1 and t(p) at 0 (non-monotone, but a valid appraisal)
        res_q = rationalizable(pool[1], pool, cap)
        assert res_q.rationalizable and res_q.verified
        res_bonus = rationalizable(pool[2], pool, cap)
        assert res_bonus.rationalizable and res_bonus.verified

    def test_additive_rationalizability_implies_general(self, hedging):
        # additive priors are a special case of likelihood appraisals, so
        # anything an additive prior rationalizes stays rationalizable
        m = hedging.models["objective"]
        lang = m.language
        rng = random.Random(53)
        texts = ["p", "!p", "T", "(p | !p)", "(p & p)"]
        for _ in range(40):
            pool = []
            for i in range(rng.randint(2, 4)):
                support = rng.sample(texts, rng.randint(1, 2))
                pool.append(
                    strat(
                        lang,
                        {t: F(rng.randint(0, 6), 3) for t in support},
                        name=f"s{i + 1}",
                    )
                )
            chosen = pool[rng.randrange(len(pool))]
            additive = rationalizable(chosen, pool, m, additive_only=True)
            general = rationalizable(chosen, pool, m)
            if additive.rationalizable:
                assert general.rationalizable
            if not general.rationalizable:
                assert not additive.rationalizable
                # the dominating mixture strictly beats the choice at
                # every state of the materialized maximal model
                mm = maximal_model(m, strategy_events(m, layerings(m, pool)))
                ys = [transported_vector_oracle(mm, m, s) for s in pool]
                yx = transported_vector_oracle(mm, m, chosen)
                mix = [w for _, w in general.dominating_mixture]
                for state in mm.states:
                    mixed = sum(w * y[state] for w, y in zip(mix, ys))
                    assert mixed > yx[state]
