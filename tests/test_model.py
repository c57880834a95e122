import itertools
import random
from fractions import Fraction

import pytest

from credence.assessment import Assessment
from credence.errors import InputError
from credence.files import model_to_dict
from credence.logic import MAX_ATOMS, Atom, Language
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
    event_mask,
    explicit_lambda,
    from_labels,
    label_oracle,
    mobius_oracle,
    random_capacity,
    totally_monotone_direct,
    vector,
)

F = Fraction


def powerset(states):
    out = []
    for r in range(len(states) + 1):
        out.extend(frozenset(c) for c in itertools.combinations(states, r))
    return out


def model_from_lambda(states, lam, language=None, truth=None):
    lang = language or Language([])
    return from_labels(lang, states, truth or {}, lam=lam)


@pytest.fixture(scope="module")
def transport_capacity(transport_maps):
    return transport_maps.models["capacity"]


class TestClassifyTruth:
    def test_linda_model1_not_monotone(self, linda):
        flags = classify_truth(linda.models["model1"], linda.assessment.formulas)
        assert not flags.monotone
        assert ("(t & f)", "t") in flags.witnesses["monotone"]
        assert not flags.sound

    def test_linda_model2_respects_logic(self, linda):
        flags = classify_truth(linda.models["model2"], linda.assessment.formulas)
        assert flags.monotone
        assert flags.and_distributive
        assert flags.exact

    def test_canonical_valuation_is_sound(self):
        lang = Language(["p", "q"])
        states = ["v00", "v10", "v01", "v11"]
        truth = {
            lang.parse(t): frozenset(
                states[i] for i in range(4) if (lang.sat(lang.parse(t)) >> i) & 1
            )
            for t in ("p", "q", "(p & q)", "!p", "(p | q)")
        }
        m = from_labels(lang, states, truth, mass={s: F(1, 4) for s in states})
        assert classify_truth(m).sound


class TestClassifyLambda:
    def test_linda_model2_not_monotone_with_witness(self, linda):
        flags = classify_lambda(linda.models["model2"])
        assert not flags.monotone
        assert ("w2", "w2|w3") in flags.witnesses["monotone"]

    def test_transport_capacity_monotone_not_additive(self, transport_capacity):
        flags = classify_lambda(transport_capacity)
        assert flags.monotone
        assert not flags.additive

    def test_uniform_measure_additive(self):
        states = ["a", "b", "c"]
        lam = {ev: F(len(ev), 3) for ev in powerset(states)}
        m = model_from_lambda(states, lam)
        flags = classify_lambda(m)
        assert flags.additive and flags.monotone and flags.totally_monotone and flags.symmetric

    def test_additive_iff_symmetric_and_totally_monotone(self):
        rng = random.Random(5)
        states = ["a", "b", "c"]
        seen_both = 0
        for _ in range(120):
            lam = {frozenset(): F(0), frozenset(states): F(1)}
            for ev in powerset(states):
                if 0 < len(ev) < 3:
                    lam[ev] = F(rng.randint(0, 4), 4)
            m = model_from_lambda(states, lam)
            flags = classify_lambda(m)
            assert flags.additive == (flags.symmetric and flags.totally_monotone)
            if flags.additive:
                seen_both += 1
        assert seen_both  # the equivalence was exercised on both sides

    def test_totally_monotone_matches_direct_inequalities(self):
        states = ["a", "b", "c"]
        grid = [F(0), F(1, 2), F(1)]
        proper = [ev for ev in powerset(states) if 0 < len(ev) < 3]
        checked = 0
        for values in itertools.product(grid, repeat=len(proper)):
            lam = dict(zip(proper, values))
            lam[frozenset()] = F(0)
            lam[frozenset(states)] = F(1)
            m = model_from_lambda(states, lam)
            flags = classify_lambda(m)
            assert flags.totally_monotone == (
                flags.monotone and totally_monotone_direct(m)
            )
            checked += 1
        assert checked == 3 ** 6

    def test_missing_value_reported(self):
        states = ["a", "b"]
        lam = {frozenset(): F(0), frozenset(states): F(1), frozenset(["a"]): F(1, 2)}
        lang = Language(["p"])
        m = from_labels(lang, states, {lang.parse("p"): frozenset(["a"])}, lam=lam)
        with pytest.raises(ModelError):
            classify_lambda(m)


class TestMobius:
    def test_point_mass(self):
        states = ["a", "b"]
        lam = {ev: F(1) if "a" in ev else F(0) for ev in powerset(states)}
        m = model_from_lambda(states, lam)
        masses = by_labels(m, mobius(m))
        assert masses[frozenset(["a"])] == 1
        assert all(v == 0 for ev, v in masses.items() if ev != frozenset(["a"]))

    def test_uniform_additive_two_states(self):
        states = ["a", "b"]
        lam = {ev: F(len(ev), 2) for ev in powerset(states)}
        m = model_from_lambda(states, lam)
        masses = by_labels(m, mobius(m))
        assert masses[frozenset(["a"])] == F(1, 2)
        assert masses[frozenset(["b"])] == F(1, 2)
        assert masses[frozenset(states)] == 0

    def test_vacuous_capacity(self):
        states = ["a", "b", "c"]
        lam = {ev: F(1) if ev == frozenset(states) else F(0) for ev in powerset(states)}
        m = model_from_lambda(states, lam)
        masses = by_labels(m, mobius(m))
        oracle = mobius_oracle(states, lam)
        assert masses == oracle
        assert masses[frozenset(states)] == 1

    def test_zero_masses_share_one_fraction(self):
        states = ["a", "b", "c"]
        lam = {ev: F(1) if ev == frozenset(states) else F(0) for ev in powerset(states)}
        masses = mobius(model_from_lambda(states, lam))
        zeros = [v for v in masses.values() if not v]
        assert len(zeros) == 6 and all(v is zeros[0] for v in zeros)
        assert zeros[0] == 0 and zeros[0].denominator == 1

    def test_matches_oracle_and_inverts_exhaustively(self):
        states = ["a", "b"]
        grid = [F(0), F(1, 3), F(1)]
        proper = [frozenset(["a"]), frozenset(["b"])]
        for va, vb in itertools.product(grid, repeat=2):
            lam = {
                frozenset(): F(0),
                frozenset(states): F(1),
                proper[0]: va,
                proper[1]: vb,
            }
            m = model_from_lambda(states, lam)
            masses = mobius(m)
            assert by_labels(m, masses) == mobius_oracle(states, lam)
            back = inverse_mobius(masses, len(states))
            assert by_labels(m, back) == lam

    def test_roundtrip_random_up_to_six_states(self):
        rng = random.Random(17)
        for n in (3, 4, 5, 6):
            states = [f"s{i}" for i in range(n)]
            for _ in range(10):
                lam = {frozenset(): F(0), frozenset(states): F(1)}
                for ev in powerset(states):
                    if 0 < len(ev) < n:
                        lam[ev] = F(rng.randint(0, 12), 12)
                m = model_from_lambda(states, lam)
                masses = mobius(m)
                assert by_labels(m, inverse_mobius(masses, n)) == lam
                assert sum(masses.values()) == 1

    def test_table_bound_names_the_state_count(self):
        n = MAX_ATOMS + 1
        m = SubjectiveModel(Language([]), [f"s{i}" for i in range(n)], {})
        message = f"powerset capacity over {n} states would have 2^{n} entries"
        for refused in (lambda: mobius(m), lambda: inverse_mobius({1: F(1)}, n)):
            with pytest.raises(ModelError) as e:
                refused()
            assert message in str(e.value)

    def test_transforms_at_the_table_bound(self):
        n = MAX_ATOMS
        m = SubjectiveModel(Language([]), [f"s{i}" for i in range(n)], {}, mass=[F(1, n)] * n)
        masses = mobius(m)
        assert {ev for ev, v in masses.items() if v} == {1 << i for i in range(n)}
        lam = inverse_mobius(masses, n)
        assert len(lam) == 1 << n
        assert all(lam[ev] == m.lambda_of(ev) for ev in (0, 1, 0b1011, (1 << n) - 1))


class TestChoquet:
    def test_constant_payoff(self, transport_capacity):
        x = [F(1, 3)] * len(transport_capacity.states)
        assert choquet(transport_capacity, x) == F(1, 3)

    def test_indicator_under_quarter_capacity(self, hedging):
        m = hedging.models["objective"]
        assert choquet(m, vector(m, {"w1": F(1), "w2": F(0)})) == F(1, 4)

    def test_hand_evaluated_layer_sum(self, transport_capacity):
        x = {"w1": F(3), "w2": F(4), "w3": F(2)}
        assert choquet(transport_capacity, vector(transport_capacity, x)) == F(7, 3)

    def test_negative_payoff_rejected(self, transport_capacity):
        with pytest.raises(ModelError):
            choquet(transport_capacity, [F(-1), F(0), F(0)])

    def test_comonotone_additivity(self):
        rng = random.Random(23)
        states = ["a", "b", "c", "d"]
        for _ in range(60):
            lam = random_capacity(rng, states)
            m = model_from_lambda(states, lam)
            order = states[:]
            rng.shuffle(order)
            xs = sorted(F(rng.randint(0, 8), 4) for _ in states)
            ys = sorted(F(rng.randint(0, 8), 4) for _ in states)
            x = dict(zip(order, xs))
            y = dict(zip(order, ys))
            both = {s: x[s] + y[s] for s in states}
            assert choquet(m, vector(m, both)) == choquet(m, vector(m, x)) + choquet(
                m, vector(m, y)
            )

    def test_monotone_in_payoff_under_capacity(self):
        rng = random.Random(29)
        states = ["a", "b", "c"]
        for _ in range(60):
            lam = random_capacity(rng, states)
            m = model_from_lambda(states, lam)
            x = {s: F(rng.randint(0, 8), 4) for s in states}
            y = {s: x[s] + F(rng.randint(0, 4), 4) for s in states}
            assert choquet(m, vector(m, y)) >= choquet(m, vector(m, x))

    def test_additive_equals_dot_product(self):
        rng = random.Random(31)
        states = ["a", "b", "c"]
        for _ in range(40):
            weights = [F(rng.randint(0, 5)) for _ in states]
            if sum(weights) == 0:
                weights[0] = F(1)
            total = sum(weights)
            mass = {s: w / total for s, w in zip(states, weights)}
            m = from_labels(Language([]), states, {}, mass=mass)
            x = {s: F(rng.randint(0, 9), 3) for s in states}
            assert choquet(m, vector(m, x)) == sum(mass[s] * x[s] for s in states)


class TestRepresents:
    def test_linda_models_represent(self, linda):
        for name in ("model1", "model2"):
            rep = represents(linda.models[name], linda.assessment)
            assert rep.ok
            assert all(v == 0 for v in rep.residuals.values())

    def test_perturbed_value_reports_residual(self, linda):
        m2 = linda.models["model2"]
        lam = explicit_lambda(m2)
        lam[event_mask(m2, ["w2", "w3"])] = F(1, 3)
        perturbed = SubjectiveModel(
            m2.language, m2.states, dict(m2.truth), lam=lam
        )
        rep = represents(perturbed, linda.assessment)
        assert not rep.ok
        assert rep.residuals["t"] == F(1, 4) - F(1, 3)

    def test_missing_formula_reported(self, linda):
        # dropping an atom's event leaves the valuation ungroundable, so
        # the missing statement cannot be derived either
        m2 = linda.models["model2"]
        truth = dict(m2.truth)
        del truth[linda.language.parse("t")]
        stripped = SubjectiveModel(m2.language, m2.states, truth, lam=explicit_lambda(m2))
        rep = represents(stripped, linda.assessment)
        assert not rep.ok
        assert "t" in rep.missing

    def test_truth_event_without_an_appraisal_is_missing(self):
        lang = Language(["p"])
        p = lang.parse("p")
        model = SubjectiveModel(lang, ["a", "b"], {p: 0b01})
        rep = represents(model, Assessment(lang, {p: F(1, 2)}))
        assert not rep.ok
        assert rep.missing == ["p"]
        assert rep.residuals == {"F": 0, "T": 0}


class TestTruthOf:
    def test_exact_lookup_takes_the_first_equivalent_by_text(self):
        # p and (p & T) are equivalent but carry different events; any other
        # equivalent formula gets the event of the first of them by text
        lang = Language(["p", "q"])
        states = ["a", "b"]
        truth = {lang.parse("p"): ["a"], lang.parse("(p & T)"): ["b"]}
        m = from_labels(lang, states, truth, mass={"a": F(1, 2), "b": F(1, 2)}, exact_lookup=True)
        oracle = LabelModel(lang, states, truth, mass={"a": F(1, 2), "b": F(1, 2)},
                            exact_lookup=True)
        assert not m.grounded
        for text in ("(T & p)", "!!p", "(p | F)"):
            f = lang.parse(text)
            assert m.truth_of(f) == event_mask(m, ["b"])
            assert oracle.truth_of(f) == frozenset(["b"])
        assert m.truth_of(lang.parse("q")) is None
        assert m.truth_of(lang.parse("!p")) is None


class TestLabels:
    def test_an_appraisal_table_renders_like_the_scan(self):
        # 2,048 events over 16 states, named as canonical-sound names the
        # 4-atom valuations: the byte tables label them
        states = ["v" + format(i, "04b")[::-1] for i in range(16)]
        rng = random.Random(16)
        events = rng.sample(range(1, (1 << 16) - 1), 2046)
        m = SubjectiveModel(Language([]), states, lam={ev: F(1, 2) for ev in events})
        assert len(m.lam_numerators) == 2048
        assert list(model_to_dict(m)["lambda"]) == [
            label_oracle(m, ev) for ev in m.lam_numerators
        ]

    def test_truth_events_over_1024_states_render_like_the_scan(self):
        # a product model's shape: one truth event per coordinate, each
        # over half of 1,024 bit-reversed states, labelled by one pass each
        lang = Language([f"a{j}" for j in range(10)])
        states = ["w" + format(i, "010b")[::-1] for i in range(1024)]
        truth = {
            lang.parse(a): sum(1 << i for i in range(1024) if i >> j & 1)
            for j, a in enumerate(lang.atoms)
        }
        m = SubjectiveModel(lang, states, truth, mass=[F(1, 1024)] * 1024)
        out = model_to_dict(m)
        assert out["t"] == {
            a: label_oracle(m, truth[lang.parse(a)]).split("|") for a in lang.atoms
        }
        assert out["t"]["a0"][:3] == ["w1000000000", "w1000000001", "w1000000010"]

    def test_numbered_states_label_in_text_order(self):
        states = [f"w{i}" for i in range(12)]
        m = SubjectiveModel(Language([]), states)
        ev = 1 << 2 | 1 << 10 | 1 << 11
        assert m.label(ev) == "w10|w11|w2"
        assert m.labels(ev) == ["w10", "w11", "w2"]
        assert m.label(0) == "" and m.labels(0) == []
        assert m.label_events([m.omega]) == ["|".join(sorted(states))]


class TestStateLabels:
    def test_an_empty_state_label_is_refused(self):
        # it would share its label "" with the empty event
        with pytest.raises(ModelError, match="^state label '' is empty$"):
            SubjectiveModel(Language([]), ["", "a"], lam={1: F(1, 2)})
        with pytest.raises(ModelError, match="^state label '' is empty$"):
            SubjectiveModel(Language([]), ["a", ""])


class TestExactInputs:
    def test_a_float_value_is_refused(self):
        with pytest.raises(ModelError, match="0.5 is a binary float"):
            SubjectiveModel(Language([]), ["a", "b"], lam={1: 0.5})
        with pytest.raises(ModelError, match="binary float"):
            SubjectiveModel(Language([]), ["a", "b"], mass=[F(1, 2), 0.5])
        # exact spellings of the same values are taken
        m = SubjectiveModel(Language([]), ["a", "b"], lam={1: "1/2", 2: F(1, 2)})
        assert m.lambda_of(1) == m.lambda_of(2) == F(1, 2)

    def test_inverse_mobius_refuses_a_float_mass(self):
        with pytest.raises(ModelError, match="binary float"):
            inverse_mobius({1: 0.25, 3: F(3, 4)}, 2)


class TestRefusals:
    @pytest.mark.parametrize("given, message", [
        ({"truth": {Atom("p"): 0b100}}, "truth event for p mentions unknown states"),
        ({"mass": [F(1)]}, "masses must give one value per state, got 1"),
        ({"lam": {0b100: F(1, 2)}}, "lambda valued on an event with unknown states"),
    ], ids=["truth", "mass", "lambda"])
    def test_events_and_masses_off_the_states(self, given, message):
        with pytest.raises(ModelError) as refused:
            SubjectiveModel(Language(["p"]), ["a", "b"], **given)
        assert str(refused.value) == message
        assert isinstance(refused.value, InputError)

    def test_choquet_payoff_of_another_length(self):
        model = SubjectiveModel(Language([]), ["a", "b"], mass=[F(1, 2), F(1, 2)])
        with pytest.raises(ModelError) as refused:
            choquet(model, [F(1)])
        assert str(refused.value) == "payoff must value exactly the model's states"
        assert isinstance(refused.value, InputError)


def counting_model(n: int) -> SubjectiveModel:
    """``n`` equally likely states, state i making atom j true exactly
    when bit j of i is set: each state is a block of the field."""
    lang = Language([f"x{j}" for j in range(n.bit_length())])
    truth = {
        Atom(a): sum(1 << i for i in range(n) if i >> j & 1) for j, a in enumerate(lang.atoms)
    }
    return SubjectiveModel(lang, [f"s{i}" for i in range(n)], truth, mass=[F(1, n)] * n)


class TestFieldBound:
    def test_field_at_the_table_bound_is_graded(self):
        m = counting_model(MAX_ATOMS)
        assert len(m.field_atoms()) == MAX_ATOMS
        assert m.field_events()[-1] == m.omega
        assert len(m.field_events()) == 1 << MAX_ATOMS
        flags = classify_lambda(m)
        assert flags.additive and flags.totally_monotone

    def test_field_above_the_table_bound_is_refused(self):
        n = MAX_ATOMS + 1
        m = counting_model(n)
        assert len(m.field_atoms()) == n
        message = f"generated field over {n} blocks would have 2^{n} entries"
        for refused in (m.field_events, lambda: classify_lambda(m)):
            with pytest.raises(ModelError) as e:
                refused()
            assert message in str(e.value)


class TestEventRange:
    def test_a_mass_model_refuses_an_event_off_its_states(self):
        m = SubjectiveModel(Language([]), ["a", "b"], mass=[F(1, 4), F(3, 4)])
        assert m.lambda_numerator(0b11) == m.denominator
        assert m.lambda_of(0b10) == F(3, 4)
        for event in (0b100, 0b111, -1):
            with pytest.raises(ModelError, match="not a set of the model's states"):
                m.lambda_of(event)

    def test_an_appraisal_without_masses_gives_none_off_its_states(self):
        m = SubjectiveModel(Language([]), ["a", "b"], lam={1: F(1, 2)})
        assert m.lambda_of(0b100) is None
