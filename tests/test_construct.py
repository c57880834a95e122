import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from credence.assessment import Assessment, check_e, check_i, check_nt
from credence.construct import (
    BuildError,
    build_additive_sound,
    build_belief_lift,
    build_canonical_sound,
    build_interval_additive,
    build_product_model,
)
from credence.files import load_model, model_to_dict
from credence.logic import FALSE, MAX_ATOMS, TRUE, Language
from credence.model import (
    SubjectiveModel,
    classify_lambda,
    classify_truth,
    inverse_mobius,
    represents,
)

from helpers import (
    from_labels,
    full_closure_classes,
    random_and_closed_universe,
    random_monotone_assessment,
)

F = Fraction
PQ = Language(["p", "q"])


def make(lang, table):
    return Assessment(lang, {lang.parse(t): F(v) for t, v in table.items()})


def powerset(states):
    out = []
    for r in range(len(states) + 1):
        out.extend(frozenset(c) for c in itertools.combinations(states, r))
    return out


class TestProduct:
    def test_single_statement(self):
        lang = Language(["p"])
        out = build_product_model(make(lang, {"p": "2/5"}))
        assert len(out.model.states) == 2
        assert out.model.lambda_of(out.model.truth_of(lang.parse("p"))) == F(2, 5)

    def test_linda_marginal(self, linda):
        out = build_product_model(linda.assessment)
        m = out.model
        assert len(m.states) == 8
        f = linda.language.parse("f")
        # oracle: sum the product masses over the f-coordinate directly
        ev = m.truth_of(f)
        assert sum(m.mass[i] for i in range(len(m.states)) if ev >> i & 1) == F(3, 4)
        assert m.lambda_of(ev) == F(3, 4)
        assert represents(m, linda.assessment).ok

    def test_equivalent_statements_get_independent_coordinates(self):
        a = make(PQ, {"p": "1/2", "!!p": "1/2"})
        out = build_product_model(a)
        flags = classify_truth(out.model, a.formulas)
        assert not flags.exact

    def test_nt_required(self):
        a = make(PQ, {"T": "1", "F": "1/10"})
        with pytest.raises(BuildError) as e:
            build_product_model(a)
        assert e.value.axiom == "NT"

    def test_table_bound_names_the_coordinates(self):
        n = MAX_ATOMS + 1
        lang = Language(["p", "q", "r"])
        a = Assessment(lang, {f: F(1, 2) for _, f in full_closure_classes(lang)[1:n + 1]})
        with pytest.raises(BuildError) as e:
            build_product_model(a)
        assert f"product state space over {n} coordinates would have 2^{n} entries" in str(e.value)


class TestCanonicalSound:
    def test_linda_sound_but_not_monotone(self, linda):
        out = build_canonical_sound(linda.assessment)
        m = out.model
        lang = linda.language
        assert represents(m, linda.assessment).ok
        assert classify_truth(m, linda.assessment.formulas).sound
        assert m.lambda_of(m.truth_of(lang.parse("t"))) == F(1, 4)
        assert m.lambda_of(m.truth_of(lang.parse("(t & f)"))) == F(1, 2)
        flags = classify_lambda(m)
        assert not flags.monotone

    def test_probability_restriction_gives_additive_appraisal(self):
        # pi := mu(sat(.)) for a full-closure universe makes the inner
        # extension coincide with mu, hence additive on the field
        weights = [F(1, 8), F(3, 8), F(1, 4), F(1, 4)]
        table = {
            f: sum(weights[i] for i in range(4) if (bits >> i) & 1)
            for bits, f in full_closure_classes(PQ)
        }
        a = Assessment(PQ, table)
        out = build_canonical_sound(a)
        assert classify_lambda(out.model).additive

    def test_certainty_maps_to_full_event(self, linda):
        out = build_canonical_sound(linda.assessment)
        assert out.model.lambda_of(out.model.omega) == 1

    def test_equivalence_violation_blocks(self):
        a = make(PQ, {"p": "1/2", "!!p": "1/3"})
        with pytest.raises(BuildError) as e:
            build_canonical_sound(a)
        assert e.value.axiom == "E"

    def test_field_above_the_table_bound_is_not_materialized(self):
        # one block per assessed minterm, and one for the rest
        lang = Language(["p", "q", "r", "s", "t"])
        a = Assessment(lang, {lang.minterm(i): F(1, 32) for i in range(MAX_ATOMS)})
        out = build_canonical_sound(a)
        assert len(out.model.field_atoms()) == MAX_ATOMS + 1
        assert "generated field too large to materialize" in out.notes[0]
        assert set(out.model.lam_numerators) == {a.language.sat(f) for f in a.formulas}
        assert "lambda monotone on field" not in {c.name for c in out.certificate}

    def test_field_at_the_table_bound_is_inner_extended(self):
        # fifteen assessed minterms and the rest: 16 blocks, 2^16 field events
        lang = Language(["p", "q", "r", "s"])
        a = Assessment(lang, {lang.minterm(i): F(1, 16) for i in range(MAX_ATOMS - 1)})
        out = build_canonical_sound(a)
        assert out.notes == ["appraisal inner-extended to the generated field"]
        assert len(out.model.lam_numerators) == 1 << MAX_ATOMS
        # the rest is no named event: its inner extension is 0
        assert out.model.lambda_of(lang.sat(lang.minterm(MAX_ATOMS - 1))) == 0
        assert out.model.lambda_of(lang.sat(lang.parse("(p | q)"))) == F(1, 16)
        assert {c.name: c.ok for c in out.certificate}["lambda monotone on field"] is True

    def test_many_atoms_with_few_blocks_are_inner_extended(self):
        # 8192 valuations, but three statements cut them into at most 8 blocks
        lang = Language([f"x{i}" for i in range(13)])
        a = make(lang, {"x0": "1/2", "(x0 & x1)": "1/4", "x2": "1/3"})
        out = build_canonical_sound(a)
        assert out.notes == ["appraisal inner-extended to the generated field"]
        m = out.model
        assert lang.sat(lang.parse("(x0 | x2)")) in m.lam_numerators
        assert m.lambda_of(lang.sat(lang.parse("(x0 | x2)"))) == F(1, 2)
        assert {c.name: c.ok for c in out.certificate}["lambda monotone on field"] is True

    def test_monotone_certificate_when_i_holds(self):
        rng = random.Random(2)
        a = random_monotone_assessment(rng, PQ)
        out = build_canonical_sound(a)
        entry = {c.name: c.ok for c in out.certificate}
        assert entry.get("lambda monotone on field") is True


class TestIntervalAdditive:
    def test_nested_segments_on_chain(self):
        a = make(PQ, {"(p & q)": "1/4", "p": "1/2"})
        out = build_interval_additive(a)
        m = out.model
        t_pq = m.truth_of(PQ.parse("(p & q)"))
        t_p = m.truth_of(PQ.parse("p"))
        assert t_pq & ~t_p == 0 and t_p & ~m.omega == 0
        assert t_pq != t_p != m.omega
        assert represents(m, a).ok
        assert classify_lambda(m).additive

    def test_linda_refused(self, linda):
        with pytest.raises(BuildError) as e:
            build_interval_additive(linda.assessment)
        assert e.value.axiom == "I"

    def test_zero_value_maps_to_empty(self):
        a = make(PQ, {"(p & !p)": "0", "p": "1/2"})
        out = build_interval_additive(a)
        assert out.model.truth_of(PQ.parse("(p & !p)")) == 0


class TestBeliefLift:
    def test_point_mass_is_relabeling(self):
        lang = Language(["p"])
        states = ["a", "b"]
        lam = {ev: F(1) if "a" in ev else F(0) for ev in powerset(states)}
        m = from_labels(lang, states, {lang.parse("p"): frozenset(["a"])}, lam=lam)
        out = build_belief_lift(m)
        lifted = out.model
        assert lifted.states == ("a",)
        assert lifted.mass == (1,)
        assert lifted.lambda_of(lifted.truth_of(lang.parse("p"))) == 1

    def test_vacuous_capacity(self):
        lang = Language(["p"])
        states = ["a", "b"]
        lam = {ev: F(1) if ev == frozenset(states) else F(0) for ev in powerset(states)}
        m = from_labels(lang, states, {lang.parse("p"): frozenset(["a"])}, lam=lam)
        out = build_belief_lift(m)
        lifted = out.model
        assert lifted.states == ("a+b",)
        assert lifted.mass == (1,)
        # p's old event is a proper subset, so no lifted state sits inside it
        assert lifted.truth_of(lang.parse("p")) == 0

    def test_uniform_additive_two_states(self):
        lang = Language(["p"])
        states = ["a", "b"]
        lam = {ev: F(len(ev), 2) for ev in powerset(states)}
        m = from_labels(lang, states, {lang.parse("p"): frozenset(["a"])}, lam=lam)
        out = build_belief_lift(m)
        assert out.model.states == ("a", "b")
        assert out.model.mass == (F(1, 2), F(1, 2))
        assert out.model.lambda_of(out.model.truth_of(lang.parse("p"))) == F(1, 2)

    def test_not_belief_function_rejected(self, linda):
        with pytest.raises(BuildError) as e:
            build_belief_lift(linda.models["model2"])
        assert "negative Mobius mass" in str(e.value)

    def test_transport_capacity_lift(self, transport_maps):
        out = build_belief_lift(transport_maps.models["capacity"])
        assert out.ok
        flags = classify_truth(out.model, transport_maps.models["capacity"].truth_domain())
        assert flags.exact and flags.and_distributive

    def test_lift_reloads_answering_what_it_answered(self, transport_maps, tmp_path):
        # the lift rule answers only for formulas equivalent to a listed
        # one; the reloaded model is not grounded in its atoms' events either
        lifted = build_belief_lift(transport_maps.models["capacity"]).model
        path = tmp_path / "lifted.json"
        path.write_text(json.dumps(model_to_dict(lifted)))
        reloaded = load_model(path, lifted.language)
        not_p = lifted.language.parse("!p")
        assert lifted.truth_of(not_p) is None
        assert reloaded.truth_of(not_p) is None
        assert not lifted.grounded and not reloaded.grounded
        assert model_to_dict(reloaded) == model_to_dict(lifted)

    def test_table_bound_names_the_state_count(self):
        # refused before the Mobius transform, which would raise a ModelError
        n = MAX_ATOMS + 1
        m = SubjectiveModel(Language([]), [f"s{i}" for i in range(n)], {})
        with pytest.raises(BuildError) as e:
            build_belief_lift(m)
        assert f"belief lift's powerset over {n} states would have 2^{n} entries" in str(e.value)

    def test_lift_at_the_table_bound(self):
        n = MAX_ATOMS
        m = SubjectiveModel(Language([]), [f"s{i}" for i in range(n)], {}, mass=[F(1, n)] * n)
        out = build_belief_lift(m)
        assert out.ok
        assert dict(zip(out.model.states, out.model.mass)) == dict(zip(m.states, m.mass))

    def test_colliding_state_labels_are_refused(self):
        # mass 1/2 on {a, b} and 1/2 on {a+b}: both focal events are labelled a+b
        lam = inverse_mobius({0b011: F(1, 2), 0b100: F(1, 2)}, 3)
        m = SubjectiveModel(Language([]), ["a", "b", "a+b"], {}, lam=lam)
        with pytest.raises(BuildError) as e:
            build_belief_lift(m)
        assert str(e.value) == "focal events a+b and a|b would both become the state a+b"


class TestAdditiveSound:
    def test_uniform_distribution_recovered(self):
        weights = [F(1, 4)] * 4
        table = {
            f: sum(weights[i] for i in range(4) if (bits >> i) & 1)
            for bits, f in full_closure_classes(PQ)
        }
        a = Assessment(PQ, table)
        out = build_additive_sound(a)
        assert set(out.model.mass) == {F(1, 4)}
        assert represents(out.model, a).ok
        assert classify_truth(out.model, a.formulas).sound

    def test_linda_rejected(self, linda):
        with pytest.raises(BuildError) as e:
            build_additive_sound(linda.assessment)
        assert e.value.axiom == "A"

    def test_trivial_universe_zero_atoms(self):
        lang = Language([])
        out = build_additive_sound(Assessment(lang, {}))
        assert out.model.states == ("v",)
        assert out.model.mass == (1,)

    def test_underdetermined_refused(self):
        a = make(PQ, {"(p | q)": "3/4"})
        with pytest.raises(BuildError) as e:
            build_additive_sound(a)
        assert "under-determined" in str(e.value)

    @pytest.mark.parametrize("pinned, tail", [
        (6, ", (((p & q) & r) & !s), (((p & q) & r) & s)"),
        (5, ", (((p & q) & r) & !s), ... and 1 more"),
    ])
    def test_listing_is_cut_from_11_unresolved_valuations(self, pinned, tail):
        # each assessed minterm pins its own valuation; 16 - pinned stay open
        lang = Language(["p", "q", "r", "s"])
        pi = {TRUE: F(1), **{lang.minterm(i): F(1, 16) for i in range(pinned)}}
        with pytest.raises(BuildError) as e:
            build_additive_sound(Assessment(lang, pi))
        assert str(e.value).startswith(
            "universe under-determined: no assessed combination pins down "
            "(((!p & !q) & !r) & s), "
        )
        assert str(e.value).endswith(tail)
        assert str(e.value).count(" & ") == 10 * 3

    def test_under_determined_listing_is_bounded_at_11_atoms(self):
        lang = Language([f"a{i}" for i in range(11)])
        a = Assessment(lang, {TRUE: F(1), FALSE: F(0)})
        with pytest.raises(BuildError) as e:
            build_additive_sound(a)
        first = "(" * 10 + "!a0 & !a1) & !a2) & !a3) & !a4) & !a5) & !a6) & !a7) & !a8) & !a9) & !a10)"
        assert str(e.value).startswith(
            "universe under-determined: no assessed combination pins down " + first + ", "
        )
        assert str(e.value).endswith(", ... and 2038 more")
        assert str(e.value).count(" & ") == 10 * 10

    def test_under_determined_refusal_is_fast_at_16_atoms(self):
        lang = Language([f"a{i}" for i in range(16)])
        a = Assessment(lang, {TRUE: F(1), FALSE: F(0)})
        start = time.perf_counter()
        with pytest.raises(BuildError) as e:
            build_additive_sound(a)
        assert time.perf_counter() - start < 1
        assert str(e.value).endswith(", ... and 65526 more")
        assert str(e.value).count(" & ") == 10 * 15


class TestDualityRoundtrip:
    def test_canonical_and_interval_both_represent(self):
        lang3 = Language(["p", "q", "r"])
        rng = random.Random(41)
        for _ in range(40):
            classes = random_and_closed_universe(rng, lang3)
            if len(classes) > 30:
                continue
            a = random_monotone_assessment(rng, lang3, classes)
            assert check_nt(a).passed and check_e(a).passed and check_i(a).passed
            sound = build_canonical_sound(a)
            assert classify_truth(sound.model, a.formulas).sound
            assert represents(sound.model, a).ok
            interval = build_interval_additive(a)
            assert classify_lambda(interval.model).additive
            assert represents(interval.model, a).ok

    def test_canonical_roundtrip_preserves_values(self):
        # a sound+additive model induces pi; rebuilding from pi keeps
        # every lambda(t(.)) value
        rng = random.Random(43)
        for _ in range(20):
            weights = [F(rng.randint(0, 5)) for _ in range(4)]
            if sum(weights) == 0:
                weights[0] = F(1)
            total = sum(weights)
            table = {
                f: sum(weights[i] for i in range(4) if (bits >> i) & 1) / total
                for bits, f in full_closure_classes(PQ)
            }
            a = Assessment(PQ, table)
            out = build_canonical_sound(a)
            for f in a.formulas:
                assert out.model.lambda_of(out.model.truth_of(f)) == a.value(f)


class TestLiftRoundtrip:
    def test_preservation_random_four_states(self):
        rng = random.Random(47)
        lang = Language(["p", "q"])
        states = ["a", "b", "c", "d"]
        truth = {
            lang.parse("p"): frozenset(["a", "b"]),
            lang.parse("q"): frozenset(["a", "c"]),
            lang.parse("(p & q)"): frozenset(["a"]),
            lang.parse("(p | q)"): frozenset(["a", "b", "c"]),
        }
        for _ in range(25):
            # random belief function via random nonnegative masses
            events = [ev for ev in powerset(states) if ev]
            raw = [F(rng.randint(0, 4)) for _ in events]
            if sum(raw) == 0:
                raw[-1] = F(1)
            total = sum(raw)
            masses = {ev: w / total for ev, w in zip(events, raw)}
            lam = {
                ev: sum((m for sub, m in masses.items() if sub <= ev), F(0))
                for ev in powerset(states)
            }
            m = from_labels(lang, states, truth, lam=lam)
            out = build_belief_lift(m)
            for f in truth:
                assert m.lambda_of(m.truth[f]) == out.model.lambda_of(
                    out.model.truth[f]
                )
