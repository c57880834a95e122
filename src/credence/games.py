"""Strategies over statements, their state-payoff images under a sound
model, transport of payoffs into an alternative representation, and
rationalizability under general likelihood appraisals via pointwise
dominance in a maximal model.

A strategy pays a rational amount per statement.  Under a sound truth
valuation it induces a payoff vector over states (``t_circ``); that
vector decomposes into layers named by statements, which lets the same
strategy be evaluated inside any other representation of the same
assessment (``t_bullet``).  Rationalizability by *some* likelihood
appraisal reduces to strict pointwise undominance of the transported
payoffs in a maximal model whose coordinates are the events the
strategies actually name; the reduction's dominance test is an
exact-rational linear program, and every witness it produces is
re-verified by direct Choquet comparison, never trusted from the LP
alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import _simplex
from .assessment import Assessment
from .logic import Formula, unparse
from .model import ModelError, SubjectiveModel, choquet, event_label, represents

ZERO = Fraction(0)
ONE = Fraction(1)

MAX_COORDINATES = 16


class GamesError(ValueError):
    pass


class Strategy:
    """A finite-support map from statements to nonnegative payoffs."""

    def __init__(self, payoffs, name: str | None = None):
        self.payoffs: dict[Formula, Fraction] = {}
        for f, v in (payoffs.items() if isinstance(payoffs, dict) else payoffs):
            v = Fraction(v)
            if v < 0:
                raise GamesError(
                    f"strategy payoffs must be nonnegative (shift first); "
                    f"got {v} on {unparse(f)}"
                )
            if v > 0:
                self.payoffs[f] = self.payoffs.get(f, ZERO) + v
        self.name = name

    def support(self) -> list[Formula]:
        return sorted(self.payoffs, key=unparse)

    def __eq__(self, other):
        return isinstance(other, Strategy) and self.payoffs == other.payoffs

    def __hash__(self):
        return hash(frozenset(self.payoffs.items()))


def shift_nonnegative(payoffs) -> tuple[dict[Formula, Fraction], Fraction]:
    """Shift raw payoffs up to be nonnegative; returns (shifted, shift).
    Integrals of the shifted strategy are exactly shift higher."""
    values = {f: Fraction(v) for f, v in payoffs.items()}
    low = min(values.values(), default=ZERO)
    shift = -low if low < 0 else ZERO
    return {f: v + shift for f, v in values.items()}, shift


def _require_sound(model: SubjectiveModel, what: str):
    if not model.grounded:
        detail = (
            "; explicit entries disagree with the atom valuations on: "
            + ", ".join(model.grounding_mismatches)
            if model.grounding_mismatches
            else ""
        )
        raise GamesError(
            f"{what} needs a sound truth valuation (states grounded in atom "
            f"valuations){detail}"
        )


def t_circ(model: SubjectiveModel, strategy: Strategy) -> dict[str, Fraction]:
    """State payoff vector of a strategy under a sound valuation: at each
    state, the sum of payoffs of the statements true there.  Linear in
    the strategy."""
    _require_sound(model, "strategy evaluation")
    out = {s: ZERO for s in model.states}
    for f, v in strategy.payoffs.items():
        ev = model.truth_of(f)
        for s in ev:
            out[s] += v
    return out


def layer_decompose(
    payoff: dict[str, Fraction], model: SubjectiveModel
) -> list[tuple[Fraction, Formula]]:
    """Split a state payoff vector into layers (alpha_k, phi_k) with
    alpha_1 > alpha_2 > ... and t(phi_k) = the upper set {payoff >= alpha_k};
    sum_k (alpha_k - alpha_{k+1}) * 1_{t(phi_k)} rebuilds the vector
    (alpha after the last layer is 0, and a final zero layer is dropped).

    The statement naming each upper set is chosen canonically from the
    valuations the model's states realize; if states inside and outside
    an upper set share a valuation, no statement names it.
    """
    _require_sound(model, "layer decomposition")
    x = {s: Fraction(v) for s, v in payoff.items()}
    if set(x) != set(model.states):
        raise GamesError("payoff must value exactly the model's states")
    if any(v < 0 for v in x.values()):
        raise GamesError("payoff must be nonnegative")
    lang = model.language
    vals = model.state_valuation
    levels = sorted(set(x.values()), reverse=True)
    if levels and levels[-1] == 0:
        levels = levels[:-1]
    layers = []
    for a in levels:
        inside = [s for s in model.states if x[s] >= a]
        include = 0
        for s in inside:
            include |= 1 << vals[s]
        exclude = 0
        for s in model.states:
            if x[s] < a:
                exclude |= 1 << vals[s]
        if include & exclude:
            raise GamesError(
                f"upper set at level {a} has no statement naming it: states "
                "inside and outside share a valuation"
            )
        layers.append((a, lang.formula_from_valuations(include, exclude)))
    return layers


def _layer_weights(layers) -> list[Fraction]:
    weights = []
    for i, (a, _) in enumerate(layers):
        nxt = layers[i + 1][0] if i + 1 < len(layers) else ZERO
        weights.append(a - nxt)
    return weights


def _agreement_check(source, target, formulas, required):
    for f in formulas:
        sev = source.truth_of(f)
        tev = target.truth_of(f)
        if sev is None or tev is None:
            if required:
                raise GamesError(
                    f"target model does not value layer statement {unparse(f)}"
                )
            continue
        sl = source.lambda_of(sev)
        tl = target.lambda_of(tev)
        if sl is None or tl is None:
            if required:
                raise GamesError(
                    f"appraisal missing on the events of {unparse(f)}"
                )
            continue
        if sl != tl:
            raise GamesError(
                f"representation mismatch on {unparse(f)}: source gives {sl}, "
                f"target gives {tl}"
            )


def t_bullet(
    source: SubjectiveModel,
    target: SubjectiveModel,
    strategy: Strategy,
    assessment: Assessment | None = None,
) -> dict[str, Fraction]:
    """Transport a strategy's payoffs into another representation: rebuild
    the layer sum with the target's truth events.  The two models must
    value the layer statements identically (checked; also checked across
    the target's explicit domain, and against ``assessment`` when given)."""
    if assessment is not None:
        for m, label in ((source, "source"), (target, "target")):
            rep = represents(m, assessment)
            if not rep.ok:
                raise GamesError(
                    f"representation mismatch: the {label} model does not "
                    "reproduce the assessment"
                )
    x = t_circ(source, strategy)
    layers = layer_decompose(x, source)
    _agreement_check(source, target, [f for _, f in layers], required=True)
    _agreement_check(source, target, target.truth_domain(), required=False)
    weights = _layer_weights(layers)
    out = {s: ZERO for s in target.states}
    for w, (_, f) in zip(weights, layers):
        tev = target.truth_of(f)
        for s in tev:
            out[s] += w
    return out


@dataclass
class IntegralComparison:
    equal: bool
    source_value: Fraction
    target_value: Fraction

    def to_dict(self) -> dict:
        return {
            "equal": self.equal,
            "source_value": str(self.source_value),
            "target_value": str(self.target_value),
        }


def verify_integral_equality(
    source: SubjectiveModel,
    target: SubjectiveModel,
    strategy: Strategy,
    assessment: Assessment | None = None,
) -> IntegralComparison:
    """Choquet value of the strategy under the sound source versus the
    integral of the transported payoffs under the target."""
    lhs = choquet(source, t_circ(source, strategy))
    rhs = choquet(target, t_bullet(source, target, strategy, assessment))
    return IntegralComparison(lhs == rhs, lhs, rhs)


# -- maximal model -----------------------------------------------------------


@dataclass
class MaximalModel:
    base: SubjectiveModel
    coordinates: tuple[frozenset, ...]

    def __post_init__(self):
        k = len(self.coordinates)
        if k > MAX_COORDINATES:
            raise GamesError(
                f"maximal model capped at {MAX_COORDINATES} coordinates, got {k}"
            )
        self.states = tuple(
            "m" + format(i, f"0{k}b")[::-1] if k else "m" for i in range(1 << k)
        )

    def cylinder(self, event: frozenset) -> frozenset:
        """States whose coordinate for ``event`` reads 1; the full or empty
        event maps to the full or empty state set."""
        if event == self.base.omega:
            return frozenset(self.states)
        if not event:
            return frozenset()
        try:
            j = self.coordinates.index(event)
        except ValueError:
            raise GamesError(
                f"event {event_label(event)} is not a coordinate of the maximal model"
            ) from None
        return frozenset(
            self.states[i] for i in range(len(self.states)) if (i >> j) & 1
        )


def strategy_events(model: SubjectiveModel, strategies) -> list[frozenset]:
    """The distinct layer upper-set events named by the strategies,
    excluding the full and empty event; these are the coordinates the
    maximal model needs."""
    events = set()
    for s in strategies:
        x = t_circ(model, s)
        for _, f in layer_decompose(x, model):
            ev = model.truth_of(f)
            if ev and ev != model.omega:
                events.add(ev)
    return sorted(events, key=lambda e: (len(e), event_label(e)))


def maximal_model(model: SubjectiveModel, events) -> MaximalModel:
    events = [frozenset(e) for e in events]
    for e in events:
        if not e or e == model.omega:
            raise GamesError("coordinates must be proper nonempty events")
    if len(set(events)) != len(events):
        raise GamesError("duplicate coordinate events")
    return MaximalModel(model, tuple(events))


def transported_vector(
    mm: MaximalModel, model: SubjectiveModel, strategy: Strategy
) -> dict[str, Fraction]:
    """The strategy's payoffs transported into the maximal model: the layer
    sum with each upper-set event replaced by its coordinate cylinder."""
    layers = layer_decompose(t_circ(model, strategy), model)
    weights = _layer_weights(layers)
    out = {s: ZERO for s in mm.states}
    for w, (_, f) in zip(weights, layers):
        cyl = mm.cylinder(model.truth_of(f))
        for s in cyl:
            out[s] += w
    return out


# -- dominance ----------------------------------------------------------------


@dataclass
class DominanceResult:
    dominated: bool
    mode: str
    epsilon: Fraction | None
    mixture: list[Fraction] | None
    prior: dict[str, Fraction] | None

    def to_dict(self) -> dict:
        return {
            "dominated": self.dominated,
            "mode": self.mode,
            "epsilon": None if self.epsilon is None else str(self.epsilon),
            "mixture": None if self.mixture is None else [str(v) for v in self.mixture],
            "prior": None
            if self.prior is None
            else {s: str(v) for s, v in sorted(self.prior.items())},
        }


def pointwise_undominated(x, alternatives, weak: bool = False) -> DominanceResult:
    """Whether some mixture of the alternatives strictly (default) or
    weakly beats ``x`` at every state.

    Strict mode solves  max epsilon s.t. mix >= x + epsilon everywhere,
    mix in the simplex; dominated means optimal epsilon > 0, with the
    mixture as certificate.  Undominated returns the LP dual: a
    probability over states under which ``x`` is a best response.
    """
    alternatives = list(alternatives)
    if not alternatives:
        raise GamesError("dominance needs a nonempty set of alternatives")
    states = sorted(x)
    for alt in alternatives:
        if set(alt) != set(states):
            raise GamesError("payoff vectors must share one state space")
    if not weak:
        matrix = [
            [Fraction(alt[s]) - Fraction(x[s]) for s in states] for alt in alternatives
        ]
        game = _simplex.solve_matrix_game(matrix)
        if game.value > 0:
            return DominanceResult(True, "strict", game.value, game.row_mixture, None)
        prior = dict(zip(states, game.col_mixture))
        return DominanceResult(False, "strict", game.value, None, prior)

    # weak mode: maximize the total slack of a mixture kept >= x pointwise
    c = [sum(Fraction(alt[s]) for s in states) for alt in alternatives]
    a_ub = [[-Fraction(alt[s]) for alt in alternatives] for s in states]
    b_ub = [-Fraction(x[s]) for s in states]
    a_eq = [[ONE] * len(alternatives)]
    res = _simplex.maximize(c, a_ub, b_ub, a_eq, [ONE])
    if res.status != "optimal":
        return DominanceResult(False, "weak", None, None, None)
    slack = res.value - sum(Fraction(x[s]) for s in states)
    if slack > 0:
        return DominanceResult(True, "weak", slack, res.x, None)
    return DominanceResult(False, "weak", slack, None, None)


# -- rationalizability ---------------------------------------------------------


@dataclass
class RationalizabilityResult:
    rationalizable: bool
    mode: str
    choice: str
    epsilon: Fraction | None = None
    dominating_mixture: list[tuple[str, Fraction]] | None = None
    witness_events: dict[frozenset, Fraction] | None = None
    witness_mass: dict[str, Fraction] | None = None
    witness_source: str | None = None
    choquet_values: list[tuple[str, Fraction]] | None = None
    coordinates: list[frozenset] = field(default_factory=list)
    verified: bool = False

    def to_dict(self) -> dict:
        return {
            "rationalizable": self.rationalizable,
            "mode": self.mode,
            "choice": self.choice,
            "epsilon": None if self.epsilon is None else str(self.epsilon),
            "dominating_mixture": None
            if self.dominating_mixture is None
            else {n: str(v) for n, v in self.dominating_mixture},
            "witness_lambda": None
            if self.witness_events is None
            else {event_label(e): str(v) for e, v in sorted(
                self.witness_events.items(), key=lambda kv: (len(kv[0]), event_label(kv[0]))
            )},
            "witness_mass": None
            if self.witness_mass is None
            else {s: str(v) for s, v in sorted(self.witness_mass.items())},
            "witness_source": self.witness_source,
            "choquet_values": None
            if self.choquet_values is None
            else {n: str(v) for n, v in self.choquet_values},
            "coordinates": [event_label(e) for e in self.coordinates],
            "verified": self.verified,
        }


def _names(pool) -> list[str]:
    return [s.name or f"s{i + 1}" for i, s in enumerate(pool)]


def _witness_from_events(model, events) -> SubjectiveModel:
    return SubjectiveModel(
        model.language,
        model.states,
        dict(model.truth),
        lam={e: v for e, v in events.items()},
        name="witness",
    )


def rationalizable(
    strategy: Strategy,
    pool,
    model: SubjectiveModel,
    additive_only: bool = False,
    weak: bool = False,
) -> RationalizabilityResult:
    """Whether the chosen strategy maximizes some likelihood appraisal's
    Choquet payoff over the pool (or some additive prior's expected
    payoff, with ``additive_only``).

    The decision runs Wald-Pearce dominance on the transported payoff
    vectors in the maximal model built from the pool's named events.
    When rationalizable, the witness appraisal is the model's own one if
    it is present and verifies, otherwise the LP prior pulled back along
    the coordinates; either way the reported witness is confirmed by
    comparing exact Choquet values of every pool member.  Weak mode is a
    sensitivity check only: its LP carries no best-response dual, so a
    weakly undominated choice may come back without a witness.
    """
    pool = list(pool)
    if strategy not in pool:
        raise GamesError("the chosen strategy must belong to the comparison pool")
    names = _names(pool)
    choice_name = names[pool.index(strategy)]
    mode = "weak" if weak else "strict"

    base_vectors = [t_circ(model, s) for s in pool]
    x_choice = base_vectors[pool.index(strategy)]

    if additive_only:
        dom = pointwise_undominated(x_choice, base_vectors, weak=weak)
        if dom.dominated:
            return RationalizabilityResult(
                False,
                f"additive-{mode}",
                choice_name,
                epsilon=dom.epsilon,
                dominating_mixture=list(zip(names, dom.mixture)),
            )
        result = RationalizabilityResult(
            True, f"additive-{mode}", choice_name, epsilon=dom.epsilon
        )
        if dom.prior is not None:
            witness = SubjectiveModel(
                model.language, model.states, dict(model.truth), mass=dom.prior,
                name="additive-witness",
            )
            values = [(n, choquet(witness, v)) for n, v in zip(names, base_vectors)]
            chosen_value = dict(values)[choice_name]
            result.witness_mass = dom.prior
            result.choquet_values = values
            result.verified = all(chosen_value >= v for _, v in values)
            if not result.verified:
                raise GamesError("internal: additive witness failed verification")
        return result

    events = strategy_events(model, pool)
    mm = maximal_model(model, events)
    vectors = [transported_vector(mm, model, s) for s in pool]
    y_choice = vectors[pool.index(strategy)]
    dom = pointwise_undominated(y_choice, vectors, weak=weak)
    if dom.dominated:
        return RationalizabilityResult(
            False,
            mode,
            choice_name,
            epsilon=dom.epsilon,
            dominating_mixture=list(zip(names, dom.mixture)),
            coordinates=list(events),
        )

    result = RationalizabilityResult(
        True, mode, choice_name, epsilon=dom.epsilon, coordinates=list(events)
    )

    candidates = []
    if any(model.lambda_of(ev) is not None for ev in events) and model.lam:
        candidates.append(("model", model))
    if dom.prior is not None:
        pulled = {ev: sum(dom.prior[s] for s in mm.cylinder(ev)) for ev in events}
        pulled[model.omega] = ONE
        pulled[frozenset()] = ZERO
        candidates.append(("maximal-model prior", _witness_from_events(model, pulled)))

    for source, witness in candidates:
        try:
            values = [(n, choquet(witness, v)) for n, v in zip(names, base_vectors)]
        except ModelError:
            continue
        chosen_value = dict(values)[choice_name]
        if all(chosen_value >= v for _, v in values):
            result.witness_source = source
            result.choquet_values = values
            result.witness_events = {
                ev: witness.lambda_of(ev) for ev in list(events) + [model.omega, frozenset()]
            }
            result.verified = True
            break
    if not result.verified and not weak:
        raise GamesError("internal: no witness appraisal verified")
    return result
