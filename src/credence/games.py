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
payoffs in a maximal model whose coordinates are the k events the
strategies actually name.  That model is never materialized: each
transported payoff is affine in the k coordinate bits, so dominance
over its 2^k states is one exact-rational linear program with pool +
k + 1 variables, and no cap on k is needed.  Every witness it produces
is re-verified by direct Choquet comparison, never trusted from the LP
alone.

The decision runs in ints over the pool's one denominator: state
vectors, layer levels and weights, affine forms and LP rows are all int
numerators over it, each LP being the one in payoff units times that
denominator, with the same pivots, vertices and duals.  A ``Fraction``
is built only for a reported value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import _simplex
from ._exact import exact, over_one_denominator
from .assessment import Assessment
from .errors import InputError, InternalError
from .logic import Formula, unparse
from .model import ModelError, SubjectiveModel, bits, choquet, represents, upper_sets

ZERO = Fraction(0)
ONE = Fraction(1)


class GamesError(InputError):
    pass


class Strategy:
    """A finite-support map from statements to nonnegative payoffs."""

    def __init__(self, payoffs, name: str | None = None):
        self.payoffs: dict[Formula, Fraction] = {}
        for f, v in (payoffs.items() if isinstance(payoffs, dict) else payoffs):
            v = exact(v, GamesError)
            if v < 0:
                raise GamesError(
                    f"strategy payoffs must be nonnegative (shift first); "
                    f"got {v} on {unparse(f)}"
                )
            if v > 0:
                self.payoffs[f] = self.payoffs.get(f, ZERO) + v
        self.name = name

    def __eq__(self, other):
        return isinstance(other, Strategy) and self.payoffs == other.payoffs

    def __hash__(self):
        return hash(frozenset(self.payoffs.items()))


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


def _state_numerators(model: SubjectiveModel, pool) -> tuple[int, list[list[int]]]:
    """``t_circ`` of each pool member as int numerators over one
    denominator, the lcm of the pool's payoff denominators."""
    _require_sound(model, "strategy evaluation")
    den, nums = over_one_denominator(v for s in pool for v in s.payoffs.values())
    nums = iter(nums)
    vectors = []
    for s in pool:
        out = [0] * len(model.states)
        for f, v in zip(s.payoffs, nums):
            for i in bits(model.truth_of(f)):
                out[i] += v
        vectors.append(out)
    return den, vectors


def t_circ(model: SubjectiveModel, strategy: Strategy) -> list[Fraction]:
    """State payoff vector of a strategy under a sound valuation, in state
    order: at each state, the sum of payoffs of the statements true
    there.  Linear in the strategy."""
    d, (x,) = _state_numerators(model, [strategy])
    return [Fraction(v, d) for v in x]


def layer_decompose(payoff, model: SubjectiveModel) -> list[tuple[Fraction, Formula]]:
    """Split a state payoff vector, one value per state in state order,
    into layers (alpha_k, phi_k) with alpha_1 > alpha_2 > ... and
    t(phi_k) = the upper set {payoff >= alpha_k};
    sum_k (alpha_k - alpha_{k+1}) * 1_{t(phi_k)} rebuilds the vector
    (alpha after the last layer is 0, and a final zero layer is dropped).

    The statement naming each upper set is chosen canonically from the
    valuations the model's states realize; if states inside and outside
    an upper set share a valuation, no statement names it.  Int payoffs
    are taken as they are: numerators over any one denominator give the
    levels as numerators over the same one.
    """
    _require_sound(model, "layer decomposition")
    x = list(payoff)
    if len(x) != len(model.states):
        raise GamesError("payoff must value exactly the model's states")
    if any(v < 0 for v in x):
        raise GamesError("payoff must be nonnegative")
    lang = model.language
    layers = []
    for a, inside in upper_sets(x):
        if a == 0:
            break
        include = exclude = 0
        for v, states in model.valuation_events.items():
            if states & inside:
                include |= 1 << v
            if states & ~inside:
                exclude |= 1 << v
        if include & exclude:
            raise GamesError(
                f"upper set at level {a} has no statement naming it: states "
                "inside and outside share a valuation"
            )
        layers.append((a, lang.formula_from_valuations(include, exclude)))
    return layers


def _layer_weights(layers) -> list:
    weights = []
    for i, (a, _) in enumerate(layers):
        nxt = layers[i + 1][0] if i + 1 < len(layers) else 0
        weights.append(a - nxt)
    return weights


def _agreement_check(source, target, formulas, required):
    """Each statement's appraisal agrees in the two models.  A statement
    either model gives no truth event is refused; one whose appraisal is
    missing is refused when ``required``, else skipped."""
    for f in formulas:
        sev = source.truth_of(f)
        tev = target.truth_of(f)
        if sev is None or tev is None:
            raise GamesError(f"target model does not value layer statement {unparse(f)}")
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
) -> list[Fraction]:
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
    out = [ZERO] * len(target.states)
    for w, (_, f) in zip(weights, layers):
        for i in bits(target.truth_of(f)):
            out[i] += w
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


# -- the maximal model, in affine form ---------------------------------------


def strategy_events(model: SubjectiveModel, layerings) -> list[int]:
    """The distinct layer upper-set events named by the strategies'
    layers (each strategy's ``layer_decompose`` of its ``t_circ``
    vector), excluding the full and empty event, in report order; these
    are the coordinates of the maximal model."""
    events = set()
    for layers in layerings:
        for _, f in layers:
            ev = model.truth_of(f)
            if ev and ev != model.omega:
                events.add(ev)
    return model.report_order(events)[0]


def transported_vector(
    model: SubjectiveModel, coordinates, layers
) -> tuple[Fraction, list[Fraction]]:
    """A strategy's payoffs, given by its layers, transported into the
    maximal model, whose states are the bit vectors m saying which
    coordinate events hold.  The layer sum is affine in those bits:
    y(m) = constant + sum_j coefficient_j * m_j, where the constant is
    the weight of the full-event layers and coefficient_j the weight of
    the layer on coordinate j.  Returns (constant, coefficients in
    coordinate order), over the same denominator as the layer levels."""
    index = {ev: j for j, ev in enumerate(coordinates)}
    constant = 0
    coefficients = [0] * len(index)
    for w, (_, f) in zip(_layer_weights(layers), layers):
        ev = model.truth_of(f)
        if ev == model.omega:
            constant += w
        elif ev not in index:
            raise GamesError(
                f"event {model.label(ev)} is not a coordinate of the maximal model"
            )
        else:
            coefficients[index[ev]] += w
    return constant, coefficients


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


def pointwise_undominated(
    x, alternatives, weak: bool = False, denominator: int = 1
) -> DominanceResult:
    """Whether some mixture of the alternatives strictly (default) or
    weakly beats ``x`` at every state.  Payoffs are ``Fraction``s, or
    int numerators over ``denominator``, taken as they are.

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
        matrix = [[alt[s] - x[s] for s in states] for alt in alternatives]
        game = _simplex.solve_matrix_game(matrix, denominator)
        if game.value > 0:
            return DominanceResult(True, "strict", game.value, game.row_mixture, None)
        prior = dict(zip(states, game.col_mixture))
        return DominanceResult(False, "strict", game.value, None, prior)

    # weak mode: maximize the total slack of a mixture kept >= x
    # pointwise, every row and cost times ``denominator``
    c = [sum(alt[s] for s in states) for alt in alternatives]
    a_ub = [[-alt[s] for alt in alternatives] for s in states]
    b_ub = [-x[s] for s in states]
    a_eq = [[denominator] * len(alternatives)]
    res = _simplex.maximize(c, a_ub, b_ub, a_eq, [denominator])
    if res.status != "optimal":
        return DominanceResult(False, "weak", None, None, None)
    # the LP's value is denominator times the mixture's total payoff
    den = res.denominator
    slack = Fraction(
        res.value_numerator - den * sum(x[s] for s in states), den * denominator
    )
    if slack > 0:
        return DominanceResult(True, "weak", slack, res.x, None)
    return DominanceResult(False, "weak", slack, None, None)


@dataclass
class _AffineDominance:
    epsilon: Fraction
    mixture: list[Fraction] | None  # set exactly when dominated
    marginals: list[Fraction] | None  # strict mode only


def _worst_margin(a, d, weights):
    """min over m in {0,1}^k of sum_i weights_i * (a_i + d_i . m): each
    coordinate bit is set exactly where the mixed coefficient is negative."""
    total = sum(w * ai for w, ai in zip(weights, a))
    for column in zip(*d):
        total += min(0, sum(w * dij for w, dij in zip(weights, column)))
    return total


def _affine_dominance(forms, choice: int, weak: bool, denominator: int) -> _AffineDominance:
    """Wald-Pearce dominance of ``forms[choice]`` by a mixture of the
    affine ``forms`` over the maximal model's 2^k states, decided without
    enumerating them.  The forms are int numerators over ``denominator``.

    With a_i and d_i the constant and coefficients of form i minus the
    choice's, a mixture sigma beats the choice at its worst state by
    A(sigma) + sum_j min(0, D_j(sigma)), where A and D_j mix the a_i and
    d_ij.  Both tests are one LP over sigma (pool), u_j >= max(0,
    -D_j(sigma)) (k) and, in strict mode, the margin epsilon (1):

    * strict: maximize epsilon s.t. epsilon <= A(sigma) - sum_j u_j;
    * weak: keep A(sigma) - sum_j u_j >= 0 and maximize the total slack
      over the 2^k states, 2^k A(sigma) + 2^(k-1) sum_j D_j(sigma).

    Every row, right-hand side and cost is posed times ``denominator``,
    so sigma, u, epsilon and the duals are those of the LP in payoff
    units, and its value is ``denominator`` times theirs.

    The strict duals of the u-rows, scaled by the dual of the margin
    row, are coordinate marginals q in [0, 1]^k with max_i (a_i + d_i . q)
    = epsilon: a prior under which nothing beats the choice by more than
    epsilon.  The mixture's worst-case margin and the marginals are both
    checked against the LP optimum exactly, in ints.
    """
    a_x, c_x = forms[choice]
    a = [ai - a_x for ai, _ in forms]
    d = [[cij - cxj for cij, cxj in zip(ci, c_x)] for _, ci in forms]
    n, k = len(forms), len(c_x)
    one = denominator
    margin = [] if weak else [one]
    a_ub = [[-ai for ai in a] + [one] * k + margin]
    for j in range(k):
        u = [0] * k
        u[j] = -one
        a_ub.append([-di[j] for di in d] + u + [0] * len(margin))
    a_eq = [[one] * n + [0] * (k + len(margin))]
    if weak:
        c = [2 * ai + sum(di) for ai, di in zip(a, d)] + [0] * k
    else:
        c = [0] * (n + k) + [one]
    res = _simplex.maximize(c, a_ub, [0] * (k + 1), a_eq, [one])
    if res.status != "optimal":
        raise InternalError(f"internal: the dominance LP came back {res.status}")
    # sigma and the duals are numerators over den; the value, and the
    # worst-case margin of sigma, are numerators over den * denominator
    den, value = res.denominator, res.value_numerator
    sigma = res.x_numerators[:n]
    worst = _worst_margin(a, d, sigma)
    mixture = [Fraction(v, den) for v in sigma] if value > 0 else None

    if weak:
        if worst < 0:
            raise InternalError("internal: the weak dominance LP broke its own constraint")
        epsilon = Fraction(value << k, 2 * den * denominator)
        return _AffineDominance(epsilon, mixture, None)

    epsilon = Fraction(value, den * denominator)
    if worst != value:
        raise InternalError(
            "internal: the mixture's worst-case margin "
            f"{Fraction(worst, den * denominator)} is not the LP optimum {epsilon}"
        )
    # q_j = duals[j + 1] / duals[0]; max_i (a_i + d_i . q) is best over
    # scale * denominator
    scale, *duals = res.dual_numerators
    if scale <= 0:
        raise InternalError("internal: the margin row has no positive dual")
    best = max(ai * scale + sum(dij * qj for dij, qj in zip(di, duals)) for ai, di in zip(a, d))
    if best * den != value * scale or not all(0 <= q <= scale for q in duals):
        raise InternalError(
            f"internal: the dual marginals give {Fraction(best, scale * denominator)}, "
            f"not the LP optimum {epsilon}"
        )
    return _AffineDominance(epsilon, mixture, [Fraction(q, scale) for q in duals])


# -- rationalizability ---------------------------------------------------------


@dataclass
class RationalizabilityResult:
    rationalizable: bool
    mode: str
    choice: str
    model: SubjectiveModel = field(repr=False, compare=False)
    epsilon: Fraction | None = None
    dominating_mixture: list[tuple[str, Fraction]] | None = None
    witness_events: dict[int, Fraction] | None = None
    witness_mass: dict[str, Fraction] | None = None
    witness_source: str | None = None
    choquet_values: list[tuple[str, Fraction]] | None = None
    coordinates: list[int] = field(default_factory=list)
    verified: bool = False

    def to_dict(self) -> dict:
        """The verdict, with events rendered by the labels of ``model``,
        the model it was decided in."""
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
            else {label: str(v) for label, v in self.model.labelled(self.witness_events)},
            "witness_mass": None
            if self.witness_mass is None
            else {s: str(v) for s, v in sorted(self.witness_mass.items())},
            "witness_source": self.witness_source,
            "choquet_values": None
            if self.choquet_values is None
            else {n: str(v) for n, v in self.choquet_values},
            "coordinates": self.model.label_events(self.coordinates),
            "verified": self.verified,
        }


def _names(pool) -> list[str]:
    return [s.name or f"s{i + 1}" for i, s in enumerate(pool)]


def _witness_from_events(model, events) -> SubjectiveModel:
    return SubjectiveModel(model.language, model.states, dict(model.truth), lam=events)


def _best_response(witness, names, vectors, choice: int, denominator: int):
    """Each pool member's Choquet value under the witness, for state
    vectors of int numerators over ``denominator``, and whether the
    choice attains the largest."""
    values = [choquet(witness, v) for v in vectors]
    best = all(values[choice] >= v for v in values)
    return [(n, v / denominator) for n, v in zip(names, values)], best


def rationalizable(
    strategy: Strategy,
    pool,
    model: SubjectiveModel,
    additive_only: bool = False,
    weak: bool = False,
) -> RationalizabilityResult:
    """Whether the chosen strategy maximizes some likelihood appraisal's
    Choquet payoff over the pool (or some additive prior's expected
    payoff, with ``additive_only``).  The chosen strategy is the pool
    member that is the very object ``strategy``: strategies with equal
    payoffs are told apart by their place in the pool.

    The decision runs Wald-Pearce dominance on the payoffs transported
    into the maximal model built from the pool's k named events, each an
    affine form in the k coordinate bits, as one LP with pool + k + 1
    variables (see ``_affine_dominance``), all in ints over the pool's
    one denominator.  When rationalizable, the witness appraisal is the
    model's own one if it is present and verifies, otherwise the LP's
    coordinate marginals (the maximal-model prior pulled back along the
    coordinates); either way the reported witness is confirmed by
    comparing exact Choquet values of every pool member.  Weak mode is a
    sensitivity check only: its LP carries no best-response dual, so a
    weakly undominated choice may come back without a witness.
    """
    pool = list(pool)
    choice = next((i for i, s in enumerate(pool) if s is strategy), None)
    if choice is None:
        raise GamesError("the chosen strategy must belong to the comparison pool")
    names = _names(pool)
    choice_name = names[choice]
    mode = "weak" if weak else "strict"

    # every state payoff as an int numerator over the pool's denominator
    denominator, base_vectors = _state_numerators(model, pool)

    if additive_only:
        # keyed by label, so that the dominance LP orders its states by label
        labelled = [dict(zip(model.states, x)) for x in base_vectors]
        dom = pointwise_undominated(labelled[choice], labelled, weak, denominator)
        if dom.dominated:
            return RationalizabilityResult(
                False,
                f"additive-{mode}",
                choice_name,
                model,
                epsilon=dom.epsilon,
                dominating_mixture=list(zip(names, dom.mixture)),
            )
        result = RationalizabilityResult(
            True, f"additive-{mode}", choice_name, model, epsilon=dom.epsilon
        )
        if dom.prior is not None:
            witness = SubjectiveModel(
                model.language, model.states, dict(model.truth),
                mass=[dom.prior[s] for s in model.states],
            )
            values, best = _best_response(witness, names, base_vectors, choice, denominator)
            result.witness_mass = dom.prior
            result.choquet_values = values
            result.verified = best
            if not best:
                raise InternalError("internal: additive witness failed verification")
        return result

    layerings = [layer_decompose(x, model) for x in base_vectors]
    events = strategy_events(model, layerings)
    forms = [transported_vector(model, events, layers) for layers in layerings]
    dom = _affine_dominance(forms, choice, weak, denominator)
    if dom.mixture is not None:
        return RationalizabilityResult(
            False,
            mode,
            choice_name,
            model,
            epsilon=dom.epsilon,
            dominating_mixture=list(zip(names, dom.mixture)),
            coordinates=list(events),
        )

    result = RationalizabilityResult(
        True, mode, choice_name, model, epsilon=dom.epsilon, coordinates=list(events)
    )

    candidates = []
    if any(model.lambda_numerator(ev) is not None for ev in events):
        candidates.append(("model", model))
    if dom.marginals is not None:
        pulled = dict(zip(events, dom.marginals))
        pulled[model.omega] = ONE
        pulled[0] = ZERO
        candidates.append(("maximal-model prior", _witness_from_events(model, pulled)))

    for source, witness in candidates:
        try:
            values, best = _best_response(witness, names, base_vectors, choice, denominator)
        except ModelError:
            continue
        if best:
            result.witness_source = source
            result.choquet_values = values
            result.witness_events = {
                ev: witness.lambda_of(ev) for ev in list(events) + [model.omega, 0]
            }
            result.verified = True
            break
    if not result.verified and not weak:
        raise InternalError("internal: no witness appraisal verified")
    return result
