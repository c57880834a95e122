"""Shared generators and independent oracles for the test suite.

The oracles here recompute expected values by routes independent of the
implementation under test: direct recursive truth-table evaluation for
entailment, the statement-pair loops the axiom checkers ran before the
statement index, the per-consequent family loop of axiom IE, the
textbook alternating-sum formula for Mobius masses and the literal
subset sum for its inverse, the defining inequalities of
total monotonicity, a simplex-grid search for dominance, and the
materialized maximal model with one state per subset of the coordinate
events, on which dominance is the plain state-by-state LP, and the exact
simplex and matrix-game solver as they ran before the single tableau
(a separate objective row, a big-M phase 2 and a game tableau of its
own), which must give the same pivots and hence the same exact results.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from credence._simplex import GameSolution, LpResult, SimplexError
from credence.assessment import Assessment, AxiomReport, Violation, _report
from credence.games import GamesError, Strategy, layer_decompose, t_circ
from credence.logic import And, Atom, Const, Formula, Language, Not, Or, Theory
from credence.model import SubjectiveModel, event_label

ZERO = Fraction(0)
ONE = Fraction(1)


def eval_formula(f: Formula, assignment: dict[str, bool]) -> bool:
    """Direct recursive evaluation, the oracle for the bitset semantics."""
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Atom):
        return assignment[f.name]
    if isinstance(f, Not):
        return not eval_formula(f.child, assignment)
    if isinstance(f, And):
        return eval_formula(f.left, assignment) and eval_formula(f.right, assignment)
    if isinstance(f, Or):
        return eval_formula(f.left, assignment) or eval_formula(f.right, assignment)
    raise TypeError(f)


def truth_table_implies(
    lang: Language, f: Formula, g: Formula, valuations: int | None = None
) -> bool:
    """Whether every valuation (of ``valuations`` when given) making ``f``
    true makes ``g`` true."""
    for bits in range(lang.n_valuations):
        if valuations is not None and not (valuations >> bits) & 1:
            continue
        assignment = lang.valuation_atoms(bits)
        if eval_formula(f, assignment) and not eval_formula(g, assignment):
            return False
    return True


def mobius_oracle(states, lam) -> dict[frozenset, Fraction]:
    """m(A) = sum over B below A of (-1)^|A - B| * lam(B), literally."""
    out = {}
    states = list(states)
    for r in range(1, len(states) + 1):
        for combo in itertools.combinations(states, r):
            a = frozenset(combo)
            m = ZERO
            for k in range(len(a) + 1):
                for sub in itertools.combinations(sorted(a), k):
                    b = frozenset(sub)
                    m += (-1) ** (len(a) - len(b)) * lam[b]
            out[a] = m
    return out


def check_i_oracle(a: Assessment) -> list[Violation]:
    """The statement-pair loop of axiom I, on truth tables."""
    violations = []
    fs = a.sorted_formulas()
    for f in fs:
        for g in fs:
            if f is g:
                continue
            if truth_table_implies(a.language, f, g) and a.value(g) < a.value(f):
                violations.append(
                    Violation(
                        "I",
                        (a.text(f), a.text(g)),
                        a.value(f),
                        a.value(g),
                        f"{a.text(f)} implies {a.text(g)} so "
                        f"pi({a.text(g)}) >= pi({a.text(f)})",
                    )
                )
    return sorted(violations, key=lambda v: v.formulas)


def check_s_i_oracle(a: Assessment, theory: Theory) -> list[Violation]:
    """The statement-pair loop of axiom S-I, on truth tables restricted to
    the theory's valuations."""
    violations = []
    fs = a.sorted_formulas()
    for f in fs:
        for g in fs:
            if f is g:
                continue
            if (
                truth_table_implies(a.language, f, g, theory.valuations)
                and a.value(g) < a.value(f)
            ):
                violations.append(
                    Violation(
                        "S-I",
                        (a.text(f), a.text(g)),
                        a.value(f),
                        a.value(g),
                        f"{a.text(f)} implies {a.text(g)} under the theory so "
                        f"pi({a.text(g)}) >= pi({a.text(f)})",
                    )
                )
    return sorted(violations, key=lambda v: v.formulas)


def passes_s_i_oracle(assessment: Assessment, valuations: int) -> bool:
    """Whether no pair entails relative to ``valuations`` while its values
    reverse; the sub-theory search's passing test, pair by pair."""
    lang = assessment.language
    for f in assessment.formulas:
        for g in assessment.formulas:
            if f is g:
                continue
            if assessment.value(f) <= assessment.value(g):
                continue
            if lang.sat(f) & valuations & ~lang.sat(g) == 0:
                return False
    return True


def check_ie_oracle(a: Assessment, n_max: int = 3) -> AxiomReport:
    """Axiom IE as ``check_ie`` computed it before the family-once scan:
    for every consequent, every family below it re-enumerated and its
    alternating conjunction sum rebuilt in Fractions."""
    violations = []
    untestable = []
    sats, values, texts = a.sats, a.values, a.texts
    full = a.language.full_mask
    for psi, sat_psi in enumerate(sats):
        ants = [i for i, si in enumerate(sats) if si & ~sat_psi == 0]
        for k in range(1, n_max + 1):
            for family in itertools.combinations(ants, k):
                even = ZERO
                odd = ZERO
                missing = None
                for r in range(1, k + 1):
                    for subset in itertools.combinations(family, r):
                        if r == 1:
                            member = subset[0]
                        else:
                            bits = full
                            for i in subset:
                                bits &= sats[i]
                            member = a.index_of(bits)
                        if member is None:
                            missing = " & ".join(texts[i] for i in subset)
                            break
                        if r % 2 == 0:
                            even += values[member]
                        else:
                            odd += values[member]
                    if missing:
                        break
                if missing:
                    untestable.append(
                        "family {%s} under %s: conjunction (%s) not assessed"
                        % (", ".join(texts[i] for i in family), texts[psi], missing)
                    )
                    continue
                lhs = values[psi] + even
                if lhs < odd:
                    violations.append(
                        Violation(
                            "IE",
                            (texts[psi],) + tuple(texts[i] for i in family),
                            lhs,
                            odd,
                            f"pi({texts[psi]}) + even conjunctions >= odd conjunctions",
                        )
                    )
    return _report("IE", violations, untestable, {"n_max": n_max})


def inverse_mobius_oracle(masses, states) -> dict[frozenset, Fraction]:
    """Each event of the states' powerset sums the masses of its subsets,
    literally."""
    states = tuple(states)
    out = {}
    items = [(frozenset(ev), Fraction(v)) for ev, v in masses.items()]
    n = len(states)
    for mask in range(1 << n):
        ev = frozenset(states[j] for j in range(n) if (mask >> j) & 1)
        out[ev] = sum((v for sub, v in items if sub <= ev), ZERO)
    return out


def totally_monotone_direct(model: SubjectiveModel, max_family: int = 4) -> bool:
    """Check the defining union/intersection inequalities on families of
    up to ``max_family`` events from the generated field; the oracle for
    the Mobius criterion."""
    events = model.field_events()
    lam = {ev: model.lambda_of(ev) for ev in events}
    nonempty = [e for e in events if e]
    for k in range(2, max_family + 1):
        for family in itertools.combinations(nonempty, k):
            union = frozenset().union(*family)
            alternating = ZERO
            for r in range(1, k + 1):
                for subset in itertools.combinations(family, r):
                    inter = frozenset(subset[0])
                    for e in subset[1:]:
                        inter &= e
                    alternating += (-1) ** (r + 1) * lam[frozenset(inter)]
            if lam[union] < alternating:
                return False
    return True


def random_fraction(rng: random.Random, den_max: int = 8) -> Fraction:
    den = rng.randint(1, den_max)
    return Fraction(rng.randint(0, den), den)


def random_capacity(rng: random.Random, states, den_max: int = 8):
    """A random monotone set function with lam(empty)=0, lam(omega)=1."""
    states = list(states)
    lam = {frozenset(): ZERO}
    for r in range(1, len(states) + 1):
        for combo in itertools.combinations(states, r):
            ev = frozenset(combo)
            floor = max(
                (lam[frozenset(sub)] for sub in itertools.combinations(sorted(ev), r - 1)),
                default=ZERO,
            )
            lam[ev] = min(ONE, floor + random_fraction(rng, den_max) * (ONE - floor))
    lam[frozenset(states)] = ONE
    return lam


def full_closure_classes(lang: Language):
    """One canonical representative formula per logical equivalence class."""
    out = []
    for bits in range(1 << lang.n_valuations):
        out.append((bits, lang.formula_from_valuations(bits)))
    return out


def random_monotone_assessment(rng: random.Random, lang: Language, classes=None) -> Assessment:
    """An assessment on one representative per class whose values respect
    entailment (a random capacity on the valuation sets), so NT, E and I
    hold by construction."""
    if classes is None:
        classes = full_closure_classes(lang)
    by_size = sorted(classes, key=lambda kv: bin(kv[0]).count("1"))
    values: dict[int, Fraction] = {}
    for bits, _ in by_size:
        if bits == 0:
            values[bits] = ZERO
            continue
        if bits == lang.full_mask:
            values[bits] = ONE
            continue
        floor = max(
            (v for b, v in values.items() if b & ~bits == 0),
            default=ZERO,
        )
        ceil = min(
            (v for b, v in values.items() if bits & ~b == 0),
            default=ONE,
        )
        if floor > ceil:  # cannot happen for capacities built small-to-large
            floor = ceil
        values[bits] = floor + random_fraction(rng) * (ceil - floor)
    return Assessment(lang, {f: values[bits] for bits, f in classes})


def random_and_closed_universe(rng: random.Random, lang: Language, n_base: int = 4):
    """Valuation-set classes closed under intersection, as formulas."""
    bases = set()
    while len(bases) < n_base:
        bits = rng.randrange(1, lang.full_mask + 1)
        bases.add(bits)
    closed = set(bases) | {0, lang.full_mask}
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(sorted(closed), 2):
            if a & b not in closed:
                closed.add(a & b)
                changed = True
    return [(bits, lang.formula_from_valuations(bits)) for bits in sorted(closed)]


def grid_dominance_oracle(x, alternatives, denominator: int = 12):
    """Search the mixture simplex at the given denominator for a strict
    pointwise dominator; can only confirm domination."""
    states = sorted(x)
    n = len(alternatives)
    for combo in itertools.combinations(
        range(denominator + n - 1), n - 1
    ):
        parts = []
        prev = -1
        for c in combo:
            parts.append(c - prev - 1)
            prev = c
        parts.append(denominator + n - 2 - prev)
        weights = [Fraction(p, denominator) for p in parts]
        if all(
            sum(w * alt[s] for w, alt in zip(weights, alternatives)) > x[s]
            for s in states
        ):
            return weights
    return None


@dataclass
class MaximalModel:
    """The maximal model, materialized: one state per subset of the k
    coordinate events, labelled by its bit vector."""

    base: SubjectiveModel
    coordinates: tuple[frozenset, ...]

    def __post_init__(self):
        k = len(self.coordinates)
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


def maximal_model(model: SubjectiveModel, events) -> MaximalModel:
    events = [frozenset(e) for e in events]
    for e in events:
        if not e or e == model.omega:
            raise GamesError("coordinates must be proper nonempty events")
    if len(set(events)) != len(events):
        raise GamesError("duplicate coordinate events")
    return MaximalModel(model, tuple(events))


def layerings(model: SubjectiveModel, pool) -> list:
    """Each strategy's layers, as ``rationalizable`` computes them before
    ``strategy_events`` and ``transported_vector``."""
    return [layer_decompose(t_circ(model, s), model) for s in pool]


def transported_vector_oracle(
    mm: MaximalModel, model: SubjectiveModel, strategy: Strategy
) -> dict[str, Fraction]:
    """The strategy's payoffs transported into the materialized maximal
    model: the layer sum with each upper-set event replaced by its
    coordinate cylinder, state by state."""
    layers = layer_decompose(t_circ(model, strategy), model)
    out = {s: ZERO for s in mm.states}
    for i, (a, f) in enumerate(layers):
        w = a - (layers[i + 1][0] if i + 1 < len(layers) else ZERO)
        for s in mm.cylinder(model.truth_of(f)):
            out[s] += w
    return out


# -- the exact simplex as it was before the single tableau ----------------


def _pivot_oracle(rows, obj, basis, r, c):
    piv = rows[r][c]
    rows[r] = [v / piv for v in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[c] != 0:
            f = row[c]
            rows[i] = [a - f * b for a, b in zip(row, rows[r])]
    if obj[c] != 0:
        f = obj[c]
        for j, b in enumerate(rows[r]):
            obj[j] -= f * b
    basis[r] = c


def _run_simplex_oracle(rows, obj, basis, ncols):
    """Maximize with reduced costs in ``obj`` (last entry = -value).
    Bland's rule: enter lowest eligible column, leave lowest basic index."""
    while True:
        col = next((j for j in range(ncols) if obj[j] > 0), None)
        if col is None:
            return
        best = None
        for i, row in enumerate(rows):
            if row[col] > 0:
                ratio = row[-1] / row[col]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            raise SimplexError("unbounded")
        _pivot_oracle(rows, obj, basis, best[1], col)


def maximize_oracle(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None) -> LpResult:
    """Maximize c.x subject to a_ub.x <= b_ub, a_eq.x = b_eq, x >= 0: the
    simplex as it ran before the single tableau, with a separate objective
    row and a big-M penalty parking the artificials in phase 2.

    At an optimum, ``duals`` holds an optimal dual value (>= 0) for each
    ``a_ub`` row, read off the reduced cost of its slack or surplus column."""
    a_ub = [list(map(Fraction, r)) for r in (a_ub or [])]
    b_ub = [Fraction(v) for v in (b_ub or [])]
    a_eq = [list(map(Fraction, r)) for r in (a_eq or [])]
    b_eq = [Fraction(v) for v in (b_eq or [])]
    c = [Fraction(v) for v in c]
    n = len(c)

    kinds = []  # per-row: auxiliary column type, coefficients, rhs (>= 0)
    for coeffs, b in zip(a_ub, b_ub):
        row = list(coeffs)
        if b < 0:
            row = [-v for v in row]
            b = -b
            kinds.append(("art", row, b))  # flipped <= becomes >=, needs artificial
        else:
            kinds.append(("slack", row, b))
    for coeffs, b in zip(a_eq, b_eq):
        row = list(coeffs)
        if b < 0:
            row = [-v for v in row]
            b = -b
        kinds.append(("art_eq", row, b))

    m = len(kinds)
    art_cols = []
    # column layout: n structural, then one slack/surplus per inequality row,
    # then artificials as needed
    aux_count = sum(1 for k in kinds if k[0] in ("slack", "art"))
    total = n + aux_count
    art_start = total
    n_art = sum(1 for k in kinds if k[0] in ("art", "art_eq"))
    total += n_art

    tab = []
    basis = []
    aux_i = n
    art_i = art_start
    for kind, row, b in kinds:
        full = row + [ZERO] * (total - n) + [b]
        if kind == "slack":
            full[aux_i] = ONE
            basis.append(aux_i)
            aux_i += 1
        elif kind == "art":
            full[aux_i] = -ONE  # surplus
            full[art_i] = ONE
            basis.append(art_i)
            art_cols.append(art_i)
            aux_i += 1
            art_i += 1
        else:  # art_eq
            full[art_i] = ONE
            basis.append(art_i)
            art_cols.append(art_i)
            art_i += 1
        tab.append(full)

    if art_cols:
        # phase 1: maximize -(sum of artificials)
        obj = [ZERO] * (total + 1)
        for j in art_cols:
            obj[j] = -ONE
        for i, row in enumerate(tab):
            if basis[i] in art_cols:
                obj = [o + r for o, r in zip(obj, row)]
        _run_simplex_oracle(tab, obj, basis, total)
        if obj[-1] != 0:
            return LpResult("infeasible", None, None)
        # drive any lingering artificials out of the basis
        for i in range(m):
            if basis[i] in art_cols:
                col = next(
                    (j for j in range(art_start) if tab[i][j] != 0), None
                )
                if col is not None:
                    _pivot_oracle(tab, obj, basis, i, col)
        # redundant rows whose basis is still artificial have all-zero
        # structural coefficients; they stay put harmlessly.

    obj = [ZERO] * (total + 1)
    for j in range(n):
        obj[j] = c[j]
    for j in art_cols:
        obj[j] = Fraction(-10**12)  # keep artificials out in phase 2
    for i, row in enumerate(tab):
        f = obj[basis[i]]
        if f != 0:
            obj = [o - f * r for o, r in zip(obj, row)]
    try:
        _run_simplex_oracle(tab, obj, basis, art_start)
    except SimplexError:
        return LpResult("unbounded", None, None)

    x = [ZERO] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = tab[i][-1]
    value = sum(ci * xi for ci, xi in zip(c, x))
    duals = [-obj[n + i] for i in range(len(a_ub))]
    return LpResult("optimal", x, value, duals)


def solve_matrix_game_oracle(matrix) -> GameSolution:
    """Value and optimal mixed strategies of the zero-sum game whose row
    player maximizes ``matrix[i][j]``, on a tableau of its own.

    Solved by shifting the matrix positive and running one primal simplex
    on ``max sum(z) s.t. G z <= 1``; the column mixture is the scaled
    primal solution and the row mixture the scaled duals.
    """
    g = [list(map(Fraction, row)) for row in matrix]
    if not g or not g[0]:
        raise SimplexError("empty game matrix")
    m, n = len(g), len(g[0])
    if any(len(row) != n for row in g):
        raise SimplexError("ragged game matrix")

    shift = ONE - min(min(row) for row in g)
    g = [[v + shift for v in row] for row in g]

    # tableau: columns = n z-vars, m slacks, rhs
    total = n + m
    tab = []
    basis = []
    for i in range(m):
        row = list(g[i]) + [ZERO] * m + [ONE]
        row[n + i] = ONE
        tab.append(row)
        basis.append(n + i)
    obj = [ONE] * n + [ZERO] * m + [ZERO]
    _run_simplex_oracle(tab, obj, basis, total)

    z = [ZERO] * n
    for i, bi in enumerate(basis):
        if bi < n:
            z[bi] = tab[i][-1]
    u = sum(z)
    if u <= 0:
        raise SimplexError("degenerate game tableau")
    y = [-obj[n + i] for i in range(m)]
    value = ONE / u - shift
    row_mixture = [v / u for v in y]
    col_mixture = [v / u for v in z]
    return GameSolution(value, row_mixture, col_mixture)
