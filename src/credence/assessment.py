"""Likelihood assessments over a finite universe of statements, bets on
statements, and the axiom checkers that grade an assessment's logical
coherence.

An assessment is the observable primitive: exact-rational likelihood
values pi over a finite formula universe.  Preference between bets is
induced by expected value, so the checkers below reduce each rationality
axiom to arithmetic (in)equalities on pi.  All checks are relative to
the elicited universe: instances that would need a compound statement
the universe lacks are reported as untestable, never silently passed.
An assessment holds its values in the format of ``_exact``, as int
numerators over one denominator, so the checkers compare ints.  A
checker records each violation as a row: the indices of the statements
it names and its two sides as int numerators over that denominator.  A
report renders a row's sides and requirement as text only for the
entries it writes, and builds a ``Violation``, with a ``Fraction`` per
side, only for a caller that reads ``violations`` or ``violation(k)``.
"""

from __future__ import annotations

import bisect
import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from ._exact import exact, format_ratios, over_one_denominator
from .errors import InputError
from .logic import FALSE, TRUE, Formula, Language, Theory, unparse

ZERO = Fraction(0)
ONE = Fraction(1)


class AssessmentError(InputError):
    pass


class Assessment:
    """A map pi from a finite formula universe to [0, 1], exact rationals.

    TRUE and FALSE always belong to the universe; when missing from the
    input they are added with the normalized values 1 and 0.  The values
    are held once, as int ``numerators`` over one ``denominator`` in the
    statement index; ``value`` builds a ``Fraction`` on lookup.
    """

    def __init__(self, language: Language, pi, texts=None):
        self.language = language
        values: dict[Formula, Fraction] = {}
        for f, v in pi.items() if isinstance(pi, dict) else pi:
            v = exact(v, AssessmentError)
            if f in values:
                raise AssessmentError(f"duplicate formula in universe: {unparse(f)}")
            if not ZERO <= v <= ONE:
                raise AssessmentError(
                    f"pi({unparse(f)}) = {v} falls outside [0, 1]"
                )
            values[f] = v
        values.setdefault(TRUE, ONE)
        values.setdefault(FALSE, ZERO)
        self.formulas = tuple(values)
        texts = texts or {}
        text = {f: texts[f] if f in texts else unparse(f) for f in values}
        # The statement index: parallel tuples in text order, built once.
        self.statements = tuple(sorted(values, key=text.__getitem__))
        self.sats = tuple(language.sat(f) for f in self.statements)
        self.texts = tuple(map(text.__getitem__, self.statements))
        den, nums = over_one_denominator(map(values.__getitem__, self.statements))
        self.denominator, self.numerators = den, tuple(nums)
        self._index = {f: i for i, f in enumerate(self.statements)}
        self._by_sat: dict[int, int] = {}
        for i, bits in enumerate(self.sats):
            self._by_sat.setdefault(bits, i)
        self._reversals = None

    def value(self, f: Formula) -> Fraction:
        i = self._index.get(f)
        if i is None:
            raise AssessmentError(f"formula outside the assessed universe: {unparse(f)}")
        return Fraction(self.numerators[i], self.denominator)

    def text(self, f: Formula) -> str:
        i = self._index.get(f)
        return unparse(f) if i is None else self.texts[i]

    def index_of(self, sat_bits: int) -> int | None:
        """The index of the first (by text) statement with the given
        valuation set."""
        return self._by_sat.get(sat_bits)

    def sorted_formulas(self) -> list[Formula]:
        return list(self.statements)

    def reversals(self) -> tuple[tuple[int, int, int], ...]:
        """Every ordered pair ``(i, j, gap)`` of statement indices with
        pi_i > pi_j, where ``gap = sats[i] & ~sats[j]`` holds the
        valuations making statement i true and j false.  Statement i
        entails statement j relative to a valuation set V exactly when
        ``gap & V == 0``; such a pair is a reversed entailment."""
        if self._reversals is None:
            sats, num = self.sats, self.numerators
            self._reversals = tuple(
                (i, j, si & ~sj)
                for i, (si, ni) in enumerate(zip(sats, num))
                for j, (sj, nj) in enumerate(zip(sats, num))
                if ni > nj
            )
        return self._reversals


class Bet:
    """A finitely supported lottery over primitive one-statement bets."""

    def __init__(self, weights):
        items = list(weights.items() if isinstance(weights, dict) else weights)
        if not items:
            raise AssessmentError("a bet needs nonempty support")
        self.weights = {}
        for f, w in items:
            w = exact(w, AssessmentError)
            if w <= 0:
                raise AssessmentError("bet weights must be positive")
            self.weights[f] = self.weights.get(f, ZERO) + w
        if sum(self.weights.values()) != ONE:
            raise AssessmentError("bet weights must sum to exactly 1")

    @staticmethod
    def primitive(f: Formula) -> "Bet":
        return Bet({f: ONE})

    @staticmethod
    def mix(b1: "Bet", b2: "Bet", alpha) -> "Bet":
        alpha = exact(alpha, AssessmentError)
        if not ZERO <= alpha <= ONE:
            raise AssessmentError("mixture weight outside [0, 1]")
        out: dict[Formula, Fraction] = {}
        if alpha > 0:
            for f, w in b1.weights.items():
                out[f] = out.get(f, ZERO) + alpha * w
        if alpha < 1:
            for f, w in b2.weights.items():
                out[f] = out.get(f, ZERO) + (ONE - alpha) * w
        return Bet(out)


def bet_value(assessment: Assessment, bet: Bet) -> Fraction:
    """Expected value of a bet: the pi-weighted sum over its support."""
    return sum(w * assessment.value(f) for f, w in bet.weights.items())


@dataclass
class Violation:
    axiom: str
    formulas: tuple[str, ...]
    lhs: Fraction
    rhs: Fraction
    requirement: str


# The requirement each axiom's violations state: ``{0}``, ``{1}``, ...
# are the texts of the statements a violation names, ``{rhs}`` its right
# side.  The fixed text is plain ASCII, no quote and no backslash, so a
# requirement formatted from JSON-escaped texts is itself JSON-escaped.
_REQUIREMENTS = {
    "NT": "pi({0}) = {rhs}",
    "E": "pi({0}) = pi({1})",
    "I": "{0} implies {1} so pi({1}) >= pi({0})",
    "S-I": "{0} implies {1} under the theory so pi({1}) >= pi({0})",
    "IE": "pi({0}) + even conjunctions >= odd conjunctions",
    "A": "pi({0}) + pi({1}) = pi({2})",
}
# the statements NT's violations name: impossibility and certainty
_NT_TEXTS = ("F", "T")


class AxiomReport:
    """One axiom's verdict on an assessment.

    Each violation is held as a row ``(names, lhs, rhs)``: the indices in
    ``texts`` of the statements it names, in the order its requirement
    names them, and its two sides as int numerators over
    ``denominator``.  The rows are sorted by the texts they name, and
    the report passes exactly when it has none.  ``entries`` renders the
    rows as strings, and ``violations`` lists them as ``Violation``s,
    each built when it is read."""

    def __init__(self, axiom: str, rows=(), texts=(), denominator: int = 1,
                 untestable=(), meta=None):
        self.axiom = axiom
        self.rows = list(rows)
        self.texts = tuple(texts)
        self.denominator = denominator
        self.untestable = list(untestable)
        self.meta = {} if meta is None else meta

    @property
    def passed(self) -> bool:
        return not self.rows

    def violation(self, k: int) -> Violation:
        """The ``k``-th violation, built from its row alone."""
        names, lhs, rhs = self.rows[k]
        formulas = tuple(map(self.texts.__getitem__, names))
        rhs = Fraction(rhs, self.denominator)
        requirement = _REQUIREMENTS[self.axiom].format(*formulas, rhs=str(rhs))
        return Violation(self.axiom, formulas, Fraction(lhs, self.denominator), rhs, requirement)

    @property
    def violations(self) -> Violations:
        return Violations(self)

    def entries(self, quote=None) -> list[tuple[list[str], str, str, str]]:
        """Each violation as strings, in order: the texts of the statements
        it names, its lhs and its rhs in lowest terms, and its
        requirement.  Each text is passed through ``quote`` first when one
        is given, once per statement."""
        rows, den = self.rows, self.denominator
        texts = self.texts if quote is None else list(map(quote, self.texts))
        lhs = format_ratios([row[1] for row in rows], den)
        rhs = format_ratios([row[2] for row in rows], den)
        template = _REQUIREMENTS[self.axiom].format
        entries = []
        for (names, _, _), left, right in zip(rows, lhs, rhs):
            named = list(map(texts.__getitem__, names))
            entries.append((named, left, right, template(*named, rhs=right)))
        return entries

    def to_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "passed": self.passed,
            "violations": [
                {"axiom": self.axiom, "formulas": formulas, "lhs": lhs, "rhs": rhs,
                 "requirement": requirement}
                for formulas, lhs, rhs, requirement in self.entries()
            ],
            "untestable": list(self.untestable),
            "meta": self.meta,
        }


class Violations(Sequence):
    """A report's violations as ``Violation``s, each built from its row
    when it is read; its length is the number of rows, and it equals a
    list of the same ``Violation``s."""

    def __init__(self, report: AxiomReport):
        self._report = report

    def __len__(self) -> int:
        return len(self._report.rows)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return list(map(self._report.violation, range(len(self))[k]))
        return self._report.violation(k)

    def __eq__(self, other):
        if isinstance(other, Violations):
            other = list(other)
        return list(self) == other if isinstance(other, list) else NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


def _report(axiom, rows, texts, denominator, untestable=(), meta=None) -> AxiomReport:
    """The report of ``rows``, sorted by the texts they name, then by index."""
    if len(set(texts)) == len(texts):
        # statement indices follow text order, so index tuples sort as
        # their texts do; each row names its own tuple
        rows.sort()
    else:
        rows.sort(key=lambda row: ([texts[i] for i in row[0]], row[0]))
    return AxiomReport(axiom, rows, texts, denominator, sorted(untestable), meta)


def check_nt(a: Assessment) -> AxiomReport:
    """Non-Triviality: certainty is valued 1 and impossibility 0; every
    value lies in [0, 1] by construction."""
    rows = []
    for k, (f, want) in enumerate(((FALSE, 0), (TRUE, a.denominator))):
        have = a.numerators[a._index[f]]
        if have != want:
            rows.append(((k,), have, want))
    return _report("NT", rows, _NT_TEXTS, a.denominator)


def check_e(a: Assessment) -> AxiomReport:
    """Equivalence: logically equivalent statements get equal values."""
    sats, num = a.sats, a.numerators
    rows = [
        ((i, j), num[i], num[j])
        for i, j in itertools.combinations(range(len(sats)), 2)
        if sats[i] == sats[j] and num[i] != num[j]
    ]
    return _report("E", rows, a.texts, a.denominator)


def _reversed_entailments(a: Assessment, valuations: int) -> list:
    """One row per statement pair that entails relative to ``valuations``
    while the values reverse the entailment."""
    num = a.numerators
    return [((i, j), num[i], num[j]) for i, j, gap in a.reversals() if gap & valuations == 0]


def check_i(a: Assessment) -> AxiomReport:
    """Implication: a statement never outvalues one it entails."""
    rows = _reversed_entailments(a, a.language.full_mask)
    return _report("I", rows, a.texts, a.denominator)


def check_ie(a: Assessment) -> AxiomReport:
    """Inclusion/Exclusion: for every family of up to three statements
    below a common consequent, the alternating conjunction sum stays
    within the consequent's value.

    For a family ``phi_1..phi_k`` all entailing ``psi`` the inequality is

        pi(psi) + sum over even nonempty I of pi(AND phi_I)
                >= sum over odd I of pi(AND phi_I)

    A singleton subset's conjunction is the member itself and uses its own
    value; proper conjunctions are looked up among universe members up to
    logical equivalence (first by text when several qualify, which only
    matters if equivalence is already violated).  A family whose
    conjunction the universe lacks is reported untestable, naming the
    first missing conjunction by size, then by statement order.  A
    violation's row names the consequent, then the family.

    Each family ``i < j < k`` is summed once, not once per consequent, in
    the assessment's int numerators over its denominator D: three nested
    loops read the pair conjunctions from one table built first and look
    up each triple's.  The consequents of a family are the statements
    whose valuation sets contain the family's union, listed once per
    union and sorted by value; the violated ones are the prefix with
    D * pi(psi) < odd - even, found by bisection, and a triple is
    bisected only when its least consequent is violated.
    """
    sats, texts = a.sats, a.texts
    num = a.numerators
    # a conjunction's numerator, read from the first statement by text
    num_of = {bits: num[a.index_of(bits)] for bits in sats}
    get = num_of.get
    below: dict[int, tuple[list[int], list[int]]] = {}
    least: dict[int, int | None] = {}  # per union, its least consequent numerator
    rows = []
    untestable = []

    def consequents(union):
        if union not in below:
            psis = sorted(
                (psi for psi, s in enumerate(sats) if union & ~s == 0),
                key=num.__getitem__,
            )
            nums = [num[psi] for psi in psis]
            below[union] = nums, psis
            least[union] = nums[0] if nums else None
        return below[union]

    def record(family, union, odd, even):
        """Record a testable family's violated consequents."""
        nums, psis = consequents(union)
        for psi in psis[: bisect.bisect_left(nums, odd - even)]:
            rows.append(((psi,) + family, num[psi] + even, odd))

    def untested(family, union, missing):
        """List a family under each consequent, naming the first missing
        conjunction, ``missing``."""
        head = "family {%s} under " % ", ".join(texts[i] for i in family)
        tail = ": conjunction (%s) not assessed" % " & ".join(texts[i] for i in missing)
        untestable.extend(head + texts[psi] + tail for psi in consequents(union)[1])

    n = len(sats)
    conj = [[get(si & sk) for sk in sats] for si in sats]  # pair conjunctions
    for i, si in enumerate(sats):
        record((i,), si, num[i], 0)
        ci = conj[i]
        for j in range(i + 1, n):
            sj = sats[j]
            sij, uij = si & sj, si | sj
            nij = ci[j]
            if nij is None:
                untested((i, j), uij, (i, j))
                for k in range(j + 1, n):
                    untested((i, j, k), uij | sats[k], (i, j))
                continue
            odd = num[i] + num[j]
            record((i, j), uij, odd, nij)
            cj = conj[j]
            for k in range(j + 1, n):
                sk = sats[k]
                nik, njk, nijk = ci[k], cj[k], get(sij & sk)
                union = uij | sk
                if nik is None or njk is None or nijk is None:
                    missing = (i, k) if nik is None else (j, k) if njk is None else (i, j, k)
                    untested((i, j, k), union, missing)
                    continue
                odd_k, even_k = odd + num[k] + nijk, nij + nik + njk
                if union not in least:
                    consequents(union)
                bound = least[union]
                # no consequent is violated unless the least one is
                if bound is not None and bound < odd_k - even_k:
                    record((i, j, k), union, odd_k, even_k)

    return _report("IE", rows, texts, a.denominator, untestable, {"n_max": 3})


def check_a(a: Assessment) -> AxiomReport:
    """Additivity: incompatible statements' values add up to the value of
    their disjunction, whenever the disjunction is assessed."""
    rows = []
    untestable = []
    sats, num, texts = a.sats, a.numerators, a.texts
    for i, si in enumerate(sats):
        for j in range(i, len(sats)):
            if si & sats[j]:
                continue
            member = a.index_of(si | sats[j])
            if member is None:
                untestable.append(
                    f"disjoint pair ({texts[i]}, {texts[j]}): disjunction not assessed"
                )
            elif num[i] + num[j] != num[member]:
                rows.append(((i, j, member), num[i] + num[j], num[member]))
    return _report("A", rows, texts, a.denominator, untestable)


def check_s_i(a: Assessment, theory: Theory) -> AxiomReport:
    """Theory-relative Implication: entailment modulo the theory's
    statements never reverses the value order."""
    rows = _reversed_entailments(a, theory.valuations)
    return _report("S-I", rows, a.texts, a.denominator,
                   meta={"theory": list(theory.generator_texts)})


CHECKERS = {
    "nt": check_nt,
    "e": check_e,
    "i": check_i,
    "ie": check_ie,
    "a": check_a,
}
