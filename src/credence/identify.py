"""Behavioral identification: which entailments an agent's assessment
respects, and the largest part of a modeler's background theory the
agent can be credited with understanding.

An entailment between assessed statements counts as understood exactly
when the consequent is valued at least as high as the antecedent.  For a
background theory, candidate sub-theories are enumerated through their
valuation sets (every theory over the session's atoms is the set of
formulas true on some nonempty valuation set), which makes the
largest-understood-sub-theory question finitely decidable.  Because the
assessed universe is finite, the largest passing sub-theory need not be
unique; competing maximal candidates are surfaced rather than resolved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .assessment import Assessment, AxiomReport, check_i, check_ie, check_nt, check_s_i
from .logic import Language, Theory, unparse

ONE = Fraction(1)

MAX_ENUMERATION_ATOMS = 4


class IdentifyError(ValueError):
    def __init__(self, message: str, report: AxiomReport | None = None):
        super().__init__(message)
        self.report = report


@dataclass
class ImplicationVerdict:
    antecedent: str
    consequent: str
    logically_valid: bool
    understood: bool
    margin: Fraction

    def to_dict(self) -> dict:
        return {
            "antecedent": self.antecedent,
            "consequent": self.consequent,
            "logically_valid": self.logically_valid,
            "understood": self.understood,
            "margin": str(self.margin),
        }


def understood_implications(assessment: Assessment) -> list[ImplicationVerdict]:
    """One verdict per ordered pair of assessed statements where the first
    entails the second; understood means the values do not reverse the
    entailment (margin = pi(consequent) - pi(antecedent) >= 0)."""
    nt = check_nt(assessment)
    if not nt.passed:
        raise IdentifyError(
            "identification requires a normalized assessment (axiom NT)", nt
        )
    texts, values, sats = assessment.texts, assessment.values, assessment.sats
    return [
        ImplicationVerdict(
            antecedent=texts[i],
            consequent=texts[j],
            logically_valid=True,
            understood=margin >= 0,
            margin=margin,
        )
        for i, si in enumerate(sats)
        for j, sj in enumerate(sats)
        if si & ~sj == 0
        for margin in (values[j] - values[i],)
    ]


@dataclass
class SubtheoryResult:
    theory: Theory
    generator_texts: tuple[str, ...]
    valuations: int
    unique: bool
    verification: AxiomReport
    candidates: list[tuple[str, ...]] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "generators": list(self.generator_texts),
            "unique": self.unique,
            "verified": self.verification.passed,
            "candidates": [list(c) for c in self.candidates],
            "diagnostics": self.diagnostics,
        }


def _theory_for_valuations(
    language: Language, valuations: int, parent: Theory
) -> tuple[Theory, tuple[str, ...]]:
    """A generator presentation for the theory of all formulas true on
    ``valuations``, reusing the parent theory's generators when they
    suffice."""
    kept = [
        (g, t)
        for g, t in zip(parent.generators, parent.generator_texts)
        if valuations & ~language.sat(g) == 0
    ]
    bits = language.full_mask
    for g, _ in kept:
        bits &= language.sat(g)
    gens = [g for g, _ in kept]
    texts = [t for _, t in kept]
    if bits != valuations:
        extra = language.formula_from_valuations(valuations)
        gens.append(extra)
        texts.append(unparse(extra))
    return Theory(language, gens, texts), tuple(texts)


def largest_subtheory(assessment: Assessment, theory: Theory) -> SubtheoryResult:
    """The largest sub-theory whose relative entailments the assessment
    respects, found by enumerating valuation supersets of the theory's
    valuation set.

    When the passing valuation sets are closed under intersection the
    answer is the unique smallest passing set; otherwise every minimal
    passing set is reported and ``unique`` is False.
    """
    i_report = check_i(assessment)
    if not i_report.passed:
        raise IdentifyError(
            "largest sub-theory search requires axiom I to hold outright", i_report
        )
    lang = assessment.language
    if len(lang.atoms) > MAX_ENUMERATION_ATOMS:
        raise IdentifyError(
            f"sub-theory enumeration capped at {MAX_ENUMERATION_ATOMS} atoms"
        )
    # V passes S-I exactly when it meets every reversal gap D_fg.
    gaps = [gap for _, _, gap in assessment.reversals()]
    base = theory.valuations
    free_bits = [i for i in range(lang.n_valuations) if not (base >> i) & 1]
    passing = []
    for pick in range(1 << len(free_bits)):
        v = base
        for j, i in enumerate(free_bits):
            if (pick >> j) & 1:
                v |= 1 << i
        if all(gap & v for gap in gaps):
            passing.append(v)
    # The axiom-I gate read these same gaps under the full mask, so the
    # full valuation set is always among the passing sets.

    meet = lang.full_mask
    for v in passing:
        meet &= v
    passing_set = set(passing)
    if meet in passing_set:
        chosen = meet
        unique = True
        minimal = [meet]
    else:
        minimal = [
            v for v in passing if not any(w != v and w & ~v == 0 for w in passing)
        ]
        minimal.sort(key=lambda v: (bin(v).count("1"), v))
        chosen = minimal[0]
        unique = False

    sub, texts = _theory_for_valuations(lang, chosen, theory)
    verification = check_s_i(assessment, sub)
    candidates = []
    if not unique:
        for v in minimal:
            _, ctexts = _theory_for_valuations(lang, v, theory)
            candidates.append(ctexts)
    diagnostics = {
        "relative_to_universe": list(assessment.texts),
        "passing_valuation_sets": len(passing),
    }
    return SubtheoryResult(
        theory=sub,
        generator_texts=texts,
        valuations=chosen,
        unique=unique,
        verification=verification,
        candidates=candidates,
        diagnostics=diagnostics,
    )


def subtheory_via_certainty(assessment: Assessment, theory: Theory) -> SubtheoryResult:
    """The sub-theory generated by the theory statements valued with
    certainty (pi = 1).  Sound under the inclusion/exclusion axiom, which
    is checked first; the result is re-verified against the assessment
    and any failure is reported, not suppressed."""
    ie_report = check_ie(assessment)
    if not ie_report.passed:
        first = ie_report.violations[0]
        raise IdentifyError(
            "certainty-based identification needs inclusion/exclusion; "
            f"violated at {first.formulas}: {first.requirement} "
            f"(lhs={first.lhs}, rhs={first.rhs})",
            ie_report,
        )
    lang = assessment.language
    gens = []
    texts = []
    for f in assessment.sorted_formulas():
        if assessment.value(f) == ONE and theory.contains(f):
            if lang.tautology(f):
                continue  # adds nothing to the closure
            gens.append(f)
            texts.append(assessment.text(f))
    sub = Theory(lang, gens, texts)
    verification = check_s_i(assessment, sub)
    return SubtheoryResult(
        theory=sub,
        generator_texts=tuple(texts),
        valuations=sub.valuations,
        unique=True,
        verification=verification,
        candidates=[],
        diagnostics={"certain_statements": list(texts)},
    )
