"""Behavioral identification: which entailments an agent's assessment
respects, and the largest part of a modeler's background theory the
agent can be credited with understanding.

An entailment between assessed statements counts as understood exactly
when the consequent is valued at least as high as the antecedent.  For a
background theory, sub-theories are handled through their valuation sets
(every theory over the session's atoms is the set of formulas true on
some nonempty valuation set).  A valuation set passes relative
implication exactly when it meets every reversal gap, so the largest
understood sub-theories are the theory's valuation set joined with each
minimal transversal of the gaps it misses, listed by Berge
multiplication.  Because the assessed universe is finite, the largest
passing sub-theory need not be unique; competing maximal candidates are
surfaced rather than resolved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .assessment import Assessment, AxiomReport, check_i, check_ie, check_nt, check_s_i
from .errors import InputError
from .logic import Language, Theory, unparse

# Berge multiplication's bound on its partial transversals, until ROADMAP
# item 5 enumerates the minimal transversals by MMCS and deletes it
MAX_TRANSVERSALS = 1024


class IdentifyError(InputError):
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
    texts, num, sats = assessment.texts, assessment.numerators, assessment.sats
    den = assessment.denominator
    return [
        ImplicationVerdict(
            antecedent=texts[i],
            consequent=texts[j],
            logically_valid=True,
            understood=margin >= 0,
            margin=Fraction(margin, den),
        )
        for i, si in enumerate(sats)
        for j, sj in enumerate(sats)
        if si & ~sj == 0
        for margin in (num[j] - num[i],)
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


def _minimal(sets) -> list[int]:
    """The inclusion-minimal members of ``sets`` (bitmasks), ordered by
    size and then by value."""
    out: list[int] = []
    for s in sorted(set(sets), key=lambda s: (s.bit_count(), s)):
        if not any(t & ~s == 0 for t in out):
            out.append(s)
    return out


def largest_subtheory(assessment: Assessment, theory: Theory) -> SubtheoryResult:
    """The largest sub-theory whose relative entailments the assessment
    respects.

    A valuation set ``base | X`` passes S-I exactly when X meets every
    reversal gap that the theory's valuation set ``base`` misses, so the
    minimal passing sets are ``base`` joined with the minimal
    transversals of those residual gaps, built one gap at a time by
    Berge multiplication.  With a single minimal transversal the answer
    is unique; otherwise every minimal passing set is reported, the
    smallest first, and ``unique`` is False.  More than
    ``MAX_TRANSVERSALS`` partial transversals after any gap is refused.
    """
    i_report = check_i(assessment)
    if not i_report.passed:
        raise IdentifyError(
            "largest sub-theory search requires axiom I to hold outright", i_report
        )
    lang = assessment.language
    base = theory.valuations
    # Axiom I makes every gap nonempty, so every gap has a transversal.
    edges = _minimal(gap for _, _, gap in assessment.reversals() if gap & base == 0)
    transversals = [0]
    for done, edge in enumerate(edges, 1):
        bits = [1 << i for i in range(edge.bit_length()) if (edge >> i) & 1]
        transversals = _minimal(
            [t for t in transversals if t & edge]
            + [t | b for t in transversals if not t & edge for b in bits]
        )
        if len(transversals) > MAX_TRANSVERSALS:
            raise IdentifyError(
                f"sub-theory search holds {len(transversals)} minimal transversals "
                f"after {done} of {len(edges)} residual gaps, over the cap of "
                f"{MAX_TRANSVERSALS}"
            )
    # base and each transversal are disjoint, so the (size, value) order
    # of the transversals is that of the passing sets
    minimal = [base | t for t in transversals]
    chosen = minimal[0]
    unique = len(minimal) == 1

    sub, texts = _theory_for_valuations(lang, chosen, theory)
    verification = check_s_i(assessment, sub)
    candidates = []
    if not unique:
        for v in minimal:
            _, ctexts = _theory_for_valuations(lang, v, theory)
            candidates.append(ctexts)
    diagnostics = {
        "relative_to_universe": list(assessment.texts),
        "residual_gaps": len(edges),
        "minimal_passing_sets": len(minimal),
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
        first = ie_report.violation(0)
        raise IdentifyError(
            "certainty-based identification needs inclusion/exclusion; "
            f"violated at {first.formulas}: {first.requirement} "
            f"(lhs={first.lhs}, rhs={first.rhs})",
            ie_report,
        )
    lang = assessment.language
    # certain theory members (pi = 1, their numerator the denominator); a
    # tautology adds nothing to the closure
    one = assessment.denominator
    picked = [
        i
        for i, (bits, v) in enumerate(zip(assessment.sats, assessment.numerators))
        if v == one and theory.valuations & ~bits == 0 and bits != lang.full_mask
    ]
    texts = [assessment.texts[i] for i in picked]
    sub = Theory(lang, [assessment.statements[i] for i in picked], texts)
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
