"""Constructive builders that turn an assessment (or a model) into a
subjective state-space model with prescribed structure, together with a
verified certificate of the postconditions.

Five constructions are provided:

* ``product``: one binary coordinate per assessed statement, product
  measure; always works under non-triviality but wastes structure.
* ``canonical_sound``: states are the atom valuations, truth is the
  classical one, the appraisal absorbs all incoherence (inner-extended
  off the named events).
* ``interval_additive``: initial segments of a rational partition of
  [0, 1] under length measure; truth is monotone, the appraisal additive.
* ``belief_lift``: states become nonempty events, Mobius masses become
  an additive measure; requires a totally monotone source appraisal.
* ``additive_sound``: classical truth plus a genuine probability on the
  valuations, when one exists and is pinned down by the universe.

Models are built on the indexed core of ``model``: states are bit
positions and events int masks.  The product measure is built by
pattern doubling, one coordinate at a time in int numerators over one
denominator, and the canonical inner extension is a subset-max
transform over the field's blocks, complete before the model is built.
The product's states, the canonical field and the belief lift's
powerset are bounded by ``logic.check_table``, and additive-sound's
elimination table, statements by valuations, by the language's own
valuation table.  Every certificate is checked on the built model,
never assumed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction

from ._exact import format_ratios
from ._simplex import pivot
from .assessment import Assessment, check_a, check_e, check_i, check_nt
from .errors import InternalError
from .logic import FALSE, MAX_ATOMS, TRUE, check_table, unparse
from .model import (
    ModelError,
    SubjectiveModel,
    _bit_slices,
    _subset_fold,
    _unions,
    classify_truth,
    field_atoms,
    mobius,
    represents,
)


class BuildError(ValueError):
    def __init__(self, message: str, axiom: str | None = None, report=None):
        super().__init__(message)
        self.axiom = axiom
        self.report = report


@dataclass
class CertEntry:
    name: str
    ok: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


@dataclass
class BuildOutcome:
    model: SubjectiveModel
    construction: str
    certificate: list[CertEntry]
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.certificate)

    def to_dict(self) -> dict:
        return {
            "construction": self.construction,
            "certificate": [c.to_dict() for c in self.certificate],
            "notes": list(self.notes),
        }


def _require(report, axiom: str, what: str):
    if not report.passed:
        first = report.violation(0)
        raise BuildError(
            f"{what} requires axiom {axiom}; first violation: {first.requirement} "
            f"(lhs={first.lhs}, rhs={first.rhs})",
            axiom=axiom,
            report=report,
        )


def _valuation_states(assessment: Assessment):
    """The atom valuations as state labels, and each statement's classical
    truth event over them, read from the statement index: state i is
    valuation i, so the event is the statement's valuation set."""
    lang = assessment.language
    n = len(lang.atoms)
    states = ["v" + format(i, f"0{n}b")[::-1] if n else "v" for i in range(lang.n_valuations)]
    sat = dict(zip(assessment.statements, assessment.sats))
    return states, {f: sat[f] for f in assessment.formulas}


def _certify_represents(model, assessment) -> CertEntry:
    rep = represents(model, assessment)
    if not rep.ok:
        raise InternalError("internal: built model fails to reproduce the assessment")
    return CertEntry("represents", True, "zero residual on every assessed statement")


def build_product_model(assessment: Assessment) -> BuildOutcome:
    """One independent binary coordinate per statement, with the product
    measure matching each statement's value as its marginal."""
    _require(check_nt(assessment), "NT", "product construction")
    coords = [f for f in assessment.formulas if f not in (TRUE, FALSE)]
    m = len(coords)
    check_table("product state space", m, "coordinates", BuildError)
    # state i sets coordinate j exactly when bit j of i is set: adding
    # coordinate j doubles the states, the new upper half making it true,
    # and its label's character j is that bit
    states, numerators, denominator, size = ["w"], [1], 1, 1
    events = []
    for f in coords:
        p = assessment.value(f)
        yes, no = p.numerator, p.denominator - p.numerator
        states = [s + "0" for s in states] + [s + "1" for s in states]
        numerators = [x * no for x in numerators] + [x * yes for x in numerators]
        denominator *= p.denominator
        events = [ev | ev << size for ev in events] + [((1 << size) - 1) << size]
        size *= 2
    model = SubjectiveModel(
        assessment.language,
        states,
        dict(zip(coords, events)),
        mass=numerators,
        denominator=denominator,
    )
    cert = [
        _certify_represents(model, assessment),
        CertEntry("lambda additive", True, "product measure over independent coordinates"),
    ]
    notes = ["truth valuation ignores all logical structure between statements"]
    return BuildOutcome(model, "product", cert, notes)


def build_canonical_sound(assessment: Assessment) -> BuildOutcome:
    """States are the atom valuations and truth is classical; the
    appraisal carries the assessed values on the named events and is
    inner-extended elsewhere (largest assessed value of a named event
    inside)."""
    _require(check_nt(assessment), "NT", "canonical sound construction")
    _require(check_e(assessment), "E", "canonical sound construction")
    lang = assessment.language
    states, truth = _valuation_states(assessment)
    # the appraisal as int numerators over the values' common denominator
    den = assessment.denominator
    lam = dict(zip(map(truth.__getitem__, assessment.statements), assessment.numerators))
    lam[0] = 0
    lam[lang.full_mask] = den

    notes = []
    blocks = field_atoms(lang.full_mask, truth.values())
    # the field is materialized where ``field_events`` would build it
    small = len(blocks) <= MAX_ATOMS
    if small:
        # the field's events as bitmasks over its blocks; the inner
        # extension gives each the largest value of a named event inside,
        # and a named event keeps its own value
        events = _unions(blocks)
        inner = _subset_fold([lam.get(ev, 0) for ev in events], max)
        values = list(map(lam.get, events, inner))
        lam = dict(zip(events, values))
        notes.append("appraisal inner-extended to the generated field")
    else:
        notes.append("generated field too large to materialize; appraisal kept on named events")

    model = SubjectiveModel(lang, states, truth, lam=lam, denominator=den)
    cert = [_certify_represents(model, assessment)]
    flags = classify_truth(model, assessment.formulas)
    cert.append(
        CertEntry("t sound", flags.sound, "classical valuation over atom assignments")
    )
    i_report = check_i(assessment)
    if i_report.passed and small:
        # one block more never lowers the value
        mono = all(
            all(map(operator.le, values[low], values[high]))
            for high, low in _bit_slices(len(values))
        )
        cert.append(CertEntry("lambda monotone on field", mono, "follows from axiom I"))
    elif not i_report.passed:
        notes.append("axiom I fails, so the appraisal is not monotone")
    return BuildOutcome(model, "canonical-sound", cert, notes)


def build_interval_additive(assessment: Assessment) -> BuildOutcome:
    """Each statement becomes the initial segment [0, pi] of a rational
    partition of the unit interval; length measure is additive and the
    nested segments make truth monotone."""
    _require(check_nt(assessment), "NT", "interval construction")
    _require(check_i(assessment), "I", "interval construction")
    # the cuts and masses as int numerators over the assessment's denominator
    den = assessment.denominator
    cuts = sorted({0, den, *assessment.numerators})
    labels = format_ratios(cuts, den)
    states = [f"({labels[i]},{labels[i + 1]}]" for i in range(len(cuts) - 1)]
    mass = [cuts[i + 1] - cuts[i] for i in range(len(states))]
    # the segment [0, pi] is the first k states, pi being the k-th cut
    position = {v: k for k, v in enumerate(cuts)}
    cut = dict(zip(assessment.statements, assessment.numerators))
    truth = {f: (1 << position[cut[f]]) - 1 for f in assessment.formulas}
    model = SubjectiveModel(
        assessment.language,
        states,
        truth,
        mass=mass,
        exact_lookup=True,
        denominator=den,
    )
    cert = [_certify_represents(model, assessment)]
    flags = classify_truth(model, assessment.formulas)
    cert.append(CertEntry("t monotone", flags.monotone, "initial segments are nested"))
    cert.append(CertEntry("lambda additive", True, "length measure on a finite partition"))
    return BuildOutcome(model, "interval-additive", cert, [])


def build_belief_lift(
    model: SubjectiveModel, assessment: Assessment | None = None
) -> BuildOutcome:
    """Lift a totally monotone appraisal to an additive one: states become
    the focal events (positive Mobius mass), carrying their masses; a
    statement is true at a state-event exactly when that event sits inside
    its old truth set.  Zero-mass events are omitted; they would never
    contribute to any likelihood."""
    check_table("belief lift's powerset", len(model.states), "states", BuildError)
    try:
        masses = mobius(model)
    except ModelError as e:
        raise BuildError(f"belief lift needs the appraisal on the full powerset: {e}")
    negative = sorted(model.label(ev) for ev, m in masses.items() if m < 0)
    if negative:
        raise BuildError(
            "not a belief function: negative Mobius mass on " + ", ".join(negative)
        )

    # each focal event becomes a state labelled by its states joined by '+'
    focal = sorted(
        (ev.bit_count(), "+".join(model.labels(ev)), ev) for ev, m in masses.items() if m > 0
    )
    states = [label for _, label, _ in focal]
    first = {}
    for _, label, ev in focal:
        if first.setdefault(label, ev) != ev:
            raise BuildError(
                f"focal events {model.label(first[label])} and {model.label(ev)} "
                f"would both become the state {label}"
            )
    mass = [masses[ev] for _, _, ev in focal]
    truth = {}
    for f in model.truth_domain():
        base = model.truth[f]
        truth[f] = sum(1 << j for j, (_, _, ev) in enumerate(focal) if not ev & ~base)
    lifted = SubjectiveModel(model.language, states, truth, mass=mass, exact_lookup=True)

    cert = []
    preserved = all(
        model.lambda_of(model.truth[f]) == lifted.lambda_of(lifted.truth[f])
        for f in model.truth_domain()
    )
    if not preserved:
        raise InternalError("internal: lift failed to preserve statement likelihoods")
    cert.append(
        CertEntry("likelihoods preserved", True, "lambda(t(phi)) unchanged for every statement")
    )
    cert.append(CertEntry("lambda additive", True, "Mobius masses as state masses"))
    flags = classify_truth(lifted, model.truth_domain())
    cert.append(
        CertEntry(
            "t exact and and-distributive",
            flags.exact and flags.and_distributive,
            "subset test distributes over intersections",
        )
    )
    if assessment is not None:
        cert.insert(0, _certify_represents(lifted, assessment))
    return BuildOutcome(lifted, "belief-lift", cert, [])


def build_additive_sound(assessment: Assessment) -> BuildOutcome:
    """Classical truth over the valuations plus an additive measure
    reproducing the assessment.  The system  sum of masses over sat(phi)
    = pi(phi)  is row-reduced with the fraction-free ``pivot``, on the
    assessment's int numerators over its denominator; the build fails
    loudly when the system is inconsistent or does not pin every
    valuation's mass down."""
    _require(check_nt(assessment), "NT", "additive sound construction")
    _require(check_a(assessment), "A", "additive sound construction")
    lang = assessment.language
    nv = lang.n_valuations
    # one row per statement: its valuation bits, then its numerator
    mat = [
        [*map(int, format(bits, f"0{nv}b")[::-1]), v]
        for bits, v in zip(assessment.sats, assessment.numerators)
    ]
    d = 1
    pivots = []
    r = 0
    for c in range(nv):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        d = pivot(mat, d, r, c)
        pivots.append((r, c))
        r += 1
    if any(row[-1] for row in mat[r:]):
        raise BuildError(
            "no additive measure on the valuations reproduces the assessment "
            "(additivity fails at the representation level)",
            axiom="A",
        )
    states, truth = _valuation_states(assessment)
    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(nv) if c not in pivot_cols]
    if free_cols:
        # a pivot's mass is pinned when its row reaches no free column
        pinned = {col for row, col in pivots if not any(mat[row][fc] for fc in free_cols)}
        # label order is the text order of the valuations' minterms
        unresolved = sorted((c for c in range(nv) if c not in pinned), key=states.__getitem__)
        listed = ", ".join(unparse(lang.minterm(c)) for c in unresolved[:10])
        if len(unresolved) > 10:
            listed += f", ... and {len(unresolved) - 10} more"
        raise BuildError("universe under-determined: no assessed combination pins down " + listed)
    # every column is a pivot, column c in row c
    masses = [Fraction(row[-1], d * assessment.denominator) for row in mat[:nv]]
    bad = [i for i, v in enumerate(masses) if v < 0]
    if bad:
        raise BuildError(
            "no additive measure reproduces the assessment: forced negative "
            "mass on " + ", ".join(unparse(lang.minterm(i)) for i in bad),
            axiom="A",
        )

    model = SubjectiveModel(lang, states, truth, mass=masses)
    cert = [_certify_represents(model, assessment)]
    flags = classify_truth(model, assessment.formulas)
    cert.append(CertEntry("t sound", flags.sound, "classical valuation over atom assignments"))
    cert.append(CertEntry("lambda additive", True, "measure on the valuations"))
    return BuildOutcome(model, "additive-sound", cert, [])


BUILDERS = {
    "product": build_product_model,
    "canonical-sound": build_canonical_sound,
    "interval-additive": build_interval_additive,
    "additive-sound": build_additive_sound,
}
