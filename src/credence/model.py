"""Subjective state-space models: a finite state space, a truth valuation
sending statements to events, and a likelihood appraisal on a field of
events.

The module grades truth valuations (exact / monotone / symmetric /
and-distributive / sound) and likelihood appraisals (symmetric /
monotone / totally monotone / additive), computes Mobius mass
decompositions, integrates payoff vectors by the finite Choquet sum,
and tests whether a model reproduces an assessment.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .assessment import Assessment
from .logic import FALSE, TRUE, Atom, Formula, Language, unparse

ZERO = Fraction(0)
ONE = Fraction(1)

MAX_FIELD_ATOMS = 12
MAX_POWERSET_STATES = 20


class ModelError(ValueError):
    pass


def event_label(event: frozenset) -> str:
    return "|".join(sorted(event))


class SubjectiveModel:
    """A triple (states, truth valuation, likelihood appraisal).

    ``truth`` maps formulas to explicit events.  T and F are always
    valued (the full and empty event); a conflicting explicit entry is
    rejected.  ``lam`` holds explicit appraisal values per event; an
    optional additive ``mass`` backend makes the appraisal total on the
    powerset by summation.  When every atom has an explicit truth event
    and all explicit compounds agree with pointwise evaluation, the
    model is *grounded*: its valuation extends soundly to every formula.
    ``exact_lookup`` lets an exact (equivalence-respecting) valuation
    answer for any formula equivalent to an explicitly valued one.
    """

    def __init__(
        self,
        language: Language,
        states,
        truth=None,
        lam=None,
        mass=None,
        name: str | None = None,
        exact_lookup: bool = False,
    ):
        self.language = language
        self.states = tuple(states)
        if not self.states:
            raise ModelError("a model needs at least one state")
        if len(set(self.states)) != len(self.states):
            raise ModelError("duplicate state labels")
        for s in self.states:
            if "|" in s:
                raise ModelError(f"state label {s!r} may not contain '|'")
        self.name = name
        self.exact_lookup = exact_lookup
        omega = frozenset(self.states)
        self.omega = omega

        self.truth: dict[Formula, frozenset] = {}
        for f, ev in (truth or {}).items():
            ev = frozenset(ev)
            if not ev <= omega:
                raise ModelError(f"truth event for {unparse(f)} mentions unknown states")
            self.truth[f] = ev
        for const, ev in ((TRUE, omega), (FALSE, frozenset())):
            if const in self.truth and self.truth[const] != ev:
                raise ModelError(f"{unparse(const)} must be valued as {sorted(ev)}")
            self.truth[const] = ev

        self.mass: dict[str, Fraction] | None = None
        if mass is not None:
            self.mass = {s: Fraction(v) for s, v in mass.items()}
            for s in self.mass:
                if s not in omega:
                    raise ModelError(f"mass assigned to unknown state {s!r}")
            for s in self.states:
                self.mass.setdefault(s, ZERO)
            if sum(self.mass.values()) != ONE:
                raise ModelError("state masses must sum to exactly 1")

        self.lam: dict[frozenset, Fraction] = {}
        for ev, v in (lam or {}).items():
            ev = frozenset(ev)
            if not ev <= omega:
                raise ModelError("lambda valued on an event with unknown states")
            self.lam[ev] = Fraction(v)
        for ev, v in ((frozenset(), ZERO), (omega, ONE)):
            if ev in self.lam and self.lam[ev] != v:
                raise ModelError(
                    f"lambda({event_label(ev) or 'empty'}) must equal {v}"
                )
            self.lam.setdefault(ev, v)
        if self.mass is not None:
            for ev, v in self.lam.items():
                total = sum(self.mass[s] for s in ev)
                if total != v:
                    raise ModelError(
                        f"explicit lambda({event_label(ev)}) = {v} disagrees "
                        f"with the additive masses ({total})"
                    )

        self.state_valuation: dict[str, int] | None = None
        self.grounded = False
        self.grounding_mismatches: list[str] = []
        self._ground()

    # -- truth valuation ------------------------------------------------

    def _ground(self):
        lang = self.language
        atom_events = {}
        for a in lang.atoms:
            ev = self.truth.get(Atom(a))
            if ev is None:
                return
            atom_events[a] = ev
        vals = {}
        for s in self.states:
            vals[s] = sum(
                1 << j for j, a in enumerate(lang.atoms) if s in atom_events[a]
            )
        mismatches = []
        for f, ev in self.truth.items():
            sat = lang.sat(f)
            derived = frozenset(s for s in self.states if (sat >> vals[s]) & 1)
            if derived != ev:
                mismatches.append(unparse(f))
        self.state_valuation = vals
        self.grounding_mismatches = sorted(mismatches)
        self.grounded = not mismatches

    def truth_of(self, f: Formula) -> frozenset | None:
        ev = self.truth.get(f)
        if ev is not None:
            return ev
        if self.grounded:
            sat = self.language.sat(f)
            return frozenset(
                s for s in self.states if (sat >> self.state_valuation[s]) & 1
            )
        if self.exact_lookup:
            sat = self.language.sat(f)
            for g in sorted(self.truth, key=unparse):
                if self.language.sat(g) == sat:
                    return self.truth[g]
        return None

    def truth_domain(self) -> list[Formula]:
        return sorted(self.truth, key=unparse)

    # -- likelihood appraisal --------------------------------------------

    def lambda_of(self, event) -> Fraction | None:
        ev = frozenset(event)
        v = self.lam.get(ev)
        if v is not None:
            return v
        if self.mass is not None:
            return sum((self.mass[s] for s in ev), ZERO)
        return None

    def field_atoms(self) -> list[frozenset]:
        """Blocks of the coarsest partition from which every explicit
        truth event is built; the generated field is their union closure."""
        events = sorted(set(self.truth.values()), key=event_label)
        blocks: dict[tuple, set] = {}
        for s in self.states:
            sig = tuple(s in ev for ev in events)
            blocks.setdefault(sig, set()).add(s)
        return sorted((frozenset(b) for b in blocks.values()), key=event_label)

    def field_events(self) -> list[frozenset]:
        atoms = self.field_atoms()
        if len(atoms) > MAX_FIELD_ATOMS:
            raise ModelError(
                f"generated field has {len(atoms)} atoms; "
                f"enumeration is capped at {MAX_FIELD_ATOMS}"
            )
        return sorted(_unions(atoms), key=lambda e: (len(e), event_label(e)))


# -- truth classification ------------------------------------------------


@dataclass
class TruthFlags:
    exact: bool
    monotone: bool
    symmetric: bool
    and_distributive: bool
    witnesses: dict = field(default_factory=dict)

    @property
    def sound(self) -> bool:
        return self.exact and self.monotone and self.symmetric and self.and_distributive

    def to_dict(self) -> dict:
        return {
            "exact": self.exact,
            "monotone": self.monotone,
            "symmetric": self.symmetric,
            "and_distributive": self.and_distributive,
            "sound": self.sound,
            "witnesses": self.witnesses,
        }


def classify_truth(model: SubjectiveModel, formulas=None) -> TruthFlags:
    """Grade the truth valuation over all applicable pairs of the given
    formulas (default: the model's explicitly valued ones).

    Compounds are located among the graded formulas up to logical
    equivalence, so the flags are relative to that universe.
    """
    lang = model.language
    fs = sorted(formulas if formulas is not None else model.truth_domain(), key=unparse)
    t = {}
    by_sat: dict[int, list[Formula]] = {}
    sat_bits = {}
    for f in fs:
        ev = model.truth_of(f)
        if ev is None:
            raise ModelError(f"model does not value {unparse(f)}")
        t[f] = ev
        bits = lang.sat(f)
        sat_bits[f] = bits
        by_sat.setdefault(bits, []).append(f)
    wit: dict[str, list] = {"exact": [], "monotone": [], "symmetric": [], "and_distributive": []}

    for group in by_sat.values():
        for f, g in itertools.combinations(group, 2):
            if t[f] != t[g]:
                wit["exact"].append((unparse(f), unparse(g)))
    for f in fs:
        for g in fs:
            if f is not g and sat_bits[f] & ~sat_bits[g] == 0 and not t[f] <= t[g]:
                wit["monotone"].append((unparse(f), unparse(g)))
    for f in fs:
        neg = lang.full_mask & ~sat_bits[f]
        for g in by_sat.get(neg, ()):
            if t[g] != model.omega - t[f]:
                wit["symmetric"].append((unparse(f), unparse(g)))
    for f, g in itertools.combinations_with_replacement(fs, 2):
        members = by_sat.get(sat_bits[f] & sat_bits[g])
        if not members:
            continue
        meet = t[f] & t[g]
        for h in members:
            if t[h] != meet:
                wit["and_distributive"].append((unparse(f), unparse(g), unparse(h)))

    wit = {k: sorted(set(v)) for k, v in wit.items()}
    return TruthFlags(
        exact=not wit["exact"],
        monotone=not wit["monotone"],
        symmetric=not wit["symmetric"],
        and_distributive=not wit["and_distributive"],
        witnesses={k: v for k, v in wit.items() if v},
    )


# -- likelihood classification ---------------------------------------------


@dataclass
class LambdaFlags:
    symmetric: bool
    monotone: bool
    totally_monotone: bool
    additive: bool
    witnesses: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "symmetric": self.symmetric,
            "monotone": self.monotone,
            "totally_monotone": self.totally_monotone,
            "additive": self.additive,
            "witnesses": self.witnesses,
        }


def _sigma_values(model: SubjectiveModel) -> tuple[list[frozenset], dict[frozenset, Fraction]]:
    events = model.field_events()
    values = {}
    missing = []
    for ev in events:
        v = model.lambda_of(ev)
        if v is None:
            missing.append(event_label(ev) or "(empty)")
        else:
            values[ev] = v
    if missing:
        raise ModelError(
            "lambda is not total on the generated field; missing: "
            + ", ".join(sorted(missing))
        )
    return events, values


def classify_lambda(model: SubjectiveModel) -> LambdaFlags:
    """Grade the likelihood appraisal on the field generated by the
    model's truth events.  Total monotonicity is decided exactly through
    the Mobius masses over the field's atoms."""
    events, lam = _sigma_values(model)
    atoms = model.field_atoms()
    omega = model.omega
    wit: dict[str, list] = {"symmetric": [], "monotone": [], "totally_monotone": [], "additive": []}

    for ev in events:
        comp = omega - ev
        if lam[ev] + lam[comp] != ONE:
            wit["symmetric"].append((event_label(ev), event_label(comp)))
    for ev in events:
        for block in atoms:
            if not block <= ev:
                bigger = ev | block
                if lam[ev] > lam[bigger]:
                    wit["monotone"].append((event_label(ev), event_label(bigger)))
    # additive: every event's value is the sum over the field atoms inside it
    for ev in events:
        total = sum((lam[b] for b in atoms if b <= ev), ZERO)
        if lam[ev] != total:
            wit["additive"].append((event_label(ev), str(lam[ev]), str(total)))

    # Mobius masses over the powerset of field atoms, each block a point
    unions = _unions(atoms)
    for ev, m in zip(unions, _subset_sums([lam[ev] for ev in unions], inverse=True)):
        if m < 0:
            wit["totally_monotone"].append((event_label(ev), str(m)))

    wit = {k: sorted(set(v)) for k, v in wit.items()}
    return LambdaFlags(
        symmetric=not wit["symmetric"],
        monotone=not wit["monotone"],
        totally_monotone=not wit["totally_monotone"],
        additive=not wit["additive"],
        witnesses={k: v for k, v in wit.items() if v},
    )


# -- Mobius transform ------------------------------------------------------


def _unions(blocks) -> list[frozenset]:
    """The union of the blocks each bitmask picks, indexed by the mask
    (bit j picks ``blocks[j]``)."""
    out = [frozenset()]
    for block in blocks:
        out += [ev | block for ev in out]
    return out


def _subset_sums(arr: list, inverse: bool = False) -> list:
    """The zeta transform over bitmasks, in place: each entry becomes the
    sum of the entries at its submasks.  ``inverse`` runs the Mobius
    transform instead, which undoes it."""
    combine = operator.sub if inverse else operator.add
    bit = 1
    while bit < len(arr):
        for mask in range(len(arr)):
            if mask & bit:
                arr[mask] = combine(arr[mask], arr[mask ^ bit])
        bit <<= 1
    return arr


def mobius(model: SubjectiveModel) -> dict[frozenset, Fraction]:
    """Mobius masses of an appraisal that is total on the full powerset.
    Inverse of :func:`inverse_mobius`; masses sum to 1 and are all
    nonnegative exactly when the appraisal is totally monotone."""
    if len(model.states) > MAX_POWERSET_STATES:
        raise ModelError(f"powerset Mobius capped at {MAX_POWERSET_STATES} states")
    events = _unions(frozenset([s]) for s in model.states)
    arr = []
    for ev in events:
        v = model.lambda_of(ev)
        if v is None:
            raise ModelError(
                f"lambda is not total on the powerset; missing {event_label(ev) or '(empty)'}"
            )
        arr.append(v)
    return dict(zip(events[1:], _subset_sums(arr, inverse=True)[1:]))


def inverse_mobius(masses, states) -> dict[frozenset, Fraction]:
    """Rebuild the appraisal from Mobius masses: each event sums the
    masses of its subsets."""
    events = _unions(frozenset([s]) for s in states)
    mask_of = {ev: mask for mask, ev in enumerate(events)}
    arr = [ZERO] * len(events)
    for ev, v in masses.items():
        v = Fraction(v)
        mask = mask_of.get(frozenset(ev))
        if mask is not None:  # a mass off the states lies below no event
            arr[mask] += v
    return dict(zip(events, _subset_sums(arr)))


# -- Choquet integration ----------------------------------------------------


def choquet(model: SubjectiveModel, payoff) -> Fraction:
    """Finite Choquet integral of a nonnegative state-indexed payoff:
    with distinct values a_1 > ... > a_k and a_{k+1} = 0,

        sum_j (a_j - a_{j+1}) * lambda({payoff >= a_j}).

    Every upper set must carry an appraisal value.  Equals the
    mass-weighted dot product when the appraisal is additive.
    """
    x = {s: Fraction(v) for s, v in payoff.items()}
    if set(x) != set(model.states):
        raise ModelError("payoff must value exactly the model's states")
    if any(v < 0 for v in x.values()):
        raise ModelError(
            "payoff must be nonnegative; shift it up and subtract the shift "
            "from the result (the shift adds exactly shift * lambda(omega))"
        )
    levels = sorted(set(x.values()), reverse=True)
    total = ZERO
    for i, a in enumerate(levels):
        nxt = levels[i + 1] if i + 1 < len(levels) else ZERO
        if a == nxt:
            continue
        upper = frozenset(s for s, v in x.items() if v >= a)
        lv = model.lambda_of(upper)
        if lv is None:
            raise ModelError(
                f"upper set {event_label(upper)} is not in the appraisal's domain"
            )
        total += (a - nxt) * lv
    return total


# -- representation ----------------------------------------------------------


@dataclass
class RepresentationReport:
    ok: bool
    residuals: dict[str, Fraction]
    missing: list[str]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "residuals": {k: str(v) for k, v in self.residuals.items()},
            "missing": list(self.missing),
        }


def represents(model: SubjectiveModel, assessment: Assessment) -> RepresentationReport:
    """Whether lambda(t(phi)) reproduces pi(phi) on the whole universe;
    residuals are pi - lambda(t(.)) per formula."""
    residuals = {}
    missing = []
    for f in assessment.sorted_formulas():
        ev = model.truth_of(f)
        if ev is None:
            missing.append(assessment.text(f))
            continue
        lv = model.lambda_of(ev)
        if lv is None:
            missing.append(assessment.text(f))
            continue
        residuals[assessment.text(f)] = assessment.value(f) - lv
    ok = not missing and all(r == 0 for r in residuals.values())
    return RepresentationReport(ok, residuals, missing)
