"""Subjective state-space models: a finite state space, a truth valuation
sending statements to events, and a likelihood appraisal on a field of
events.

The core is indexed.  A state is its bit position in ``states``, an
event an int mask over those positions, and the appraisal values and
optional state masses are int numerators over the model's one
``denominator`` (the format of ``_exact``), so grading, Mobius and
Choquet run in ints; ``lambda_of`` builds a ``Fraction`` on lookup.
State labels serve only I/O and reports.  An event's label is the
labels of its states in text order (``w10`` before ``w2``), joined by
'|'; ``label_events`` is the one way to compute it, and ``labels``,
``label`` (through its one-event pass), ``report_order`` (by size, then
by label) and ``labelled`` go through it.  Many events over few states, as in a
canonical-sound appraisal table, are labelled a byte of states at a
time from tables built for the call; few events over many states, as
in a product model's truth events, are labelled by one pass over each
event's bits in C.

The module grades truth valuations (exact / monotone / symmetric /
and-distributive / sound) and likelihood appraisals (symmetric /
monotone / totally monotone / additive), computes Mobius masses,
integrates payoffs by the finite Choquet sum, and tests whether a model
reproduces an assessment.  The generated field and a capacity on the
powerset are tables indexed by bits, bounded by ``logic.check_table``.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial, reduce

from ._exact import exact, over_one_denominator
from .assessment import Assessment
from .errors import InputError
from .logic import FALSE, TRUE, Atom, Formula, Language, check_table, unparse

ZERO = Fraction(0)

# ``label_events`` builds byte tables, two of 256 entries per byte of
# states, once there are at least 128 events and 4 for each state; below
# that, one pass over each event's bits, a step per state, costs less.
# Timed over 1 to 1,024 states and 8 to 4,096 events, the tables took
# 1.1 to 3.4 times less time wherever this rule picks them, bar 4,096
# events over 1,024 states (0.95), and up to 16 times more on 8 events
TABLE_MIN_EVENTS = 128
TABLE_EVENTS_PER_STATE = 4

# the characters '0' and '1' of ``bin`` as the bytes 0 and 1, so that
# ``itertools.compress`` can select by them
_BITS = bytes.maketrans(b"01", b"\0\1")


class ModelError(InputError):
    pass


def _flags(mask: int) -> bytes:
    """Byte i is bit i of a nonnegative ``mask``, 0 or 1, up to its
    highest set bit."""
    return bin(mask)[:1:-1].encode().translate(_BITS)


def bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    return list(itertools.compress(itertools.count(), _flags(mask)))


def check_states(states) -> tuple[str, ...]:
    """The state labels as a tuple, once they are known to be at least
    one, each a nonempty string, distinct and free of the event separator
    '|'; so the empty label ``""`` names only the empty event."""
    states = tuple(states)
    if not states:
        raise ModelError("a model needs at least one state")
    for s in states:
        if not isinstance(s, str):
            raise ModelError(f"state label {s!r} is not a string")
        if not s:
            raise ModelError(f"state label {s!r} is empty")
        if "|" in s:
            raise ModelError(f"state label {s!r} may not contain '|'")
    if len(set(states)) != len(states):
        raise ModelError("duplicate state labels")
    return states


class SubjectiveModel:
    """A triple (states, truth valuation, likelihood appraisal).

    ``truth`` maps formulas to event masks (bit i is ``states[i]``).  T
    and F are always valued (the full and empty event); a conflicting
    explicit entry is rejected.  ``lam`` gives explicit appraisal values
    per event mask.  ``mass`` gives an optional additive backend, one
    nonnegative value per state; it makes the appraisal total on the
    powerset by summation.  Values are rationals, or, with
    ``denominator``, int numerators over it (appraisal values and masses
    alike); the model holds both as ``lam_numerators`` and
    ``mass_numerators`` over one ``denominator``.  When every atom has
    an explicit truth event and all explicit compounds agree with
    pointwise evaluation, the model is *grounded*: its valuation extends
    soundly to every formula.  ``exact_lookup`` lets an exact
    (equivalence-respecting) valuation answer for any formula equivalent
    to an explicitly valued one, and for no other; such a model is never
    grounded.  The explicit truth events are fixed once the model is
    built.
    """

    def __init__(
        self,
        language: Language,
        states,
        truth=None,
        lam=None,
        mass=None,
        exact_lookup: bool = False,
        denominator: int | None = None,
    ):
        self.language = language
        self.states = check_states(states)
        self.exact_lookup = exact_lookup
        n = len(self.states)
        omega = (1 << n) - 1
        self.omega = omega

        self.truth: dict[Formula, int] = {}
        for f, ev in (truth or {}).items():
            if ev < 0 or ev & ~omega:
                raise ModelError(f"truth event for {unparse(f)} mentions unknown states")
            self.truth[f] = ev
        for const, ev in ((TRUE, omega), (FALSE, 0)):
            if const in self.truth and self.truth[const] != ev:
                raise ModelError(f"{unparse(const)} must be valued as {self.labels(ev)}")
            self.truth[const] = ev

        lam = lam or {}
        if mass is not None:
            mass = tuple(mass)
            if len(mass) != n:
                raise ModelError(f"masses must give one value per state, got {len(mass)}")
        if denominator is None:
            values = [exact(v, ModelError) for v in (*(mass or ()), *lam.values())]
            denominator, nums = over_one_denominator(values)
            if mass is not None:
                mass, nums = nums[:n], nums[n:]
            lam = dict(zip(lam, nums))
        self.denominator = denominator

        self.mass_numerators: tuple[int, ...] | None = None
        if mass is not None:
            for s, v in zip(self.states, mass):
                if v < 0:
                    raise ModelError(
                        f"state masses must be nonnegative; {s} has {Fraction(v, denominator)}"
                    )
            if sum(mass) != denominator:
                raise ModelError("state masses must sum to exactly 1")
            self.mass_numerators = tuple(mass)

        self.lam_numerators: dict[int, int] = dict(lam)
        if lam and (min(lam) < 0 or max(lam) > omega):
            raise ModelError("lambda valued on an event with unknown states")
        for ev, v in ((0, 0), (omega, 1)):
            if self.lam_numerators.setdefault(ev, v * denominator) != v * denominator:
                raise ModelError(f"lambda({self.label(ev) or 'empty'}) must equal {v}")
        if self.mass_numerators is not None:
            for ev, v in self.lam_numerators.items():
                total = self._mass_sum(ev)
                if v != total:
                    raise ModelError(
                        f"explicit lambda({self.label(ev)}) = {Fraction(v, denominator)} "
                        f"disagrees with the additive masses ({Fraction(total, denominator)})"
                    )

        self.valuation_events: dict[int, int] | None = None
        self.grounded = False
        self.grounding_mismatches: list[str] = []
        self._by_sat: dict[int, int] | None = None
        self._ground()

    # -- state labels, for reading, writing and reports ---------------------

    @cached_property
    def _text_order(self) -> list[int]:
        """The state indices in the text order of their labels."""
        return sorted(range(len(self.states)), key=self.states.__getitem__)

    @cached_property
    def _text_labels(self) -> tuple[str, ...]:
        return tuple(self.states[i] for i in self._text_order)

    @cached_property
    def _text_bits(self):
        """Takes ``_flags(event | 1 << n)``, a byte per state and one past
        them, to the event's bits in text order; None where the states
        are in text order already."""
        order = self._text_order
        if order == list(range(len(order))):
            return None
        return operator.itemgetter(*order)

    def _selected(self, event: int):
        """The labels of the event's states in text order, selected in one
        pass over its bits."""
        to_text = self._text_bits
        if to_text is None:
            return itertools.compress(self.states, _flags(event))
        return itertools.compress(self._text_labels, to_text(_flags(event | self.omega + 1)))

    def _labels_by_bytes(self, events: list[int]) -> list[str]:
        """``label_events`` through two tables per byte of states, built
        for this call: one maps each byte of an event's states in index
        order to those states' bits in text order, the other each byte of
        that text-order mask to its states' labels, each followed by '|'."""
        n = len(self.states)
        rank = [0] * n
        for t, i in enumerate(self._text_order):
            rank[i] = t
        to_text, pieces = [], []
        for low in range(0, n, 8):
            masks, texts = [0], [""]
            for i in range(low, min(low + 8, n)):
                bit = 1 << rank[i]
                masks += [m | bit for m in masks]
            for label in self._text_labels[low:low + 8]:
                label += "|"
                texts += [p + label for p in texts]
            to_text.append(masks)
            pieces.append(texts)
        labels = _by_bytes(pieces, _by_bytes(to_text, events, operator.or_), operator.add)
        return list(map(operator.itemgetter(slice(None, -1)), labels))

    def label_events(self, events) -> list[str]:
        """Each event's label: the labels of its states in text order,
        joined by '|'.  Byte tables label many events over few states;
        one pass over the bits labels each of few events over many."""
        events = list(events)
        if len(events) >= max(TABLE_MIN_EVENTS, TABLE_EVENTS_PER_STATE * len(self.states)):
            return self._labels_by_bytes(events)
        return list(map("|".join, map(self._selected, events)))

    def labels(self, event: int) -> list[str]:
        """The labels of the event's states, in text order."""
        return list(self._selected(event))

    def label(self, event: int) -> str:
        return "|".join(self._selected(event))

    def report_order(self, events) -> tuple[list[int], dict[int, str]]:
        """The events by size, then by label, and each event's label."""
        events = list(events)
        label = dict(zip(events, self.label_events(events)))
        events.sort(key=label.__getitem__)
        events.sort(key=int.bit_count)
        return events, label

    def labelled(self, values: dict) -> list[tuple[str, object]]:
        """(label, value) for each event keyed in ``values``, in report
        order."""
        events, label = self.report_order(values)
        return [(label[ev], values[ev]) for ev in events]

    # -- truth valuation ------------------------------------------------

    def _ground(self):
        """Split the states by the atoms' truth events into the states
        realizing each valuation; each statement's event is then the
        union of the parts its valuation set picks."""
        lang = self.language
        parts = [(0, self.omega)]
        for j, a in enumerate(lang.atoms):
            ev = self.truth.get(Atom(a))
            if ev is None:
                return
            parts = [
                part
                for v, states in parts
                for part in ((v, states & ~ev), (v | 1 << j, states & ev))
                if part[1]
            ]
        self.valuation_events = dict(parts)
        self.grounding_mismatches = sorted(
            unparse(f) for f, ev in self.truth.items() if self._derived(lang.sat(f)) != ev
        )
        self.grounded = not self.grounding_mismatches and not self.exact_lookup

    def _derived(self, sat: int) -> int:
        ev = 0
        for v, states in self.valuation_events.items():
            if sat >> v & 1:
                ev |= states
        return ev

    def truth_of(self, f: Formula) -> int | None:
        ev = self.truth.get(f)
        if ev is not None:
            return ev
        if self.grounded:
            return self._derived(self.language.sat(f))
        if self.exact_lookup:
            if self._by_sat is None:
                self._by_sat = {}
                for g in sorted(self.truth, key=unparse):
                    self._by_sat.setdefault(self.language.sat(g), self.truth[g])
            return self._by_sat.get(self.language.sat(f))
        return None

    def truth_domain(self) -> list[Formula]:
        return sorted(self.truth, key=unparse)

    # -- likelihood appraisal --------------------------------------------

    def _mass_sum(self, event: int) -> int:
        return sum(itertools.compress(self.mass_numerators, _flags(event)))

    @cached_property
    def mass(self) -> tuple[Fraction, ...] | None:
        """Each state's mass, in state order (None without masses)."""
        if self.mass_numerators is None:
            return None
        return tuple(Fraction(v, self.denominator) for v in self.mass_numerators)

    def lambda_numerator(self, event: int) -> int | None:
        """The appraisal's value on the event as a numerator over
        ``denominator``, or None where it gives none."""
        v = self.lam_numerators.get(event)
        if v is None and self.mass_numerators is not None:
            if event & ~self.omega:  # also every negative int
                raise ModelError(f"event {event} is not a set of the model's states")
            return self._mass_sum(event)
        return v

    def lambda_of(self, event: int) -> Fraction | None:
        v = self.lambda_numerator(event)
        return None if v is None else Fraction(v, self.denominator)

    def field_atoms(self) -> list[int]:
        """The blocks of the explicit truth events; the generated field is
        their union closure."""
        return field_atoms(self.omega, self.truth.values())

    def field_events(self) -> list[int]:
        """Every event of the generated field: entry S is the union of the
        field atoms that bitmask S picks."""
        atoms = self.field_atoms()
        check_table("generated field", len(atoms), "blocks", ModelError)
        return _unions(atoms)


def field_atoms(omega: int, events) -> list[int]:
    """The blocks of the coarsest partition of the states in ``omega``
    from which every one of ``events`` is built, in order of their first
    state."""
    blocks = [omega]
    for ev in set(events):
        blocks = [part for b in blocks for part in (b & ev, b & ~ev) if part]
    return sorted(blocks, key=lambda b: b & -b)


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
        sat = lang.sat(f)
        sat_bits[f] = sat
        by_sat.setdefault(sat, []).append(f)
    wit: dict[str, list] = {"exact": [], "monotone": [], "symmetric": [], "and_distributive": []}

    for group in by_sat.values():
        for f, g in itertools.combinations(group, 2):
            if t[f] != t[g]:
                wit["exact"].append((unparse(f), unparse(g)))
    for f in fs:
        for g in fs:
            if f is not g and sat_bits[f] & ~sat_bits[g] == 0 and t[f] & ~t[g]:
                wit["monotone"].append((unparse(f), unparse(g)))
    for f in fs:
        neg = lang.full_mask & ~sat_bits[f]
        for g in by_sat.get(neg, ()):
            if t[g] != model.omega ^ t[f]:
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


def _sigma_values(model: SubjectiveModel) -> tuple[list[int], list[int]]:
    """The generated field's events (entry S the union of the field atoms
    bitmask S picks) and the appraisal's value on each, as numerators
    over the model's denominator."""
    events = model.field_events()
    values = [model.lambda_numerator(ev) for ev in events]
    missing = [model.label(ev) or "(empty)" for ev, v in zip(events, values) if v is None]
    if missing:
        raise ModelError(
            "lambda is not total on the generated field; missing: "
            + ", ".join(sorted(missing))
        )
    return events, values


def classify_lambda(model: SubjectiveModel) -> LambdaFlags:
    """Grade the likelihood appraisal on the field generated by the
    model's truth events, comparing numerators over the model's
    denominator.  Total monotonicity is decided exactly through the
    Mobius masses over the field's atoms."""
    events, lam = _sigma_values(model)
    den = model.denominator
    full = len(events) - 1
    singles = [1 << j for j in range(full.bit_length())]
    label = model.label
    wit: dict[str, list] = {"symmetric": [], "monotone": [], "totally_monotone": [], "additive": []}

    def text(v: int) -> str:
        return str(Fraction(v, den))

    for s, ev in enumerate(events):
        if lam[s] + lam[full ^ s] != den:
            wit["symmetric"].append((label(ev), label(events[full ^ s])))
        for b in singles:
            if not s & b and lam[s] > lam[s | b]:
                wit["monotone"].append((label(ev), label(events[s | b])))
        # additive: every event's value is the sum over the field atoms inside it
        total = sum(lam[b] for b in singles if s & b)
        if lam[s] != total:
            wit["additive"].append((label(ev), text(lam[s]), text(total)))

    # Mobius masses over the powerset of field atoms, each block a point
    for ev, m in zip(events, _subset_fold(lam, operator.sub)):
        if m < 0:
            wit["totally_monotone"].append((label(ev), text(m)))

    wit = {k: sorted(set(v)) for k, v in wit.items()}
    return LambdaFlags(
        symmetric=not wit["symmetric"],
        monotone=not wit["monotone"],
        totally_monotone=not wit["totally_monotone"],
        additive=not wit["additive"],
        witnesses={k: v for k, v in wit.items() if v},
    )


# -- transforms over bitmasks -------------------------------------------------


def _by_bytes(tables, masks, combine) -> list:
    """For each mask, ``combine`` folded over its bytes, low first, each
    looked up in its byte's table (``tables[j]`` for byte j).  The masks'
    bytes go into one buffer, so byte j of every mask is one slice of it."""
    width = len(tables)
    row = b"".join(map(int.to_bytes, masks, itertools.repeat(width), itertools.repeat("little")))
    lookups = [map(table.__getitem__, row[j::width]) for j, table in enumerate(tables)]
    return list(reduce(partial(map, combine), lookups))


def _unions(blocks) -> list[int]:
    """The union of the blocks each bitmask picks, indexed by the mask
    (bit j picks ``blocks[j]``); maps field blocks to state masks."""
    out = [0]
    for block in blocks:
        out += [ev | block for ev in out]
    return out


def _bit_slices(n: int):
    """For each bit b below ``n``, in order, slices (high, low) of a list
    of length ``n`` that pair every mask holding b with the mask without
    it.  Those masks come in runs of b, every 2b entries: a slice takes
    a whole run, or a whole stride across the runs when those are
    fewer."""
    bit = 1
    while bit < n:
        step = 2 * bit
        if bit < n // step:
            for r in range(bit):
                yield slice(bit + r, None, step), slice(r, None, step)
        else:
            for base in range(0, n, step):
                yield slice(base + bit, base + step), slice(base, base + bit)
        bit = step


def _subset_fold(arr: list, combine=operator.add) -> list:
    """The transform over bitmasks, in place, that folds each entry with
    its submasks' one bit at a time: ``add`` gives the zeta transform
    (each entry the sum over its submasks), ``sub`` the Mobius
    transform that undoes it, and ``max`` the largest entry at a
    submask."""
    for high, low in _bit_slices(len(arr)):
        arr[high] = map(combine, arr[high], arr[low])
    return arr


def mobius(model: SubjectiveModel) -> dict[int, Fraction]:
    """Mobius masses of an appraisal that is total on the full powerset,
    keyed by nonempty event.  Inverse of :func:`inverse_mobius`; masses
    sum to 1 and are all nonnegative exactly when the appraisal is
    totally monotone."""
    n = len(model.states)
    check_table("powerset capacity", n, "states", ModelError)
    values = []
    for ev in range(1 << n):
        v = model.lambda_numerator(ev)
        if v is None:
            raise ModelError(
                f"lambda is not total on the powerset; missing {model.label(ev) or '(empty)'}"
            )
        values.append(v)
    den = model.denominator
    masses = _subset_fold(values, operator.sub)
    return {ev: Fraction(m, den) if m else ZERO for ev, m in enumerate(masses) if ev}


def inverse_mobius(masses, n: int) -> dict[int, Fraction]:
    """Rebuild the appraisal on the powerset of ``n`` states from Mobius
    masses keyed by event: each event sums the masses of its subsets."""
    check_table("powerset capacity", n, "states", ModelError)
    values = [ZERO] * (1 << n)
    for ev, v in masses.items():
        if 0 <= ev < len(values):  # a mass off the states lies below no event
            values[ev] += exact(v, ModelError)
    den, nums = over_one_denominator(values)
    return {ev: Fraction(v, den) for ev, v in enumerate(_subset_fold(nums))}


# -- Choquet integration ----------------------------------------------------


def upper_sets(values) -> list[tuple[Fraction, int]]:
    """Each distinct value a of a per-state vector, largest first, with the
    mask of the states valued at least a."""
    level: dict[Fraction, int] = {}
    for i, v in enumerate(values):
        level[v] = level.get(v, 0) | 1 << i
    out = []
    upper = 0
    for a in sorted(level, reverse=True):
        upper |= level[a]
        out.append((a, upper))
    return out


def choquet(model: SubjectiveModel, payoff) -> Fraction:
    """Finite Choquet integral of a nonnegative payoff, one value per
    state in state order: with distinct values a_1 > ... > a_k and
    a_{k+1} = 0,

        sum_j (a_j - a_{j+1}) * lambda({payoff >= a_j}).

    Every upper set must carry an appraisal value.  Equals the
    mass-weighted dot product when the appraisal is additive.  Payoffs
    are ints or ``Fraction``s, taken as they are.
    """
    x = list(payoff)
    if len(x) != len(model.states):
        raise ModelError("payoff must value exactly the model's states")
    if any(v < 0 for v in x):
        raise ModelError(
            "payoff must be nonnegative; shift it up and subtract the shift "
            "from the result (the shift adds exactly shift * lambda(omega))"
        )
    scale, nums = over_one_denominator(x)
    levels = upper_sets(nums)
    total = 0
    for i, (a, upper) in enumerate(levels):
        nxt = levels[i + 1][0] if i + 1 < len(levels) else 0
        if a == nxt:
            continue
        lv = model.lambda_numerator(upper)
        if lv is None:
            raise ModelError(
                f"upper set {model.label(upper)} is not in the appraisal's domain"
            )
        total += (a - nxt) * lv
    return Fraction(total, scale * model.denominator)


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
