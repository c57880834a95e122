"""Shared generators and independent oracles for the test suite.

The oracles here recompute expected values by routes independent of the
implementation under test: direct recursive truth-table evaluation for
entailment, the statement-pair loops the axiom checkers ran before the
statement index, the enumeration of every valuation superset that the
sub-theory search ran before minimal transversals, the per-consequent family loop of axiom IE, the
textbook alternating-sum formula for Mobius masses and the literal
subset sum for its inverse, the defining inequalities of
total monotonicity, a simplex-grid search for dominance, and the
materialized maximal model with one state per subset of the coordinate
events, on which dominance is the plain state-by-state LP, and the exact
simplex and matrix-game solver as they ran before the single tableau
(a separate objective row, a big-M phase 2 and a game tableau of its
own), and the single-tableau simplex and the valuation-mass row
reduction as they ran on ``Fraction``s before the fraction-free integer
pivot; all must give the same pivots and hence the same exact results.
``rationalizable_oracle`` is the rationalizability decision as it ran on
``Fraction``s from the payoffs to the LP rows, on that ``Fraction``
simplex and game tableau, before it ran in ints over the pool's one
denominator.
Last come the subjective model with events as frozensets of state
labels, its grading, Mobius, Choquet and representation functions and
the five builders on it, as they ran before states became bit
positions; ``indexed`` turns such a model into its indexed twin, and
``load_model_oracle`` reads a model file into one, with a ``Fraction``
per appraisal value, as model files were read before the values became
int numerators.  ``load_session_oracle`` reads every file a session
names at once, as sessions were read before each file was read on
first use.
The JSON report writer's oracle is the json module's sorted,
two-space-indented encoding that the CLI used before it.  The axiom
reports' oracle is ``ReportOracle``, a report as it was before it held
its violations as rows: a sorted list of ``Violation``s with a
``Fraction`` per side, each written through its own dict, with the NT,
E and A checkers as they ran on ``Fraction``s, the ``check`` JSON text
through ``json.dumps`` and the text lines read from the ``Violation``s.  The formula
oracle is the frozen-dataclass tree that formulas were before they were
hash-consed, with a parse that builds it and its own unparse and sat.
``parse_oracle`` is ``Language.parse`` as it ran before the token
pattern, on a tokenizer that read the text one character at a time.
The formula renderer's oracle is ``formula_from_valuations`` as it ran
before the Shannon expansion: an exact search for a cover of at most 4
prime terms, then a greedy prime cover, then a minterm disjunction.
``run_cli`` runs one ``credence`` command in this process and returns
what a shell would see of it.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import operator
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from credence._simplex import GameSolution, LpResult, SimplexError
from credence.assessment import (
    Assessment,
    Violation,
    check_a,
    check_e,
    check_i,
    check_nt,
    check_s_i,
)
from credence.construct import (
    BuildError,
    BuildOutcome,
    CertEntry,
    _require,
)
from credence.errors import InternalError
from credence.files import (
    FileFormatError,
    _expect,
    _read_json,
    load_assessment,
    load_model,
    load_strategies,
    load_theory,
)
from credence.games import (
    DominanceResult,
    GamesError,
    RationalizabilityResult,
    Strategy,
    _names,
    _witness_from_events,
    layer_decompose,
    strategy_events,
    t_circ,
    transported_vector,
)
from credence.identify import IdentifyError, SubtheoryResult, _theory_for_valuations
from credence.logic import (
    FALSE,
    MAX_ATOMS,
    MAX_DEPTH,
    TRUE,
    And,
    Atom,
    Const,
    Formula,
    Language,
    Not,
    Or,
    ParseError,
    Theory,
    UndeclaredAtomError,
    _depth,
    check_table,
    unparse,
)
from credence.model import (
    LambdaFlags,
    ModelError,
    RepresentationReport,
    SubjectiveModel,
    TruthFlags,
    check_states,
    choquet,
)

ZERO = Fraction(0)
ONE = Fraction(1)


# -- the command line in-process ----------------------------------------------


@dataclass
class CliResult:
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr, in the order they were written


class _Recorder(io.StringIO):
    """A stream that also appends each write to ``written``."""

    def __init__(self, written: list[str]):
        super().__init__()
        self.written = written

    def write(self, text: str) -> int:
        self.written.append(text)
        return super().write(text)


def run_cli(*args) -> CliResult:
    """``credence ARGS`` run in this process: its exit code and what it
    wrote.  An exception other than the command's exit propagates."""
    from credence.cli import main

    written = []
    out, err = _Recorder(written), _Recorder(written)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main([str(a) for a in args], prog_name="credence")
        except SystemExit as e:
            code = e.code
        else:
            raise AssertionError("the command returned without exiting")
    return CliResult(code, out.getvalue(), err.getvalue(), "".join(written))


# -- library surface that only tests use ------------------------------------


def valuation_atoms(lang: Language, i: int) -> dict[str, bool]:
    """Valuation ``i`` as the truth value of each atom by name."""
    return {a: bool((i >> j) & 1) for j, a in enumerate(lang.atoms)}


def tautological_theory(language: Language) -> Theory:
    """The theory with no generators: every valuation is left open."""
    return Theory(language, ())


def theory_contains(theory: Theory, f: Formula) -> bool:
    """Whether ``f`` holds under every valuation the theory leaves open."""
    return theory.valuations & ~theory.language.sat(f) == 0


def shift_nonnegative(payoffs) -> tuple[dict[Formula, Fraction], Fraction]:
    """Shift raw payoffs up to be nonnegative; returns (shifted, shift).
    Integrals of the shifted strategy are exactly shift higher."""
    values = {f: Fraction(v) for f, v in payoffs.items()}
    low = min(values.values(), default=ZERO)
    shift = -low if low < 0 else ZERO
    return {f: v + shift for f, v in values.items()}, shift


def label_oracle(model: SubjectiveModel, event: int) -> str:
    """An event's label as ``SubjectiveModel.labels`` built it before
    ``label_events``: a scan of every state in text order, joined."""
    order = sorted(range(len(model.states)), key=model.states.__getitem__)
    return "|".join([model.states[i] for i in order if event >> i & 1])


def json_text_oracle(payload) -> str:
    """A report as the CLI wrote it before its own writer."""
    return json.dumps(payload, indent=2, sort_keys=True)


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
        assignment = valuation_atoms(lang, bits)
        if eval_formula(f, assignment) and not eval_formula(g, assignment):
            return False
    return True


@dataclass(frozen=True)
class TreeFormula:
    pass


@dataclass(frozen=True)
class TreeAtom(TreeFormula):
    name: str


@dataclass(frozen=True)
class TreeConst(TreeFormula):
    value: bool


@dataclass(frozen=True)
class TreeNot(TreeFormula):
    child: TreeFormula


@dataclass(frozen=True)
class TreeAnd(TreeFormula):
    left: TreeFormula
    right: TreeFormula


@dataclass(frozen=True)
class TreeOr(TreeFormula):
    left: TreeFormula
    right: TreeFormula


TREE_OF = {Atom: TreeAtom, Const: TreeConst, Not: TreeNot, And: TreeAnd, Or: TreeOr}


def as_tree(f: Formula) -> TreeFormula:
    """The oracle tree with the same structure as a formula node."""
    fields = [getattr(f, n) for n in type(f).__slots__]
    return TREE_OF[type(f)](*(as_tree(x) if isinstance(x, Formula) else x for x in fields))


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "()!&|":
            tokens.append((c, c, i))
            i += 1
            continue
        if text.startswith("<->", i):
            tokens.append(("iff", "<->", i))
            i += 3
            continue
        if text.startswith("->", i):
            tokens.append(("imp", "->", i))
            i += 2
            continue
        m = _IDENT.match(text, i)
        if m:
            tokens.append(("ident", m.group(), i))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


def parse_oracle(lang: Language, text: str) -> Formula:
    """``Language.parse`` as it ran on ``(kind, value, offset)`` tokens read
    one character at a time: the same grammar, sugar, depth bound, errors
    and positions."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos]

    def advance():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def formula(level: int) -> Formula:
        kind, value, at = advance()
        if level == MAX_DEPTH and kind in ("!", "("):
            raise ParseError(f"formula nests more than {MAX_DEPTH} levels deep", at)
        if kind == "ident":
            if value == "T":
                return TRUE
            if value == "F":
                return FALSE
            if value not in lang._index:
                raise UndeclaredAtomError(f"undeclared atom {value!r}", at)
            return Atom(value)
        if kind == "!":
            return Not(formula(level + 1))
        if kind == "(":
            left = formula(level + 1)
            op_kind, op_value, op_at = advance()
            if op_kind not in ("&", "|", "imp", "iff"):
                raise ParseError(
                    f"expected a connective, got {op_value or 'end of input'!r}", op_at
                )
            right = formula(level + 1)
            close_kind, _, close_at = advance()
            if close_kind != ")":
                raise ParseError("expected ')'", close_at)
            if op_kind == "&":
                return And(left, right)
            if op_kind == "|":
                return Or(left, right)
            if op_kind == "imp":
                return Or(Not(left), right)
            return And(Or(Not(left), right), Or(Not(right), left))
        raise ParseError(f"expected a formula, got {value or 'end of input'!r}", at)

    result = formula(0)
    kind, value, at = peek()
    if kind != "end":
        raise ParseError(f"trailing input {value!r}", at)
    # without "->" and "<->" the formula is as deep as the text, whose
    # nesting is checked above; expanding them adds at most two levels
    # per token, so only a text of more than MAX_DEPTH / 3 tokens with
    # one of them can come out deeper
    if 3 * len(tokens) > MAX_DEPTH and "->" in text and _depth(result) > MAX_DEPTH:
        raise ParseError(f"formula nests more than {MAX_DEPTH} levels deep", 0)
    return result


def tree_parse(lang: Language, text: str) -> TreeFormula:
    """``Language.parse`` as it ran on trees: the same grammar and sugar,
    building a fresh tree per call."""
    tokens = _tokenize(text)
    pos = 0

    def formula() -> TreeFormula:
        nonlocal pos
        kind, value, at = tokens[pos]
        pos += 1
        if kind == "ident":
            if value in ("T", "F"):
                return TreeConst(value == "T")
            if value not in lang.atoms:
                raise UndeclaredAtomError(f"undeclared atom {value!r}", at)
            return TreeAtom(value)
        if kind == "!":
            return TreeNot(formula())
        if kind != "(":
            raise ParseError(f"expected a formula, got {value!r}", at)
        left = formula()
        op = tokens[pos][0]
        pos += 1
        right = formula()
        if tokens[pos][0] != ")" or op not in ("&", "|", "imp", "iff"):
            raise ParseError("malformed binary formula", tokens[pos][2])
        pos += 1
        if op == "&":
            return TreeAnd(left, right)
        if op == "|":
            return TreeOr(left, right)
        if op == "imp":
            return TreeOr(TreeNot(left), right)
        return TreeAnd(TreeOr(TreeNot(left), right), TreeOr(TreeNot(right), left))

    result = formula()
    if tokens[pos][0] != "end":
        raise ParseError("trailing input", tokens[pos][2])
    return result


def tree_unparse(t: TreeFormula) -> str:
    if isinstance(t, TreeConst):
        return "T" if t.value else "F"
    if isinstance(t, TreeAtom):
        return t.name
    if isinstance(t, TreeNot):
        return "!" + tree_unparse(t.child)
    op = "&" if isinstance(t, TreeAnd) else "|"
    return f"({tree_unparse(t.left)} {op} {tree_unparse(t.right)})"


def tree_sat(lang: Language, t: TreeFormula) -> int:
    """A tree's valuation bitset, one valuation at a time."""
    bits = 0
    for i in range(lang.n_valuations):
        if _tree_eval(t, valuation_atoms(lang, i)):
            bits |= 1 << i
    return bits


def _tree_eval(t: TreeFormula, assignment: dict[str, bool]) -> bool:
    if isinstance(t, TreeConst):
        return t.value
    if isinstance(t, TreeAtom):
        return assignment[t.name]
    if isinstance(t, TreeNot):
        return not _tree_eval(t.child, assignment)
    if isinstance(t, TreeAnd):
        return _tree_eval(t.left, assignment) and _tree_eval(t.right, assignment)
    return _tree_eval(t.left, assignment) or _tree_eval(t.right, assignment)


# -- the formula renderer, as it ran before the Shannon expansion ---------


def _prime_terms_oracle(lang: Language, exclude: int) -> list[tuple[int, int, str]]:
    """All product terms avoiding ``exclude`` that are prime (no literal
    can be dropped), as (valuation mask, literal count, rendering)."""
    n = len(lang.atoms)
    valid: dict[tuple[int, int], int] = {}
    for care_atoms in itertools.product((None, False, True), repeat=n):
        mask = lang.full_mask
        for j, want in enumerate(care_atoms):
            if want is None:
                continue
            mask &= lang._atom_masks[j] if want else (lang.full_mask & ~lang._atom_masks[j])
        if mask & exclude:
            continue
        care = sum(1 << j for j, w in enumerate(care_atoms) if w is not None)
        vals = sum(1 << j for j, w in enumerate(care_atoms) if w)
        valid[(care, vals)] = mask
    primes = []
    for (care, vals), mask in valid.items():
        is_prime = True
        for j in range(n):
            if care & (1 << j) and (care & ~(1 << j), vals & ~(1 << j)) in valid:
                is_prime = False
                break
        if is_prime:
            primes.append(((care, vals), mask))
    out = []
    for (care, vals), mask in primes:
        lits = []
        for j, a in enumerate(lang.atoms):
            if care & (1 << j):
                lits.append(a if vals & (1 << j) else f"!{a}")
        if not lits:
            text = "T"
        else:
            text = lits[0]
            for lit in lits[1:]:
                text = f"({text} & {lit})"
        out.append((mask, len(lits), text))
    out.sort(key=lambda t: (t[1], t[2]))
    return out


def _greedy_cover(include: int, terms):
    remaining = include
    chosen = []
    while remaining:
        pick = max(
            terms,
            key=lambda t: (bin(t[0] & remaining).count("1"), -t[1], t[2]),
        )
        if pick[0] & remaining == 0:
            return None
        chosen.append(pick)
        remaining &= ~pick[0]
    return chosen


def _minterm_dnf(lang: Language, include: int) -> Formula:
    out = None
    for i in range(lang.n_valuations):
        if (include >> i) & 1:
            term = lang.minterm(i)
            out = term if out is None else Or(out, term)
    return out if out is not None else FALSE


def _oracle_sets(lang: Language, include: int, exclude: int | None) -> tuple[int, int]:
    full = lang.full_mask
    include &= full
    exclude = full & ~include if exclude is None else exclude & full
    if include & exclude:
        raise ValueError("include and exclude valuation sets overlap")
    return include, exclude


def exact_cover_oracle(lang: Language, include: int, exclude: int | None = None):
    """The renderer's exact search as it ran before the Shannon expansion:
    the cover of at most 4 prime terms it chose, parsed back from its
    text, or None above 4 atoms or where no such cover exists (the
    constants ``T`` and ``F`` are covers)."""
    include, exclude = _oracle_sets(lang, include, exclude)
    if include == 0:
        return FALSE
    if exclude == 0:
        return TRUE
    if len(lang.atoms) > 4:
        return None
    terms = _prime_terms_oracle(lang, exclude)
    best = None
    for size in range(1, min(len(terms), 4) + 1):
        for combo in itertools.combinations(terms, size):
            covered = 0
            for mask, _, _ in combo:
                covered |= mask
            if covered & include == include:
                lits = sum(nlit for _, nlit, _ in combo)
                key = (lits, tuple(sorted(t[2] for t in combo)))
                if best is None or key < best[0]:
                    best = (key, combo)
        if best is not None:
            break
    if best is None:
        return None
    return _join(lang, sorted(t[2] for t in best[1]))


def _join(lang: Language, texts) -> Formula:
    out = None
    for text in texts:
        term = lang.parse(text)
        out = term if out is None else Or(out, term)
    return out


def formula_from_valuations_oracle(lang: Language, include: int, exclude: int | None = None):
    """``Language.formula_from_valuations`` as it ran before the Shannon
    expansion: the exact cover, else a greedy prime cover, and above 4
    atoms a left-nested minterm disjunction."""
    exact = exact_cover_oracle(lang, include, exclude)
    if exact is not None:
        return exact
    include, exclude = _oracle_sets(lang, include, exclude)
    if len(lang.atoms) > 4:
        return _minterm_dnf(lang, include)
    chosen = _greedy_cover(include, _prime_terms_oracle(lang, exclude))
    if chosen is None:
        return _minterm_dnf(lang, include)
    return _join(lang, sorted(t[2] for t in chosen))


def formula_depth(f: Formula, depths: dict | None = None) -> int:
    """The most nodes on a path from ``f`` down to an atom or constant,
    each shared subformula measured once."""
    depths = {} if depths is None else depths
    if f not in depths:
        kids = [getattr(f, name) for name in ("child", "left", "right") if hasattr(f, name)]
        depths[f] = 1 + max((formula_depth(k, depths) for k in kids), default=0)
    return depths[f]


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


# -- axiom reports as ``Violation`` lists ------------------------------------


@dataclass
class ReportOracle:
    """An axiom report as it was before it held its violations as rows: a
    sorted list of ``Violation``s, each written through its own dict."""

    axiom: str
    passed: bool
    violations: list[Violation]
    untestable: list[str]
    meta: dict

    def to_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "passed": self.passed,
            "violations": [violation_dict(v) for v in self.violations],
            "untestable": list(self.untestable),
            "meta": self.meta,
        }


def violation_dict(v: Violation) -> dict:
    return {
        "axiom": v.axiom,
        "formulas": list(v.formulas),
        "lhs": str(v.lhs),
        "rhs": str(v.rhs),
        "requirement": v.requirement,
    }


def report_oracle(axiom, violations, untestable=None, meta=None) -> ReportOracle:
    """The report of ``violations``, sorted stably by the texts they name."""
    violations.sort(key=lambda v: v.formulas)
    untestable = sorted(untestable or [])
    return ReportOracle(axiom, not violations, violations, untestable, meta or {})


def check_json_oracle(reports) -> str:
    """The JSON text of ``check`` on these reports, through their dicts."""
    return json_text_oracle({"command": "check", "reports": [r.to_dict() for r in reports]})


def report_lines_oracle(report) -> list[str]:
    """The text lines of ``check`` on one report, from its ``Violation``s;
    an IE violation names its family, the statements after its
    consequent."""
    title = {"NT": "Non-Triviality (NT)", "E": "Equivalence (E)", "I": "Implication (I)",
             "IE": "Inclusion/Exclusion (IE)", "A": "Additivity (A)",
             "S-I": "Theory Implication (S-I)"}[report.axiom]
    lines = [f"{title}: {'pass' if report.passed else 'FAIL'}"]
    for v in report.violations:
        family = " for family {%s}" % ", ".join(v.formulas[1:]) if v.axiom == "IE" else ""
        lines.append(f"  violated: {v.requirement}{family}  [lhs={v.lhs}, rhs={v.rhs}]")
    if report.untestable:
        lines.append(f"  untestable instances: {len(report.untestable)}")
        lines.extend(f"    - {u}" for u in report.untestable[:10])
        if len(report.untestable) > 10:
            lines.append(f"    ... and {len(report.untestable) - 10} more")
    return lines


def check_nt_oracle(a: Assessment) -> ReportOracle:
    """Axiom NT as it ran on ``Fraction``s."""
    violations = [
        Violation("NT", (t,), a.value(f), want, f"pi({t}) = {want}")
        for f, t, want in ((TRUE, "T", ONE), (FALSE, "F", ZERO))
        if a.value(f) != want
    ]
    return report_oracle("NT", violations)


def check_e_oracle(a: Assessment) -> ReportOracle:
    """Axiom E's statement-pair loop, on truth tables and ``Fraction``s."""
    violations = []
    lang = a.language
    for f, g in itertools.combinations(a.sorted_formulas(), 2):
        if truth_table_implies(lang, f, g) and truth_table_implies(lang, g, f):
            if a.value(f) != a.value(g):
                violations.append(Violation(
                    "E", (a.text(f), a.text(g)), a.value(f), a.value(g),
                    f"pi({a.text(f)}) = pi({a.text(g)})"))
    return report_oracle("E", violations)


def check_a_oracle(a: Assessment) -> ReportOracle:
    """Axiom A's loop over disjoint pairs, on ``Fraction``s: the
    disjunction is the first statement by text with the pair's union of
    valuation sets."""
    violations = []
    untestable = []
    fs = a.sorted_formulas()
    sats = [a.language.sat(f) for f in fs]
    for i, f in enumerate(fs):
        for j in range(i, len(fs)):
            g = fs[j]
            if sats[i] & sats[j]:
                continue
            union = [h for h, bits in zip(fs, sats) if bits == sats[i] | sats[j]]
            if not union:
                untestable.append(
                    f"disjoint pair ({a.text(f)}, {a.text(g)}): disjunction not assessed")
            elif a.value(f) + a.value(g) != a.value(union[0]):
                h = union[0]
                violations.append(Violation(
                    "A", (a.text(f), a.text(g), a.text(h)), a.value(f) + a.value(g),
                    a.value(h), f"pi({a.text(f)}) + pi({a.text(g)}) = pi({a.text(h)})"))
    return report_oracle("A", violations, untestable)


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


def largest_subtheory_oracle(assessment: Assessment, theory: Theory) -> SubtheoryResult:
    """The largest understood sub-theory as ``largest_subtheory`` found it
    before minimal transversals: every valuation superset of the theory's
    valuation set is tried against every reversal gap, and the minimal
    passing sets are filtered pairwise.  Exponential in the number of
    free valuations, so keep those few."""
    i_report = check_i(assessment)
    if not i_report.passed:
        raise IdentifyError(
            "largest sub-theory search requires axiom I to hold outright", i_report
        )
    lang = assessment.language
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


def disjoint_gap_tables(lang: Language, m: int) -> tuple[dict, list]:
    """An assessment table and theory generators, as texts, whose residual
    reversal gaps are ``m`` disjoint pairs of valuations, so the sub-theory
    search has 2^m minimal transversals: statement k is true on valuations
    2k and 2k + 1 and valued 1/2, and the theory keeps the valuations from
    2m on."""
    pi = {unparse(lang.formula_from_valuations(3 << 2 * k)): "1/2" for k in range(m)}
    rest = lang.full_mask & ~((1 << 2 * m) - 1)
    return pi, [unparse(lang.formula_from_valuations(rest))]


def check_ie_oracle(a: Assessment, n_max: int = 3) -> ReportOracle:
    """Axiom IE as ``check_ie`` computed it before the family-once scan:
    for every consequent, every family below it re-enumerated and its
    alternating conjunction sum rebuilt in Fractions."""
    violations = []
    untestable = []
    sats, texts = a.sats, a.texts
    values = [a.value(f) for f in a.statements]
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
    return report_oracle("IE", violations, untestable, {"n_max": n_max})


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
            union = 0
            for e in family:
                union |= e
            alternating = ZERO
            for r in range(1, k + 1):
                for subset in itertools.combinations(family, r):
                    inter = subset[0]
                    for e in subset[1:]:
                        inter &= e
                    alternating += (-1) ** (r + 1) * lam[inter]
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


def random_full_rank_assessment(rng: random.Random, lang: Language, den_max: int = 4):
    """Statements whose valuation sets, with T's, span every valuation, so
    an additive measure reproducing them is unique if it exists, each
    valued freely in [0, 1].  The forced masses are often negative: on
    ``p``, ``q`` and ``(p & q)`` valued 1/4, 1/4 and 1/2, both ``(p & !q)``
    and ``(!p & q)`` are forced to -1/4."""
    nv = lang.n_valuations
    reduced = {}  # pivot column -> its row of the reduced basis

    def independent(bits: int) -> bool:
        row = [Fraction(bits >> v & 1) for v in range(nv)]
        for col, basis_row in reduced.items():
            if row[col]:
                k = row[col]
                row = [x - k * y for x, y in zip(row, basis_row)]
        col = next((c for c, x in enumerate(row) if x), None)
        if col is not None:
            reduced[col] = [x / row[col] for x in row]
        return col is not None

    independent(lang.full_mask)
    sets = []
    while len(reduced) < nv:
        bits = rng.randrange(1, lang.full_mask)  # neither F nor T
        if independent(bits):
            sets.append(bits)
    return Assessment(
        lang, {lang.formula_from_valuations(b): random_fraction(rng, den_max) for b in sets}
    )


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
    coordinate events (event masks of ``base``), labelled by its bit
    vector."""

    base: SubjectiveModel
    coordinates: tuple[int, ...]

    def __post_init__(self):
        k = len(self.coordinates)
        self.states = tuple(
            "m" + format(i, f"0{k}b")[::-1] if k else "m" for i in range(1 << k)
        )

    def cylinder(self, event: int) -> frozenset:
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
                f"event {self.base.label(event)} is not a coordinate of the maximal model"
            ) from None
        return frozenset(
            self.states[i] for i in range(len(self.states)) if (i >> j) & 1
        )


def maximal_model(model: SubjectiveModel, events) -> MaximalModel:
    events = list(events)
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


def lp_optimum(x, value, duals) -> LpResult:
    """An optimum given as ``Fraction``s, put over one common denominator
    the way ``maximize`` returns it."""
    den = math.lcm(*(v.denominator for v in (*x, value, *duals)))

    def over(v):
        return v.numerator * (den // v.denominator)

    return LpResult("optimal", [over(v) for v in x], over(value), [over(v) for v in duals], den)


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
    return lp_optimum(x, value, duals)


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


# -- the simplex and valuation solve on Fractions, before integer pivots --


def _fraction_pivot(rows, r, c):
    """One Gauss-Jordan step: scale row ``r`` so that ``rows[r][c]`` is 1
    and clear column ``c`` from every other row."""
    piv = rows[r][c]
    rows[r] = pivot_row = [v / piv for v in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[c] != 0:
            f = row[c]
            rows[i] = [a - f * b for a, b in zip(row, pivot_row)]


def _run_fraction_simplex(tab, basis, ncols):
    """Maximize over the first ``ncols`` columns, with reduced costs in the
    last row ``tab[-1]`` (its last entry = -value).  Bland's rule: enter
    the lowest eligible column, leave the lowest basic index."""
    while True:
        col = next((j for j in range(ncols) if tab[-1][j] > 0), None)
        if col is None:
            return
        best = None
        for i, row in enumerate(tab[:-1]):
            if row[col] > 0:
                ratio = row[-1] / row[col]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            raise SimplexError("unbounded")
        _fraction_pivot(tab, best[1], col)
        basis[best[1]] = col


def maximize_fraction_oracle(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None) -> LpResult:
    """Maximize c.x subject to a_ub.x <= b_ub, a_eq.x = b_eq, x >= 0.

    At an optimum, ``duals`` holds an optimal dual value (>= 0) for each
    ``a_ub`` row, read off the reduced cost of its slack or surplus column."""
    c = [Fraction(v) for v in c]
    n = len(c)
    ub = [(list(map(Fraction, r)), Fraction(b)) for r, b in zip(a_ub or [], b_ub or [])]
    eq = [(list(map(Fraction, r)), Fraction(b)) for r, b in zip(a_eq or [], b_eq or [])]

    # column layout: n structural, one slack (or surplus, on a row flipped
    # to a nonnegative rhs) per inequality row, then one artificial per
    # flipped inequality and per equality row
    art_start = n + len(ub)
    n_art = sum(1 for _, b in ub if b < 0) + len(eq)
    tab, basis = [], []
    art = art_start
    for i, (coeffs, b) in enumerate(ub + eq):
        flipped = b < 0
        if flipped:
            coeffs, b = [-v for v in coeffs], -b
        row = coeffs + [ZERO] * (art_start + n_art - n) + [b]
        if i < len(ub):
            row[n + i] = -ONE if flipped else ONE
        if flipped or i >= len(ub):
            row[art] = ONE
            basis.append(art)
            art += 1
        else:
            basis.append(n + i)
        tab.append(row)

    if n_art:
        # phase 1: maximize -(sum of artificials)
        obj = [ZERO] * art_start + [-ONE] * n_art + [ZERO]
        for row, b in zip(tab, basis):
            if b >= art_start:
                obj = [o + v for o, v in zip(obj, row)]
        tab.append(obj)
        _run_fraction_simplex(tab, basis, art_start + n_art)
        if tab.pop()[-1] != 0:
            return LpResult("infeasible", None, None)
        # drive any lingering artificials out of the basis; the rows where
        # none can leave are all-zero off the artificials, hence redundant
        for i, b in enumerate(basis):
            if b >= art_start:
                col = next((j for j in range(art_start) if tab[i][j] != 0), None)
                if col is not None:
                    _fraction_pivot(tab, i, col)
                    basis[i] = col
        keep = [i for i, b in enumerate(basis) if b < art_start]
        tab = [tab[i][:art_start] + tab[i][-1:] for i in keep]
        basis = [basis[i] for i in keep]

    obj = c + [ZERO] * (art_start - n + 1)
    for row, b in zip(tab, basis):
        f = obj[b]
        if f != 0:
            obj = [o - f * v for o, v in zip(obj, row)]
    tab.append(obj)
    try:
        _run_fraction_simplex(tab, basis, art_start)
    except SimplexError:
        return LpResult("unbounded", None, None)

    x = [ZERO] * n
    for row, b in zip(tab, basis):
        if b < n:
            x[b] = row[-1]
    value = sum(ci * xi for ci, xi in zip(c, x))
    duals = [-tab[-1][n + i] for i in range(len(ub))]
    return lp_optimum(x, value, duals)


# -- rationalizability on Fractions, before the pool's one denominator ---


def _pointwise_undominated_oracle(x, alternatives, weak: bool = False) -> DominanceResult:
    """``pointwise_undominated`` with every payoff a ``Fraction``."""
    states = sorted(x)
    if not weak:
        matrix = [
            [Fraction(alt[s]) - Fraction(x[s]) for s in states] for alt in alternatives
        ]
        game = solve_matrix_game_oracle(matrix)
        if game.value > 0:
            return DominanceResult(True, "strict", game.value, game.row_mixture, None)
        prior = dict(zip(states, game.col_mixture))
        return DominanceResult(False, "strict", game.value, None, prior)

    c = [sum(Fraction(alt[s]) for s in states) for alt in alternatives]
    a_ub = [[-Fraction(alt[s]) for alt in alternatives] for s in states]
    b_ub = [-Fraction(x[s]) for s in states]
    a_eq = [[ONE] * len(alternatives)]
    res = maximize_fraction_oracle(c, a_ub, b_ub, a_eq, [ONE])
    if res.status != "optimal":
        return DominanceResult(False, "weak", None, None, None)
    slack = res.value - sum(Fraction(x[s]) for s in states)
    if slack > 0:
        return DominanceResult(True, "weak", slack, res.x, None)
    return DominanceResult(False, "weak", slack, None, None)


def _worst_margin_oracle(a, d, weights) -> Fraction:
    total = sum((w * ai for w, ai in zip(weights, a)), ZERO)
    for column in zip(*d):
        total += min(ZERO, sum((w * dij for w, dij in zip(weights, column)), ZERO))
    return total


def _affine_dominance_oracle(forms, choice: int, weak: bool):
    """The affine dominance LP on ``Fraction`` rows: (epsilon, mixture or
    None, marginals or None), with both exact checks."""
    a_x, c_x = forms[choice]
    a = [ai - a_x for ai, _ in forms]
    d = [[cij - cxj for cij, cxj in zip(ci, c_x)] for _, ci in forms]
    n, k = len(forms), len(c_x)
    margin = [] if weak else [ONE]
    a_ub = [[-ai for ai in a] + [ONE] * k + margin]
    for j in range(k):
        u = [ZERO] * k
        u[j] = -ONE
        a_ub.append([-di[j] for di in d] + u + [ZERO] * len(margin))
    a_eq = [[ONE] * n + [ZERO] * (k + len(margin))]
    if weak:
        c = [2 * ai + sum(di, ZERO) for ai, di in zip(a, d)] + [ZERO] * k
    else:
        c = [ZERO] * (n + k) + [ONE]
    res = maximize_fraction_oracle(c, a_ub, [ZERO] * (k + 1), a_eq, [ONE])
    if res.status != "optimal":
        raise InternalError(f"internal: the dominance LP came back {res.status}")
    sigma = res.x[:n]
    worst = _worst_margin_oracle(a, d, sigma)
    if weak:
        if worst < 0:
            raise InternalError("internal: the weak dominance LP broke its own constraint")
        epsilon = res.value * Fraction(1 << k, 2)
        return epsilon, sigma if epsilon > 0 else None, None
    epsilon = res.value
    if worst != epsilon:
        raise InternalError("internal: the mixture's worst-case margin is not the LP optimum")
    duals = res.duals
    if duals[0] <= 0:
        raise InternalError("internal: the margin row has no positive dual")
    marginals = [v / duals[0] for v in duals[1:]]
    best = max(ai + sum(dij * qj for dij, qj in zip(di, marginals)) for ai, di in zip(a, d))
    if best != epsilon or not all(ZERO <= q <= ONE for q in marginals):
        raise InternalError("internal: the dual marginals do not give the LP optimum")
    return epsilon, sigma if epsilon > 0 else None, marginals


def _best_response_oracle(witness, names, vectors, choice: int):
    values = [(n, choquet(witness, v)) for n, v in zip(names, vectors)]
    return values, all(values[choice][1] >= v for _, v in values)


def rationalizable_oracle(
    strategy: Strategy, pool, model: SubjectiveModel, additive_only: bool = False,
    weak: bool = False,
) -> RationalizabilityResult:
    """``rationalizable`` with the state vectors, layers, affine forms and
    LP rows all ``Fraction``s, solved on the ``Fraction`` tableau."""
    pool = list(pool)
    choice = next(i for i, s in enumerate(pool) if s is strategy)
    names = _names(pool)
    mode = "weak" if weak else "strict"
    base_vectors = [t_circ(model, s) for s in pool]

    if additive_only:
        labelled = [dict(zip(model.states, x)) for x in base_vectors]
        dom = _pointwise_undominated_oracle(labelled[choice], labelled, weak=weak)
        if dom.dominated:
            return RationalizabilityResult(
                False, f"additive-{mode}", names[choice], model, epsilon=dom.epsilon,
                dominating_mixture=list(zip(names, dom.mixture)),
            )
        result = RationalizabilityResult(
            True, f"additive-{mode}", names[choice], model, epsilon=dom.epsilon
        )
        if dom.prior is not None:
            witness = SubjectiveModel(
                model.language, model.states, dict(model.truth),
                mass=[dom.prior[s] for s in model.states],
            )
            values, best = _best_response_oracle(witness, names, base_vectors, choice)
            if not best:
                raise InternalError("internal: additive witness failed verification")
            result.witness_mass = dom.prior
            result.choquet_values = values
            result.verified = True
        return result

    layerings = [layer_decompose(x, model) for x in base_vectors]
    events = strategy_events(model, layerings)
    forms = [transported_vector(model, events, layers) for layers in layerings]
    epsilon, mixture, marginals = _affine_dominance_oracle(forms, choice, weak)
    if mixture is not None:
        return RationalizabilityResult(
            False, mode, names[choice], model, epsilon=epsilon,
            dominating_mixture=list(zip(names, mixture)), coordinates=list(events),
        )
    result = RationalizabilityResult(
        True, mode, names[choice], model, epsilon=epsilon, coordinates=list(events)
    )
    candidates = []
    if any(model.lambda_numerator(ev) is not None for ev in events):
        candidates.append(("model", model))
    if marginals is not None:
        pulled = dict(zip(events, marginals))
        pulled[model.omega] = ONE
        pulled[0] = ZERO
        candidates.append(("maximal-model prior", _witness_from_events(model, pulled)))
    for source, witness in candidates:
        try:
            values, best = _best_response_oracle(witness, names, base_vectors, choice)
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


def valuation_masses_oracle(assessment: Assessment):
    """Row-reduce the system  sum of masses over sat(phi) = pi(phi).

    Returns (status, data): status is "unique" (data: mass vector),
    "inconsistent" (data: None) or "underdetermined" (data: (pinned
    column values, free column set))."""
    lang = assessment.language
    nv = lang.n_valuations
    mat = []
    for f in assessment.formulas:
        bits = lang.sat(f)
        row = [ONE if (bits >> i) & 1 else ZERO for i in range(nv)]
        row.append(assessment.value(f))
        mat.append(row)
    pivots = []
    r = 0
    for c in range(nv):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        _fraction_pivot(mat, r, c)
        pivots.append((r, c))
        r += 1
        if r == len(mat):
            break
    for i in range(r, len(mat)):
        if mat[i][-1] != 0:
            return "inconsistent", None
    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(nv) if c not in pivot_cols]
    if not free_cols:
        x = [ZERO] * nv
        for row, col in pivots:
            x[col] = mat[row][-1]
        return "unique", x
    pinned = {}
    for row, col in pivots:
        if all(mat[row][fc] == 0 for fc in free_cols):
            pinned[col] = mat[row][-1]
    return "underdetermined", (pinned, free_cols)


# -- the frozenset model, as it ran before the indexed core ---------------


def event_label(event: frozenset) -> str:
    return "|".join(sorted(event))


class LabelModel:
    """``SubjectiveModel`` as it was before states became bit positions:
    events are frozensets of state labels, ``lam`` is keyed by them and
    masses are a dict from label to ``Fraction``."""

    def __init__(
        self,
        language: Language,
        states,
        truth=None,
        lam=None,
        mass=None,
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
            for s in self.states:
                if self.mass[s] < 0:
                    raise ModelError(
                        f"state masses must be nonnegative; {s} has {self.mass[s]}"
                    )
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
                raise ModelError(f"lambda({event_label(ev) or 'empty'}) must equal {v}")
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
            vals[s] = sum(1 << j for j, a in enumerate(lang.atoms) if s in atom_events[a])
        mismatches = []
        for f, ev in self.truth.items():
            sat = lang.sat(f)
            derived = frozenset(s for s in self.states if (sat >> vals[s]) & 1)
            if derived != ev:
                mismatches.append(unparse(f))
        self.state_valuation = vals
        self.grounding_mismatches = sorted(mismatches)
        self.grounded = not mismatches and not self.exact_lookup

    def truth_of(self, f: Formula) -> frozenset | None:
        ev = self.truth.get(f)
        if ev is not None:
            return ev
        if self.grounded:
            sat = self.language.sat(f)
            return frozenset(s for s in self.states if (sat >> self.state_valuation[s]) & 1)
        if self.exact_lookup:
            sat = self.language.sat(f)
            for g in sorted(self.truth, key=unparse):
                if self.language.sat(g) == sat:
                    return self.truth[g]
        return None

    def truth_domain(self) -> list[Formula]:
        return sorted(self.truth, key=unparse)

    def lambda_of(self, event) -> Fraction | None:
        ev = frozenset(event)
        v = self.lam.get(ev)
        if v is not None:
            return v
        if self.mass is not None:
            return sum((self.mass[s] for s in ev), ZERO)
        return None

    def field_atoms(self) -> list[frozenset]:
        events = sorted(set(self.truth.values()), key=event_label)
        blocks: dict[tuple, set] = {}
        for s in self.states:
            sig = tuple(s in ev for ev in events)
            blocks.setdefault(sig, set()).add(s)
        return sorted((frozenset(b) for b in blocks.values()), key=event_label)

    def field_events(self) -> list[frozenset]:
        atoms = self.field_atoms()
        check_table("generated field", len(atoms), "blocks", ModelError)
        return sorted(_label_unions(atoms), key=lambda e: (len(e), event_label(e)))


def _label_unions(blocks) -> list[frozenset]:
    out = [frozenset()]
    for block in blocks:
        out += [ev | block for ev in out]
    return out


def _label_subset_sums(arr: list, inverse: bool = False) -> list:
    combine = operator.sub if inverse else operator.add
    bit = 1
    while bit < len(arr):
        for mask in range(len(arr)):
            if mask & bit:
                arr[mask] = combine(arr[mask], arr[mask ^ bit])
        bit <<= 1
    return arr


def classify_truth_oracle(model: LabelModel, formulas=None) -> TruthFlags:
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


def classify_lambda_oracle(model: LabelModel) -> LambdaFlags:
    events = model.field_events()
    lam = {}
    missing = []
    for ev in events:
        v = model.lambda_of(ev)
        if v is None:
            missing.append(event_label(ev) or "(empty)")
        else:
            lam[ev] = v
    if missing:
        raise ModelError(
            "lambda is not total on the generated field; missing: " + ", ".join(sorted(missing))
        )
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
    for ev in events:
        total = sum((lam[b] for b in atoms if b <= ev), ZERO)
        if lam[ev] != total:
            wit["additive"].append((event_label(ev), str(lam[ev]), str(total)))
    unions = _label_unions(atoms)
    for ev, m in zip(unions, _label_subset_sums([lam[ev] for ev in unions], inverse=True)):
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


def mobius_model_oracle(model: LabelModel) -> dict[frozenset, Fraction]:
    check_table("powerset capacity", len(model.states), "states", ModelError)
    events = _label_unions(frozenset([s]) for s in model.states)
    arr = []
    for ev in events:
        v = model.lambda_of(ev)
        if v is None:
            raise ModelError(
                f"lambda is not total on the powerset; missing {event_label(ev) or '(empty)'}"
            )
        arr.append(v)
    return dict(zip(events[1:], _label_subset_sums(arr, inverse=True)[1:]))


def choquet_oracle(model: LabelModel, payoff) -> Fraction:
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
            raise ModelError(f"upper set {event_label(upper)} is not in the appraisal's domain")
        total += (a - nxt) * lv
    return total


def represents_oracle(model: LabelModel, assessment: Assessment) -> RepresentationReport:
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


def model_to_dict_oracle(model: LabelModel) -> dict:
    out = {
        "states": list(model.states),
        "t": {unparse(f): sorted(ev) for f, ev in model.truth.items() if f not in (TRUE, FALSE)},
        "lambda": {
            event_label(ev): str(v)
            for ev, v in sorted(model.lam.items(), key=lambda kv: (len(kv[0]), event_label(kv[0])))
        },
    }
    if model.mass is not None:
        out["mass"] = {s: str(model.mass[s]) for s in model.states}
    if model.exact_lookup:
        out["exact_lookup"] = True
    return out


def parse_rational_oracle(value) -> Fraction:
    """A model file's rational as ``Fraction`` alone reads it: a JSON
    integer, or any string the ``Fraction`` constructor accepts."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as e:
            raise FileFormatError(f"bad rational {value!r}: {e}") from None
    raise FileFormatError(
        f"rationals must be strings like '3/4' or integers, got {value!r}"
    )


def load_model_oracle(path, language: Language) -> LabelModel:
    """``files.load_model`` as it ran before appraisal values became int
    numerators: each value parsed to a ``Fraction`` and each ``lambda``
    key split into its labels, for the frozenset model."""
    data = _read_json(path)
    states = _expect(data, "states", path, list)
    index = {s: i for i, s in enumerate(states)}
    truth_labels = {
        language.parse(text): labels for text, labels in _expect(data, "t", path).items()
    }
    lam = None
    if "lambda" in data:
        lam, keys = {}, {}
        for k, v in data["lambda"].items():
            labels = k.split("|") if k else []
            unknown = [l for l in labels if l not in index]
            if unknown:
                raise FileFormatError(f"unknown state labels in event {k!r}: {unknown}")
            ev = frozenset(labels)
            if ev in keys:
                raise FileFormatError(f"lambda keys {keys[ev]!r} and {k!r} name the same event")
            keys[ev] = k
            lam[ev] = parse_rational_oracle(v)
    mass = None
    if "mass" in data:
        mass = {s: parse_rational_oracle(v) for s, v in data["mass"].items()}
    check_states(states)
    truth = {}
    for f, labels in truth_labels.items():
        if any(s not in index for s in labels):
            raise ModelError(f"truth event for {unparse(f)} mentions unknown states")
        truth[f] = frozenset(labels)
    if mass is not None:
        for s in mass:
            if s not in index:
                raise ModelError(f"mass assigned to unknown state {s!r}")
    exact_lookup = data.get("exact_lookup", False)
    if not isinstance(exact_lookup, bool):
        raise FileFormatError(f"{path}: key 'exact_lookup' must be a bool, got {exact_lookup!r}")
    return LabelModel(
        language,
        states,
        truth,
        lam=lam,
        mass=mass,
        exact_lookup=exact_lookup,
    )


@dataclass
class EagerSession:
    language: Language
    output_format: str
    choice: str | None
    assessment: Assessment | None
    theory: Theory | None
    models: dict
    strategies: list


def load_session_oracle(path) -> EagerSession:
    """``files.load_session`` as it ran before files were read on first
    use: every file the session names read at once, in the order
    assessment, theory, models, strategies."""
    path = Path(path)
    data = _read_json(path)
    base = path.parent
    language = Language(_expect(data, "atoms", path, list))
    output_format = data.get("format", "text")
    if output_format not in ("text", "json"):
        raise FileFormatError(
            f"{path}: key 'format' must be 'text' or 'json', got {output_format!r}"
        )
    assessment = theory = None
    if "assessment" in data:
        assessment = load_assessment(base / _expect(data, "assessment", path, str), language)
    if "theory" in data:
        theory = load_theory(base / _expect(data, "theory", path, str), language)
    named = _expect(data, "models", path) if "models" in data else {}
    models = {
        name: load_model(base / _expect(named, name, f"{path}: models", str), language)
        for name in named
    }
    strategies = []
    if "strategies" in data:
        strategies = load_strategies(base / _expect(data, "strategies", path, str), language)
    choice = _expect(data, "choice", path, str) if "choice" in data else None
    return EagerSession(language, output_format, choice, assessment, theory, models,
                        strategies)


def from_labels(language, states, truth=None, lam=None, mass=None, **kwargs) -> SubjectiveModel:
    """An indexed model given the way model files give one: events as
    collections of state labels and masses keyed by label."""
    index = {s: i for i, s in enumerate(states)}

    def mask(event) -> int:
        return sum(1 << index[s] for s in set(event))

    return SubjectiveModel(
        language,
        states,
        {f: mask(ev) for f, ev in (truth or {}).items()},
        lam=None if lam is None else {mask(ev): v for ev, v in lam.items()},
        mass=None if mass is None else [mass.get(s, ZERO) for s in states],
        **kwargs,
    )


def indexed(model: LabelModel) -> SubjectiveModel:
    """The indexed twin of a frozenset model."""
    twin = from_labels(
        model.language, model.states, model.truth, model.lam, model.mass,
        exact_lookup=model.exact_lookup,
    )
    twin.grounded = model.grounded
    return twin


def explicit_lambda(model: SubjectiveModel) -> dict[int, Fraction]:
    """An indexed model's explicit appraisal values as rationals keyed by
    event mask, as ``lam`` held them before they became numerators."""
    return {ev: model.lambda_of(ev) for ev in model.lam_numerators}


def event_labels(model: SubjectiveModel, event: int) -> frozenset:
    """The labels of an indexed model's event, as the frozenset model holds it."""
    return frozenset(model.labels(event))


def event_mask(model: SubjectiveModel, labels) -> int:
    """The event of the given state labels in an indexed model."""
    return sum(1 << model.states.index(s) for s in set(labels))


def by_labels(model: SubjectiveModel, values: dict) -> dict:
    """Values keyed by event mask, re-keyed by the event's state labels."""
    return {event_labels(model, ev): v for ev, v in values.items()}


def vector(model: SubjectiveModel, payoff: dict) -> list:
    """A payoff keyed by state label, in the model's state order."""
    return [payoff[s] for s in model.states]


# -- the builders, as they ran on the frozenset model ---------------------


def _label_valuation_states(assessment: Assessment):
    lang = assessment.language
    n = len(lang.atoms)
    states = ["v" + format(i, f"0{n}b")[::-1] if n else "v" for i in range(lang.n_valuations)]
    sat = dict(zip(assessment.statements, assessment.sats))
    truth = {
        f: frozenset(s for i, s in enumerate(states) if (sat[f] >> i) & 1)
        for f in assessment.formulas
    }
    return states, truth


def _certify_represents_oracle(model, assessment) -> CertEntry:
    if not represents_oracle(model, assessment).ok:
        raise InternalError("internal: built model fails to reproduce the assessment")
    return CertEntry("represents", True, "zero residual on every assessed statement")


def build_product_oracle(assessment: Assessment) -> BuildOutcome:
    _require(check_nt(assessment), "NT", "product construction")
    coords = [f for f in assessment.formulas if f not in (TRUE, FALSE)]
    check_table("product state space", len(coords), "coordinates", BuildError)
    m = len(coords)
    states = ["w" + format(i, f"0{m}b")[::-1] if m else "w" for i in range(1 << m)]
    mass = {}
    for i, s in enumerate(states):
        p = ONE
        for j, f in enumerate(coords):
            pj = assessment.value(f)
            p *= pj if (i >> j) & 1 else ONE - pj
        mass[s] = p
    truth = {
        f: frozenset(states[i] for i in range(1 << m) if (i >> j) & 1)
        for j, f in enumerate(coords)
    }
    model = LabelModel(assessment.language, states, truth, mass=mass)
    cert = [
        _certify_represents_oracle(model, assessment),
        CertEntry("lambda additive", True, "product measure over independent coordinates"),
    ]
    notes = ["truth valuation ignores all logical structure between statements"]
    return BuildOutcome(model, "product", cert, notes)


def build_canonical_sound_oracle(assessment: Assessment) -> BuildOutcome:
    _require(check_nt(assessment), "NT", "canonical sound construction")
    _require(check_e(assessment), "E", "canonical sound construction")
    states, truth = _label_valuation_states(assessment)
    lam = {}
    for f in assessment.formulas:
        lam[truth[f]] = assessment.value(f)
    lam[frozenset()] = ZERO
    lam[frozenset(states)] = ONE
    model = LabelModel(assessment.language, states, truth, lam=lam)
    notes = []
    atoms = model.field_atoms()
    if len(atoms) <= MAX_ATOMS:
        state_bit = {s: 1 << i for i, s in enumerate(states)}
        statements = [
            (sat, assessment.value(f)) for f, sat in zip(assessment.statements, assessment.sats)
        ]
        for ev in model.field_events():
            if ev in model.lam:
                continue
            bits = 0
            for s in ev:
                bits |= state_bit[s]
            model.lam[ev] = max((v for sat, v in statements if sat & ~bits == 0), default=ZERO)
        notes.append("appraisal inner-extended to the generated field")
    else:
        notes.append("generated field too large to materialize; appraisal kept on named events")
    cert = [_certify_represents_oracle(model, assessment)]
    flags = classify_truth_oracle(model, assessment.formulas)
    cert.append(CertEntry("t sound", flags.sound, "classical valuation over atom assignments"))
    i_report = check_i(assessment)
    if i_report.passed and len(atoms) <= MAX_ATOMS:
        mono = all(
            model.lam[ev] <= model.lam[ev | b]
            for ev in model.lam
            for b in atoms
            if not b <= ev and (ev | b) in model.lam
        )
        cert.append(CertEntry("lambda monotone on field", mono, "follows from axiom I"))
    elif not i_report.passed:
        notes.append("axiom I fails, so the appraisal is not monotone")
    return BuildOutcome(model, "canonical-sound", cert, notes)


def build_interval_additive_oracle(assessment: Assessment) -> BuildOutcome:
    _require(check_nt(assessment), "NT", "interval construction")
    _require(check_i(assessment), "I", "interval construction")
    cuts = sorted({ZERO, ONE} | {assessment.value(f) for f in assessment.formulas})
    states = [f"({cuts[i]},{cuts[i + 1]}]" for i in range(len(cuts) - 1)]
    mass = {s: cuts[i + 1] - cuts[i] for i, s in enumerate(states)}
    truth = {}
    for f in assessment.formulas:
        v = assessment.value(f)
        truth[f] = frozenset(states[i] for i in range(len(states)) if cuts[i + 1] <= v)
    model = LabelModel(
        assessment.language, states, truth, mass=mass, exact_lookup=True,
    )
    cert = [_certify_represents_oracle(model, assessment)]
    flags = classify_truth_oracle(model, assessment.formulas)
    cert.append(CertEntry("t monotone", flags.monotone, "initial segments are nested"))
    cert.append(CertEntry("lambda additive", True, "length measure on a finite partition"))
    return BuildOutcome(model, "interval-additive", cert, [])


def build_belief_lift_oracle(model: LabelModel, assessment: Assessment | None = None):
    check_table("belief lift's powerset", len(model.states), "states", BuildError)
    try:
        masses = mobius_model_oracle(model)
    except ModelError as e:
        raise BuildError(f"belief lift needs the appraisal on the full powerset: {e}")
    negative = sorted("|".join(sorted(ev)) for ev, m in masses.items() if m < 0)
    if negative:
        raise BuildError("not a belief function: negative Mobius mass on " + ", ".join(negative))

    def label(ev: frozenset) -> str:
        return "+".join(sorted(ev))

    subsets = sorted(
        (ev for ev, m in masses.items() if m > 0), key=lambda ev: (len(ev), label(ev))
    )
    states = [label(ev) for ev in subsets]
    for j, name in enumerate(states):
        i = states.index(name)
        if i < j:
            raise BuildError(
                f"focal events {event_label(subsets[i])} and {event_label(subsets[j])} "
                f"would both become the state {name}"
            )
    mass = {label(ev): masses[ev] for ev in subsets}
    truth = {}
    for f in model.truth_domain():
        base = model.truth[f]
        truth[f] = frozenset(label(ev) for ev in subsets if ev <= base)
    lifted = LabelModel(
        model.language, states, truth, mass=mass, exact_lookup=True
    )
    preserved = all(
        model.lambda_of(model.truth[f]) == lifted.lambda_of(lifted.truth[f])
        for f in model.truth_domain()
    )
    if not preserved:
        raise InternalError("internal: lift failed to preserve statement likelihoods")
    cert = [
        CertEntry("likelihoods preserved", True, "lambda(t(phi)) unchanged for every statement"),
        CertEntry("lambda additive", True, "Mobius masses as state masses"),
    ]
    flags = classify_truth_oracle(lifted, model.truth_domain())
    cert.append(
        CertEntry(
            "t exact and and-distributive",
            flags.exact and flags.and_distributive,
            "subset test distributes over intersections",
        )
    )
    if assessment is not None:
        cert.insert(0, _certify_represents_oracle(lifted, assessment))
    return BuildOutcome(lifted, "belief-lift", cert, [])


def build_additive_sound_oracle(assessment: Assessment):
    _require(check_nt(assessment), "NT", "additive sound construction")
    _require(check_a(assessment), "A", "additive sound construction")
    lang = assessment.language
    nv = lang.n_valuations
    status, data = valuation_masses_oracle(assessment)
    if status == "inconsistent":
        raise BuildError(
            "no additive measure on the valuations reproduces the assessment "
            "(additivity fails at the representation level)",
            axiom="A",
        )
    if status == "underdetermined":
        pinned, _ = data
        unresolved = sorted(unparse(lang.minterm(c)) for c in range(nv) if c not in pinned)
        listed = ", ".join(unresolved[:10])
        if len(unresolved) > 10:
            listed += f", ... and {len(unresolved) - 10} more"
        raise BuildError("universe under-determined: no assessed combination pins down " + listed)
    masses = data
    bad = [i for i, v in enumerate(masses) if v < 0]
    if bad:
        raise BuildError(
            "no additive measure reproduces the assessment: forced negative "
            "mass on " + ", ".join(unparse(lang.minterm(i)) for i in bad),
            axiom="A",
        )
    states, truth = _label_valuation_states(assessment)
    mass = {states[i]: masses[i] for i in range(nv)}
    model = LabelModel(lang, states, truth, mass=mass)
    cert = [_certify_represents_oracle(model, assessment)]
    flags = classify_truth_oracle(model, assessment.formulas)
    cert.append(CertEntry("t sound", flags.sound, "classical valuation over atom assignments"))
    cert.append(CertEntry("lambda additive", True, "measure on the valuations"))
    return BuildOutcome(model, "additive-sound", cert, [])
