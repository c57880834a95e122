"""Propositional formulas over a declared finite atom set, with exact
truth-table semantics.

Formulas are built from atoms, the constants ``T`` and ``F``, and the
connectives ``!``, ``&``, ``|``.  They are hash-consed (Filliatre &
Conchon 2006): each distinct formula exists once, as an immutable node
kept in a table that holds it only weakly, so equality is identity, a
hash costs O(1), and a formula lives no longer than its last user.
Semantic questions (entailment, equivalence, theory-relative
entailment) are answered by exhaustive valuation bitsets, which is exact
at the scales this package targets (at most 16 atoms).  Valuation ``i``
makes atom ``j`` true iff bit ``j`` of ``i`` is set; a formula's bitset
has bit ``i`` set iff the formula holds under valuation ``i``.
"""

from __future__ import annotations

import itertools
import re
import weakref
from dataclasses import FrozenInstanceError

MAX_ATOMS = 16

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class LogicError(ValueError):
    pass


class ParseError(LogicError):
    """Malformed formula text; ``position`` is the offending offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UndeclaredAtomError(ParseError):
    pass


class InconsistentTheoryError(LogicError):
    pass


class Formula:
    """A hash-consed formula node.

    Building a node looks up its class and fields in one table, so equal
    formulas are one object: equality is identity, and the hash is the
    identity hash, computed in O(1) whatever the depth.  Since children
    are interned before their parent, a lookup costs one tuple hash and
    one dict probe.  The table holds its nodes only weakly.  It takes no
    lock: two threads building the same new formula at once could make
    two nodes, so formulas are built from one thread, as everywhere in
    this package.
    """

    __slots__ = ("__weakref__",)

    def __new__(cls, *fields):
        if len(fields) != len(cls.__slots__):
            raise TypeError(f"{cls.__name__} takes the fields {cls.__slots__}")
        key = (cls, *fields)
        entry = _table.get(key)
        if entry is not None:
            node = entry()
            if node is not None:
                return node
        node = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            object.__setattr__(node, name, value)
        _table[key] = _Entry(node, key)
        return node

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__slots__)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


class _Entry(weakref.ref):
    """A table entry: a weak reference that drops its key when its node
    dies, unless the key already names a newer node."""

    __slots__ = ("key",)

    def __new__(cls, node, key):
        entry = super().__new__(cls, node, _drop)
        entry.key = key
        return entry

    def __init__(self, node, key):
        super().__init__(node, _drop)


def _drop(entry: _Entry):
    if _table.get(entry.key) is entry:
        del _table[entry.key]


# (class, *fields) -> the live node with those fields
_table: dict[tuple, _Entry] = {}


class Atom(Formula):
    __slots__ = ("name",)


class Const(Formula):
    __slots__ = ("value",)


class Not(Formula):
    __slots__ = ("child",)


class And(Formula):
    __slots__ = ("left", "right")


class Or(Formula):
    __slots__ = ("left", "right")


TRUE = Const(True)
FALSE = Const(False)


def unparse(f: Formula) -> str:
    """Render a formula in the grammar it was parsed from.

    The rendering is fully parenthesized, so it re-parses to the same
    tree.  Sugar connectives are not reconstructed.
    """
    if isinstance(f, Const):
        return "T" if f.value else "F"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return "!" + unparse(f.child)
    if isinstance(f, And):
        return f"({unparse(f.left)} & {unparse(f.right)})"
    if isinstance(f, Or):
        return f"({unparse(f.left)} | {unparse(f.right)})"
    raise TypeError(f"not a formula: {f!r}")


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


def _atom_mask(j: int, n_valuations: int) -> int:
    """The valuations (bit positions below ``n_valuations``) whose bit j is
    set: a block of 2^j zeros then 2^j ones, doubled until it fills."""
    block = 1 << j
    mask = ((1 << block) - 1) << block
    width = 2 * block
    while width < n_valuations:
        mask |= mask << width
        width *= 2
    return mask


class Language:
    """A propositional language over an ordered tuple of named atoms."""

    def __init__(self, atoms):
        atoms = tuple(atoms)
        if len(atoms) > MAX_ATOMS:
            raise LogicError(f"at most {MAX_ATOMS} atoms supported, got {len(atoms)}")
        if len(set(atoms)) != len(atoms):
            raise LogicError("duplicate atom names")
        for a in atoms:
            if a in ("T", "F"):
                raise LogicError(f"atom name {a!r} collides with a constant")
            if not _IDENT.fullmatch(a):
                raise LogicError(f"invalid atom name {a!r}")
        self.atoms = atoms
        self._index = {a: j for j, a in enumerate(atoms)}
        self.n_valuations = 1 << len(atoms)
        self.full_mask = (1 << self.n_valuations) - 1
        self._atom_masks = [_atom_mask(j, self.n_valuations) for j in range(len(atoms))]
        self._sat_cache: dict[Formula, int] = {}

    # -- parsing ------------------------------------------------------

    def parse(self, text: str) -> Formula:
        """Parse ``text`` against the grammar

            formula := 'T' | 'F' | atom | '!' formula
                     | '(' formula op formula ')'
            op      := '&' | '|' | '->' | '<->'

        ``->`` and ``<->`` are expanded into ``!``/``&``/``|`` at parse
        time.  Atom names must be declared in this language.
        """
        tokens = _tokenize(text)
        pos = 0

        def peek():
            return tokens[pos]

        def advance():
            nonlocal pos
            tok = tokens[pos]
            pos += 1
            return tok

        def formula() -> Formula:
            kind, value, at = advance()
            if kind == "ident":
                if value == "T":
                    return TRUE
                if value == "F":
                    return FALSE
                if value not in self._index:
                    raise UndeclaredAtomError(f"undeclared atom {value!r}", at)
                return Atom(value)
            if kind == "!":
                return Not(formula())
            if kind == "(":
                left = formula()
                op_kind, op_value, op_at = advance()
                if op_kind not in ("&", "|", "imp", "iff"):
                    raise ParseError(
                        f"expected a connective, got {op_value or 'end of input'!r}", op_at
                    )
                right = formula()
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

        result = formula()
        kind, value, at = peek()
        if kind != "end":
            raise ParseError(f"trailing input {value!r}", at)
        return result

    # -- semantics ----------------------------------------------------

    def sat(self, f: Formula) -> int:
        """Bitset of valuations under which ``f`` is true."""
        cached = self._sat_cache.get(f)
        if cached is not None:
            return cached
        if isinstance(f, Const):
            bits = self.full_mask if f.value else 0
        elif isinstance(f, Atom):
            j = self._index.get(f.name)
            if j is None:
                raise UndeclaredAtomError(f"undeclared atom {f.name!r}", 0)
            bits = self._atom_masks[j]
        elif isinstance(f, Not):
            bits = self.full_mask & ~self.sat(f.child)
        elif isinstance(f, And):
            bits = self.sat(f.left) & self.sat(f.right)
        elif isinstance(f, Or):
            bits = self.sat(f.left) | self.sat(f.right)
        else:
            raise TypeError(f"not a formula: {f!r}")
        self._sat_cache[f] = bits
        return bits

    def implies(self, f: Formula, g: Formula) -> bool:
        """Whether ``g`` can be deduced from ``f`` (every valuation making
        ``f`` true makes ``g`` true)."""
        return self.sat(f) & ~self.sat(g) == 0

    def equivalent(self, f: Formula, g: Formula) -> bool:
        return self.sat(f) == self.sat(g)

    def tautology(self, f: Formula) -> bool:
        return self.sat(f) == self.full_mask

    def valuation_atoms(self, i: int) -> dict[str, bool]:
        return {a: bool((i >> j) & 1) for j, a in enumerate(self.atoms)}

    def minterm(self, i: int) -> Formula:
        """The conjunction of literals pinning down valuation ``i``."""
        if not self.atoms:
            return TRUE
        lits = [
            Atom(a) if (i >> j) & 1 else Not(Atom(a))
            for j, a in enumerate(self.atoms)
        ]
        out = lits[0]
        for lit in lits[1:]:
            out = And(out, lit)
        return out

    # -- canonical formula recovery ------------------------------------

    def formula_from_valuations(self, include: int, exclude: int | None = None) -> Formula:
        """A canonically chosen small formula true on every valuation in
        ``include``, false on every valuation in ``exclude``, free on the
        rest.

        When ``exclude`` is omitted it defaults to the complement of
        ``include``.  The choice is deterministic: a minimum-size
        disjunction of product terms, ties broken by total literal count
        and then text.  Exact minimization runs for up to 4 atoms and
        cover size 4; beyond that a plain minterm disjunction over
        ``include`` is returned.
        """
        full = self.full_mask
        include &= full
        if exclude is None:
            exclude = full & ~include
        exclude &= full
        if include & exclude:
            raise LogicError("include and exclude valuation sets overlap")
        if include == 0:
            return FALSE
        if exclude == 0:
            return TRUE
        if len(self.atoms) > 4:
            return self._minterm_dnf(include)
        terms = self._prime_terms(exclude)
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
            chosen = self._greedy_cover(include, terms)
            if chosen is None:
                return self._minterm_dnf(include)
            rendered = sorted(t[2] for t in chosen)
        else:
            rendered = sorted(t[2] for t in best[1])
        out = None
        for text in rendered:
            term = self.parse(text)
            out = term if out is None else Or(out, term)
        return out

    @staticmethod
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

    def _minterm_dnf(self, include: int) -> Formula:
        out = None
        for i in range(self.n_valuations):
            if (include >> i) & 1:
                term = self.minterm(i)
                out = term if out is None else Or(out, term)
        return out if out is not None else FALSE

    def _prime_terms(self, exclude: int) -> list[tuple[int, int, str]]:
        """All product terms avoiding ``exclude`` that are prime (no literal
        can be dropped), as (valuation mask, literal count, rendering)."""
        n = len(self.atoms)
        valid: dict[tuple[int, int], int] = {}
        for care_atoms in itertools.product((None, False, True), repeat=n):
            mask = self.full_mask
            for j, want in enumerate(care_atoms):
                if want is None:
                    continue
                mask &= self._atom_masks[j] if want else (self.full_mask & ~self._atom_masks[j])
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
            for j, a in enumerate(self.atoms):
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


class Theory:
    """A background theory, given by finitely many generators and closed
    under implication.  Membership is decided through the cached
    valuation set of the generators' conjunction."""

    def __init__(self, language: Language, generators, texts=None):
        self.language = language
        self.generators = tuple(generators)
        self.generator_texts = (
            tuple(texts) if texts is not None else tuple(unparse(g) for g in self.generators)
        )
        v = language.full_mask
        for g in self.generators:
            v &= language.sat(g)
        if v == 0:
            raise InconsistentTheoryError(
                "inconsistent theory: the generators jointly entail F"
            )
        self.valuations = v

    @classmethod
    def from_texts(cls, language: Language, texts) -> "Theory":
        texts = tuple(texts)
        return cls(language, [language.parse(t) for t in texts], texts)

    def contains(self, f: Formula) -> bool:
        return self.valuations & ~self.language.sat(f) == 0

    def implies(self, f: Formula, g: Formula) -> bool:
        """Theory-relative entailment: ``g`` follows from ``f`` plus every
        statement of the theory."""
        return self.language.sat(f) & self.valuations & ~self.language.sat(g) == 0


def theory_consistent(language: Language, generators) -> bool:
    v = language.full_mask
    for g in generators:
        v &= language.sat(g)
    return v != 0


def tautological_theory(language: Language) -> Theory:
    return Theory(language, ())
