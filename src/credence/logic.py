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

Formula text is split into tokens by one compiled pattern in one
``re.findall``; a non-space character that starts no token is a
one-character token that no grammar rule accepts.  ``Language.parse``
descends over that list of strings, and scans the text again, for
offsets, only when it raises a ``ParseError``.

``Language.formula_from_valuations`` renders a valuation set back into a
formula, in two regimes: up to 4 atoms the smallest disjunction of at
most 4 prime terms, found by exact search; above 4 atoms, or where no
such disjunction exists, a Shannon expansion on the atoms whose depth
is at most 2 * atoms + 2.
"""

from __future__ import annotations

import itertools
import re
import sys
import weakref
from dataclasses import FrozenInstanceError

from .errors import InputError

MAX_ATOMS = 16
# ``parse``, ``sat`` and ``unparse`` recurse once per level of a formula,
# so a parsed formula may be half the interpreter's recursion limit deep
# (500 at the default of 1000), which leaves the other half to callers
MAX_DEPTH = sys.getrecursionlimit() // 2

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# a formula's tokens: an arrow, a one-character connective or parenthesis,
# a name, or any other non-space character, which no grammar rule accepts
_TOKEN = re.compile(rf"<->|->|[()!&|]|{_IDENT.pattern}|\S")


class LogicError(InputError):
    pass


def check_table(table: str, k: int, unit: str, error: type[ValueError] = LogicError) -> None:
    """Refuse a table indexed by ``k`` bits, before it is allocated, when
    it is wider than the widest language's valuation table; the refusal
    is the caller's ``error``."""
    if k > MAX_ATOMS:
        raise error(
            f"{table} over {k} {unit} would have 2^{k} entries; "
            f"tables are built up to 2^{MAX_ATOMS}"
        )


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
        return _repr(self)

    def __reduce__(self):
        return _rebuild, (_flat(self),)

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


def _children(f: Formula) -> tuple:
    return () if isinstance(f, (Atom, Const)) else tuple(getattr(f, n) for n in f.__slots__)


def _postorder(f: Formula) -> list[Formula]:
    """The distinct subformulas of ``f``, each after its children, found
    without recursion."""
    seen = set()
    out = []
    stack = [f]
    while stack:
        g = stack[-1]
        if g in seen:
            stack.pop()
            continue
        todo = [k for k in _children(g) if k not in seen]
        if todo:
            stack.extend(todo)
        else:
            stack.pop()
            seen.add(g)
            out.append(g)
    return out


def _depth(f: Formula) -> int:
    """The number of connectives on the longest path down ``f``, each
    shared subformula measured once."""
    depth = {}
    for g in _postorder(f):
        depth[g] = 1 + max((depth[k] for k in _children(g)), default=-1)
    return depth[f]


def _repr(f: Formula) -> str:
    """``Not(child=Atom(name='p'))`` and the like, one frame per level:
    it calls itself, never ``repr``, on a subformula."""
    fields = []
    for name in f.__slots__:
        v = getattr(f, name)
        fields.append(f"{name}={_repr(v) if isinstance(v, Formula) else repr(v)}")
    return f"{type(f).__name__}({', '.join(fields)})"


def _flat(f: Formula) -> tuple:
    """``f`` as its distinct subformulas, each after its children, each
    its class and its fields, with a subformula field given as that
    subformula's position; ``_rebuild`` inverts it.  Pickle stores the
    flat form without recursing down ``f``."""
    nodes = _postorder(f)
    index = {g: i for i, g in enumerate(nodes)}
    flat = []
    for g in nodes:
        if isinstance(g, (Atom, Const)):
            flat.append((type(g), *(getattr(g, n) for n in g.__slots__)))
        else:
            flat.append((type(g), *(index[k] for k in _children(g))))
    return tuple(flat)


def _rebuild(flat: tuple) -> Formula:
    built = []
    for cls, *fields in flat:
        if cls not in (Atom, Const):
            fields = [built[i] for i in fields]
        built.append(cls(*fields))
    return built[-1]


# each binary connective's node builder; the arrows expand into !, & and |
_CONNECTIVES = {
    "&": And,
    "|": Or,
    "->": lambda a, b: Or(Not(a), b),
    "<->": lambda a, b: And(Or(Not(a), b), Or(Not(b), a)),
}


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
        check_table("valuation table", len(atoms), "atoms")
        for a in atoms:
            if a in ("T", "F"):
                raise LogicError(f"atom name {a!r} collides with a constant")
            if not isinstance(a, str) or not _IDENT.fullmatch(a):
                raise LogicError(f"invalid atom name {a!r}")
        if len(set(atoms)) != len(atoms):
            raise LogicError("duplicate atom names")
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
        time.  Atom names must be declared in this language.  A formula
        nesting more than ``MAX_DEPTH`` connectives deep once expanded is
        a ``ParseError``.
        """
        tokens = _TOKEN.findall(text)
        tokens.append("")  # the end of input
        pos = 0

        def fail(message: str, k: int, error: type[ParseError] = ParseError):
            """The error at token ``k``, or at the text's first unexpected character."""
            offsets = []
            for m in _TOKEN.finditer(text):
                tok = m.group()
                if not (tok in _CONNECTIVES or tok in "()!" or _IDENT.match(tok)):
                    return ParseError(f"unexpected character {tok!r}", m.start())
                offsets.append(m.start())
            offsets.append(len(text))
            return error(message, offsets[k])

        def formula(level: int) -> Formula:
            nonlocal pos
            tok = tokens[pos]
            pos += 1
            if tok in self._index:
                return Atom(tok)
            if tok == "(" or tok == "!":
                if level == MAX_DEPTH:
                    raise fail(f"formula nests more than {MAX_DEPTH} levels deep", pos - 1)
                if tok == "!":
                    return Not(formula(level + 1))
                left = formula(level + 1)
                build = _CONNECTIVES.get(tokens[pos])
                if build is None:
                    got = tokens[pos] or "end of input"
                    raise fail(f"expected a connective, got {got!r}", pos)
                pos += 1
                right = formula(level + 1)
                if tokens[pos] != ")":
                    raise fail("expected ')'", pos)
                pos += 1
                return build(left, right)
            if tok == "T":
                return TRUE
            if tok == "F":
                return FALSE
            if _IDENT.match(tok):
                raise fail(f"undeclared atom {tok!r}", pos - 1, UndeclaredAtomError)
            raise fail(f"expected a formula, got {tok or 'end of input'!r}", pos - 1)

        result = formula(0)
        if tokens[pos]:
            raise fail(f"trailing input {tokens[pos]!r}", pos)
        # without "->" and "<->" the formula is as deep as the text, whose
        # nesting is checked above; expanding them adds at most two levels
        # per token, so only a text of more than MAX_DEPTH / 3 tokens with
        # one of them can come out deeper
        if 3 * len(tokens) > MAX_DEPTH and "->" in text and _depth(result) > MAX_DEPTH:
            raise ParseError(f"formula nests more than {MAX_DEPTH} levels deep", 0)
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
        ``include``.  The choice is deterministic, in two regimes.  Up to
        4 atoms, a disjunction of at most 4 prime terms is searched
        exactly: the fewest terms, ties broken by total literal count and
        then text.  Above 4 atoms, or where no such cover exists, the
        result is a Shannon expansion on the atoms, highest first, that
        uses the free valuations as don't-cares (Coudert & Madre 1990,
        *restrict*); its depth is at most 2 * atoms + 2, and hash-consing
        shares its equal subformulas.
        """
        full = self.full_mask
        include &= full
        if exclude is None:
            exclude = full & ~include
        exclude &= full
        if include & exclude:
            raise LogicError("include and exclude valuation sets overlap")
        if include and exclude and len(self.atoms) <= 4:
            terms = self._prime_terms(exclude)
            for size in range(1, min(len(terms), 4) + 1):
                best = None
                for combo in itertools.combinations(terms, size):
                    covered = 0
                    for mask, _, _, _ in combo:
                        covered |= mask
                    if covered & include == include:
                        lits = sum(nlit for _, nlit, _, _ in combo)
                        key = (lits, tuple(sorted(t[2] for t in combo)))
                        if best is None or key < best[0]:
                            best = (key, combo)
                if best is not None:
                    out = None
                    for _, _, _, term in sorted(best[1], key=lambda t: t[2]):
                        out = term if out is None else Or(out, term)
                    return out
        return self._restrict(include, exclude, len(self.atoms))

    def _restrict(self, include: int, exclude: int, n: int) -> Formula:
        """A Shannon expansion on atoms ``n - 1`` down to 0, true on
        ``include`` and false on ``exclude``, two disjoint sets of the
        valuations of the first ``n`` atoms.  An atom whose two cofactors
        agree on every cared-for valuation is dropped."""
        if include == 0:
            return FALSE
        if exclude == 0:
            return TRUE
        n -= 1
        half = 1 << n  # valuation i + half is valuation i with atom n true
        low = (1 << half) - 1
        inc_lo, exc_lo = include & low, exclude & low
        inc_hi, exc_hi = include >> half, exclude >> half
        if not (inc_lo & exc_hi or inc_hi & exc_lo):
            return self._restrict(inc_lo | inc_hi, exc_lo | exc_hi, n)
        a = Atom(self.atoms[n])
        lo = self._restrict(inc_lo, exc_lo, n)
        hi = self._restrict(inc_hi, exc_hi, n)
        if lo is FALSE:
            return a if hi is TRUE else And(a, hi)
        if hi is FALSE:
            return Not(a) if lo is TRUE else And(Not(a), lo)
        if hi is TRUE:
            return Or(a, lo)
        if lo is TRUE:
            return Or(Not(a), hi)
        return Or(And(a, hi), And(Not(a), lo))

    def _prime_terms(self, exclude: int) -> list[tuple[int, int, str, Formula]]:
        """All product terms avoiding a non-empty ``exclude`` that are
        prime (no literal can be dropped), as (valuation mask, literal
        count, rendering, term), in order of literal count and then
        rendering; a term's literals are left-nested in atom order.

        Terms grow one atom at a time.  A term that already avoids
        ``exclude`` is not extended, since no extension of it is prime.
        So every term one literal short of a grown term was grown too."""
        # (atoms in the term, atoms true in it) -> valuation mask
        masks = {(0, 0): self.full_mask}
        for j, m in enumerate(self._atom_masks):
            bit = 1 << j
            for (care, vals), mask in list(masks.items()):
                if mask & exclude:
                    masks[care | bit, vals | bit] = mask & m
                    masks[care | bit, vals] = mask & ~m
        out = []
        for (care, vals), mask in masks.items():
            if mask & exclude or any(
                care >> j & 1 and not masks[care & ~(1 << j), vals & ~(1 << j)] & exclude
                for j in range(len(self.atoms))
            ):
                continue
            term = None
            for j, a in enumerate(self.atoms):
                if care >> j & 1:
                    lit = Atom(a) if vals >> j & 1 else Not(Atom(a))
                    term = lit if term is None else And(term, lit)
            out.append((mask, care.bit_count(), unparse(term), term))
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

    def implies(self, f: Formula, g: Formula) -> bool:
        """Theory-relative entailment: ``g`` follows from ``f`` plus every
        statement of the theory."""
        return self.language.sat(f) & self.valuations & ~self.language.sat(g) == 0
