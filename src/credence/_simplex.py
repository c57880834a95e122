"""Exact-rational linear programming: one fraction-free Gauss-Jordan
pivot step, a two-phase simplex on a single integer tableau, and the
zero-sum matrix game as a reduction onto it.

Every exact solve in credence goes through ``pivot``: the simplex here
and the valuation-mass row reduction of ``construct``.  A tableau holds
Python ints together with one positive common denominator ``d``; its true
entries are ``tab / d``.  The step is Bareiss's (1968) integer pivoting,
as in Avis's lrs: every entry stays a minor of the starting matrix, so
each division by ``d`` is exact and no gcd is ever taken.  ``maximize``
takes int rows as they are; rows holding ``Fraction``s are put over one
denominator by ``_exact`` on the way in.  The optimum comes back as int
numerators over one denominator, and ``Fraction``s are built only when a
caller reads ``x``, ``value`` or ``duals``.

The simplex keeps its objective as the tableau's last row, so one pivot
updates the reduced costs along with the constraint rows.  Phase 1
minimizes the sum of the artificial variables; it then pivots out every
artificial it can and deletes the rows still basic on one (they are
all-zero, hence redundant) together with the artificial columns, so
phase 2 runs on the original columns alone and needs no big-M penalty.
Optimal duals are read off the final objective row.  Bland's rule makes
pivoting deterministic and cycle-free; scaling by a positive constant
changes no sign and no ratio order, so the pivots, and hence every
result and dual, are those of the same simplex run on ``Fraction``s.
A caller that poses its LP in ints over a denominator of its own keeps
that property by scaling every row, right-hand side and cost alike.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from ._exact import over_one_denominator
from .errors import InternalError


class SimplexError(Exception):
    pass


def pivot(tab, d, r, c):
    """One fraction-free Gauss-Jordan step on the int tableau ``tab`` over
    the denominator ``d``: clear column ``c`` from every row but ``r``,
    keep row ``r`` as it is, and return the new denominator, the pivot
    ``tab[r][c]``.  A negative pivot negates every row, so the returned
    denominator is always positive."""
    prow = tab[r]
    p = prow[c]
    for i, row in enumerate(tab):
        if i == r:
            continue
        f = row[c]
        if f:
            tab[i] = [(a * p - f * b) // d for a, b in zip(row, prow)]
        elif p != d:
            tab[i] = [a * p // d for a in row]
    if p < 0:
        for i, row in enumerate(tab):
            tab[i] = [-v for v in row]
        return -p
    return p


def _run_simplex(tab, d, basis, ncols):
    """Maximize over the first ``ncols`` columns, with reduced costs in the
    last row ``tab[-1]`` (its last entry = -value), and return the final
    denominator.  Bland's rule: enter the lowest eligible column, leave the
    lowest basic index.  With ``d > 0`` every sign is the sign of the int
    entry, and ratios are compared by cross-multiplication."""
    obj = tab[-1]
    while True:
        col = next((j for j in range(ncols) if obj[j] > 0), None)
        if col is None:
            return d
        best = None
        for i, row in enumerate(tab[:-1]):
            a = row[col]
            if a <= 0:
                continue
            if best is not None:
                # row[-1] / a against the best ratio rhs / den
                lhs, rgt = row[-1] * den, rhs * a
                if lhs > rgt or (lhs == rgt and basis[i] > basis[best]):
                    continue
            best, rhs, den = i, row[-1], a
        if best is None:
            raise SimplexError("unbounded")
        d = pivot(tab, d, best, col)
        basis[best] = col
        obj = tab[-1]


@dataclass
class LpResult:
    """An LP's outcome.  At an optimum the solution, its value and one dual
    (>= 0) per ``a_ub`` row are int numerators over one positive
    ``denominator``; ``x``, ``value`` and ``duals`` read them as
    ``Fraction``s."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    x_numerators: list[int] | None = None
    value_numerator: int | None = None
    dual_numerators: list[int] | None = None
    denominator: int = 1

    def _read(self, numerators):
        if numerators is None:
            return None
        return [Fraction(v, self.denominator) for v in numerators]

    @property
    def x(self) -> list[Fraction] | None:
        return self._read(self.x_numerators)

    @property
    def value(self) -> Fraction | None:
        v = self.value_numerator
        return None if v is None else Fraction(v, self.denominator)

    @property
    def duals(self) -> list[Fraction] | None:
        return self._read(self.dual_numerators)


def maximize(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None) -> LpResult:
    """Maximize c.x subject to a_ub.x <= b_ub, a_eq.x = b_eq, x >= 0, for
    entries that are ints or ``Fraction``s.

    At an optimum, ``duals`` holds an optimal dual value (>= 0) for each
    ``a_ub`` row, read off the reduced cost of its slack or surplus column."""
    n = len(c)
    ub = list(zip(a_ub or [], b_ub or []))
    eq = list(zip(a_eq or [], b_eq or []))

    # one common denominator turns every structural entry, right-hand
    # side and cost into an int (int rows stay as they are); the scaled
    # LP has the same x, the same duals and the same pivots
    scale, nums = over_one_denominator(
        itertools.chain(c, *(itertools.chain(coeffs, (b,)) for coeffs, b in ub + eq))
    )
    nums = iter(nums)
    cost = list(itertools.islice(nums, n))

    # column layout: n structural, one slack (or surplus, on a row flipped
    # to a nonnegative rhs) per inequality row, then one artificial per
    # flipped inequality and per equality row
    art_start = n + len(ub)
    n_art = sum(1 for _, b in ub if b < 0) + len(eq)
    pad = [0] * (art_start + n_art - n)
    tab, basis = [], []
    art = art_start
    for i, (coeffs, b) in enumerate(ub + eq):
        flipped = b < 0
        row = list(itertools.islice(nums, len(coeffs))) + pad + [next(nums)]
        if flipped:
            row = [-v for v in row]
        if i < len(ub):
            row[n + i] = -1 if flipped else 1
        if flipped or i >= len(ub):
            row[art] = 1
            basis.append(art)
            art += 1
        else:
            basis.append(n + i)
        tab.append(row)

    d = 1
    if n_art:
        # phase 1: maximize -(sum of artificials)
        obj = [0] * art_start + [-1] * n_art + [0]
        for row, b in zip(tab, basis):
            if b >= art_start:
                obj = [o + v for o, v in zip(obj, row)]
        tab.append(obj)
        d = _run_simplex(tab, d, basis, art_start + n_art)
        if tab.pop()[-1] != 0:
            return LpResult("infeasible", None, None)
        # drive any lingering artificials out of the basis; the rows where
        # none can leave are all-zero off the artificials, hence redundant
        for i, b in enumerate(basis):
            if b >= art_start:
                col = next((j for j in range(art_start) if tab[i][j] != 0), None)
                if col is not None:
                    d = pivot(tab, d, i, col)
                    basis[i] = col
        keep = [i for i, b in enumerate(basis) if b < art_start]
        tab = [tab[i][:art_start] + tab[i][-1:] for i in keep]
        basis = [basis[i] for i in keep]

    # phase 2: the reduced costs d*Lc - sum of Lc_b * row_b over the basis
    obj = [d * v for v in cost] + [0] * (art_start - n + 1)
    for row, b in zip(tab, basis):
        f = cost[b] if b < n else 0
        if f:
            obj = [o - f * v for o, v in zip(obj, row)]
    tab.append(obj)
    try:
        d = _run_simplex(tab, d, basis, art_start)
    except SimplexError:
        return LpResult("unbounded", None, None)

    # x = row / d, value = -objective / (d * scale) and duals = -reduced
    # cost / d, all put over d * scale
    x = [0] * n
    for row, b in zip(tab, basis):
        if b < n:
            x[b] = row[-1] * scale
    duals = [-tab[-1][n + i] * scale for i in range(len(ub))]
    return LpResult("optimal", x, -tab[-1][-1], duals, d * scale)


@dataclass
class GameSolution:
    value: Fraction
    row_mixture: list[Fraction]
    col_mixture: list[Fraction]


def solve_matrix_game(matrix, denominator: int = 1) -> GameSolution:
    """Value and optimal mixed strategies of the zero-sum game whose row
    player maximizes ``matrix[i][j] / denominator``; int entries are
    taken as they are.

    Solved by shifting the game positive and maximizing ``sum(z)``
    subject to ``G z <= 1``; the column mixture is the scaled primal
    solution and the row mixture the scaled duals.  Every shifted entry
    is at least 1, so that LP is feasible and bounded with a positive
    optimum; any other outcome is an ``InternalError``.  The LP is posed
    times ``denominator``: the shift, the right-hand side and the costs
    are scaled with the matrix, so its pivots are those of the game's
    own LP.
    """
    g = [list(row) for row in matrix]
    if not g or not g[0]:
        raise SimplexError("empty game matrix")
    m, n = len(g), len(g[0])
    if any(len(row) != n for row in g):
        raise SimplexError("ragged game matrix")

    shift = denominator - min(min(row) for row in g)
    res = maximize(
        [denominator] * n, [[v + shift for v in row] for row in g], [denominator] * m
    )
    if res.status != "optimal" or res.value_numerator <= 0:
        raise InternalError(f"internal: the game's LP came back {res.status}, value {res.value}")
    # with value = v / den, sum(z) = u = v / (den * denominator); the
    # game's value is 1/u - shift/denominator and the mixtures are x/u
    # and duals/u
    v, den = res.value_numerator, res.denominator
    return GameSolution(
        Fraction(den * denominator * denominator - shift * v, v * denominator),
        [Fraction(y * denominator, v) for y in res.dual_numerators],
        [Fraction(z * denominator, v) for z in res.x_numerators],
    )
