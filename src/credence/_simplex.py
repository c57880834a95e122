"""Exact-rational linear programming: one fraction-free Gauss-Jordan
pivot step, a two-phase simplex on a single integer tableau, and the
zero-sum matrix game as a reduction onto it.

Every exact solve in credence goes through ``pivot``: the simplex here
and the valuation-mass row reduction of ``construct``.  A tableau holds
Python ints together with one positive common denominator ``d``; its true
entries are ``tab / d``.  The step is Bareiss's (1968) integer pivoting,
as in Avis's lrs: every entry stays a minor of the starting matrix, so
each division by ``d`` is exact and no gcd is ever taken.  ``Fraction``
appears only at the edges: inputs are scaled by the lcm of their
denominators on the way in, and results are read off as ``row / d`` on
the way out.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalError

ZERO = Fraction(0)
ONE = Fraction(1)


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
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: list[Fraction] | None
    value: Fraction | None
    duals: list[Fraction] | None = None  # one per a_ub row, when optimal


def maximize(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None) -> LpResult:
    """Maximize c.x subject to a_ub.x <= b_ub, a_eq.x = b_eq, x >= 0.

    At an optimum, ``duals`` holds an optimal dual value (>= 0) for each
    ``a_ub`` row, read off the reduced cost of its slack or surplus column."""
    c = [Fraction(v) for v in c]
    n = len(c)
    ub = [(list(map(Fraction, r)), Fraction(b)) for r, b in zip(a_ub or [], b_ub or [])]
    eq = [(list(map(Fraction, r)), Fraction(b)) for r, b in zip(a_eq or [], b_eq or [])]

    # one common denominator turns every structural entry, right-hand
    # side and cost into an int; the scaled LP has the same x, the same
    # duals and the same pivots
    scale = math.lcm(
        *(v.denominator for v in c),
        *(v.denominator for coeffs, b in ub + eq for v in (*coeffs, b)),
    )

    def ints(values):
        return [v.numerator * (scale // v.denominator) for v in values]

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
        row = ints(coeffs) + pad + ints([b])
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
    cost = ints(c)
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

    x = [ZERO] * n
    for row, b in zip(tab, basis):
        if b < n:
            x[b] = Fraction(row[-1], d)
    value = sum(ci * xi for ci, xi in zip(c, x))
    duals = [Fraction(-tab[-1][n + i], d) for i in range(len(ub))]
    return LpResult("optimal", x, value, duals)


@dataclass
class GameSolution:
    value: Fraction
    row_mixture: list[Fraction]
    col_mixture: list[Fraction]


def solve_matrix_game(matrix) -> GameSolution:
    """Value and optimal mixed strategies of the zero-sum game whose row
    player maximizes ``matrix[i][j]``.

    Solved by shifting the matrix positive and maximizing ``sum(z)``
    subject to ``G z <= 1``; the column mixture is the scaled primal
    solution and the row mixture the scaled duals.  Every shifted entry
    is at least 1, so that LP is feasible and bounded with a positive
    optimum; any other outcome is an ``InternalError``.
    """
    g = [list(map(Fraction, row)) for row in matrix]
    if not g or not g[0]:
        raise SimplexError("empty game matrix")
    m, n = len(g), len(g[0])
    if any(len(row) != n for row in g):
        raise SimplexError("ragged game matrix")

    shift = ONE - min(min(row) for row in g)
    res = maximize([ONE] * n, [[v + shift for v in row] for row in g], [ONE] * m)
    if res.status != "optimal" or res.value <= 0:
        raise InternalError(f"internal: the game's LP came back {res.status}, value {res.value}")
    u = res.value
    return GameSolution(
        ONE / u - shift, [v / u for v in res.duals], [v / u for v in res.x]
    )
