"""Exact-rational linear programming: one Gauss-Jordan pivot step, a
two-phase simplex on a single tableau, and the zero-sum matrix game as a
reduction onto it.

Every exact solve in credence goes through ``pivot``: the simplex here
and the valuation-mass row reduction of ``construct``.  The simplex keeps
its objective as the tableau's last row, so one pivot updates the
reduced costs along with the constraint rows.  Phase 1 minimizes the sum
of the artificial variables; it then pivots out every artificial it can
and deletes the rows still basic on one (they are all-zero, hence
redundant) together with the artificial columns, so phase 2 runs on the
original columns alone and needs no big-M penalty.  Optimal duals are
read off the final objective row.

Everything runs on ``fractions.Fraction``; Bland's rule makes pivoting
deterministic and cycle-free.  Problem sizes here are tiny (dozens of
rows/columns), so no effort is spent on sparsity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class SimplexError(Exception):
    pass


def pivot(rows, r, c):
    """One Gauss-Jordan step: scale row ``r`` so that ``rows[r][c]`` is 1
    and clear column ``c`` from every other row."""
    piv = rows[r][c]
    rows[r] = pivot_row = [v / piv for v in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[c] != 0:
            f = row[c]
            rows[i] = [a - f * b for a, b in zip(row, pivot_row)]


def _run_simplex(tab, basis, ncols):
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
        pivot(tab, best[1], col)
        basis[best[1]] = col


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
        _run_simplex(tab, basis, art_start + n_art)
        if tab.pop()[-1] != 0:
            return LpResult("infeasible", None, None)
        # drive any lingering artificials out of the basis; the rows where
        # none can leave are all-zero off the artificials, hence redundant
        for i, b in enumerate(basis):
            if b >= art_start:
                col = next((j for j in range(art_start) if tab[i][j] != 0), None)
                if col is not None:
                    pivot(tab, i, col)
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
        _run_simplex(tab, basis, art_start)
    except SimplexError:
        return LpResult("unbounded", None, None)

    x = [ZERO] * n
    for row, b in zip(tab, basis):
        if b < n:
            x[b] = row[-1]
    value = sum(ci * xi for ci, xi in zip(c, x))
    duals = [-tab[-1][n + i] for i in range(len(ub))]
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
    solution and the row mixture the scaled duals.
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
        raise SimplexError("degenerate game tableau")
    u = res.value
    return GameSolution(
        ONE / u - shift, [v / u for v in res.duals], [v / u for v in res.x]
    )
