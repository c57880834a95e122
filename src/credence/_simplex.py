"""Exact-rational linear programming: a small two-phase simplex and a
zero-sum matrix game solver built on it.

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


def _pivot(rows, obj, basis, r, c):
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


def _run_simplex(rows, obj, basis, ncols):
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
        _pivot(rows, obj, basis, best[1], col)


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
        _run_simplex(tab, obj, basis, total)
        if obj[-1] != 0:
            return LpResult("infeasible", None, None)
        # drive any lingering artificials out of the basis
        for i in range(m):
            if basis[i] in art_cols:
                col = next(
                    (j for j in range(art_start) if tab[i][j] != 0), None
                )
                if col is not None:
                    _pivot(tab, obj, basis, i, col)
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
        _run_simplex(tab, obj, basis, art_start)
    except SimplexError:
        return LpResult("unbounded", None, None)

    x = [ZERO] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = tab[i][-1]
    value = sum(ci * xi for ci, xi in zip(c, x))
    duals = [-obj[n + i] for i in range(len(a_ub))]
    return LpResult("optimal", x, value, duals)


@dataclass
class GameSolution:
    value: Fraction
    row_mixture: list[Fraction]
    col_mixture: list[Fraction]


def solve_matrix_game(matrix) -> GameSolution:
    """Value and optimal mixed strategies of the zero-sum game whose row
    player maximizes ``matrix[i][j]``.

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
    _run_simplex(tab, obj, basis, total)

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
