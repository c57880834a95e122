import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credence._simplex import SimplexError, maximize, solve_matrix_game

F = Fraction


class TestMaximize:
    def test_small_lp(self):
        # max x + y s.t. x + 2y <= 4, x <= 3
        res = maximize([1, 1], a_ub=[[1, 2], [1, 0]], b_ub=[4, 3])
        assert res.status == "optimal"
        assert res.value == F(7, 2)
        assert res.x == [F(3), F(1, 2)]

    def test_equality_constraint(self):
        # max x s.t. x + y = 1
        res = maximize([1, 0], a_eq=[[1, 1]], b_eq=[1])
        assert res.status == "optimal"
        assert res.value == 1

    def test_infeasible(self):
        res = maximize([1], a_ub=[[1], [-1]], b_ub=[1, -2])
        assert res.status == "infeasible"

    def test_unbounded(self):
        res = maximize([1], a_ub=[[-1]], b_ub=[0])
        assert res.status == "unbounded"

    def test_negative_rhs_handled(self):
        # x >= 2 encoded as -x <= -2, max -x
        res = maximize([-1], a_ub=[[-1]], b_ub=[-2])
        assert res.status == "optimal"
        assert res.x == [F(2)]

    def test_redundant_equality_rows(self):
        res = maximize([1, 1], a_ub=[[1, 1]], b_ub=[2], a_eq=[[1, 0], [1, 0]], b_eq=[1, 1])
        assert res.status == "optimal"
        assert res.value == 2
        assert res.x == [F(1), F(1)]

    def test_artificial_left_at_zero_is_pivoted_out(self):
        # phase 1 ends at once with the artificial of -x - y = 0 basic at
        # zero; its row is not redundant, so it must stay as x + y = 0
        res = maximize([1, 1], a_ub=[[1, 1]], b_ub=[2], a_eq=[[-1, -1]], b_eq=[0])
        assert res.status == "optimal"
        assert res.value == 0
        assert res.x == [F(0), F(0)]

    def test_degenerate_vertex(self):
        # two constraints both tight at the optimum
        res = maximize([1], a_ub=[[1], [1]], b_ub=[1, 1])
        assert res.status == "optimal"
        assert res.value == 1

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_duals_certify_the_optimum(self, data):
        # with only a_ub rows, an optimal dual y satisfies y >= 0,
        # y^T A >= c and y^T b = value (strong duality); the last row
        # bounds the feasible set, so most draws have an optimum
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(0, 4))
        entry = st.fractions(F(-3), F(3), max_denominator=2)
        c = data.draw(st.lists(entry, min_size=n, max_size=n))
        a = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
        b = data.draw(st.lists(entry, min_size=m, max_size=m))
        a.append([1] * n)
        b.append(10)
        res = maximize(c, a_ub=a, b_ub=b)
        if res.status != "optimal":
            return
        y = res.duals
        assert len(y) == len(a) and all(v >= 0 for v in y)
        for j in range(n):
            assert sum(yi * row[j] for yi, row in zip(y, a)) >= c[j]
        assert sum(yi * bi for yi, bi in zip(y, b)) == res.value


class TestMatrixGame:
    def test_matching_pennies(self):
        sol = solve_matrix_game([[1, -1], [-1, 1]])
        assert sol.value == 0
        assert sol.row_mixture == [F(1, 2), F(1, 2)]
        assert sol.col_mixture == [F(1, 2), F(1, 2)]

    def test_constant_game(self):
        sol = solve_matrix_game([[F(1, 3)]])
        assert sol.value == F(1, 3)

    def test_dominance_margin(self):
        # row player mixes the first two rows to beat zero everywhere by 1/6
        g = [
            [F(2, 3), -F(1, 3)],
            [-F(1, 3), F(2, 3)],
            [0, 0],
        ]
        sol = solve_matrix_game(g)
        assert sol.value == F(1, 6)
        assert sol.row_mixture == [F(1, 2), F(1, 2), F(0)]

    def test_empty_matrix(self):
        with pytest.raises(SimplexError):
            solve_matrix_game([])

    def test_ragged_matrix(self):
        with pytest.raises(SimplexError) as refused:
            solve_matrix_game([[1, 2], [3]])
        assert str(refused.value) == "ragged game matrix"
        assert type(refused.value) is SimplexError

    @given(
        st.lists(
            st.lists(st.fractions(F(-3), F(3)), min_size=2, max_size=4),
            min_size=2,
            max_size=4,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(max_examples=60, deadline=None)
    def test_certificates_certify_the_value(self, g):
        sol = solve_matrix_game(g)
        m, n = len(g), len(g[0])
        assert sum(sol.row_mixture) == 1 and all(w >= 0 for w in sol.row_mixture)
        assert sum(sol.col_mixture) == 1 and all(w >= 0 for w in sol.col_mixture)
        # the row mixture guarantees at least the value against every column
        for j in range(n):
            assert sum(sol.row_mixture[i] * g[i][j] for i in range(m)) >= sol.value
        # the column mixture caps every row at the value
        for i in range(m):
            assert sum(sol.col_mixture[j] * g[i][j] for j in range(n)) <= sol.value

    def test_agrees_with_lp_form(self):
        rng = random.Random(7)
        for _ in range(25):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            g = [
                [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(m)
            ]
            sol = solve_matrix_game(g)
            # independent route: max v s.t. mu^T G >= v column-wise, with
            # v shifted positive; here just validate via both certificates
            for j in range(n):
                assert sum(sol.row_mixture[i] * g[i][j] for i in range(m)) >= sol.value
            for i in range(m):
                assert sum(sol.col_mixture[j] * g[i][j] for j in range(n)) <= sol.value
