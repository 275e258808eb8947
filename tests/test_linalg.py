"""Tests for exact elimination: rref on primitive integer rows against the
plain Fraction Gauss-Jordan of tests/oracles.py."""

import copy
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dinv.linalg import common_denominator, rank, rref, solve
from oracles import rref_fraction, solve_fraction

F = Fraction

small_ints = st.integers(-6, 6)
rationals = st.builds(F, st.integers(-40, 40), st.integers(1, 12))
entries = {
    "rational": rationals,
    "int": small_ints,
    "mixed": st.one_of(small_ints, rationals, st.just(0), st.just(F(0))),
}


@st.composite
def matrices(draw, kind: str):
    """Rows of one width, with some rows zero, duplicated or scaled
    copies of others, so that rank deficiency is common."""
    ncols = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(entries[kind], min_size=ncols, max_size=ncols), max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        src = rows[draw(st.integers(0, len(rows) - 1))]
        how = draw(st.sampled_from(["zero", "copy", "scale", "sum"]))
        if how == "zero":
            new = [0] * ncols
        elif how == "copy":
            new = list(src)
        elif how == "scale":
            new = [draw(rationals) * v for v in src]
        else:
            other = rows[draw(st.integers(0, len(rows) - 1))]
            new = [a + b for a, b in zip(src, other)]
        rows.insert(draw(st.integers(0, len(rows))), new)
    return rows


@pytest.mark.parametrize("kind", sorted(entries))
class TestAgainstFractionOracle:
    @given(data=st.data())
    def test_rref(self, kind, data):
        rows = data.draw(matrices(kind))
        assert rref(rows) == rref_fraction(rows)

    @given(data=st.data())
    def test_rank(self, kind, data):
        rows = data.draw(matrices(kind))
        assert rank(rows) == len(rref_fraction(rows)[1])

    @given(data=st.data())
    def test_solve(self, kind, data):
        rows = data.draw(matrices(kind))
        rhs = data.draw(st.lists(entries[kind], min_size=len(rows), max_size=len(rows)))
        assert solve(rows, rhs) == solve_fraction(rows, rhs)

    @given(data=st.data())
    def test_solve_consistent(self, kind, data):
        rows = data.draw(matrices(kind))
        ncols = len(rows[0]) if rows else 0
        x = data.draw(st.lists(entries[kind], min_size=ncols, max_size=ncols))
        rhs = [sum((F(a) * v for a, v in zip(row, x)), F(0)) for row in rows]
        got = solve(rows, rhs)
        assert got == solve_fraction(rows, rhs)
        assert [sum((F(a) * v for a, v in zip(row, got)), F(0)) for row in rows] == rhs

    @given(data=st.data())
    def test_input_not_mutated(self, kind, data):
        rows = data.draw(matrices(kind))
        before = copy.deepcopy(rows)
        rref(rows)
        solve(rows, [1] * len(rows))
        assert rows == before


class TestEdgeCases:
    def test_empty_matrix(self):
        assert rref([]) == ([], [])
        assert rank([]) == 0
        assert solve([], []) == []

    def test_rows_of_width_zero(self):
        assert rref([[], []]) == rref_fraction([[], []]) == ([[], []], [])

    def test_zero_matrix(self):
        rows = [[0, 0, 0], [F(0), 0, F(0)]]
        assert rref(rows) == rref_fraction(rows) == ([[F(0)] * 3, [F(0)] * 3], [])

    def test_zero_columns_are_skipped(self):
        rows = [[0, 2, 0, 4], [0, 1, 0, F(1, 2)], [0, 3, 0, 6]]
        reduced, pivots = rref(rows)
        assert pivots == [1, 3]
        assert (reduced, pivots) == rref_fraction(rows)

    def test_duplicate_and_zero_rows(self):
        rows = [[1, 2, 3], [0, 0, 0], [1, 2, 3], [F(1, 3), F(2, 3), 1]]
        reduced, pivots = rref(rows)
        assert pivots == [0]
        assert reduced == [[1, 2, 3], [0, 0, 0], [0, 0, 0], [0, 0, 0]]
        assert (reduced, pivots) == rref_fraction(rows)

    def test_every_entry_is_a_fraction(self):
        reduced, _ = rref([[2, 4], [1, 3], [0, 0]])
        assert all(type(v) is Fraction for row in reduced for v in row)

    def test_negative_pivot_normalized(self):
        assert rref([[-3, 6], [0, -2]]) == ([[1, 0], [0, 1]], [0, 1])

    def test_large_entries(self):
        rows = [[F(10**40 + 1, 7**30), F(-3, 10**25), 5], [F(2, 3), F(10**30), F(-1, 10**20)], [1, 1, 1]]
        assert rref(rows) == rref_fraction(rows)

    def test_ragged_raises(self):
        with pytest.raises(ValueError, match="ragged"):
            rref([[1, 2], [3]])
        with pytest.raises(ValueError, match="ragged"):
            rank([[1], [2, 3]])

    def test_solve_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            solve([[1, 2]], [1, 2])

    def test_inconsistent_system(self):
        assert solve([[1, 1], [2, 2]], [1, 3]) is None


class TestCommonDenominator:
    def test_coprime_denominators(self):
        values = [F(1, 7), F(5, 11), F(-3, 13), F(1, 1009), F(2), F(0)]
        s, nums = common_denominator(values)
        assert s == 7 * 11 * 13 * 1009
        assert [F(n, s) for n in nums] == values

    def test_shared_factors_give_the_lcm(self):
        assert common_denominator([F(1, 4), F(1, 6), F(5, 12)]) == (12, [3, 2, 5])

    def test_integers_and_empty(self):
        assert common_denominator([3, -2, 0]) == (1, [3, -2, 0])
        assert common_denominator([]) == (1, [])

    def test_takes_any_iterable(self):
        terms = {(1, 0): F(1, 2), (0, 1): F(-2, 3)}
        assert common_denominator(terms.values()) == (6, [3, -4])
        assert common_denominator(v for v in terms.values()) == (6, [3, -4])
