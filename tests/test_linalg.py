"""Tests for exact elimination: the sparse integer echelon and solve against
the plain Fraction Gauss-Jordan of tests/oracles.py."""

import copy
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dinv.linalg import back_substitute, common_denominator, echelon, solve
from oracles import rref_fraction, solve_backsub_fraction, solve_fraction

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


def int_rows(rows):
    """Each row as its integer numerators over its common denominator, a
    mapping from column index to int: the input echelon takes."""
    return [dict(enumerate(common_denominator(row)[1])) for row in rows]


def dense(kept, ncols):
    """The rows of echelon's output as lists, in lead order."""
    return [[row.get(c, 0) for c in range(ncols)] for _, row in sorted(kept.items())]


@pytest.mark.parametrize("kind", sorted(entries))
class TestAgainstFractionOracle:
    @given(data=st.data())
    def test_rref(self, kind, data):
        """echelon's leads are the rref pivot columns, and its rows span the
        same row space: their rref is the input's, zero rows aside."""
        rows = data.draw(matrices(kind))
        reduced, pivots = rref_fraction(rows)
        kept = echelon(int_rows(rows))
        assert sorted(kept) == pivots
        ncols = len(rows[0]) if rows else 0
        assert rref_fraction(dense(kept, ncols)) == (reduced[: len(pivots)], pivots)

    @given(data=st.data())
    def test_rank(self, kind, data):
        """The number of leads is the rank under any column order."""
        rows = data.draw(matrices(kind))
        rank = len(rref_fraction(rows)[1])
        assert len(echelon(int_rows(rows))) == rank
        assert len(echelon(int_rows(rows), key=lambda c: -c)) == rank

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
    def test_solve_equals_fraction_back_substitution(self, kind, data):
        """The integer back-substitution over one denominator gives what a
        Fraction division per lead gave, on consistent, inconsistent and
        rank-deficient systems alike."""
        rows = data.draw(matrices(kind))
        ncols = len(rows[0]) if rows else 0
        if data.draw(st.booleans()):
            x = data.draw(st.lists(entries[kind], min_size=ncols, max_size=ncols))
            rhs = [sum((F(a) * v for a, v in zip(row, x)), F(0)) for row in rows]
        else:
            rhs = data.draw(st.lists(entries[kind], min_size=len(rows), max_size=len(rows)))
        got = solve(rows, rhs)
        assert got == solve_backsub_fraction(rows, rhs)
        assert got is None or all(type(v) is Fraction for v in got)

    @given(data=st.data())
    def test_input_not_mutated(self, kind, data):
        rows = data.draw(matrices(kind))
        before = copy.deepcopy(rows)
        irows = int_rows(rows)
        ibefore = copy.deepcopy(irows)
        echelon(irows)
        solve(rows, [1] * len(rows))
        assert rows == before and irows == ibefore


@given(rows=matrices("mixed"), reverse=st.booleans())
def test_echelon_keeps_primitive_rows(rows, reverse):
    """Each kept row is primitive, nonzero at its lead and zero on every
    column before it under the key."""
    key = (lambda c: -c) if reverse else None
    for lead, row in echelon(int_rows(rows), key=key).items():
        assert math.gcd(*row.values()) == 1 and all(row.values())
        assert min(row, key=key) == lead


@st.composite
def echelon_systems(draw):
    """(rows, ncols) for back_substitute: distinct leads below ncols in any
    order, each row zero before its lead and nonzero there, with entries
    past ncols (not read) and right-hand sides of either sign."""
    ncols = draw(st.integers(0, 6))
    leads = draw(st.lists(st.integers(0, ncols - 1), unique=True)) if ncols else []
    rows = []
    for lead in leads:
        row = {lead: draw(st.integers(-40, 40).filter(bool))}
        for c in range(lead + 1, ncols + 2):
            if v := draw(st.integers(-40, 40)):
                row[c] = v
        rows.append((lead, row, draw(st.integers(-40, 40))))
    return rows, ncols


@given(echelon_systems())
def test_back_substitute_solves_the_echelon_system(system):
    rows, ncols = system
    x = back_substitute(rows, ncols)
    assert len(x) == ncols and all(type(v) is Fraction for v in x)
    for lead, row, b in rows:
        assert sum((v * x[c] for c, v in row.items() if c < ncols), F(0)) == b
    leads = {lead for lead, _, _ in rows}
    assert all(x[c] == 0 for c in range(ncols) if c not in leads)


class TestEdgeCases:
    def test_empty_matrix(self):
        assert echelon([]) == {}
        assert solve([], []) == []

    def test_rows_of_width_zero(self):
        assert echelon([{}, {}]) == {}
        assert solve([[], []], [0, 0]) == solve_fraction([[], []], [0, 0]) == []
        assert solve([[], []], [0, 1]) is solve_fraction([[], []], [0, 1]) is None

    def test_zero_matrix(self):
        rows = [[0, 0, 0], [F(0), 0, F(0)]]
        assert echelon(int_rows(rows)) == {}
        assert solve(rows, [0, 0]) == solve_fraction(rows, [0, 0]) == [F(0)] * 3

    def test_zero_columns_are_skipped(self):
        rows = [[0, 2, 0, 4], [0, 1, 0, F(1, 2)], [0, 3, 0, 6]]
        assert sorted(echelon(int_rows(rows))) == [1, 3] == rref_fraction(rows)[1]

    def test_duplicate_and_zero_rows(self):
        rows = [[1, 2, 3], [0, 0, 0], [1, 2, 3], [F(1, 3), F(2, 3), 1]]
        assert echelon(int_rows(rows)) == {0: {0: 1, 1: 2, 2: 3}}

    def test_every_entry_is_a_fraction(self):
        x = solve([[2, 4], [1, 3], [0, 0]], [2, 1, 0])
        assert x == [1, 0] and all(type(v) is Fraction for v in x)

    def test_negative_pivot_normalized(self):
        assert solve([[-3, 6], [0, -2]], [3, 4]) == [F(-5), F(-2)]
        assert echelon([{0: -3, 1: 6}, {1: -2}]) == {0: {0: -1, 1: 2}, 1: {1: -1}}

    def test_large_entries(self):
        rows = [[F(10**40 + 1, 7**30), F(-3, 10**25), 5], [F(2, 3), F(10**30), F(-1, 10**20)], [1, 1, 1]]
        assert sorted(echelon(int_rows(rows))) == rref_fraction(rows)[1] == [0, 1, 2]
        rhs = [1, F(2, 7**20), -3]
        assert solve(rows, rhs) == solve_fraction(rows, rhs)

    def test_ragged_raises(self):
        with pytest.raises(ValueError, match="ragged"):
            solve([[1, 2], [3]], [1, 2])
        with pytest.raises(ValueError, match="ragged"):
            solve([[1], [2, 3]], [1, 2])

    def test_solve_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            solve([[1, 2]], [1, 2])

    def test_inconsistent_system(self):
        assert solve([[1, 1], [2, 2]], [1, 3]) is None

    def test_key_orders_the_columns(self):
        """breadth's order: descending total degree, so a lead is a top-degree
        monomial, and reduction happens only where leads collide."""
        key = lambda e: (-sum(e), e)  # noqa: E731
        rows = [{(0, 0): 1, (1, 0): 2}, {(1, 0): 1, (0, 2): 3}, {(0, 0): 5, (1, 0): 10}]
        kept = echelon(rows, key=key)
        assert kept == {(1, 0): {(0, 0): 1, (1, 0): 2}, (0, 2): {(1, 0): 1, (0, 2): 3}}


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
