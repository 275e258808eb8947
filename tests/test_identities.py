"""Tests for the combinatorial identity module."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dinv import (
    falling_factorial,
    falling_factorial_sums,
    signed_power_sums,
    stencil,
    vandermonde_oracles,
)
from oracles import (
    falling_factorial_product,
    falling_factorial_sum,
    falling_factorial_sum_enumerated,
    signed_power_sum,
    signed_power_sum_fraction,
    vandermonde_oracle,
    vandermonde_oracle_per_order,
)

F = Fraction


class TestSignedPowerSum:
    def test_diagonal_value(self):
        assert signed_power_sum(2, 2, include_zero=True) == 1

    def test_below_diagonal_vanishes(self):
        assert signed_power_sum(1, 2, include_zero=True) == 0

    def test_empty_order(self):
        assert signed_power_sum(0, 0) == 1

    def test_zero_excluded_variant(self):
        assert signed_power_sum(3, 3, include_zero=False) == 1
        assert signed_power_sum(1, 3, include_zero=False) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            signed_power_sum(-1, 2)

    def test_small_scan_both_variants(self):
        for m in range(11):
            for j in range(m + 1):
                assert signed_power_sum(j, m, include_zero=True) == (1 if j == m else 0)
            for j in range(1, m + 1):
                assert signed_power_sum(j, m, include_zero=False) == (1 if j == m else 0)

    @given(st.integers(0, 12))
    def test_variants_agree_for_positive_powers(self, m):
        for j in range(1, m + 1):
            assert signed_power_sum(j, m, True) == signed_power_sum(j, m, False)


    def test_equals_fraction_sum_oracle(self):
        for m in range(41):
            for j in range(51):
                for include_zero in (True, False):
                    got = signed_power_sum(j, m, include_zero)
                    assert type(got) is Fraction
                    assert got == signed_power_sum_fraction(j, m, include_zero)


class TestSignedPowerSums:
    def test_carried_sums_equal_the_direct_fraction_sums(self):
        # The direct sum, one Fraction per term, is the independent witness.
        for m in range(61):
            for include_zero in (True, False):
                sums = signed_power_sums(m, include_zero)
                assert len(sums) == m + 1
                for j, total in enumerate(sums):
                    assert type(total) is int
                    assert Fraction(total, math.factorial(m)) == signed_power_sum_fraction(j, m, include_zero)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            signed_power_sums(-1)


class TestVandermondeOracle:
    def test_order_two(self):
        assert vandermonde_oracle(2) == (F(1, 2), F(-1), F(1, 2))

    def test_order_zero(self):
        assert vandermonde_oracle(0) == (F(1),)

    def test_matches_closed_form_order_five(self):
        assert vandermonde_oracle(5) == stencil(5)

    def test_matches_closed_form_scan(self):
        for m in range(9):
            assert vandermonde_oracle(m) == stencil(m)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            vandermonde_oracle(-1)
        with pytest.raises(ValueError, match="order must be non-negative, got -1"):
            vandermonde_oracles(-1)

    def test_one_elimination_equals_each_order_alone(self):
        """Every order read from one elimination of the largest system is the
        solution of its own system and the closed-form stencil."""
        per_order = [vandermonde_oracle_per_order(m) for m in range(26)]
        assert per_order == [stencil(m) for m in range(26)]
        for top in range(26):
            scan = vandermonde_oracles(top)
            assert scan == per_order[: top + 1]
            assert all(type(y) is F for ys in scan for y in ys)
            assert vandermonde_oracle(top) == per_order[top]

    def test_scan_at_the_guard_bound(self):
        # --vand-max 69 is the largest order verify --what identities accepts.
        assert vandermonde_oracles(69) == [stencil(m) for m in range(70)]


class TestFallingFactorial:
    def test_values(self):
        assert falling_factorial(5, 0) == 1
        assert falling_factorial(5, 2) == 20
        assert falling_factorial(3, 4) == 0

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            falling_factorial(3, -1)

    def test_equals_the_product(self):
        for i in range(-5, 41):
            for j in range(46):
                assert falling_factorial(i, j) == falling_factorial_product(i, j), (i, j)

    def test_zero_factor_ends_the_product(self):
        # 5300 factors for every i < 5300 of scheme b on b = (1, 5300).
        start = time.perf_counter()
        assert all(falling_factorial(i, 5300) == 0 for i in range(5300))
        assert time.perf_counter() - start < 1


class TestFallingFactorialSum:
    def test_hand_enumeration(self):
        assert falling_factorial_sum(2, 3, cap=3) == 15
        assert falling_factorial_sum(2, 3, cap=2) == 15

    def test_weight_one(self):
        for i in (2, 3, 7):
            assert falling_factorial_sum(1, i, cap=i) == i
            assert falling_factorial_sum(1, i, cap=1) == i

    def test_truncation_case(self):
        assert falling_factorial_sum(3, 2, cap=2) == 12
        assert falling_factorial_sum(3, 2, cap=3) == 12

    def test_cap_restricted(self):
        with pytest.raises(ValueError):
            falling_factorial_sum(3, 2, cap=5)
        with pytest.raises(ValueError):
            falling_factorial_sum(0, 2, cap=2)
        with pytest.raises(ValueError):
            falling_factorial_sum(2, 1, cap=2)

    def test_cap_invariance_scan(self):
        for r in range(1, 7):
            for i in range(2, 7):
                assert falling_factorial_sum(r, i, cap=i) == falling_factorial_sum(r, i, cap=r)

    def test_equals_the_enumeration(self):
        grid = [(r, i) for r in range(1, 17) for i in range(2, 17)]
        grid += [(r, i) for r in range(1, 5) for i in (100, 250, 400)]
        for r, i in grid:
            for cap in (i, r):
                assert falling_factorial_sum(r, i, cap) == falling_factorial_sum_enumerated(r, i, cap)

    def test_one_run_per_node_equals_the_enumeration(self):
        for r_max in range(9):
            for i in range(2, 12):
                by_cap_i, by_cap_r = falling_factorial_sums(r_max, i)
                assert by_cap_i[0] == by_cap_r[0] == 1
                for r in range(1, r_max + 1):
                    assert by_cap_i[r] == falling_factorial_sum_enumerated(r, i, i)
                    assert by_cap_r[r] == falling_factorial_sum_enumerated(r, i, r)

    def test_nodes_from_r_max_on_give_one_snapshot(self):
        # At i >= r_max every weight r <= r_max reads both caps after slot r,
        # so verify --what identities scans only the nodes i < r_max.
        for r_max in range(9):
            for i in range(max(r_max, 2), r_max + 5):
                by_cap_i, by_cap_r = falling_factorial_sums(r_max, i)
                assert by_cap_i == by_cap_r and len(by_cap_r) == r_max + 1

    def test_sums_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            falling_factorial_sums(-1, 2)
        with pytest.raises(ValueError):
            falling_factorial_sums(3, 1)

    def test_wide_node_scan_is_prompt(self):
        start = time.perf_counter()
        for r in range(1, 5):
            for i in range(2, 401):
                assert falling_factorial_sum(r, i, cap=i) == falling_factorial_sum(r, i, cap=r)
        assert time.perf_counter() - start < 1
