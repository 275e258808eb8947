"""Tests for the enumeration and counting of weighted compositions."""

import itertools

import pytest

from conftest import make_rng
from dinv.compositions import count_compositions, weighted_compositions


def _brute_count(top, weights):
    ranges = (range(top // w + 1) for w in weights)
    return sum(1 for t in itertools.product(*ranges) if sum(g * w for g, w in zip(t, weights)) <= top)


class TestCountCompositions:
    def test_against_brute_force(self):
        rng = make_rng(140)
        for _ in range(200):
            weights = [rng.randint(1, 5) for _ in range(rng.randint(0, 4))]
            top = rng.randint(0, 10)
            assert count_compositions(top, weights) == _brute_count(top, weights)

    def test_sums_the_enumeration(self):
        weights = [1, 2, 2, 3, 5]
        assert count_compositions(9, weights) == sum(len(list(weighted_compositions(m, weights))) for m in range(10))

    def test_full_d6_tables(self):
        # A full d = 6 table: weight 1 for x1, then degrees 2..n once per variable 2..6.
        for n, count in ((12, 14571), (16, 145546)):
            assert count_compositions(n, [1] + [j for j in range(2, n + 1) for _ in range(5)]) == count

    def test_cap_is_exact_below_and_a_lower_bound_above(self):
        rng = make_rng(141)
        for _ in range(100):
            weights = [rng.randint(1, 4) for _ in range(rng.randint(0, 4))]
            top = rng.randint(0, 8)
            exact = _brute_count(top, weights)
            for cap in range(exact + 2):
                got = count_compositions(top, weights, cap=cap)
                if exact <= cap:
                    assert got == exact
                else:
                    assert cap < got <= exact

    def test_cap_stops_early_on_huge_inputs(self):
        assert count_compositions(10**12, [1, 2], cap=10) == 10**12 + 1
        assert count_compositions(5, [1] + [5] * 10**6, cap=100) == 10**6 + 2
        assert count_compositions(10**5, [1] + list(range(2, 10**5 + 1)) * 3, cap=10**6) > 10**6

    def test_no_weights_and_heavy_weights(self):
        assert count_compositions(7, []) == 1
        assert count_compositions(3, [4, 9]) == 1

    @pytest.mark.parametrize("top, weights", [(-1, [1]), (3, [0]), (3, [2, -1])])
    def test_bad_input(self, top, weights):
        with pytest.raises(ValueError):
            count_compositions(top, weights)
