"""fuel.cells, the one count every metered step is charged by: monotone in
each argument, symmetric in its two factors, and the schoolbook count of
limb products while both factors have at most 32 limbs."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from dinv import fuel


def schoolbook(ops: int, bits: int, by: int) -> int:
    """One cell per multiply-add and one per 16 products of 64-bit limbs, every limb by every limb."""
    return ops * (1 + ((bits >> 6) + 1) * ((by >> 6) + 1) // 16)


_BITS = st.one_of(st.integers(0, 4096), st.integers(0, 10**8))


@given(ops=st.integers(0, 10**6), bits=_BITS, by=_BITS, more=st.integers(0, 10**6))
def test_monotone_and_symmetric(ops, bits, by, more):
    cells = fuel.cells(ops, bits, by)
    assert cells == fuel.cells(ops, by, bits)
    assert fuel.cells(ops + more, bits, by) >= cells
    assert fuel.cells(ops, bits + more, by) >= cells
    assert fuel.cells(ops, bits, by + more) >= cells
    assert cells <= schoolbook(ops, bits, by)


def test_monotone_across_the_karatsuba_cutoff():
    # Every limb count on both sides of 32, in each factor.
    for la in range(1, 80):
        for lb in range(1, 80):
            cells = fuel.cells(1, 64 * la - 1, 64 * lb - 1)
            assert fuel.cells(1, 64 * la, 64 * lb - 1) >= cells
            assert fuel.cells(1, 64 * la - 1, 64 * lb) >= cells


def test_short_factors_keep_the_schoolbook_count():
    # Both factors of at most 32 limbs, 2047 bits: no small-integer charge moves.
    for bits in (*range(0, 2048, 13), 2047):
        for by in (*range(0, 2048, 17), 2047):
            for ops in (0, 1, 7):
                assert fuel.cells(ops, bits, by) == schoolbook(ops, bits, by)
    assert fuel.cells(1, 2048, 2048) < schoolbook(1, 2048, 2048)


def test_long_factors_count_as_karatsuba():
    # 73k bits by 73k bits: 1141 limbs each, 1141 * 32 * (1141 / 32) ** 0.585 products.
    assert fuel.cells(1, 73_000, 73_000) == 1 + 1141 * int(32 * (1141 / 32) ** 0.585) // 16
    # A short factor of at most 32 limbs keeps every product.
    assert fuel.cells(1, 292_000, 2047) == schoolbook(1, 292_000, 2047)
