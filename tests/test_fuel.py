"""fuel.cells, the one count every metered step is charged by: monotone in
each argument, symmetric in its two factors, and the schoolbook count of
limb products while both factors have at most 32 limbs.  fuel.digits, the
charge of a digit read from a monomial code, and fuel.lcms, of an lcm and
its quotient, against their measured costs."""

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


# A digit read, code // B^k % B, measured in cells (1e-7 s) on random codes of
# W bits, on one core of a 2-vCPU x86-64 host under CPython 3.11 (README, "Work guard").
MEASURED_READS = {33: 1.2, 259: 2.1, 2585: 29.8, 6001: 121, 40001: 4589}


def test_digit_reads_cover_their_measured_cost():
    # Never below a read's measured cost, and within 1.5 times of it past a few thousand bits.
    for width, measured in MEASURED_READS.items():
        charged = fuel.digits(1, width)
        assert charged >= measured
        if width >= 2585:
            assert charged <= 1.5 * measured
    assert fuel.digits(0, 40001) == 0 and fuel.digits(7, 2585) == 7 * fuel.digits(1, 2585)


@given(ops=st.integers(0, 10**6), width=_BITS, more=st.integers(0, 10**6))
def test_digit_reads_are_monotone(ops, width, more):
    cells = fuel.digits(ops, width)
    assert fuel.digits(ops + more, width) >= cells
    assert fuel.digits(ops, width + more) >= cells


def test_wide_digit_reads_cost_less_than_a_product():
    # From 32 limbs to the widest measured read, the product of two codes,
    # the charge before, was the larger: about 3 times at a few thousand bits.
    for width in range(2048, 40002, 61):
        assert fuel.digits(1, width) < fuel.cells(1, width, width)
    assert 2 * fuel.digits(1, 2585) < fuel.cells(1, 2585, 2585)


# An lcm of a bits-bit and a by-bit integer that share no factor, and the
# quotient of the lcm by the second, measured as MEASURED_READS are: the
# slower of two runs, each the fastest of 3 or 5.
MEASURED_LCMS = {
    (200, 100): 13.1,
    (500, 500): 49.1,
    (1000, 500): 67.3,
    (2000, 1000): 176,
    (8000, 4000): 1702,
    (64000, 8000): 29080,
    (240000, 30000): 351960,
    (900000, 30000): 1176385,
}


def test_lcms_cover_their_measured_cost():
    for (bits, by), measured in MEASURED_LCMS.items():
        assert fuel.lcms(1, bits, by) >= measured
    assert fuel.lcms(0, 900000, 30000) == 0 and fuel.lcms(5, 8000, 4000) == 5 * fuel.lcms(1, 8000, 4000)


@given(ops=st.integers(0, 10**6), bits=_BITS, by=_BITS, more=st.integers(0, 10**6))
def test_lcms_are_monotone(ops, bits, by, more):
    cells = fuel.lcms(ops, bits, by)
    assert fuel.lcms(ops + more, bits, by) >= cells
    assert fuel.lcms(ops, bits + more, by) >= cells
    assert fuel.lcms(ops, bits, by + more) >= cells
