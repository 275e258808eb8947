"""Fuel: a deterministic bound on the work of one command.

The kernels charge each outer step (an element of a builder, a reduction
of echelon, a point of the limit series, a row of an identity scan)
before they run it, in cells counted from sizes at hand, so a count is the
same on every run and host, and a step past the budget never starts.  The
counter is unlimited, and the kernels compute no charge, unless arm set a
budget: cli.main arms it for one command and disarms it in a finally.
"""

metered = False  # read by the kernels before they compute a charge
_budget = _spent = 0


class OutOfFuel(Exception):
    def __init__(self, stage: str, need: int):
        super().__init__(
            f"out of fuel in {stage}: {_spent:,} cells spent and the next step needs {need:,}, "
            f"past the budget of {_budget:,} cells"
        )


def arm(budget: int) -> None:
    global metered, _budget, _spent
    metered, _budget, _spent = True, budget, 0


def disarm() -> None:
    global metered
    metered = False


def charge(cells: int, stage: str) -> None:
    """Spend cells on the next step of stage, or raise OutOfFuel if they
    would pass the budget; free unless metered."""
    global _spent
    if metered:
        if _spent + cells > _budget:
            raise OutOfFuel(stage, cells)
        _spent += cells


def cells(ops: int, bits: int, by: int = 0) -> int:
    """The cells of ops multiply-adds of an integer of at most bits bits by
    one of at most by bits: one each, and one per 16 products of 64-bit
    limbs, as CPython's Karatsuba counts them past 32 limbs in each factor."""
    short, long = (bits >> 6) + 1, (by >> 6) + 1
    if short > long:
        short, long = long, short
    if short > 32:
        short = int(32 * (short / 32) ** 0.585)
    return ops * (1 + short * long // 16)


def digits(ops: int, width: int) -> int:
    """The cells of ops reads of a digit, code // B^k % B, from a code of at
    most width bits: a schoolbook division, 2 each, a cell per 4 of its
    64-bit limbs and one per 64 products of them.  Fitted above measured
    reads, within 1.4 times of them past 2,500 bits (README, "Work guard")."""
    limbs = (width >> 6) + 1
    return ops * (2 + (limbs >> 2) + (limbs * limbs >> 6))


def lcms(ops: int, bits: int, by: int) -> int:
    """The cells of ops lcms of an integer of at most bits bits with one of
    at most by bits, each with the quotient of the lcm by the second: a gcd
    and divisions, schoolbook in CPython, so 12 each and 3 per 4 products
    of their 64-bit limbs.  Fitted above measured lcms of coprime operands
    (README, "Work guard")."""
    return ops * (12 + ((bits >> 6) + 1) * ((by >> 6) + 1) * 3 // 4)
