"""Exact Gaussian elimination over the rationals.

Small dense matrices only (dozens of rows).  Results are exact Fractions,
so ranks and solutions are exact, never approximate.  rref eliminates on
primitive integer rows (each rational row scaled by the lcm of its
denominators, each new row divided by the gcd of its entries) and builds
Fractions only once, at the end; the row space is unchanged by that
scaling, so the reduced row echelon form is the same unique matrix that
Fraction Gauss-Jordan gives.  common_denominator, the scaling that starts
it, is shared with the integer kernels of subspace.

The elimination itself is eliminate, which reduces integer rows in place
and returns the pivot columns; rref scales its rational rows into it and
builds the Fraction output from its pivot rows, and subspace.breadth feeds
it integer rows of its own and reads only the pivots.  Matrices are plain
lists of lists; rref, rank and solve copy their input first.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Matrix = list[list[Fraction]]

_ZERO = Fraction(0)


def _copy(rows: Sequence[Sequence[Fraction | int]]) -> Matrix:
    return [[Fraction(v) for v in row] for row in rows]


# gcd and lcm are folded pairwise: unpacking a row into one call would
# build a tuple per row, and CPython keeps freed short tuples on a free
# list, so peak memory would creep up with the number of rows reduced.


def _primitive(row: list[int]) -> list[int]:
    """row divided by the gcd of its entries (unchanged if all zero)."""
    g = 0
    for v in row:
        if v:
            g = math.gcd(g, v)
            if g == 1:
                return row
    return row if g == 0 else [v // g for v in row]


def common_denominator(values: Iterable[Fraction | int]) -> tuple[int, list[int]]:
    """(s, nums): s the lcm of the denominators of the values (1 if there
    are none) and nums[k] = values[k] * s, the integer numerators over it."""
    vals = list(values)
    scale = 1
    for v in vals:
        if scale % v.denominator:
            scale = math.lcm(scale, v.denominator)
    return scale, [v.numerator * (scale // v.denominator) for v in vals]


def _rational(v: Fraction | int) -> Fraction | int:
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def eliminate(rows: list[list[int]]) -> list[int]:
    """Fraction-free Gauss-Jordan on integer rows, in place; returns the
    pivot columns.

    Each row is made primitive, a row is cleared in the pivot column by
    row*p - a*pivot_row (p and a divided by their gcd first) and made
    primitive again.  Afterwards rows[r] is the primitive pivot row of
    pivot column r for r < len(pivots), zero in every other pivot column,
    and the rows after them are zero.
    """
    m = rows
    if not m:
        return []
    ncols = len(m[0])
    if any(len(r) != ncols for r in m):
        raise ValueError("ragged matrix")
    for i, row in enumerate(m):
        m[i] = _primitive(row)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        p = prow[c]
        for i, row in enumerate(m):
            a = row[c]
            if a and i != r:
                g = math.gcd(p, a)
                pg, ag = p // g, a // g
                m[i] = _primitive([x * pg - ag * y for x, y in zip(row, prow)])
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return pivots


def rref(rows: Sequence[Sequence[Fraction | int]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot column indices.

    Each rational row is scaled to integers by common_denominator and
    reduced by eliminate; each pivot row is then divided by its pivot once.
    """
    m = [common_denominator(_rational(v) for v in row)[1] for row in rows]
    pivots = eliminate(m)
    ncols = len(m[0]) if m else 0
    out = [[Fraction(v, m[i][c]) if v else _ZERO for v in m[i]] for i, c in enumerate(pivots)]
    out += [[_ZERO] * ncols for _ in range(len(m) - len(pivots))]
    return out, pivots


def rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    return len(rref(rows)[1])


def solve(a_rows: Sequence[Sequence[Fraction | int]], rhs: Sequence[Fraction | int]) -> list[Fraction] | None:
    """One exact solution x of A x = b, or None if the system is inconsistent.

    Free variables are set to zero.
    """
    a = _copy(a_rows)
    b = [Fraction(v) for v in rhs]
    if len(a) != len(b):
        raise ValueError(f"{len(a)} equations but {len(b)} right-hand sides")
    if not a:
        return []
    ncols = len(a[0])
    aug = [row + [bv] for row, bv in zip(a, b)]
    reduced, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = reduced[i][ncols]
    return x
