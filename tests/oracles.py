"""Reference implementations kept for the tests to compare against.

Each is the straightforward Fraction version of a routine the library now
computes another way; they are not part of the package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from dinv.poly import Polynomial
from dinv.subspace import BasisSequence, ClosureReport, GeneralSpec, ParamTable


def rref_fraction(rows: Sequence[Sequence[Fraction | int]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot columns by Gauss-Jordan in
    Fraction arithmetic: normalize the pivot row, clear the column."""
    m = [[Fraction(v) for v in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    if any(len(r) != ncols for r in m):
        raise ValueError("ragged matrix")
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def solve_fraction(a_rows, rhs) -> list[Fraction] | None:
    """One solution of A x = b (free variables zero) from rref_fraction of
    the augmented matrix, or None if the system is inconsistent."""
    if len(a_rows) != len(rhs):
        raise ValueError(f"{len(a_rows)} equations but {len(rhs)} right-hand sides")
    if not a_rows:
        return []
    ncols = len(a_rows[0])
    reduced, pivots = rref_fraction([list(row) + [b] for row, b in zip(a_rows, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = reduced[i][ncols]
    return x


def signed_power_sum_fraction(j: int, m: int, include_zero: bool = True) -> Fraction:
    """sum over i of (-1)^(m-i) * i^j / (i! * (m-i)!) as m + 1 Fraction
    additions, i from 0 (or 1) to m."""
    total = Fraction(0)
    for i in range(0 if include_zero else 1, m + 1):
        sign = -1 if (m - i) % 2 else 1
        total += Fraction(sign * i ** j, math.factorial(i) * math.factorial(m - i))
    return total


def check_closure_fraction(basis: BasisSequence, spec: ParamTable | GeneralSpec) -> ClosureReport:
    """d(B_m)/dx_i == sum_{j: b_j <= m} c_ij * B_{m - b_j} for every m >= 1
    and variable i, both sides built as Polynomials in Fraction arithmetic."""
    b, c = spec.weights
    top = b[-1]
    if len(basis) != top + 1:
        raise ValueError(f"basis has {len(basis)} elements, the spec needs {top + 1}")
    if basis.dim != len(c):
        raise ValueError(f"basis has dimension {basis.dim}, the spec needs {len(c)}")
    bad: list[tuple[int, int]] = []
    for m in range(1, top + 1):
        for i, row in enumerate(c, start=1):
            expect = Polynomial.zero(basis.dim)
            for bj, cij in zip(b, row):
                if bj <= m and cij:
                    expect = expect + cij * basis[m - bj]
            if basis[m].diff(i) != expect:
                bad.append((m, i))
    return ClosureReport(ok=not bad, violations=tuple(bad))
