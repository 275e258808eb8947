"""Exact combinatorial identities behind the coalescence argument.

Three families, all over exact rationals:

  * signed_power_sum: the alternating factorial-weighted power sums that
    make a finite-difference stencil reproduce one derivative order and
    annihilate the lower ones,
  * vandermonde_oracle: the same stencil coefficients recovered by solving
    the Vandermonde system at nodes 0..m by generic elimination, giving an
    independent witness for the closed form,
  * falling_factorial_sum: the weighted-composition sums whose cap
    invariance justifies truncating the second point scheme.

Convention 0**0 == 1 throughout (Python's native behaviour).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .compositions import weighted_compositions
from .linalg import solve


def signed_power_sum(j: int, m: int, include_zero: bool = True) -> Fraction:
    """sum over i of (-1)^(m-i) * i^j / (i! * (m-i)!), i from 0 (or 1) to m.

    Equals 1 when j == m and 0 when j < m (for j >= 1 when the i = 0 term
    is excluded).  Computed as one integer sum over a common denominator,
    sum_i (-1)^(m-i) * C(m, i) * i^j / m!.
    """
    if j < 0 or m < 0:
        raise ValueError("j and m must be non-negative")
    total = sum(
        (-1 if (m - i) % 2 else 1) * math.comb(m, i) * i ** j
        for i in range(0 if include_zero else 1, m + 1)
    )
    return Fraction(total, math.factorial(m))


def vandermonde_oracle(m: int) -> tuple[Fraction, ...]:
    """Solve sum_i y_i * i^j == [j == m] for j = 0..m at nodes i = 0..m by
    exact elimination.  Deliberately avoids the closed-form answer so it
    can serve as an independent cross-check of the stencil coefficients.
    """
    if m < 0:
        raise ValueError(f"order must be non-negative, got {m}")
    rows = [[i ** j for i in range(m + 1)] for j in range(m + 1)]
    rhs = [0] * m + [1]
    y = solve(rows, rhs)
    if y is None:
        raise ArithmeticError("Vandermonde system at distinct nodes cannot be singular")
    return tuple(y)


def falling_factorial(i: int, j: int) -> int:
    """i * (i-1) * ... * (i-j+1), the j-term falling product (1 for j == 0)."""
    if j < 0:
        raise ValueError(f"length must be non-negative, got {j}")
    out = 1
    for t in range(j):
        out *= i - t
    return out


def falling_factorial_sum(r: int, i: int, cap: int) -> int:
    """sum over (g_1, ..., g_cap) with sum t*g_t == r of
    prod_t falling_factorial(i, t)^g_t, with 0**0 == 1.

    The value is independent of whether cap == i or cap == r: slots past r
    cannot be used at weight r, and slots past i have base 0 so they only
    contribute through g_t == 0.  Both caps are accepted so the agreement
    can be tested; other caps are rejected.
    """
    if r < 1:
        raise ValueError(f"weight must be >= 1, got {r}")
    if i < 2:
        raise ValueError(f"node must be >= 2, got {i}")
    if cap not in (i, r):
        raise ValueError(f"cap must be one of node={i} or weight={r}, got {cap}")
    bases = [falling_factorial(i, t) for t in range(1, cap + 1)]
    total = 0
    for combo in weighted_compositions(r, list(range(1, cap + 1))):
        term = 1
        for base, g in zip(bases, combo):
            if g:
                term *= base ** g
        total += term
    return total
