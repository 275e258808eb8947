"""Exact combinatorial identities behind the coalescence argument.

Three families, all over exact rationals:

  * signed_power_sums: the alternating binomial power sums that make a
    finite-difference stencil reproduce one derivative order and
    annihilate the lower ones, every power j of one order m from one set
    of terms carried from j to j + 1,
  * vandermonde_oracles: the same stencil coefficients recovered by
    solving the Vandermonde system at nodes 0..m by generic elimination,
    giving an independent witness for the closed form; one elimination of
    the largest system serves every order up to it, each order then one
    back-substitution,
  * falling_factorial_sums: the weighted-composition sums whose cap
    invariance justifies truncating the second point scheme, every weight
    at one node from one run of the counting recurrence _ways, not by
    enumeration.

Convention 0**0 == 1 throughout (Python's native behaviour).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Iterable, Iterator

from . import fuel
from .linalg import back_substitute, echelon


def signed_power_sums(m: int, include_zero: bool = True) -> list[int]:
    """[sum over i of (-1)^(m-i) * C(m, i) * i^j for j = 0..m], i from 0
    (or 1) to m.

    Each is m! times the j-th stencil moment: m! when j == m and 0 when
    j < m (for j >= 1 when the i = 0 term is excluded).  The m + 1 signed
    binomials are made once; each term is multiplied by its i to go from
    power j to power j + 1, so no power is taken: O(m^2) products.
    """
    if m < 0:
        raise ValueError(f"order must be non-negative, got {m}")
    nodes = range(0 if include_zero else 1, m + 1)
    # Two cells a term of the m + 1 rows, of at most m bits of binomial and
    # m * log2(m) of power.
    if fuel.metered:
        fuel.charge(fuel.cells(2 * (m + 1) * (m + 1), m + m * m.bit_length()), "the power sums")
    terms = [-math.comb(m, i) if (m - i) % 2 else math.comb(m, i) for i in nodes]
    sums = [sum(terms)]
    for _ in range(m):
        terms = list(map(mul, terms, nodes))
        sums.append(sum(terms))
    return sums


def vandermonde_oracles(top: int) -> list[tuple[Fraction, ...]]:
    """[the solution y of sum_i y_i * i^j == [j == m] for j = 0..m at nodes
    i = 0..m, for m = 0..top], by exact elimination.  Deliberately avoids
    the closed-form answer so it can serve as an independent cross-check of
    the stencil coefficients.

    One linalg.echelon of the augmented rows [V | I], row j the powers i^j
    at the nodes i <= top and a 1 at column top + 1 + j, serves every
    order.  Row j only meets the kept rows of leads below its own, and
    every leading block V_m (rows and nodes 0..m) is nonsingular, so kept
    row k has lead k and is a combination of the rows 0..k alone: the kept
    rows 0..m, read at the nodes 0..m, are an echelon form of V_m, and the
    same row operations take e_m to zero but at row m, where it is that
    row's entry at column top + 1 + m.  Each order is then one
    back-substitution.
    """
    if top < 0:
        raise ValueError(f"order must be non-negative, got {top}")
    n = top + 1
    kept = echelon(_vandermonde_row(n, j) for j in range(n))
    if sorted(kept) != list(range(n)):
        raise ArithmeticError("Vandermonde system at distinct nodes cannot be singular")
    if fuel.metered:  # (m + 1)^2 steps per order on the kept rows' entries
        bits = max(max(map(int.bit_length, row.values())) for row in kept.values())
        fuel.charge(fuel.cells(n * (n + 1) * (2 * n + 1) // 6, bits), "the back-substitutions")
    return [
        tuple(back_substitute([(k, kept[k], 0) for k in range(m)] + [(m, kept[m], kept[m][n + m])], m + 1))
        for m in range(n)
    ]


def _vandermonde_row(n: int, j: int) -> dict[int, int]:
    """Row j of [V | I], its n powers charged first."""
    if fuel.metered:
        fuel.charge(fuel.cells(n, j * n.bit_length()), "the Vandermonde rows")
    return {**{i: i**j for i in range(n)}, n + j: 1}


def falling_factorial(i: int, j: int) -> int:
    """i * (i-1) * ... * (i-j+1), the j-term falling product (1 for j == 0).

    For i >= 0 it is math.perm(i, j), which is 0 at once for j > i; the
    product loop is kept for negative i, where no factor is 0."""
    if j < 0:
        raise ValueError(f"length must be non-negative, got {j}")
    if i >= 0:
        return math.perm(i, j)
    out = 1
    for t in range(j):
        out *= i - t
    return out


def _ways(top: int, slots: Iterable[tuple[int, int]]) -> Iterator[list[int]]:
    """For slots (w_k, base_k) with positive weights, ways[s] for s = 0..top,
    the sum over the weighted compositions t of s (sum_k t[k] * w_k == s)
    of prod_k base_k**t[k], over the slots passed so far: one table built
    slot by slot by ways[s] += base_k * ways[s - w_k], nothing enumerated.
    Yields the table after each slot's pass, one list updated in place."""
    ways = [1] + [0] * top
    for w, base in slots:
        for s in range(w, top + 1):
            ways[s] += base * ways[s - w]
        yield ways


def falling_factorial_sums(r_max: int, i: int) -> tuple[list[int], list[int]]:
    """For r = 0..r_max, the sum over (g_1, ..., g_cap) with
    sum t*g_t == r of prod_t falling_factorial(i, t)^g_t (0**0 == 1), at
    cap = i and at cap = r: two lists indexed by r, both 1 at r = 0.  They
    agree, as slots past i have base 0.

    One run of _ways over the slots t = 1..r_max,
    each base carried from the last by one multiplication,
    ff(i, t) = ff(i, t-1) * (i - t + 1), serves every r: slots past r
    cannot be used at weight r, so the cap = r sum is the weight-r entry
    after slot r, and the cap = i sum the one after slot min(i, r).
    O(r_max^2) steps, with nothing enumerated.
    """
    if r_max < 0:
        raise ValueError(f"weight must be >= 0, got {r_max}")
    if i < 2:
        raise ValueError(f"node must be >= 2, got {i}")
    # (r_max + 1)(r_max + 2) / 2 steps on sums below (2 * i)^r_max, two cells each.
    if fuel.metered:
        fuel.charge(fuel.cells((r_max + 1) * (r_max + 2), r_max * (2 * i).bit_length()), "the falling-factorial sums")
    bases = accumulate(range(i, i - r_max, -1), mul)
    cap_r, cap_i = [1], None
    for t, ways in enumerate(_ways(r_max, zip(range(1, r_max + 1), bases)), 1):
        cap_r.append(ways[t])
        if t == i:
            cap_i = cap_r + ways[t + 1 :]
    return (cap_r.copy() if cap_i is None else cap_i), cap_r
