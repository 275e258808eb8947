"""Exact elimination over the rationals: one sparse fraction-free echelon.

A row is a mapping from column to int; a rational row enters as its
integer numerators over poly.common_denominator, which leaves its row
space unchanged.  echelon's callers are solve, which back-substitutes on
the augmented rows, identities.vandermonde_oracles, which back-substitutes
on leading blocks of one echelon form, and subspace.breadth, which orders
the columns by descending total degree and reads only the leads.  Both
back-substitutions are back_substitute's, on integers over one common
denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from . import fuel
from .poly import common_denominator


def echelon(
    rows: Iterable[Mapping[Hashable, int]], key: Callable | None = None
) -> dict[Hashable, dict[Hashable, int]]:
    """Row echelon form of integer rows, as {lead: row}; the input is not
    changed.

    A row's lead is its least column with a nonzero entry under key (the
    columns' own order if None).  Each row is made primitive and, while its
    lead is a kept row's lead, cleared there by row*p - a*kept (p, a the two
    lead entries over their gcd) and made primitive again.  Rows that reach
    zero are dropped.  The kept rows span the input's row space, and their
    leads, all distinct, are the pivot columns of the reduced row echelon
    form under the same column order.
    """
    kept: dict[Hashable, dict[Hashable, int]] = {}
    sizes: dict[Hashable, int] = {}  # the bits of each kept row's largest entry, when metered
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            if fuel.metered:  # 3 cells an entry: the row's gcds, then its reduction
                bits = max(map(int.bit_length, row.values()))
                fuel.charge(fuel.cells(3 * len(row), bits), "echelon")
            # Folded pairwise: gcd(*row.values()) would build a tuple per row.
            g = 0
            for v in row.values():
                g = math.gcd(g, v)
                if g == 1:
                    break
            if g != 1:
                row = {c: v // g for c, v in row.items()}
            lead = min(row, key=key)
            prow = kept.get(lead)
            if prow is None:
                kept[lead] = row
                if fuel.metered:  # a cell per 64 bits kept
                    sizes[lead] = bits
                    fuel.charge((len(row) * bits) >> 6, "echelon")
                break
            p, a = prow[lead], row[lead]
            g = math.gcd(p, a)
            p, a = p // g, a // g
            if fuel.metered:
                cells = fuel.cells(len(row), bits, p.bit_length()) + fuel.cells(len(prow), sizes[lead], a.bit_length())
                fuel.charge(3 * cells, "echelon")
            row = {c: v * p for c, v in row.items()}
            for c, v in prow.items():
                v = row.get(c, 0) - a * v
                if v:
                    row[c] = v
                else:
                    del row[c]
    return kept


def back_substitute(rows: Iterable[tuple[int, Mapping[int, int], int]], ncols: int) -> list[Fraction]:
    """The solution x of the echelon system given by rows, (lead, row, b)
    for row . x == b, with the unknowns not a lead set to zero.

    The leads must be distinct columns below ncols, and a row zero on the
    columns below its lead; its entries at columns ncols and up are not
    read.  The unknowns are solved for from the last lead to the first and
    kept as integers over one common denominator: a lead's numerator is
    b * den - (row . x) * den, over row[lead], divided by their gcd; what
    is left of row[lead] multiplies den and the numerators found so far.
    One Fraction is made per unknown, at the end.
    """
    den = 1
    nums = [0] * ncols
    for lead, row, b in sorted(rows, key=itemgetter(0), reverse=True):
        p = row[lead]
        t = b * den - sum(v * nums[c] for c, v in row.items() if lead < c < ncols)
        g = math.gcd(t, p)
        t, p = t // g, p // g
        if p != 1:
            den *= p
            for c in range(lead + 1, ncols):
                nums[c] *= p
        nums[lead] = t
    return [Fraction(v, den) for v in nums]


def solve(a_rows: Sequence[Sequence[Fraction | int]], rhs: Sequence[Fraction | int]) -> list[Fraction] | None:
    """One exact solution x of A x = b, or None if the system is inconsistent.

    The augmented rows, as integer numerators, go through echelon in column
    order: the system is inconsistent iff the right-hand side column is a
    lead.  Otherwise back_substitute solves for the leads, with the free
    variables set to zero; that solution is unique, and the leads are the
    pivot columns of any echelon form, so it is the one that reduced row
    echelon form gives.
    """
    if len(a_rows) != len(rhs):
        raise ValueError(f"{len(a_rows)} equations but {len(rhs)} right-hand sides")
    if not a_rows:
        return []
    ncols = len(a_rows[0])
    if any(len(row) != ncols for row in a_rows):
        raise ValueError("ragged matrix")
    kept = echelon(dict(enumerate(common_denominator((*row, b))[1])) for row, b in zip(a_rows, rhs))
    if ncols in kept:
        return None
    return back_substitute(((lead, row, row.get(ncols, 0)) for lead, row in kept.items()), ncols)
