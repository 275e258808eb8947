"""Exact elimination over the rationals: one sparse fraction-free echelon.

A row is a mapping from column to int; a rational row enters as its
integer numerators over poly.common_denominator, which leaves its row
space unchanged.  echelon's callers are solve, which back-substitutes on
the augmented rows, and subspace.breadth, which orders the columns by
descending total degree and reads only the leads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Sequence

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
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
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
                break
            p, a = prow[lead], row[lead]
            g = math.gcd(p, a)
            p, a = p // g, a // g
            row = {c: v * p for c, v in row.items()}
            for c, v in prow.items():
                v = row.get(c, 0) - a * v
                if v:
                    row[c] = v
                else:
                    del row[c]
    return kept


def solve(a_rows: Sequence[Sequence[Fraction | int]], rhs: Sequence[Fraction | int]) -> list[Fraction] | None:
    """One exact solution x of A x = b, or None if the system is inconsistent.

    The augmented rows, as integer numerators, go through echelon in column
    order: the system is inconsistent iff the right-hand side column is a
    lead.  Otherwise the leads are solved for from the last to the first,
    with the free variables set to zero; that solution is unique, and the
    leads are the pivot columns of any echelon form, so it is the one that
    reduced row echelon form gives.
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
    x = [Fraction(0)] * ncols
    for lead in sorted(kept, reverse=True):
        row = kept[lead]
        known = sum(v * x[c] for c, v in row.items() if lead < c < ncols)
        x[lead] = Fraction(row.get(ncols, 0) - known, row[lead])
    return x
