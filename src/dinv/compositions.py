"""Weighted integer compositions, counted and summed without enumeration.

A weighted composition of s over positive weights w_1, ..., w_K is a tuple
t of non-negative integers with sum(t[k] * w_k) == s.  One recurrence
serves every sum over them: with a base per weight, the table

    ways[s] = sum over the compositions t of s of prod_k base_k**t[k]

is built over the weights in order by ways[s] += base_k * ways[s - w_k].
identities.falling_factorial_sums reads its entries, and the closed-form
walk charges itself to the fuel (dinv.fuel), before it runs, from a table
built the same way (subspace._charge_walk).  Nothing here enumerates the
compositions: the tests keep that enumeration, and the all-ones count of
the walk's visits (count_compositions), as their oracles.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def _ways(top: int, slots: Iterable[tuple[int, int]]) -> Iterator[list[int]]:
    """For slots (w_k, base_k) with positive weights, ways[s] for s = 0..top
    as above, over the slots passed so far.  Yields the table after each
    slot's pass, one list updated in place."""
    ways = [1] + [0] * top
    for w, base in slots:
        for s in range(w, top + 1):
            ways[s] += base * ways[s - w]
        yield ways
