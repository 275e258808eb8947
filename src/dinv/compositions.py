"""Weighted integer compositions, counted and summed without enumeration.

A weighted composition of s over positive weights w_1, ..., w_K is a tuple
t of non-negative integers with sum(t[k] * w_k) == s.  One recurrence
serves every sum over them: with a base per weight, the table

    ways[s] = sum over the compositions t of s of prod_k base_k**t[k]

is built over the weights in order by ways[s] += base_k * ways[s - w_k].
count_compositions is its all-ones case, the visits of the closed-form
walk, which the CLI charges to its fuel (dinv.fuel) before the walk runs;
identities.falling_factorial_sums reads its entries.  Nothing here
enumerates the compositions; the tests keep that enumeration as their
oracle.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


def _ways(top: int, slots: Iterable[tuple[int, int]]) -> Iterator[list[int]]:
    """For slots (w_k, base_k) with positive weights, ways[s] for s = 0..top
    as above, over the slots passed so far.  Yields the table after each
    slot's pass, one list updated in place."""
    ways = [1] + [0] * top
    for w, base in slots:
        for s in range(w, top + 1):
            ways[s] += base * ways[s - w]
        yield ways


def count_compositions(top: int, weights: Sequence[int], cap: int | None = None) -> int:
    """The number of t >= 0 with sum(t[k]*weights[k]) <= top, by the
    recurrence with every base 1 over the weights in ascending order, in
    O(len(weights) * top) steps.

    With cap given, stops as soon as the count is known to exceed cap and
    returns the count reached so far: a lower bound above cap.  Before any
    recurrence step it compares cap with two lower bounds, top // min + 1
    (multiples of the smallest weight) and 1 + the number of weights <= top
    (single unit counts); afterwards each weight's pass costs no more steps
    than it adds to the count, once a weight 1 has been counted."""
    if top < 0:
        raise ValueError(f"top must be non-negative, got {top}")
    if any(w < 1 for w in weights):
        raise ValueError(f"weights must be positive integers, got {list(weights)}")
    weights = sorted(w for w in weights if w <= top)
    if cap is not None:
        low = max(top // weights[0] + 1 if weights else 1, 1 + len(weights))
        if low > cap:
            return low
    total = 1
    for w, ways in zip(weights, _ways(top, ((w, 1) for w in weights))):
        # The pass added ways[s - w] (new values) for every s >= w.
        total += sum(ways[: top - w + 1])
        if cap is not None and total > cap:
            break
    return total
