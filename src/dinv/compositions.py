"""Enumeration and counting of weighted integer compositions.

A weighted composition of `total` over positive `weights` is a tuple t of
non-negative integers, one per weight, with sum(t[k] * weights[k]) == total.
These index the terms of the combinatorial identity checks, so the
enumeration order must be stable: tuples are produced in lexicographically
descending order.  count_compositions counts them without enumerating, so
that a command can refuse an input whose closed-form construction would
visit too many of them.
"""

from __future__ import annotations

from typing import Iterator, Sequence


def _check_weights(weights: Sequence[int]) -> None:
    if any(w < 1 for w in weights):
        raise ValueError(f"weights must be positive integers, got {list(weights)}")


def weighted_compositions(total: int, weights: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All t >= 0 (componentwise) with sum(t[k]*weights[k]) == total,
    lexicographically descending."""
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    _check_weights(weights)

    def rec(idx: int, remaining: int) -> Iterator[tuple[int, ...]]:
        if idx == len(weights) - 1:
            w = weights[idx]
            if remaining % w == 0:
                yield (remaining // w,)
            return
        w = weights[idx]
        for v in range(remaining // w, -1, -1):
            for rest in rec(idx + 1, remaining - v * w):
                yield (v,) + rest

    if not weights:
        if total == 0:
            yield ()
        return
    yield from rec(0, total)


def count_compositions(top: int, weights: Sequence[int], cap: int | None = None) -> int:
    """The number of t >= 0 with sum(t[k]*weights[k]) <= top, by the
    counting recurrence ways_k(s) = ways_{k-1}(s) + ways_k(s - weights[k])
    over the weights in ascending order, in O(len(weights) * top) steps.

    With cap given, stops as soon as the count is known to exceed cap and
    returns the count reached so far: a lower bound above cap.  Before any
    recurrence step it compares cap with two lower bounds, top // min + 1
    (multiples of the smallest weight) and 1 + the number of weights <= top
    (single unit counts); afterwards each weight's pass costs no more steps
    than it adds to the count, once a weight 1 has been counted."""
    if top < 0:
        raise ValueError(f"top must be non-negative, got {top}")
    _check_weights(weights)
    weights = sorted(w for w in weights if w <= top)
    if cap is not None:
        low = max(top // weights[0] + 1 if weights else 1, 1 + len(weights))
        if low > cap:
            return low
    ways = [1] + [0] * top
    total = 1
    for w in weights:
        for s in range(w, top + 1):
            ways[s] += ways[s - w]
        # The pass added ways[s - w] (new values) for every s >= w.
        total += sum(ways[: top - w + 1])
        if cap is not None and total > cap:
            break
    return total
