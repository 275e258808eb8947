"""Shared test configuration and seeded random-instance generators.

The randomized suites are deterministic: the seed comes from the
DINV_SEED environment variable (default below), so failures reproduce
by re-running with the same value.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

from hypothesis import HealthCheck, settings

from dinv import GeneralSpec, ParamTable, Polynomial

settings.register_profile(
    "dinv",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("dinv")

SEED = int(os.environ.get("DINV_SEED", "20260819"))


def make_rng(offset: int = 0) -> random.Random:
    """Independent stream per call site; offset keeps suites decoupled."""
    return random.Random(SEED * 1000003 + offset)


def rational(rng: random.Random, max_num: int = 10, max_den: int = 10, allow_zero: bool = True) -> Fraction:
    while True:
        v = Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
        if allow_zero or v != 0:
            return v


def random_param_table(rng: random.Random, d: int, n: int, fill: float = 0.8) -> GeneralSpec:
    a = {}
    for i in range(2, n + 1):
        for j in range(2, d + 1):
            if rng.random() < fill:
                a[(i, j)] = rational(rng)
    return ParamTable(d=d, n=n, a=a)


def general_form(t: GeneralSpec) -> GeneralSpec:
    """The table t written out as a general spec, through the dense
    constructor: b = (1, ..., n), c_1 = e_1 and c_s = (0, a[2,s], ...,
    a[n,s])."""
    n = t.n
    c = [(1,) + (0,) * (n - 1)]
    c += [(0,) + tuple(t.a.get((i, s), 0) for i in range(2, n + 1)) for s in range(2, t.d + 1)]
    return GeneralSpec(n=n, d=t.d, b=tuple(range(1, n + 1)), c=c)


def random_general_spec(
    rng: random.Random,
    n_max: int = 5,
    bn_max: int = 8,
    d_max: int = 3,
) -> GeneralSpec:
    n = rng.randint(2, n_max)
    d = rng.randint(1, d_max)
    tail = sorted(rng.sample(range(2, bn_max + 1), n - 1))
    b = tuple([1] + tail)
    c = [[rational(rng) for _ in range(n)] for _ in range(d)]
    if all(row[0] == 0 for row in c):
        c[rng.randrange(d)][0] = rational(rng, allow_zero=False)
    return GeneralSpec(n=n, d=d, b=b, c=tuple(tuple(row) for row in c))


def random_poly(
    rng: random.Random,
    dim: int,
    max_deg: int,
    max_terms: int = 6,
) -> Polynomial:
    terms: dict[tuple[int, ...], Fraction] = {}
    for _ in range(rng.randint(1, max_terms)):
        total = rng.randint(0, max_deg)
        exps = [0] * dim
        for _ in range(total):
            exps[rng.randrange(dim)] += 1
        terms[tuple(exps)] = rational(rng, allow_zero=False)
    return Polynomial(dim, terms)
