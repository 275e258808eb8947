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


COPRIME = (Fraction(1, 7), Fraction(5, 11), Fraction(-3, 13), Fraction(1, 1009), Fraction(2), Fraction(-1), Fraction(0))


def coprime_spec(rng: random.Random) -> GeneralSpec:
    """A table or general spec with coefficients from COPRIME; general
    specs get an all-zero c column (other than the first) half the time."""
    if rng.random() < 0.4:
        d, n = rng.choice((2, 3)), rng.randint(1, 5)
        a = {(i, j): rng.choice(COPRIME) for i in range(2, n + 1) for j in range(2, d + 1)}
        return ParamTable(d=d, n=n, a=a)
    n, d = rng.randint(2, 4), rng.randint(1, 3)
    b = tuple([1] + sorted(rng.sample(range(2, 8), n - 1)))
    c = [[rng.choice(COPRIME) for _ in range(n)] for _ in range(d)]
    c[rng.randrange(d)][0] = rng.choice(COPRIME[:5])
    if rng.random() < 0.5:
        col = rng.randrange(1, n)
        for row in c:
            row[col] = Fraction(0)
    return GeneralSpec(n=n, d=d, b=b, c=tuple(tuple(row) for row in c))


def seeded_specs(rng: random.Random, count: int) -> list[GeneralSpec]:
    """count specs, cycling through four kinds: a table (n = 1 every eighth
    spec), a general spec with gaps in b, a general spec with n = 1, and a
    spec with coprime denominators (coprime_spec)."""
    specs = []
    for k in range(count):
        kind = k % 4
        if kind == 0:
            specs.append(random_param_table(rng, d=rng.choice((2, 3)), n=1 if k % 8 == 0 else rng.randint(2, 6)))
        elif kind == 1:
            specs.append(random_general_spec(rng, n_max=4, bn_max=9, d_max=3))
        elif kind == 2:
            d = rng.randint(1, 3)
            c = [(rational(rng, allow_zero=i > 0),) for i in range(d)]
            specs.append(GeneralSpec(n=1, d=d, b=(1,), c=c))
        else:
            specs.append(coprime_spec(rng))
    return specs


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


def _hook_fractions(monkeypatch, hook) -> None:
    """Call hook(args) at every Fraction made until monkeypatch.undo():
    Fraction(...) through __new__, and on Python 3.12+ the results of
    Fraction arithmetic through _from_coprime_ints."""
    new = Fraction.__new__

    def hooked_new(cls, *args, **kwargs):
        hook(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", hooked_new)
    if hasattr(Fraction, "_from_coprime_ints"):
        coprime = Fraction._from_coprime_ints

        def hooked_coprime(cls, *args):
            hook(args)
            return coprime(*args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(hooked_coprime))


def forbid_fractions(monkeypatch) -> None:
    """Make every Fraction construction raise AssertionError until
    monkeypatch.undo()."""

    def forbidden(args):
        raise AssertionError("a Fraction was made")

    _hook_fractions(monkeypatch, forbidden)


def count_fractions(monkeypatch) -> list:
    """The arguments of every Fraction made until monkeypatch.undo(), in a
    list the caller may clear between the calls it counts."""
    made = []
    _hook_fractions(monkeypatch, made.append)
    return made
