"""Seeded inputs for the benchmark workloads.

The draws mirror the random-instance generators of the test suite
(``tests/conftest.py``) without importing it, since it pulls in
``hypothesis``.  Each input is drawn from two streams:

  * the *shape* stream is the same for every seed.  It draws the
    structure: the dimensions, which table entries and spec coefficients
    are zero, the weight vectors, the exponents of f, which base-point
    coordinates are zero, which specs are refuted and where;
  * the *value* stream comes from the seed.  It draws the sign of every
    nonzero rational; their sizes are structure, since they set how far
    the coefficients grow.

So different seeds check different numbers through the same structures
and coefficient sizes, and the cost of a workload varies little from one
seed to the next, which keeps runs with different seeds comparable.  The
structure itself
is one draw from the suite's distributions, stratified: every shape
(number of variables, top degree) appears equally often, and within a
shape the fill counts of tables and the weight vectors of general specs
are spread evenly over their distribution (systematic sampling).  Zeros
keep the suite's odds.

Every function takes the ``dinv`` package as an argument rather than
importing it, because the benchmark imports the package afresh for each
set-up it times.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from fractions import Fraction

# The suite's rational has a numerator in -10..10 and a denominator in
# 1..10, so it is zero with probability 1/21.
ZERO_ODDS = 21


class Streams:
    def __init__(self, seed: int, offset: int):
        self.shape = random.Random(offset)
        self.value = random.Random(seed * 1000003 + offset)

    def nonzero(self) -> Fraction:
        """The suite's rational, conditioned on being nonzero: numerator
        size in 1..10 and denominator in 1..10 from the shape stream, since
        they set how far the coefficients grow and with them the cost; the
        sign from the value stream."""
        size, den = self.shape.randint(1, 10), self.shape.randint(1, 10)
        return Fraction(size if self.value.random() < 0.5 else -size, den)

    def rational(self) -> Fraction:
        """The suite's rational: zero with probability 1/21 (decided by the
        shape stream), otherwise a nonzero value."""
        return Fraction(0) if self.shape.randrange(ZERO_ODDS) == 0 else self.nonzero()

    def spread(self, k: int) -> list[float]:
        """k points of [0, 1), each uniformly distributed, evenly spaced
        with a random start (systematic sampling), in shuffled order."""
        start = self.shape.random()
        out = [(start + i) / k for i in range(k)]
        self.shape.shuffle(out)
        return out


def binomial_quantile(q: float, slots: int, p: float) -> int:
    total = 0.0
    for c in range(slots + 1):
        total += math.comb(slots, c) * p ** c * (1 - p) ** (slots - c)
        if q < total:
            return c
    return slots


def stratified_tables(dinv, s: Streams, shapes: list, per_shape: int) -> list:
    """`per_shape` parameter tables of each (d, n) shape, in shuffled order.
    The suite fills an entry with probability 0.8 with a rational, so it is
    nonzero with probability 0.8 * 20/21; the number of nonzero entries is
    spread over that binomial distribution, their places drawn uniformly."""
    tables = []
    for d, n in shapes:
        slots = [(i, j) for i in range(2, n + 1) for j in range(2, d + 1)]
        for q in s.spread(per_shape):
            nonzero = binomial_quantile(q, len(slots), 0.8 * (ZERO_ODDS - 1) / ZERO_ODDS)
            a = {ij: s.nonzero() for ij in s.shape.sample(slots, nonzero)}
            tables.append(dinv.ParamTable(d=d, n=n, a=a))
    s.shape.shuffle(tables)
    return tables


def poly(dinv, s: Streams, dim: int, max_deg: int, max_terms: int):
    """As the suite's `random_poly`: up to `max_terms` terms of random total
    degree up to `max_deg`, nonzero coefficients."""
    terms: dict[tuple[int, ...], Fraction] = {}
    for _ in range(s.shape.randint(1, max_terms)):
        exps = [0] * dim
        for _ in range(s.shape.randint(0, max_deg)):
            exps[s.shape.randrange(dim)] += 1
        terms[tuple(exps)] = s.nonzero()
    return dinv.Polynomial(dim, terms)


# -- workloads ---------------------------------------------------------------


def tables(dinv, seed: int, per_shape: int = 17) -> list:
    """Parameter tables of acceptance criteria 3 and 4: d in {2,3,4},
    n in 2..7."""
    s = Streams(seed, 303)
    shapes = [(d, n) for d in (2, 3, 4) for n in range(2, 8)]
    return stratified_tables(dinv, s, shapes, per_shape)


def limits(dinv, seed: int, per_shape: int = 12) -> list:
    """Draws of acceptance criterion 6: (table, f, base points), d in {2,3},
    n in 1..6, f of degree up to n+2 with up to 4 terms, base points the
    origin and a random rational point."""
    s = Streams(seed, 306)
    shapes = [(d, n) for d in (2, 3) for n in range(1, 7)]
    draws = []
    for t in stratified_tables(dinv, s, shapes, per_shape):
        f = poly(dinv, s, dim=t.d, max_deg=t.n + 2, max_terms=4)
        bases = ((Fraction(0),) * t.d, tuple(s.rational() for _ in range(t.d)))
        draws.append((t, f, bases))
    return draws


def general_specs(dinv, s: Streams, per_shape: int) -> list:
    """General constructions of acceptance criterion 8: n in 2..5,
    d in 1..3, weights 1 < b_2 < ... < b_n <= 8."""
    specs = []
    for n in range(2, 6):
        # Every weight tail is equally likely, as a uniform sample of n-1
        # weights would make it; sorted by top weight, so that the tails of
        # a shape spread evenly over the top weight, which sets the cost.
        tails = sorted(itertools.combinations(range(2, 9), n - 1), key=lambda t: (t[-1], t))
        for d in range(1, 4):
            for q in s.spread(per_shape):
                c = [[s.rational() for _ in range(n)] for _ in range(d)]
                if all(row[0] == 0 for row in c):
                    c[s.shape.randrange(d)][0] = s.nonzero()
                b = (1, *tails[int(q * len(tails))])
                specs.append(dinv.GeneralSpec(n=n, d=d, b=b, c=tuple(tuple(row) for row in c)))
    s.shape.shuffle(specs)
    return specs


def refuted_basis(dinv, spec, s: Streams):
    """The built basis of `spec` (d >= 2) with delta*x_k^N added to its top
    element B_N, delta != 0, for a k such that L1 = sum_i c_i1*x_i is not
    proportional to x_k.  The degree N-1 elements of the span have top
    part proportional to L1^(N-1), so d/dx_k of the new B_N leaves the
    span: closure must fail at exactly (N, k).  Returns (elements, N, k)."""
    basis = list(dinv.build_general(spec))
    top = len(basis) - 1
    lead = [i for i in range(spec.d) if spec.c[i][0] != 0]
    k = s.shape.choice([k for k in range(spec.d) if lead != [k]])
    exps = [0] * spec.d
    exps[k] = top
    basis[top] = basis[top] + dinv.Polynomial.monomial(spec.d, exps, s.nonzero())
    return basis, top, k + 1


def write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def cli_files(dinv, seed: int, workdir: str, per_shape: int = 8) -> tuple[list, list]:
    """Spec files for the CLI workload, plus a refute basis file for a
    quarter (at least one) of the specs of each shape with d >= 2.
    Returns (specs, refutes) where specs is a list of (spec, path) and
    refutes a list of (spec_path, basis_path, N, k)."""
    s = Streams(seed, 308)
    drawn = general_specs(dinv, s, per_shape)
    shapes: dict[tuple[int, int], list[int]] = {}
    for idx, spec in enumerate(drawn):
        if spec.d >= 2:
            shapes.setdefault((spec.n, spec.d), []).append(idx)
    refuted = {idx for group in shapes.values() for idx in s.shape.sample(group, max(1, len(group) // 4))}
    specs, refutes = [], []
    for idx, spec in enumerate(drawn):
        path = os.path.join(workdir, f"spec{idx}.json")
        write_json(path, spec.to_dict())
        specs.append((spec, path))
        if idx in refuted:
            elements, top, k = refuted_basis(dinv, spec, s)
            bpath = os.path.join(workdir, f"refute{idx}.json")
            write_json(bpath, [p.to_dict() for p in elements])
            refutes.append((path, bpath, top, k))
    return specs, refutes


def ladder(dinv, seed: int, rungs=((10, 4), (11, 5), (12, 6), (13, 6))) -> list:
    """One table per rung (n, d) with f and a base point.  The structure is
    set by hand, not drawn: the table's zero entries sit where i + j is a
    multiple of 5 (about one in five, as the suite's fill of 0.8 gives),
    and f = x1^(n+2) + x1^n*x2 + x1^(n-2)*x3^2 + x1^(n-4)*x4^3 (variables
    taken cyclically from x2 on) with nonzero coefficients."""
    s = Streams(seed, 310)
    out = []
    for n, d in rungs:
        a = {(i, j): s.nonzero() for i in range(2, n + 1) for j in range(2, d + 1) if (i + j) % 5}
        terms = {}
        for t in range(4):
            exps = [0] * d
            exps[0] = n + 2 - 2 * t
            exps[1 + (t - 1) % (d - 1)] += t
            terms[tuple(exps)] = s.nonzero()
        z0 = tuple(s.rational() for _ in range(d))
        out.append((dinv.ParamTable(d=d, n=n, a=a), dinv.Polynomial(d, terms), z0))
    return out
