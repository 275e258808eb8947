"""Reference implementations kept for the tests to compare against.

Each is the straightforward Fraction version of a routine the library now
computes another way, except weighted_compositions, the enumeration the
library now only counts and sums, falling_factorial_sum_enumerated, its
sum by enumeration, enumerate_weight_solutions, the unpruned index set of
the closed form, and span_contains, span membership by solve_fraction;
they are not part of the package.

The polynomial calculus the library no longer needs lives here too, as
free functions on Polynomial terms: diff, integrate, free_of_leading, mul
and compose (the full substitution whose prefix the limit check's cut
series must equal).  apply_operator, source(D) f by iterated single-variable
diff, shares no code with DiffOperator.apply_at, which it witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from dinv.identities import falling_factorial
from dinv.poly import Polynomial
from dinv.subspace import BasisSequence, ClosureReport, GeneralSpec


def diff(p: Polynomial, j: int) -> Polynomial:
    """Partial derivative of p with respect to x_j (1-based)."""
    if not 1 <= j <= p.dim:
        raise ValueError(f"variable index {j} out of range 1..{p.dim}")
    i = j - 1
    out: dict[tuple[int, ...], Fraction] = {}
    for e, c in p.terms.items():
        if e[i]:
            ne = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[ne] = out.get(ne, 0) + c * e[i]
    return Polynomial(p.dim, out)


def integrate(p: Polynomial, j: int) -> Polynomial:
    """Monomial-wise antiderivative in x_j, x^e -> x^e * x_j / (e_j + 1):
    a right inverse of diff(., j) with zero constant of integration."""
    i = j - 1
    return Polynomial(p.dim, {e[:i] + (e[i] + 1,) + e[i + 1:]: c / (e[i] + 1) for e, c in p.terms.items()})


def free_of_leading(p: Polynomial, j: int) -> Polynomial:
    """The terms of p containing none of x1..x_{j-1}."""
    return Polynomial(p.dim, {e: c for e, c in p.terms.items() if not any(e[: j - 1])})


def mul(p: Polynomial, q: Polynomial) -> Polynomial:
    """The ring product, term by term."""
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    out: dict[tuple[int, ...], Fraction] = {}
    for ep, cp in p.terms.items():
        for eq, cq in q.terms.items():
            e = tuple(a + b for a, b in zip(ep, eq))
            out[e] = out.get(e, 0) + cp * cq
    return Polynomial(p.dim, out)


def compose(p: Polynomial, subs: Sequence[Polynomial]) -> Polynomial:
    """p with x_i -> subs[i-1], each power of a substitute built from the
    one below by mul; the substitutes share one dimension, the result's."""
    if len(subs) != p.dim:
        raise ValueError(f"expected {p.dim} substitutions, got {len(subs)}")
    dim = subs[0].dim
    if any(s.dim != dim for s in subs):
        raise ValueError("substituted polynomials must share one dimension")
    powers = [[Polynomial.constant(dim, 1)] for _ in subs]  # powers[i][k] is subs[i]^k
    total = Polynomial.zero(dim)
    for e, c in p.terms.items():
        term = Polynomial.constant(dim, c)
        for s, k, cache in zip(subs, e, powers):
            while len(cache) <= k:
                cache.append(mul(cache[-1], s))
            term = mul(term, cache[k])
        total = total + term
    return total


def apply_operator(source: Polynomial, f: Polynomial) -> Polynomial:
    """source(D) f: each term c*x^alpha of source contributes c times f
    differentiated alpha_j times in each x_j, one diff at a time."""
    total = Polynomial.zero(f.dim)
    for alpha, c in source.terms.items():
        g = f
        for j, times in enumerate(alpha, start=1):
            for _ in range(times):
                g = diff(g, j)
        total = total + c * g
    return total


def weighted_compositions(total: int, weights: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All t >= 0 (componentwise) with sum(t[k]*weights[k]) == total,
    lexicographically descending."""
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if any(w < 1 for w in weights):
        raise ValueError(f"weights must be positive integers, got {list(weights)}")

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


def falling_factorial_sum_enumerated(r: int, i: int, cap: int) -> int:
    """falling_factorial_sum as one product per composition of r over the
    slot weights 1..cap, each slot base falling_factorial(i, t) built from
    scratch."""
    bases = [falling_factorial(i, t) for t in range(1, cap + 1)]
    total = 0
    for combo in weighted_compositions(r, list(range(1, cap + 1))):
        term = 1
        for base, g in zip(bases, combo):
            if g:
                term *= base ** g
        total += term
    return total


def rref_fraction(rows: Sequence[Sequence[Fraction | int]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot columns by Gauss-Jordan in
    Fraction arithmetic: normalize the pivot row, clear the column."""
    m = [[Fraction(v) for v in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    if any(len(r) != ncols for r in m):
        raise ValueError("ragged matrix")
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def solve_fraction(a_rows, rhs) -> list[Fraction] | None:
    """One solution of A x = b (free variables zero) from rref_fraction of
    the augmented matrix, or None if the system is inconsistent."""
    if len(a_rows) != len(rhs):
        raise ValueError(f"{len(a_rows)} equations but {len(rhs)} right-hand sides")
    if not a_rows:
        return []
    ncols = len(a_rows[0])
    reduced, pivots = rref_fraction([list(row) + [b] for row, b in zip(a_rows, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = reduced[i][ncols]
    return x


def span_contains(basis: Sequence[Polynomial], p: Polynomial) -> list[Fraction] | None:
    """Exact coordinates of p in the given spanning set, or None if p is
    not in the span.  Solved by solve_fraction over the union of monomial
    supports; free coordinates (from dependent spanning sets) are zero."""
    basis = list(basis)
    if not basis:
        return [] if p.is_zero else None
    if any(q.dim != p.dim for q in basis):
        raise ValueError("dimension mismatch between basis and candidate")
    support = sorted(set().union(*(q.terms.keys() for q in basis), p.terms.keys()))
    a_rows = [[q.coeff(e) for q in basis] for e in support]
    rhs = [p.coeff(e) for e in support]
    return solve_fraction(a_rows, rhs)


def signed_power_sum_fraction(j: int, m: int, include_zero: bool = True) -> Fraction:
    """sum over i of (-1)^(m-i) * i^j / (i! * (m-i)!) as m + 1 Fraction
    additions, i from 0 (or 1) to m."""
    total = Fraction(0)
    for i in range(0 if include_zero else 1, m + 1):
        sign = -1 if (m - i) % 2 else 1
        total += Fraction(sign * i ** j, math.factorial(i) * math.factorial(m - i))
    return total


def check_closure_fraction(basis: BasisSequence, spec: GeneralSpec) -> ClosureReport:
    """d(B_m)/dx_i == sum_{j: b_j <= m} c_ij * B_{m - b_j} for every m >= 1
    and variable i, both sides built as Polynomials in Fraction arithmetic."""
    top = spec.top_weight
    if len(basis) != top + 1:
        raise ValueError(f"basis has {len(basis)} elements, the spec needs {top + 1}")
    if basis.dim != spec.d:
        raise ValueError(f"basis has dimension {basis.dim}, the spec needs {spec.d}")
    den, slots = spec.slots
    bad: list[tuple[int, int]] = []
    for m in range(1, top + 1):
        for i in range(1, spec.d + 1):
            expect = Polynomial.zero(basis.dim)
            for bj, v, n_ij in slots:
                if v == i - 1 and bj <= m:
                    expect = expect + Fraction(n_ij, den) * basis[m - bj]
            if diff(basis[m], i) != expect:
                bad.append((m, i))
    return ClosureReport(ok=not bad, violations=tuple(bad))


@dataclass(frozen=True)
class WeightSolution:
    """One contribution index of the general construction: counts[i-1][j-1]
    copies of coefficient c[i][j], with total weight sum(b[j] * column sums)
    equal to the target degree."""

    counts: tuple[tuple[int, ...], ...]


def enumerate_weight_solutions(spec: GeneralSpec, m: int) -> list[WeightSolution]:
    """All count grids of weight exactly m, in a fixed deterministic order.

    The grid is flattened column-major (weight slot j outer, vector index i
    inner) and enumerated lexicographically descending over that flattening.
    Solutions whose coefficient product vanishes (a positive count on a zero
    c[i][j]) are included, so this is the unpruned index set; build_general
    enumerates only the nonzero slots.
    """
    if not 0 <= m <= spec.top_weight:
        raise ValueError(f"weight {m} outside 0..{spec.top_weight}")
    weights = [spec.b[j] for j in range(spec.n) for _ in range(spec.d)]
    out = []
    for flat in weighted_compositions(m, weights):
        counts = tuple(
            tuple(flat[j * spec.d + i] for j in range(spec.n))
            for i in range(spec.d)
        )
        out.append(WeightSolution(counts))
    return out


def build_general_fraction(spec: GeneralSpec) -> BasisSequence:
    """Element m sums, over the weight-m compositions on the nonzero slots
    c[i][j], the monomial x1^|row 1| ... xd^|row d| with coefficient
    prod c[i][j]^counts[i][j] / counts[i][j]!, each composition's
    coefficient built from scratch in Fractions."""
    slots = [(i, j) for j in range(spec.n) for i in range(spec.d) if spec.c[i][j] != 0]
    weights = [spec.b[j] for (_, j) in slots]
    elems = []
    for m in range(spec.top_weight + 1):
        terms: dict[tuple[int, ...], Fraction] = {}
        for combo in weighted_compositions(m, weights):
            coef = Fraction(1)
            exps = [0] * spec.d
            for (i, j), g in zip(slots, combo):
                if g:
                    coef *= spec.c[i][j] ** g
                    coef /= math.factorial(g)
                    exps[i] += g
            key = tuple(exps)
            terms[key] = terms.get(key, Fraction(0)) + coef
        elems.append(Polynomial(spec.d, terms))
    return BasisSequence(tuple(elems))


def build_explicit_fraction(params: GeneralSpec) -> BasisSequence:
    """Element k sums over all (g, {g[s,j]}) with g + sum_j j*g[s,j] == k
    on the nonzero a[j,s] the monomial x1^g * prod_s x_s^(sum_j g[s,j])
    with coefficient prod a[j,s]^g[s,j] / (g! * prod g[s,j]!), each
    composition's coefficient built from scratch in Fractions."""
    d, n = params.d, params.n
    slots: list[tuple[int, int]] = [
        (s, j) for s in range(2, d + 1) for j in range(2, n + 1) if params.a.get((j, s), 0) != 0
    ]
    weights = [1] + [j for (_, j) in slots]
    elems = []
    for k in range(n + 1):
        terms: dict[tuple[int, ...], Fraction] = {}
        for combo in weighted_compositions(k, weights):
            g1, rest = combo[0], combo[1:]
            coef = Fraction(1, math.factorial(g1))
            for (s, j), g in zip(slots, rest):
                if g:
                    coef *= params.a.get((j, s), 0) ** g
                    coef /= math.factorial(g)
            exps = [g1] + [0] * (d - 1)
            for (s, _), g in zip(slots, rest):
                exps[s - 1] += g
            key = tuple(exps)
            terms[key] = terms.get(key, Fraction(0)) + coef
        elems.append(Polynomial(d, terms))
    return BasisSequence(tuple(elems))


def build_recursive_fraction(params: GeneralSpec) -> BasisSequence:
    """The degree-by-degree recursion of build_recursive in Fraction
    Polynomial arithmetic: B_k = I_1(B_{k-1}) + sum_j I_j(part of M_j free
    of x1..x_{j-1}) + sum_j a[k,j] * x_j, M_j = sum_{2 <= i < k} a[i,j] *
    B_{k-i}."""
    d, n = params.d, params.n
    elems = [Polynomial.constant(d, 1), Polynomial.variable(d, 1)]
    for k in range(2, n + 1):
        v = integrate(elems[k - 1], 1)
        for j in range(2, d + 1):
            m_j = Polynomial.zero(d)
            for i in range(2, k):
                coef = params.a.get((i, j), 0)
                if coef:
                    m_j = m_j + coef * elems[k - i]
            v = v + integrate(free_of_leading(m_j, j), j)
        for j in range(2, d + 1):
            coef = params.a.get((k, j), 0)
            if coef:
                v = v + coef * Polynomial.variable(d, j)
        elems.append(v)
    return BasisSequence(tuple(elems[: n + 1]))
