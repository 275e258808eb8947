"""Reference implementations kept for the tests to compare against.

Each is the straightforward Fraction version of a routine the library now
computes another way, except weighted_compositions, the enumeration the
library now only sums, count_compositions, the count of the visits of
closed_form_elements_tuple's walk, closed_form_steps, the steps of the
closed form's product over slots read off the monomials each weight can
reach, falling_factorial_sum, one weight of the library's
falling_factorial_sums at a chosen cap, falling_factorial_sum_enumerated,
that sum by enumeration, enumerate_weight_solutions, the unpruned index set of
the closed form, and span_contains, span membership by solve_fraction;
they are not part of the package.  solve_backsub_fraction is linalg.solve
with its back-substitution in Fractions, vandermonde_oracle_per_order
solves each order's Vandermonde system on its own by it, and
polynomial_from_dict_fraction reads a polynomial's JSON through
parse_rational and Fractions.

The polynomial calculus the library no longer needs lives here too, as
free functions on Polynomial terms: diff, integrate, free_of_leading, mul
and compose (the full substitution whose prefix the limit check's cut
series must equal).  apply_operator, source(D) f by iterated single-variable
diff, shares no code with DiffOperator.apply_at, which it witnesses.
apply_at_fraction is apply_at's sum with Fraction powers of the point,
and series_fraction is that cut series with a Fraction in every cell: the
references for the library's integer target and integer series.

The dict_* functions are the polynomial vector space on plain
{exponent: Fraction} dicts with no zero value, the reference for
Polynomial's integer form: sum, scalar multiple, value at a point and
text.

The *_tuple functions are subspace's integer kernels (the three
builders, the closure identity and breadth) on numerators keyed by
exponent tuples, where the library keys them by monomial codes
(subspace.MonomialCodes).  packed and unpacked carry a builder's
numerators between the two keys: packed makes a subspace.Numerators.

load_json_text_mode and load_poly_text_mode are cli's file readers as
they read through a text-mode open; polynomial_from_dict_per_entry is
Polynomial.from_dict with every exponent entry read by json_int and every
term's exponent checked; spec_arc is GeneralSpec.arc by
common_denominator over the entries, and arc_slots an arc's slots
(b_j, i, n_ij) in one flat tuple; and power_sums_two_runs is the
identity scan's power-sum check with one run from node 0 and one from
node 1 per order.

signed_power_sum is one direct integer sum over m!, at any power j, and
vandermonde_oracle reads one entry of the library's vandermonde_oracles:
the single-order forms the tests state the identities in.

generating_fuel and closure_fuel are the cells that the generating
recurrence and the closure check charge under fuel, each element's charge
computed afresh from the whole run's lists (the closure check's slots of
weight <= m by bisection), where the kernels keep constants and running
counts across a run.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from dinv import fuel
from dinv.discretize import SymbolicPointSet, stencil
from dinv.linalg import echelon
from operator import itemgetter

from dinv.cli import _PARSE_ERRORS, CliError
from dinv.identities import _ways, falling_factorial_sums, signed_power_sums, vandermonde_oracles
from dinv.poly import (
    _RAT_RE,
    _VAR_RE,
    Polynomial,
    _check_exponent,
    _derivative_factor,
    common_denominator,
    json_array,
    json_int,
    json_ratio,
    parse_rational,
)
from dinv.subspace import Arc, BasisSequence, ClosureReport, GeneralSpec, MonomialCodes, Numerators, _exact_div


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


def apply_at_fraction(source: Polynomial, f: Polynomial, point: Sequence[Fraction | int]) -> Fraction:
    """(source(D) f)(point) in Fractions: the sum over the source's
    numerators n_alpha and f's Fraction terms c_e, e >= alpha, of
    n_alpha * c_e * prod_i e_i!/(e_i-alpha_i)! * point_i^(e_i-alpha_i),
    divided once by the source's scale, each point_i^k taken once."""
    if f.dim != source.dim:
        raise ValueError(f"dimension mismatch: {source.dim} vs {f.dim}")
    vals = [Fraction(v) for v in point]
    if len(vals) != f.dim:
        raise ValueError(f"point has length {len(vals)}, expected {f.dim}")
    powers: dict[tuple[int, int], Fraction] = {}
    total = Fraction(0)
    for alpha, na in source.numerators.items():
        for e, ce in f.terms.items():
            factor = _derivative_factor(e, alpha)
            if not factor:
                continue
            value = ce * (na * factor)
            for i, (ei, ai) in enumerate(zip(e, alpha)):
                if k := ei - ai:
                    power = powers.get((i, k))
                    if power is None:
                        power = powers[i, k] = vals[i] ** k
                    value *= power
                    if not value:
                        break
            total += value
    return total / source.scale


def _mul_cut_fraction(a: list[Fraction], b: list[Fraction], length: int) -> list[Fraction]:
    """Product of two dense h-series, cut after h^(length-1), trailing zeros
    dropped."""
    size = min(len(a) + len(b) - 1, length)
    out = [Fraction(0)] * size
    for i, ai in enumerate(a[:size]):
        if ai:
            for j, bj in enumerate(b[: size - i], i):
                if bj:
                    out[j] += ai * bj
    while out and not out[-1]:
        out.pop()
    return out


def _power_cut_fraction(powers: dict[int, list[Fraction]], k: int, length: int) -> list[Fraction]:
    """powers[k], the k-th power of powers[1] cut after h^(length-1), by
    repeated squaring from the powers already kept."""
    power = powers.get(k)
    if power is None:
        half = _power_cut_fraction(powers, k // 2, length)
        power = _mul_cut_fraction(half, half, length)
        if k % 2:
            power = _mul_cut_fraction(power, powers[1], length)
        powers[k] = power
    return power


def series_fraction(f: Polynomial, m: int, pts: SymbolicPointSet, length: int) -> list[Fraction]:
    """The h^0..h^(length-1) coefficients of sum_{r=0..m} A_r^(m) * f(z_r(h)),
    every cell a Fraction: each coordinate a dense list of its
    h-coefficients, its powers kept per point, every product cut after
    h^(length-1), and the stencil's Fraction weights."""
    total = [Fraction(0)] * length
    for w, point in zip(stencil(m), pts):
        powers = []
        for coord in point:
            dense = [Fraction(0)] * min(coord.degree + 1, length)
            for (t,), c in coord.terms.items():
                if t < length:
                    dense[t] = c
            while dense and not dense[-1]:
                dense.pop()
            powers.append({1: dense})
        value = [Fraction(0)] * length
        for e, c in f.terms.items():
            prod = None
            for cache, k in zip(powers, e):
                if k:
                    power = _power_cut_fraction(cache, k, length)
                    prod = power if prod is None else _mul_cut_fraction(prod, power, length)
                    if not prod:
                        break
            if prod is None:
                value[0] += c
            else:
                for t, v in enumerate(prod):
                    value[t] += c * v
        for t, v in enumerate(value):
            if v:
                total[t] += w * v
    return total


Terms = dict[tuple[int, ...], Fraction]


def dict_add(p: Terms, q: Terms) -> Terms:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def dict_scaled(p: Terms, a: Fraction | int) -> Terms:
    return {e: a * c for e, c in p.items() if a * c}


def dict_eval(p: Terms, point: Sequence[Fraction | int]) -> Fraction:
    total = Fraction(0)
    for e, c in p.items():
        total += c * math.prod(Fraction(v) ** k for v, k in zip(point, e))
    return total


def dict_render(p: Terms, dim: int) -> str:
    """Terms in graded-lex descending order, a coefficient +-1 left out in
    front of a monomial, each sign but a leading + written between terms."""
    if not p:
        return "0"
    pieces = []
    for e, c in sorted(p.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True):
        mono = "*".join(f"x{i}" if k == 1 else f"x{i}^{k}" for i, k in zip(range(1, dim + 1), e) if k)
        body = str(abs(c)) if not mono else mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        if pieces:
            pieces.append(f"{'-' if c < 0 else '+'} {body}")
        else:
            pieces.append(f"-{body}" if c < 0 else body)
    return " ".join(pieces)


def count_compositions(top: int, weights: Sequence[int]) -> int:
    """The number of t >= 0 with sum(t[k]*weights[k]) <= top, the visits
    of closed_form_elements_tuple's walk on slots of these weights:
    identities._ways with every base 1, in O(len(weights) * top) steps."""
    if top < 0:
        raise ValueError(f"top must be non-negative, got {top}")
    if any(w < 1 for w in weights):
        raise ValueError(f"weights must be positive integers, got {list(weights)}")
    weights = [w for w in weights if w <= top]
    total = 1
    for w, ways in zip(weights, _ways(top, ((w, 1) for w in weights))):
        # The pass added ways[s - w] (new values) for every s >= w.
        total += sum(ways[: top - w + 1])
    return total


def closed_form_steps(spec: GeneralSpec, top: int) -> list[tuple[int, int, int, int]]:
    """The steps of subspace._closed_form_elements to weight top, in order,
    each as (b_j, w, |E_w|, the g >= 1 with w + g*b_j <= top): per nonzero
    slot, every w <= top - b_j, going down, at which a count vector on the
    earlier slots arrives, with the number of distinct exponents they reach
    there.  Read off sets of exponent tuples; no coefficient is made."""
    d, (_, slots) = spec.d, arc_slots(spec.arc)
    reach: list[set[tuple[int, ...]]] = [{(0,) * d}] + [set() for _ in range(top)]
    steps = []
    for bj, i, _ in slots:
        for w in range(top - bj, -1, -1):
            if reach[w]:
                steps.append((bj, w, len(reach[w]), (top - w) // bj))
                for g in range(1, (top - w) // bj + 1):
                    reach[w + g * bj] |= {e[:i] + (e[i] + g,) + e[i + 1:] for e in reach[w]}
    return steps


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


def falling_factorial_product(i: int, j: int) -> int:
    """i * (i-1) * ... * (i-j+1), one factor at a time, for j >= 0."""
    out = 1
    for t in range(j):
        out *= i - t
    return out


def falling_factorial_sum(r: int, i: int, cap: int) -> int:
    """sum over (g_1, ..., g_cap) with sum t*g_t == r of
    prod_t falling_factorial(i, t)^g_t, with 0**0 == 1: the weight-r entry
    of identities.falling_factorial_sums(r, i) at its cap.

    The value is independent of whether cap == i or cap == r: slots past r
    cannot be used at weight r, and slots past i have base 0 so they only
    contribute through g_t == 0.  Both caps are accepted so the agreement
    can be tested; other caps are rejected.
    """
    if r < 1:
        raise ValueError(f"weight must be >= 1, got {r}")
    if i < 2:
        raise ValueError(f"node must be >= 2, got {i}")
    if cap not in (i, r):
        raise ValueError(f"cap must be one of node={i} or weight={r}, got {cap}")
    by_cap_i, by_cap_r = falling_factorial_sums(r, i)
    return (by_cap_i if cap == i else by_cap_r)[r]


def falling_factorial_sum_enumerated(r: int, i: int, cap: int) -> int:
    """falling_factorial_sum as one product per composition of r over the
    slot weights 1..cap, each slot base falling_factorial_product(i, t)
    built from scratch."""
    bases = [falling_factorial_product(i, t) for t in range(1, cap + 1)]
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


def solve_backsub_fraction(a_rows, rhs) -> list[Fraction] | None:
    """One solution of A x = b (free variables zero), or None if the system
    is inconsistent: linalg.echelon of the augmented integer rows, then a
    Fraction back-substitution, one division per lead."""
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


def vandermonde_oracle(m: int) -> tuple[Fraction, ...]:
    """The stencil coefficients of order m by elimination: vandermonde_oracles(m)[m]."""
    return vandermonde_oracles(m)[m]


def vandermonde_oracle_per_order(m: int) -> tuple[Fraction, ...]:
    """The solution y of sum_i y_i * i^j == [j == m] for j = 0..m at the
    nodes i = 0..m, from its own (m + 1)^2 system by
    solve_backsub_fraction."""
    rows = [[i**j for i in range(m + 1)] for j in range(m + 1)]
    return tuple(solve_backsub_fraction(rows, [0] * m + [1]))


def polynomial_from_dict_fraction(data) -> Polynomial:
    """Polynomial.from_dict by way of Fractions: each coefficient through
    parse_rational(str(coef)), then the public constructor."""
    try:
        dim = json_int(data["dim"], "dim")
        terms = {
            tuple(json_int(v, "exponent") for v in json_array(t["exp"], "exp")): parse_rational(str(t["coef"]))
            for t in json_array(data["terms"], "terms")
        }
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed polynomial object: {exc}") from exc
    return Polynomial(dim, terms)


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


def signed_power_sum(j: int, m: int, include_zero: bool = True) -> Fraction:
    """sum over i of (-1)^(m-i) * i^j / (i! * (m-i)!), i from 0 (or 1) to m.

    Equals 1 when j == m and 0 when j < m (for j >= 1 when the i = 0 term
    is excluded): one sum of the integers (-1)^(m-i) * C(m, i) * i^j, over m!.
    """
    if j < 0 or m < 0:
        raise ValueError("j and m must be non-negative")
    nodes = range(0 if include_zero else 1, m + 1)
    return Fraction(sum((-1) ** (m - i) * math.comb(m, i) * i**j for i in nodes), math.factorial(m))


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
    den, slots = arc_slots(spec.arc)
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


TupleNumerators = list[tuple[int, dict[tuple[int, ...], int]]]


def packed(codes: MonomialCodes, elems: TupleNumerators) -> Numerators:
    """elems keyed by codes' codes instead of exponent tuples."""
    return Numerators(codes, [(s, {codes.pack(e): v for e, v in p.items()}) for s, p in elems])


def unpacked(nums: Numerators) -> TupleNumerators:
    """nums keyed by exponent tuples instead of codes."""
    return [(s, dict(zip(nums.codes.exponents(p).values(), p.values()))) for s, p in nums.elems]


def closed_form_elements_tuple(arc: Arc, top: int) -> TupleNumerators:
    """subspace._closed_form_elements's numerators on exponent tuples, by a
    depth-first walk over the count vectors g on the nonzero slots, each
    node adding prod n^g * D^(m-G) * (m! // prod g!) to element m, over
    m! * D^m.  It divides m! by prod g! at every vector, where the library
    multiplies in one slot at a time and sums the vectors that meet on a
    monomial, so the two share no arithmetic."""
    d = arc.d
    den, slots = arc_slots(arc)
    fact = list(itertools.accumulate(range(1, top + 1), operator.mul, initial=1))
    den_pow = list(itertools.accumulate([den] * top, operator.mul, initial=1))
    elems: list[dict[tuple[int, ...], int]] = [{} for _ in range(top + 1)]

    def walk(start: int, m: int, total: int, prod_n: int, prod_fact: int, e: tuple[int, ...]) -> None:
        terms = elems[m]
        terms[e] = terms.get(e, 0) + prod_n * den_pow[m - total] * (fact[m] // prod_fact)
        for k in range(start, len(slots)):
            bj, i, n_ij = slots[k]
            if m + bj > top:
                break
            w, g, p_n, p_f, ex = m, 0, prod_n, prod_fact, e
            while w + bj <= top:
                w, g = w + bj, g + 1
                p_n, p_f = p_n * n_ij, p_f * g
                ex = ex[:i] + (ex[i] + 1,) + ex[i + 1:]
                walk(k + 1, w, total + g, p_n, p_f, ex)

    walk(0, 0, 0, 1, 1, (0,) * d)
    elems = [{e: v for e, v in p.items() if v} for p in elems]
    return [(fact[m] * den_pow[m], terms) for m, terms in enumerate(elems)]


def generating_elements_tuple(arc: Arc, top: int) -> TupleNumerators:
    """subspace._generating_elements on exponent tuples:
    E_m = sum_j b_j * ff(m-1, b_j-1) * D^(b_j-1) * N_j(x) * E_{m - b_j},
    over the scale m! * D^m."""
    d = arc.d
    den, slots = arc_slots(arc)
    forms = [(bj, [(i, n_ij) for _, i, n_ij in form]) for bj, form in itertools.groupby(slots, itemgetter(0))]
    elems: TupleNumerators = [(1, {(0,) * d: 1})]
    for m in range(1, top + 1):
        acc: dict[tuple[int, ...], int] = {}
        for bj, form in forms:
            if bj > m:
                break
            k = bj * math.perm(m - 1, bj - 1) * den ** (bj - 1)
            scaled = [(i, k * w) for i, w in form]
            for e, coef in elems[m - bj][1].items():
                for i, w in scaled:
                    key = e[:i] + (e[i] + 1,) + e[i + 1:]
                    acc[key] = acc.get(key, 0) + w * coef
        elems.append((elems[-1][0] * m * den, {e: v for e, v in acc.items() if v}))
    return elems


def recursive_numerators_tuple(params: GeneralSpec) -> TupleNumerators:
    """subspace._recursive_numerators on exponent tuples: (S_k, P_k) with
    B_k = P_k / S_k, S_k the lcm of B_k's denominators."""
    d, n = params.d, params.n
    den, slots = arc_slots(params.arc)
    num = {(i, j): n_ij for i, j, n_ij in slots[1:]}
    units = [tuple(int(t == v) for t in range(d)) for v in range(d)]
    elems = [(1, {(0,) * d: 1}), (1, {units[0]: 1})]

    def by_lead(p):
        buckets = [[] for _ in range(d + 1)]
        for e, v in p.items():
            buckets[next((z for z in range(d) if e[z]), d)].append((e, v))
        return buckets

    leads = [by_lead(p) for _, p in elems]
    lcm_k = 1
    for k in range(2, n + 1):
        s_prev, p_prev = elems[k - 1]
        scale = math.lcm(s_prev, den)
        for i in range(2, k):
            scale = math.lcm(scale, den * elems[k - i][0])
        lcm_k = math.lcm(lcm_k, k)
        inv = [0] + [_exact_div(lcm_k, t) for t in range(1, k + 1)]
        c = _exact_div(scale, s_prev)
        acc = {(e[0] + 1,) + e[1:]: c * inv[e[0] + 1] * v for e, v in p_prev.items()}
        for j in range(1, d):
            for i in range(2, k):
                n_ij = num.get((i, j))
                if not n_ij:
                    continue
                c = n_ij * _exact_div(scale, den * elems[k - i][0])
                coef = [c * q for q in inv]
                for bucket in leads[k - i][j:]:
                    for e, v in bucket:
                        t = e[j] + 1
                        key = e[:j] + (t,) + e[j + 1:]
                        acc[key] = acc.get(key, 0) + coef[t] * v
        lin = _exact_div(scale, den) * lcm_k
        for j in range(1, d):
            n_kj = num.get((k, j))
            if n_kj:
                acc[units[j]] = acc.get(units[j], 0) + n_kj * lin
        s_k = scale * lcm_k
        g = math.gcd(s_k, *acc.values())
        p_k = {e: v // g for e, v in acc.items() if v}
        elems.append((s_k // g, p_k))
        leads.append(by_lead(p_k))
    return elems[: n + 1]


def check_closure_numerators_tuple(elems: TupleNumerators, spec: GeneralSpec) -> ClosureReport:
    """subspace.check_closure_numerators on exponent tuples: (m, i) is a
    violation iff L/s_m * d(P_m)/dx_i differs from
    sum_j n_ij * L/(D * s_{m-b_j}) * P_{m-b_j}."""
    d, (den, slots) = spec.d, arc_slots(spec.arc)
    by_var = [[(bj, n_ij) for bj, v, n_ij in slots if v == i] for i in range(d)]
    bad: list[tuple[int, int]] = []
    for m in range(1, spec.top_weight + 1):
        s_m, p_m = elems[m]
        for i in range(d):
            terms = [(n_ij, *elems[m - bj]) for bj, n_ij in by_var[i] if bj <= m]
            scale = s_m
            for _, s, _ in terms:
                scale = math.lcm(scale, den * s)
            acc: dict[tuple[int, ...], int] = {}
            k = scale // s_m
            for e, v in p_m.items():
                ei = e[i]
                if ei:
                    acc[e[:i] + (ei - 1,) + e[i + 1:]] = k * ei * v
            for n_ij, s, p in terms:
                k = n_ij * (scale // (den * s))
                for e, v in p.items():
                    acc[e] = acc.get(e, 0) - k * v
            if any(acc.values()):
                bad.append((m, i + 1))
    return ClosureReport(ok=not bad, violations=tuple(bad))


def breadth_numerators_tuple(dim: int, rows) -> int:
    """subspace.breadth_numerators on exponent tuples: the leads of
    linalg.echelon with the monomials in descending total degree, then
    lexicographically, counted in degree <= 1, minus 1."""
    key = lambda e: (-sum(e), e)
    rows = [row for row in rows if row]
    leads = {min(row, key=key) for row in rows}
    if len(leads) < len(rows):
        leads = echelon(rows, key=key)
    if (0,) * dim not in leads:
        raise ValueError("span does not contain the constant 1")
    return sum(1 for e in leads if sum(e) <= 1) - 1


def code_width(d: int, top: int) -> int:
    """A code's width as the kernels read it, in the monomial codes of
    degree <= top in d variables: the bits of the degree's unit (top + 1)^d."""
    return ((top + 1) ** d).bit_length()


def recurrence_cells(forms, n_bits, elems, sizes: list[int], m: int, den_bits: int, width: int) -> int:
    """The cells charged before element m of the generating recurrence,
    elems holding E_0..E_(m-1): per weight b_j <= m, 3 per multiply-add of
    a term of E_(m-b_j), at its mean bits, by a variable of N_j times
    b_j * ff(m-1, b_j-1) * D^(b_j-1), whose making is charged too, and a
    cell per 256 bits of the term's code, width bits; and the scale's
    product."""
    cells = fuel.cells(1, elems[-1][0].bit_length(), m.bit_length() + den_bits)
    for (bj, form), nb in zip(forms, n_bits):
        if bj > m:
            break
        k_bits = (bj - 1) * (m.bit_length() + den_bits) + bj.bit_length()
        ops = len(elems[m - bj][1]) * len(form)
        cells += fuel.cells(1, k_bits, k_bits) + ops * (2 + (width >> 8)) + fuel.cells(ops, sizes[m - bj], k_bits + nb)
    return cells


def generating_fuel(spec: GeneralSpec, elems: TupleNumerators) -> int:
    """The cells of building elems = E_0..E_top of spec by the generating
    recurrence, its codes' width that of the spec's codec or, past b_n, of
    one to top: recurrence_cells before each element, and a cell per 64
    bits of its scale, numerators and codes after it."""
    den, slots = arc_slots(spec.arc)
    forms = [(bj, list(form)) for bj, form in itertools.groupby(slots, itemgetter(0))]
    n_bits = [max(abs(w).bit_length() for _, _, w in form) for _, form in forms]
    width = code_width(spec.d, max(len(elems) - 1, spec.top_weight))
    sizes, total = [1], 0
    for m in range(1, len(elems)):
        total += recurrence_cells(forms, n_bits, elems[:m], sizes, m, den.bit_length(), width)
        s, p = elems[m]
        bits = sum(map(int.bit_length, p.values()))
        total += (s.bit_length() + bits + len(p) * width) >> 6
        sizes.append(bits // max(len(p), 1))
    return total


def closure_fuel(spec: GeneralSpec, elems: TupleNumerators) -> int:
    """The cells of the closure check of elems = (s_0, P_0)..(s_top, P_top):
    per element m, 2 per term of P_m per variable and per term of the
    longest element so far per slot of weight <= m, on the most numerator
    and scale bits so far, a division of a code of the spec's codec per
    term of P_m per variable, and its lcms and multipliers.  Where the
    scales share no factor, as a loaded basis's may, L_m grows past them:
    each lcm is charged at the width of L_m so far, unless that is no wider
    than the scales and n_ij and D * s_(m-b_j) divides it, and the 2 per
    term again at the widest of L_m / s_m and the L_m / (D * s_(m-b_j)),
    when wider than the scales."""
    d, (den, slots) = spec.d, arc_slots(spec.arc)
    weights = [bj for bj, _, _ in slots]
    n_bits = max(abs(n).bit_length() for _, _, n in slots) + den.bit_length()
    width = code_width(d, spec.top_weight)
    longest, bits, s_bits, total = 1, 1, 1, 0
    for m in range(1, spec.top_weight + 1):
        s_m, p_m = elems[m]
        longest, s_bits = max(longest, len(p_m)), max(s_bits, s_m.bit_length())
        bits = max(bits, max(map(int.bit_length, p_m.values()), default=0))
        sources = bisect_right(weights, m)
        ops = d * len(p_m) + sources * longest
        total += 2 * fuel.cells(ops, bits, s_bits + n_bits) + fuel.digits(d * len(p_m), width)
        total += fuel.cells(3 * (sources + d), s_bits + n_bits)
        lcm_m = s_m
        for bj in sorted(set(weights[:sources])):
            s = den * elems[m - bj][0]
            if lcm_m.bit_length() > s_bits + n_bits or lcm_m % s:
                total += fuel.lcms(1, lcm_m.bit_length(), s_bits + n_bits)
            lcm_m = math.lcm(lcm_m, s)
        by = max((lcm_m // s).bit_length() for s in [s_m] + [den * elems[m - bj][0] for bj in weights[:sources]])
        if by > s_bits:
            total += 2 * (fuel.cells(ops, bits, by + n_bits) - fuel.cells(ops, bits, s_bits + n_bits))
    return total


def load_json_text_mode(path: str):
    """cli._load_json through a text-mode open and json.load."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from exc


def load_poly_text_mode(path: str, dim: int) -> Polynomial:
    """cli._load_poly through a text-mode open."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    stripped = text.strip()
    try:
        if stripped.startswith("{"):
            f = Polynomial.from_dict(json.loads(stripped))
        else:
            f = Polynomial.parse(stripped, dim)
    except (*_PARSE_ERRORS, RecursionError) as exc:
        raise CliError(f"{path}: {exc}") from exc
    if f.dim != dim:
        raise CliError(f"{path}: polynomial has dimension {f.dim}, spec has {dim}")
    return f


def polynomial_from_dict_per_entry(data) -> Polynomial:
    """Polynomial.from_dict with each exponent entry read by json_int and
    each term's exponent checked by _check_exponent."""
    try:
        dim = json_int(data["dim"], "dim")
        terms = {
            tuple(json_int(v, "exponent") for v in json_array(t["exp"], "exp")): json_ratio(t["coef"])
            for t in json_array(data["terms"], "terms")
        }
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed polynomial object: {exc}") from exc
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    scale = 1
    for exps, (p, q) in terms.items():
        _check_exponent(exps, dim)
        if p and scale % q:
            scale = math.lcm(scale, q)
    nums = {e: p * (scale // q) for e, (p, q) in terms.items() if p}
    return Polynomial(dim, nums, _scale=scale)


def parse_scanner(text: str, dim: int) -> Polynomial:
    """Polynomial.parse by a scan of the text a character at a time: a
    sign ends the term before it, if that term is not blank, and each
    minus sign flips the sign of the term after it."""
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    chunks: list[tuple[int, str]] = []
    sign, buf = 1, ""
    for ch in s:
        if ch in "+-":
            if buf.strip():
                chunks.append((sign, buf))
                sign, buf = 1, ""
            if ch == "-":
                sign = -sign
        else:
            buf += ch
    if buf.strip():
        chunks.append((sign, buf))
    if not chunks:
        raise ValueError(f"cannot parse polynomial from {text!r}")
    terms: dict[tuple[int, ...], Fraction] = {}
    for sgn, chunk in chunks:
        coef = Fraction(1)
        exps = [0] * dim
        for pos, raw in enumerate(chunk.split("*")):
            part = raw.strip()
            m = _VAR_RE.match(part)
            if m:
                j = int(m.group(1))
                if not 1 <= j <= dim:
                    raise ValueError(f"variable x{j} out of range for dim {dim}")
                exps[j - 1] += int(m.group(2) or 1)
            elif pos == 0 and _RAT_RE.match(part):
                coef = parse_rational(part)
            else:
                raise ValueError(f"cannot parse term part {part!r} in {text!r}")
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + sgn * coef
    return Polynomial(dim, terms)


def spec_arc(spec: GeneralSpec) -> Arc:
    """GeneralSpec.arc by common_denominator over the spec's entries, grouped
    by weight with itertools.groupby."""
    den, nums = common_denominator(v for _, _, v in spec.entries)
    slots = [(spec.b[j], (i, n_ij)) for (j, i, _), n_ij in zip(spec.entries, nums)]
    return Arc(spec.d, den, tuple((bj, tuple(s for _, s in form)) for bj, form in itertools.groupby(slots, itemgetter(0))))


def arc_slots(arc: Arc) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """(D, ((b_j, i, n_ij), ...)): the arc's denominator and its slots in
    one tuple, ascending by weight and then by variable."""
    return arc.den, tuple((bj, i, n_ij) for bj, form in arc.by_weight for i, n_ij in form)


def power_sums_two_runs(m_max: int) -> bool:
    """The identity scan's power-sum verdict for orders 0..m_max: per
    order, signed_power_sums from node 0 against m! * [j == m] at every j,
    and from node 1 at every j >= 1."""
    return all(
        signed_power_sums(m, include_zero)[low:] == ([0] * m + [math.factorial(m)])[low:]
        for m in range(m_max + 1)
        for include_zero, low in ((True, 0), (False, 1))
    )
