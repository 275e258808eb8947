"""Construction and verification of breadth-one derivative-closed bases.

A derivative-closed (D-invariant) subspace of polynomials is one closed
under every partial derivative.  Breadth one means its basis contains a
single linear element, normalized here to x1.  This module builds graded
bases {B_0, ..., B_N} of such spaces four independent ways:

  * build_recursive: degree-by-degree recursion driven by antiderivatives
    of the lower-degree elements (parameterized by a ParamTable),
  * build_explicit: a closed-form sum over weighted compositions for the
    same parameters, sharing no code with the recursion,
  * build_generating: a wider family parameterized by a weight vector b
    and coefficient vectors c (GeneralSpec), the t^m coefficients B_m of
    exp(sum_i x_i * sum_j c_ij * t^(b_j)), built by the recurrence that
    differentiating in t gives; the ParamTable family is the
    specialization b = (1, 2, ..., n), c_1 = e_1, c_s = (0, a_{2,s}, ...),
    so this builder takes either spec through its weights (b, c),
  * build_general: the same GeneralSpec family as a closed-form sum over
    weighted compositions, kept as the oracle for build_generating.

It also provides the exact verifiers used by the test suite and CLI:
span membership, derivative-closure reports, breadth, and degrees.

Values cross the API as Fractions.  The generating recurrence and the
closure check compute on integer numerators over a common denominator
(linalg.common_denominator) and build each output Fraction once, at the
end; the Fraction versions of both are kept as test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .compositions import weighted_compositions
from .linalg import common_denominator, rref, solve
from .poly import Polynomial, json_array, json_int, json_rational


@dataclass(frozen=True)
class ParamTable:
    """Parameters a[(i, j)] of the recursive construction.

    d is the number of variables (>= 2), n the top degree (>= 1).  The
    entry a[(i, j)] is the coefficient attached to degree i and variable
    j, for 2 <= i <= n and 2 <= j <= d; absent entries read as zero.
    """

    d: int
    n: int
    a: Mapping[tuple[int, int], Fraction]

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"need d >= 2, got {self.d}")
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        clean: dict[tuple[int, int], Fraction] = {}
        for (i, j), v in self.a.items():
            if not (2 <= i <= self.n and 2 <= j <= self.d):
                raise ValueError(f"parameter index ({i},{j}) outside 2..{self.n} x 2..{self.d}")
            v = Fraction(v)
            if v != 0:
                clean[(i, j)] = v
        object.__setattr__(self, "a", clean)

    def get(self, i: int, j: int) -> Fraction:
        if not (2 <= i <= self.n and 2 <= j <= self.d):
            raise ValueError(f"parameter index ({i},{j}) outside 2..{self.n} x 2..{self.d}")
        return self.a.get((i, j), Fraction(0))

    @cached_property
    def weights(self) -> tuple[tuple[int, ...], tuple[tuple[Fraction, ...], ...]]:
        """The (b, c) of the generating identity: b = (1, 2, ..., n),
        c_1 = (1, 0, ..., 0), c_s = (0, a[2,s], ..., a[n,s]); n = 1 included.
        Built on first access and kept (the table is immutable)."""
        n, zero = self.n, Fraction(0)
        rows = [(Fraction(1),) + (zero,) * (n - 1)]
        for s in range(2, self.d + 1):
            rows.append((zero,) + tuple(self.a.get((i, s), zero) for i in range(2, n + 1)))
        return tuple(range(1, n + 1)), tuple(rows)

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "a": {f"{i},{j}": str(v) for (i, j), v in sorted(self.a.items())},
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> ParamTable:
        try:
            d = json_int(data["d"], "d")
            n = json_int(data["n"], "n")
            a = {}
            for key, v in data.get("a", {}).items():
                i_s, j_s = str(key).split(",")
                a[(int(i_s), int(j_s))] = json_rational(v)
        except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed parameter table: {exc}") from exc
        return cls(d=d, n=n, a=a)


@dataclass(frozen=True)
class GeneralSpec:
    """Inputs of the general construction.

    b is a strictly increasing integer weight vector with b[0] == 1 and
    b[1] >= 2; c holds d coefficient vectors of length n whose first
    coordinates are not all zero (otherwise no linear element would be
    produced and the construction degenerates).
    """

    n: int
    d: int
    b: tuple[int, ...]
    c: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if self.d < 1:
            raise ValueError(f"need d >= 1, got {self.d}")
        b = tuple(int(v) for v in self.b)
        if len(b) != self.n:
            raise ValueError(f"b has length {len(b)}, expected {self.n}")
        if b[0] != 1:
            raise ValueError(f"b[0] must be 1, got {b[0]}")
        if b[1] < 2:
            raise ValueError(f"b[1] must be >= 2, got {b[1]}")
        if any(b[k] >= b[k + 1] for k in range(1, self.n - 1)):
            raise ValueError(f"b must be strictly increasing from slot 2, got {b}")
        c = tuple(tuple(Fraction(v) for v in row) for row in self.c)
        if len(c) != self.d:
            raise ValueError(f"c has {len(c)} vectors, expected {self.d}")
        for row in c:
            if len(row) != self.n:
                raise ValueError(f"c vector has length {len(row)}, expected {self.n}")
        if all(row[0] == 0 for row in c):
            raise ValueError("first coordinates of the c vectors must not all be zero")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def top_weight(self) -> int:
        return self.b[-1]

    @property
    def weights(self) -> tuple[tuple[int, ...], tuple[tuple[Fraction, ...], ...]]:
        """The (b, c) of the generating identity, as given."""
        return self.b, self.c

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "b": list(self.b),
            "c": [[str(v) for v in row] for row in self.c],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> GeneralSpec:
        try:
            n = json_int(data["n"], "n")
            d = json_int(data["d"], "d")
            b = tuple(json_int(v, "b entry") for v in json_array(data["b"], "b"))
            c = tuple(tuple(json_rational(v) for v in json_array(row, "c row")) for row in json_array(data["c"], "c"))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed general spec: {exc}") from exc
        return cls(n=n, d=d, b=b, c=c)


@dataclass(frozen=True)
class BasisSequence:
    """A graded basis: element k is exactly of total degree k, element 0
    is the constant 1.  Implies linear independence, so the sequence spans
    a space of dimension len(elements)."""

    elements: tuple[Polynomial, ...]

    def __post_init__(self):
        elems = tuple(self.elements)
        if not elems:
            raise ValueError("empty basis")
        dim = elems[0].dim
        if any(p.dim != dim for p in elems):
            raise ValueError("basis elements must share one dimension")
        if elems[0] != Polynomial.constant(dim, 1):
            raise ValueError(f"element 0 must be the constant 1, got {elems[0]!r}")
        for k, p in enumerate(elems):
            if p.degree != k:
                raise ValueError(f"element {k} has degree {p.degree}, expected {k}")
        object.__setattr__(self, "elements", elems)

    @property
    def dim(self) -> int:
        return self.elements[0].dim

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, k: int) -> Polynomial:
        return self.elements[k]

    def __iter__(self) -> Iterator[Polynomial]:
        return iter(self.elements)

    def to_list(self) -> list[dict]:
        return [p.to_dict() for p in self.elements]

    @classmethod
    def from_list(cls, data: Sequence[Mapping]) -> BasisSequence:
        return cls(tuple(Polynomial.from_dict(item) for item in data))


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


def build_general(spec: GeneralSpec) -> BasisSequence:
    """The general family: element m sums, over all weight-m solutions,
    the monomial x1^|row 1| ... xd^|row d| with coefficient
    prod c[i][j]^counts[i][j] / counts[i][j]!  (0**0 == 1).

    A positive count on a zero c[i][j] makes the product vanish, so only
    the slots with c[i][j] != 0 are enumerated (never none: some c[i][0]
    is nonzero).  This enumeration is the oracle for build_generating,
    which builds the same basis by recurrence."""
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


def _generating_elements(b: Sequence[int], c: Sequence[Sequence[Fraction]], top: int) -> list[Polynomial]:
    """B_0..B_top of the weights (b, c).  Differentiating
    G = exp(sum_j L_j(x) * t^(b_j)), L_j = sum_i c_ij * x_i, in t gives

        m * B_m = sum_{j: b_j <= m} b_j * L_j(x) * B_{m - b_j},

    so each element multiplies linear forms into earlier ones, with B_0 = 1.

    The recurrence runs on integers: with D the lcm of the denominators of
    c and N_j = D * L_j, E_m = m! * D^m * B_m has integer coefficients and

        E_m = sum_{j: b_j <= m} b_j * ff(m-1, b_j-1) * D^(b_j-1) * N_j(x) * E_{m - b_j},

    ff(m-1, b_j-1) = (m-1)! / (m-b_j)!.  Each coefficient of B_m is then
    one Fraction, E_m[e] / (m! * D^m)."""
    d, n = len(c), len(b)
    den, num = common_denominator([v for row in c for v in row])
    # (b_j, [(i, n_ij) for n_ij != 0]) per weight slot up to top with a nonzero N_j.
    forms = []
    for j, bj in enumerate(b):
        form = [(i, num[i * n + j]) for i in range(d) if num[i * n + j]]
        if bj <= top and form:
            forms.append((bj, form))
    elems: list[dict[tuple[int, ...], int]] = [{(0,) * d: 1}]
    for m in range(1, top + 1):
        acc: dict[tuple[int, ...], int] = {}
        for bj, form in forms:
            if bj > m:
                break
            k = bj * math.perm(m - 1, bj - 1) * den ** (bj - 1)
            scaled = [(i, k * w) for i, w in form]
            for e, coef in elems[m - bj].items():
                for i, w in scaled:
                    key = e[:i] + (e[i] + 1,) + e[i + 1:]
                    acc[key] = acc.get(key, 0) + w * coef
        elems.append({e: v for e, v in acc.items() if v})
    out = []
    for m, terms in enumerate(elems):
        scale = math.factorial(m) * den ** m
        out.append(Polynomial(d, {e: Fraction(v, scale) for e, v in terms.items()}, _trusted=True))
    return out


def build_generating(spec: ParamTable | GeneralSpec) -> BasisSequence:
    """The basis of either spec kind by the generating recurrence over its
    weights (b, c).  Equal termwise to build_general, which enumerates the
    same coefficients as a sum over weighted compositions."""
    b, c = spec.weights
    return BasisSequence(tuple(_generating_elements(b, c, b[-1])))


def build_recursive(params: ParamTable) -> BasisSequence:
    """Degree-by-degree recursion.  B_0 = 1, B_1 = x1, and for k >= 2

        B_k = V_k + sum_j a[k,j] * x_j,
        V_k = I_1(B_{k-1}) + sum_j I_j(part of M_j free of x1..x_{j-1}),
        M_j = a[2,j]*B_{k-2} + ... + a[k-1,j]*B_1,

    where I_j is the monomial-wise antiderivative in x_j and j runs over
    2..d."""
    d, n = params.d, params.n
    elems = [Polynomial.constant(d, 1), Polynomial.variable(d, 1)]
    for k in range(2, n + 1):
        v = elems[k - 1].integrate(1)
        for j in range(2, d + 1):
            m_j = Polynomial.zero(d)
            for i in range(2, k):
                coef = params.get(i, j)
                if coef:
                    m_j = m_j + coef * elems[k - i]
            v = v + m_j.free_of_leading(j).integrate(j)
        for j in range(2, d + 1):
            coef = params.get(k, j)
            if coef:
                v = v + coef * Polynomial.variable(d, j)
        elems.append(v)
    return BasisSequence(tuple(elems[: n + 1]))


def build_explicit(params: ParamTable) -> BasisSequence:
    """Closed-form construction for the same family as build_recursive.

    Element k sums over all (g, {g[s,j]}) with g + sum_j j*g[s,j] == k
    (g >= 0 attached to x1; s over variables 2..d, j over degrees 2..n)
    the monomial x1^g * prod_s x_s^(sum_j g[s,j]) with coefficient
    prod a[j,s]^g[s,j] / (g! * prod g[s,j]!).

    A positive g[s,j] on a zero a[j,s] makes the product vanish, so only the
    slots with a[j,s] != 0 are enumerated.

    Deliberately shares no construction code with build_recursive: the
    termwise equality of the two outputs is a cross-check, not a tautology.
    """
    d, n = params.d, params.n
    slots: list[tuple[int, int]] = [
        (s, j) for s in range(2, d + 1) for j in range(2, n + 1) if params.get(j, s) != 0
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
                    coef *= params.get(j, s) ** g
                    coef /= math.factorial(g)
            exps = [g1] + [0] * (d - 1)
            for (s, _), g in zip(slots, rest):
                exps[s - 1] += g
            key = tuple(exps)
            terms[key] = terms.get(key, Fraction(0)) + coef
        elems.append(Polynomial(d, terms))
    return BasisSequence(tuple(elems))


def specialize(params: ParamTable) -> GeneralSpec:
    """The GeneralSpec of the table's weights, whose construction reproduces
    the ParamTable family.  Needs n >= 2 (GeneralSpec has no n = 1 instance)."""
    if params.n < 2:
        raise ValueError("specialization needs n >= 2")
    b, c = params.weights
    return GeneralSpec(n=params.n, d=params.d, b=b, c=c)


def span_contains(basis: Sequence[Polynomial], p: Polynomial) -> list[Fraction] | None:
    """Exact coordinates of p in the given spanning set, or None if p is
    not in the span.  Solved over the union of monomial supports; free
    coordinates (from dependent spanning sets) are returned as zero."""
    basis = list(basis)
    if not basis:
        return [] if p.is_zero else None
    if any(q.dim != p.dim for q in basis):
        raise ValueError("dimension mismatch between basis and candidate")
    support = sorted(set().union(*(q.terms.keys() for q in basis), p.terms.keys()))
    a_rows = [[q.coeff(e) for q in basis] for e in support]
    rhs = [p.coeff(e) for e in support]
    return solve(a_rows, rhs)


@dataclass(frozen=True)
class ClosureReport:
    """Result of the derivative-identity check.  violations holds (k, j)
    pairs: the derivative of element k with respect to x_j was not the
    predicted combination."""

    ok: bool
    violations: tuple[tuple[int, int], ...]

    def to_dict(self) -> dict:
        return {"ok": self.ok, "violations": [list(v) for v in self.violations]}


def check_closure(basis: BasisSequence, spec: ParamTable | GeneralSpec) -> ClosureReport:
    """Exact derivative identities of the generating function
    G = exp(sum_i x_i * sum_j c_ij * t^(b_j)), whose t^m coefficient is B_m.
    Since dG/dx_i = (sum_j c_ij * t^(b_j)) * G,

        d(B_m)/dx_i == sum_{j: b_j <= m} c_ij * B_{m - b_j}

    for every m >= 1 and every variable i, read from the spec's weights.
    Raises ValueError unless the basis has b_n + 1 elements in the spec's d
    variables.

    Checked on integers: with B_k = P_k / s_k (s_k the lcm of B_k's
    denominators) and c_ij = n_ij / D, both sides of each identity are
    multiplied by L = lcm(s_m, D * s_{m-b_j} over its slots), and (m, i)
    is a violation iff L/s_m * d(P_m)/dx_i differs from
    sum_j n_ij * L/(D * s_{m-b_j}) * P_{m-b_j}.
    """
    b, c = spec.weights
    top = b[-1]
    if len(basis) != top + 1:
        raise ValueError(f"basis has {len(basis)} elements, the spec needs {top + 1}")
    if basis.dim != len(c):
        raise ValueError(f"basis has dimension {basis.dim}, the spec needs {len(c)}")
    n = len(b)
    den, num = common_denominator([v for row in c for v in row])
    ints = []  # (s_k, P_k) per element
    for p in basis:
        s, nums = common_denominator(p.terms.values())
        ints.append((s, dict(zip(p.terms, nums))))
    bad: list[tuple[int, int]] = []
    for m in range(1, top + 1):
        s_m, p_m = ints[m]
        for i in range(len(c)):
            slots = [(num[i * n + j], *ints[m - bj]) for j, bj in enumerate(b) if bj <= m and num[i * n + j]]
            scale = s_m
            for _, s, _ in slots:
                scale = math.lcm(scale, den * s)
            acc: dict[tuple[int, ...], int] = {}
            k = scale // s_m
            for e, v in p_m.items():
                ei = e[i]
                if ei:
                    acc[e[:i] + (ei - 1,) + e[i + 1:]] = k * ei * v
            for n_ij, s, p in slots:
                k = n_ij * (scale // (den * s))
                for e, v in p.items():
                    acc[e] = acc.get(e, 0) - k * v
            if any(acc.values()):
                bad.append((m, i + 1))
    return ClosureReport(ok=not bad, violations=tuple(bad))


def breadth(basis: Sequence[Polynomial]) -> int:
    """Number of independent linear (degree-exactly-1) directions in the
    span: dim(span intersect {degree <= 1}) - 1.

    Requires the constant 1 to lie in the span (every derivative-closed
    space containing a nonzero element has it); raises ValueError if not.

    One reduction gives both ranks and the membership of 1.  The basis x
    support matrix is put in reduced row echelon form with its columns in
    descending total degree, so the degree >= 2 columns form a prefix and
    the constant column comes last.  The rank of a column prefix is its
    pivot count: the span has dimension len(pivots), and its intersection
    with {degree <= 1} dimension len(pivots) minus the pivots in degree >= 2
    columns.  The constant 1 lies in the span iff the constant column is a
    pivot column: the row holding that pivot is then exactly 1, and
    otherwise every vector of the span that vanishes on all pivot columns
    is zero.
    """
    basis = list(basis)
    if not basis:
        raise ValueError("empty basis")
    dim = basis[0].dim
    if any(q.dim != dim for q in basis):
        raise ValueError("basis elements must share one dimension")
    support = sorted(set().union(*(q.terms.keys() for q in basis)), key=lambda e: (-sum(e), e))
    _, pivots = rref([[q.coeff(e) for e in support] for q in basis])
    if not pivots or sum(support[pivots[-1]]) != 0:
        raise ValueError("span does not contain the constant 1")
    r_high = sum(1 for col in pivots if sum(support[col]) >= 2)
    return len(pivots) - r_high - 1


def degrees(basis: Iterable[Polynomial]) -> tuple[int, ...]:
    """Total degree of each element, in order."""
    return tuple(p.degree for p in basis)
