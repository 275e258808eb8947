"""Construction and verification of breadth-one derivative-closed bases.

A derivative-closed (D-invariant) subspace of polynomials is one closed
under every partial derivative.  Breadth one means its basis contains a
single linear element, normalized here to x1.  The bases built here are
the t^m coefficients B_m of exp(sum_i x_i * sum_j c_ij * t^(b_j)) for a
weight vector b and coefficient vectors c, which one GeneralSpec holds.
A parameter table is the case b = (1, 2, ..., n), c_1 = e_1,
c_s = (0, a_{2,s}, ...): ParamTable builds that spec, and .a reads a spec
of that shape back as a table.  Everything reads the weights through
.slots, every nonzero c_ij as an integer n_ij over one denominator D,
sorted by weight.  Three independent constructions build the graded bases
{B_0, ..., B_N}:

  * build_recursive: degree-by-degree recursion driven by antiderivatives
    of the lower-degree elements (specs of table shape only), run on
    integer numerators over one scale per element,
  * build_general (also named build_explicit): one closed-form walk,
    _closed_form_elements, over the count vectors of the nonzero c_ij,
    summing prod (c_ij * x_i)^(g_ij) / g_ij!.  It shares no code with the
    recursion or the recurrence,
  * build_generating: the recurrence m*B_m = sum_j b_j * L_j(x) * B_{m-b_j}
    that differentiating in t gives; build_general is kept as its oracle.

It also provides the exact verifiers used by the test suite and CLI:
derivative-closure reports, breadth, and degrees.

Values cross the API as Fractions.  The recursion, the closed-form
enumeration, the generating recurrence, the closure check and breadth
compute on integer numerators over a common denominator
(linalg.common_denominator), and the builders build each output Fraction
once, at the end; the Fraction versions of the three builders and of the
closure check are kept as test oracles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .linalg import common_denominator, echelon
from .poly import Polynomial, json_array, json_int, json_rational


# What GeneralSpec.a needs to read a spec as a parameter table.
TABLE_SHAPE = "d >= 2, b = 1..n, and c_11 = 1 the only nonzero entry of x1 and of weight 1"


@dataclass(frozen=True, init=False)
class GeneralSpec:
    """The weights (b, c) of the generating identity: B_m is the t^m
    coefficient of exp(sum_i x_i * sum_j c_ij * t^(b_j)).

    b is a strictly increasing integer weight vector with b[0] == 1, of
    length n >= 1; c holds d >= 1 coefficient vectors of length n whose
    first coordinates are not all zero (otherwise no linear element would
    be produced and the construction degenerates).

    Stored are d, b (as range(1, n + 1) when b is 1..n) and entries, the
    (j, i, c_ij) of every nonzero c_ij, 0-based slot j and variable i, in
    ascending order; n, top_weight, slots and the dense c derive from them,
    so equal specs compare equal however they were written.  A parameter
    table is a spec of table shape (TABLE_SHAPE), read back by .a.
    """

    d: int
    b: Sequence[int]
    entries: tuple[tuple[int, int, Fraction], ...]

    def __init__(self, n: int, d: int, b: Iterable[int], c: Iterable[Iterable[Fraction | int]]):
        b = tuple(int(v) for v in b)
        if len(b) != n:
            raise ValueError(f"b has length {len(b)}, expected {n}")
        c = tuple(tuple(Fraction(v) for v in row) for row in c)
        if len(c) != d:
            raise ValueError(f"c has {len(c)} vectors, expected {d}")
        for row in c:
            if len(row) != n:
                raise ValueError(f"c vector has length {len(row)}, expected {n}")
        self._store(d, b, [(j, i, v) for j in range(n) for i, row in enumerate(c) if (v := row[j])])

    def _store(self, d: int, b: Sequence[int], entries: Iterable[tuple[int, int, Fraction]]) -> None:
        """Validate and keep d, b and the nonzero entries (j, i, c_ij), whose
        indices the caller has put in range."""
        if d < 1:
            raise ValueError(f"need d >= 1, got {d}")
        if len(b) < 1:
            raise ValueError(f"need n >= 1, got {len(b)}")
        if b[0] != 1:
            raise ValueError(f"b[0] must be 1, got {b[0]}")
        # A range(1, n + 1) is 1..n already; only other weights are read.
        if not isinstance(b, range):
            if any(u >= v for u, v in zip(b, b[1:])):
                raise ValueError(f"b must be strictly increasing, got {b}")
            if b[-1] == len(b):
                b = range(1, len(b) + 1)
        entries = tuple(sorted(entries))
        if not entries or entries[0][0] != 0:
            raise ValueError("first coordinates of the c vectors must not all be zero")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return len(self.b)

    @property
    def top_weight(self) -> int:
        return self.b[-1]

    @cached_property
    def slots(self) -> tuple[int, tuple[tuple[int, int, int], ...]]:
        """(D, ((b_j, i, n_ij), ...)): every nonzero c_ij as n_ij / D, D the
        lcm of the denominators of c, sorted by weight b_j and then by the
        0-based variable i.  Built on first access from the entries alone,
        so a table's n may be far larger than its input."""
        den, nums = common_denominator(v for _, _, v in self.entries)
        return den, tuple((self.b[j], i, n_ij) for (j, i, _), n_ij in zip(self.entries, nums))

    @cached_property
    def c(self) -> tuple[tuple[Fraction, ...], ...]:
        """The d dense coefficient vectors of length n."""
        rows = [[Fraction(0)] * self.n for _ in range(self.d)]
        for j, i, v in self.entries:
            rows[i][j] = v
        return tuple(map(tuple, rows))

    @cached_property
    def a(self) -> dict[tuple[int, int], Fraction] | None:
        """The table view {(i, j): a_ij}: entry a_ij = c_ji is attached to
        degree i and variable j, for 2 <= i <= n and 2 <= j <= d, absent
        entries reading as zero.  None unless the spec has table shape."""
        first = [e for e in self.entries if 0 in e[:2]]  # the entries of x1 or of weight 1
        if self.d < 2 or not isinstance(self.b, range) or first != [(0, 0, 1)]:
            return None
        return {(j + 1, i + 1): v for j, i, v in self.entries[1:]}

    def to_dict(self) -> dict:
        """The table form {"d", "n", "a"} for a spec of table shape, the
        general form {"n", "d", "b", "c"} otherwise."""
        if self.a is not None:
            return {"d": self.d, "n": self.n, "a": {f"{i},{j}": str(v) for (i, j), v in self.a.items()}}
        return {"n": self.n, "d": self.d, "b": list(self.b), "c": [[str(v) for v in row] for row in self.c]}

    @classmethod
    def from_dict(cls, data: Mapping) -> GeneralSpec:
        """Either JSON form: an object with a "b" or "c" key is a general
        spec, any other a parameter table."""
        general = "b" in data or "c" in data
        try:
            n = json_int(data["n"], "n")
            d = json_int(data["d"], "d")
            if general:
                b = tuple(json_int(v, "b entry") for v in json_array(data["b"], "b"))
                rows = json_array(data["c"], "c")
                c = tuple(tuple(json_rational(v) for v in json_array(row, "c row")) for row in rows)
            else:
                a = {}
                for key, v in data.get("a", {}).items():
                    i_s, j_s = str(key).split(",")
                    a[(int(i_s), int(j_s))] = json_rational(v)
        except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed {'general spec' if general else 'parameter table'}: {exc}") from exc
        return cls(n=n, d=d, b=b, c=c) if general else ParamTable(d=d, n=n, a=a)


def ParamTable(d: int, n: int, a: Mapping[tuple[int, int], Fraction | int]) -> GeneralSpec:
    """The spec of a parameter table: d >= 2 variables, top degree n >= 1,
    and a[(i, j)] the coefficient attached to degree i and variable j, for
    2 <= i <= n and 2 <= j <= d (absent entries read as zero).  Its weights
    are b = (1, ..., n), c_1 = e_1 and c_s = (0, a[2,s], ..., a[n,s]).
    Reads only the entries of a, never 1..n."""
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    entries = [(0, 0, Fraction(1))]
    for (i, j), v in a.items():
        if not (2 <= i <= n and 2 <= j <= d):
            raise ValueError(f"parameter index ({i},{j}) outside 2..{n} x 2..{d}")
        if v := Fraction(v):
            entries.append((i - 1, j - 1, v))
    spec = object.__new__(GeneralSpec)
    spec._store(d, range(1, n + 1), entries)
    return spec


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


def _closed_form_elements(spec: GeneralSpec, top: int) -> list[Polynomial]:
    """B_0..B_top of the spec's weights (b, c) as the closed-form sum

        B_m = [t^m] prod_{(i, j): c_ij != 0} exp(c_ij * x_i * t^(b_j))
            = sum_g prod_{i, j} (c_ij * x_i)^(g_ij) / g_ij!,

    over the count vectors g >= 0 on the nonzero slots with weight
    sum g_ij * b_j == m (a positive count on a zero c_ij would make the
    product vanish, so those slots are never enumerated): the walk reads
    spec.slots, which orders them by weight.

    One depth-first walk visits every g of weight <= top exactly once: a
    node is a count vector, and its children give one slot after its last
    nonzero one a positive count, so the visits number
    compositions.count_compositions(top, weights of the nonzero slots).
    The walk carries the prefix products down: prod n_ij^g_ij (c_ij =
    n_ij / D, D the lcm of the denominators of c), prod g_ij!, the
    exponent vector and G = sum g.  With m! * D^m * B_m integral, each
    node adds the integer prod n^g * D^(m-G) * (m! // prod g!) to element
    m, and each coefficient of B_m is then one Fraction, that sum over
    m! * D^m."""
    d = spec.d
    den, slots = spec.slots
    fact = [math.factorial(m) for m in range(top + 1)]
    den_pow = [den ** k for k in range(top + 1)]
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
    out = []
    for m, terms in enumerate(elems):
        scale = fact[m] * den_pow[m]
        out.append(Polynomial(d, {e: Fraction(v, scale) for e, v in terms.items() if v}, _trusted=True))
    return out


def build_general(spec: GeneralSpec) -> BasisSequence:
    """The basis as the closed-form sum over weighted compositions
    (_closed_form_elements on the spec's weights).  It is the oracle for
    build_generating, which builds the same basis by recurrence, and, as
    build_explicit, for build_recursive on a table."""
    return BasisSequence(tuple(_closed_form_elements(spec, spec.top_weight)))


# The closed form of a table: element k sums over all (g, {g[s,j]}) with
# g + sum_j j*g[s,j] == k the monomial x1^g * prod_s x_s^(sum_j g[s,j])
# with coefficient prod a[j,s]^g[s,j] / (g! * prod g[s,j]!).  It shares no
# construction code with build_recursive, so the termwise equality of the
# two outputs is a cross-check, not a tautology.
build_explicit = build_general


def _generating_elements(spec: GeneralSpec, top: int) -> list[Polynomial]:
    """B_0..B_top of the spec's weights (b, c).  Differentiating
    G = exp(sum_j L_j(x) * t^(b_j)), L_j = sum_i c_ij * x_i, in t gives

        m * B_m = sum_{j: b_j <= m} b_j * L_j(x) * B_{m - b_j},

    so each element multiplies linear forms into earlier ones, with B_0 = 1.

    The recurrence runs on integers: with D the lcm of the denominators of
    c and N_j = D * L_j, E_m = m! * D^m * B_m has integer coefficients and

        E_m = sum_{j: b_j <= m} b_j * ff(m-1, b_j-1) * D^(b_j-1) * N_j(x) * E_{m - b_j},

    ff(m-1, b_j-1) = (m-1)! / (m-b_j)!.  Each coefficient of B_m is then
    one Fraction, E_m[e] / (m! * D^m)."""
    d = spec.d
    den, slots = spec.slots
    # (b_j, [(i, n_ij) for n_ij != 0]) per weight with a nonzero N_j.
    forms = [(bj, [(i, n_ij) for _, i, n_ij in form]) for bj, form in itertools.groupby(slots, itemgetter(0))]
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


def build_generating(spec: GeneralSpec) -> BasisSequence:
    """The basis by the generating recurrence over the spec's weights
    (b, c).  Equal termwise to build_general, which enumerates the
    same coefficients as a sum over weighted compositions."""
    return BasisSequence(tuple(_generating_elements(spec, spec.top_weight)))


def _exact_div(a: int, b: int) -> int:
    """a / b where b divides a, as the recursion's scales guarantee."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"{b} does not divide {a}")
    return q


def _recursive_numerators(params: GeneralSpec) -> list[tuple[int, dict[tuple[int, ...], int]]]:
    """(S_k, P_k) with B_k = P_k / S_k for k = 0..n, by the recursion of
    build_recursive on integers.  S_k > 0 has no factor common to all of
    P_k's integer numerators, so S_k is the lcm of B_k's denominators."""
    d, n = params.d, params.n
    den, slots = params.slots
    num = {(i, j): n_ij for i, j, n_ij in slots[1:]}  # a[i, j + 1] = num[i, j] / den
    units = [tuple(int(t == v) for t in range(d)) for v in range(d)]
    elems = [(1, {(0,) * d: 1}), (1, {units[0]: 1})]

    def by_lead(p: dict[tuple[int, ...], int]) -> list[list[tuple[tuple[int, ...], int]]]:
        """The (e, v) of p in buckets by the index of e's first nonzero
        exponent (d for the constant): the part free of x1..x_j is [j:]."""
        buckets: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(d + 1)]
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
        # e_j + 1 <= k for every term, so each lcm_k / (e_j + 1) is exact.
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
        g = s_k
        for v in acc.values():
            if v:
                g = math.gcd(g, v)
                if g == 1:
                    break
        p_k = {e: v // g for e, v in acc.items() if v}
        elems.append((s_k // g, p_k))
        leads.append(by_lead(p_k))
    return elems[: n + 1]


def build_recursive(params: GeneralSpec) -> BasisSequence:
    """Degree-by-degree recursion.  B_0 = 1, B_1 = x1, and for k >= 2

        B_k = V_k + sum_j a[k,j] * x_j,
        V_k = I_1(B_{k-1}) + sum_j I_j(part of M_j free of x1..x_{j-1}),
        M_j = a[2,j]*B_{k-2} + ... + a[k-1,j]*B_1,

    where I_j is the monomial-wise antiderivative in x_j and j runs over
    2..d.

    Run on integers (_recursive_numerators): each element is B_k = P_k / S_k
    and each entry a[i,j] = n_ij / D over the table's common denominator D.
    With L = lcm(S_{k-1}, D * S_{k-i} for 2 <= i < k, D), L times every
    summand of B_k before integration is integral, and

        S_k = L * lcm(1..k)

    makes every antiderivative exact as well: a term of B_{k-1} or M_j has
    degree at most k - 1, so its divisor e_j + 1 is at most k and divides
    lcm(1..k).  Each P_k is then divided by its gcd with S_k, and each
    coefficient of B_k is one Fraction, P_k[e] / S_k, built at the end.
    Shares no code with the closed-form walk or the generating recurrence
    apart from the table's slots.  Raises ValueError unless the spec has
    table shape (.a is not None)."""
    if params.a is None:
        raise ValueError(f"the recursion needs a spec of table shape ({TABLE_SHAPE})")
    d = params.d
    return BasisSequence(tuple(
        Polynomial(d, {e: Fraction(v, s) for e, v in p.items()}, _trusted=True)
        for s, p in _recursive_numerators(params)
    ))


def specialize(spec: GeneralSpec) -> GeneralSpec:
    """The spec itself: a parameter table is a GeneralSpec already.  Kept
    only for bench/workloads.py, which still calls it."""
    return spec


@dataclass(frozen=True)
class ClosureReport:
    """Result of the derivative-identity check.  violations holds (k, j)
    pairs: the derivative of element k with respect to x_j was not the
    predicted combination."""

    ok: bool
    violations: tuple[tuple[int, int], ...]

    def to_dict(self) -> dict:
        return {"ok": self.ok, "violations": [list(v) for v in self.violations]}


def check_closure(basis: BasisSequence, spec: GeneralSpec) -> ClosureReport:
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
    top, d = spec.top_weight, spec.d
    if len(basis) != top + 1:
        raise ValueError(f"basis has {len(basis)} elements, the spec needs {top + 1}")
    if basis.dim != d:
        raise ValueError(f"basis has dimension {basis.dim}, the spec needs {d}")
    den, slots = spec.slots
    by_var = [[(bj, n_ij) for bj, v, n_ij in slots if v == i] for i in range(d)]
    ints = []  # (s_k, P_k) per element
    for p in basis:
        s, nums = common_denominator(p.terms.values())
        ints.append((s, dict(zip(p.terms, nums))))
    bad: list[tuple[int, int]] = []
    for m in range(1, top + 1):
        s_m, p_m = ints[m]
        for i in range(d):
            terms = [(n_ij, *ints[m - bj]) for bj, n_ij in by_var[i] if bj <= m]
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


def breadth(basis: Sequence[Polynomial]) -> int:
    """Number of independent linear (degree-exactly-1) directions in the
    span: dim(span intersect {degree <= 1}) - 1.

    Requires the constant 1 to lie in the span (every derivative-closed
    space containing a nonzero element has it); raises ValueError if not.

    The elements' integer numerators go through linalg.echelon with the
    monomials in descending total degree.  A row with a lead of degree <= 1
    vanishes in degree >= 2, and the rows with leads of degree >= 2 stay
    independent there, so the leads of degree <= 1 count the dimension of
    the span's part of degree <= 1.  1 lies in the span iff the constant,
    the last monomial, is a lead.  A graded basis has distinct leads, one
    per degree, and takes no reduction step.
    """
    basis = list(basis)
    if not basis:
        raise ValueError("empty basis")
    dim = basis[0].dim
    if any(q.dim != dim for q in basis):
        raise ValueError("basis elements must share one dimension")
    leads = echelon(
        (dict(zip(q.terms, common_denominator(q.terms.values())[1])) for q in basis),
        key=lambda e: (-sum(e), e),
    )
    if (0,) * dim not in leads:
        raise ValueError("span does not contain the constant 1")
    return sum(1 for e in leads if sum(e) <= 1) - 1


def degrees(basis: Iterable[Polynomial]) -> tuple[int, ...]:
    """Total degree of each element, in order."""
    return tuple(p.degree for p in basis)
