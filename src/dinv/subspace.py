"""Construction and verification of breadth-one derivative-closed bases.

A derivative-closed (D-invariant) subspace of polynomials is one closed
under every partial derivative.  Breadth one means its basis contains a
single linear element, the tangent of the curve below, any nonzero vector.
Every basis here is read off one curve, an Arc p(t) = (sum_j c_ij *
t^(b_j))_i, held grouped by weight as integers n_ij = c_ij * D over one
denominator D: B_m is the t^m coefficient of exp(<x, p(t)>).  A
GeneralSpec holds the weights (b, c), b_1 = 1, and makes their arc
(.arc); discretize's point schemes rescale it per point.  A parameter
table is the case b = (1, 2, ..., n), c_1 = e_1, c_s = (0, a_{2,s}, ...):
ParamTable builds that spec, and .a reads a spec of that shape back as a
table.  Three independent constructions build the graded bases
{B_0, ..., B_N}, the closed form and the recurrence from any arc:

  * build_recursive: degree-by-degree recursion driven by antiderivatives
    of the lower-degree elements (specs of table shape only), run on
    integer numerators over one scale per element,
  * build_general (also named build_explicit): the closed form
    prod exp(c_ij * x_i * t^(b_j)) as one product over the arc's slots,
    _closed_form_elements, which multiplies in one nonzero c_ij at a time,
    so the count vectors that reach one monomial are summed once.  It
    shares no code with the recursion or the recurrence,
  * build_generating: the recurrence m*B_m = sum_j b_j * L_j(x) * B_{m-b_j}
    that differentiating in t gives; build_general is kept as its oracle.

Each builder returns integer numerators over one scale per element,
keyed by monomial codes, with the codec that packed them (Numerators):
poly.MonomialCodes(d, top) packs an exponent of total degree <= top into
one int in graded-lex order, so multiplying by x_i is one int addition.
A spec's own codec, MonomialCodes(d, b_n), is made once
(GeneralSpec.codes).  The exact verifiers, check_closure_numerators and
breadth_numerators, read the codes through the codec handed with them.
numerator_basis hands each element to Polynomial still keyed by code,
reduced by one gcd fold, so build_* return bases that hold no Fraction
and no exponent tuple.  check_closure and breadth read a basis's codes
when one codec codes them all, and pack any other by a codec whose base
exceeds b_n and every degree.  The Fraction builders and closure check,
and the exponent-tuple kernels, are kept as test oracles.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import neg
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import fuel
from .linalg import echelon
from .poly import MonomialCodes, Polynomial, common_denominator, json_array, json_int, json_ratio


class Numerators(NamedTuple):
    """Elements B_0..B_top as integer numerators B_k = P_k / s_k: elems holds
    (s_k > 0, {code: P_k[e] != 0}), each exponent e packed by codes, whose
    base exceeds every degree.  A builder returns its codec with its
    numerators, so no reader of the codes restates (d, top)."""

    codes: MonomialCodes
    elems: list[tuple[int, dict[int, int]]]


class Arc(NamedTuple):
    """The curve p(t) = (sum_j n_ij / den * t^(b_j))_i in d variables, den > 0:
    by_weight holds (b_j, ((i, n_ij), ...)) per weight b_j >= 1 with a
    nonzero n_ij, ascending, each weight's slots by 0-based variable i.
    Any weights may appear, or none: a spec's arc has b_1 = 1 and a nonzero
    tangent, point 0's no slot, and scheme b's point r none above r."""

    d: int
    den: int
    by_weight: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]

    @property
    def by_var(self) -> list[list[tuple[int, int]]]:
        """Each variable's (b_j, n_ij), ascending by weight."""
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.d)]
        for bj, form in self.by_weight:
            for i, n_ij in form:
                out[i].append((bj, n_ij))
        return out


# What GeneralSpec.a needs to read a spec as a parameter table.
TABLE_SHAPE = "d >= 2, b = 1..n, and c_11 = 1 the only nonzero entry of x1 and of weight 1"


@dataclass(frozen=True, init=False)
class GeneralSpec:
    """The weights (b, c) of the generating identity: B_m is the t^m
    coefficient of exp(<x, p(t)>), p_i(t) = sum_j c_ij * t^(b_j).

    b is a strictly increasing integer weight vector with b[0] == 1, of
    length n >= 1; c holds d >= 1 coefficient vectors of length n whose
    first coordinates are not all zero (otherwise no linear element would
    be produced and the construction degenerates).

    Stored are d, b (as range(1, n + 1) when b is 1..n) and entries, the
    (j, i, c_ij) of every nonzero c_ij, 0-based slot j and variable i, in
    ascending order; n, top_weight and the dense c derive from them, so
    equal specs compare equal however they were written.  A parameter
    table is a spec of table shape (TABLE_SHAPE), read back by .a.  arc,
    made with the entries and not compared, is the Arc p, D the lcm of the
    denominators of c; it reads the entries alone, so a table's n may be
    far larger than its input.
    """

    d: int
    b: Sequence[int]
    entries: tuple[tuple[int, int, Fraction], ...]

    def __init__(self, n: int, d: int, b: Iterable[int], c: Iterable[Iterable[Fraction | int]]):
        b = tuple(int(v) for v in b)
        # A b of the wrong length is reported before any entry of c is read.
        if len(b) == n:
            c = [[Fraction(v) for v in row] for row in c]
        self._store_dense(n, d, b, c)

    def _store_dense(self, n: int, d: int, b: tuple[int, ...], c: Sequence[Sequence[Fraction | int]]) -> None:
        """Check that b has length n and c holds d vectors of length n, then
        keep c's nonzero entries, Fractions or ints, by _store."""
        if len(b) != n:
            raise ValueError(f"b has length {len(b)}, expected {n}")
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
        if not b:
            raise ValueError("need n >= 1, got 0")
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
        den, nums = common_denominator((v for _, _, v in entries), "reading a spec")
        by_weight = itertools.groupby(zip(entries, nums), lambda slot: slot[0][0])  # the slots of each weight b[j]
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "arc", Arc(d, den, tuple([(b[j], tuple([(i, n) for (_, i, _), n in form])) for j, form in by_weight])))

    @property
    def n(self) -> int:
        """len(b), read from a range's last weight: len() refuses a range
        past sys.maxsize."""
        b = self.b
        return b[-1] if isinstance(b, range) else len(b)

    @property
    def top_weight(self) -> int:
        return self.b[-1]

    @cached_property
    def codes(self) -> MonomialCodes:
        """The codec of B_0..B_{b_n}'s monomials, MonomialCodes(d, b_n),
        made once per spec for its builders."""
        return MonomialCodes(self.d, self.top_weight)

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
        spec, any other a parameter table.  A general spec's c entries are
        read once, by json_ratio, and only the nonzero ones become
        Fractions.  A table whose "a" keys name one entry twice, as "02,2"
        and "2,2" do, is refused."""
        general = "b" in data or "c" in data
        try:
            n = json_int(data["n"], "n")
            d = json_int(data["d"], "d")
            if general:
                b = tuple(json_int(v, "b entry") for v in json_array(data["b"], "b"))
                rows = [json_array(row, "c row") for row in json_array(data["c"], "c")]
                fuel.charge(60 * sum(map(len, rows)), "reading a spec")  # 60 cells an entry
                c = [[Fraction(p, q) if p else 0 for p, q in map(json_ratio, row)] for row in rows]
            else:
                a, named, items = {}, {}, data.get("a", {}).items()
                fuel.charge(60 * len(items), "reading a spec")
                for key, v in items:
                    i_s, j_s = str(key).split(",")
                    ij = (int(i_s), int(j_s))
                    if ij in named:
                        raise ValueError(f"keys {named[ij]!r} and {key!r} both name a[{ij[0]},{ij[1]}]")
                    named[ij] = key
                    a[ij] = Fraction(*json_ratio(v))
        except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed {'general spec' if general else 'parameter table'}: {exc}") from exc
        if not general:
            return ParamTable(d=d, n=n, a=a)
        spec = object.__new__(cls)
        spec._store_dense(n, d, b, c)
        return spec


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
    a space of dimension len(elements).  A built basis's elements are
    coded, and are checked here on their codes."""

    elements: tuple[Polynomial, ...]

    def __post_init__(self):
        elems = tuple(self.elements)
        if not elems:
            raise ValueError("empty basis")
        dim = elems[0].dim
        if any(p.dim != dim for p in elems):
            raise ValueError("basis elements must share one dimension")
        first = elems[0]
        nums, one = (first.numerators, {(0,) * dim: 1}) if first.codes is None else (first.coded, {0: 1})
        if first.scale != 1 or nums != one:
            raise ValueError(f"element 0 must be the constant 1, got {first!r}")
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


def _closed_form_elements(arc: Arc, codes: MonomialCodes, top: int) -> Numerators:
    """B_0..B_top of the arc, keyed by codes (of degree top or more), as the
    closed-form product

        B_m = [t^m] prod_{(i, j): n_ij != 0} exp(n_ij / D * x_i * t^(b_j)),

    multiplied in one slot (b_j, i, n_ij) of the arc at a time, D its
    denominator.  E_w is w! * D^w times the product so far's weight-w part,
    from E_0 = 1.  For each w from top - b_j down to 0
    with E_w non-empty (so E_w is read before the slot adds to it), and
    each g >= 1 with v = w + g*b_j <= top, the slot adds E_w times x_i^g
    and f_g = (n_ij * D^(b_j - 1))^g * v! / (w! * g!) to E_v: count vectors
    that reach one monomial at one weight are summed as they meet.  f_g is
    f_(g-1) times the step n_ij * D^(b_j - 1) and v! / (v - b_j)!, divided
    exactly by g.  Metered, the scales and elements are charged first, in
    one step, and each (w, g) just before it runs, from the integers at hand."""
    den = arc.den
    metered = fuel.metered
    if metered:  # 8 cells an element and a cell per 64 bits of its scale m! * D^m, at most m * (bits of top and of D), in O(1)
        fuel.charge(8 * (top + 1) + (top * (top + 1) // 2 * (top.bit_length() + den.bit_length()) >> 6), "the closed form")
        bits, width = [1] + [0] * top, codes.high.bit_length()  # bounds on the bits of each E_w's numerators; a code's width
    elems: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(top)]
    units = codes.units
    for bj, form in itertools.takewhile(lambda group: group[0] <= top, arc.by_weight):
        for i, n_ij in form:
            u, step = units[i], n_ij * den ** (bj - 1)
            if metered:  # math.perm's v! / (v - b_j)!, a product per bit of b_j on top's bits, times the step
                step_bits, rise = abs(step).bit_length(), bj * top.bit_length()
                perm = fuel.cells(bj.bit_length(), rise, rise) + fuel.cells(1, rise, step_bits)
            for w in range(top - bj, -1, -1):
                source = elems[w]
                if not source:
                    continue
                f, g, shift = 1, 0, 0
                for v in range(w + bj, top + 1, bj):
                    if metered:  # f_g's making from f_(g-1), then 3 per multiply-add of a term of E_w by f_g, a cell per 64 bits of it and its code
                        n, b, by = len(source), bits[w], step_bits + bj * v.bit_length()
                        f_bits = f.bit_length() + by
                        cells = 8 + perm + fuel.cells(1, f_bits, by + 64) + 2 * n + fuel.cells(n, b, f_bits) + n * (b + f_bits + width >> 6)
                        fuel.charge(cells, "the closed form")
                        bits[v] = max(bits[v], b + f_bits) + 1
                    g += 1
                    shift += u
                    f = f * (step * math.perm(v, bj)) // g
                    target = elems[v]
                    get = target.get
                    for e, x in source.items():
                        e += shift
                        target[e] = get(e, 0) + x * f
    # A sum that cancelled to 0 keeps its key; the scan for one is cheap.
    elems = [p if 0 not in p.values() else {e: v for e, v in p.items() if v} for p in elems]
    scales, s = [1], 1
    for m in range(1, top + 1):
        s *= m * den
        scales.append(s)
    return Numerators(codes, list(zip(scales, elems)))


def numerator_basis(nums: Numerators) -> BasisSequence:
    """The BasisSequence of a builder's numerators, each element coded by
    the builder's codec."""
    codes, elems = nums
    return BasisSequence(tuple([Polynomial(codes.d, p, _scale=s, _codes=codes) for s, p in elems]))


def build_general(spec: GeneralSpec) -> BasisSequence:
    """The basis as the closed-form product over the slots of the spec's
    arc (_closed_form_elements).  It is the oracle for build_generating,
    which builds the same basis by recurrence, and, as build_explicit, for
    build_recursive on a table."""
    return numerator_basis(_closed_form_elements(spec.arc, spec.codes, spec.top_weight))


# The closed form of a table, a product over slots: element k sums over all
# (g, {g[s,j]}) with g + sum_j j*g[s,j] == k the monomial x1^g * prod_s
# x_s^(sum_j g[s,j]) with coefficient prod a[j,s]^g[s,j] / (g! * prod g[s,j]!).
# It shares no construction code with build_recursive, so the termwise
# equality of the two outputs is a cross-check, not a tautology.
build_explicit = build_general


def _generating_elements(arc: Arc, codes: MonomialCodes, top: int) -> Numerators:
    """B_0..B_top of the arc, keyed by codes (of degree top or more).  With
    L_j = sum_i n_ij / D * x_i, differentiating G = exp(sum_j L_j(x) * t^(b_j))
    in t gives

        m * B_m = sum_{j: b_j <= m} b_j * L_j(x) * B_{m - b_j},

    so each element multiplies linear forms into earlier ones, with B_0 = 1.

    The recurrence runs on integers: with D the arc's denominator and
    N_j = D * L_j, E_m = m! * D^m * B_m has integer coefficients and

        E_m = sum_{j: b_j <= m} b_j * ff(m-1, b_j-1) * D^(b_j-1) * N_j(x) * E_{m - b_j},

    ff(m-1, b_j-1) = (m-1)! / (m-b_j)!, and B_m is E_m over the scale
    m! * D^m.  Multiplying by x_i adds its unit to a code."""
    units, den = codes.units, arc.den
    # (b_j, [(unit of x_i, n_ij)]) per weight of the arc.
    forms = [(bj, [(units[i], n_ij) for i, n_ij in form]) for bj, form in arc.by_weight]
    elems = [(1, {0: 1})]
    metered = fuel.metered
    # The mean bits of each element's numerators, a code's width, and each N_j's largest n_ij's bits, when metered.
    sizes, den_bits, width = [1], den.bit_length(), codes.high.bit_length()
    if metered:
        n_bits = {bj: max(abs(w).bit_length() for _, w in form) for bj, form in forms}
    for m in range(1, top + 1):
        step = m.bit_length() + den_bits
        if metered:  # the scale's product
            fuel.charge(fuel.cells(1, elems[-1][0].bit_length(), step), "the generating recurrence")
        # One pass over E_(m-b_j) per variable of N_j; the first makes acc.
        acc: dict[int, int] = {}
        for bj, form in forms:
            if bj > m:
                break
            source = elems[m - bj][1]
            if metered:  # making k, then 3 per multiply-add of a term at its mean bits by k times an n_ij, and one per 256 bits of its code
                k_bits = (bj - 1) * step + bj.bit_length()
                ops = len(source) * len(form)
                cells = fuel.cells(1, k_bits, k_bits) + ops * (2 + (width >> 8)) + fuel.cells(ops, sizes[m - bj], k_bits + n_bits[bj])
                fuel.charge(cells, "the generating recurrence")
            k = bj * math.perm(m - 1, bj - 1) * den ** (bj - 1)
            for u, w in form:
                w *= k
                if not acc:
                    acc = {e + u: w * c for e, c in source.items()}
                    continue
                get = acc.get
                for e, c in source.items():
                    e += u
                    acc[e] = get(e, 0) + w * c
        if 0 in acc.values():  # a term cancelled
            acc = {e: v for e, v in acc.items() if v}
        elems.append((elems[-1][0] * m * den, acc))
        if metered:
            sizes.append(_kept(elems[-1], width, "the generating recurrence"))
    return Numerators(codes, elems)


def _kept(elem: tuple[int, dict[int, int]], width: int, stage: str) -> int:
    """Charge an element (s, P) a builder keeps a cell per 64 bits of s, of
    P's numerators and of their codes, each of width bits, so the fuel
    bounds memory; the numerators' mean bits."""
    bits = sum(map(int.bit_length, elem[1].values()))
    fuel.charge((elem[0].bit_length() + bits + len(elem[1]) * width) >> 6, stage)
    return bits // max(len(elem[1]), 1)


def build_generating(spec: GeneralSpec) -> BasisSequence:
    """The basis by the generating recurrence on the spec's arc.  Equal
    termwise to build_general, which multiplies the same coefficients out
    as a product over the arc's slots."""
    return numerator_basis(_generating_elements(spec.arc, spec.codes, spec.top_weight))


def _exact_div(a: int, b: int) -> int:
    """a / b where b divides a, as the recursion's scales guarantee."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"{b} does not divide {a}")
    return q


def _recursive_numerators(params: GeneralSpec) -> Numerators:
    """(S_k, P_k) with B_k = P_k / S_k for k = 0..n, by the recursion of
    build_recursive on integers.  S_k > 0 has no factor common to all of
    P_k's integer numerators, so S_k is the lcm of B_k's denominators.
    The numerators are keyed by params.codes, MonomialCodes(d, n)."""
    d, n, arc = params.d, params.n, params.arc
    # a[i, j + 1] = n_ij / den: its (i, n_ij) per variable j by degree, its (j, n_ij) per degree i; x1's slot is never read.
    den, by_var, by_deg = arc.den, arc.by_var, dict(arc.by_weight)
    codes = params.codes
    base, high, powers, units = codes.base, codes.high, codes.powers, codes.units
    rising = powers[::-1]  # B^0, ..., B^(d-1)
    elems = [(1, {0: 1}), (1, {units[0]: 1})]

    def by_lead(p: dict[int, int]) -> list[list[tuple[int, int]]]:
        """The (code, v) of p in buckets by the index of the first nonzero
        exponent (d for the constant): the part free of x1..x_j is [j:].
        That index is d less the number of powers B^k at most e's digits,
        code % B^d."""
        buckets: list[list[tuple[int, int]]] = [[] for _ in range(d + 1)]
        for e, v in p.items():
            buckets[d - bisect_right(rising, e % high)].append((e, v))
        return buckets

    leads = [by_lead(p) for _, p in elems]
    lcm_k = 1
    metered = fuel.metered
    if metered:  # each element's fixed cost, about 4 us, before the first: a huge n is refused at once
        fuel.charge(40 * (n - 1), "the recursion")
    sizes, width, den_bits = [1, 1], high.bit_length(), den.bit_length()  # the mean bits of each element's numerators; a code's width
    entry_degrees = [i for i in by_deg if i >= 2]  # the degrees i with an entry a[i, j], ascending
    for k in range(2, n + 1):
        s_prev, p_prev = elems[k - 1]
        if metered:  # k divisions of lcm(1..k), d * k lookups and L's first lcm
            fuel.charge(fuel.cells(k, s_prev.bit_length() + den_bits) + d * k + fuel.lcms(1, s_prev.bit_length(), den_bits), "the recursion")
        # L: only the degrees i < k with an entry add a summand D * S_(k-i) to clear.
        scale = math.lcm(s_prev, den)
        for i in entry_degrees[: bisect_right(entry_degrees, k - 1)]:
            s = den * elems[k - i][0]
            if metered:
                fuel.charge(fuel.lcms(1, scale.bit_length(), s.bit_length()), "the recursion")
            scale = math.lcm(scale, s)
        lcm_k = math.lcm(lcm_k, k)
        # e_j + 1 <= k for every term, so each lcm_k / (e_j + 1) is exact.
        inv = [0] + [_exact_div(lcm_k, t) for t in range(1, k + 1)]
        c = _exact_div(scale, s_prev)
        if metered:  # 4 per term of B_(k-1), times c * lcm_k / (e_1 + 1), and e_1's read from its code
            cells = 4 * fuel.cells(len(p_prev), sizes[k - 1], c.bit_length() + lcm_k.bit_length())
            fuel.charge(cells + fuel.digits(len(p_prev), width), "the recursion")
        u, p = units[0], powers[0]
        acc = {e + u: c * inv[e // p % base + 1] * v for e, v in p_prev.items()}
        get = acc.get
        for j in range(1, d):
            u, p = units[j], powers[j]
            for i, n_ij in by_var[j]:
                if i >= k:
                    break
                c = n_ij * _exact_div(scale, den * elems[k - i][0])
                part = leads[k - i][j:]
                if metered:  # the k coefs, and 4 per term of the part of B_(k-i) free of x1..x_j, times one, and e_j's read
                    ops = sum(map(len, part))
                    cells = 4 * fuel.cells(ops + k, sizes[k - i], c.bit_length() + lcm_k.bit_length())
                    fuel.charge(cells + fuel.digits(ops, width), "the recursion")
                for bucket in part:
                    for e, v in bucket:
                        key = e + u
                        acc[key] = get(key, 0) + c * inv[e // p % base + 1] * v
        lin = _exact_div(scale, den) * lcm_k
        for j, n_kj in by_deg.get(k, ()):
            acc[units[j]] = get(units[j], 0) + n_kj * lin
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
        if metered:
            sizes.append(_kept(elems[-1], width, "the recursion"))
    return Numerators(codes, elems[: n + 1])


def build_recursive(params: GeneralSpec) -> BasisSequence:
    """Degree-by-degree recursion.  B_0 = 1, B_1 = x1, and for k >= 2

        B_k = V_k + sum_j a[k,j] * x_j,
        V_k = I_1(B_{k-1}) + sum_j I_j(part of M_j free of x1..x_{j-1}),
        M_j = a[2,j]*B_{k-2} + ... + a[k-1,j]*B_1,

    where I_j is the monomial-wise antiderivative in x_j and j runs over
    2..d.

    Run on integers (_recursive_numerators): each element is B_k = P_k / S_k
    and each entry a[i,j] = n_ij / D over the table's common denominator D.
    With L = lcm(S_{k-1}, D, D * S_{k-i} for each i < k with an a[i, j]),
    L times every summand of B_k before integration is integral, and

        S_k = L * lcm(1..k)

    makes every antiderivative exact as well: a term of B_{k-1} or M_j has
    degree at most k - 1, so its divisor e_j + 1 is at most k and divides
    lcm(1..k).  Each P_k is then divided by its gcd with S_k.
    Shares no code with the closed-form product or the generating recurrence
    apart from the table's arc.  Raises ValueError unless the spec has
    table shape (.a is not None)."""
    if params.a is None:
        raise ValueError(f"the recursion needs a spec of table shape ({TABLE_SHAPE})")
    return numerator_basis(_recursive_numerators(params))


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


def _coded(basis: Sequence[Polynomial], top: int) -> Numerators:
    """The elements' integer numerators keyed by code: their own codes when
    one codec codes them all (as a built basis's are), or else their
    exponents packed by a codec whose base exceeds top and every degree."""
    codes = basis[0].codes
    if codes is not None and all(p.codes is codes or p.codes == codes for p in basis):
        return Numerators(codes, [(p.scale, p.coded) for p in basis])
    codes = MonomialCodes(basis[0].dim, max(top, *(p.degree for p in basis)))
    return Numerators(codes, [(p.scale, codes.packed(p.numerators)) for p in basis])


def check_closure(basis: BasisSequence, spec: GeneralSpec) -> ClosureReport:
    """check_closure_numerators on the basis's integer numerators: its
    elements' codes when one codec codes them all, or else their exponents
    packed by a codec whose base exceeds b_n and every degree.  ValueError
    unless it has b_n + 1 elements in the spec's d variables."""
    top, d = spec.top_weight, spec.d
    if len(basis) != top + 1:
        raise ValueError(f"basis has {len(basis)} elements, the spec needs {top + 1}")
    if basis.dim != d:
        raise ValueError(f"basis has dimension {basis.dim}, the spec needs {d}")
    return check_closure_numerators(_coded(basis.elements, top), spec)


def check_closure_numerators(nums: Numerators, spec: GeneralSpec) -> ClosureReport:
    """Exact derivative identities of the generating function
    G = exp(sum_i x_i * sum_j c_ij * t^(b_j)), whose t^m coefficient is B_m.
    Since dG/dx_i = (sum_j c_ij * t^(b_j)) * G,

        d(B_m)/dx_i == sum_{j: b_j <= m} c_ij * B_{m - b_j}

    for every m >= 1 and every variable i, read from the spec's arc.
    nums holds B_0..B_{b_n} in the spec's d variables as B_k = P_k / s_k,
    s_k any positive scale (m! * D^m as well as the lcm of denominators).

    Checked on integers: with c_ij = n_ij / D, both sides of element m's
    identities are multiplied by one L_m = lcm(s_m, D * s_{m-b_j} over the
    arc's weights b_j <= m), and (m, i) is a violation iff
    L_m/s_m * d(P_m)/dx_i differs from
    sum_j n_ij * L_m/(D * s_{m-b_j}) * P_{m-b_j}.  d/dx_i reads e_i from a
    code's digit and subtracts x_i's unit.
    """
    d, arc = spec.d, spec.arc
    den, by_var, groups = arc.den, arc.by_var, arc.by_weight
    codes, elems = nums
    base, powers, units = codes.base, codes.powers, codes.units
    mults: dict[int, int] = {}  # element m's L_m / (D * s_(m-b_j)) by weight
    bad: list[tuple[int, int]] = []
    metered = fuel.metered
    if metered:  # the most terms, numerator bits and scale bits of an element so far; the slots and weights of weight <= m; a code's width
        n_bits = max(abs(n).bit_length() for _, form in groups for _, n in form) + den.bit_length()
        longest, bits, s_bits, sources, seen, width = 1, 1, 1, 0, 0, codes.high.bit_length()
    for m in range(1, spec.top_weight + 1):
        s_m, p_m = elems[m]
        if metered:  # the sizes so far and L_m's making; each lcm is charged as it runs, the pass over the terms after them
            if len(p_m) > longest:
                longest = len(p_m)
            if s_m.bit_length() > s_bits:
                s_bits = s_m.bit_length()
            top_bits = max(map(int.bit_length, p_m.values()), default=0)
            if top_bits > bits:
                bits = top_bits
            while seen < len(groups) and groups[seen][0] <= m:
                sources += len(groups[seen][1])
                seen += 1
            fuel.charge(fuel.cells(3 * (sources + d), s_bits + n_bits), "the closure check")
        # L_m, then each weight's L_m / (D * s_(m-b_j)).  On the scales
        # m! * D^m of the closed form and the recurrence, D * s_(m-b_j)
        # divides s_m, so L_m is s_m; a loaded basis's scales may share no
        # factor, each lcm is a gcd, and L_m grows past them to their
        # product.  So each lcm is charged, with L_m / s, on L_m so far,
        # unless L_m is no wider than the scales and one remainder shows s divides it.
        scale, below = s_m, []
        for bj, _ in groups:
            if bj > m:
                break
            s = den * elems[m - bj][0]
            if metered and (scale.bit_length() > s_bits + n_bits or scale % s):
                fuel.charge(fuel.lcms(1, scale.bit_length(), s_bits + n_bits), "the closure check")
            scale = math.lcm(scale, s)
            below.append((bj, s))
        for bj, s in below:
            mults[bj] = scale // s
        k_m = scale // s_m
        if metered:
            # 2 cells per term, on the scales' or the widest multiplier's bits: d
            # passes over P_m, one over P_(m-b_j) per slot of weight <= m; and each
            # of P_m's d * |P_m| digits e_i, a code's division.
            by = max(s_bits, k_m.bit_length(), *map(int.bit_length, mults.values()))
            cells = 2 * fuel.cells(d * len(p_m) + sources * longest, bits, by + n_bits)
            fuel.charge(cells + fuel.digits(d * len(p_m), width), "the closure check")
        for i in range(d):
            u, p = units[i], powers[i]
            acc: dict[int, int] = {}
            for e, v in p_m.items():
                ei = e // p % base
                if ei:
                    acc[e - u] = k_m * ei * v
            get = acc.get
            for bj, n_ij in by_var[i]:
                if bj > m:
                    break
                k = n_ij * mults[bj]
                for e, v in elems[m - bj][1].items():
                    acc[e] = get(e, 0) - k * v
            if any(acc.values()):
                bad.append((m, i + 1))
    return ClosureReport(ok=not bad, violations=tuple(bad))


def breadth(basis: Sequence[Polynomial]) -> int:
    """breadth_numerators on the elements' integer numerators: their codes
    when one codec codes them all (a built basis's elements, in a
    BasisSequence or a list), or else their exponents packed by a codec
    whose base exceeds every degree.  ValueError on an empty basis or on
    elements of different dimensions."""
    basis = list(basis)
    if not basis:
        raise ValueError("empty basis")
    if any(q.dim != basis[0].dim for q in basis):
        raise ValueError("basis elements must share one dimension")
    return breadth_numerators(_coded(basis, 0))


def breadth_numerators(nums: Numerators) -> int:
    """Number of independent linear (degree-exactly-1) directions in the
    span of the rows of nums, each an element's integer numerators (a
    positive multiple of it, with no zero entry; the scales are not read):
    dim(span intersect {degree <= 1}) - 1.

    Requires the constant 1 to lie in the span (every derivative-closed
    space containing a nonzero element has it); raises ValueError if not.

    The leads are those of linalg.echelon with the monomials in descending
    code order, which is descending total degree.  A row with a lead of
    degree <= 1 vanishes in degree >= 2, and the rows with leads of
    degree >= 2 stay independent there, so the leads of degree <= 1 count
    the dimension of the span's part of degree <= 1 (any tie-break within
    a degree gives that count).  Rows with distinct leads, as a graded
    basis has (one per degree), are echelon's leads with no reduction step:
    then no row is eliminated, nor made primitive by gcds that would decide
    nothing.
    """
    rows = [row for _, row in nums.elems if row]
    leads = {max(row) for row in rows}
    if len(leads) < len(rows):
        leads = echelon(rows, key=neg)
    return _linear_leads(nums.codes, leads)


def _linear_leads(codes: MonomialCodes, leads: Collection[int]) -> int:
    """The breadth read from an echelon form's leads: those of degree <= 1,
    less one for the constant.  1 lies in the span iff the constant, code 0
    and the last monomial, is a lead; ValueError if not."""
    if 0 not in leads:
        raise ValueError("span does not contain the constant 1")
    linear = 2 * codes.high  # the codes of degree <= 1 are those below it
    return sum(1 for c in leads if c < linear) - 1


def degrees(basis: Iterable[Polynomial]) -> tuple[int, ...]:
    """Total degree of each element, in order."""
    return tuple(p.degree for p in basis)
