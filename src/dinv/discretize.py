"""Coalescing point schemes and the limit verification.

Every spec, a parameter table included, is read through its arc
(subspace.Arc), the curve p with p_i(t) = sum_j c_ij * t^(b_j) and
c_ij = n_ij / D, whose exp(<x, p(t)>) has B_m as its t^m coefficient.
Taylor's theorem gives

    f(z0 + p(t)) = sum_k t^k * (B_k(D)f)(z0).

Point r of either scheme is z_r(h) = z0 + p_r(h), r = 0..b_n, where p_r
is the spec's arc with each weight b_j's slots times the scheme's rule
h_coef(r, b_j) (SymbolicPointSet.point_arc).  The points collapse to z0
as h -> 0, and the stencil combination

    (1/h^m) * sum_{r=0..m} A_r^(m) * f(z_r(h))

tends to the differential functional value (B_m(D)f)(z0).  For polynomial
f everything here is exact: the combination is expanded symbolically in h
and the vanishing of the low-order coefficients is checked as an identity,
not up to a tolerance.  A float h-sweep is a human-facing diagnostic of
the same limit.

The check at order m computes only what it reports, on ints.  It expands
the combination only to h^m, in u = h / D: coordinate i of point r is

    (p_i + q_i * sum_t a_t * u^t) / q_i,   z0_i = p_i / q_i,

with integer a_t: a_(b_j) = n_ij * h_coef(r, b_j) * D^(b_j - 1) for each
slot of p_r, and 0 at the other powers.  A point set stores only its
rule, (scheme, z0, spec), and the check reads point r's arc, cut after
u^m, as the dense lists [p_i, q_i * a_1, ...] of integer u-coefficients
over q_i (_u_series): it takes h_coef(r, b_j) only for the weights
b_j <= m, makes no Polynomial for a point and keeps nothing.
Every product is cut after u^m too, which is exact because the u^t
coefficient of a product reads only its factors' coefficients up to u^t.
A coordinate's k-th power is made by repeated squaring of cut series
(Brent & Kung 1978), so the work grows with log(deg f).  The terms of f
are lifted once per check to integers over one scale, f.scale *
prod_i q_i^(deg_i) with deg_i the degree of f in x_i, and the stencil
weights are the integers (-1)^(m-r) * C(m, r) over m!.  So the h^t
coefficient of the combination is one integer over scale * m! * D^t.
The target builds only B_0..B_m, by the generating recurrence stopped at
weight m on monomial codes, and evaluates B_m(D)f at z0 as a scalar on
integers (DiffOperator.apply_at); it never reads the points, so it stays
an independent witness.  So a check makes no Fraction but z0's
coordinates, its m + 1 coefficients and its target.

The sweep and study read every order's target off f(z0 + p(t)) instead
(arc): the series' evaluator on the spec's arc itself, with weight 1,
which builds no basis and makes no point set.  The check keeps the
recurrence, since the arc shares the series' cut products: a fault there
would move both sides alike.

The writers and the sweep read point(r), the same point as univariate
polynomials in h made in Polynomial's integer form: coordinate i is

    (p_i * D + q_i * sum_j n_ij * h_coef(r, b_j) * h^(b_j)) / (q_i * D),

reduced by one gcd.  point(r) makes point r on each read and keeps
nothing, so a writer that refuses a coefficient makes no later point.
The sweep keeps each point's float terms: the sweep at order m reads the
points 0..m, so study's sweeps of rising orders make and convert each
point once per scheme.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterator, Sequence

from . import fuel
from .identities import falling_factorial
from .poly import DiffOperator, Polynomial, _decimal_digits, rational_text
from .subspace import Arc, GeneralSpec, _generating_elements

def stencil(m: int) -> tuple[Fraction, ...]:
    """The finite-difference weights A_k = (-1)^(m-k) / (k! * (m-k)!), k = 0..m.

    They satisfy sum_k A_k * k^j == 0 for 0 <= j < m and == 1 for j == m,
    which is exactly what makes the point combination reproduce the m-th
    derivative order.  m = 0 is the single weight 1 (plain evaluation).
    """
    if m < 0:
        raise ValueError(f"order must be non-negative, got {m}")
    facts = list(itertools.accumulate(range(1, m + 1), mul, initial=1))
    return tuple(Fraction((-1) ** (m - k), facts[k] * facts[m - k]) for k in range(m + 1))


@dataclass(frozen=True)
class SymbolicPointSet:
    """The b_n + 1 points z_r(h), r = 0..b_n, of scheme "a" or "b" around
    the base point z0, stored as their rule (scheme, base, spec).  point(r)
    makes point r on each read and keeps nothing but the sweep's float
    terms, outside equality; iterating yields the points in order, so a
    reader that stops at point m makes no later one."""

    scheme: str
    base: tuple[Fraction, ...]
    spec: GeneralSpec

    def __post_init__(self) -> None:
        if self.scheme not in SCHEME_RULES:
            raise ValueError(f"unknown scheme {self.scheme!r}: expected 'a' or 'b'")
        if len(self.base) != self.spec.d:
            raise ValueError(f"base point has length {len(self.base)}, expected {self.spec.d}")
        object.__setattr__(self, "_floats", {})

    def point_arc(self, r: int, cut: int) -> Arc:
        """Point r's arc p_r, z_r(h) = z0 + p_r(h): the spec's arc, each weight
        b_j below cut times h_coef(r, b_j) or left out where that is 0.  Each
        h_coef is charged before it is taken, as a product of two integers of
        the size of h_coef(r, b_j) * D^(b_j - 1), read from the scheme's log10."""
        spec, metered = self.spec, fuel.metered
        if not 0 <= r <= spec.top_weight:
            raise IndexError(f"point {r} outside 0..{spec.top_weight}")
        arc = spec.arc
        h_coef, log10 = SCHEME_RULES[self.scheme]
        by_weight = []
        for bj, form in arc.by_weight:
            if bj >= cut:
                break
            if metered:
                size = log10(r, bj)
                bits = 0 if size is None else int(size * 3.33) + bj * arc.den.bit_length() + 1
                fuel.charge(fuel.cells(1, bits, bits), "the point rule")
            if k := h_coef(r, bj):
                by_weight.append((bj, tuple([(i, n_ij * k) for i, n_ij in form])))
        return Arc(arc.d, arc.den, tuple(by_weight))

    def point(self, r: int) -> tuple[Polynomial, ...]:
        """z_r(h) = z0 + (sum_j h_coef(r, b_j) * c_ij * h^(b_j))_i, 0 <= r <= b_n,
        each coordinate in Polynomial's integer form (module docstring)."""
        arc = self.point_arc(r, self.spec.top_weight + 1)
        coords = [{(0,): v.numerator * arc.den} if v else {} for v in self.base]
        for bj, form in arc.by_weight:
            for i, n_ij in form:
                coords[i][(bj,)] = n_ij * self.base[i].denominator
        if fuel.metered:  # making and writing it, timed as cli.TERM_CELLS was: 150 per coordinate and per term
            fuel.charge(150 * sum(len(c) + 1 for c in coords), "making a point")
        return tuple(Polynomial(1, c, _scale=v.denominator * arc.den) for c, v in zip(coords, self.base))

    def _float_point(self, r: int) -> list[list[tuple[tuple[int, ...], float]]]:
        """point(r)'s coordinates as float terms, made and converted when
        first read and kept, so sweeps of rising orders make and convert
        each point once."""
        if r not in self._floats:
            self._floats[r] = [_float_terms(coord, f"a coefficient of point {r}") for coord in self.point(r)]
        return self._floats[r]

    def __iter__(self) -> Iterator[tuple[Polynomial, ...]]:
        return map(self.point, range(self.spec.top_weight + 1))

    def at(self, h: Fraction | int) -> Iterator[tuple[Fraction, ...]]:
        """The exact points at a rational h, one at a time."""
        hv = [Fraction(h)]
        return (tuple(coord.eval(hv) for coord in pt) for pt in self)

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "base": [rational_text(v) for v in self.base],
            "points": [[coord.to_dict() for coord in pt] for pt in self],
        }


# Each scheme's point rule h_coef(r, b) for b >= 1, and its log10 from
# floats with no power taken, None where h_coef is 0: the size a charge
# reads before the rule is taken.
SCHEME_RULES = {
    "a": (pow, lambda r, b: b * math.log10(r) if r else None),
    "b": (
        falling_factorial,
        lambda r, b: (math.lgamma(r + 1) - math.lgamma(r - b + 1)) / math.log(10) if b <= r else None,
    ),
}


def points_scheme_a(spec: GeneralSpec, z0: Sequence[Fraction | int]) -> SymbolicPointSet:
    """First scheme: z_r(h) = z0 + p(r*h), r = 0..b_n, that is

        z_r(h) = z0 + (sum_j c_ij * (r*h)^(b_j))_i.
    """
    return SymbolicPointSet("a", tuple(map(Fraction, z0)), spec)


def points_scheme_b(spec: GeneralSpec, z0: Sequence[Fraction | int]) -> SymbolicPointSet:
    """Second scheme: the falling-factorial rule, r = 0..b_n,

        z_r(h) = z0 + (sum_j ff(r, b_j) * c_ij * h^(b_j))_i

    with ff(r, k) = r*(r-1)*...*(r-k+1), which vanishes for k > r; so
    z_0(h) = z0 and, for a table, z_1(h) = z0 + (h, 0, ..., 0)."""
    return SymbolicPointSet("b", tuple(map(Fraction, z0)), spec)


SCHEMES = {"a": points_scheme_a, "b": points_scheme_b}


def _check_order(m: int, top: int) -> None:
    if not 0 <= m <= top:
        raise ValueError(f"order {m} exceeds available points 0..{top}")


def _nonzero_bits(s: list[int]) -> tuple[int, int]:
    """The number of nonzero entries of s and their mean bits."""
    n = len(s) - s.count(0)
    return n, sum(map(int.bit_length, s)) // (n or 1)


def _mul_cut(a: list[int], b: list[int], length: int) -> list[int]:
    """Product of two dense integer series, cut after the power length-1,
    trailing zeros dropped.  Its t-th coefficient reads only the factors'
    coefficients up to t, so the cut is exact.  Charged first: a cell per
    step of its inner loop and its products on the factors' mean bits."""
    size = min(len(a) + len(b) - 1, length)
    if fuel.metered:
        (na, a_bits), (nb, b_bits) = _nonzero_bits(a), _nonzero_bits(b)
        steps = sum(min(len(b), size - i) for i, ai in enumerate(a[:size]) if ai)
        fuel.charge(steps + fuel.cells(min(steps, na * nb), a_bits, b_bits), "the limit series")
    out = [0] * size
    for i, ai in enumerate(a[:size]):
        if ai:
            for j, bj in enumerate(b[: size - i], i):
                if bj:
                    out[j] += ai * bj
    while out and not out[-1]:
        out.pop()
    return out


def _power_cut(powers: dict[int, list[int]], k: int, length: int) -> list[int]:
    """powers[k], the k-th power of the series powers[1] cut after the
    power length-1, made by repeated squaring from the powers already kept:
    O(log k) cut products, each power kept once made."""
    power = powers.get(k)
    if power is None:
        half = _power_cut(powers, k // 2, length)
        power = _mul_cut(half, half, length)
        if k % 2:
            power = _mul_cut(power, powers[1], length)
        powers[k] = power
    return power


def _lift(f: Polynomial, base: Sequence[Fraction]) -> tuple[int, list[tuple[tuple[int, ...], int]]]:
    """(scale, terms): f's terms over scale = f.scale * prod_i q_i^(deg_i),
    z0_i = p_i / q_i, the term x^e as f.numerators[e] * prod_i q_i^(deg_i - e_i);
    ValueError unless f has one variable per coordinate of z0."""
    if f.dim != len(base):
        raise ValueError(f"dimension mismatch: f has {f.dim}, points have {len(base)}")
    qs = [v.denominator for v in base]
    degs = [max(ks) for ks in zip(*f.numerators)]
    if fuel.metered:
        # Each term's q_i^(deg_i - e_i) and the scale's q_i^deg_i, on their
        # bits; q_i = 1 lifts none, so a huge degree at an integer z0 is free.
        bits = [(q - 1).bit_length() for q in qs]
        lifts = [sum((g - k) * b for g, k, b in zip(degs, e, bits)) for e in (*f.numerators, (0,) * len(qs))]
        fuel.charge(sum(fuel.cells(len(qs), n, n) for n in lifts if n), "the limit series")
    scale = f.scale
    for q, deg in zip(qs, degs):
        scale *= q ** deg
    terms = []
    for e, v in f.numerators.items():
        for q, deg, k in zip(qs, degs, e):
            if deg - k:
                v *= q ** (deg - k)
        terms.append((e, v))
    return scale, terms


def _evaluate(terms: list[tuple[tuple[int, ...], int]], coords: list[list[int]], length: int) -> list[int]:
    """The u-coefficients of the lifted f (_lift) at a point's integer
    u-series (_u_series), over its scale, cut after u^(length-1); each
    coordinate's powers are kept for this point only."""
    powers = [{1: coord} for coord in coords]  # powers[i][k] is coordinate i to the k-th
    value = [0] * length
    for e, c in terms:
        prod = None
        for cache, k in zip(powers, e):
            if k:
                power = _power_cut(cache, k, length)
                prod = power if prod is None else _mul_cut(prod, power, length)
                if not prod:
                    break
        if prod is None:
            value[0] += c
        else:
            if fuel.metered:
                fuel.charge(fuel.cells(len(prod), _nonzero_bits(prod)[1], c.bit_length()), "the limit series")
            for t, v in enumerate(prod):
                value[t] += c * v
    return value


def _h_coefficients(total: list[int], scale: int, den: int) -> list[Fraction]:
    """The h^t coefficients total[t] / (scale * D^t) of a u-series over
    scale, the only Fractions a series makes."""
    if fuel.metered:  # a nonzero coefficient's D^t, and its gcd, a limb by the larger integer per limb
        sizes = [max(v.bit_length(), t * den.bit_length() + scale.bit_length()) for t, v in enumerate(total) if v]
        fuel.charge(sum(fuel.cells((b >> 6) + 1, b) for b in sizes), "the limit series")
    return [Fraction(v, scale * den**t) if v else Fraction(0) for t, v in enumerate(total)]


def _series(f: Polynomial, m: int, pts: SymbolicPointSet, length: int) -> list[Fraction]:
    """The h^0..h^(length-1) coefficients of sum_{r=0..m} A_r^(m) * f(z_r(h)),
    computed on ints in u = h / D as the module docstring says: the lifted
    f evaluated at each point's u-series, weighted by the integer
    (-1)^(m-r) * C(m, r) and summed over scale * m!."""
    scale, terms = _lift(f, pts.base)
    total = [0] * length
    w = -1 if m % 2 else 1  # the weight (-1)^(m-r) * C(m, r), carried from r to r + 1
    for r in range(m + 1):
        value = _evaluate(terms, _u_series(pts.base, pts.point_arc(r, length), length), length)
        if fuel.metered:
            fuel.charge(length + fuel.cells(*_nonzero_bits(value), m), "the limit series")
        for t, v in enumerate(value):
            if v:
                total[t] += w * v
        w = -w * (m - r) // (r + 1)
    return _h_coefficients(total, scale * math.factorial(m), pts.spec.arc.den)


def _u_series(base: Sequence[Fraction], arc: Arc, length: int) -> list[list[int]]:
    """z0 + p(h) for an arc p over D as dense integer series in u = h / D cut
    after u^(length-1), trailing zeros dropped: coordinate i is [p_i, ...,
    q_i * n_ij * D^(b_j - 1), ...] over q_i, z0_i = p_i / q_i."""
    den = arc.den
    coords = [[v.numerator] if v else [] for v in base]
    for bj, form in arc.by_weight:
        if bj >= length:
            break
        k = den ** (bj - 1)
        for i, n_ij in form:
            coord = coords[i]
            coord += [0] * (bj - len(coord))
            coord.append(base[i].denominator * n_ij * k)
    return coords


def arc(f: Polynomial, z0: Sequence[Fraction | int], spec: GeneralSpec, length: int) -> list[Fraction]:
    """The t^0..t^(length-1) coefficients of f(z0 + p(t)), p the spec's arc:
    by Taylor's theorem the targets (B_k(D)f)(z0), k < length, read by the
    series' evaluator on p itself, with no basis built and no point set."""
    base = tuple(map(Fraction, z0))
    if len(base) != spec.d:
        raise ValueError(f"base point has length {len(base)}, expected {spec.d}")
    scale, terms = _lift(f, base)
    return _h_coefficients(_evaluate(terms, _u_series(base, spec.arc, length), length), scale, spec.arc.den)


@dataclass(frozen=True)
class ExpansionReport:
    """Exact h-expansion of the stencil combination at order m.

    low_coeffs are the h^0..h^(m-1) coefficients (all must vanish), lead
    is the h^m coefficient, and target is the independently computed
    differential functional value it must equal.
    """

    m: int
    low_coeffs: tuple[Fraction, ...]
    lead: Fraction
    target: Fraction

    @property
    def passed(self) -> bool:
        return all(c == 0 for c in self.low_coeffs) and self.lead == self.target

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "low_coeffs": [rational_text(c) for c in self.low_coeffs],
            "lead": rational_text(self.lead),
            "target": rational_text(self.target),
            "pass": self.passed,
        }


def expansion_check(
    f: Polynomial,
    z0: Sequence[Fraction | int],
    m: int,
    pts: SymbolicPointSet,
) -> ExpansionReport:
    """Exact verification of the limit at one order m.

    Expands the stencil combination in h and reports the h^0..h^(m-1)
    coefficients, the h^m coefficient, and the target (B_m(D)f)(z0)
    computed by symbolic differentiation (the generating recurrence and
    apply_at) with no reference to the points.  z0 must be the base point
    the point set was built around.
    """
    base = tuple(Fraction(v) for v in z0)
    if base != pts.base:
        raise ValueError(f"evaluation point {base} differs from the point-set base {pts.base}")
    _check_order(m, pts.spec.top_weight)
    coeffs = _series(f, m, pts, m + 1)
    codes, elems = _generating_elements(pts.spec.arc, pts.spec.codes_to(m), m)
    s, p = elems[m]
    target = DiffOperator(Polynomial(codes.d, p, _scale=s, _codes=codes)).apply_at(f, base)
    return ExpansionReport(m=m, low_coeffs=tuple(coeffs[:m]), lead=coeffs[m], target=target)


@dataclass(frozen=True)
class SweepRow:
    """One float evaluation of the scaled stencil combination at step h."""

    h: float
    approx: float
    exact: float
    abs_err: float
    est_order: float | None


def _to_float(num: int, den: int, what: str) -> float:
    """num / den, den > 0, rounded as float(Fraction(num, den)) is; ValueError naming `what` if too large."""
    try:
        return num / den
    except OverflowError:
        digits = _decimal_digits(num // den)
        raise ValueError(f"{what} has {digits} digits before the point; no float can hold it") from None


def _float_terms(p: Polynomial, what: str) -> list[tuple[tuple[int, ...], float]]:
    s = p.scale
    return [(e, _to_float(v, s, what)) for e, v in p.numerators.items()]


def _eval_float(terms: Sequence[tuple[tuple[int, ...], float]], point: Sequence[float]) -> float:
    total = 0.0
    for e, term in terms:
        for ei, v in zip(e, point):
            if ei:
                term *= v ** ei
        total += term
    return total


def sweep_steps(h0: float, steps: int, m: int, top: int) -> list[float]:
    """The steps h0 * 2**-k, k < steps, of a sweep at order m over the
    points 0..top.  Refuses with ValueError, in this order: h0 <= 0, fewer
    than 2 steps, an order outside 0..top, and steps that would halve h**m
    (h itself for m = 0) to 0.0, naming the most steps accepted, or, when
    fewer than 2 are, that h0 must be larger."""
    if h0 <= 0:
        raise ValueError(f"h0 must be positive, got {h0}")
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")
    _check_order(m, top)
    # 2.0 ** -1075 is 0.0, so every sweep longer than 1075 steps reaches h = 0.0.
    hs = [h0 * 2.0 ** -k for k in range(min(steps, 1076))]
    keep = next((k for k, h in enumerate(hs) if h == 0.0 or h ** m == 0.0), steps)
    if keep < steps:
        what = f"h**{m}" if m else "h"
        fix = f"at most {keep} steps are accepted"
        if keep < 2:
            fix = f"no --steps works from that --h0 at order {m}, so --h0 must be larger"
        raise ValueError(f"--steps {steps} halvings of --h0 {h0!r} take {what} to 0.0; {fix}")
    return hs


def sweep(
    f: Polynomial,
    z0: Sequence[Fraction | int],
    m: int,
    pts: SymbolicPointSet,
    h0: float = 0.25,
    steps: int = 12,
    target: Fraction | None = None,
) -> list[SweepRow]:
    """Float h-sweep of (1/h^m) * sum_r A_r^(m) f(z_r(h)) against the exact
    target, halving h each row.  est_order is log2(err_prev / err) and is
    absent on the first row and wherever either error is zero.  target,
    if given, is the order's exact (B_m(D)f)(z0); by default it is read
    off the arc f(z0 + p(t)) (arc).

    The steps are checked first (sweep_steps).  The exact values (target,
    coefficients of f and of the points 0..m) are then converted to floats
    before the loop, and one too large for a float is refused with
    ValueError naming it; an OverflowError left is the float arithmetic on
    h overflowing."""
    base = tuple(Fraction(v) for v in z0)
    if base != pts.base:
        raise ValueError(f"evaluation point {base} differs from the point-set base {pts.base}")
    hs = sweep_steps(h0, steps, m, pts.spec.top_weight)
    weights = [float(a) for a in stencil(m)]
    if target is None:
        target = arc(f, base, pts.spec, m + 1)[m]
    exact = _to_float(target.numerator, target.denominator, f"the exact target (B_{m}(D)f)(z0)")
    f_terms = _float_terms(f, "a coefficient of f")
    points = [pts._float_point(r) for r in range(m + 1)]
    rows: list[SweepRow] = []
    prev_err: float | None = None
    if fuel.metered:  # per point, 4 cells a float term of it and of f per variable, 10 more
        step = sum(4 * (sum(map(len, coords)) + len(f_terms) * (len(coords) + 1)) + 10 for coords in points)
        fuel.charge(5 * len(points), "the sweep")
    for h in hs:
        if fuel.metered:
            fuel.charge(step, "the sweep")
        acc = 0.0
        for w, coords in zip(weights, points):
            point = [_eval_float(coord, [h]) for coord in coords]
            acc += w * _eval_float(f_terms, point)
        approx = acc / h ** m
        err = abs(approx - exact)
        order = None
        if prev_err is not None and prev_err > 0.0 and err > 0.0:
            order = math.log2(prev_err / err)
        rows.append(SweepRow(h=h, approx=approx, exact=exact, abs_err=err, est_order=order))
        prev_err = err
    return rows


def sweep_to_csv(rows: Sequence[SweepRow]) -> str:
    """CSV with header h,approx,exact,abs_err,est_order; blank est_order
    where absent."""
    lines = ["h,approx,exact,abs_err,est_order"]
    for r in rows:
        order = "" if r.est_order is None else repr(r.est_order)
        lines.append(f"{r.h!r},{r.approx!r},{r.exact!r},{r.abs_err!r},{order}")
    return "\n".join(lines) + "\n"
