"""Coalescing point schemes and the limit verification.

Every spec, a parameter table included, is read through its weights
(b, c), as .slots gives them (every nonzero c_ij as n_ij / D, sorted by
weight): the basis elements B_m are the t^m coefficients of
exp(sum_i x_i * p_i(t)) with p_i(t) = sum_j c_ij * t^(b_j), and Taylor's
theorem gives

    f(z0 + p(t)) = sum_k t^k * (B_k(D)f)(z0).

The b_n + 1 points z_r(h), r = 0..b_n, of either scheme collapse to the
base point z0 as h -> 0, and the stencil combination

    (1/h^m) * sum_{r=0..m} A_r^(m) * f(z_r(h))

tends to the differential functional value (B_m(D)f)(z0).  For polynomial
f everything here is exact: the combination is expanded symbolically in h
and the vanishing of the low-order coefficients is checked as an identity,
not up to a tolerance.  A float h-sweep is provided as a human-facing
diagnostic of the same limit.

The check at order m computes only what it reports.  It expands the
combination only to h^m: each coordinate is a dense list of
h-coefficients and every product is cut after h^m, which is exact because
the h^t coefficient of a product reads only its factors' coefficients up
to h^t.  A coordinate's k-th power is made by repeated squaring of cut
series (Brent & Kung 1978), so the work grows with log(deg f).  The
target builds only B_0..B_m, by the generating recurrence stopped at
weight m, and evaluates B_m(D)f at z0 as a scalar; it never reads the
points, so it stays an independent witness.

Point coordinates are univariate polynomials in h (dimension-1 Polynomial
values); the generating spec travels with the point set so downstream
checks can rebuild the basis it belongs to.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterator, Sequence

from .identities import falling_factorial
from .poly import DiffOperator, Polynomial, _decimal_digits, rational_text
from .subspace import GeneralSpec, _generating_elements

_ZERO = Fraction(0)


@dataclass(frozen=True)
class Stencil:
    """Finite-difference weights A_k = (-1)^(m-k) / (k! * (m-k)!), k = 0..m.

    They satisfy sum_k A_k * k^j == 0 for 0 <= j < m and == 1 for j == m,
    which is exactly what makes the point combination reproduce the m-th
    derivative order.  m = 0 is the single weight 1 (plain evaluation).
    """

    m: int
    coeffs: tuple[Fraction, ...]


def stencil(m: int) -> Stencil:
    if m < 0:
        raise ValueError(f"order must be non-negative, got {m}")
    coeffs = tuple(
        Fraction((-1) ** (m - k), math.factorial(k) * math.factorial(m - k))
        for k in range(m + 1)
    )
    return Stencil(m=m, coeffs=coeffs)


@dataclass(frozen=True)
class SymbolicPointSet:
    """b_n + 1 points with coordinates given as exact polynomials in h.

    scheme is "a" or "b"; base is the common limit point z0; spec is the
    spec the points were generated from (carried so
    verification code can rebuild the matching basis).
    """

    scheme: str
    base: tuple[Fraction, ...]
    points: tuple[tuple[Polynomial, ...], ...]
    spec: GeneralSpec

    @property
    def dim(self) -> int:
        return len(self.base)

    def at(self, h: Fraction | int) -> Iterator[tuple[Fraction, ...]]:
        """Exact numeric points for a given rational h, one at a time: a
        caller that refuses a point stops before the later, larger ones
        are evaluated."""
        hv = [Fraction(h)]
        for pt in self.points:
            yield tuple(coord.eval(hv) for coord in pt)

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "base": [rational_text(v) for v in self.base],
            "points": [[coord.to_dict() for coord in pt] for pt in self.points],
        }


def _points(scheme: str, h_coef, spec: GeneralSpec, z0: Sequence[Fraction | int]) -> SymbolicPointSet:
    """z_r(h) = z0 + (sum_j h_coef(r, b_j) * c_ij * h^(b_j))_i,  r = 0..b_n."""
    den, slots = spec.slots
    base = tuple(Fraction(v) for v in z0)
    if len(base) != spec.d:
        raise ValueError(f"base point has length {len(base)}, expected {spec.d}")
    pts = []
    for r in range(spec.top_weight + 1):
        coords = [{(0,): z} for z in base]
        for bj, group in itertools.groupby(slots, itemgetter(0)):
            if k := h_coef(r, bj):
                for _, i, n_ij in group:
                    coords[i][(bj,)] = Fraction(n_ij * k, den)
        pts.append(tuple(Polynomial(1, terms, _trusted=True) for terms in coords))
    return SymbolicPointSet(scheme=scheme, base=base, points=tuple(pts), spec=spec)


def points_scheme_a(spec: GeneralSpec, z0: Sequence[Fraction | int]) -> SymbolicPointSet:
    """First scheme: z_r(h) = z0 + p(r*h), r = 0..b_n, that is

        z_r(h) = z0 + (sum_j c_ij * (r*h)^(b_j))_i.
    """
    return _points("a", pow, spec, z0)


def points_scheme_b(spec: GeneralSpec, z0: Sequence[Fraction | int]) -> SymbolicPointSet:
    """Second scheme: the falling-factorial rule, r = 0..b_n,

        z_r(h) = z0 + (sum_j ff(r, b_j) * c_ij * h^(b_j))_i

    with ff(r, k) = r*(r-1)*...*(r-k+1), which vanishes for k > r; so
    z_0(h) = z0 and, for a table, z_1(h) = z0 + (h, 0, ..., 0)."""
    return _points("b", falling_factorial, spec, z0)


SCHEMES = {"a": points_scheme_a, "b": points_scheme_b}


def _check_order(m: int, pts: SymbolicPointSet) -> None:
    top = len(pts.points) - 1
    if not 0 <= m <= top:
        raise ValueError(f"order {m} exceeds available points 0..{top}")


def _mul_cut(a: list[Fraction], b: list[Fraction], length: int) -> list[Fraction]:
    """Product of two dense h-series, cut after h^(length-1), trailing zeros
    dropped.  Its h^t coefficient reads only the factors' coefficients up
    to h^t, so the cut is exact."""
    size = min(len(a) + len(b) - 1, length)
    out = [_ZERO] * size
    for i, ai in enumerate(a[:size]):
        if ai:
            for j, bj in enumerate(b[: size - i], i):
                if bj:
                    out[j] += ai * bj
    while out and not out[-1]:
        out.pop()
    return out


def _power_cut(powers: dict[int, list[Fraction]], k: int, length: int) -> list[Fraction]:
    """powers[k], the k-th power of the series powers[1] cut after
    h^(length-1), made by repeated squaring from the powers already kept:
    O(log k) cut products, each power kept once made."""
    power = powers.get(k)
    if power is None:
        half = _power_cut(powers, k // 2, length)
        power = _mul_cut(half, half, length)
        if k % 2:
            power = _mul_cut(power, powers[1], length)
        powers[k] = power
    return power


def _series(f: Polynomial, m: int, pts: SymbolicPointSet, length: int) -> list[Fraction]:
    """The h^0..h^(length-1) coefficients of sum_{r=0..m} A_r^(m) * f(z_r(h)).

    Each coordinate is a dense list of h-coefficients; its powers are
    kept per point and every product is cut after h^(length-1)."""
    total = [_ZERO] * length
    for w, point in zip(stencil(m).coeffs, pts.points):
        powers = []
        for coord in point:
            dense = [_ZERO] * min(coord.degree + 1, length)
            for (t,), c in coord.terms.items():
                if t < length:
                    dense[t] = c
            while dense and not dense[-1]:
                dense.pop()
            powers.append({1: dense})  # powers[i][k] is coordinate i to the k-th
        value = [_ZERO] * length
        for e, c in f.terms.items():
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
                for t, v in enumerate(prod):
                    value[t] += c * v
        for t, v in enumerate(value):
            if v:
                total[t] += w * v
    return total


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


def _target_value(f: Polynomial, z0: Sequence[Fraction], m: int, spec: GeneralSpec) -> Fraction:
    """(B_m(D)f)(z0) from the spec alone, with B_0..B_m built by the
    generating recurrence stopped at weight m."""
    return DiffOperator(_generating_elements(spec, m)[m]).apply_at(f, z0)


def expansion_check(
    f: Polynomial,
    z0: Sequence[Fraction | int],
    m: int,
    pts: SymbolicPointSet,
) -> ExpansionReport:
    """Exact verification of the limit at one order m.

    Expands the stencil combination in h and reports the h^0..h^(m-1)
    coefficients, the h^m coefficient, and the target (B_m(D)f)(z0)
    computed by symbolic differentiation with no reference to the points.
    z0 must be the base point the point set was built around.
    """
    base = tuple(Fraction(v) for v in z0)
    if base != pts.base:
        raise ValueError(f"evaluation point {base} differs from the point-set base {pts.base}")
    if f.dim != pts.dim:
        raise ValueError(f"dimension mismatch: f has {f.dim}, points have {pts.dim}")
    _check_order(m, pts)
    coeffs = _series(f, m, pts, m + 1)
    target = _target_value(f, base, m, pts.spec)
    return ExpansionReport(m=m, low_coeffs=tuple(coeffs[:m]), lead=coeffs[m], target=target)


@dataclass(frozen=True)
class SweepRow:
    """One float evaluation of the scaled stencil combination at step h."""

    h: float
    approx: float
    exact: float
    abs_err: float
    est_order: float | None


def _to_float(value: Fraction, what: str) -> float:
    """float(value); ValueError naming `what` if no float can hold it."""
    try:
        return float(value)
    except OverflowError:
        digits = _decimal_digits(value.numerator // value.denominator)
        raise ValueError(f"{what} has {digits} digits before the point; no float can hold it") from None


def _float_terms(p: Polynomial, what: str) -> list[tuple[tuple[int, ...], float]]:
    return [(e, _to_float(c, what)) for e, c in p.terms.items()]


def _eval_float(terms: Sequence[tuple[tuple[int, ...], float]], point: Sequence[float]) -> float:
    total = 0.0
    for e, term in terms:
        for ei, v in zip(e, point):
            if ei:
                term *= v ** ei
        total += term
    return total


def sweep(
    f: Polynomial,
    z0: Sequence[Fraction | int],
    m: int,
    pts: SymbolicPointSet,
    h0: float = 0.25,
    steps: int = 12,
) -> list[SweepRow]:
    """Float h-sweep of (1/h^m) * sum_r A_r^(m) f(z_r(h)) against the exact
    target, halving h each row.  est_order is log2(err_prev / err) and is
    absent on the first row and wherever either error is zero.

    The exact values (target, coefficients of f and of the points) are
    converted to floats before the loop, and one too large for a float is
    refused with ValueError naming it; an OverflowError left is the float
    arithmetic on h overflowing.  Before those, steps that would halve h**m
    (h itself for m = 0) to 0.0 are refused with ValueError naming the most
    steps accepted."""
    if h0 <= 0:
        raise ValueError(f"h0 must be positive, got {h0}")
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")
    base = tuple(Fraction(v) for v in z0)
    if base != pts.base:
        raise ValueError(f"evaluation point {base} differs from the point-set base {pts.base}")
    _check_order(m, pts)
    # 2.0 ** -1075 is 0.0, so every sweep longer than 1075 steps reaches h = 0.0.
    hs = [h0 * 2.0 ** -k for k in range(min(steps, 1076))]
    keep = next((k for k, h in enumerate(hs) if h == 0.0 or h ** m == 0.0), steps)
    if keep < steps:
        what = f"h**{m}" if m else "h"
        raise ValueError(
            f"--steps {steps} halvings of --h0 {h0!r} take {what} to 0.0; at most {keep} steps are accepted"
        )
    weights = [float(c) for c in stencil(m).coeffs]
    exact = _to_float(_target_value(f, base, m, pts.spec), f"the exact target (B_{m}(D)f)(z0)")
    f_terms = _float_terms(f, "a coefficient of f")
    points = [
        [_float_terms(coord, f"a coefficient of point {r}") for coord in pts.points[r]]
        for r in range(m + 1)
    ]
    rows: list[SweepRow] = []
    prev_err: float | None = None
    for h in hs:
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
