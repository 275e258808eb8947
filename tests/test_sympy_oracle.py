"""sympy as a second, independent witness for the exact limit check and
the polynomial calculus it rests on.

f, the basis element B_m and the point coordinates are rebuilt from their
`to_dict` terms as sympy expressions; the stencil combination is expanded
in h and differentiated by sympy alone, so no arithmetic of `dinv.poly`
is trusted here.  For general specs sympy also rebuilds every point from
the weights (b, c), and the target's B_m comes from the enumeration
oracle build_general; the arc's coefficients are sympy's series of
f(z0 + p(t)) in t.  `DiffOperator.apply_at` and the calculus oracles
`diff`, `apply_operator` and `compose` of tests/oracles.py are compared
with sympy on seeded random polynomials.  sympy is optional: without it
the module is skipped.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

import random  # noqa: E402

from conftest import make_rng, random_param_table, random_poly, rational  # noqa: E402
from dinv import (  # noqa: E402
    DiffOperator,
    GeneralSpec,
    Polynomial,
    build_general,
    build_recursive,
    expansion_check,
    points_scheme_a,
    points_scheme_b,
    stencil,
)
from dinv.discretize import arc  # noqa: E402
from oracles import apply_operator, compose, diff  # noqa: E402

H = sympy.Symbol("h")
T = sympy.Symbol("t")


def to_sympy(p: Polynomial, symbols) -> "sympy.Expr":
    expr = sympy.Integer(0)
    for term in p.to_dict()["terms"]:
        mono = sympy.Rational(term["coef"])
        for s, e in zip(symbols, term["exp"]):
            mono *= s ** e
        expr += mono
    return expr


def draws(count: int):
    """Seeded (table, f, z0, scheme, m) draws; m steps down from the top
    order n, so most draws check a derivative of order >= 1."""
    rng = make_rng(401)
    for k in range(count):
        d = rng.choice((2, 3))
        n = rng.randint(1, 4)
        t = random_param_table(rng, d=d, n=n)
        f = random_poly(rng, dim=d, max_deg=n + 2, max_terms=4)
        z0 = (Fraction(0),) * d if k % 3 == 0 else tuple(rational(rng) for _ in range(d))
        scheme = points_scheme_a if k % 2 == 0 else points_scheme_b
        yield t, f, z0, scheme, n - k % 4 if k % 4 <= n else n


DRAWS = list(draws(20))


@pytest.mark.parametrize("index", range(len(DRAWS)))
def test_report_matches_sympy(index):
    t, f, z0, scheme, m = DRAWS[index]
    xs = sympy.symbols(f"x1:{t.d + 1}")
    fs = to_sympy(f, xs)
    pts = scheme(t, z0)
    report = expansion_check(f, z0, m, pts)

    combo = sympy.Integer(0)
    for w, point in zip(stencil(m), pts):
        coords = [to_sympy(c, (H,)) for c in point]
        combo += sympy.Rational(str(w)) * fs.subs(dict(zip(xs, coords)), simultaneous=True)
    series = sympy.Poly(sympy.expand(combo), H)
    coeffs = [series.coeff_monomial(H ** k) for k in range(m + 1)]
    assert [Fraction(str(c)) for c in coeffs[:m]] == list(report.low_coeffs)
    assert Fraction(str(coeffs[m])) == report.lead

    target = sympy.Integer(0)
    for term in build_recursive(t)[m].to_dict()["terms"]:
        orders = [(x, e) for x, e in zip(xs, term["exp"]) if e]
        derivative = sympy.diff(fs, *[v for x, e in orders for v in (x, e)]) if orders else fs
        target += sympy.Rational(term["coef"]) * derivative
    value = target.subs({x: sympy.Rational(str(v)) for x, v in zip(xs, z0)}, simultaneous=True)
    assert Fraction(str(value)) == report.target
    assert report.passed


def derivative_at(fs, xs, source: Polynomial, point) -> "sympy.Expr":
    """(source(D) fs) at point, by sympy.diff term by term."""
    total = sympy.Integer(0)
    for term in source.to_dict()["terms"]:
        orders = [v for x, e in zip(xs, term["exp"]) if e for v in (x, e)]
        total += sympy.Rational(term["coef"]) * (sympy.diff(fs, *orders) if orders else fs)
    return total.subs({x: sympy.Rational(str(v)) for x, v in zip(xs, point)}, simultaneous=True)


def general_spec(rng: random.Random) -> GeneralSpec:
    """d in 1..3, n in 2..3, b = (1, ...) with gaps of 1 or 2."""
    d, n = rng.randint(1, 3), rng.randint(2, 3)
    b = [1]
    while len(b) < n:
        b.append(b[-1] + rng.choice((1, 2)))
    c = [[rational(rng) for _ in range(n)] for _ in range(d)]
    c[0][0] = rational(rng, allow_zero=False)
    return GeneralSpec(n=n, d=d, b=tuple(b), c=tuple(tuple(row) for row in c))


GENERAL = [general_spec(make_rng(402 + k)) for k in range(16)]


@pytest.mark.parametrize("index", range(len(GENERAL)))
def test_general_spec_points_and_limits(index):
    spec = GENERAL[index]
    rng = make_rng(420 + index)
    xs = sympy.symbols(f"x1:{spec.d + 1}")
    f = random_poly(rng, dim=spec.d, max_deg=spec.top_weight, max_terms=3)
    fs = to_sympy(f, xs)
    z0 = tuple(rational(rng) for _ in range(spec.d))
    basis = build_general(spec)
    rules = {
        points_scheme_a: lambda r, bj: (r * H) ** bj,
        points_scheme_b: lambda r, bj: sympy.ff(r, bj) * H ** bj,
    }
    for scheme, rule in rules.items():
        pts = scheme(spec, z0)
        assert len(tuple(pts)) == spec.top_weight + 1
        values = []
        for r, point in enumerate(pts):
            want = [
                sympy.Rational(str(z)) + sum(sympy.Rational(str(cij)) * rule(r, bj) for cij, bj in zip(row, spec.b))
                for z, row in zip(z0, spec.c)
            ]
            assert [sympy.expand(to_sympy(coord, (H,)) - w) for coord, w in zip(point, want)] == [0] * spec.d
            values.append(sympy.expand(fs.subs(dict(zip(xs, want)), simultaneous=True)))
        for m in range(spec.top_weight + 1):
            report = expansion_check(f, z0, m, pts)
            combo = sympy.expand(sum(sympy.Rational(str(w)) * v for w, v in zip(stencil(m), values)))
            coeffs = [Fraction(str(combo.coeff(H, k))) for k in range(m + 1)]
            assert coeffs[:m] == list(report.low_coeffs) and coeffs[m] == report.lead
            assert Fraction(str(derivative_at(fs, xs, basis[m], z0))) == report.target
            assert report.passed


@pytest.mark.parametrize("index", range(len(GENERAL)))
def test_arc_matches_sympy_series(index):
    """arc's t^0..t^(b_n + 2) coefficients, cut past every target and past
    f's degree in some draws, are those of sympy's series of f(z0 + p(t))."""
    spec = GENERAL[index]
    rng = make_rng(460 + index)
    xs = sympy.symbols(f"x1:{spec.d + 1}")
    f = random_poly(rng, dim=spec.d, max_deg=spec.top_weight + 1, max_terms=4)
    z0 = tuple(rational(rng) for _ in range(spec.d))
    length = spec.top_weight + 3
    at = [
        sympy.Rational(str(z)) + sum(sympy.Rational(str(cij)) * T ** bj for cij, bj in zip(row, spec.b))
        for z, row in zip(z0, spec.c)
    ]
    series = sympy.Poly(sympy.series(to_sympy(f, xs).subs(dict(zip(xs, at)), simultaneous=True), T, 0, length).removeO(), T)
    assert arc(f, z0, spec, length) == [Fraction(str(series.coeff_monomial(T ** k))) for k in range(length)]


@pytest.mark.parametrize("index", range(12))
def test_calculus_matches_sympy(index):
    rng = make_rng(440 + index)
    d = rng.randint(1, 3)
    xs = sympy.symbols(f"x1:{d + 1}")
    p = random_poly(rng, dim=d, max_deg=6, max_terms=6)
    ps = to_sympy(p, xs)
    for j, x in enumerate(xs, start=1):
        assert sympy.expand(to_sympy(diff(p, j), xs) - sympy.diff(ps, x)) == 0
    alpha = tuple(rng.randint(0, 3) for _ in range(d))
    orders = [v for x, a in zip(xs, alpha) if a for v in (x, a)]
    want = sympy.diff(ps, *orders) if orders else ps
    monomial = Polynomial.monomial(d, alpha)
    assert sympy.expand(to_sympy(apply_operator(monomial, p), xs) - want) == 0

    k = rng.randint(1, 3)
    ys = sympy.symbols(f"x1:{k + 1}")
    subs = [random_poly(rng, dim=k, max_deg=2, max_terms=3) for _ in range(d)]
    composed = ps.subs({x: to_sympy(s, ys) for x, s in zip(xs, subs)}, simultaneous=True)
    assert sympy.expand(to_sympy(compose(p, subs), ys) - composed) == 0

    source = random_poly(rng, dim=d, max_deg=3, max_terms=3)
    point = tuple(rational(rng) for _ in range(d))
    assert DiffOperator(source).apply_at(p, point) == Fraction(str(derivative_at(ps, xs, source, point)))
