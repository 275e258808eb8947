"""sympy as a second, independent witness for the exact limit check.

f, the basis element B_m and the point coordinates are rebuilt from their
`to_dict` terms as sympy expressions; the stencil combination is expanded
in h and differentiated by sympy alone, so no arithmetic of `dinv.poly`
is trusted here.  sympy is optional: without it the module is skipped.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from conftest import make_rng, random_param_table, random_poly, rational  # noqa: E402
from dinv import Polynomial, build_recursive, expansion_check, points_scheme_a, points_scheme_b, stencil  # noqa: E402

H = sympy.Symbol("h")


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
    for w, point in zip(stencil(m).coeffs, pts.points):
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
