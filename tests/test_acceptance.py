"""Acceptance gate: the eight headline guarantees of the package.

Each test checks one end-to-end claim at full precision and under a
wall-clock budget, then prints a single `[criterion N] PASS` line (shown
with `pytest -s`; test names carry the same information under `-v`).
A red test here means the library does not do what it promises.
"""

import functools
import time
from fractions import Fraction

from conftest import general_form, make_rng, random_param_table, random_general_spec, random_poly, rational
from dinv import (
    ParamTable,
    Polynomial,
    breadth,
    build_explicit,
    build_general,
    build_recursive,
    check_closure,
    degrees,
    expansion_check,
    points_scheme_a,
    points_scheme_b,
    stencil,
    sweep,
)
from oracles import compose, diff, falling_factorial_sum, signed_power_sum, span_contains, vandermonde_oracle

F = Fraction


def P(text: str, dim: int = 2) -> Polynomial:
    return Polynomial.parse(text, dim)


def h_poly(coeffs: dict[int, int | Fraction]) -> Polynomial:
    return Polynomial(1, {(e,): F(c) for e, c in coeffs.items()})


EXAMPLE_PARAMS = ParamTable(d=2, n=4, a={(2, 2): F(2), (3, 2): F(3), (4, 2): F(4)})

EXAMPLE_BASIS = [
    P("1"),
    P("x1"),
    P("1/2*x1^2 + 2*x2"),
    P("1/6*x1^3 + 2*x1*x2 + 3*x2"),
    P("1/24*x1^4 + x1^2*x2 + 3*x1*x2 + 2*x2^2 + 4*x2"),
]

ORIGIN2 = (F(0), F(0))


@functools.lru_cache(maxsize=1)
def _shared_tables() -> tuple[ParamTable, ...]:
    """The 200 parameter tables exercised by criteria 3 and 4.

    Cached so both tests see the identical sample and the generation cost
    is paid once.
    """
    rng = make_rng(303)
    return tuple(
        random_param_table(rng, d=rng.choice((2, 3, 4)), n=rng.randint(2, 7))
        for _ in range(200)
    )


def test_criterion_1_worked_example_basis():
    start = time.perf_counter()
    rec = build_recursive(EXAMPLE_PARAMS)
    exp = build_explicit(EXAMPLE_PARAMS)
    assert list(rec) == EXAMPLE_BASIS
    assert list(exp) == EXAMPLE_BASIS
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"budget 1s exceeded: {elapsed:.3f}s"
    print(f"\n[criterion 1] PASS: both builders reproduce the worked example basis exactly ({elapsed:.3f}s)")


def test_criterion_2_worked_example_points():
    start = time.perf_counter()
    pts_a = points_scheme_a(EXAMPLE_PARAMS, ORIGIN2)
    pts_b = points_scheme_b(EXAMPLE_PARAMS, ORIGIN2)
    assert pts_a.point(2) == (h_poly({1: 2}), h_poly({2: 8, 3: 24, 4: 64}))
    assert pts_b.point(3) == (h_poly({1: 3}), h_poly({2: 12, 3: 18}))
    assert pts_b.point(4) == (h_poly({1: 4}), h_poly({2: 24, 3: 72, 4: 96}))
    for pts in (pts_a, pts_b):
        for pt in pts:
            assert tuple(c.eval((F(0),)) for c in pt) == ORIGIN2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"budget 1s exceeded: {elapsed:.3f}s"
    print(f"\n[criterion 2] PASS: worked-example points match hand values and coalesce at h=0 ({elapsed:.3f}s)")


def test_criterion_3_builder_equivalence_200_random():
    start = time.perf_counter()
    for t in _shared_tables():
        rec = build_recursive(t)
        assert build_explicit(t).elements == rec.elements
        assert build_general(general_form(t)).elements == rec.elements
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"budget 60s exceeded: {elapsed:.3f}s"
    print(f"\n[criterion 3] PASS: recursive, explicit and general builders agree on 200 random tables ({elapsed:.3f}s)")


def test_criterion_4_derivative_closure_200_random():
    start = time.perf_counter()
    for t in _shared_tables():
        report = check_closure(build_recursive(t), t)
        assert report.ok, f"closure violated at {report.violations} for {t}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"budget 60s exceeded: {elapsed:.3f}s"
    print(f"\n[criterion 4] PASS: derivative closure identities hold on the same 200 tables ({elapsed:.3f}s)")


def test_criterion_5_stencil_identities():
    start = time.perf_counter()
    for m in range(21):
        for j in range(m + 1):
            assert signed_power_sum(j, m) == (1 if j == m else 0)
    for m in range(1, 21):
        for j in range(1, m + 1):
            assert signed_power_sum(j, m, include_zero=False) == (1 if j == m else 0)
    for m in range(13):
        assert vandermonde_oracle(m) == stencil(m)
    for r in range(1, 9):
        for i in range(2, 9):
            assert falling_factorial_sum(r, i, i) == falling_factorial_sum(r, i, r)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"budget 30s exceeded: {elapsed:.3f}s"
    print(f"\n[criterion 5] PASS: power-sum, Vandermonde and cap-invariance identities verified ({elapsed:.3f}s)")


def test_criterion_6_expansion_check_50_random():
    start = time.perf_counter()
    rng = make_rng(306)
    cases = 0
    for _ in range(50):
        d = rng.choice((2, 3))
        n = rng.randint(1, 6)
        t = random_param_table(rng, d=d, n=n)
        f = random_poly(rng, dim=d, max_deg=n + 2, max_terms=4)
        bases = [tuple(F(0) for _ in range(d)), tuple(rational(rng) for _ in range(d))]
        for z0 in bases:
            for pts in (points_scheme_a(t, z0), points_scheme_b(t, z0)):
                for m in range(n + 1):
                    report = expansion_check(f, z0, m, pts)
                    assert report.passed, (
                        f"expansion failed: scheme={pts.scheme} m={m} z0={z0} table={t} f={f!r}"
                    )
                    cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"budget 300s exceeded: {elapsed:.3f}s"
    print(f"\n[criterion 6] PASS: {cases} exact h-expansions hit the derivative target with zero low-order terms ({elapsed:.3f}s)")


def test_criterion_7_convergence_sweep():
    start = time.perf_counter()
    t = ParamTable(d=2, n=2, a={(2, 2): F(1)})
    f = P("x1^3")
    pts = points_scheme_a(t, ORIGIN2)

    combo = Polynomial.zero(1)
    for w, point in zip(stencil(2), pts):
        combo = combo + w * compose(f, list(point))
    assert combo == h_poly({3: 3})
    for k in range(12):
        h = F(1, 4) / 2 ** k
        err = abs(combo.eval((h,)) / h ** 2 - F(0))
        assert err == 3 * h

    rows = sweep(f, ORIGIN2, 2, pts, h0=0.25, steps=12)
    checked = 0
    for row in rows[1:]:
        if row.abs_err > 1e-12:
            assert abs(row.est_order - 1.0) <= 0.15, f"order {row.est_order} at h={row.h}"
            checked += 1
    assert checked >= 8
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"budget 5s exceeded: {elapsed:.3f}s"
    print(f"\n[criterion 7] PASS: known linear-rate case shows exact 3h error and float order 1 ({elapsed:.3f}s)")


def test_criterion_8_general_construction_100_random():
    start = time.perf_counter()
    rng = make_rng(308)
    for _ in range(100):
        spec = random_general_spec(rng, n_max=5, bn_max=8, d_max=3)
        basis = build_general(spec)
        assert degrees(basis) == tuple(range(spec.b[-1] + 1))
        assert breadth(list(basis)) == 1
        for k in range(1, len(basis)):
            lower = list(basis)[:k]
            for j in range(1, basis[k].dim + 1):
                deriv = diff(basis[k], j)
                assert span_contains(lower, deriv) is not None, (
                    f"d/dx{j} of element {k} left the span for {spec}"
                )
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"budget 120s exceeded: {elapsed:.3f}s"
    print(f"\n[criterion 8] PASS: 100 random general constructions are degree-graded, breadth one and derivative-closed ({elapsed:.3f}s)")
