"""Tests for the coalescing point schemes and the limit verification."""

import dataclasses
import math
import time
from fractions import Fraction

import pytest

import dinv.discretize
from conftest import count_fractions, make_rng, random_general_spec, random_param_table, random_poly, rational
from dinv import (
    DiffOperator,
    GeneralSpec,
    ParamTable,
    Polynomial,
    SymbolicPointSet,
    build_general,
    build_recursive,
    expansion_check,
    points_scheme_a,
    points_scheme_b,
    stencil,
    sweep,
    sweep_to_csv,
)
from dinv.discretize import arc
from dinv.subspace import MonomialCodes, _generating_elements, numerator_basis
from oracles import apply_operator, compose, series_fraction

F = Fraction


def P(text: str, dim: int = 2) -> Polynomial:
    return Polynomial.parse(text, dim)


EXAMPLE_PARAMS = ParamTable(d=2, n=4, a={(2, 2): F(2), (3, 2): F(3), (4, 2): F(4)})
ORIGIN2 = (F(0), F(0))


def coprime_spec(n: int) -> GeneralSpec:
    """d = 1, b = (1..n), c_1j = 1/(10^999 + j) for j >= 2: D is the product
    of n - 1 pairwise coprime 1000-digit denominators."""
    return GeneralSpec.from_dict({"n": n, "d": 1, "b": list(range(1, n + 1)),
                                  "c": [["1"] + [f"1/{10**999 + j}" for j in range(2, n + 1)]]})


def h_poly(coeffs: dict[int, int | Fraction]) -> Polynomial:
    return Polynomial(1, {(e,): F(c) for e, c in coeffs.items()})


class TestStencil:
    def test_order_two(self):
        assert stencil(2) == (F(1, 2), F(-1), F(1, 2))

    def test_order_zero_is_plain_evaluation(self):
        assert stencil(0) == (F(1),)

    def test_order_three(self):
        assert stencil(3) == (F(-1, 6), F(1, 2), F(-1, 2), F(1, 6))

    def test_coefficients_sum_to_zero(self):
        for m in range(1, 10):
            assert sum(stencil(m)) == 0

    def test_reproduces_power_moments(self):
        for m in range(8):
            coeffs = stencil(m)
            for j in range(m + 1):
                moment = sum(c * i ** j for i, c in enumerate(coeffs))
                assert moment == (1 if j == m else 0)

    def test_integer_weights_over_factorial(self):
        # The series weights the points by (-1)^(m-r) * C(m, r) over m!.
        for m in range(31):
            for r, c in enumerate(stencil(m)):
                assert c * math.factorial(m) == (-1) ** (m - r) * math.comb(m, r)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            stencil(-1)


class TestPointsSchemeA:
    def test_example_point_two(self):
        pts = points_scheme_a(EXAMPLE_PARAMS, ORIGIN2)
        assert pts.point(2) == (h_poly({1: 2}), h_poly({2: 8, 3: 24, 4: 64}))

    def test_point_zero_is_base(self):
        pts = points_scheme_a(EXAMPLE_PARAMS, (F(1, 2), F(-3)))
        assert pts.point(0) == (h_poly({0: F(1, 2)}), h_poly({0: F(-3)}))

    def test_point_one_uses_uniform_formula(self):
        pts = points_scheme_a(EXAMPLE_PARAMS, ORIGIN2)
        assert pts.point(1) == (h_poly({1: 1}), h_poly({2: 2, 3: 3, 4: 4}))

    def test_first_coordinate_is_linear(self):
        pts = points_scheme_a(EXAMPLE_PARAMS, (F(5), F(7)))
        for i, pt in enumerate(pts):
            assert pt[0] == h_poly({0: 5, 1: i})

    def test_all_points_coalesce_at_zero(self):
        base = (F(2, 3), F(-1, 4))
        pts = points_scheme_a(EXAMPLE_PARAMS, base)
        assert all(tuple(v for v in pt) == base for pt in pts.at(0))

    def test_base_length_checked(self):
        with pytest.raises(ValueError):
            points_scheme_a(EXAMPLE_PARAMS, (F(0),))


class TestPointsSchemeB:
    def test_example_points(self):
        pts = points_scheme_b(EXAMPLE_PARAMS, ORIGIN2)
        assert pts.point(3) == (h_poly({1: 3}), h_poly({2: 12, 3: 18}))
        assert pts.point(4) == (h_poly({1: 4}), h_poly({2: 24, 3: 72, 4: 96}))

    def test_point_one_moves_only_first_coordinate(self):
        pts = points_scheme_b(EXAMPLE_PARAMS, (F(1), F(2)))
        assert pts.point(1) == (h_poly({0: 1, 1: 1}), h_poly({0: 2}))

    def test_truncation_at_index(self):
        t = ParamTable(d=3, n=5, a={(i, j): F(1) for i in range(2, 6) for j in (2, 3)})
        pts = points_scheme_b(t, (F(0),) * 3)
        for i, pt in enumerate(pts):
            for coord in pt[1:]:
                assert all(e[0] <= max(i, 0) for e in coord.terms)

    def test_differs_from_scheme_a_generically(self):
        a = points_scheme_a(EXAMPLE_PARAMS, ORIGIN2)
        b = points_scheme_b(EXAMPLE_PARAMS, ORIGIN2)
        assert tuple(a) != tuple(b)

    def test_coalescence(self):
        base = (F(-2), F(5, 7))
        pts = points_scheme_b(EXAMPLE_PARAMS, base)
        assert all(pt == base for pt in pts.at(0))


class TestExpansionCheck:
    def test_second_derivative_of_square(self):
        rng = make_rng(201)
        for _ in range(5):
            t = random_param_table(rng, d=2, n=rng.randint(2, 4))
            pts = points_scheme_a(t, ORIGIN2)
            report = expansion_check(P("x1^2"), ORIGIN2, 2, pts)
            assert report.low_coeffs == (F(0), F(0))
            assert report.lead == 1 and report.target == 1
            assert report.passed

    def test_high_degree_example(self):
        pts = points_scheme_a(EXAMPLE_PARAMS, ORIGIN2)
        report = expansion_check(P("x1^5*x2^2"), ORIGIN2, 4, pts)
        assert report.passed

    def test_constant_function(self):
        pts = points_scheme_b(EXAMPLE_PARAMS, ORIGIN2)
        report = expansion_check(P("7"), ORIGIN2, 3, pts)
        assert report.passed
        assert report.lead == 0 and report.target == 0
        assert all(c == 0 for c in report.low_coeffs)

    def test_nonzero_base_point(self):
        pts = points_scheme_b(EXAMPLE_PARAMS, (F(1), F(-1, 2)))
        f = P("x1^3*x2 + x2^2")
        for m in range(5):
            assert expansion_check(f, (F(1), F(-1, 2)), m, pts).passed

    def test_target_is_independent_functional(self):
        f = P("x1^4 + x1^2*x2 + x2^2 + x1 + x2 + 1")
        basis = build_recursive(EXAMPLE_PARAMS)
        pts = points_scheme_a(EXAMPLE_PARAMS, ORIGIN2)
        for m in range(5):
            report = expansion_check(f, ORIGIN2, m, pts)
            assert report.target == DiffOperator(basis[m]).apply_at(f, ORIGIN2)
            assert report.passed

    def test_order_beyond_points_rejected(self):
        pts = points_scheme_a(EXAMPLE_PARAMS, ORIGIN2)
        with pytest.raises(ValueError):
            expansion_check(P("x1"), ORIGIN2, 5, pts)

    def test_base_mismatch_rejected(self):
        pts = points_scheme_a(EXAMPLE_PARAMS, ORIGIN2)
        with pytest.raises(ValueError):
            expansion_check(P("x1"), (F(1), F(0)), 1, pts)

    def test_report_json_shape(self):
        pts = points_scheme_a(EXAMPLE_PARAMS, ORIGIN2)
        d = expansion_check(P("x1^2"), ORIGIN2, 2, pts).to_dict()
        assert d == {"m": 2, "low_coeffs": ["0", "0"], "lead": "1", "target": "1", "pass": True}

    def test_random_property_small(self):
        rng = make_rng(202)
        for _ in range(10):
            d = rng.choice((2, 3))
            n = rng.randint(1, 4)
            t = random_param_table(rng, d=d, n=n)
            f = random_poly(rng, dim=d, max_deg=n + 2, max_terms=4)
            z0 = tuple(rational(rng) for _ in range(d))
            for build in (points_scheme_a, points_scheme_b):
                pts = build(t, z0)
                for m in range(n + 1):
                    assert expansion_check(f, z0, m, pts).passed


class TestCombinationPoly:
    """The stencil combination sum_r A_r^(m) * f(z_r(h)) as the cut series
    computes it; expansion_check reads its first m + 1 coefficients."""

    def test_cubic_gives_exact_multiple(self):
        t = ParamTable(d=2, n=2, a={(2, 2): F(1)})
        pts = points_scheme_a(t, ORIGIN2)
        assert dinv.discretize._series(P("x1^3"), 2, pts, 6) == [0, 0, 0, 3, 0, 0]

    def test_dimension_checked(self):
        pts = points_scheme_a(EXAMPLE_PARAMS, ORIGIN2)
        with pytest.raises(ValueError, match="dimension mismatch: f has 3, points have 2"):
            expansion_check(Polynomial.variable(3, 1), ORIGIN2, 2, pts)

    @pytest.mark.parametrize("f", [P("x1 + 1", 1), P("x1 + x3^2 + 1", 3)])
    def test_every_series_path_checks_the_dimension(self, f):
        # Every path lifts f once, and the lift refuses an f of another
        # dimension: the 3-variable f read as x1 + 2 gave arc [2, 1, 0].
        spec = GeneralSpec.from_dict({"d": 2, "n": 3, "a": {"2,2": "2"}})
        want = f"dimension mismatch: f has {f.dim}, points have 2"
        for build in (points_scheme_a, points_scheme_b):
            pts = build(spec, ORIGIN2)
            with pytest.raises(ValueError, match=want):
                expansion_check(f, ORIGIN2, 2, pts)
            with pytest.raises(ValueError, match=want):
                sweep(f, ORIGIN2, 2, pts, h0=0.25, steps=3)
            with pytest.raises(ValueError, match=want):  # a given target lifts no f
                sweep(f, ORIGIN2, 2, pts, h0=0.25, steps=3, target=F(1))
        with pytest.raises(ValueError, match=want):
            arc(f, ORIGIN2, spec, 3)


def oracle_coeffs(f: Polynomial, m: int, pts) -> list[Fraction]:
    """Coefficients of sum_r A_r^(m) * f(z_r(h)) by full composition."""
    total = Polynomial.zero(1)
    for r, w in enumerate(stencil(m)):
        total = total + w * compose(f, list(pts.point(r)))
    return [total.coeff((t,)) for t in range(max(total.degree, m) + 1)]


def random_draws(offset: int, count: int):
    """Seeded (table, f, z0) draws; z0 alternates between the origin and a
    random point, and every fifth f is a constant."""
    rng = make_rng(offset)
    for k in range(count):
        d = rng.choice((2, 3))
        n = rng.randint(1, 5)
        t = random_param_table(rng, d=d, n=n)
        if k % 5 == 4:
            f = Polynomial.constant(d, rational(rng, allow_zero=False))
        else:
            f = random_poly(rng, dim=d, max_deg=n + 2, max_terms=5)
        z0 = (F(0),) * d if k % 2 == 0 else tuple(rational(rng) for _ in range(d))
        yield t, f, z0


class TestTruncatedExpansion:
    """The check expands only to h^m and builds only B_0..B_m; the oracles
    are the full composition and the full basis."""

    def test_report_equals_full_composition_prefix(self):
        for t, f, z0 in random_draws(203, 24):
            for build in (points_scheme_a, points_scheme_b):
                pts = build(t, z0)
                for m in range(t.n + 1):
                    report = expansion_check(f, z0, m, pts)
                    coeffs = oracle_coeffs(f, m, pts)
                    assert report.low_coeffs == tuple(coeffs[:m])
                    assert report.lead == coeffs[m]
                    assert all(isinstance(c, Fraction) for c in (*report.low_coeffs, report.lead))

    def test_combination_poly_equals_full_composition(self):
        # The series uncut: long enough for every power of every coordinate.
        for t, f, z0 in random_draws(204, 16):
            for build in (points_scheme_a, points_scheme_b):
                pts = build(t, z0)
                for m in range(t.n + 1):
                    want = oracle_coeffs(f, m, pts)
                    length = max(f.degree * t.n, m) + 1
                    got = dinv.discretize._series(f, m, pts, length)
                    assert got == want + [0] * (length - len(want))

    def test_target_builds_only_up_to_order(self, monkeypatch):
        seen = []
        generating = dinv.discretize._generating_elements

        def recording(arc, codes, top):
            built = generating(arc, codes, top)
            seen.append((top, built))
            return built

        monkeypatch.setattr(dinv.discretize, "_generating_elements", recording)
        for t, f, z0 in random_draws(205, 12):
            full = build_recursive(t)
            pts = points_scheme_a(t, z0)
            for m in range(t.n + 1):
                seen.clear()
                report = expansion_check(f, z0, m, pts)
                ((top, built),) = seen
                assert top == m and len(built.elems) == m + 1 and built.codes is t.codes == MonomialCodes(t.d, t.n)
                assert numerator_basis(built).elements == full.elements[: m + 1]
                assert report.target == apply_operator(full[m], f).eval(z0)

    def test_check_never_composes(self, monkeypatch):
        # Every product of the check is cut after h^m: no full composition.
        lengths = set()
        mul_cut = dinv.discretize._mul_cut

        def recording(a, b, length):
            lengths.add(length)
            out = mul_cut(a, b, length)
            assert len(out) <= length
            return out

        monkeypatch.setattr(dinv.discretize, "_mul_cut", recording)
        for t, f, z0 in random_draws(206, 8):
            for build in (points_scheme_a, points_scheme_b):
                pts = build(t, z0)
                for m in range(t.n + 1):
                    lengths.clear()
                    assert expansion_check(f, z0, m, pts).passed
                    assert lengths <= {m + 1}

    def test_high_exponents_equal_the_oracles(self):
        # Powers up to 64 take the squaring path through several odd and
        # even steps; the target's powers of z0 are memoized per (i, k).
        rng = make_rng(208)
        for k in range(8):
            t = random_general_spec(rng, n_max=2, bn_max=3, d_max=2)
            f = Polynomial(t.d, {
                tuple(rng.randint(0, 64) if i == top else rng.randint(0, 3) for i in range(t.d)): rational(rng)
                for top in (rng.randrange(t.d) for _ in range(3))
            })
            z0 = (F(0),) * t.d if k % 3 == 0 else tuple(rational(rng) for _ in range(t.d))
            basis = build_general(t)
            for build in (points_scheme_a, points_scheme_b):
                pts = build(t, z0)
                values = [compose(f, list(point)) for point in pts]
                for m in range(t.top_weight + 1):
                    combo = Polynomial.zero(1)
                    for w, value in zip(stencil(m), values):
                        combo = combo + w * value
                    report = expansion_check(f, z0, m, pts)
                    assert report.low_coeffs == tuple(combo.coeff((j,)) for j in range(m))
                    assert report.lead == combo.coeff((m,))
                    assert report.target == apply_operator(basis[m], f).eval(z0)
                    assert report.passed

    def test_huge_degree_at_unit_points(self):
        f = P("x1^99999999 + x1^12345678*x2^3")
        start = time.perf_counter()
        for z0 in ((0, 0), (1, 1), (-1, 1), (1, -1), (-1, -1)):
            z0 = tuple(F(v) for v in z0)
            for build in (points_scheme_a, points_scheme_b):
                pts = build(EXAMPLE_PARAMS, z0)
                for m in range(5):
                    assert expansion_check(f, z0, m, pts).passed
        assert time.perf_counter() - start < 2

    @pytest.mark.parametrize("m", [3, 99, -1])
    def test_order_out_of_range_rejected_before_target(self, m):
        t = ParamTable(d=2, n=2, a={(2, 2): F(1)})
        pts = points_scheme_a(t, ORIGIN2)
        for call in (
            lambda: expansion_check(P("x1"), ORIGIN2, m, pts),
            lambda: sweep(P("x1"), ORIGIN2, m, pts, h0=0.25, steps=4),
        ):
            with pytest.raises(ValueError, match=rf"^order {m} exceeds available points 0\.\.2$"):
                call()


class TestIntegerSeries:
    """The series runs on ints in u = h / D; series_fraction, the same cut
    series with a Fraction in every cell, is its reference."""

    @staticmethod
    def draw(rng, k: int):
        """(spec, f, z0): c over denominators up to 12 (so D > 1), weights
        with gaps, the last variable zero at every point on odd k (its c row
        zero and z0 coordinate 0), z0 mixing 0, negative integers and
        non-integers, and f with a constant term and one variable raised
        higher than the others."""
        n, d = rng.randint(1, 4), rng.randint(1, 3)
        b = tuple([1] + sorted(rng.sample(range(2, 7), n - 1)))
        c = [[rational(rng, max_den=12) for _ in range(n)] for _ in range(d)]
        c[0][0] = rational(rng, max_den=12, allow_zero=False)
        zero_var = d - 1 if d > 1 and k % 2 else None
        if zero_var is not None:
            c[zero_var] = [0] * n
        spec = GeneralSpec(n=n, d=d, b=b, c=c)
        z0 = tuple(
            F(0) if i == zero_var else rng.choice((F(0), F(-rng.randint(1, 5)), F(rng.randint(-9, 9), rng.randint(2, 7))))
            for i in range(d)
        )
        terms = dict(random_poly(rng, dim=d, max_deg=3, max_terms=4).terms)
        terms[(0,) * d] = rational(rng, allow_zero=False)
        high = rng.randrange(d)
        terms[tuple(rng.randint(5, 11) if i == high else rng.randint(0, 1) for i in range(d))] = rational(rng, allow_zero=False)
        return spec, Polynomial(d, terms), z0

    def test_equals_the_fraction_series(self):
        rng = make_rng(209)
        rescaled = zero_coordinate = 0
        for k in range(40):
            spec, f, z0 = self.draw(rng, k)
            den = spec.arc.den
            rescaled += den > 1 and spec.top_weight > 1
            for build in (points_scheme_a, points_scheme_b):
                pts = build(spec, z0)
                zero_coordinate += any(all(point[i].is_zero for point in pts) for i in range(spec.d))
                for m in range(spec.top_weight + 1):
                    for length in (m + 1, m + 4):
                        got = dinv.discretize._series(f, m, pts, length)
                        assert got == series_fraction(f, m, pts, length), (spec, f, z0, m, length)
                        assert all(type(v) is Fraction for v in got)
        assert rescaled >= 20 and zero_coordinate >= 10

    def test_rule_series_equals_the_rescaled_points(self):
        """For every point, both schemes and every cut length 1..b_n + 1,
        the rule's u-series is the Polynomial point's h^t coefficients
        times q_i * D^t, an integer, cut and with trailing zeros dropped."""
        rng = make_rng(212)
        seen = set()
        for k in range(40):
            spec, f, z0 = self.draw(rng, k)
            den, top = spec.arc.den, spec.top_weight
            kinds = {
                "D > 1": den > 1,
                "zero": 0 in z0,
                "negative": any(v < 0 for v in z0),
                "non-integer": any(v.denominator > 1 for v in z0),
            }
            seen |= {kind for kind, has in kinds.items() if has}
            for build in (points_scheme_a, points_scheme_b):
                pts = build(spec, z0)
                for r in range(top + 1):
                    point = pts.point(r)
                    for length in range(1, top + 2):
                        want = []
                        for v, coord in zip(z0, point):
                            dense = [0] * length
                            for (t,), num in coord.numerators.items():
                                if t < length:
                                    lifted, rest = divmod(num * v.denominator * den ** t, coord.scale)
                                    assert rest == 0
                                    dense[t] = lifted
                            while dense and not dense[-1]:
                                dense.pop()
                            want.append(dense)
                        assert dinv.discretize._u_series(pts.base, pts.point_arc(r, length), length) == want, (spec, z0, r, length)
        assert seen == {"D > 1", "zero", "negative", "non-integer"}

    def test_check_makes_one_polynomial_the_target(self, monkeypatch):
        """expansion_check constructs exactly one Polynomial, the target's
        B_m: the points are read from the rule."""
        rng = make_rng(213)
        init, made = Polynomial.__init__, []

        def counted(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(self)

        for k in range(6):
            spec, f, z0 = self.draw(rng, k)
            basis = build_general(spec)
            monkeypatch.setattr(Polynomial, "__init__", counted)
            for build in (points_scheme_a, points_scheme_b):
                for m in range(spec.top_weight + 1):
                    pts = build(spec, z0)
                    made.clear()
                    assert expansion_check(f, z0, m, pts).passed
                    assert made == [basis[m]], (spec, m)
            monkeypatch.undo()

    def test_only_the_returned_coefficients_are_fractions(self, monkeypatch):
        spec, f, z0 = self.draw(make_rng(210), 1)
        pts = points_scheme_b(spec, z0)
        made = count_fractions(monkeypatch)
        for m in range(spec.top_weight + 1):
            made.clear()
            dinv.discretize._series(f, m, pts, m + 1)
            assert len(made) == m + 1

    def test_points_and_check_make_no_fraction_before_their_answers(self, monkeypatch):
        """A point set makes a Fraction only for each coordinate of z0; the
        check makes those, its m + 1 series coefficients and its target."""
        rng = make_rng(211)
        for k in range(6):
            spec, f, z0 = self.draw(rng, k)
            made = count_fractions(monkeypatch)
            for build in (points_scheme_a, points_scheme_b):
                made.clear()
                pts = build(spec, z0)
                assert len(made) == spec.d
                for m in range(spec.top_weight + 1):
                    made.clear()
                    expansion_check(f, z0, m, pts)
                    assert len(made) == spec.d + m + 2, (spec, m, made)
            monkeypatch.undo()


class TestGeneralSpecs:
    """Both schemes over a general spec's weights (b, c): b_n + 1 points,
    z_r(h) = z0 + (sum_j h_coef(r, b_j) * c_ij * h^(b_j))_i, and every order
    reproduces B_m(D)f of the enumeration oracle build_general."""

    def test_every_order_of_both_schemes(self):
        rng = make_rng(207)
        for k in range(100):
            spec = random_general_spec(rng, n_max=4, bn_max=6)
            f = random_poly(rng, dim=spec.d, max_deg=spec.top_weight + 1, max_terms=4)
            z0 = (F(0),) * spec.d if k % 2 == 0 else tuple(rational(rng) for _ in range(spec.d))
            basis = build_general(spec)
            for build in (points_scheme_a, points_scheme_b):
                pts = build(spec, z0)
                assert len(tuple(pts)) == spec.top_weight + 1 and pts.spec is spec
                for m in range(spec.top_weight + 1):
                    report = expansion_check(f, z0, m, pts)
                    assert report.passed
                    assert report.target == apply_operator(basis[m], f).eval(z0)

    def test_point_coordinates(self):
        spec = GeneralSpec(n=3, d=2, b=(1, 3, 4), c=((F(1), F(0), F(2, 3)), (F(-1, 2), F(5), F(0))))
        a = points_scheme_a(spec, (F(1), F(0)))
        assert a.point(2) == (h_poly({0: 1, 1: 2, 4: F(32, 3)}), h_poly({1: -1, 3: 40}))
        b = points_scheme_b(spec, (F(1), F(0)))
        assert b.point(2) == (h_poly({0: 1, 1: 2}), h_poly({1: -1}))
        assert b.point(4) == (h_poly({0: 1, 1: 4, 4: 16}), h_poly({1: -2, 3: 120}))


class TestArc:
    """arc reads every order's target off f(z0 + p(t)) at once; the limit
    check's own target, the generating recurrence plus apply_at, is its
    reference."""

    # CI's general spec, f and base point.
    CI = (
        GeneralSpec(n=3, d=2, b=(1, 3, 4), c=((F(1), F(0), F(2, 3)), (F(-1, 2), F(5), F(0)))),
        P("x1^5*x2 + x2^3 - 2*x1^2 + 3"),
        (F(-1, 2), F(3)),
    )

    @staticmethod
    def recurrence_targets(f, z0, spec, orders) -> list[Fraction]:
        """(B_m(D)f)(z0) for each m in orders: one recurrence on monomial
        codes to the last order, each B_m applied at z0 by apply_at."""
        codes, elems = _generating_elements(spec.arc, spec.codes, max(orders))
        return [DiffOperator(Polynomial(codes.d, elems[m][1], _scale=elems[m][0], _codes=codes)).apply_at(f, z0) for m in orders]

    def test_every_order_of_seeded_specs(self):
        rng = make_rng(215)
        for _ in range(200):
            spec = random_general_spec(rng, bn_max=8, d_max=3)
            f = random_poly(rng, dim=spec.d, max_deg=spec.top_weight + 2)
            z0 = tuple(rational(rng) for _ in range(spec.d))
            orders = range(spec.top_weight + 1)
            assert arc(f, z0, spec, len(orders)) == self.recurrence_targets(f, z0, spec, orders), (spec, f, z0)

    def test_ci_general_spec(self):
        spec, f, z0 = self.CI
        orders = range(spec.top_weight + 1)
        assert arc(f, z0, spec, len(orders)) == self.recurrence_targets(f, z0, spec, orders)

    def test_b5300_orders(self):
        spec, f, z0 = TestPointSetRule.B5300, P("x1^3 + x1^2", 1), (F(1, 3),)
        orders = (66, 200, 3000)
        values = arc(f, z0, spec, orders[-1] + 1)
        assert [values[m] for m in orders] == self.recurrence_targets(f, z0, spec, orders)
        assert values[:5] == [F(4, 27), F(1), F(2), F(1), F(0)]

    def test_the_check_does_not_read_the_arc(self, monkeypatch):
        # The arc shares the series' evaluator, so it cannot witness the check.
        def refused(*args):
            raise AssertionError("expansion_check read the arc")

        monkeypatch.setattr(dinv.discretize, "arc", refused)
        spec, f, z0 = self.CI
        for build in (points_scheme_a, points_scheme_b):
            assert all(expansion_check(f, z0, m, build(spec, z0)).passed for m in range(spec.top_weight + 1))

    def test_powers_of_d_charged_before_they_are_taken(self, monkeypatch):
        # D is the product of 19 1000-digit denominators, and the arc to t^20
        # carries D^(b_j - 1) up to D^19: each power is charged before it is
        # taken, so a small budget refuses the arc before it evaluates f.
        def refused(*args):
            raise AssertionError("the arc evaluated f")

        monkeypatch.setattr(dinv.discretize, "_evaluate", refused)
        dinv.fuel.arm(1_000_000)
        try:
            with pytest.raises(dinv.fuel.OutOfFuel, match="out of fuel in the limit series"):
                arc(P("x1", 1), (F(0),), coprime_spec(20), 21)
        finally:
            dinv.fuel.disarm()

    def test_padding_charged_before_it_is_made(self, monkeypatch):
        # b = (1, 10^6) in 20 variables: the arc to t^(10^6) pads each
        # coordinate with 10^6 zeros, a cell each, charged before the lists
        # are made, so a budget of half of them refuses the arc at once.
        def refused(*args):
            raise AssertionError("the arc evaluated f")

        monkeypatch.setattr(dinv.discretize, "_evaluate", refused)
        spec = GeneralSpec(n=2, d=20, b=(1, 10**6), c=[[1, 1]] + [[0, 1]] * 19)
        dinv.fuel.arm(10_000_000)
        try:
            with pytest.raises(dinv.fuel.OutOfFuel, match="out of fuel in the limit series"):
                arc(P("x1", 20), (F(0),) * 20, spec, 10**6 + 1)
        finally:
            dinv.fuel.disarm()


class TestSweep:
    def make_pts(self):
        t = ParamTable(d=2, n=2, a={(2, 2): F(1)})
        return points_scheme_a(t, ORIGIN2)

    def test_error_is_three_h(self):
        rows = sweep(P("x1^3"), ORIGIN2, 2, self.make_pts(), h0=0.25, steps=12)
        assert len(rows) == 12
        for k, row in enumerate(rows):
            h = 0.25 * 2.0 ** (-k)
            assert row.h == h
            assert row.exact == 0.0
            assert row.abs_err == pytest.approx(3.0 * h, rel=1e-12)
        assert rows[0].est_order is None
        for row in rows[1:]:
            assert row.est_order == pytest.approx(1.0, abs=1e-9)

    def test_exact_reproduction_has_zero_error(self):
        rows = sweep(P("x1^2"), ORIGIN2, 2, self.make_pts(), h0=0.25, steps=4)
        for row in rows:
            assert row.abs_err == 0.0
            assert row.est_order is None

    def test_rows_equal_the_fraction_reference(self):
        """Each approx is bit for bit the sum with the stencil's Fraction
        weights and the points' Fraction coefficients each rounded by
        float(), so CSVs do not move with how the floats are made."""
        rng = make_rng(214)
        eval_float = dinv.discretize._eval_float
        for k in range(10):
            spec, f, z0 = TestIntegerSeries.draw(rng, k)
            f_terms = [(e, float(c)) for e, c in f.terms.items()]
            for build in (points_scheme_a, points_scheme_b):
                pts = build(spec, z0)
                for m in range(spec.top_weight + 1):
                    for row in sweep(f, z0, m, pts, h0=0.5, steps=3):
                        acc = 0.0
                        for w, point in zip(stencil(m), pts):
                            coords = [eval_float([(e, float(c)) for e, c in x.terms.items()], [row.h]) for x in point]
                            acc += float(w) * eval_float(f_terms, coords)
                        assert row.approx == acc / row.h ** m, (spec, m, row.h)

    def test_input_validation(self):
        pts = self.make_pts()
        with pytest.raises(ValueError):
            sweep(P("x1"), ORIGIN2, 1, pts, h0=0.0, steps=4)
        with pytest.raises(ValueError):
            sweep(P("x1"), ORIGIN2, 1, pts, h0=0.25, steps=1)

    def test_base_other_than_the_point_sets_refused(self):
        with pytest.raises(ValueError, match=r"^evaluation point .* differs from the point-set base"):
            sweep(P("x1"), (F(1), F(0)), 1, self.make_pts(), h0=0.25, steps=4)

    @pytest.mark.parametrize("m, keep", [(0, 1073), (1, 1073), (2, 536)])
    def test_steps_that_reach_zero_are_refused(self, m, keep):
        """0.25 * 2.0 ** -1073 is 0.0, and h**2 underflows from step 537:
        the last accepted count runs, one more is refused before any work."""
        pts = self.make_pts()
        rows = sweep(P("x1^2"), ORIGIN2, m, pts, h0=0.25, steps=keep)
        assert rows[-1].h > 0.0 and rows[-1].h ** m > 0.0
        for steps in (keep + 1, 3_000_000, 10**400):
            with pytest.raises(ValueError, match=f"--steps {steps} halvings of --h0 0.25 .* at most {keep} steps"):
                sweep(P("x1^2"), ORIGIN2, m, pts, h0=0.25, steps=steps)

    def test_csv_format(self):
        rows = sweep(P("x1^3"), ORIGIN2, 2, self.make_pts(), h0=0.25, steps=3)
        text = sweep_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "h,approx,exact,abs_err,est_order"
        assert len(lines) == 4
        assert lines[1].endswith(",")
        assert lines[2].split(",")[-1] == "1.0"


class TestPointSetSerialization:
    def test_to_dict_shape(self):
        pts = points_scheme_b(EXAMPLE_PARAMS, ORIGIN2)
        d = pts.to_dict()
        assert d["scheme"] == "b"
        assert d["base"] == ["0", "0"]
        assert len(d["points"]) == 5
        assert d["points"][3][1] == {
            "dim": 1,
            "terms": [{"exp": [3], "coef": "18"}, {"exp": [2], "coef": "12"}],
        }

    def test_numeric_points(self):
        pts = points_scheme_a(EXAMPLE_PARAMS, ORIGIN2)
        at_half = list(pts.at(F(1, 2)))
        assert at_half[2] == (F(1), F(9))
        assert at_half[1] == (F(1, 2), F(2, 4) + F(3, 8) + F(4, 16))


class TestPointSetRule:
    """A point set stores its rule (scheme, base, spec) and makes point r
    on each read."""

    SPEC = GeneralSpec(n=3, d=2, b=(1, 3, 9), c=((F(1), F(0), F(2, 3)), (F(-1, 2), F(5), F(1, 7))))
    # CI's spec with a gap up to weight 5300: scheme a's h_coef(r, 5300) is r^5300.
    B5300 = GeneralSpec(n=2, d=1, b=(1, 5300), c=((F(1), F(1)),))

    @pytest.fixture
    def asked(self, monkeypatch):
        """Every (scheme, r, b) the scheme rules are asked h_coef(r, b) for,
        in order."""
        asked = []
        for scheme, (h_coef, log10) in list(dinv.discretize.SCHEME_RULES.items()):
            def counted(r, b, scheme=scheme, h_coef=h_coef):
                asked.append((scheme, r, b))
                return h_coef(r, b)
            monkeypatch.setitem(dinv.discretize.SCHEME_RULES, scheme, (counted, log10))
        return asked

    @staticmethod
    def made(asked, scheme: str) -> list[int]:
        """The point indices r of scheme in the order their points were
        made: each point takes h_coef(r, b_j) once per weight, first at b_j = 1."""
        return [r for s, r, b in asked if s == scheme and b == 1]

    def test_compares_its_rule_alone(self):
        assert [f.name for f in dataclasses.fields(SymbolicPointSet) if f.compare] == ["scheme", "base", "spec"]
        for build in (points_scheme_a, points_scheme_b):
            read, fresh = build(self.SPEC, (F(1, 2), F(-3))), build(self.SPEC, (F(1, 2), F(-3)))
            tuple(read)
            assert read == fresh and hash(read) == hash(fresh)
            assert read != build(self.SPEC, (F(1, 2), F(3)))
        assert points_scheme_a(self.SPEC, ORIGIN2) != points_scheme_b(self.SPEC, ORIGIN2)

    def test_unknown_scheme_refused(self):
        with pytest.raises(ValueError, match="unknown scheme 'c': expected 'a' or 'b'"):
            SymbolicPointSet("c", ORIGIN2, self.SPEC)

    def test_point_rule_charges_no_power_of_d(self):
        # Point r's arc takes h_coef(r, b_j) alone; the D^(b_j - 1) of its
        # u-series is charged where it is taken, so D does not move the rule's charge.
        spent = []
        for spec in (coprime_spec(20), GeneralSpec(n=20, d=1, b=range(1, 21), c=[[F(1)] * 20])):
            for build in (points_scheme_a, points_scheme_b):
                pts = build(spec, (F(1, 3),))
                dinv.fuel.arm(10**30)
                try:
                    for r in range(21):
                        pts.point_arc(r, 21)
                    spent.append(dinv.fuel._spent)
                finally:
                    dinv.fuel.disarm()
        assert spent[:2] == spent[2:]

    def test_point_arcs_rescale_the_spec_arc(self):
        # Point r's arc is the spec's with weight b's slots times h_coef(r, b);
        # under scheme b it has no weight above r, and point 0's has no slot.
        arc_of = self.SPEC.arc
        for build, h_coef in ((points_scheme_a, pow), (points_scheme_b, dinv.discretize.falling_factorial)):
            pts = build(self.SPEC, ORIGIN2)
            assert pts.point_arc(0, 10).by_weight == ()
            for r in range(10):
                want = tuple((b, tuple((i, n * h_coef(r, b)) for i, n in form)) for b, form in arc_of.by_weight if h_coef(r, b))
                assert pts.point_arc(r, 10) == (arc_of.d, arc_of.den, want)
                if pts.scheme == "b":
                    assert all(b <= r for b, _ in pts.point_arc(r, 10).by_weight)

    def test_arc_makes_no_point_set(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("arc made a point set")

        monkeypatch.setattr(SymbolicPointSet, "__init__", refused)
        spec, f, z0 = TestArc.CI
        assert arc(f, z0, spec, spec.top_weight + 1) == TestArc.recurrence_targets(f, z0, spec, range(spec.top_weight + 1))

    @pytest.mark.parametrize("build", [points_scheme_a, points_scheme_b])
    def test_expansion_check_makes_exactly_the_points_it_reads(self, build, asked):
        """The check at order m makes no Polynomial point: it reads points
        0..m from the rule as u-series cut after u^m, so it asks h_coef(r, b)
        once for each r <= m and each weight b <= m, and nothing past the cut
        (on B5300, no r^5300)."""
        for spec, z0, f, orders in (
            (self.SPEC, (F(2, 3), F(-1)), P("x1^3*x2 + x2^2 - x1 + 1"), range(self.SPEC.top_weight + 1)),
            (self.B5300, (F(1, 3),), P("x1^3 + x1^2", 1), (0, 1, 2, 66)),
        ):
            for m in orders:
                asked.clear()
                pts = build(spec, z0)
                assert expansion_check(f, z0, m, pts).passed
                assert asked == [(pts.scheme, r, b) for r in range(m + 1) for b in spec.b if b <= m]

    def test_two_passes_make_each_point_twice(self, asked):
        # A point set keeps no point: each pass of at(h) makes every point again.
        pts = points_scheme_a(self.SPEC, ORIGIN2)
        assert list(pts.at(F(1, 3))) == list(pts.at(F(1, 3)))
        assert self.made(asked, "a") == [*range(self.SPEC.top_weight + 1)] * 2

    def test_sweeps_of_rising_orders_share_the_points(self, asked):
        # study sweeps one point set at m = 0, 1, ...: order m makes only point m.
        pts = points_scheme_b(self.SPEC, ORIGIN2)
        for m in range(4):
            sweep(P("x1^2 + x2"), ORIGIN2, m, pts, h0=0.25, steps=3)
            assert self.made(asked, "b") == list(range(m + 1))
        # Each sweep's default target is read off the spec's own arc, which asks no rule.
        assert all(s == "b" for s, _, _ in asked)

    def test_a_writer_stops_at_the_point_it_refuses(self, asked):
        pts = points_scheme_a(self.SPEC, ORIGIN2)
        for r, pt in enumerate(pts.at(F(1, 2))):
            if r == 2:
                break
        assert self.made(asked, "a") == [0, 1, 2]

    @pytest.mark.parametrize("r", [-1, 10])
    def test_point_outside_the_set_refused(self, r, asked):
        pts = points_scheme_a(self.SPEC, ORIGIN2)
        for read in (pts.point, lambda r: pts.point_arc(r, 10)):
            with pytest.raises(IndexError, match=rf"^point {r} outside 0\.\.9$"):
                read(r)
        assert asked == []
