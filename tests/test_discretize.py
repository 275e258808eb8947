"""Tests for the coalescing point schemes and the limit verification."""

import math
from fractions import Fraction

import pytest

from conftest import make_rng, random_general_spec, random_param_table, random_poly, rational
from dinv import (
    DiffOperator,
    GeneralSpec,
    ParamTable,
    Polynomial,
    build_general,
    build_recursive,
    combination_poly,
    expansion_check,
    points_scheme_a,
    points_scheme_b,
    stencil,
    sweep,
    sweep_to_csv,
)

F = Fraction


def P(text: str, dim: int = 2) -> Polynomial:
    return Polynomial.parse(text, dim)


EXAMPLE_PARAMS = ParamTable(d=2, n=4, a={(2, 2): F(2), (3, 2): F(3), (4, 2): F(4)})
ORIGIN2 = (F(0), F(0))


def h_poly(coeffs: dict[int, int | Fraction]) -> Polynomial:
    return Polynomial(1, {(e,): F(c) for e, c in coeffs.items()})


class TestStencil:
    def test_order_two(self):
        assert stencil(2).coeffs == (F(1, 2), F(-1), F(1, 2))

    def test_order_zero_is_plain_evaluation(self):
        assert stencil(0).coeffs == (F(1),)

    def test_order_three(self):
        assert stencil(3).coeffs == (F(-1, 6), F(1, 2), F(-1, 2), F(1, 6))

    def test_coefficients_sum_to_zero(self):
        for m in range(1, 10):
            assert sum(stencil(m).coeffs) == 0

    def test_reproduces_power_moments(self):
        for m in range(8):
            coeffs = stencil(m).coeffs
            for j in range(m + 1):
                moment = sum(c * i ** j for i, c in enumerate(coeffs))
                assert moment == (1 if j == m else 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            stencil(-1)


class TestPointsSchemeA:
    def test_example_point_two(self):
        pts = points_scheme_a(EXAMPLE_PARAMS, ORIGIN2)
        assert pts.points[2] == (h_poly({1: 2}), h_poly({2: 8, 3: 24, 4: 64}))

    def test_point_zero_is_base(self):
        pts = points_scheme_a(EXAMPLE_PARAMS, (F(1, 2), F(-3)))
        assert pts.points[0] == (h_poly({0: F(1, 2)}), h_poly({0: F(-3)}))

    def test_point_one_uses_uniform_formula(self):
        pts = points_scheme_a(EXAMPLE_PARAMS, ORIGIN2)
        assert pts.points[1] == (h_poly({1: 1}), h_poly({2: 2, 3: 3, 4: 4}))

    def test_first_coordinate_is_linear(self):
        pts = points_scheme_a(EXAMPLE_PARAMS, (F(5), F(7)))
        for i, pt in enumerate(pts.points):
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
        assert pts.points[3] == (h_poly({1: 3}), h_poly({2: 12, 3: 18}))
        assert pts.points[4] == (h_poly({1: 4}), h_poly({2: 24, 3: 72, 4: 96}))

    def test_point_one_moves_only_first_coordinate(self):
        pts = points_scheme_b(EXAMPLE_PARAMS, (F(1), F(2)))
        assert pts.points[1] == (h_poly({0: 1, 1: 1}), h_poly({0: 2}))

    def test_truncation_at_index(self):
        t = ParamTable(d=3, n=5, a={(i, j): F(1) for i in range(2, 6) for j in (2, 3)})
        pts = points_scheme_b(t, (F(0),) * 3)
        for i, pt in enumerate(pts.points):
            for coord in pt[1:]:
                assert all(e[0] <= max(i, 0) for e in coord.terms)

    def test_differs_from_scheme_a_generically(self):
        a = points_scheme_a(EXAMPLE_PARAMS, ORIGIN2)
        b = points_scheme_b(EXAMPLE_PARAMS, ORIGIN2)
        assert a.points != b.points

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
    def test_cubic_gives_exact_multiple(self):
        t = ParamTable(d=2, n=2, a={(2, 2): F(1)})
        pts = points_scheme_a(t, ORIGIN2)
        assert combination_poly(P("x1^3"), 2, pts) == h_poly({3: 3})

    def test_dimension_checked(self):
        pts = points_scheme_a(EXAMPLE_PARAMS, ORIGIN2)
        with pytest.raises(ValueError):
            combination_poly(Polynomial.variable(3, 1), 2, pts)


def oracle_coeffs(f: Polynomial, m: int, pts) -> list[Fraction]:
    """Coefficients of sum_r A_r^(m) * f(z_r(h)) by full composition."""
    total = Polynomial.zero(1)
    for r, w in enumerate(stencil(m).coeffs):
        total = total + w * f.compose(list(pts.points[r]))
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
        for t, f, z0 in random_draws(204, 16):
            for build in (points_scheme_a, points_scheme_b):
                pts = build(t, z0)
                for m in range(t.n + 1):
                    want = Polynomial(1, {(e,): c for e, c in enumerate(oracle_coeffs(f, m, pts))})
                    assert combination_poly(f, m, pts) == want

    def test_target_builds_only_up_to_order(self, monkeypatch):
        import dinv.discretize

        seen = []
        generating = dinv.discretize._generating_elements

        def recording(spec, top):
            built = generating(spec, top)
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
                assert top == m and len(built) == m + 1
                assert tuple(built) == full.elements[: m + 1]
                assert report.target == DiffOperator(full[m]).apply(f).eval(z0)

    def test_check_never_composes(self, monkeypatch):
        def refuse(self, subs):
            raise AssertionError("the limit check must not compose")

        monkeypatch.setattr(Polynomial, "compose", refuse)
        for t, f, z0 in random_draws(206, 8):
            for build in (points_scheme_a, points_scheme_b):
                pts = build(t, z0)
                for m in range(t.n + 1):
                    assert expansion_check(f, z0, m, pts).passed
                    combination_poly(f, m, pts)

    @pytest.mark.parametrize("m", [3, 99, -1])
    def test_order_out_of_range_rejected_before_target(self, m):
        t = ParamTable(d=2, n=2, a={(2, 2): F(1)})
        pts = points_scheme_a(t, ORIGIN2)
        for call in (
            lambda: expansion_check(P("x1"), ORIGIN2, m, pts),
            lambda: sweep(P("x1"), ORIGIN2, m, pts, h0=0.25, steps=4),
            lambda: combination_poly(P("x1"), m, pts),
        ):
            with pytest.raises(ValueError, match=rf"^order {m} exceeds available points 0\.\.2$"):
                call()


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
                assert len(pts.points) == spec.top_weight + 1 and pts.spec is spec
                for m in range(spec.top_weight + 1):
                    report = expansion_check(f, z0, m, pts)
                    assert report.passed
                    assert report.target == DiffOperator(basis[m]).apply(f).eval(z0)

    def test_point_coordinates(self):
        spec = GeneralSpec(n=3, d=2, b=(1, 3, 4), c=((F(1), F(0), F(2, 3)), (F(-1, 2), F(5), F(0))))
        a = points_scheme_a(spec, (F(1), F(0)))
        assert a.points[2] == (h_poly({0: 1, 1: 2, 4: F(32, 3)}), h_poly({1: -1, 3: 40}))
        b = points_scheme_b(spec, (F(1), F(0)))
        assert b.points[2] == (h_poly({0: 1, 1: 2}), h_poly({1: -1}))
        assert b.points[4] == (h_poly({0: 1, 1: 4, 4: 16}), h_poly({1: -2, 3: 120}))


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

    def test_input_validation(self):
        pts = self.make_pts()
        with pytest.raises(ValueError):
            sweep(P("x1"), ORIGIN2, 1, pts, h0=0.0, steps=4)
        with pytest.raises(ValueError):
            sweep(P("x1"), ORIGIN2, 1, pts, h0=0.25, steps=1)

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
        at_half = pts.at(F(1, 2))
        assert at_half[2] == (F(1), F(9))
        assert at_half[1] == (F(1, 2), F(2, 4) + F(3, 8) + F(4, 16))
