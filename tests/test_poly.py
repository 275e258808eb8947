"""Unit and property tests for the exact polynomial value type and
DiffOperator.apply_at, and for the calculus oracles of tests/oracles.py
that the other suites compare against."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dinv import DiffOperator, Polynomial
from dinv.poly import DigitLimitError, rational_text
from oracles import apply_operator, compose, diff, free_of_leading, integrate, mul

F = Fraction


def P(text: str, dim: int = 2) -> Polynomial:
    return Polynomial.parse(text, dim)


@st.composite
def polys(draw, dim: int | None = None, max_exp: int = 4, max_terms: int = 5):
    d = dim if dim is not None else draw(st.integers(1, 3))
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(0, max_exp)) for _ in range(d))
        num = draw(st.integers(-9, 9))
        den = draw(st.integers(1, 9))
        terms[exps] = terms.get(exps, F(0)) + F(num, den)
    return Polynomial(d, terms)


def rationals():
    return st.fractions(min_value=-9, max_value=9, max_denominator=9)


class TestConstruction:
    def test_zero_coefficients_pruned(self):
        p = Polynomial(2, {(1, 0): F(0), (0, 1): F(3)})
        assert p.terms == {(0, 1): F(3)}

    def test_dimension_must_be_positive(self):
        with pytest.raises(ValueError):
            Polynomial(0, {})

    def test_exponent_length_checked(self):
        with pytest.raises(ValueError):
            Polynomial(2, {(1,): F(1)})

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(1, {(-1,): F(1)})

    def test_immutable(self):
        p = Polynomial.variable(2, 1)
        with pytest.raises(AttributeError):
            p.dim = 3

    def test_constant_dimensions_distinct(self):
        assert Polynomial.constant(2, 1) != Polynomial.constant(3, 1)

    def test_variable_range(self):
        with pytest.raises(ValueError):
            Polynomial.variable(2, 3)

    def test_degree(self):
        assert Polynomial.zero(2).degree == -1
        assert Polynomial.constant(2, 5).degree == 0
        assert P("x1^2*x2 + x2").degree == 3


class TestArithmetic:
    def test_additive_inverse(self):
        x1 = Polynomial.variable(2, 1)
        assert (x1 + (-x1)).is_zero

    def test_add_disjoint_supports(self):
        assert P("1/2*x1^2") + P("2*x2") == P("1/2*x1^2 + 2*x2")

    def test_add_merges_coefficients(self):
        assert P("1/2*x1^2 + 2*x2") + P("1/2*x1^2") == P("x1^2 + 2*x2")

    def test_mul_monomials(self):
        assert mul(P("x1"), P("x2")) == P("x1*x2")

    def test_difference_of_squares(self):
        assert mul(P("x1 + 1"), P("x1 - 1")) == P("x1^2 - 1")

    def test_square_of_binomial(self):
        p = P("1/2*x1^2 + 2*x2")
        assert mul(p, p) == P("1/4*x1^4 + 2*x1^2*x2 + 4*x2^2")

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Polynomial.variable(2, 1) + Polynomial.variable(3, 1)
        with pytest.raises(ValueError):
            mul(Polynomial.variable(2, 1), Polynomial.variable(3, 1))
        with pytest.raises(TypeError):  # the value type has no ring product
            Polynomial.variable(2, 1) * Polynomial.variable(2, 1)

    def test_scalar_multiplication(self):
        assert 3 * P("x1") == P("3*x1")
        assert P("x1") * F(1, 2) == P("1/2*x1")


class TestCalculus:
    def test_power_rule(self):
        assert diff(P("1/6*x1^3"), 1) == P("1/2*x1^2")

    def test_partial_other_variable(self):
        assert diff(P("1/2*x1^2 + 2*x2"), 2) == P("2")

    def test_diff_index_range(self):
        with pytest.raises(ValueError):
            diff(P("x1"), 3)

    def test_integrate_basic(self):
        assert integrate(P("x1^2", 1), 1) == P("1/3*x1^3", 1)

    def test_integrate_fresh_variable(self):
        assert integrate(Polynomial.constant(2, 1), 2) == P("x2")

    def test_integrate_is_right_inverse_example(self):
        p = P("x1^2*x2 + 3*x2^2")
        assert diff(integrate(p, 2), 2) == p

    def test_free_of_leading(self):
        assert free_of_leading(P("x1*x2 + x2^2"), 2) == P("x2^2")
        p = P("x1*x2 + x2^2")
        assert free_of_leading(p, 1) == p
        assert free_of_leading(Polynomial.parse("x1 + x2 + x3^2", 3), 3) == Polynomial.parse("x3^2", 3)

    @given(polys(), st.integers(1, 3))
    def test_integrate_right_inverse_of_diff(self, p, j):
        if j > p.dim:
            j = 1
        assert diff(integrate(p, j), j) == p

    @given(polys(dim=2), polys(dim=2), rationals(), rationals(), st.integers(1, 2))
    def test_diff_linear(self, p, q, a, b, j):
        combo = a * p + b * q
        assert diff(combo, j) == a * diff(p, j) + b * diff(q, j)

    @given(polys(dim=2), polys(dim=2), rationals(), rationals(), st.integers(1, 2))
    def test_integrate_linear(self, p, q, a, b, j):
        combo = a * p + b * q
        assert integrate(combo, j) == a * integrate(p, j) + b * integrate(q, j)


class TestDiffOperator:
    def test_identity_operator(self):
        op = DiffOperator(Polynomial.constant(2, 1))
        f = P("x1^2*x2 + 3*x2")
        assert op.apply_at(f, (F(2), F(5))) == f.eval((F(2), F(5)))

    def test_mixed_operator_value(self):
        op = DiffOperator(P("1/2*x1^2 + 2*x2"))
        assert op.apply_at(P("x1^2*x2"), (1, 1)) == 3

    def test_second_derivative_functional(self):
        op = DiffOperator(P("1/2*x1^2 + 2*x2"))
        assert op.apply_at(P("x1^2"), (0, 0)) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch: 3 vs 2"):
            DiffOperator(Polynomial.variable(3, 1)).apply_at(P("x1"), (0, 0))

    @given(polys(dim=2, max_exp=3, max_terms=3), polys(dim=2, max_exp=3, max_terms=3), rationals(), rationals())
    def test_bilinear_in_source(self, s, t, a, b):
        f = P("x1^3*x2 + x1*x2^2 + x1")
        z = (F(1, 2), F(-2, 3))
        lhs = DiffOperator(a * s + b * t).apply_at(f, z)
        rhs = a * DiffOperator(s).apply_at(f, z) + b * DiffOperator(t).apply_at(f, z)
        assert lhs == rhs

    @given(polys(dim=2, max_exp=3, max_terms=3), polys(dim=2, max_exp=3, max_terms=3), rationals(), rationals())
    def test_linear_in_argument(self, f, g, a, b):
        op = DiffOperator(P("x1^2 + x1*x2 + x2"))
        z = (F(1, 3), F(2))
        lhs = op.apply_at(a * f + b * g, z)
        rhs = a * op.apply_at(f, z) + b * op.apply_at(g, z)
        assert lhs == rhs


    @given(
        polys(max_exp=3, max_terms=4).flatmap(
            lambda s: st.tuples(
                st.just(s),
                polys(dim=s.dim, max_exp=5, max_terms=5),
                st.lists(rationals(), min_size=s.dim, max_size=s.dim),
            )
        )
    )
    def test_apply_at_equals_apply_then_eval(self, args):
        source, f, point = args
        assert DiffOperator(source).apply_at(f, point) == apply_operator(source, f).eval(point)

    def test_apply_at_at_origin_and_integer_point(self):
        source = P("x1^2 - 3*x1*x2 + 1/2")
        f = P("x1^4*x2 + 2*x1^2 + x1*x2^3 - 7")
        for point in ((0, 0), (F(0), F(3)), (2, -1)):
            assert DiffOperator(source).apply_at(f, point) == apply_operator(source, f).eval(point)

    def test_apply_at_errors(self):
        op = DiffOperator(P("x1"))
        with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
            op.apply_at(Polynomial.variable(3, 1), (0, 0, 0))
        with pytest.raises(ValueError, match="point has length 3, expected 2"):
            op.apply_at(P("x1*x2"), (0, 0, 0))


class TestTrustedResults:
    """Results of the kernel's own operations skip the public checks; they
    must still hold no zero coefficient and equal the same terms passed
    through the public constructor."""

    @staticmethod
    def assert_clean(r: Polynomial):
        assert all(isinstance(c, Fraction) and c != 0 for c in r.terms.values())
        assert all(isinstance(e, tuple) and len(e) == r.dim for e in r.terms)
        assert Polynomial(r.dim, dict(r.terms)) == r

    def test_difference_with_itself_is_empty(self):
        p = P("x1^2 - 1/3*x2 + 5")
        assert (p - p).terms == {}
        assert (p + (-p)).terms == {}
        assert (p * 0).terms == {}
        assert (0 * p).terms == {}

    @given(polys(dim=2), polys(dim=2), rationals(), st.integers(-3, 3))
    def test_every_operation_is_clean(self, p, q, a, k):
        x1, x2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
        results = [
            p + q, p - q, p - p, -p, p * a, a * p, p * k, Polynomial.zero(2), x1, x2,
        ]
        for r in results:
            self.assert_clean(r)

    def test_public_constructor_still_checks(self):
        with pytest.raises(ValueError):
            Polynomial(2, {(1,): 1})
        with pytest.raises(ValueError):
            Polynomial(2, {(1, -1): 1})
        with pytest.raises(ValueError):
            Polynomial.zero(0)
        assert isinstance(Polynomial(1, {(0,): 3}).coeff((0,)), Fraction)


class TestComposeEval:
    def test_compose_univariate_square(self):
        h = Polynomial.variable(1, 1)
        assert compose(Polynomial.parse("x1^2", 1), [h]) == Polynomial.parse("x1^2", 1)

    def test_compose_sum(self):
        h = Polynomial.variable(1, 1)
        f = P("x1 + x2")
        assert compose(f, [2 * h, mul(h, h)]) == Polynomial.parse("x1^2 + 2*x1", 1)

    def test_compose_cube(self):
        h = Polynomial.variable(1, 1)
        assert compose(Polynomial.parse("x1^3", 1), [3 * h]) == Polynomial.parse("27*x1^3", 1)

    def test_compose_arity_checked(self):
        with pytest.raises(ValueError):
            compose(P("x1 + x2"), [Polynomial.variable(1, 1)])

    def test_compose_mixed_target_dims_rejected(self):
        with pytest.raises(ValueError):
            compose(P("x1 + x2"), [Polynomial.variable(1, 1), Polynomial.variable(2, 1)])

    def test_eval_example(self):
        assert P("1/2*x1^2 + 2*x2").eval((2, 1)) == 4

    def test_eval_origin_gives_constant_term(self):
        p = P("x1^2*x2 + 5")
        assert p.eval((0, 0)) == 5

    def test_eval_zero(self):
        assert Polynomial.zero(3).eval((1, 2, 3)) == 0

    def test_eval_length_checked(self):
        with pytest.raises(ValueError):
            P("x1").eval((1,))

    def test_zero_power_zero_is_one(self):
        assert P("x1^0*x2").eval((0, 1)) == 1

    @given(polys(dim=2, max_exp=3, max_terms=4))
    def test_compose_respects_eval(self, f):
        subs = [P("x1 + x2^2"), P("2*x1*x2 - 1")]
        z = (F(1, 2), F(-3, 4))
        assert compose(f, subs).eval(z) == f.eval(tuple(s.eval(z) for s in subs))


class TestTextAndJson:
    def test_render_zero(self):
        assert Polynomial.zero(2).render() == "0"

    def test_render_canonical_order(self):
        p = P("4*x2 + 2*x2^2 + 1/24*x1^4 + 3*x1*x2 + x1^2*x2")
        assert p.render() == "1/24*x1^4 + x1^2*x2 + 3*x1*x2 + 2*x2^2 + 4*x2"

    def test_render_unit_coefficients(self):
        assert P("x1 - x2").render() == "x1 - x2"
        assert P("-x1").render() == "-x1"

    def test_parse_constant(self):
        assert P("-3/4") == Polynomial.constant(2, F(-3, 4))

    def test_parse_merges_repeats(self):
        assert P("x1 + x1") == P("2*x1")

    def test_parse_rejects_unknown_variable(self):
        with pytest.raises(ValueError):
            Polynomial.parse("x3", 2)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Polynomial.parse("x1 + spam", 2)
        with pytest.raises(ValueError):
            Polynomial.parse("", 2)

    def test_json_shape(self):
        d = P("1/2*x1^2 + 2*x2").to_dict()
        assert d == {
            "dim": 2,
            "terms": [
                {"exp": [2, 0], "coef": "1/2"},
                {"exp": [0, 1], "coef": "2"},
            ],
        }

    def test_from_dict_malformed(self):
        with pytest.raises(ValueError):
            Polynomial.from_dict({"dim": 2})

    @pytest.mark.parametrize(
        "data",
        [
            {"dim": 2.0, "terms": []},
            {"dim": 1, "terms": [{"exp": [1.7], "coef": "1"}]},
            {"dim": 1, "terms": [{"exp": [True], "coef": "1"}]},
            {"dim": 2, "terms": [{"exp": "10", "coef": "1"}]},
            {"dim": 1, "terms": [{"exp": [1], "coef": "1/0"}]},
        ],
        ids=["float-dim", "float-exponent", "bool-exponent", "string-exp", "zero-denominator"],
    )
    def test_from_dict_rejects_non_json_numbers(self, data):
        with pytest.raises(ValueError):
            Polynomial.from_dict(data)

    def test_from_dict_float_coefficient_is_its_decimal(self):
        as_float = Polynomial.from_dict({"dim": 1, "terms": [{"exp": [1], "coef": 0.1}]})
        assert as_float == Polynomial.from_dict({"dim": 1, "terms": [{"exp": [1], "coef": "1/10"}]})

    def test_rational_text_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        widest = 10 ** limit - 1
        assert rational_text(F(-widest, 7)) == str(F(-widest, 7))
        assert rational_text(F(3, widest)) == str(F(3, widest))
        for value in (F(10 ** limit), F(1, 10 ** limit)):
            with pytest.raises(DigitLimitError, match=rf"has {limit + 1} digits, more than Python's limit of {limit}"):
                rational_text(value)
        huge = F(10 ** limit) * P("x1 + 1")
        with pytest.raises(DigitLimitError):
            huge.render()
        with pytest.raises(DigitLimitError):
            huge.to_dict()

    @given(polys())
    def test_text_round_trip(self, p):
        assert Polynomial.parse(p.render(), p.dim) == p

    @given(polys())
    def test_json_round_trip(self, p):
        assert Polynomial.from_dict(p.to_dict()) == p

    @given(polys())
    def test_repr_is_evaluable(self, p):
        assert eval(repr(p), {"Polynomial": Polynomial}) == p
