"""Unit and property tests for the exact polynomial value type and
DiffOperator.apply_at, and for the calculus oracles of tests/oracles.py
that the other suites compare against."""

import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import forbid_fractions, make_rng, random_poly
from dinv import DiffOperator, Polynomial
from dinv.poly import MAX_RATIONAL_DIGITS, DigitLimitError, json_ratio, parse_rational, rational_text
from oracles import (
    apply_at_fraction,
    apply_operator,
    compose,
    diff,
    free_of_leading,
    integrate,
    mul,
    parse_scanner,
    polynomial_from_dict_fraction,
    polynomial_from_dict_per_entry,
)

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

    def test_equals_the_fraction_oracle(self):
        """The integer sum against apply_at_fraction, its Fraction body, at
        points mixing 0, negative integers and non-integers, on zero f and
        on sources with terms above f's degree."""
        rng = make_rng(231)
        above = nonzero = 0
        for k in range(300):
            d = rng.randint(1, 3)
            source = random_poly(rng, d, max_deg=5)
            f = Polynomial.zero(d) if k % 10 == 0 else random_poly(rng, d, max_deg=4)
            point = tuple(
                rng.choice((0, F(0), -rng.randint(1, 5), F(rng.randint(-9, 9), rng.randint(2, 7)), rng.randint(1, 5)))
                for _ in range(d)
            )
            got = DiffOperator(source).apply_at(f, point)
            assert type(got) is Fraction
            assert got == apply_at_fraction(source, f, point), (source, f, point)
            above += max(map(sum, source.numerators)) > f.degree
            nonzero += got != 0
        assert above >= 50 and nonzero >= 100

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

    # Texts of every character parse reads specially, and terms behind runs of signs and whitespace.
    _TEXTS = st.one_of(
        st.text(alphabet="x12^+-*/ 0\t\n3\x1ca", max_size=16),
        st.lists(
            st.tuples(
                st.text(alphabet=" +-\t", max_size=4),
                st.sampled_from(["x1", "x2^3", "3*x1", "1/2*x2*x1^2", "7", "x3", "*x1", "x1*", "2/0", "x1 ^2", " 5 "]),
            ),
            min_size=1,
            max_size=4,
        ).map(lambda parts: "".join(signs + body for signs, body in parts)),
    )

    @given(_TEXTS, st.integers(1, 3))
    @example("x1 - - x2 +\t-3*x1", 2)
    @example("+-+", 2)
    def test_parse_matches_the_scanner(self, text, dim):
        # The same polynomial, or the same error type and text.
        def outcome(parse):
            try:
                return parse(text, dim)
            except Exception as exc:
                return type(exc), str(exc)

        assert outcome(Polynomial.parse) == outcome(parse_scanner)

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


# Texts near the integer and p/q forms: signs, leading zeros, whitespace,
# underscores, non-ASCII digits, decimals, exponents and stray characters.
_digit_runs = st.one_of(
    st.text("0123456789", max_size=6),
    st.integers(0, 10**40).map(str),
    st.sampled_from(["00000", "\u0663", "1_0", "\uff11"]),
)
_ratio_texts = st.builds(
    lambda sign, p, q, tail: sign + p + ("" if q is None else "/" + q) + tail,
    st.sampled_from(["", "-", "+", "--", " ", "-+", "\t"]),
    _digit_runs,
    st.none() | _digit_runs,
    st.sampled_from(["", " ", "\n", "_0", ".1", ".", "e3", "E-2", "/", "x", "j"]),
)
# What a decoded JSON coefficient can be.
_json_values = st.one_of(
    _ratio_texts,
    st.integers(-(10**40), 10**40),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=8),
    st.lists(st.integers(), max_size=2),
)
_EDGE_VALUES = [
    "1" * MAX_RATIONAL_DIGITS,
    "1" * (MAX_RATIONAL_DIGITS + 1),
    "-" + "9" * MAX_RATIONAL_DIGITS + "/" + "7" * MAX_RATIONAL_DIGITS,
    "1/" + "3" * (MAX_RATIONAL_DIGITS + 1),
    "0" * (MAX_RATIONAL_DIGITS + 1) + "5",
    "2" * MAX_RATIONAL_DIGITS + "/" + "4" * MAX_RATIONAL_DIGITS,
    10**MAX_RATIONAL_DIGITS,
    10**MAX_RATIONAL_DIGITS - 1,
    "-0", "0/5", "-0/3", "1/0", "0/0", "-1/0", " 3", "3 ", "1_0", "0.1", "1e3", "1e10000000",
    "2/4", "-6/4", "007/010", "+3", "1/-2", "\u0663", True, False, 0, -12, 0.1, 2.0, 1e308, 5e-324, None, [1],
]


def _outcome(read, value):
    """(value as a Fraction, None) from read(value), or (None, (exception
    class, message))."""
    try:
        got = read(value)
    except Exception as exc:
        return None, (type(exc), str(exc))
    return (F(*got) if isinstance(got, tuple) else got), None


class TestJsonRatio:
    """json_ratio reads what parse_rational(str(v)) reads, to the same value
    or the same error, and its integer and p/q texts with no Fraction made."""

    @pytest.mark.parametrize("value", _EDGE_VALUES, ids=range(len(_EDGE_VALUES)))
    def test_edge_values(self, value):
        assert _outcome(json_ratio, value) == _outcome(lambda v: parse_rational(str(v)), value)

    @given(_json_values)
    def test_same_value_or_error_as_parse_rational(self, value):
        got = _outcome(json_ratio, value)
        assert got == _outcome(lambda v: parse_rational(str(v)), value)
        if got[1] is None:
            assert json_ratio(value)[1] > 0

    def test_integer_forms_make_no_fraction(self, monkeypatch):
        forbid_fractions(monkeypatch)
        widest = "9" * MAX_RATIONAL_DIGITS
        got = [json_ratio(v) for v in ("2/4", "-7", "-0", "007/010", widest + "/" + widest, 12, -3)]
        monkeypatch.undo()
        assert got == [(2, 4), (-7, 1), (0, 1), (7, 10), (int(widest), int(widest)), (12, 1), (-3, 1)]


@st.composite
def json_polys(draw):
    """A decoded JSON polynomial object, mostly well formed: exponents
    sometimes of the wrong length or negative, repeated, and coefficients
    from every JSON form."""
    dim = draw(st.integers(0, 3))
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        if terms and draw(st.integers(0, 4)) == 0:
            exp = list(draw(st.sampled_from(terms))["exp"])
        else:
            length = dim if draw(st.integers(0, 9)) else draw(st.integers(0, 4))
            exp = draw(st.lists(st.integers(-1 if draw(st.integers(0, 9)) == 0 else 0, 4), min_size=length, max_size=length))
        coef = draw(
            st.one_of(
                st.builds(lambda p, q: f"{p}/{q}", st.integers(-12, 12), st.integers(1, 12)),
                st.integers(-5, 5),
                st.sampled_from(["0", "-0", "0/7", "0.25", "1e-2", " 3"]),
                _json_values,
            )
        )
        terms.append({"exp": exp, "coef": coef})
    return {"dim": dim, "terms": terms}


class TestFromDict:
    """from_dict reads the integer form directly; it must equal the
    polynomial that the public constructor makes from the same text read
    as Fractions, or fail with the same message."""

    @given(json_polys())
    @example({"dim": 1, "terms": [{"exp": [1], "coef": "2/4"}, {"exp": [0], "coef": "6/4"}]})
    @example({"dim": 1, "terms": [{"exp": [1], "coef": "1/0"}, {"exp": [0, 1], "coef": "1"}]})
    @example({"dim": 2, "terms": [{"exp": [1, 0, 0], "coef": "1"}, {"exp": [0, 1], "coef": "1/0"}]})
    @example({"dim": 0, "terms": [{"exp": [], "coef": "x"}]})
    def test_equals_the_fraction_reading(self, data):
        got, error = _outcome(Polynomial.from_dict, data)
        want, want_error = _outcome(polynomial_from_dict_fraction, data)
        assert error == want_error
        if error is None:
            assert got == want and got.terms == want.terms
            assert got.scale == want.scale and got.numerators == want.numerators

    def test_unreduced_coefficients_are_reduced(self):
        p = Polynomial.from_dict({"dim": 1, "terms": [{"exp": [2], "coef": "2/4"}, {"exp": [0], "coef": "6/4"}]})
        assert (p.scale, p.numerators) == (2, {(2,): 1, (0,): 3})
        assert Polynomial.from_dict({"dim": 1, "terms": [{"exp": [1], "coef": "3/6"}]}).scale == 2

    def test_last_repeated_exponent_wins(self):
        p = Polynomial.from_dict(
            {"dim": 2, "terms": [{"exp": [1, 0], "coef": "7"}, {"exp": [0, 1], "coef": "1"}, {"exp": [1, 0], "coef": "1/3"}]}
        )
        assert p.terms == {(1, 0): F(1, 3), (0, 1): F(1)} and list(p.numerators) == [(1, 0), (0, 1)]

    def test_zeros_are_dropped(self):
        zeros = [{"exp": [k], "coef": c} for k, c in enumerate(["0", "-0", "0/7", 0, 0.0, "0e5"])]
        p = Polynomial.from_dict({"dim": 1, "terms": [*zeros, {"exp": [9], "coef": "1/2"}]})
        assert (p.scale, p.numerators) == (2, {(9,): 1})
        empty = Polynomial.from_dict({"dim": 1, "terms": zeros})
        assert empty.is_zero and empty == Polynomial.zero(1) and empty.scale == 1

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"dim": 0, "terms": []}, "dimension must be >= 1, got 0"),
            ({"dim": 2, "terms": [{"exp": [1], "coef": "1"}]}, "exponent (1,) has length 1, expected 2"),
            ({"dim": 2, "terms": [{"exp": [1, -1], "coef": "1"}]}, "exponents must be non-negative integers, got (1, -1)"),
            ({"dim": 2, "terms": [{"exp": [-1], "coef": "1"}]}, "exponent (-1,) has length 1, expected 2"),
            ({"dim": 1, "terms": [{"exp": [1], "coef": "1/0"}]}, "malformed polynomial object: Fraction(1, 0)"),
            ({"dim": 1, "terms": [{"exp": [1], "coef": True}]}, "malformed polynomial object: Invalid literal for Fraction: 'True'"),
            ({"dim": 1, "terms": [{"coef": "1"}]}, "malformed polynomial object: 'exp'"),
        ],
        ids=["dim", "length", "negative", "negative-and-length", "zero-denominator", "bool", "no-exp"],
    )
    def test_error_messages(self, data, message):
        with pytest.raises(ValueError) as info:
            Polynomial.from_dict(data)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "exp",
        [[1, True], [False], [1, 1.0], [2.5, 0], ["1", 0], [0, "x"], [[1], 0], [0, [0, 1]], [0, {}], [None, 1],
         [], [1, -1], [-3, 0], [1], [1, 0, 0], [0, 0], [7, 9]],
        ids=["bool", "false", "float", "float-first", "string", "text", "nested", "nested-last", "object", "null",
             "empty", "negative", "negative-first", "short", "long", "constant", "valid"],
    )
    def test_exponent_lists_as_read_entry_by_entry(self, exp):
        # The one-pass type check and the length and sign check refuse what
        # json_int per entry and _check_exponent refuse, with its message.
        for terms in ([{"exp": exp, "coef": "3/4"}], [{"exp": [1, 1], "coef": "1"}, {"exp": exp, "coef": "-2"}]):
            data = {"dim": 2, "terms": terms}
            got, error = _outcome(Polynomial.from_dict, data)
            want, want_error = _outcome(polynomial_from_dict_per_entry, data)
            assert error == want_error
            if error is None:
                assert (got.scale, got.numerators) == (want.scale, want.numerators)

    @given(json_polys())
    def test_equals_the_per_entry_reading(self, data):
        got, error = _outcome(Polynomial.from_dict, data)
        want, want_error = _outcome(polynomial_from_dict_per_entry, data)
        assert error == want_error
        if error is None:
            assert (got.dim, got.scale, got.numerators) == (want.dim, want.scale, want.numerators)
