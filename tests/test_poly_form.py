"""Polynomial's one stored form: integer numerators over one positive
scale, with the {exponent: Fraction} view made afresh on each read.

Every way of making a polynomial (the public constructor,
numerator_polynomial on unreduced scales, parse and from_dict) and every vector-space operation is compared with the plain
Fraction-dict oracle of tests/oracles.py, and every result must hold the
canonical form: scale > 0, no zero numerator, gcd(scale, numerators) == 1.
DiffOperator.apply_at, which reads its source's numerators, is compared
with the term-by-term oracle apply_operator.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import forbid_fractions, make_rng, rational, seeded_specs
from dinv import DiffOperator, Polynomial, build_general, build_generating, build_recursive
from dinv.subspace import MonomialCodes, numerator_polynomial
from oracles import apply_operator, dict_add, dict_eval, dict_render, dict_scaled

F = Fraction

_COEFS = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@st.composite
def term_dicts(draw, dim: int) -> dict:
    """{exponent: Fraction} in dim variables, zeros dropped."""
    keys = st.tuples(*[st.integers(0, 4)] * dim)
    raw = draw(st.dictionaries(keys, _COEFS, max_size=6))
    return {e: c for e, c in raw.items() if c}


def all_ways(terms: dict, dim: int, k: int = 6) -> list[Polynomial]:
    """The polynomial of terms made four ways: the public constructor (with
    a zero coefficient to drop and int coefficients where integral),
    numerator_polynomial over k times the least scale (the gcd fold must
    reduce it), parse and from_dict."""
    scale = k * math.lcm(1, *(c.denominator for c in terms.values()))
    public = {e: int(c) if c.denominator == 1 else c for e, c in terms.items()}
    public.setdefault((0,) * dim, 0)
    codes = MonomialCodes(dim, max(map(sum, terms), default=0))
    return [
        Polynomial(dim, public),
        numerator_polynomial(codes, scale, {codes.pack(e): int(c * scale) for e, c in terms.items()}),
        Polynomial.parse(dict_render(terms, dim), dim),
        Polynomial.from_dict({"dim": dim, "terms": [{"exp": list(e), "coef": str(c)} for e, c in terms.items()]}),
    ]


@st.composite
def made(draw, dim: int) -> tuple[dict, Polynomial]:
    """(oracle terms, the same polynomial made one of the four ways)."""
    terms = draw(term_dicts(dim))
    return terms, draw(st.sampled_from(all_ways(terms, dim, draw(st.integers(1, 36)))))


def assert_canonical(p: Polynomial) -> None:
    assert type(p.scale) is int and p.scale > 0
    assert all(type(v) is int and v != 0 for v in p.numerators.values())
    assert math.gcd(p.scale, *p.numerators.values()) == 1
    assert p.terms.keys() == p.numerators.keys()
    assert all(type(c) is F and c == F(p.numerators[e], p.scale) for e, c in p.terms.items())


def assert_is(p: Polynomial, terms: dict, dim: int) -> None:
    assert p.dim == dim and p.terms == terms
    assert_canonical(p)
    assert p.degree == max(map(sum, terms), default=-1)
    assert p.is_zero == (not terms) == (not p)


dims = st.integers(1, 3)


@given(st.data(), dims)
def test_every_construction_matches_the_oracle(data, dim):
    terms, p = data.draw(made(dim))
    assert_is(p, terms, dim)


@given(st.data(), dims, st.integers(1, 36))
def test_equal_polynomials_made_different_ways_compare_equal(data, dim, k):
    terms, p = data.draw(made(dim))
    for r in all_ways(terms, dim, k) + [Polynomial.from_dict(p.to_dict()), Polynomial.parse(p.render(), dim)]:
        assert r == p and p == r
        assert (r.scale, r.numerators) == (p.scale, p.numerators)
    # A different dimension or one coefficient off is a different value.
    assert p != Polynomial(dim + 1, {e + (0,): c for e, c in terms.items()})
    assert p != p + Polynomial.constant(dim, F(1, 7))


@given(st.data(), dims, _COEFS, st.integers(-5, 5))
def test_vector_space_operations_match_the_oracle(data, dim, a, k):
    tp, p = data.draw(made(dim))
    tq, q = data.draw(made(dim))
    assert_is(p + q, dict_add(tp, tq), dim)
    assert_is(p - q, dict_add(tp, dict_scaled(tq, -1)), dim)
    assert_is(-p, dict_scaled(tp, -1), dim)
    assert_is(p * a, dict_scaled(tp, a), dim)
    assert_is(a * p, dict_scaled(tp, a), dim)
    assert_is(k * p, dict_scaled(tp, k), dim)
    assert_is(p - p, {}, dim)
    # The operands are unchanged.
    assert_is(p, tp, dim)
    assert_is(q, tq, dim)


@given(st.data(), dims, st.lists(_COEFS, min_size=3, max_size=3))
def test_eval_render_and_round_trips_match_the_oracle(data, dim, point):
    terms, p = data.draw(made(dim))
    # The drawn point, and points with zero and negative coordinates.
    for pt in (point[:dim], [0] * dim, [-1] * dim, [F(-3, 2), 0, 5][:dim], [0, F(-2, 7), -4][:dim]):
        assert p.eval(pt) == dict_eval(terms, pt)
    assert p.render() == dict_render(terms, dim)
    assert p.to_dict() == Polynomial(dim, terms).to_dict()
    assert_is(Polynomial.from_dict(p.to_dict()), terms, dim)
    assert_is(Polynomial.parse(p.render(), dim), terms, dim)


@given(st.data(), dims, st.lists(_COEFS, min_size=3, max_size=3))
def test_apply_at_reads_either_form_of_its_source(data, dim, point):
    # DiffOperator sums over its source's numerators and divides once by
    # the scale; the oracle differentiates term by term and evaluates.
    terms, source = data.draw(made(dim))
    f_terms, f = data.draw(made(dim))
    expected = apply_operator(Polynomial(dim, terms), Polynomial(dim, f_terms)).eval(point[:dim])
    assert DiffOperator(source).apply_at(f, point[:dim]) == expected


def test_terms_is_a_view_that_cannot_change_the_polynomial():
    # terms is made afresh on each read: writing into one read changes
    # neither the polynomial nor the next read.
    p, twin = Polynomial(1, {(1,): F(1, 2)}), Polynomial(1, {(1,): F(1, 2)})
    p.terms[(2,)] = F(3)
    view = p.terms
    view[(1,)] = F(5)
    del view[(1,)]
    assert p.terms == {(1,): F(1, 2)} and p.terms is not p.terms
    assert p.degree == 1 and p.render() == "1/2*x1" and p == twin
    assert (p.scale, p.numerators) == (2, {(1,): 1})


def test_the_zero_polynomial_has_scale_one():
    for p in (Polynomial.zero(2), Polynomial(2, {}), numerator_polynomial(MonomialCodes(2, 0), 35, {}), Polynomial(2, {(1, 0): 0})):
        assert (p.scale, p.numerators, p.terms, p.degree) == (1, {}, {}, -1)
        assert p == Polynomial.zero(2) and not p


def test_numerator_polynomial_reduces_to_the_least_scale():
    codes = MonomialCodes(2, 2)
    p = numerator_polynomial(codes, 360, {codes.pack(e): v for e, v in {(1, 0): 120, (0, 2): -90, (0, 0): 48}.items()})
    assert (p.scale, p.numerators) == (60, {(1, 0): 20, (0, 2): -15, (0, 0): 8})
    assert p.terms == {(1, 0): F(1, 3), (0, 2): F(-1, 4), (0, 0): F(2, 15)}


def test_forbid_fractions_catches_construction_and_arithmetic(monkeypatch):
    half = F(1, 2)
    forbid_fractions(monkeypatch)
    with pytest.raises(AssertionError):
        F(1, 3)
    with pytest.raises(AssertionError):
        half + half
    monkeypatch.undo()
    assert half + half == 1


def test_builders_and_equality_make_no_fraction_until_terms_is_read(monkeypatch):
    specs = seeded_specs(make_rng(501), 24)
    for spec in specs:
        spec.slots  # the spec's own Fractions are made before the check
    forbid_fractions(monkeypatch)
    built = []
    for spec in specs:
        bases = [build_general(spec), build_generating(spec)]
        if spec.a is not None:
            bases.append(build_recursive(spec))
        assert all(basis.elements == bases[0].elements for basis in bases)
        assert all(p == p and p.degree == k for k, p in enumerate(bases[0]))
        built.append(bases)
    monkeypatch.undo()
    # Read now, the view holds the reduced Fractions of the numerators.
    for bases in built:
        for basis in bases:
            for p in basis:
                assert_canonical(p)


def _twin(p: Polynomial) -> Polynomial:
    """p in exponent form: its numerators view over its scale."""
    return Polynomial(p.dim, p.numerators, _scale=p.scale)


def test_built_elements_match_their_exponent_form_twins():
    # A built element is coded by its builder's codec; every reader must
    # see what its exponent-form twin shows.
    rng = make_rng(502)
    coded_seen = 0
    for spec in seeded_specs(make_rng(503), 24):
        d = spec.d
        again = build_generating(spec)
        bases = [build_general(spec), build_generating(spec)] + ([build_recursive(spec)] if spec.a is not None else [])
        for basis in bases:
            # Equality and degree on the codes, before any view is made.
            assert basis == again and basis.elements == again.elements
            assert [p.degree for p in basis] == list(range(len(basis)))
            twins = [_twin(p) for p in basis]
            for k, (p, t) in enumerate(zip(basis, twins)):
                assert p.codes == spec.codes and t.codes is None
                coded_seen += 1
                assert p == t and t == p and not p != t
                assert p.render() == t.render() and p.to_dict() == t.to_dict()
                assert p.terms == t.terms and p.degree == t.degree == k and bool(p) == bool(t)
                for e in [*t.numerators, (k + 1,) + (0,) * (d - 1)]:
                    assert p.coeff(e) == t.coeff(e)
                point = [rational(rng) for _ in range(d)]
                assert p.eval(point) == t.eval(point)
                q, tq = basis[rng.randrange(len(basis))], twins[rng.randrange(len(twins))]
                a = rational(rng)
                for got, want in ((p + q, t + _twin(q)), (p + tq, t + tq), (tq - p, tq - t), (p - p, t - t), (-p, -t), (p * a, t * a), (a * p, a * t)):
                    assert got == want and got.render() == want.render()
                    assert_canonical(got)
                for source, f in ((p, q), (p, tq), (tq, p)):
                    expected = DiffOperator(_twin(source)).apply_at(_twin(f), point)
                    assert DiffOperator(source).apply_at(f, point) == expected
                if k:
                    assert p != basis[k - 1] and p != twins[k - 1] and twins[k - 1] != p
    assert coded_seen > 100


def test_equality_between_codecs_of_different_top():
    # Codes of one exponent differ between codecs of different bases, so
    # equality falls back to the exponent views, from either side.
    small, large = MonomialCodes(2, 3), MonomialCodes(2, 7)
    terms = {(1, 0): 3, (0, 2): -5, (0, 0): 4}
    p = numerator_polynomial(small, 6, {small.pack(e): v for e, v in terms.items()})
    q = numerator_polynomial(large, 12, {large.pack(e): 2 * v for e, v in terms.items()})
    assert p.coded != q.coded
    assert p == q and q == p
    r = numerator_polynomial(large, 6, {large.pack(e): v for e, v in {**terms, (0, 2): 5}.items()})
    assert p != r and r != p and q != r and r != q
    # A codec of another d is another dimension.
    assert p != numerator_polynomial(MonomialCodes(3, 3), 1, {0: 1})
    assert numerator_polynomial(small, 1, {0: 1}) == Polynomial.constant(2, 1) == numerator_polynomial(large, 1, {0: 1})


def test_numerators_of_a_coded_polynomial_is_one_exponent_keyed_view():
    codes = MonomialCodes(3, 4)
    terms = {(2, 1, 0): 7, (0, 0, 3): -2, (0, 1, 0): 1, (0, 0, 0): 5}
    p = numerator_polynomial(codes, 9, {codes.pack(e): v for e, v in terms.items()})
    first = p.numerators
    assert first == terms and all(type(e) is tuple for e in first)
    assert p.numerators is first and p.numerators == terms
    assert p.coded == {codes.pack(e): v for e, v in terms.items()}
    with pytest.raises(AttributeError):
        p.nonexistent
    with pytest.raises(AttributeError):
        Polynomial.zero(1).nonexistent
