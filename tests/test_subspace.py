"""Tests for the three basis constructions and their exact verifiers."""

import itertools
import json
import math
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

import dinv.subspace
from conftest import general_form, make_rng, random_general_spec, random_param_table, rational
from dinv import (
    BasisSequence,
    GeneralSpec,
    ParamTable,
    Polynomial,
    breadth,
    build_explicit,
    build_general,
    build_generating,
    build_recursive,
    check_closure,
    degrees,
)
from dinv.compositions import count_compositions
from dinv.linalg import common_denominator
from oracles import (
    build_explicit_fraction,
    build_general_fraction,
    build_recursive_fraction,
    check_closure_fraction,
    diff,
    enumerate_weight_solutions,
    mul,
    rref_fraction,
    span_contains,
)

F = Fraction


def P(text: str, dim: int = 2) -> Polynomial:
    return Polynomial.parse(text, dim)


EXAMPLE_PARAMS = ParamTable(d=2, n=4, a={(2, 2): F(2), (3, 2): F(3), (4, 2): F(4)})

EXAMPLE_BASIS = [
    P("1"),
    P("x1"),
    P("1/2*x1^2 + 2*x2"),
    P("1/6*x1^3 + 2*x1*x2 + 3*x2"),
    P("1/24*x1^4 + x1^2*x2 + 3*x1*x2 + 2*x2^2 + 4*x2"),
]


class TestParamTable:
    def test_missing_entries_read_zero(self):
        t = ParamTable(d=2, n=3, a={(2, 2): F(1)})
        assert t.c[1][2] == 0

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            ParamTable(d=2, n=3, a={(4, 2): F(1)})
        with pytest.raises(ValueError):
            ParamTable(d=2, n=3, a={(2, 3): F(1)})
        with pytest.raises(ValueError):
            ParamTable(d=1, n=3, a={})

    def test_get_bounds(self):
        with pytest.raises(ValueError):
            ParamTable(d=2, n=3, a={(1, 2): F(1)})

    def test_json_round_trip(self):
        t = ParamTable(d=3, n=4, a={(2, 2): F(1, 2), (4, 3): F(-3)})
        assert GeneralSpec.from_dict(t.to_dict()) == t

    def test_from_dict_example_shape(self):
        t = GeneralSpec.from_dict({"d": 2, "n": 4, "a": {"2,2": "2", "3,2": "3", "4,2": "4"}})
        assert t == EXAMPLE_PARAMS

    def test_from_dict_malformed(self):
        with pytest.raises(ValueError):
            GeneralSpec.from_dict({"d": 2})

    def test_slots_built_once(self):
        t = ParamTable(d=3, n=4, a={(4, 3): F(-3), (2, 2): F(1, 2)})
        before = (repr(t), t.to_dict())
        assert t.slots is t.slots
        assert t.slots == (2, ((1, 0, 2), (2, 1, 1), (4, 2, -6)))
        assert t.top_weight == 4
        assert (repr(t), t.to_dict()) == before
        assert t == ParamTable(d=3, n=4, a={(2, 2): F(1, 2), (4, 3): F(-3)})
        assert ParamTable(d=3, n=1, a={}).slots == (1, ((1, 0, 1),))

    def test_slots_coprime_denominators(self):
        # Denominators 2, 3, 5 (and 2, 3, 7): D is their lcm; a table's x1 slot carries D itself.
        t = ParamTable(d=3, n=3, a={(2, 2): F(1, 2), (3, 2): F(-2, 3), (3, 3): F(4, 5)})
        assert t.slots == (30, ((1, 0, 30), (2, 1, 15), (3, 1, -20), (3, 2, 24)))
        spec = GeneralSpec(n=2, d=2, b=(1, 2), c=((F(1, 2), F(0)), (F(1, 3), F(2, 7))))
        assert spec.slots == (42, ((1, 0, 21), (1, 1, 14), (2, 1, 12)))

    def test_slots_match_specialization(self):
        rng = make_rng(110)
        for _ in range(20):
            t = random_param_table(rng, d=rng.choice((2, 3, 4)), n=rng.randint(2, 6))
            assert t.slots == general_form(t).slots


class TestGeneralSpec:
    def test_validation(self):
        c_ok = ((F(1), F(0)), (F(0), F(1)))
        with pytest.raises(ValueError):
            GeneralSpec(n=2, d=2, b=(2, 3), c=c_ok)
        with pytest.raises(ValueError):
            GeneralSpec(n=3, d=2, b=(1, 3, 3), c=((F(1), F(0), F(0)), (F(0), F(1), F(1))))
        with pytest.raises(ValueError):
            GeneralSpec(n=2, d=2, b=(1, 1), c=c_ok)
        with pytest.raises(ValueError):
            GeneralSpec(n=2, d=2, b=(1, 2), c=((F(0), F(1)), (F(0), F(1))))
        with pytest.raises(ValueError):
            GeneralSpec(n=2, d=2, b=(1, 2), c=((F(1),), (F(0), F(1))))

    def test_json_round_trip(self):
        spec = GeneralSpec(n=3, d=2, b=(1, 2, 5), c=((F(1), F(0), F(1, 3)), (F(0), F(-2), F(7))))
        assert GeneralSpec.from_dict(spec.to_dict()) == spec

    def test_slots_skip_zero_entries(self):
        # The weight-3 column is all zero; c_12 and c_23 are zero as well.
        spec = GeneralSpec(n=3, d=2, b=(1, 3, 4), c=((F(1), F(0), F(2, 3)), (F(-1, 2), F(0), F(0))))
        assert spec.slots is spec.slots
        assert spec.slots == (6, ((1, 0, 6), (1, 1, -3), (4, 0, 4)))
        assert spec.top_weight == 4

    def test_n1(self):
        # b = (1,): the spaces {1, L} of the zeros of multiplicity 2.
        spec = GeneralSpec(n=1, d=2, b=(1,), c=((F(1),), (F(-2, 3),)))
        assert (spec.n, spec.top_weight, spec.a) == (1, 1, None)
        basis = build_generating(spec)
        assert list(basis) == [P("1"), P("x1 - 2/3*x2")]
        assert basis.elements == build_general(spec).elements
        assert check_closure(basis, spec).ok and breadth(list(basis)) == 1

    @pytest.mark.parametrize(
        "b, c, a",
        [
            ((1, 2), ((1, 0), (0, 1), (0, 0)), {(2, 2): 1}),
            ((1,), ((1,),), None),
            ((1, 3), ((1, 0), (0, 1)), None),
            ((1, 2), ((2, 0), (0, 1)), None),
            ((1, 2), ((1, 1), (0, 1)), None),
            ((1, 2), ((1, 0), (1, 1)), None),
        ],
        ids=["table", "one-variable", "gap-in-b", "c11-not-1", "x1-at-weight-2", "x2-at-weight-1"],
    )
    def test_table_view(self, b, c, a):
        spec = GeneralSpec(n=len(b), d=len(c), b=b, c=c)
        assert spec.a == a
        if a is None:
            assert spec.to_dict() == {"n": len(b), "d": len(c), "b": list(b), "c": [[str(v) for v in row] for row in c]}
        else:
            assert spec.to_dict() == {"d": 3, "n": 2, "a": {"2,2": "1"}}
            assert spec == ParamTable(d=3, n=2, a={(2, 2): F(1)})


def _spec_forms(rng) -> list:
    """Seeded tables (n = 1 included) and general specs: gaps in b, all-zero
    columns, and general specs of table shape."""
    specs = []
    for trial in range(30):
        n = 1 if trial % 6 == 0 else rng.randint(2, 6)
        specs.append(random_param_table(rng, d=rng.choice((2, 3, 4)), n=n, fill=rng.choice((0.3, 0.8))))
    for trial in range(30):
        spec = random_general_spec(rng, n_max=4, bn_max=10, d_max=3)
        if trial % 3 == 0:
            col = rng.randrange(1, spec.n)
            spec = GeneralSpec(n=spec.n, d=spec.d, b=spec.b, c=[[F(0) if j == col else v for j, v in enumerate(row)] for row in spec.c])
        specs.append(spec)
    specs += [general_form(random_param_table(rng, d=rng.choice((2, 3)), n=rng.randint(1, 5))) for _ in range(10)]
    return specs


class TestSpecForms:
    """A table and a general spec are one GeneralSpec; from_dict reads both
    JSON forms and to_dict writes the table form exactly for table shape."""

    def test_json_round_trip(self):
        specs = _spec_forms(make_rng(140))
        for spec in specs:
            data = json.loads(json.dumps(spec.to_dict()))
            assert set(data) == ({"d", "n", "a"} if spec.a is not None else {"n", "d", "b", "c"})
            assert GeneralSpec.from_dict(data) == spec
        assert any(s.a is not None and s.n == 1 for s in specs)
        assert any(s.a is None and any(v - u > 1 for u, v in zip(s.b, s.b[1:])) for s in specs)
        assert any(s.a is None and any(not any(row[j] for row in s.c) for j in range(s.n)) for s in specs)

    def test_table_and_its_general_form_load_equal(self):
        rng = make_rng(141)
        for trial in range(30):
            t = random_param_table(rng, d=rng.choice((2, 3, 4)), n=1 if trial % 5 == 0 else rng.randint(2, 6))
            general = {"n": t.n, "d": t.d, "b": list(range(1, t.n + 1)), "c": [[str(v) for v in row] for row in t.c]}
            loaded = GeneralSpec.from_dict(general)
            assert loaded == t and hash(loaded) == hash(t)
            assert loaded.slots == t.slots and loaded.a == t.a
            assert loaded.to_dict() == t.to_dict() == GeneralSpec.from_dict(t.to_dict()).to_dict()

    def test_huge_table_loads_at_once(self):
        start = time.perf_counter()
        spec = GeneralSpec.from_dict({"d": 2, "n": 10**9, "a": {}})
        assert time.perf_counter() - start < 0.01
        assert spec.n == spec.top_weight == 10**9 and spec.a == {}
        assert spec.slots == (1, ((1, 0, 1),))


class TestBasisSequence:
    def test_rejects_wrong_leading_element(self):
        with pytest.raises(ValueError):
            BasisSequence((Polynomial.constant(2, 2),))

    def test_rejects_wrong_degree(self):
        with pytest.raises(ValueError):
            BasisSequence((Polynomial.constant(2, 1), P("x1^2")))

    def test_json_round_trip(self):
        basis = build_recursive(EXAMPLE_PARAMS)
        assert BasisSequence.from_list(basis.to_list()) == basis


class TestBuildRecursive:
    def test_degree_two_generic(self):
        rng = make_rng(101)
        for _ in range(5):
            a22 = rational(rng)
            t = ParamTable(d=2, n=2, a={(2, 2): a22})
            expect = Polynomial(2, {(2, 0): F(1, 2), (0, 1): a22})
            assert build_recursive(t)[2] == expect

    def test_example_basis(self):
        assert list(build_recursive(EXAMPLE_PARAMS)) == EXAMPLE_BASIS

    def test_all_zero_params_gives_pure_powers(self):
        t = ParamTable(d=3, n=5, a={})
        basis = build_recursive(t)
        for k, p in enumerate(basis):
            assert p == Polynomial(3, {(k, 0, 0): F(1, math.factorial(k))})

    def test_n_equals_one(self):
        basis = build_recursive(ParamTable(d=2, n=1, a={}))
        assert list(basis) == [P("1"), P("x1")]


class TestBuildExplicit:
    def test_degree_three_example(self):
        t = ParamTable(d=2, n=3, a={(2, 2): F(2), (3, 2): F(3)})
        assert build_explicit(t)[3] == P("1/6*x1^3 + 2*x1*x2 + 3*x2")

    def test_all_zero_params(self):
        t = ParamTable(d=2, n=4, a={})
        for k, p in enumerate(build_explicit(t)):
            assert p == Polynomial(2, {(k, 0): F(1, math.factorial(k))})

    def test_example_basis(self):
        assert list(build_explicit(EXAMPLE_PARAMS)) == EXAMPLE_BASIS

    def test_zero_heavy_tables_match_recursive(self):
        rng = make_rng(108)
        zeros = 0
        for _ in range(20):
            t = random_param_table(rng, d=rng.choice((2, 3, 4)), n=rng.randint(2, 6), fill=0.3)
            zeros += (t.n - 1) * (t.d - 1) - len(t.a)
            assert build_explicit(t).elements == build_recursive(t).elements
        assert zeros > 0
        for d, n in ((2, 1), (2, 5), (4, 4)):
            t = ParamTable(d=d, n=n, a={})
            assert build_explicit(t).elements == build_recursive(t).elements


class TestEnumerateWeightSolutions:
    def test_zero_weight_single_solution(self):
        spec = GeneralSpec(n=2, d=2, b=(1, 2), c=((F(1), F(0)), (F(0), F(1))))
        sols = enumerate_weight_solutions(spec, 0)
        assert len(sols) == 1
        assert sols[0].counts == ((0, 0), (0, 0))

    def test_listed_order_for_weight_two(self):
        spec = GeneralSpec(n=2, d=2, b=(1, 2), c=((F(1), F(0)), (F(0), F(1))))
        got = [s.counts for s in enumerate_weight_solutions(spec, 2)]
        assert got == [
            ((2, 0), (0, 0)),
            ((1, 0), (1, 0)),
            ((0, 0), (2, 0)),
            ((0, 1), (0, 0)),
            ((0, 0), (0, 1)),
        ]

    def test_out_of_range_weight(self):
        spec = GeneralSpec(n=2, d=2, b=(1, 2), c=((F(1), F(0)), (F(0), F(1))))
        with pytest.raises(ValueError):
            enumerate_weight_solutions(spec, 3)
        with pytest.raises(ValueError):
            enumerate_weight_solutions(spec, -1)

    def test_against_brute_force_oracle(self):
        spec = GeneralSpec(
            n=4,
            d=2,
            b=(1, 2, 3, 4),
            c=(
                (F(1), F(0), F(0), F(0)),
                (F(0), F(1), F(1), F(1)),
            ),
        )
        m = 4
        got = {s.counts for s in enumerate_weight_solutions(spec, m)}
        slots = [(i, j) for i in range(spec.d) for j in range(spec.n)]
        expected = set()
        for values in itertools.product(*(range(m // spec.b[j] + 1) for (_, j) in slots)):
            grid = [[0] * spec.n for _ in range(spec.d)]
            for (i, j), v in zip(slots, values):
                grid[i][j] = v
            weight = sum(spec.b[j] * grid[i][j] for (i, j) in slots)
            if weight == m:
                expected.add(tuple(tuple(row) for row in grid))
        assert got == expected
        assert ((4, 0, 0, 0), (0, 0, 0, 0)) in got
        assert ((0, 0, 0, 0), (0, 2, 0, 0)) in got


def _unpruned_general(spec: GeneralSpec) -> tuple[Polynomial, ...]:
    """build_general's defining sum, taken over every weight solution,
    the ones that put a positive count on a zero coefficient included."""
    elems = []
    for m in range(spec.top_weight + 1):
        p = Polynomial.zero(spec.d)
        for sol in enumerate_weight_solutions(spec, m):
            coef = F(1)
            for i in range(spec.d):
                for j in range(spec.n):
                    g = sol.counts[i][j]
                    coef *= spec.c[i][j] ** g / math.factorial(g)
            p = p + Polynomial.monomial(spec.d, [sum(row) for row in sol.counts], coef)
        elems.append(p)
    return tuple(elems)


def _zero_heavy_general_spec(rng) -> GeneralSpec:
    """A random spec with at least half of its c entries set to zero (one
    first coordinate is kept nonzero, as GeneralSpec requires)."""
    spec = random_general_spec(rng)
    c = [list(row) for row in spec.c]
    keep = rng.randrange(spec.d)
    c[keep][0] = rational(rng, allow_zero=False)
    others = [(i, j) for i in range(spec.d) for j in range(spec.n) if (i, j) != (keep, 0)]
    for i, j in rng.sample(others, (spec.d * spec.n + 1) // 2):
        c[i][j] = F(0)
    return GeneralSpec(n=spec.n, d=spec.d, b=spec.b, c=tuple(tuple(row) for row in c))


def _walk_visits(build, spec) -> tuple[BasisSequence, int]:
    """build(spec), and the number of count vectors the closed-form walk
    visited: its inner function walk is called once per vector."""
    visits = 0
    previous = sys.getprofile()

    def profile(frame, event, arg):
        nonlocal visits
        code = frame.f_code
        if event == "call" and code.co_name == "walk" and code.co_filename == dinv.subspace.__file__:
            visits += 1

    sys.setprofile(profile)
    try:
        basis = build(spec)
    finally:
        sys.setprofile(previous)
    return basis, visits


def _slot_weights(spec) -> list[int]:
    """The weights b_j of the nonzero c_ij of a spec of either kind."""
    return [bj for bj, _, _ in spec.slots[1]]


class TestBuildGeneral:
    def test_element_zero_is_one(self):
        spec = GeneralSpec(n=2, d=2, b=(1, 2), c=((F(1), F(0)), (F(0), F(1))))
        assert build_general(spec)[0] == Polynomial.constant(2, 1)

    def test_hand_summed_weight_two(self):
        spec = GeneralSpec(n=2, d=2, b=(1, 2), c=((F(1), F(0)), (F(0), F(1))))
        assert build_general(spec)[2] == P("1/2*x1^2 + x2")

    def test_degrees_for_sparse_weights(self):
        spec = GeneralSpec(n=2, d=2, b=(1, 3), c=((F(1), F(0)), (F(0), F(1))))
        assert degrees(build_general(spec)) == (0, 1, 2, 3)

    def test_specialization_reproduces_recursive(self):
        rng = make_rng(102)
        for _ in range(25):
            t = random_param_table(rng, d=rng.choice((2, 3, 4)), n=rng.randint(2, 6))
            assert build_general(general_form(t)).elements == build_recursive(t).elements

    def test_zero_heavy_specs_match_unpruned_sum(self):
        rng = make_rng(109)
        for _ in range(20):
            spec = _zero_heavy_general_spec(rng)
            zeros = sum(v == 0 for row in spec.c for v in row)
            assert 2 * zeros >= spec.d * spec.n
            assert build_general(spec).elements == _unpruned_general(spec)

    def test_enumerates_only_nonzero_slots(self):
        # The walk makes one call per count vector it visits; on the nonzero
        # slots (weights 1, 2, 4) there are fewer than on all six.
        spec = GeneralSpec(n=3, d=2, b=(1, 2, 4), c=((F(1), F(0), F(3)), (F(0), F(2), F(0))))
        basis, visits = _walk_visits(build_general, spec)
        assert visits == count_compositions(4, [1, 2, 4]) == 10
        assert count_compositions(4, [1, 1, 2, 2, 4, 4]) > visits
        assert basis.elements == build_general_fraction(spec).elements

    def test_top_homogeneous_part(self):
        rng = make_rng(103)
        for _ in range(15):
            spec = random_general_spec(rng)
            basis = build_general(spec)
            linear = Polynomial(spec.d, {
                tuple(1 if t == i else 0 for t in range(spec.d)): spec.c[i][0]
                for i in range(spec.d)
            })
            power = Polynomial.constant(spec.d, 1)  # linear^m
            for m, q in enumerate(basis):
                top = Polynomial(spec.d, {e: c for e, c in q.terms.items() if sum(e) == m})
                assert top == power * F(1, math.factorial(m))
                power = mul(power, linear)

    def test_leading_term_and_no_constant(self):
        rng = make_rng(104)
        for _ in range(15):
            t = random_param_table(rng, d=rng.choice((2, 3)), n=rng.randint(2, 6))
            basis = build_recursive(t)
            for k in range(1, len(basis)):
                lead_exp = tuple([k] + [0] * (t.d - 1))
                assert basis[k].coeff(lead_exp) == F(1, math.factorial(k))
                assert basis[k].coeff((0,) * t.d) == 0


class TestBuildGenerating:
    """The recurrence m*B_m = sum_j b_j * L_j(x) * B_{m-b_j} against the
    enumeration of build_general, termwise."""

    def test_random_specs(self):
        rng = make_rng(110)
        for _ in range(40):
            spec = random_general_spec(rng, n_max=5, bn_max=9, d_max=4)
            assert build_generating(spec).elements == build_general(spec).elements

    def test_one_variable(self):
        rng = make_rng(111)
        for _ in range(15):
            spec = random_general_spec(rng, d_max=1)
            assert spec.d == 1
            assert build_generating(spec).elements == build_general(spec).elements

    def test_zero_heavy_specs(self):
        rng = make_rng(112)
        for _ in range(20):
            spec = _zero_heavy_general_spec(rng)
            assert build_generating(spec).elements == build_general(spec).elements

    def test_all_zero_non_first_column(self):
        rng = make_rng(113)
        for _ in range(15):
            spec = random_general_spec(rng, n_max=4, d_max=3)
            col = rng.randrange(1, spec.n)
            c = tuple(tuple(F(0) if j == col else v for j, v in enumerate(row)) for row in spec.c)
            spec = GeneralSpec(n=spec.n, d=spec.d, b=spec.b, c=c)
            assert build_generating(spec).elements == build_general(spec).elements

    def test_specialized_tables(self):
        rng = make_rng(114)
        for _ in range(20):
            t = random_param_table(rng, d=rng.choice((2, 3, 4)), n=rng.randint(2, 6))
            assert build_generating(general_form(t)).elements == build_recursive(t).elements
            assert build_generating(general_form(t)).elements == build_general(general_form(t)).elements

    def test_hand_summed_weight_two(self):
        spec = GeneralSpec(n=2, d=2, b=(1, 2), c=((F(1), F(0)), (F(0), F(1))))
        assert list(build_generating(spec)) == [P("1"), P("x1"), P("1/2*x1^2 + x2")]

    def test_enumerates_no_compositions(self, monkeypatch):
        def forbidden(spec, top):
            raise AssertionError("build_generating enumerated compositions")

        monkeypatch.setattr(dinv.subspace, "_closed_form_elements", forbidden)
        spec = GeneralSpec(n=3, d=2, b=(1, 2, 4), c=((F(1), F(0), F(3)), (F(0), F(2), F(0))))
        assert check_closure(build_generating(spec), spec).ok


class TestSpanContains:
    def test_unit_vector_for_basis_element(self):
        basis = list(build_recursive(EXAMPLE_PARAMS))
        coords = span_contains(basis, basis[3])
        assert coords == [F(0), F(0), F(0), F(1), F(0)]

    def test_zero_vector_for_zero(self):
        basis = list(build_recursive(EXAMPLE_PARAMS))
        assert span_contains(basis, Polynomial.zero(2)) == [F(0)] * 5

    def test_derivative_coordinates(self):
        basis = list(build_recursive(EXAMPLE_PARAMS))
        coords = span_contains(basis, diff(basis[4], 2))
        assert coords == [F(4), F(3), F(2), F(0), F(0)]

    def test_not_in_span(self):
        basis = [Polynomial.constant(2, 1), P("x1")]
        assert span_contains(basis, P("x2")) is None

    def test_combination_recovered(self):
        basis = list(build_recursive(EXAMPLE_PARAMS))
        p = F(1, 3) * basis[2] - 5 * basis[0] + F(7, 2) * basis[4]
        assert span_contains(basis, p) == [F(-5), F(0), F(1, 3), F(0), F(7, 2)]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            span_contains([Polynomial.constant(2, 1)], Polynomial.constant(3, 1))


class TestCheckClosure:
    def test_example_holds(self):
        basis = build_recursive(EXAMPLE_PARAMS)
        report = check_closure(basis, EXAMPLE_PARAMS)
        assert report.ok and report.violations == ()

    def test_all_zero_params(self):
        t = ParamTable(d=3, n=4, a={})
        assert check_closure(build_recursive(t), t).ok

    def test_random_d3(self):
        rng = make_rng(105)
        t = random_param_table(rng, d=3, n=6)
        assert check_closure(build_recursive(t), t).ok

    def test_violation_reported(self):
        t = ParamTable(d=2, n=2, a={(2, 2): F(1)})
        tampered = BasisSequence((
            Polynomial.constant(2, 1),
            P("x1"),
            P("1/2*x1^2 + 2*x2"),
        ))
        report = check_closure(tampered, t)
        assert not report.ok
        assert (2, 2) in report.violations

    def test_general_holds(self):
        rng = make_rng(108)
        for _ in range(20):
            spec = random_general_spec(rng)
            assert check_closure(build_general(spec), spec).ok

    def test_general_perturbed_top_reports_one_violation(self):
        rng = make_rng(109)
        for _ in range(10):
            spec = random_general_spec(rng)
            elements = list(build_general(spec))
            top = len(elements) - 1
            for k in range(1, spec.d + 1):
                x_k_top = tuple(top if i == k else 0 for i in range(1, spec.d + 1))
                delta = F(2) if elements[top].coeff(x_k_top) == -1 else F(1)
                perturbed = elements[:top] + [elements[top] + Polynomial.monomial(spec.d, x_k_top, delta)]
                report = check_closure(BasisSequence(tuple(perturbed)), spec)
                assert report.violations == ((top, k),)

    def test_n1_table_holds(self):
        t = ParamTable(d=3, n=1, a={})
        assert check_closure(build_recursive(t), t).ok

    def test_n1_table_catches_extra_linear_direction(self):
        t = ParamTable(d=2, n=1, a={})
        report = check_closure(BasisSequence((P("1"), P("x1 + x2"))), t)
        assert report.violations == ((1, 2),)

    @pytest.mark.parametrize("elements, dim", [(["1", "x1"], 2), (["1", "x1", "1/2*x1^2 + x2"], 3)])
    def test_basis_shape_must_match_spec(self, elements, dim):
        spec = GeneralSpec(n=2, d=2, b=(1, 2), c=((F(1), F(0)), (F(0), F(1))))
        with pytest.raises(ValueError):
            check_closure(BasisSequence(tuple(P(e, dim) for e in elements)), spec)


def _breadth_three_ranks(basis: list[Polynomial]) -> int:
    """The definition breadth replaced, kept as its oracle: membership of 1
    by span_contains, then rank(all columns) - rank(degree >= 2 columns) - 1,
    both ranks by rref_fraction, so it shares no elimination with breadth."""
    if span_contains(basis, Polynomial.constant(basis[0].dim, 1)) is None:
        raise ValueError("span does not contain the constant 1")
    support = sorted(set().union(*(q.terms.keys() for q in basis)))
    high_cols = [e for e in support if sum(e) >= 2]
    full = [[q.coeff(e) for e in support] for q in basis]
    high = [[q.coeff(e) for e in high_cols] for q in basis]
    return len(rref_fraction(full)[1]) - (len(rref_fraction(high)[1]) if high_cols else 0) - 1


class TestBreadthAndDegrees:
    def test_general_output_breadth_one(self):
        rng = make_rng(106)
        for _ in range(10):
            spec = random_general_spec(rng)
            assert breadth(list(build_general(spec))) == 1

    def test_two_linear_directions(self):
        assert breadth([P("1"), P("x1"), P("x2")]) == 2

    def test_constant_only(self):
        assert breadth([P("1")]) == 0

    def test_requires_constant_in_span(self):
        with pytest.raises(ValueError):
            breadth([P("x1")])

    def test_redundant_spanning_set(self):
        assert breadth([P("1"), P("x1"), P("2*x1"), P("x1 + 1")]) == 1

    @pytest.mark.parametrize(
        "texts, expect",
        [
            (["x1 + 1", "x1"], 1),
            (["1", "x1", "x1^2 + x2", "2*x1^2 + 2*x2"], 1),
            (["x2", "1", "x1"], 2),
            (["x1^2 + 1", "x1^2 + x2", "x2"], 1),
        ],
        ids=["constant-by-combination", "dependent-top", "out-of-order", "constant-via-top-degree"],
    )
    def test_edge_cases(self, texts, expect):
        basis = [P(t) for t in texts]
        assert breadth(basis) == expect == _breadth_three_ranks(basis)

    @pytest.mark.parametrize("texts", [["x1 + 1"], ["x1", "x2^2"], ["0"], ["0", "0"]])
    def test_constant_outside_span_raises(self, texts):
        with pytest.raises(ValueError):
            breadth([P(t) for t in texts])

    def test_empty_and_mixed_dimensions_raise(self):
        with pytest.raises(ValueError):
            breadth([])
        with pytest.raises(ValueError):
            breadth([P("1"), P("x1", 3)])

    def test_matches_three_rank_definition(self):
        # Built bases mixed with random rational combinations of their
        # elements: ungraded, dependent, in random order.  Mode 0 keeps the
        # whole basis, mode 1 drops B_0 (so 1 is never in the span), mode 2
        # adds a second linear direction x_d.
        rng = make_rng(111)
        outcomes = set()
        for trial in range(36):
            if trial % 6 < 3:
                t = random_param_table(rng, d=rng.choice((2, 3)), n=rng.randint(1, 5))
                built = list(build_recursive(t))
            else:
                built = list(build_general(random_general_spec(rng, n_max=4, bn_max=6)))
            dim, mode = built[0].dim, trial % 3
            pool = built[1:] if mode == 1 else built
            if not pool:
                continue
            basis = list(pool) if mode != 1 else []
            for _ in range(rng.randint(1, 4)):
                comb = Polynomial.zero(dim)
                for q in rng.sample(pool, rng.randint(1, len(pool))):
                    comb = comb + rational(rng) * q
                basis.append(comb)
            if mode == 2 and dim >= 2:
                basis.append(Polynomial.variable(dim, dim))
            rng.shuffle(basis)
            try:
                expect = _breadth_three_ranks(basis)
            except ValueError:
                outcomes.add("raises")
                with pytest.raises(ValueError):
                    breadth(basis)
            else:
                outcomes.add(expect)
                assert breadth(basis) == expect
        assert {"raises", 1, 2} <= outcomes

    def test_graded_basis_takes_no_reduction(self, monkeypatch):
        """Every element of a graded basis is kept as it came, its primitive
        numerator row under its own top monomial: no row was reduced."""
        seen = []
        original = dinv.subspace.echelon

        def recording(rows, key=None):
            rows = list(rows)
            kept = original(rows, key=key)
            seen.append((rows, kept))
            return kept

        monkeypatch.setattr(dinv.subspace, "echelon", recording)
        for basis in (EXAMPLE_BASIS, list(build_generating(_coprime_spec(make_rng(153))))):
            seen.clear()
            assert breadth(basis) == 1
            [(rows, kept)] = seen
            assert len(kept) == len(rows) == len(basis)
            for q, row in zip(basis, rows):
                g = math.gcd(*row.values())
                assert kept[max(q.terms, key=lambda e: (sum(e), [-v for v in e]))] == {
                    e: v // g for e, v in row.items()
                }

    def test_memory_of_a_deep_graded_basis(self):
        """b = (1, 1500): 1501 elements over 1501 monomials.  A dense basis x
        support matrix alone takes over 17 MiB; the rows as they are take
        well under 1 MiB."""
        spec = GeneralSpec(n=2, d=1, b=(1, 1500), c=((F(1), F(1)),))
        basis = list(build_generating(spec))
        tracemalloc.start()
        try:
            assert breadth(basis) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, f"breadth peaked at {peak / 2**20:.1f} MiB"

    def test_degrees_of_example(self):
        assert degrees(build_recursive(EXAMPLE_PARAMS)) == (0, 1, 2, 3, 4)


class TestEquivalence:
    def test_explicit_is_general(self):
        assert build_explicit is build_general

    def test_recursion_needs_table_shape(self):
        with pytest.raises(ValueError, match="table shape"):
            build_recursive(GeneralSpec(n=2, d=2, b=(1, 2), c=((F(1), F(0)), (F(1), F(1)))))

    def test_three_way_random(self):
        rng = make_rng(107)
        for _ in range(20):
            t = random_param_table(rng, d=rng.choice((2, 3, 4)), n=rng.randint(2, 6))
            rec = build_recursive(t)
            assert build_explicit(t).elements == rec.elements
            assert build_general(general_form(t)).elements == rec.elements

    def test_recursive_equals_explicit_n1(self):
        t = ParamTable(d=2, n=1, a={})
        assert build_recursive(t).elements == build_explicit(t).elements


# Coefficients with pairwise coprime denominators, so the common denominator
# D of a spec is their product, and primes that divide none of them.
_COPRIME = (F(1, 7), F(5, 11), F(-3, 13), F(1, 1009), F(2), F(-1), F(0))
_OTHER_PRIMES = (17, 19, 23, 29, 31)


def _coprime_spec(rng):
    """A table or general spec with coefficients from _COPRIME; general
    specs get an all-zero c column (other than the first) half the time."""
    if rng.random() < 0.4:
        d, n = rng.choice((2, 3)), rng.randint(1, 5)
        a = {(i, j): rng.choice(_COPRIME) for i in range(2, n + 1) for j in range(2, d + 1)}
        return ParamTable(d=d, n=n, a=a)
    n, d = rng.randint(2, 4), rng.randint(1, 3)
    b = tuple([1] + sorted(rng.sample(range(2, 8), n - 1)))
    c = [[rng.choice(_COPRIME) for _ in range(n)] for _ in range(d)]
    c[rng.randrange(d)][0] = rng.choice(_COPRIME[:5])
    if rng.random() < 0.5:
        col = rng.randrange(1, n)
        for row in c:
            row[col] = F(0)
    return GeneralSpec(n=n, d=d, b=b, c=tuple(tuple(row) for row in c))


def _perturbed(rng, basis: BasisSequence, kind: str) -> BasisSequence:
    """basis with one element k >= 1 changed, keeping element k of degree k:
    a coefficient shifted by 1/p (p dividing no denominator of the spec), a
    term of degree at most k added, a term of degree below k dropped (or the
    element scaled, if it has none), or the element scaled."""
    elems = list(basis)
    k = rng.randrange(1, len(elems))
    q, dim = elems[k], basis.dim
    if kind == "shift":
        e = rng.choice(sorted(q.terms))
        q = q + Polynomial.monomial(dim, e, F(1, rng.choice(_OTHER_PRIMES)))
    elif kind == "add":
        exps = [0] * dim
        for _ in range(rng.randint(0, k)):
            exps[rng.randrange(dim)] += 1
        q = q + Polynomial.monomial(dim, exps, rng.choice(_COPRIME[:5]))
    elif kind == "drop" and any(sum(e) < k for e in q.terms):
        e = rng.choice(sorted(e for e in q.terms if sum(e) < k))
        q = Polynomial(dim, {t: v for t, v in q.terms.items() if t != e})
    else:
        q = q * F(rng.choice((2, -3, 5)), rng.choice(_OTHER_PRIMES))
    elems[k] = q
    return BasisSequence(tuple(elems))


class TestClosedForm:
    """build_explicit and build_general, one integer walk over the weights
    (b, c), against their per-composition Fraction versions, termwise."""

    def test_seeded_tables(self):
        rng = make_rng(130)
        ns = set()
        for trial in range(60):
            n = 1 if trial % 10 == 0 else rng.randint(2, 7)
            t = random_param_table(rng, d=rng.choice((2, 3, 4, 5)), n=n, fill=rng.choice((0.3, 0.8, 1.0)))
            ns.add(t.n)
            assert build_explicit(t).elements == build_explicit_fraction(t).elements
        assert 1 in ns

    def test_one_variable(self):
        rng = make_rng(131)
        for _ in range(25):
            spec = random_general_spec(rng, n_max=5, bn_max=12, d_max=1)
            assert spec.d == 1
            assert build_general(spec).elements == build_general_fraction(spec).elements

    def test_gaps_in_b(self):
        rng = make_rng(132)
        gaps = 0
        for _ in range(40):
            spec = random_general_spec(rng, n_max=4, bn_max=12, d_max=3)
            gaps += any(spec.b[k + 1] - spec.b[k] > 1 for k in range(spec.n - 1))
            assert build_general(spec).elements == build_general_fraction(spec).elements
        assert gaps >= 30

    def test_zero_heavy_and_all_zero_columns(self):
        rng = make_rng(133)
        for _ in range(25):
            spec = _zero_heavy_general_spec(rng)
            assert build_general(spec).elements == build_general_fraction(spec).elements
            col = rng.randrange(1, spec.n)
            c = tuple(tuple(F(0) if j == col else v for j, v in enumerate(row)) for row in spec.c)
            spec = GeneralSpec(n=spec.n, d=spec.d, b=spec.b, c=c)
            assert build_general(spec).elements == build_general_fraction(spec).elements
        for _ in range(25):
            t = random_param_table(rng, d=rng.choice((3, 4)), n=rng.randint(2, 6))
            s, i = rng.randrange(2, t.d + 1), rng.randrange(2, t.n + 1)
            a = {(k, j): v for (k, j), v in t.a.items() if j != s and k != i}
            t = ParamTable(d=t.d, n=t.n, a=a)
            assert build_explicit(t).elements == build_explicit_fraction(t).elements

    def test_coprime_denominators(self):
        rng = make_rng(134)
        kinds = set()
        for _ in range(60):
            spec = _coprime_spec(rng)
            if spec.a is not None:
                basis, oracle = build_explicit(spec), build_explicit_fraction(spec)
            else:
                basis, oracle = build_general(spec), build_general_fraction(spec)
            kinds.add(spec.a is not None)
            assert basis.elements == oracle.elements
            for q in basis:
                for v in q.terms.values():
                    assert type(v) is F and v != 0 and math.gcd(v.numerator, v.denominator) == 1
        assert kinds == {True, False}

    def test_visits_are_the_predicted_count(self):
        rng = make_rng(135)
        for _ in range(20):
            t = random_param_table(rng, d=rng.choice((2, 3)), n=rng.randint(1, 6), fill=0.5)
            _, visits = _walk_visits(build_explicit, t)
            assert visits == count_compositions(t.n, _slot_weights(t))
            spec = random_general_spec(rng, n_max=4, bn_max=9, d_max=3)
            _, visits = _walk_visits(build_general, spec)
            assert visits == count_compositions(spec.top_weight, _slot_weights(spec))


class TestIntegerKernel:
    """The integer-numerator recurrence and closure check against their
    Fraction versions (build_general and check_closure_fraction)."""

    def test_generating_equals_enumeration_on_coprime_denominators(self):
        rng = make_rng(120)
        for _ in range(40):
            spec = _coprime_spec(rng)
            general = general_form(spec) if spec.a is not None else spec
            assert build_generating(spec).elements == build_general(general).elements
            if spec.a is not None:
                assert build_generating(spec).elements == build_recursive(spec).elements

    def test_output_coefficients_are_normalized_fractions(self):
        spec = GeneralSpec(n=3, d=2, b=(1, 3, 4), c=((F(1, 7), F(0), F(5, 11)), (F(-3, 13), F(1, 1009), F(0))))
        for q in build_generating(spec):
            for v in q.terms.values():
                assert type(v) is F and v != 0
                assert math.gcd(v.numerator, v.denominator) == 1

    def test_closure_matches_fraction_oracle(self):
        rng = make_rng(121)
        kinds = ("built", "shift", "add", "drop", "scale")
        pairs, refuted, seen_kinds = 0, 0, set()
        for trial in range(250):
            spec = _coprime_spec(rng)
            basis = build_generating(spec)
            kind = kinds[trial % len(kinds)]
            if kind != "built":
                basis = _perturbed(rng, basis, kind)
            expect = check_closure_fraction(basis, spec)
            assert check_closure(basis, spec) == expect
            pairs += 1
            refuted += not expect.ok
            seen_kinds.add((kind, spec.a is not None))
        assert pairs >= 200
        assert refuted >= 150
        assert len(seen_kinds) == 2 * len(kinds)

    def test_closure_matches_oracle_on_random_specs(self):
        rng = make_rng(122)
        for _ in range(40):
            spec = random_general_spec(rng, n_max=4, bn_max=7, d_max=3)
            basis = build_general(spec)
            assert check_closure(basis, spec) == check_closure_fraction(basis, spec)
            tampered = _perturbed(rng, basis, rng.choice(("shift", "add", "drop", "scale")))
            assert check_closure(tampered, spec) == check_closure_fraction(tampered, spec)

    def test_violation_order_matches_oracle(self):
        spec = GeneralSpec(n=2, d=2, b=(1, 2), c=((F(1, 7), F(5, 11)), (F(-3, 13), F(0))))
        elems = list(build_generating(spec))
        elems[1] = elems[1] + P("x1 + x2")
        elems[2] = elems[2] * F(1, 17)
        basis = BasisSequence(tuple(elems))
        report = check_closure(basis, spec)
        assert report == check_closure_fraction(basis, spec)
        assert report.violations == ((1, 1), (1, 2), (2, 1), (2, 2))

    @pytest.mark.parametrize("elements, dim", [(["1", "x1"], 2), (["1", "x1", "1/2*x1^2 + x2"], 3)])
    def test_oracle_shares_shape_errors(self, elements, dim):
        spec = GeneralSpec(n=2, d=2, b=(1, 2), c=((F(1), F(0)), (F(0), F(1))))
        basis = BasisSequence(tuple(P(e, dim) for e in elements))
        with pytest.raises(ValueError) as ours:
            check_closure(basis, spec)
        with pytest.raises(ValueError) as oracle:
            check_closure_fraction(basis, spec)
        assert str(ours.value) == str(oracle.value)


def _full_table(d: int, n: int) -> ParamTable:
    return ParamTable(d=d, n=n, a={(i, j): F(i + j, j) for i in range(2, n + 1) for j in range(2, d + 1)})


class TestIntegerRecursion:
    """build_recursive, on integer numerators over one scale per element,
    against its Fraction version, termwise."""

    def test_seeded_tables(self):
        rng = make_rng(140)
        ns = set()
        for trial in range(60):
            n = 1 if trial % 10 == 0 else rng.randint(2, 8)
            t = random_param_table(rng, d=rng.choice((2, 3, 4, 5)), n=n, fill=rng.choice((0.3, 0.8, 1.0)))
            ns.add(t.n)
            assert build_recursive(t).elements == build_recursive_fraction(t).elements
        assert 1 in ns

    @pytest.mark.parametrize("d, n", [(2, 15), (4, 10), (6, 12), (8, 15)])
    def test_full_tables(self, d, n):
        t = _full_table(d, n)
        assert build_recursive(t).elements == build_recursive_fraction(t).elements

    def test_coprime_denominators(self):
        rng = make_rng(141)
        dens = set()
        for _ in range(30):
            d, n = rng.choice((2, 3, 4)), rng.randint(2, 7)
            t = ParamTable(d=d, n=n, a={(i, j): rng.choice(_COPRIME) for i in range(2, n + 1) for j in range(2, d + 1)})
            dens.add(common_denominator(t.a.values())[0])
            assert build_recursive(t).elements == build_recursive_fraction(t).elements
        assert 7 * 11 * 13 * 1009 in dens

    def test_all_zero_columns(self):
        # A variable with no entry, a degree with no entry, or both.
        rng = make_rng(142)
        for trial in range(30):
            t = random_param_table(rng, d=rng.choice((3, 4)), n=rng.randint(2, 7), fill=1.0)
            s, i = rng.randrange(2, t.d + 1), rng.randrange(2, t.n + 1)
            drop_var, drop_deg = trial % 3 != 1, trial % 3 != 0
            a = {(k, j): v for (k, j), v in t.a.items() if not (drop_var and j == s or drop_deg and k == i)}
            t = ParamTable(d=t.d, n=t.n, a=a)
            assert build_recursive(t).elements == build_recursive_fraction(t).elements

    def test_negative_entries(self):
        rng = make_rng(143)
        for _ in range(20):
            d, n = rng.choice((2, 3, 4)), rng.randint(2, 7)
            a = {(i, j): -abs(rational(rng, allow_zero=False)) for i in range(2, n + 1) for j in range(2, d + 1)}
            t = ParamTable(d=d, n=n, a=a)
            assert build_recursive(t).elements == build_recursive_fraction(t).elements

    def test_every_division_is_exact(self, monkeypatch):
        divisions = []
        original = dinv.subspace._exact_div

        def recording(a, b):
            divisions.append((a, b))
            return original(a, b)

        monkeypatch.setattr(dinv.subspace, "_exact_div", recording)
        rng = make_rng(144)
        tables = [_coprime_spec_table(rng) for _ in range(20)] + [_full_table(6, 10)]
        for t in tables:
            build_recursive(t)
        # Per element k >= 2: lcm(1..k) by each of 1..k, the scale by S_{k-1},
        # by D * S_{k-i} per nonzero a[i,j] with i < k, and by D.
        assert len(divisions) == sum(
            k + 2 + sum(1 for (i, _) in t.a if i < k) for t in tables for k in range(2, t.n + 1)
        )
        assert all(a % b == 0 for a, b in divisions)
        # Every antiderivative divisor e_j + 1 up to the top degree occurs.
        assert set(range(1, 11)) <= {b for _, b in divisions}

    def test_scale_is_least_common_denominator(self):
        # The gcd reduction leaves S_k the lcm of B_k's denominators.
        rng = make_rng(145)
        for _ in range(20):
            t = _coprime_spec_table(rng)
            oracle = build_recursive_fraction(t)
            for (s, p), q in zip(dinv.subspace._recursive_numerators(t), oracle, strict=True):
                s_q, nums = common_denominator(q.terms.values())
                assert s == s_q and p == dict(zip(q.terms, nums))

    def test_no_fraction_or_polynomial_arithmetic_before_the_output(self, monkeypatch):
        t = _full_table(4, 8)

        def forbidden(*args, **kwargs):
            raise AssertionError("Polynomial arithmetic in the integer recursion")

        for name in ("__add__", "__sub__", "__mul__", "__rmul__", "coeff"):
            monkeypatch.setattr(Polynomial, name, forbidden)
        built = []

        def counting(*args):
            built.append(args)
            return F(*args)

        monkeypatch.setattr(dinv.subspace, "Fraction", counting)
        basis = build_recursive(t)
        assert len(built) == sum(len(q.terms) for q in basis)
        monkeypatch.undo()
        assert basis.elements == build_recursive_fraction(t).elements
        for q in basis:
            for v in q.terms.values():
                assert type(v) is F and v != 0 and math.gcd(v.numerator, v.denominator) == 1


def _coprime_spec_table(rng) -> ParamTable:
    """A table with entries from _COPRIME (zeros and negatives included)."""
    d, n = rng.choice((2, 3)), rng.randint(1, 6)
    return ParamTable(d=d, n=n, a={(i, j): rng.choice(_COPRIME) for i in range(2, n + 1) for j in range(2, d + 1)})


class TestIntegerBreadth:
    """breadth, one integer elimination over the elements' numerators,
    against the three-rank definition (_breadth_three_ranks)."""

    @pytest.mark.parametrize(
        "texts, expect",
        [
            (["1"], 0),
            (["3/7", "-2"], 0),
            (["1", "x1", "1/2*x1^2 + 2*x2"], 1),
            (["1", "x1", "x2"], 2),
            (["1", "x1", "x2", "x1*x2 + 5/11"], 2),
            (["x1 - 1/13", "x1", "x2 + x1", "x2^2"], 2),
        ],
    )
    def test_hand_cases(self, texts, expect):
        basis = [P(t) for t in texts]
        assert breadth(basis) == expect == _breadth_three_ranks(basis)

    def test_built_bases_and_extra_directions(self):
        rng = make_rng(150)
        values = set()
        for trial in range(30):
            if trial % 2:
                built = list(build_recursive(_coprime_spec_table(rng)))
            else:
                built = list(build_generating(_coprime_spec(rng)))
            dim = built[0].dim
            extra = rng.randint(0, dim - 1)
            basis = built + [Polynomial.variable(dim, dim - k) for k in range(extra)]
            values.add(breadth(basis))
            assert breadth(basis) == _breadth_three_ranks(basis)
        assert {1, 2} <= values

    def test_without_the_constant(self):
        rng = make_rng(151)
        for _ in range(10):
            built = list(build_recursive(_coprime_spec_table(rng)))[1:]
            with pytest.raises(ValueError, match="constant 1"):
                _breadth_three_ranks(built)
            with pytest.raises(ValueError, match="constant 1"):
                breadth(built)

    def test_dependent_spanning_sets(self):
        rng = make_rng(152)
        for _ in range(20):
            built = list(build_recursive(_coprime_spec_table(rng)))
            dim = built[0].dim
            basis = list(built)
            for _ in range(rng.randint(1, 4)):
                comb = Polynomial.zero(dim)
                for q in rng.sample(built, rng.randint(1, len(built))):
                    comb = comb + rng.choice(_COPRIME[:5]) * q
                basis.append(comb)
            basis += [F(2, 7) * q for q in rng.sample(built, 1)]
            rng.shuffle(basis)
            assert breadth(basis) == _breadth_three_ranks(basis) == 1

    def test_reads_no_coefficients(self, monkeypatch):
        basis = list(build_recursive(_full_table(3, 6))) + [P("x3", 3)]
        expect = _breadth_three_ranks(basis)

        def forbidden(self, exps):
            raise AssertionError("breadth read a coefficient through Polynomial.coeff")

        monkeypatch.setattr(Polynomial, "coeff", forbidden)
        assert breadth(basis) == expect == 2
