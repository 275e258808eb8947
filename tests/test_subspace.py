"""Tests for the three basis constructions and their exact verifiers."""

import itertools
import json
import math
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dinv.subspace
from dinv import fuel
from conftest import COPRIME as _COPRIME
from conftest import coprime_spec as _coprime_spec
from conftest import forbid_fractions, general_form, make_rng, random_general_spec, random_param_table, rational, seeded_specs
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
    points_scheme_b,
)
from dinv.linalg import common_denominator
from dinv.poly import parse_rational
from dinv.subspace import (
    Arc,
    ClosureReport,
    MonomialCodes,
    Numerators,
    _closed_form_elements,
    _generating_elements,
    _recursive_numerators,
    breadth_numerators,
    check_closure_numerators,
    numerator_basis,
)
from oracles import (
    arc_slots,
    breadth_numerators_tuple,
    count_compositions,
    build_explicit_fraction,
    build_general_fraction,
    build_recursive_fraction,
    check_closure_fraction,
    check_closure_numerators_tuple,
    closed_form_elements_tuple,
    closed_form_steps,
    closure_fuel,
    diff,
    enumerate_weight_solutions,
    generating_elements_tuple,
    generating_fuel,
    mul,
    packed,
    recursive_numerators_tuple,
    rref_fraction,
    span_contains,
    spec_arc,
    unpacked,
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
        assert t.arc is t.arc
        assert t.arc == Arc(3, 2, ((1, ((0, 2),)), (2, ((1, 1),)), (4, ((2, -6),))))
        assert t.top_weight == 4
        assert (repr(t), t.to_dict()) == before
        assert t == ParamTable(d=3, n=4, a={(2, 2): F(1, 2), (4, 3): F(-3)})
        assert ParamTable(d=3, n=1, a={}).arc == Arc(3, 1, ((1, ((0, 1),)),))

    def test_slots_coprime_denominators(self):
        # Denominators 2, 3, 5 (and 2, 3, 7): D is their lcm; a table's x1 slot carries D itself.
        t = ParamTable(d=3, n=3, a={(2, 2): F(1, 2), (3, 2): F(-2, 3), (3, 3): F(4, 5)})
        assert t.arc == Arc(3, 30, ((1, ((0, 30),)), (2, ((1, 15),)), (3, ((1, -20), (2, 24)))))
        spec = GeneralSpec(n=2, d=2, b=(1, 2), c=((F(1, 2), F(0)), (F(1, 3), F(2, 7))))
        assert spec.arc == Arc(2, 42, ((1, ((0, 21), (1, 14))), (2, ((1, 12),))))

    def test_slots_match_specialization(self):
        rng = make_rng(110)
        for _ in range(20):
            t = random_param_table(rng, d=rng.choice((2, 3, 4)), n=rng.randint(2, 6))
            assert t.arc == general_form(t).arc


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

    def test_messages_keep_their_order(self):
        # b's length is checked before any entry of c is read, and each
        # entry is read before the number of c vectors is checked.
        with pytest.raises(ValueError, match="b has length 1, expected 2"):
            GeneralSpec(n=2, d=1, b=(1,), c=[["x", "1"]])
        with pytest.raises(ValueError, match="Invalid literal for Fraction: 'x'"):
            GeneralSpec(n=2, d=2, b=(1, 2), c=[["1", "x"]])
        with pytest.raises(ValueError, match="c has 1 vectors, expected 2"):
            GeneralSpec(n=2, d=2, b=(1, 2), c=[["1", "0"]])

    def test_json_round_trip(self):
        spec = GeneralSpec(n=3, d=2, b=(1, 2, 5), c=((F(1), F(0), F(1, 3)), (F(0), F(-2), F(7))))
        assert GeneralSpec.from_dict(spec.to_dict()) == spec

    def test_slots_made_with_the_entries(self):
        # The arc is stored when the entries are: common_denominator over them.
        a, b = "7" * 1000, "3" * 1000
        specs = [
            *seeded_specs(make_rng(171), 40),
            *(random_param_table(make_rng(172 + k), d=2 + k % 3, n=1 + k % 7) for k in range(20)),
            GeneralSpec.from_dict({"n": 2, "d": 2, "b": [1, 44], "c": [[a, a], ["-1/" + b, a]]}),
            GeneralSpec(n=1, d=2, b=(1,), c=((F(3, 4),), (F(-2, 9),))),
            ParamTable(d=3, n=10**18, a={(2, 2): F(1, 6), (10**18, 3): F(-5, 4), (10**17, 2): F(7, 10)}),
        ]
        for spec in specs:
            assert spec.arc == spec_arc(spec)
            assert "arc" in vars(spec)
            twin = GeneralSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
            assert twin == spec and twin.arc == spec.arc and hash(twin) == hash(spec)

    def test_slots_skip_zero_entries(self):
        # The weight-3 column is all zero; c_12 and c_23 are zero as well.
        spec = GeneralSpec(n=3, d=2, b=(1, 3, 4), c=((F(1), F(0), F(2, 3)), (F(-1, 2), F(0), F(0))))
        assert spec.arc is spec.arc
        assert spec.arc == Arc(2, 6, ((1, ((0, 6), (1, -3))), (4, ((0, 4),))))
        assert spec.arc.by_var == [[(1, 6), (4, 4)], [(1, -3)]]
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
            assert loaded.arc == t.arc and loaded.a == t.a
            assert loaded.to_dict() == t.to_dict() == GeneralSpec.from_dict(t.to_dict()).to_dict()

    def test_coefficient_texts_read_as_parse_rational_reads_them(self):
        texts = ["2/4", "-0", "0/7", " 3", "1_0", "0.25", "1e-2", 5, -2.5, "007/010", "-6/4"]
        general = {"n": len(texts), "d": 2, "b": list(range(1, len(texts) + 1)), "c": [["1"] + texts[1:], texts]}
        want = GeneralSpec(n=len(texts), d=2, b=general["b"], c=[[parse_rational(str(v)) for v in row] for row in general["c"]])
        assert GeneralSpec.from_dict(general) == want
        table = {"d": 2, "n": 3, "a": {"2,2": "2/4", "3,2": " -3"}}
        assert GeneralSpec.from_dict(table) == ParamTable(d=2, n=3, a={(2, 2): F(1, 2), (3, 2): F(-3)})
        for bad, error in (("1/0", ZeroDivisionError), (True, ValueError), ("1/" + "3" * 1001, ValueError)):
            with pytest.raises(ValueError, match="malformed parameter table: ") as info:
                GeneralSpec.from_dict({"d": 2, "n": 3, "a": {"2,2": bad}})
            assert type(info.value.__cause__) is error

    def test_huge_table_loads_at_once(self):
        start = time.perf_counter()
        spec = GeneralSpec.from_dict({"d": 2, "n": 10**9, "a": {}})
        assert time.perf_counter() - start < 0.01
        assert spec.n == spec.top_weight == 10**9 and spec.a == {}
        assert spec.arc == Arc(2, 1, ((1, ((0, 1),)),))


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

    def test_coded_elements_are_graded_on_their_codes(self):
        # One codec's elements are graded on their codes; out of order, or
        # not starting at 1, they get the messages the exponent checks give.
        elems = build_recursive(EXAMPLE_PARAMS).elements
        assert all(p.codes is elems[0].codes for p in elems)
        assert BasisSequence(elems).elements == elems
        with pytest.raises(ValueError, match="element 1 has degree 2, expected 1"):
            BasisSequence((elems[0], elems[2], elems[1]))
        with pytest.raises(ValueError, match="element 0 must be the constant 1"):
            BasisSequence(elems[1:])
        # Elements coded by an equal codec, or by none, are graded alike.
        other = MonomialCodes(2, 4)
        mixed = (elems[0], *[Polynomial(2, p.coded, _scale=p.scale, _codes=other) for p in elems[1:3]], *EXAMPLE_BASIS[3:])
        assert BasisSequence(mixed) == BasisSequence(tuple(EXAMPLE_BASIS))


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


def _product_steps(spec, top) -> tuple[Numerators, int, int]:
    """_closed_form_elements on the spec's arc to top under fuel with no practical limit,
    the number of its "the closed form" charges past the first (the
    scales'), one made just before each (w, g) it runs, and the cells it
    charged."""
    stages = []
    charge = fuel.charge

    def recorded(cells, stage):
        stages.append(stage)
        charge(cells, stage)

    fuel.charge = recorded
    fuel.arm(10**30)
    try:
        return _closed_form_elements(spec.arc, spec.codes_to(top), top), stages.count("the closed form") - 1, fuel._spent
    finally:
        fuel.disarm()
        fuel.charge = charge


def _slot_weights(spec) -> list[int]:
    """The weights b_j of the nonzero c_ij of a spec of either kind."""
    return [bj for bj, form in spec.arc.by_weight for _ in form]


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

    def test_zero_slots_never_step(self):
        # Of the six (b_j, i), only the nonzero c_ij, of weights 1, 2 and 4,
        # enter a step: x1's from E_0 alone, x2's from every E_w it can
        # leave, each (w, g) charged once.  No two vectors meet on a monomial
        # here, so each multiply-add makes one of the walk's vectors past
        # the zero one.
        spec = GeneralSpec(n=3, d=2, b=(1, 2, 4), c=((F(1), F(0), F(3)), (F(0), F(2), F(0))))
        nums, charged, _ = _product_steps(spec, 4)
        steps = closed_form_steps(spec, 4)
        assert [(bj, w) for bj, w, _, _ in steps] == [(1, 0), (2, 2), (2, 1), (2, 0), (4, 0)]
        assert charged == sum(g for _, _, _, g in steps) == 9
        ops = sum(n * g for _, _, n, g in steps)
        assert ops + 1 == count_compositions(4, [1, 2, 4]) == 10
        assert count_compositions(4, [1, 1, 2, 2, 4, 4]) > 10
        assert numerator_basis(nums).elements == build_general_fraction(spec).elements

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
        def forbidden(arc, codes, top):
            raise AssertionError("build_generating enumerated compositions")

        monkeypatch.setattr(dinv.subspace, "_closed_form_elements", forbidden)
        spec = GeneralSpec(n=3, d=2, b=(1, 2, 4), c=((F(1), F(0), F(3)), (F(0), F(2), F(0))))
        assert check_closure(build_generating(spec), spec).ok


class TestCharges:
    """The fuel of the generating recurrence and of the closure check,
    armed, equals the oracles' per-element charges summed: the kernels'
    running constants change no cell."""

    @staticmethod
    def _spent(kernel, *args):
        fuel.arm(10**30)
        try:
            return kernel(*args), fuel._spent
        finally:
            fuel.disarm()

    def _assert_charged(self, spec: GeneralSpec, top: int) -> None:
        spec.codes_to(top)  # the codec is made, and charged, once per spec
        nums, spent = self._spent(_generating_elements, spec.arc, spec.codes_to(top), top)
        assert spent == generating_fuel(spec, generating_elements_tuple(spec.arc, top))
        if top < spec.top_weight:
            nums = _generating_elements(spec.arc, spec.codes, spec.top_weight)
        report, spent = self._spent(check_closure_numerators, nums, spec)
        assert report.ok
        assert spent == closure_fuel(spec, unpacked(nums))

    def test_seeded_specs(self):
        for spec in seeded_specs(make_rng(120), 40):
            self._assert_charged(spec, spec.top_weight)

    def test_thousand_digit_rationals(self):
        a, b = "7" * 1000, "3" * 1000
        self._assert_charged(GeneralSpec.from_dict({"n": 2, "d": 2, "b": [1, 44], "c": [[a, a], ["-1/" + b, a]]}), 44)

    def test_closed_form_charges_cover_its_multiply_adds(self):
        # The product's multiply-adds counted from its steps' oracle: each is
        # charged at least a cell, on seeded tables and general specs.
        for spec in seeded_specs(make_rng(121), 40):
            top = spec.top_weight
            _, charged, spent = _product_steps(spec, top)
            steps = closed_form_steps(spec, top)
            assert charged == sum(g for _, _, _, g in steps)
            assert spent >= sum(n * g for _, _, n, g in steps) > 0

    def test_recursion_charges_cover_its_term_operations(self):
        # Element k reads each term of B_(k-1) and, per a[i, j] with i < k,
        # each term of B_(k-i) free of x1..x_(j-1): a cell at least for each.
        rng = make_rng(122)
        for _ in range(30):
            t = random_param_table(rng, d=rng.choice((2, 3, 4)), n=rng.randint(2, 7), fill=0.6)
            nums, spent = self._spent(_recursive_numerators, t)
            elems = unpacked(nums)
            ops = 0
            for k in range(2, t.n + 1):
                ops += len(elems[k - 1][1])
                for i, j, _ in arc_slots(t.arc)[1][1:]:
                    if i < k:
                        ops += sum(1 for e in elems[k - i][1] if not any(e[:j]))
            assert spent >= ops > 0

    @pytest.mark.parametrize("d, top", [(50, 3), (300, 7), (1000, 1), (400, 20)])
    def test_codec_charges_its_bits(self, d, top):
        # A cell per 64 bits of the powers and units a codec keeps, charged before they are made.
        codes, spent = self._spent(MonomialCodes, d, top)
        kept = sum(map(int.bit_length, codes.powers + codes.units))
        assert 64 * spent >= kept > 32 * spent

    def test_b5300_to_order_66(self):
        # The recurrence to the order limit --m 66 builds; the closure check of the whole build.
        self._assert_charged(GeneralSpec.from_dict({"n": 2, "d": 1, "b": [1, 5300], "c": [["1", "1"]]}), 66)


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
        """The elements of a graded basis have distinct leads, their top
        monomials, which breadth reads without eliminating: echelon is not
        called.  One more row on a lead already taken goes through it."""
        calls = []
        original = dinv.subspace.echelon

        def recording(rows, key=None):
            calls.append(len(rows))
            return original(rows, key=key)

        monkeypatch.setattr(dinv.subspace, "echelon", recording)
        for basis in (EXAMPLE_BASIS, list(build_generating(_coprime_spec(make_rng(153))))):
            calls.clear()
            assert breadth(basis) == 1 and calls == []
            assert breadth(basis + [F(-2, 3) * basis[-1]]) == 1 and calls == [len(basis) + 1]

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
_OTHER_PRIMES = (17, 19, 23, 29, 31)


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

    def test_steps_are_the_reachable_weights(self):
        # Per slot, one step from each w <= top - b_j that a vector on the
        # earlier slots reaches, E_w then holding the exponents they reach.
        # Each multiply-add extends a term of E_w, so each maps to a vector
        # of the walk past the zero one, with its last nonzero count on the
        # slot: there are fewer multiply-adds than the walk has visits.
        rng = make_rng(135)
        for _ in range(20):
            t = random_param_table(rng, d=rng.choice((2, 3)), n=rng.randint(1, 6), fill=0.5)
            for spec in (t, random_general_spec(rng, n_max=4, bn_max=9, d_max=3)):
                top = spec.top_weight
                _, charged, _ = _product_steps(spec, top)
                want = closed_form_steps(spec, top)
                assert charged == sum(g for _, _, _, g in want)
                visits = count_compositions(top, _slot_weights(spec))
                assert sum(n * g for _, _, n, g in want) < visits
                # cli._check_top's bound: a step per slot and b_n + 1
                # elements, at most as many as the walk's vectors.
                assert len(spec.entries) <= len(want)
                assert max(top, len(spec.entries)) + 1 <= visits

    def test_full_d6_table_sums_vectors_once(self):
        # The full d = 6, n = 12 table: 12,084 multiply-adds against the
        # walk's 14,571 vectors, the vectors that meet on a monomial summed
        # as they meet.
        t = ParamTable(d=6, n=12, a={(i, j): F(i + j, j) for i in range(2, 13) for j in range(2, 7)})
        nums, charged, _ = _product_steps(t, 12)
        steps = closed_form_steps(t, 12)
        assert charged == sum(g for _, _, _, g in steps)
        assert sum(n * g for _, _, n, g in steps) == 12_084
        assert count_compositions(12, _slot_weights(t)) == 14_571
        assert unpacked(nums) == closed_form_elements_tuple(t.arc, 12)


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
            elems = unpacked(dinv.subspace._recursive_numerators(t))
            for (s, p), q in zip(elems, oracle, strict=True):
                s_q, nums = common_denominator(q.terms.values())
                assert s == s_q and p == dict(zip(q.terms, nums))

    def test_no_fraction_or_polynomial_arithmetic_before_the_output(self, monkeypatch):
        t = _full_table(4, 8)

        def forbidden(*args, **kwargs):
            raise AssertionError("Polynomial arithmetic in the integer recursion")

        for name in ("__add__", "__sub__", "__mul__", "__rmul__", "coeff"):
            monkeypatch.setattr(Polynomial, name, forbidden)
        # No Fraction at all until .terms is read: the basis holds the
        # recursion's integer numerators.
        forbid_fractions(monkeypatch)
        basis = build_recursive(t)
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


def _builder_numerators(spec) -> dict:
    """Each builder's Numerators of the spec, keyed by MonomialCodes(d, b_n):
    the generating recurrence and the closed-form product over the unreduced
    scales m! * D^m, the recursion (tables only) over the lcm of each
    element's denominators."""
    arc, codes, top = spec.arc, spec.codes, spec.top_weight
    out = {"general": _generating_elements(arc, codes, top), "explicit": _closed_form_elements(arc, codes, top)}
    if spec.a is not None:
        out["recursive"] = _recursive_numerators(spec)
    return out


def _rescaled(rng, nums: Numerators) -> Numerators:
    """nums with each element's scale and numerators multiplied by one
    random factor: the same basis over a larger scale."""
    out = []
    for s, p in nums.elems:
        k = rng.randint(1, 10**12)
        out.append((s * k, {e: v * k for e, v in p.items()}))
    return Numerators(nums.codes, out)


def _numerators(codes: MonomialCodes, p: Polynomial) -> tuple[int, dict[int, int]]:
    """(s, P) with p = P / s, s the lcm of p's denominators, P keyed by codes."""
    return p.scale, {codes.pack(e): v for e, v in p.numerators.items()}


class TestNumeratorCores:
    """check_closure_numerators and breadth_numerators on the builders'
    numerators, whatever their scales, against the Fraction oracles, on
    seeded tables and general specs (n = 1, gaps in b, coprime
    denominators).  Numerators are keyed by MonomialCodes(d, b_n); a
    Polynomial's are packed through it."""

    def test_scales(self):
        for spec in seeded_specs(make_rng(160), 24):
            d, den = spec.d, spec.arc.den
            codes = MonomialCodes(d, spec.top_weight)
            for source, nums in _builder_numerators(spec).items():
                assert nums.codes == codes
                assert len(nums.elems) == spec.top_weight + 1
                for m, (s, p) in enumerate(nums.elems):
                    assert p and all(p.values())
                    if source == "recursive":
                        assert (s, p) == _numerators(codes, numerator_basis(nums)[m])
                    else:
                        assert s == math.factorial(m) * den**m

    def test_closure_core_matches_fraction_oracle(self):
        rng = make_rng(161)
        refuted, sources = 0, set()
        for spec in seeded_specs(rng, 60):
            codes = MonomialCodes(spec.d, spec.top_weight)
            for source, nums in _builder_numerators(spec).items():
                sources.add(source)
                basis = numerator_basis(nums)
                assert check_closure_numerators(nums, spec) == check_closure_fraction(basis, spec)
                assert check_closure_numerators(nums, spec).ok
                tampered = _perturbed(rng, basis, rng.choice(("shift", "add", "drop", "scale")))
                expect = check_closure_fraction(tampered, spec)
                refuted += not expect.ok
                rows = Numerators(codes, [_numerators(codes, q) for q in tampered])
                assert check_closure_numerators(_rescaled(rng, rows), spec) == expect
                assert check_closure(tampered, spec) == expect
        assert sources == {"general", "explicit", "recursive"}
        assert refuted >= 60

    def test_closure_on_pairwise_coprime_element_scales(self):
        # Element k's scale gets its own prime p_k, so each element's one
        # multiplier L_m is a product of them, larger than any one identity
        # needs (20 of its 216 elements here).  A loaded basis: element k is
        # a built element's integer numerators, one of them over p_k, so the
        # scales 1, p_1, p_2, ... are pairwise coprime, and every identity
        # that reads such an element fails.  The built numerators with
        # element k's scale and numerators times p_k: every identity holds.
        rng = make_rng(165)
        primes = [p for p in range(101, 2000) if all(p % q for q in range(2, 45))]
        held = refuted = 0
        for spec in seeded_specs(rng, 56):
            built = build_general(spec)
            elems, free = [built[0]], iter(primes)
            for q in built.elements[1:]:
                terms = dict(q.numerators)
                e = rng.choice(sorted(terms))
                p = next(p for p in free if terms[e] % p)
                terms[e] = F(terms[e], p)
                elems.append(Polynomial(spec.d, terms))
            basis = BasisSequence(tuple(elems))
            scales = [q.scale for q in basis]
            assert scales[0] == 1 and all(math.gcd(a, b) == 1 for a, b in itertools.combinations(scales, 2))
            expect = check_closure_fraction(basis, spec)
            assert check_closure(basis, spec) == expect
            nums = dinv.subspace._coded(basis.elements, spec.top_weight)
            report, spent = TestCharges._spent(check_closure_numerators, nums, spec)
            assert report == expect and spent == closure_fuel(spec, unpacked(nums))
            refuted += len(expect.violations)
            held += spec.top_weight * spec.d - len(expect.violations)
            codes, elems = _generating_elements(spec.arc, spec.codes, spec.top_weight)
            scaled = Numerators(codes, [(s * p, {c: v * p for c, v in q.items()}) for (s, q), p in zip(elems, primes)])
            report, spent = TestCharges._spent(check_closure_numerators, scaled, spec)
            assert report.ok and spent == closure_fuel(spec, unpacked(scaled))
        assert refuted > 0 and held > 0

    @staticmethod
    def _product_cells(spec: GeneralSpec, elems) -> int:
        """fuel.cells of each product the closure check makes, at the
        widths of its own operands: L_m / s_m * e_i by each term of P_m
        with e_i > 0, and n_ij * L_m / (D * s_(m-b_j)) by each term of
        P_(m-b_j), elems holding (s_k, P_k) on exponent tuples."""
        den, slots = arc_slots(spec.arc)
        total = 0
        for m in range(1, spec.top_weight + 1):
            s_m, p_m = elems[m]
            lcm_m = math.lcm(s_m, *(den * elems[m - bj][0] for bj, _, _ in slots if bj <= m))
            for i in range(spec.d):
                total += sum(fuel.cells(1, v.bit_length(), (lcm_m // s_m * e[i]).bit_length()) for e, v in p_m.items() if e[i])
            for bj, i, n_ij in slots:
                if bj <= m:
                    s, p = elems[m - bj]
                    k = n_ij * (lcm_m // (den * s))
                    total += sum(fuel.cells(1, v.bit_length(), k.bit_length()) for v in p.values())
        return total

    def test_closure_charge_covers_its_products(self):
        # Pairwise-coprime scales make L_m the product of an element's
        # scale and those it reads, one scale wider per weight b_j <= m:
        # the charge grows with it, past each product the check makes at
        # its operands' widths, on specs of up to 10 weights.  The scales are
        # 2^q - 1 for distinct primes q: gcd(2^q - 1, 2^r - 1) = 2^gcd(q, r) - 1.
        rng = make_rng(167)
        primes = [p for p in range(1000, 3000) if all(p % q for q in range(2, 55))]
        for trial in range(20):
            d, top = rng.randint(1, 3), rng.randint(2, 10)
            b = sorted({1, top, *rng.sample(range(2, top), rng.randint(0, top - 2))}) if trial % 2 else list(range(1, top + 1))
            c = [[rational(rng) or F(1) for _ in b] for _ in range(d)]
            spec = GeneralSpec.from_dict({"n": len(b), "d": d, "b": b, "c": [[str(x) for x in row] for row in c]})
            built = build_general(spec)
            qs = rng.sample(primes, spec.top_weight)
            scaled = [Polynomial(d, {e: F(v, (1 << q) - 1) for e, v in p.numerators.items()}) for q, p in zip(qs, built.elements[1:])]
            basis = BasisSequence((built[0], *scaled))
            nums = dinv.subspace._coded(basis.elements, spec.top_weight)
            report, spent = TestCharges._spent(check_closure_numerators, nums, spec)
            assert report == check_closure_fraction(basis, spec)
            assert spent == closure_fuel(spec, unpacked(nums))
            assert spent >= self._product_cells(spec, unpacked(nums)), (spec, spent)

    def test_built_elements_are_reduced_by_one_gcd(self):
        # numerator_basis wraps each element as the keyword constructor
        # does: its numerators and scale over their gcd, keyed by the
        # builder's own codec.
        rng = make_rng(166)
        for _ in range(300):
            t = random_param_table(rng, d=rng.choice((2, 3, 4)), n=rng.randint(1, 7), fill=rng.choice((0.3, 0.8)))
            for nums in _builder_numerators(t).values():
                codes = nums.codes
                for q, (s, p) in zip(numerator_basis(nums), nums.elems, strict=True):
                    g = math.gcd(s, *p.values())
                    assert (q.scale, q.coded) == (s // g, {c: v // g for c, v in p.items()})
                    ref = Polynomial(codes.d, p, _scale=s, _codes=codes)
                    assert (q.dim, q.scale, q.coded) == (ref.dim, ref.scale, ref.coded) and q.codes is codes

    def test_basis_read_from_json_matches_the_fraction_oracle(self):
        """verify --what closure --basis: check_closure on the basis that
        from_dict reads gives the Fraction oracle's verdict."""
        rng = make_rng(164)
        refuted = 0
        for spec in seeded_specs(rng, 24):
            basis = build_general(spec)
            for b in (basis, _perturbed(rng, basis, rng.choice(("shift", "add", "drop", "scale")))):
                data = json.loads(json.dumps(b.to_list()))
                expect = check_closure_fraction(b, spec)
                refuted += not expect.ok
                assert check_closure(BasisSequence.from_list(data), spec) == expect
        assert refuted >= 12

    def test_one_perturbed_numerator_is_located(self):
        rng = make_rng(162)
        refuted = 0
        for spec in seeded_specs(rng, 40):
            top, d = spec.top_weight, spec.d
            codes = MonomialCodes(d, top)
            delta = rng.choice((-1, 1)) * rng.randint(1, 10**6)
            # delta * x_i^top in E_top changes only d/dx_i of the top element,
            # which no other identity reads.
            i = rng.randrange(d)
            e = codes.pack(tuple(top if t == i else 0 for t in range(d)))
            elems = list(_generating_elements(spec.arc, spec.codes, spec.top_weight).elems)
            s, p = elems[top]
            elems[top] = (s, {**p, e: p.get(e, 0) + delta})
            assert check_closure_numerators(Numerators(codes, elems), spec).violations == ((top, i + 1),)
            # A numerator of lower degree in E_m, m <= top: where the oracle says.
            m = rng.randint(1, top)
            exps = [0] * d
            for _ in range(rng.randrange(m)):
                exps[rng.randrange(d)] += 1
            elems = list(_generating_elements(spec.arc, spec.codes, spec.top_weight).elems)
            s, p = elems[m]
            e = codes.pack(exps)
            elems[m] = (s, {k: v for k, v in {**p, e: p.get(e, 0) + delta}.items() if v})
            report = check_closure_numerators(Numerators(codes, elems), spec)
            assert report == check_closure_fraction(numerator_basis(Numerators(codes, elems)), spec)
            assert all(k >= m for k, _ in report.violations)
            refuted += not report.ok
        assert refuted >= 20

    def test_breadth_core_matches_three_ranks(self):
        rng = make_rng(163)
        values = set()
        for spec in seeded_specs(rng, 40):
            d = spec.d
            codes = MonomialCodes(d, spec.top_weight)
            for nums in _builder_numerators(spec).values():
                basis = list(numerator_basis(nums))
                assert breadth_numerators(nums) == _breadth_three_ranks(basis) == breadth(basis) == 1
                extra = [Polynomial.variable(d, d - k) for k in range(rng.randint(0, d - 1))]
                rows = Numerators(codes, _rescaled(rng, nums).elems + [_numerators(codes, q) for q in extra])
                expect = _breadth_three_ranks(basis + extra)
                values.add(expect)
                assert breadth_numerators(rows) == expect
        assert {1, 2, 3} <= values


@st.composite
def _exponents(draw, d: int | None = None) -> tuple[int, int, tuple[int, ...]]:
    """(d, top, e): e in d variables (1..6, or 40) of total degree <= top."""
    if d is None:
        d = draw(st.sampled_from((1, 2, 3, 4, 6, 40)))
    top = draw(st.integers(0, 12))
    e = [0] * d
    for _ in range(draw(st.integers(0, top))):
        e[draw(st.integers(0, d - 1))] += 1
    return d, top, tuple(e)


class TestMonomialCodes:
    """The codec: code(e) = sum_i e_i * (B^d + B^(d-1-i)), B = top + 1."""

    @given(_exponents())
    def test_pack_then_unpack_is_the_identity(self, case):
        d, top, e = case
        codes = MonomialCodes(d, top)
        code = codes.pack(e)
        assert codes.exponents({code}) == {code: e}
        assert codes.degree(code) == sum(e)

    @given(st.sampled_from((1, 2, 3, 40)), st.integers(0, 6), st.data())
    def test_int_order_is_graded_lex_order(self, d, top, data):
        codes = MonomialCodes(d, top)
        exps = [data.draw(_exponents(d))[2] for _ in range(8)]
        exps = [e for e in exps if sum(e) <= top]
        by_code = sorted(exps, key=codes.pack)
        assert by_code == sorted(exps, key=lambda e: (sum(e), e))

    def test_every_monomial_in_order_with_its_degree(self):
        for d, top in ((1, 9), (2, 6), (3, 5), (4, 3)):
            codes = MonomialCodes(d, top)
            exps = sorted((e for e in itertools.product(range(top + 1), repeat=d) if sum(e) <= top),
                          key=lambda e: (sum(e), e))
            packed_codes = [codes.pack(e) for e in exps]
            assert packed_codes == sorted(set(packed_codes))
            assert [codes.degree(c) for c in packed_codes] == [sum(e) for e in exps]
            assert packed_codes[0] == 0
            for i in range(d):  # multiplying by x_i adds its unit
                e = tuple(int(t == i) for t in range(d))
                assert codes.pack(e) == codes.units[i]

    def test_codes_past_a_machine_word(self):
        codes = MonomialCodes(40, 2)
        e = (1,) + (0,) * 38 + (1,)
        code = codes.pack(e)
        assert codes.high == 3**40 and code == 2 * 3**40 + 3**39 + 1 > 2**64
        assert codes.exponents({code}) == {code: e} and codes.degree(code) == 2
        assert codes.pack((0,) * 39 + (2,)) < code < codes.pack((2,) + (0,) * 39)

    @pytest.mark.parametrize(
        "d, top, e",
        [(1, 3, (4,)), (2, 3, (2, 2)), (2, 0, (0, 1)), (3, 5, (6, 0, 0)), (2, 3, (1,)), (2, 3, (0, 0, 1)), (2, 3, (-1, 2))],
    )
    def test_pack_refuses_what_has_no_code(self, d, top, e):
        # A degree >= B would carry into the degree digit: (2, 2) at B = 4
        # would share a code with (3, 0)... so it is refused.
        with pytest.raises(ValueError):
            MonomialCodes(d, top).pack(e)

    def test_codecs_of_one_shape_are_equal(self):
        assert MonomialCodes(3, 5) == MonomialCodes(3, 5) != MonomialCodes(3, 6)
        assert MonomialCodes(3, 5) != MonomialCodes(2, 5) and MonomialCodes(3, 5) != (3, 5)
        assert len({MonomialCodes(3, 5), MonomialCodes(3, 5), MonomialCodes(2, 5)}) == 2
        assert repr(MonomialCodes(3, 5)) == "MonomialCodes(3, 5)"

    def test_breadth_takes_the_base_from_the_largest_degree(self, monkeypatch):
        tops = []

        class Recording(MonomialCodes):
            __slots__ = ()

            def __init__(self, d, top):
                tops.append(top)
                super().__init__(d, top)

        monkeypatch.setattr(dinv.subspace, "MonomialCodes", Recording)
        # The base comes from the largest degree, 7, that of the last row.
        basis = [P("1"), P("x1"), P("x1^3 + x2"), P("x2^7 + x1^2"), P("x2")]
        assert breadth(basis) == _breadth_three_ranks(basis) == 2
        assert tops == [7]
        tops.clear()
        # Two rows on one lead are packed whole, by the same base.
        assert breadth(basis + [P("x2^7")]) == _breadth_three_ranks(basis) == 2
        assert tops == [7]
        tops.clear()
        assert breadth([P("3")]) == 0 and tops == [0]

    @staticmethod
    def _unchecked_basis(elements) -> BasisSequence:
        """A BasisSequence of elements that skips its degree check."""
        basis = object.__new__(BasisSequence)
        object.__setattr__(basis, "elements", tuple(elements))
        return basis

    def test_closure_takes_the_base_from_the_largest_degree(self):
        # An element of degree past b_n must not carry into the degree
        # digit: d/dx1 (x1 + x1^2) = 1 + 2*x1 is not c_11 * B_0 = 1.
        spec = GeneralSpec(n=1, d=1, b=(1,), c=[(F(1),)])
        basis = self._unchecked_basis([Polynomial.constant(1, 1), Polynomial.parse("x1 + x1^2", 1)])
        assert check_closure(basis, spec) == check_closure_fraction(basis, spec) == ClosureReport(False, ((1, 1),))
        spec = ParamTable(d=2, n=2, a={(2, 2): F(1)})
        basis = self._unchecked_basis([P("1"), P("x1"), P("1/2*x1^2 + x2 + x2^5")])
        expect = check_closure_fraction(basis, spec)
        assert check_closure(basis, spec) == expect and expect.violations == ((2, 2),)


class TestCodedKernels:
    """Every coded kernel against its exponent-tuple oracle (*_tuple in
    tests/oracles.py), on seeded specs (tables, n = 1, gaps in b, coprime
    denominators), on tops below b_n, and at d = 1 and d = 40."""

    @staticmethod
    def _specs():
        rng = make_rng(180)
        specs = seeded_specs(rng, 40)
        specs.append(GeneralSpec(n=2, d=1, b=(1, 9), c=[(F(1), F(-2, 3))]))
        specs.append(ParamTable(d=40, n=2, a={(2, j): F(j, 3) for j in range(2, 41)}))
        specs.append(ParamTable(d=40, n=3, a={(2, 2): F(1), (3, 40): F(-5, 7)}))
        return specs

    def test_builders(self):
        shapes = set()
        for spec in self._specs():
            d = spec.d
            # Every top up to b_n is keyed by the spec's own codec.
            for top in sorted({0, spec.top_weight // 2, spec.top_weight}):
                codes = spec.codes
                assert codes == MonomialCodes(d, spec.top_weight) and spec.codes_to(top) is codes
                for coded, oracle in ((_generating_elements, generating_elements_tuple),
                                      (_closed_form_elements, closed_form_elements_tuple)):
                    got = coded(spec.arc, spec.codes_to(top), top)
                    assert got.codes == codes
                    assert unpacked(got) == oracle(spec.arc, top)
                    assert got == packed(codes, oracle(spec.arc, top))
            if spec.a is not None:
                got = _recursive_numerators(spec)
                assert got.codes == MonomialCodes(d, spec.n)
                assert unpacked(got) == recursive_numerators_tuple(spec)
            shapes.add((d, spec.n == 1, spec.a is not None))
        assert {(1, True, False), (40, False, True)} <= shapes and any(a for _, _, a in shapes)

    def test_arcs_that_are_not_specs(self):
        # The builders take any arc: the empty arc, whose B_0 = 1 is all,
        # weights (2, 5) with no weight-1 slot and a gap, and scheme b's
        # point-1 arc, the spec's weight-1 slots alone.
        spec = GeneralSpec(n=3, d=2, b=(1, 3, 4), c=((F(1), F(0), F(2, 3)), (F(-1, 2), F(5), F(0))))
        arcs = [
            Arc(2, 1, ()),
            Arc(3, 6, ((2, ((0, 3), (2, -4))), (5, ((1, 7),)))),
            points_scheme_b(spec, (F(1, 2), F(3))).point_arc(1, spec.top_weight + 1),
        ]
        assert arcs[2] == Arc(2, 6, ((1, ((0, 6), (1, -3))),))
        for arc in arcs:
            for top in (0, 1, 4, 11):
                codes = MonomialCodes(arc.d, top)
                got = _generating_elements(arc, codes, top)
                assert got == _closed_form_elements(arc, codes, top)
                assert unpacked(got) == generating_elements_tuple(arc, top) == closed_form_elements_tuple(arc, top)
        empty = unpacked(_closed_form_elements(arcs[0], MonomialCodes(2, 4), 4))
        assert [p for _, p in empty] == [{(0, 0): 1}, {}, {}, {}, {}]
        gapped = unpacked(_generating_elements(arcs[1], MonomialCodes(3, 5), 5))
        assert [len(p) for _, p in gapped] == [1, 0, 2, 0, 3, 1]

    def test_builders_past_b_n(self):
        spec = GeneralSpec(n=2, d=2, b=(1, 3), c=[(F(1), F(2)), (F(-1, 2), F(0))])
        assert spec.codes_to(5) == MonomialCodes(2, 5) != spec.codes
        for coded, oracle in ((_generating_elements, generating_elements_tuple),
                              (_closed_form_elements, closed_form_elements_tuple)):
            got = coded(spec.arc, spec.codes_to(5), 5)
            assert got.codes == MonomialCodes(2, 5) and unpacked(got) == oracle(spec.arc, 5)

    def test_large_weights(self):
        # The walk carries m! / prod g! down from node to node; the oracle
        # divides m! by prod g! at every vector.  Seeded specs of d = 1..3
        # with weights past 50 and a top of a few hundred (x1 alone at
        # weight 1, so the vectors stay few), and b = (1, 50, 2000) to 500.
        rng = make_rng(182)
        cases = [(GeneralSpec.from_dict({"n": 3, "d": 1, "b": [1, 50, 2000], "c": [["1", "1", "1"]]}), 500)]
        for k in range(9):
            d = k % 3 + 1
            b = (1, rng.randint(50, 150), rng.randint(200, 400))
            c = [[rational(rng, allow_zero=False) if i == 0 else 0, rational(rng), rational(rng)] for i in range(d)]
            cases.append((GeneralSpec(n=3, d=d, b=b, c=c), b[-1]))
        for spec, top in cases:
            assert max(b for b, _ in spec.arc.by_weight) >= 50 and top >= 200
            assert unpacked(_closed_form_elements(spec.arc, spec.codes_to(top), top)) == closed_form_elements_tuple(spec.arc, top)

    def test_closure(self):
        rng = make_rng(181)
        refuted = 0
        for spec in self._specs():
            codes = MonomialCodes(spec.d, spec.top_weight)
            nums = _generating_elements(spec.arc, spec.codes, spec.top_weight)
            tuples = unpacked(nums)
            assert check_closure_numerators(nums, spec) == check_closure_numerators_tuple(tuples, spec)
            basis = numerator_basis(nums)
            tampered = _perturbed(rng, basis, rng.choice(("shift", "add", "drop", "scale")))
            rows = [(q.scale, q.numerators) for q in tampered]
            report = check_closure_numerators(packed(codes, rows), spec)
            assert report == check_closure_numerators_tuple(rows, spec) == check_closure(tampered, spec)
            refuted += not report.ok
        assert refuted >= 20

    def test_breadth(self):
        rng = make_rng(182)
        values = set()
        for spec in self._specs():
            d = spec.d
            codes = MonomialCodes(d, spec.top_weight)
            built = numerator_basis(_generating_elements(spec.arc, spec.codes, spec.top_weight))
            basis = list(built)
            extra = [Polynomial.variable(d, d - k) for k in range(rng.randint(0, min(d, 3) - 1))]
            # Repeated and combined rows take echelon's path, not the leads'.
            rows = basis + extra + [basis[-1] + basis[0], F(2, 3) * basis[-1]]
            rng.shuffle(rows)
            tuples = [q.numerators for q in rows]
            expect = breadth_numerators_tuple(d, tuples)
            assert breadth_numerators(packed(codes, [(1, p) for p in tuples])) == expect
            assert breadth(rows) == expect
            assert breadth(built) == breadth(basis) == breadth_numerators_tuple(d, [q.numerators for q in basis])
            values.add(expect)
        assert {1, 2} <= values

    def test_tables_path_unpacks_no_code(self, monkeypatch):
        """The benchmark's table check, three builders compared termwise,
        then closure and breadth, reads only codes: no exponent tuple is
        made until an element's numerators are read."""

        def forbidden(*args):
            raise AssertionError("a code was unpacked")

        specs = [random_param_table(make_rng(184), d, n) for d, n in ((2, 1), (2, 5), (3, 6), (4, 7))]
        monkeypatch.setattr(MonomialCodes, "exponents", forbidden)
        built = []
        for spec in specs:
            rec, exp, gen = build_recursive(spec), build_explicit(spec), build_generating(spec)
            assert rec.elements == exp.elements and gen.elements == rec.elements and rec == gen
            assert check_closure(rec, spec).ok and breadth(list(rec)) == 1 and breadth(gen) == 1
            assert degrees(rec) == tuple(range(spec.n + 1))
            built.append(rec)
        monkeypatch.undo()
        for spec, rec in zip(specs, built):
            assert rec == build_recursive_fraction(spec)

    def test_built_basis_is_read_through_its_numerators(self, monkeypatch):
        """A built basis's elements are coded by the spec's codec:
        check_closure and breadth read their codes and pack nothing, and
        they equal their exponent-form oracle."""
        spec = ParamTable(d=3, n=6, a={(i, j): F(i, j) for i in range(2, 7) for j in (2, 3)})
        built = {name: f(spec) for name, f in
                 (("recursive", build_recursive), ("general", build_general), ("generating", build_generating))}

        def forbidden(*args):
            raise AssertionError("a built basis was packed again")

        monkeypatch.setattr(MonomialCodes, "packed", forbidden)
        monkeypatch.setattr(MonomialCodes, "pack", forbidden)
        for basis in built.values():
            assert all(p.codes is spec.codes for p in basis)
            assert check_closure(basis, spec).ok and breadth(basis) == 1 and breadth(list(basis)) == 1
        monkeypatch.undo()
        oracle = build_general_fraction(spec)
        assert all(p.codes is None for p in oracle)
        assert built["recursive"] == built["general"] == built["generating"] == oracle
        assert check_closure(oracle, spec).ok and breadth(oracle) == 1

    def test_built_numerators_are_checked_for_grading(self):
        # numerator_basis reads each element's degree from its largest code,
        # and refuses what BasisSequence refuses.
        codes = MonomialCodes(2, 2)
        x1, x1_sq = codes.pack((1, 0)), codes.pack((2, 0))
        for first in ((2, {0: 1}), (1, {0: 2}), (1, {x1: 1}), (1, {0: 1, x1: 1}), (1, {})):
            with pytest.raises(ValueError, match="element 0 must be the constant 1"):
                numerator_basis(Numerators(codes, [first, (1, {x1: 1})]))
        with pytest.raises(ValueError, match="element 1 has degree 2, expected 1"):
            numerator_basis(Numerators(codes, [(1, {0: 1}), (1, {x1_sq: 1})]))
        with pytest.raises(ValueError, match="element 1 has degree -1, expected 1"):
            numerator_basis(Numerators(codes, [(1, {0: 1}), (1, {})]))
        with pytest.raises(ValueError, match="element 1 has degree 2, expected 1"):
            BasisSequence((P("1"), P("x1^2")))
