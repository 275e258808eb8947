"""End-to-end tests of the command-line interface.

All invocations but the entry-point test go through main(argv)
in-process; stdout/stderr are captured with capsys and files live in
tmp_path.
"""

import contextlib
import dataclasses
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dinv
import dinv.cli
import dinv.discretize
import dinv.identities
import dinv.subspace
from dinv import BasisSequence, ClosureReport, Polynomial
from dinv.cli import main
from dinv.poly import MAX_RATIONAL_DIGITS, parse_rational
from dinv.subspace import MonomialCodes, Numerators
from conftest import make_rng, random_param_table, random_poly, rational, seeded_specs
from oracles import build_general_fraction, load_json_text_mode, load_poly_text_mode, power_sums_two_runs

SRC = Path(__file__).resolve().parent.parent / "src"

EXAMPLE_SPEC = {"d": 2, "n": 4, "a": {"2,2": "2", "3,2": "3", "4,2": "4"}}
GENERAL_SPEC = {"n": 2, "d": 2, "b": [1, 2], "c": [["1", "0"], ["0", "1"]]}
# Two general specs not of table shape: a gap in b (CI's), and n = 1, the
# spaces of every zero of multiplicity 2, with x2 at weight 1.
GAPPED_SPEC = {"n": 3, "d": 2, "b": [1, 3, 4], "c": [["1", "0", "2/3"], ["-1/2", "5", "0"]]}
GENERAL_N1 = {"n": 1, "d": 2, "b": [1], "c": [["1"], ["-2/3"]]}
# Specs whose elements lose a monomial to an exact cancellation: n = 3 with
# L_1 = x1 + x2, L_2 = x1 - x2, and a table of shape (d, n) = (2, 6).
CANCELLING_SPEC = {"n": 3, "d": 2, "b": [1, 2, 3], "c": [["1", "1", "0"], ["1", "-1", "0"]]}
CANCELLING_TABLE = {"d": 2, "n": 6, "a": {"2,2": "1", "3,2": "1", "4,2": "-1/2"}}
SOURCES = ("recursive", "explicit", "general")
# The builders of the integer numerators that basis, closure and breadth read.
NUMERATOR_BUILDERS = ("_recursive_numerators", "_closed_form_elements", "_generating_elements")


def P(text, dim=2):
    return Polynomial.parse(text, dim)


def _numerators(codes: MonomialCodes, p: Polynomial) -> tuple[int, dict[int, int]]:
    """(s, P) with p = P / s, s the lcm of p's denominators, P keyed by codes."""
    return p.scale, {codes.pack(e): v for e, v in p.numerators.items()}


def _full_table(d: int, n: int) -> dict:
    return {"d": d, "n": n, "a": {f"{i},{j}": f"{i + j}/{j}" for i in range(2, n + 1) for j in range(2, d + 1)}}


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(EXAMPLE_SPEC))
    return str(path)


@pytest.fixture
def general_file(tmp_path):
    path = tmp_path / "general.json"
    path.write_text(json.dumps(GENERAL_SPEC))
    return str(path)


class TestBasis:
    def test_pretty_output(self, spec_file, capsys):
        assert main(["basis", "--source", "explicit", "--spec", spec_file, "--pretty"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "1",
            "x1",
            "1/2*x1^2 + 2*x2",
            "1/6*x1^3 + 2*x1*x2 + 3*x2",
            "1/24*x1^4 + x1^2*x2 + 3*x1*x2 + 2*x2^2 + 4*x2",
        ]

    def test_sources_byte_identical(self, spec_file, capsys):
        assert main(["basis", "--source", "recursive", "--spec", spec_file]) == 0
        first = capsys.readouterr().out
        assert main(["basis", "--source", "explicit", "--spec", spec_file]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_deterministic(self, spec_file, capsys):
        assert main(["basis", "--source", "recursive", "--spec", spec_file]) == 0
        a = capsys.readouterr().out
        assert main(["basis", "--source", "recursive", "--spec", spec_file]) == 0
        b = capsys.readouterr().out
        assert a == b

    def test_general_source(self, general_file, capsys):
        assert main(["basis", "--source", "general", "--spec", general_file, "--pretty"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["1", "x1", "1/2*x1^2 + x2"]

    @pytest.mark.parametrize("spec", [CANCELLING_SPEC, CANCELLING_TABLE], ids=["general", "table"])
    def test_exact_cancellation_in_every_builder(self, spec, tmp_path, capsys):
        # L_1 * L_2 = x1^2 - x2^2 leaves no x1*x2 in the general spec's B_3,
        # and the table's x2^2 terms of B_6 (weights 2 + 4 and 3 + 3) cancel.
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        loaded = dinv.cli._load(str(path))
        oracle = build_general_fraction(loaded)
        cancelled = {(1, 1)} if spec is CANCELLING_SPEC else {(0, 2)}
        assert not cancelled & set(oracle[-1].numerators)
        sources = SOURCES if loaded.a is not None else SOURCES[1:]
        written = set()
        for source in sources:
            nums = dinv.cli._build_numerators(source, loaded)
            assert all(all(p.values()) for _, p in nums.elems), source
            assert list(dinv.subspace.numerator_basis(nums)) == list(oracle), source
            assert main(["basis", "--source", source, "--spec", str(path)]) == 0
            written.add(capsys.readouterr().out)
        assert len(written) == 1

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("source", ["recursive", "explicit", "general"])
    def test_streamed_json_is_one_dumps(self, source, to_file, tmp_path, capsys):
        # The d = 6, n = 9 table's top element is written in several pieces.
        spec = _full_table(6, 9) if source != "general" else {
            "n": 4, "d": 3, "b": [1, 2, 4, 7], "c": [["1", "-2/3", "0", "5/7"], ["0", "1/11", "3", "0"], ["2", "0", "-1/13", "1"]]
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        build = {"recursive": dinv.build_recursive, "explicit": dinv.build_explicit, "general": dinv.build_generating}
        basis = build[source](dinv.cli._load(str(path)))
        expect = json.dumps(basis.to_list(), indent=2) + "\n"
        out = tmp_path / "basis.json"
        argv = ["basis", "--source", source, "--spec", str(path)]
        assert main(argv + (["--out", str(out)] if to_file else [])) == 0
        captured = capsys.readouterr().out
        assert (out.read_text() if to_file else captured) == expect
        assert captured == ("" if to_file else expect)
        pretty = tmp_path / "basis.txt"
        assert main([*argv, "--pretty", "--out", str(pretty)]) == 0
        assert pretty.read_text() == "".join(q.render() + "\n" for q in basis)

    @pytest.mark.parametrize("d", [1, 6])
    @pytest.mark.parametrize("count", [0, 1, 256, 257, 600])
    def test_writer_is_one_dumps(self, d, count):
        # Zero elements, multi-digit negative rationals and elements of
        # 256 and 257 terms, at the writer's batch boundary, written from
        # numerators over the lcm of each element's denominators and over
        # multiples of it.
        rng = random.Random(d * 1000 + count)
        elements = [Polynomial.constant(d, 1), Polynomial.zero(d)]
        for _ in range(2):
            terms = {}
            while len(terms) < count:
                exps = tuple(rng.randint(0, 3000 if d == 1 else 9) for _ in range(d))
                terms[exps] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**40), rng.randint(1, 10**25))
            elements.append(Polynomial(d, terms))
        elements.append(Polynomial(d, {(0,) * d: Fraction(-123456789, 1000)}))
        expect = json.dumps([p.to_dict() for p in elements], indent=2) + "\n"
        codes = MonomialCodes(d, max(p.degree for p in elements))
        for k in (1, rng.randint(2, 10**30)):
            nums = Numerators(codes, [(s * k, {e: v * k for e, v in p.items()}) for s, p in (_numerators(codes, q) for q in elements)])
            assert "".join(dinv.cli._basis_chunks(nums, False)) == expect
            assert "".join(dinv.cli._basis_chunks(nums, True)) == "".join(p.render() + "\n" for p in elements)
        one = Numerators(codes, [_numerators(codes, elements[0])])
        assert "".join(dinv.cli._basis_chunks(one, False)) == json.dumps([elements[0].to_dict()], indent=2) + "\n"

    def test_integer_writer_matches_fraction_text(self):
        # Every source's numerators, written by the integer writer, against
        # json.dumps of the Fraction oracle's basis, on seeded tables and
        # general specs (n = 1, gaps in b, coprime denominators).
        written = set()
        for spec in seeded_specs(make_rng(170), 40):
            oracle = build_general_fraction(spec)
            expect = json.dumps([p.to_dict() for p in oracle], indent=2) + "\n"
            for source in [s for s in SOURCES if spec.a is not None or s != "recursive"]:
                nums = dinv.cli._build_numerators(source, spec)
                assert nums.codes == MonomialCodes(spec.d, spec.top_weight)
                assert "".join(dinv.cli._basis_chunks(nums, False)) == expect
                assert "".join(dinv.cli._basis_chunks(nums, True)) == "".join(p.render() + "\n" for p in oracle)
                written.add(source)
        assert written == set(SOURCES)

    def test_writer_batches_an_element_256_terms_at_a_time(self):
        big = Polynomial(1, {(k,): Fraction(-k - 1, 7) for k in range(600)})
        codes = MonomialCodes(1, big.degree)
        nums = Numerators(codes, [_numerators(codes, Polynomial.constant(1, 1)), _numerators(codes, big)])
        pieces = list(dinv.cli._basis_chunks(nums, False))
        assert max(piece.count('"coef"') for piece in pieces) == 256
        assert sum(piece.count('"coef"') for piece in pieces) == 601

    def test_builders_are_compared_under_one_codec(self):
        # Every builder of one spec hands back the spec's codec; numerators
        # under two codecs are refused, not compared code by code.
        spec = dinv.GeneralSpec.from_dict(GAPPED_SPEC)
        x, y = (dinv.cli._build_numerators(source, spec) for source in ("explicit", "general"))
        assert x.codes is y.codes is spec.codes and dinv.cli._same_elements(x, y)
        other = Numerators(MonomialCodes(spec.d, spec.top_weight + 1), y.elems)
        with pytest.raises(ValueError, match="keyed by MonomialCodes"):
            dinv.cli._same_elements(x, other)

    def test_general_source_takes_param_table(self, spec_file, capsys):
        assert main(["basis", "--source", "general", "--spec", spec_file]) == 0
        general = capsys.readouterr().out
        assert main(["basis", "--source", "recursive", "--spec", spec_file]) == 0
        assert capsys.readouterr().out == general

    @pytest.mark.parametrize("spec", [GENERAL_N1, GAPPED_SPEC], ids=["n1", "gap-in-b"])
    def test_recursive_source_needs_table_shape(self, spec, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(spec))
        assert main(["basis", "--source", "recursive", "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "needs a spec of table shape" in captured.err
        for source in ("explicit", "general"):
            assert main(["basis", "--source", source, "--spec", str(path)]) == 0
            assert json.loads(capsys.readouterr().out)

    def test_n1_table_and_its_general_form(self, tmp_path, capsys):
        table, general = tmp_path / "t.json", tmp_path / "g.json"
        table.write_text(json.dumps({"d": 2, "n": 1, "a": {}}))
        general.write_text(json.dumps({"n": 1, "d": 2, "b": [1], "c": [["1"], ["0"]]}))
        assert dinv.cli._load(str(table)) == dinv.cli._load(str(general))
        for source in ("recursive", "explicit", "general"):
            outs = []
            for path in (table, general):
                assert main(["basis", "--source", source, "--spec", str(path)]) == 0
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1]
            assert [BasisSequence.from_list(json.loads(outs[0]))[k].render() for k in (0, 1)] == ["1", "x1"]

    def test_missing_file(self, tmp_path, capsys):
        assert main(["basis", "--source", "recursive", "--spec", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content", [b"[" * 100000, b"\xff\xfe{}"], ids=["nested-too-deep", "not-utf8"]
    )
    def test_unreadable_json_exits_2(self, content, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["basis", "--source", "recursive", "--spec", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_spec(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"d": 2}')
        assert main(["basis", "--source", "recursive", "--spec", str(bad)]) == 2

    @pytest.mark.parametrize(
        "source, spec",
        [
            ("recursive", {"d": 2, "n": 2, "a": [1, 2]}),
            ("recursive", {"d": 2, "n": 2, "a": {"2,2": "1/0"}}),
            ("general", {"n": 2, "d": 1, "b": [1, 2], "c": [["1/0", "1"]]}),
            ("general", {"n": 2, "d": 2, "b": "12", "c": [["1", "0"], ["0", "1"]]}),
            ("general", {"n": 2, "d": 1, "b": [1, 2], "c": ["34"]}),
            ("recursive", {"d": 2.9, "n": 2, "a": {}}),
            ("recursive", {"d": 2, "n": True, "a": {}}),
            ("general", {"n": 2, "d": 1, "b": [1, 2.0], "c": [["1", "1"]]}),
        ],
        ids=[
            "table-a-list", "table-zero-denominator", "general-zero-denominator",
            "general-b-string", "general-c-row-string", "table-d-float", "table-n-bool", "general-b-float",
        ],
    )
    def test_unparseable_spec_exits_2(self, source, spec, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        assert main(["basis", "--source", source, "--spec", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_table_naming_one_entry_twice_exits_2(self, tmp_path, capsys):
        # "02,2" and "2,2" are one entry: the table is refused, not read
        # with the last key's value.
        spec = tmp_path / "twice.json"
        spec.write_text('{"d": 2, "n": 4, "a": {"02,2": "1", "2,2": "3"}}')
        assert main(["basis", "--source", "general", "--spec", str(spec), "--pretty"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {spec}: malformed parameter table: keys '02,2' and '2,2' both name a[2,2]\n"
        # Keys naming distinct entries still load.
        spec.write_text('{"d": 2, "n": 4, "a": {"02,2": "1", "3,02": "3"}}')
        assert main(["basis", "--source", "general", "--spec", str(spec), "--pretty"]) == 0
        assert capsys.readouterr().out.splitlines()[3] == "1/6*x1^3 + x1*x2 + 3*x2"


class TestVerify:
    def test_closure_roundtrip_from_basis_file(self, spec_file, tmp_path, capsys):
        basis_path = tmp_path / "basis.json"
        assert main(["basis", "--source", "recursive", "--spec", spec_file, "--out", str(basis_path)]) == 0
        capsys.readouterr()
        code = main(["verify", "--what", "closure", "--spec", spec_file, "--basis", str(basis_path)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {"what": "closure", "ok": True, "violations": []}

    def test_closure_rebuilds_when_no_basis_given(self, spec_file, capsys):
        assert main(["verify", "--what", "closure", "--spec", spec_file]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_closure_general_spec(self, general_file, capsys):
        assert main(["verify", "--what", "closure", "--spec", general_file]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_closure_detects_tampering(self, spec_file, tmp_path, capsys):
        basis_path = tmp_path / "basis.json"
        assert main(["basis", "--source", "recursive", "--spec", spec_file, "--out", str(basis_path)]) == 0
        data = json.loads(basis_path.read_text())
        data[4]["terms"][1]["coef"] = "5"
        basis_path.write_text(json.dumps(data))
        capsys.readouterr()
        code = main(["verify", "--what", "closure", "--spec", spec_file, "--basis", str(basis_path)])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False and report["violations"]

    def test_closure_general_spec_tampered_basis(self, general_file, tmp_path, capsys):
        basis_path = tmp_path / "basis.json"
        basis_path.write_text(json.dumps([P(e).to_dict() for e in ("1", "x1", "1/2*x1^2 + 3*x2")]))
        code = main(["verify", "--what", "closure", "--spec", general_file, "--basis", str(basis_path)])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["violations"] == [[2, 2]]

    @pytest.mark.parametrize(
        "which, dim, elements",
        [
            ("general", 2, ["1", "x1", "x2"]),
            ("table", 2, ["1", "x1", "1/2*x1^2 + 2*x2", "1/6*x1^3 + 2*x1*x2 + 3*x2", "x1^4", "x1^5"]),
            ("table", 2, ["1", "x1", "1/2*x1^2 + 2*x2"]),
            ("general", 2, ["1", "x1"]),
            ("general", 2, ["1", "x1", "1/2*x1^2 + x2", "x1^3"]),
            ("table", 3, ["1", "x1", "1/2*x1^2", "x1^3", "x1^4"]),
        ],
        ids=["wrong-degree", "table-longer", "table-shorter", "general-shorter", "general-longer", "wrong-dim"],
    )
    def test_closure_bad_basis_exits_2(self, which, dim, elements, spec_file, general_file, tmp_path, capsys):
        basis_path = tmp_path / "basis.json"
        basis_path.write_text(json.dumps([P(e, dim).to_dict() for e in elements]))
        spec = general_file if which == "general" else spec_file
        assert main(["verify", "--what", "closure", "--spec", spec, "--basis", str(basis_path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("what", ["breadth", "equivalence", "identities"])
    def test_basis_with_another_check_exits_2(self, what, spec_file, tmp_path, capsys):
        # Only the closure check reads --basis; any other refuses it rather than check the built basis.
        basis_path = tmp_path / "basis.json"
        assert main(["basis", "--source", "recursive", "--spec", spec_file, "--out", str(basis_path)]) == 0
        assert main(["verify", "--what", what, "--spec", spec_file, "--basis", str(basis_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --basis is read by --what closure only, not --what {what}\n"

    def test_closure_basis_element_past_b_n_exits_2(self, tmp_path, capsys):
        # x1^2 in element 1 of a b = (1) spec: the basis is refused as it is
        # read, before its terms are packed for the check.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"d": 1, "n": 1, "b": [1], "c": [[1]]}))
        basis_path = tmp_path / "basis.json"
        basis_path.write_text(json.dumps([P("1", 1).to_dict(), P("x1 + x1^2", 1).to_dict()]))
        assert main(["verify", "--what", "closure", "--spec", str(spec), "--basis", str(basis_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {basis_path}: element 1 has degree 2, expected 1\n"

    def test_closure_basis_float_exponent_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"d": 2, "n": 1, "a": {}}))
        basis_path = tmp_path / "basis.json"
        basis_path.write_text(json.dumps([
            {"dim": 2, "terms": [{"exp": [0, 0], "coef": "1"}]},
            {"dim": 2, "terms": [{"exp": [1.7, 0], "coef": "1"}]},
        ]))
        assert main(["verify", "--what", "closure", "--spec", str(spec), "--basis", str(basis_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "1.7" in err

    def test_equivalence(self, spec_file, capsys):
        assert main(["verify", "--what", "equivalence", "--spec", spec_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["recursive_vs_explicit"] is True
        assert report["general_vs_recursive"] is True

    def test_equivalence_table_report_bytes(self, spec_file, capsys):
        assert main(["verify", "--what", "equivalence", "--spec", spec_file]) == 0
        assert capsys.readouterr().out == (
            '{\n  "what": "equivalence",\n  "recursive_vs_explicit": true,\n'
            '  "general_vs_recursive": true,\n  "ok": true\n}\n'
        )

    def test_equivalence_general_spec(self, tmp_path, capsys):
        spec = tmp_path / "g.json"
        spec.write_text(json.dumps({"n": 3, "d": 2, "b": [1, 3, 4], "c": [["1", "0", "2/3"], ["-1/2", "5", "0"]]}))
        assert main(["verify", "--what", "equivalence", "--spec", str(spec)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {"what": "equivalence", "generating_vs_general": True, "ok": True}

    @pytest.mark.parametrize("name", ["build_generating", "build_general"])
    def test_equivalence_general_spec_wrong_builder(self, name, tmp_path, monkeypatch, capsys):
        # GENERAL_SPEC has table shape, which equivalence checks as a table.
        # The numerators behind the builder named get x1 added to their top
        # element.
        spec = tmp_path / "g.json"
        spec.write_text(json.dumps(GAPPED_SPEC))
        elements = {"build_generating": "_generating_elements", "build_general": "_closed_form_elements"}[name]
        right = getattr(dinv.cli, elements)

        def wrong(arc, codes, top):
            codes, elems = right(arc, codes, top)
            s, p = elems[-1]
            x1 = codes.units[0]
            return Numerators(codes, elems[:-1] + [(s, {**p, x1: p.get(x1, 0) + s})])

        monkeypatch.setattr(dinv.cli, elements, wrong)
        assert main(["verify", "--what", "equivalence", "--spec", str(spec)]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"what": "equivalence", "generating_vs_general": False, "ok": False}
        assert "equivalence: FAIL" in captured.err

    def test_general_form_of_table_shape_is_a_table(self, general_file, tmp_path, capsys):
        assert main(["verify", "--what", "equivalence", "--spec", general_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {"what": "equivalence", "recursive_vs_explicit": True, "general_vs_recursive": True, "ok": True}
        assert main(["study", "--spec", general_file, "--steps", "2", "--out-dir", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.startswith("table: d=2 n=2, f = ")

    def test_general_spec_path_never_enumerates(self, general_file, monkeypatch, capsys):
        def forbidden(*args):
            raise AssertionError("the closed form was built")

        monkeypatch.setattr(dinv.subspace, "build_general", forbidden)
        monkeypatch.setattr(dinv.subspace, "_closed_form_elements", forbidden)
        monkeypatch.setattr(dinv.cli, "_closed_form_elements", forbidden)
        assert main(["basis", "--source", "general", "--spec", general_file, "--pretty"]) == 0
        assert capsys.readouterr().out.splitlines() == ["1", "x1", "1/2*x1^2 + x2"]
        assert main(["verify", "--what", "closure", "--spec", general_file]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        assert main(["verify", "--what", "breadth", "--spec", general_file]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 1

    def test_breadth_general(self, general_file, capsys):
        assert main(["verify", "--what", "breadth", "--spec", general_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["value"] == 1 and report["degrees"] == [0, 1, 2]

    def test_identities(self, capsys):
        code = main([
            "verify", "--what", "identities",
            "--m-max", "6", "--vand-max", "4", "--r-max", "3", "--i-max", "3",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True

    @pytest.mark.parametrize(
        "flag, content, named",
        [("--spec", [EXAMPLE_SPEC], "expected a JSON object"), ("--basis", {"dim": 2}, "expected a JSON array of polynomials")],
    )
    def test_closure_input_of_the_wrong_json_kind_exits_2(self, flag, content, named, spec_file, tmp_path, capsys):
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps(content))
        argv = ["verify", "--what", "closure", *(["--spec", spec_file] if flag == "--basis" else []), flag, str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: {named}\n" and captured.out == ""

    def test_spec_required(self, capsys):
        assert main(["verify", "--what", "closure"]) == 2

    def test_identities_off_by_one_power_sum_fails(self, monkeypatch, capsys):
        carried = dinv.identities.signed_power_sums

        def off_by_one(m, include_zero=True):
            sums = carried(m, include_zero)
            if m == 5 and not include_zero:
                sums[3] += 1
            return sums

        monkeypatch.setattr(dinv.cli, "signed_power_sums", off_by_one)
        assert main(["verify", "--what", "identities", "--m-max", "6"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["power_sums"] == {"m_max": 6, "ok": False}
        assert report["vandermonde"]["ok"] and report["falling_factorial"]["ok"] and not report["ok"]

    def test_identities_node_zero_counted_twice_fails(self, monkeypatch, capsys):
        # The sums from node 0 are the run from node 1 plus node 0's term:
        # a run from node 1 that counts node 0 as well is refused.
        carried = dinv.identities.signed_power_sums

        def counts_node_zero(m, include_zero=True):
            return carried(m, True)

        monkeypatch.setattr(dinv.cli, "signed_power_sums", counts_node_zero)
        assert main(["verify", "--what", "identities", "--m-max", "6"]) == 1
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["power_sums"] == {"m_max": 6, "ok": False}
        assert report["vandermonde"]["ok"] and report["falling_factorial"]["ok"] and not report["ok"]
        assert "power sums (m <= 6): FAIL" in captured.err

    def test_identities_power_sums_one_run_per_order(self, monkeypatch):
        # One run from node 1 per order gives the verdict of a run from
        # each node per order.
        runs = []
        carried = dinv.identities.signed_power_sums

        def recording(m, include_zero=True):
            runs.append((m, include_zero))
            return carried(m, include_zero)

        monkeypatch.setattr(dinv.cli, "signed_power_sums", recording)
        assert all(dinv.cli._power_sums_hold(m) for m in range(61)) and power_sums_two_runs(60)
        assert runs == [(m, False) for m in range(61)]

    @pytest.mark.parametrize("cap", [0, 1], ids=["cap-i", "cap-r"])
    def test_identities_off_by_one_falling_factorial_fails(self, cap, monkeypatch, capsys):
        carried = dinv.identities.falling_factorial_sums

        def off_by_one(r_max, i):
            sums = carried(r_max, i)
            if i == 3:
                sums[cap][5] += 1
            return sums

        monkeypatch.setattr(dinv.cli, "falling_factorial_sums", off_by_one)
        assert main(["verify", "--what", "identities", "--r-max", "6", "--i-max", "4"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["falling_factorial"] == {"r_max": 6, "i_max": 4, "ok": False}
        assert report["power_sums"]["ok"] and report["vandermonde"]["ok"] and not report["ok"]

    def test_identities_nodes_from_r_max_on_are_not_scanned(self, capsys):
        # At r_max = 1 no node i < r_max is left.
        start = time.perf_counter()
        assert main(["verify", "--what", "identities", "--m-max", "0", "--vand-max", "0", "--r-max", "1", "--i-max", "1250000"]) == 0
        assert time.perf_counter() - start < 1
        assert json.loads(capsys.readouterr().out)["falling_factorial"] == {"r_max": 1, "i_max": 1250000, "ok": True}

    @pytest.mark.parametrize(
        "flags, nodes",
        [
            (["--m-max", "0", "--vand-max", "0", "--r-max", "1", "--i-max", "2000000"], 0),
            (["--r-max", "30", "--i-max", "100000"], 28),
        ],
        ids=["r1-i2000000", "r30-i100000"],
    )
    def test_identities_guard_counts_only_the_scanned_nodes(self, flags, nodes, monkeypatch, capsys):
        scanned = []
        carried = dinv.identities.falling_factorial_sums

        def recording(r_max, i):
            scanned.append(i)
            return carried(r_max, i)

        monkeypatch.setattr(dinv.cli, "falling_factorial_sums", recording)
        start = time.perf_counter()
        assert main(["verify", "--what", "identities", *flags]) == 0
        assert time.perf_counter() - start < 2
        assert len(scanned) == nodes
        assert json.loads(capsys.readouterr().out)["ok"] is True

    @pytest.mark.parametrize(
        "flag, value", [("--m-max", "-5"), ("--vand-max", "-1"), ("--r-max", "0"), ("--i-max", "1")]
    )
    def test_identities_empty_scan_exits_2(self, flag, value, capsys):
        assert main(["verify", "--what", "identities", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err


class TestHugeRationals:
    """A rational with more than MAX_RATIONAL_DIGITS digits in its
    numerator or denominator is refused with exit 2, wherever it enters."""

    TABLE = {"d": 2, "n": 2, "a": {"2,2": "1e5000"}}

    def _assert_refused(self, capsys, digits="5001 digits"):
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert digits in captured.err and f"bound is {MAX_RATIONAL_DIGITS}" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [["basis", "--source", "recursive"], ["verify", "--what", "closure"]],
        ids=["basis", "closure"],
    )
    def test_table_entry(self, argv, tmp_path, capsys):
        spec = tmp_path / "big.json"
        spec.write_text(json.dumps(self.TABLE))
        assert main([*argv, "--spec", str(spec)]) == 2
        self._assert_refused(capsys)

    def test_general_spec_entry(self, tmp_path, capsys):
        spec = tmp_path / "big.json"
        spec.write_text(json.dumps({"n": 2, "d": 1, "b": [1, 2], "c": [["1", "1e-5000"]]}))
        assert main(["basis", "--source", "general", "--spec", str(spec)]) == 2
        self._assert_refused(capsys)

    def test_basis_file_coefficient(self, spec_file, tmp_path, capsys):
        basis = tmp_path / "basis.json"
        basis.write_text(json.dumps([
            {"dim": 2, "terms": [{"exp": [0, 0], "coef": "1"}]},
            {"dim": 2, "terms": [{"exp": [1, 0], "coef": "1" + "0" * 1000}]},
        ]))
        assert main(["verify", "--what", "closure", "--spec", spec_file, "--basis", str(basis)]) == 2
        self._assert_refused(capsys, "1001 digits")

    @pytest.mark.parametrize("flags", [["--z0", "1e5000,0"], ["--h", "1e-5000"]], ids=["z0", "h"])
    def test_points_flags(self, flags, spec_file, capsys):
        assert main(["points", "--scheme", "a", "--spec", spec_file, *flags]) == 2
        self._assert_refused(capsys)

    def test_sweep_h0(self, spec_file, tmp_path, capsys):
        f = tmp_path / "f.txt"
        f.write_text("x1^3")
        assert main(["sweep", "--spec", spec_file, "--f", str(f), "--m", "2", "--scheme", "a", "--h0", "1e-5000"]) == 2
        self._assert_refused(capsys)

    def test_polynomial_text_coefficient(self, spec_file, tmp_path, capsys):
        f = tmp_path / "f.txt"
        f.write_text("1" + "0" * 1000 + "*x1 + x2")
        assert main(["limit", "--spec", spec_file, "--f", str(f), "--m", "1", "--scheme", "a"]) == 2
        self._assert_refused(capsys, "1001 digits")

    def test_huge_exponent_refused_before_expansion(self, spec_file, capsys):
        assert main(["points", "--scheme", "a", "--spec", spec_file, "--z0", "1e100000000,0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"bound is {MAX_RATIONAL_DIGITS}" in err

    def test_bound_itself_is_accepted(self, tmp_path, capsys):
        spec = tmp_path / "edge.json"
        spec.write_text(json.dumps({"d": 2, "n": 2, "a": {"2,2": "1e999"}}))
        assert main(["verify", "--what", "closure", "--spec", str(spec)]) == 0


class TestDigitLimit:
    """Products of in-bound inputs can outgrow Python's limit on writing an
    integer as text: B_10 of this table holds a_22^5/5! (4994 digits) and
    the limit of x2^5 at m = 10 is a_22^5 (4996 digits)."""

    TABLE = {"d": 2, "n": 10, "a": {"2,2": "1e999"}}

    @pytest.mark.parametrize(
        "argv, digits",
        [
            *((["basis", "--source", source, *pretty], 4994) for source in SOURCES for pretty in ([], ["--pretty"])),
            (["limit", "--f", "{tmp}/f.txt", "--m", "10", "--scheme", "a"], 4996),
        ],
        ids=[
            "basis" + ("" if source == "recursive" else f"-{source}") + pretty
            for source in SOURCES
            for pretty in ("", "-pretty")
        ] + ["limit"],
    )
    def test_exits_2_naming_digits_and_limit(self, argv, digits, tmp_path, capsys):
        (tmp_path / "a.json").write_text(json.dumps(self.TABLE))
        (tmp_path / "f.txt").write_text("x2^5")
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert main([*argv, "--spec", str(tmp_path / "a.json")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        assert f"{digits} digits" in captured.err
        assert f"limit of {sys.get_int_max_str_digits()}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("pretty", [[], ["--pretty"]], ids=["json", "pretty"])
    def test_numerator_of_exactly_the_limit_is_written(self, pretty, tmp_path, capsys):
        # B_1 = 10^700 * x1: a numerator of 701 digits, as wide in bits as
        # 10^700, written at a limit of 701 and refused at 700.
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": 1, "d": 1, "b": [1], "c": [["1e700"]]}))
        argv = ["basis", "--source", "general", "--spec", str(path), *pretty]
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(701)
            assert main(argv) == 0
            captured = capsys.readouterr()
            assert captured.err == "" and "1" + "0" * 700 in captured.out
            sys.set_int_max_str_digits(700)
            assert main(argv) == 2
        finally:
            sys.set_int_max_str_digits(limit)
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert "701 digits" in captured.err and "limit of 700" in captured.err

    def test_no_partial_out_file(self, tmp_path, capsys):
        (tmp_path / "a.json").write_text(json.dumps(self.TABLE))
        out = tmp_path / "basis.json"
        for source in SOURCES:
            assert main(["basis", "--source", source, "--spec", str(tmp_path / "a.json"), "--out", str(out)]) == 2
            assert "4994 digits" in capsys.readouterr().err
            assert not out.exists()


_SPEC_TEXT = json.dumps(GAPPED_SPEC, indent=1) + "\n"
_POLY_JSON = json.dumps({"dim": 2, "terms": [{"exp": [2, 1], "coef": "3/4"}, {"exp": [0, 0], "coef": "-1"}]}, indent=1)

# Contents of an input file, each read by cli's readers and by a text-mode
# read: LF, CRLF and lone-CR newlines (in JSON whitespace, inside a JSON
# string, in polynomial text, and before an error whose message names its
# line or quotes the text), a UTF-8 BOM, non-ASCII text and invalid UTF-8
# at byte 0, past 8 KiB and at the end.
_READER_CONTENTS = {
    "lf": _SPEC_TEXT.encode(),
    "crlf": _SPEC_TEXT.replace("\n", "\r\n").encode(),
    "cr": _SPEC_TEXT.replace("\n", "\r").encode(),
    "mixed": _SPEC_TEXT.replace("\n", "\r\n", 3).replace("\n", "\r", 2).encode() + b"\r\r\n\n\r",
    "cr-in-string": b'{"n": 1, "d": 1, "b": [1], "c": [["1\r2"]]}',
    "poly-json-crlf": _POLY_JSON.replace("\n", "\r\n").encode(),
    "poly-text-cr": b"x1^2*x2\r + 3/4\r\n- x2\r",
    "bad-json-crlf": b'{\r\n"n": 1,\r\n\r\n"d": ]\r\n',
    "bad-json-cr": b'{\r"n": 1,\r\r"d": ]\r',
    "bad-poly-crlf": b"x1^2\r\n+ y1\r\n- x2",
    "bad-poly-cr": b"x1^2\r+ y1\r\r- x2",
    "bom": b"\xef\xbb\xbf" + _SPEC_TEXT.encode(),
    "bom-poly": b"\xef\xbb\xbfx1 + x2",
    "non-ascii": '{"n": 1, "d": 1, "b": [1], "c": [["\u0661"]]}'.encode(),
    "bad-byte-0": b"\xff" + _SPEC_TEXT.encode(),
    "bad-past-8k": b" " * 9000 + b"\xc3(" + _SPEC_TEXT.encode(),
    "truncated-end": _SPEC_TEXT.encode() + b"\xe2\x82",
    "empty": b"",
}


def _read_outcome(read, *args):
    """("value", result) from read(*args), or ("error", message) from a CliError."""
    try:
        return "value", read(*args)
    except dinv.cli.CliError as exc:
        return "error", str(exc)


class TestReaders:
    """cli reads each input file's bytes once and decodes them as UTF-8
    with universal newlines: every value and error message is the one a
    text-mode read gives."""

    @pytest.mark.parametrize("name", sorted(_READER_CONTENTS))
    def test_same_as_a_text_mode_read(self, name, tmp_path):
        path = tmp_path / f"{name}.json"
        path.write_bytes(_READER_CONTENTS[name])
        for dim in (1, 2):
            assert _read_outcome(dinv.cli._load_poly, str(path), dim) == _read_outcome(load_poly_text_mode, str(path), dim)
        assert _read_outcome(dinv.cli._load_json, str(path)) == _read_outcome(load_json_text_mode, str(path))

    @pytest.mark.parametrize("kind", ["directory", "missing"])
    def test_unreadable_path(self, kind, tmp_path):
        path = str(tmp_path if kind == "directory" else tmp_path / "missing.json")
        got = _read_outcome(dinv.cli._load_json, path)
        assert got == _read_outcome(load_json_text_mode, path) and got[1].startswith(f"cannot read {path}: ")
        got = _read_outcome(dinv.cli._load_poly, path, 2)
        assert got == _read_outcome(load_poly_text_mode, path, 2) and got[1].startswith(f"cannot read {path}: ")

    def test_crlf_spec_runs_as_lf(self, tmp_path, capsys):
        lf, crlf = tmp_path / "lf.json", tmp_path / "crlf.json"
        lf.write_bytes(_READER_CONTENTS["lf"])
        crlf.write_bytes(_READER_CONTENTS["crlf"])
        for argv in (["verify", "--what", "closure"], ["basis", "--source", "general"]):
            outputs = []
            for path in (lf, crlf):
                assert main([*argv, "--spec", str(path)]) == 0
                outputs.append(capsys.readouterr())
            assert outputs[0] == outputs[1]


class TestReports:
    def test_one_encoder_writes_as_json_dumps(self, spec_file, general_file, tmp_path, monkeypatch, capsys):
        # Every report and list cli writes as JSON: _REPORT.encode(x) is
        # json.dumps(x, indent=2).
        f = tmp_path / "f.txt"
        f.write_text("x1^3 + x1*x2 - 1")
        gapped = tmp_path / "gapped.json"
        gapped.write_text(json.dumps(GAPPED_SPEC))
        real, written = dinv.cli._REPORT, []

        class Checked:
            def encode(self, value):
                text = real.encode(value)
                assert text == json.dumps(value, indent=2)
                written.append(value)
                return text

        monkeypatch.setattr(dinv.cli, "_REPORT", Checked())
        commands = [
            *(["verify", "--what", what, "--spec", path] for what in ("closure", "equivalence", "breadth")
              for path in (spec_file, str(gapped))),
            ["verify", "--what", "identities", "--m-max", "4", "--vand-max", "3", "--r-max", "3", "--i-max", "3"],
            ["points", "--scheme", "a", "--spec", str(gapped), "--z0", "1/2,-3"],
            ["points", "--scheme", "b", "--spec", str(gapped), "--h", "1/3"],
            ["limit", "--spec", spec_file, "--f", str(f), "--m", "3", "--scheme", "b", "--z0", "1,2"],
            ["scan", "--count", "3", "--seed", "4"],
        ]
        for argv in commands:
            assert main(argv) == 0
        assert len(written) == len(commands)
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, patch, code, report, err",
        [
            (["verify", "--what", "closure", "--spec", "{table}"], None, 0,
             {"what": "closure", "ok": True, "violations": []}, "closure: ok\n"),
            (["verify", "--what", "closure", "--spec", "{general}", "--basis", "{tampered}"], None, 1,
             {"what": "closure", "ok": False, "violations": [[2, 2]]}, "closure: FAIL at (element, variable) [(2, 2)]\n"),
            (["verify", "--what", "equivalence", "--spec", "{table}"], None, 0,
             {"what": "equivalence", "recursive_vs_explicit": True, "general_vs_recursive": True, "ok": True},
             "equivalence: ok\n"),
            (["verify", "--what", "equivalence", "--spec", "{gapped}"], None, 0,
             {"what": "equivalence", "generating_vs_general": True, "ok": True}, "equivalence: ok\n"),
            (["verify", "--what", "equivalence", "--spec", "{table}"],
             ("_generating_elements", lambda arc, codes, top: Numerators(codes, [(1, {0: 1})])), 1,
             {"what": "equivalence", "recursive_vs_explicit": True, "general_vs_recursive": False, "ok": False},
             "equivalence: FAIL\n"),
            (["verify", "--what", "breadth", "--spec", "{table}"], None, 0,
             {"what": "breadth", "value": 1, "degrees": [0, 1, 2, 3, 4], "ok": True}, "breadth: 1 (ok)\n"),
            *(
                (["verify", "--what", "identities", "--m-max", "6", "--vand-max", "4", "--r-max", "3", "--i-max", "3"],
                 patch, int(not ok),
                 {"what": "identities", "power_sums": {"m_max": 6, "ok": ok}, "vandermonde": {"m_max": 4, "ok": True},
                  "falling_factorial": {"r_max": 3, "i_max": 3, "ok": True}, "ok": ok},
                 f"power sums (m <= 6): {'ok' if ok else 'FAIL'}\nstencil vs elimination oracle (m <= 4): ok\n"
                 "falling-factorial cap identity (r <= 3, i <= 3): ok\n")
                for ok, patch in ((True, None), (False, ("signed_power_sums", lambda m, *rest: [0] * (m + 1))))
            ),
            (["limit", "--spec", "{table}", "--f", "{f}", "--m", "3", "--scheme", "b"], None, 0,
             {"m": 3, "low_coeffs": ["0", "0", "0"], "lead": "3", "target": "3", "pass": True},
             "limit check m=3 scheme b: pass\n"),
            (["scan", "--count", "3", "--n-max", "3"], None, 0,
             {"what": "scan", "count": 3, "seed": 0, "failures": [], "ok": True},
             "checked 3 tables in {elapsed}s: 3 ok, 0 failed\n"),
        ],
        ids=["closure", "closure-basis-fails", "equivalence-table", "equivalence-general", "equivalence-fails",
             "breadth", "identities", "identities-fail", "limit", "scan"],
    )
    def test_every_verdict_ending(self, argv, patch, code, report, err, spec_file, general_file, tmp_path, monkeypatch, capsys):
        # Each verdict's exit code, stdout bytes and stderr lines; scan's
        # elapsed time is read as any number of seconds to two places.
        files = {"table": spec_file, "general": general_file, "gapped": tmp_path / "gapped.json",
                 "tampered": tmp_path / "tampered.json", "f": tmp_path / "f.txt"}
        files["gapped"].write_text(json.dumps(GAPPED_SPEC))
        files["tampered"].write_text(json.dumps([P(e).to_dict() for e in ("1", "x1", "1/2*x1^2 + 3*x2")]))
        files["f"].write_text("x1^3 + x1*x2 - 1")
        if patch:
            monkeypatch.setattr(dinv.cli, *patch)
        assert main([arg.format(**files) for arg in argv]) == code
        captured = capsys.readouterr()
        assert captured.out == json.dumps(report, indent=2) + "\n"
        assert re.fullmatch(re.escape(err).replace(re.escape("{elapsed}"), r"[0-9]+\.[0-9]{2}"), captured.err), captured.err


# The budget of the tests of metered refusals: each ends within 1.5 times it.
SMALL_BUDGET_S = 0.1


@pytest.fixture
def small_budget(monkeypatch):
    monkeypatch.setattr(dinv.cli, "WORK_BUDGET_S", SMALL_BUDGET_S)


def _assert_refused(captured, command: str, *named: str) -> None:
    """An exit-2 refusal for fuel before any output, naming the command, the
    stage, the fuel spent and the budget."""
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith(f"error: {command}: out of fuel in "), captured.err
    assert " cells spent and the next step needs " in captured.err
    assert captured.err.endswith(f" cells ({dinv.cli.WORK_BUDGET_S:g} s)\n"), captured.err
    for text in named:
        assert text in captured.err, (text, captured.err)


def _refused_in_time(argv, capsys, command: str, *named: str) -> None:
    """main(argv) is refused for fuel within 1.5 times WORK_BUDGET_S."""
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.5 * dinv.cli.WORK_BUDGET_S
    _assert_refused(capsys.readouterr(), command, *named)


def _at_its_fuel(argv, monkeypatch, capsys):
    """main(argv) passes with a budget of exactly the fuel it spends and is
    refused with one cell less; the refusal's captured output."""
    monkeypatch.setattr(dinv.cli, "SECONDS_PER_CELL", 1.0)
    monkeypatch.setattr(dinv.cli, "WORK_BUDGET_S", 1e15)
    assert main(argv) == 0
    spent = dinv.fuel._spent
    capsys.readouterr()
    monkeypatch.setattr(dinv.cli, "WORK_BUDGET_S", float(spent))
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(dinv.cli, "WORK_BUDGET_S", float(spent - 1))
    assert main(argv) == 2
    return capsys.readouterr()


class TestSizeGuard:
    """A spec's builds and checks are metered: a command refuses, exit 2
    with no output, the step of a builder or check that would pass the
    budget, within 1.5 times it.  A spec whose b_n + 1 or slot count alone
    passes the budget is refused before any build (the cheap bound)."""

    @pytest.fixture
    def no_builds(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("built before the cheap bound")

        # Every build cli makes, example1's bases too, goes through these three.
        for name in NUMERATOR_BUILDERS:
            monkeypatch.setattr(dinv.cli, name, forbidden)

    def _refused_at_once(self, argv, capsys, *named):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("error:") and captured.err.endswith(" of the 2 s budget\n")
        for text in named:
            assert text in captured.err, (text, captured.err)

    @pytest.mark.parametrize(
        "argv", [["basis", "--source", "explicit"], ["verify", "--what", "equivalence"]], ids=["basis", "equivalence"]
    )
    def test_full_d6_table_past_the_bound(self, argv, tmp_path, capsys, small_budget):
        # The closed form of a full d = 6, n = 20 table does 391,707
        # multiply-adds, past the budget: refused at the step that would pass it.
        path = tmp_path / "t.json"
        path.write_text(json.dumps(_full_table(6, 20)))
        command = "basis" if argv[0] == "basis" else "verify --what equivalence"
        stage = "the closed form" if argv[0] == "basis" else "the "
        _refused_in_time([*argv, "--spec", str(path)], capsys, command, stage)

    def test_general_spec_equivalence(self, tmp_path, capsys, small_budget):
        # b = (1..120): its equivalence runs in about 0.5 s.  (b = (1..60) took
        # 7-10 s as a walk over its count vectors, and takes 0.03-0.06 s.)
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": 120, "d": 1, "b": list(range(1, 121)), "c": [["1"] * 120]}))
        _refused_in_time(["verify", "--what", "equivalence", "--spec", str(path)], capsys, "verify --what equivalence")

    def test_top_alone_refuses(self, tmp_path, capsys, no_builds):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"d": 2, "n": 10**9, "a": {}}))
        self._refused_at_once(["basis", "--source", "explicit", "--spec", str(path)], capsys, "at least 1,000,000,001 vectors x (d + 3)")

    @pytest.mark.parametrize(
        "flags, budget, named",
        [
            (["--d-max", "6", "--n-max", "19"], SMALL_BUDGET_S, "the "),
            # Each table's draw is charged for the full table of 399,996
            # entries first: past the default budget at once.
            (["--n-max", "100000"], 2.0, "drawing a table: 0 cells spent"),
        ],
        ids=["d6-n19", "n100000"],
    )
    def test_scan(self, flags, budget, named, monkeypatch, capsys):
        monkeypatch.setattr(dinv.cli, "WORK_BUDGET_S", budget)
        _refused_in_time(["scan", *flags], capsys, "scan", named)

    @pytest.mark.parametrize(
        "argv",
        [
            ["basis", "--source", "general"],
            ["verify", "--what", "closure"],
            ["verify", "--what", "breadth"],
            ["verify", "--what", "equivalence"],
        ],
        ids=["basis", "closure", "breadth", "equivalence"],
    )
    def test_recurrence_digits_past_the_bound(self, argv, tmp_path, capsys, small_budget):
        # E_m = m! * B_m keeps m!, 708,000 bits at m = 50000: the scales
        # alone pass the fuel.
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": 2, "d": 1, "b": [1, 50000], "c": [["1", "1"]]}))
        command = "basis" if argv[0] == "basis" else f"verify --what {argv[2]}"
        # equivalence builds the closed form first, whose scales are charged before its first step.
        stage = "the closed form" if argv[-1] == "equivalence" else "the generating recurrence"
        _refused_in_time([*argv, "--spec", str(path)], capsys, command, stage)

    # A code's width, about d * log2(b_n + 1) bits, is charged where a code
    # is made, added, kept or divided.  Past the budget unmetered: the
    # d = 2000 table's closure and basis each run about 1.2 s; the d = 5000
    # codec keeps 5000^2 * 3 bits; the full d = 1000, n = 5 table's breadth
    # runs about 5 s in 700 MiB.
    WIDE_TABLE = {"d": 2000, "n": 3, "a": {f"2,{j}": "1" for j in range(2, 52)}}

    @pytest.mark.parametrize(
        "spec, argv, stage",
        [
            (WIDE_TABLE, ["verify", "--what", "closure"], "the closure check"),
            (WIDE_TABLE, ["basis", "--source", "general"], "writing the basis"),
            ({"d": 5000, "n": 3, "a": {}}, ["verify", "--what", "closure"], "the monomial codes"),
            ({"d": 5000, "n": 3, "a": {}}, ["basis", "--source", "general"], "the monomial codes"),
        ],
        ids=["closure", "basis", "codes-closure", "codes-basis"],
    )
    def test_wide_codes_past_the_bound(self, spec, argv, stage, tmp_path, capsys, small_budget):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(spec))
        command = "basis" if argv[0] == "basis" else f"verify --what {argv[2]}"
        _refused_in_time([*argv, "--spec", str(path)], capsys, command, stage)

    def test_loaded_basis_of_coprime_scales_past_the_bound(self, tmp_path, capsys, small_budget):
        # Element k over 2^(q_k) - 1, q_k the primes from 2503, pairwise
        # coprime: the closure check's multipliers hold the product of up to
        # 41 scales, 110,000 bits.  It runs about 0.9 s unmetered.
        spec = {"n": 40, "d": 1, "b": list(range(1, 41)), "c": [[f"{j % 5 + 1}/{j % 3 + 1}" for j in range(40)]]}
        built = dinv.build_general(dinv.GeneralSpec.from_dict(spec))
        qs = [q for q in range(2500, 3000) if all(q % p for p in range(2, 55))][:40]
        elems = [built[0]] + [Polynomial(1, {e: Fraction(v, 2**q - 1) for e, v in p.numerators.items()}) for q, p in zip(qs, built.elements[1:])]
        (tmp_path / "g.json").write_text(json.dumps(spec))
        (tmp_path / "b.json").write_text(json.dumps(BasisSequence(tuple(elems)).to_list()))
        argv = ["verify", "--what", "closure", "--spec", str(tmp_path / "g.json"), "--basis", str(tmp_path / "b.json")]
        _refused_in_time(argv, capsys, "verify --what closure", "the closure check")

    def test_loaded_basis_of_random_scales_past_the_bound(self, tmp_path, capsys, small_budget):
        # Element m is x1^m over a random odd 3300-bit scale, b = (1, 600):
        # each lcm of the check is a gcd of two scales, about 0.1 ms, and is
        # charged as one although L_m is no wider than them.
        rng = make_rng(171)
        scales = [1] + [rng.getrandbits(3300) | 1 << 3299 | 1 for _ in range(600)]
        basis = [{"dim": 1, "terms": [{"exp": [m], "coef": f"1/{s}"}]} for m, s in enumerate(scales)]
        (tmp_path / "g.json").write_text(json.dumps({"n": 2, "d": 1, "b": [1, 600], "c": [["1", "1"]]}))
        (tmp_path / "b.json").write_text(json.dumps(basis))
        argv = ["verify", "--what", "closure", "--spec", str(tmp_path / "g.json"), "--basis", str(tmp_path / "b.json")]
        _refused_in_time(argv, capsys, "verify --what closure", "the closure check")

    # Each input is charged before its reader runs, past the budget here: a
    # polynomial text of 20,000 terms (limit --f), a basis of 10,000 one-term
    # elements, a table of 19,881 entries, and a basis of 1000 elements over
    # random 3300-bit scales, whose JSON text alone passes the budget.  Each
    # is read in about the budget or more unmetered, or checked past it.
    # Terms or c entries over the first 4000 or 3000 primes keep numerators as
    # wide as the primes' product: their common denominator is charged as it
    # widens.  4000 terms 1/p_k*x1 of one monomial are summed as they are
    # parsed, each sum as wide as the primes so far: each sum is charged.
    @pytest.mark.parametrize("kind", ["text", "basis", "table", "json", "primes-text", "primes-json", "primes-spec", "repeated-text"])
    def test_oversized_input_refused_as_read(self, kind, tmp_path, capsys, small_budget):
        spec, data = tmp_path / "s.json", tmp_path / "data"
        argv, command = ["verify", "--what", "closure", "--basis", str(data)], "verify --what closure"
        primes = [p for p in range(2, 38000) if all(p % q for q in range(2, int(p**0.5) + 1))]
        if kind == "text":
            spec.write_text(json.dumps(GAPPED_SPEC))
            data.write_text(" + ".join(f"x1^{k % 40}*x2^{k // 40}" for k in range(20000)))
            argv, command, stage = ["limit", "--m", "2", "--scheme", "a", "--f", str(data)], "limit", f"reading {data}"
        elif kind in ("primes-text", "primes-json"):
            assert len(primes) >= 4000
            spec.write_text(json.dumps(GAPPED_SPEC))
            if kind == "primes-text":
                data.write_text(" + ".join(f"1/{p}*x1^{k}" for k, p in enumerate(primes[:4000])))
            else:
                data.write_text(json.dumps({"dim": 2, "terms": [{"exp": [k, 0], "coef": f"1/{p}"} for k, p in enumerate(primes[:4000])]}))
            argv, command, stage = ["limit", "--m", "1", "--scheme", "a", "--f", str(data)], "limit", "reading a polynomial"
        elif kind == "repeated-text":
            spec.write_text(json.dumps(GAPPED_SPEC))
            data.write_text(" + ".join(f"1/{p}*x1" for p in primes[:4000]))
            argv, command, stage = ["limit", "--m", "1", "--scheme", "a", "--f", str(data)], "limit", "reading a polynomial"
        elif kind == "primes-spec":
            spec.write_text(json.dumps({"n": 3000, "d": 1, "b": list(range(1, 3001)), "c": [[f"1/{p}" for p in primes[:3000]]]}))
            argv, command, stage = ["verify", "--what", "breadth"], "verify --what breadth", "reading a spec"
        elif kind == "table":
            spec.write_text(json.dumps(_full_table(142, 142)))
            argv, command, stage = ["verify", "--what", "breadth"], "verify --what breadth", "reading a spec"
        else:
            rng, top = make_rng(172), 9999 if kind == "basis" else 999
            coefs = ["1"] * (top + 1) if kind == "basis" else ["1"] + [f"1/{rng.getrandbits(3300) | 1}" for _ in range(top)]
            spec.write_text(json.dumps({"n": 2, "d": 1, "b": [1, top], "c": [["1", "1"]]}))
            data.write_text(json.dumps([{"dim": 1, "terms": [{"exp": [m], "coef": c}]} for m, c in enumerate(coefs)]))
            stage = "reading a polynomial" if kind == "basis" else f"reading {data}"
        _refused_in_time([*argv, "--spec", str(spec)], capsys, command, stage)

    @pytest.mark.parametrize("form", ["text", "json"])
    def test_coprime_polynomial_read_within_the_budget(self, form, tmp_path, capsys):
        # 1300 terms 1/p_k*x1^k over the first 1300 primes, under the 2 s
        # budget: no gcd fold runs on a polynomial that is read, so the lcms
        # and the numerators are charged, about 0.08 s, and the limit passes.
        primes = [p for p in range(2, 11000) if all(p % q for q in range(2, int(p**0.5) + 1))][:1300]
        spec, f = tmp_path / "s.json", tmp_path / "f"
        spec.write_text(json.dumps(GAPPED_SPEC))
        if form == "text":
            f.write_text(" + ".join(f"1/{p}*x1^{k}" for k, p in enumerate(primes)))
        else:
            f.write_text(json.dumps({"dim": 2, "terms": [{"exp": [k, 0], "coef": f"1/{p}"} for k, p in enumerate(primes)]}))
        assert main(["limit", "--m", "1", "--scheme", "a", "--spec", str(spec), "--f", str(f)]) == 0
        assert capsys.readouterr().err == "limit check m=1 scheme a: pass\n"

    def test_wide_full_table_past_the_bound(self, tmp_path, capsys):
        # Under the 2 s budget: the cheap bound refuses this table at once under a smaller one.
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"d": 1000, "n": 5, "a": {f"{i},{j}": "1" for i in range(2, 6) for j in range(2, 1001)}}))
        _refused_in_time(["verify", "--what", "breadth", "--spec", str(path)], capsys, "verify --what breadth", "the generating recurrence")

    def test_recurrence_huge_top_refused_without_weights(self, tmp_path, capsys, no_builds):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"d": 2, "n": 10**9, "a": {}}))
        for argv in (["basis", "--source", "recursive"], ["verify", "--what", "closure"]):
            self._refused_at_once([*argv, "--spec", str(path)], capsys, "at least 1,000,000,001 vectors")

    @pytest.mark.parametrize(
        "argv",
        [
            ["points", "--scheme", "a"],
            ["limit", "--m", "1", "--scheme", "a"],
            ["sweep", "--m", "1", "--scheme", "b"],
            ["study"],
        ],
        ids=["points", "limit", "sweep", "study"],
    )
    def test_point_commands_refuse_huge_top(self, argv, tmp_path, capsys, no_builds):
        # Each point set has n + 1 points, so the cheap bound must act before any is built.
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"d": 2, "n": 10**9, "a": {}}))
        f = tmp_path / "f.txt"
        f.write_text("x1^2 + x2")
        extra = ["--out-dir", str(tmp_path / "out")] if argv[0] == "study" else []
        if argv[0] in ("limit", "sweep", "study"):
            extra += ["--f", str(f)]
        self._refused_at_once([*argv, *extra, "--spec", str(path)], capsys, "at least 1,000,000,001 vectors x (d + 3)")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["basis", "--source", "general"],
            ["basis", "--source", "recursive"],
            ["basis", "--source", "explicit"],
            ["verify", "--what", "closure"],
            ["verify", "--what", "breadth"],
            ["verify", "--what", "equivalence"],
            ["points", "--scheme", "a"],
            ["limit", "--m", "1", "--scheme", "b"],
            ["sweep", "--m", "1", "--scheme", "a"],
            ["study"],
        ],
        ids=["general", "recursive", "explicit", "closure", "breadth", "equivalence", "points", "limit", "sweep", "study"],
    )
    def test_table_past_ssize_t_refused(self, argv, tmp_path, capsys, no_builds):
        # n = 10^19 > sys.maxsize: no len() of range(1, n + 1) may be taken
        # before the cheap bound, which refuses the spec like any other huge table.
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"d": 2, "n": 10**19, "a": {}}))
        f = tmp_path / "f.txt"
        f.write_text("x1^2 + x2")
        extra = ["--out-dir", str(tmp_path / "out")] if argv[0] == "study" else []
        if argv[0] in ("limit", "sweep", "study"):
            extra += ["--f", str(f)]
        self._refused_at_once([*argv, *extra, "--spec", str(path)], capsys, "at least 10,000,000,000,000,000,001 vectors x (d + 3)")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "spec",
        [
            _full_table(6, 18),
            _full_table(6, 12),
            _full_table(8, 15),
            {"n": 3, "d": 2, "b": [1, 3, 4], "c": [["1", "0", "2/3"], ["-1/2", "5", "0"]]},
        ],
        ids=["d6-n18", "d6-n12", "d8-n15", "ci-general"],
    )
    def test_recurrence_accepts(self, spec, tmp_path, capsys):
        # Every builder, the closed form among them: CI runs equivalence on d8-n15.
        path = tmp_path / "s.json"
        path.write_text(json.dumps(spec))
        assert main(["verify", "--what", "equivalence", "--spec", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    @pytest.mark.parametrize("argv", [["verify", "--what", "closure"], ["basis", "--source", "recursive"]])
    def test_recurrence_exactly_at_the_bound(self, argv, spec_file, monkeypatch, capsys):
        # A budget of exactly the fuel the command spends accepts it, one cell less refuses it.
        command = "basis" if argv[0] == "basis" else "verify --what closure"
        _assert_refused(_at_its_fuel([*argv, "--spec", spec_file], monkeypatch, capsys), command)

    def test_exactly_at_the_bound(self, spec_file, monkeypatch, capsys):
        # The same with the closed form.
        captured = _at_its_fuel(["verify", "--what", "equivalence", "--spec", spec_file], monkeypatch, capsys)
        _assert_refused(captured, "verify --what equivalence")


class TestIdentitySizeGuard:
    """verify --what identities is metered: the row or node of a scan that
    would pass the budget is refused, exit 2 with no output, within 1.5
    times it."""

    @pytest.mark.parametrize("flag", ["--m-max", "--vand-max", "--r-max", "--i-max"])
    def test_huge_bound_refused_at_once(self, flag, capsys, small_budget):
        # Only the nodes i < r_max are scanned: a huge --i-max is refused
        # with an --r-max that leaves it many nodes (--i-max 100000000
        # --r-max 300 runs 6.2 s unmetered).
        extra = ["--r-max", "300"] if flag == "--i-max" else []
        _refused_in_time(["verify", "--what", "identities", flag, "100000000", *extra], capsys, "verify --what identities")

    # Defaults (20, 12, 8, 8) and the bench's widest (40, 20, 12, 12).
    @pytest.mark.parametrize("bounds", [(20, 12, 8, 8), (40, 20, 12, 12)], ids=["defaults", "bench-widest"])
    def test_accepted_bounds(self, bounds, capsys):
        flags = [f"--{name}={v}" for name, v in zip(("m-max", "vand-max", "r-max", "i-max"), bounds)]
        assert main(["verify", "--what", "identities", *flags]) == 0
        assert dinv.fuel._spent <= dinv.cli._budget_cells() / 100
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_exactly_at_the_bound(self, monkeypatch, capsys):
        flags = ["--m-max", "2", "--vand-max", "1", "--r-max", "3", "--i-max", "2"]
        _assert_refused(_at_its_fuel(["verify", "--what", "identities", *flags], monkeypatch, capsys), "verify --what identities")

    def test_falling_factorial_term_covers_the_recorded_steps(self, monkeypatch, capsys):
        # Each node's charge covers the steps of its run of the recurrence.
        ways, charge = dinv.identities._ways, dinv.fuel.charge
        steps = charged = 0

        def recorded(top, slots):
            nonlocal steps
            steps += top + 1

            def passes():
                nonlocal steps
                for w, base in slots:
                    steps += 1 + max(0, top - w + 1)
                    yield w, base

            return ways(top, passes())

        def counted(cells, stage):
            nonlocal charged
            if stage == "the falling-factorial sums":
                charged += cells
            charge(cells, stage)

        monkeypatch.setattr(dinv.identities, "_ways", recorded)
        monkeypatch.setattr(dinv.fuel, "charge", counted)
        for r_max in range(1, 9):
            for i_max in range(2, 9):
                steps = charged = 0
                flags = ["--m-max", "0", "--vand-max", "0", "--r-max", str(r_max), "--i-max", str(i_max)]
                assert main(["verify", "--what", "identities", *flags]) == 0
                assert steps <= charged
                # Only the nodes 2 <= i < r_max are scanned.
                assert (steps > 0) == (r_max > 2)
        capsys.readouterr()


# b = (1, 100000): E_m keeps m!, so a build to b_n passes the default
# budget, but the commands that read orders m <= 2 only run in milliseconds.
DEEP = {"n": 2, "d": 1, "b": [1, 100000], "c": [["1", "1"]]}


class TestFuel:
    """The meter: cli.main arms the fuel for one command and disarms it in
    a finally, and a command's verdict does not depend on it but for
    refusing work past the budget, the same on every run."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["limit", "--m", "2", "--scheme", "a", "--spec", "{deep}", "--f", "{f}", "--z0", "1/3"],
            ["limit", "--m", "2", "--scheme", "b", "--spec", "{deep}", "--f", "{f}", "--z0", "1/3"],
            ["sweep", "--m", "2", "--scheme", "b", "--spec", "{deep}", "--f", "{f}", "--z0", "1/3"],
            ["study", "--spec", "{n200}", "--f", "{lin}", "--h0", "1/2", "--steps", "2", "--out-dir", "{tmp}/out"],
            ["verify", "--what", "identities", "--r-max", "120", "--i-max", "120"],
            # 1000-digit rationals: each step of the closed form and of the
            # recurrence is charged from its own operands, not at E_44's size.
            ["verify", "--what", "equivalence", "--spec", "{digits}"],
            # The closed form's factors v! / (w! * g!) reach 2000!, each made
            # from the one before it and never divided out of a factorial.
            ["verify", "--what", "equivalence", "--spec", "{b2000}"],
            # Dense u-series of 61 terms, charged from the cut products made.
            ["limit", "--m", "60", "--scheme", "a", "--spec", "{b60}", "--f", "{sparse}", "--z0", "3/2"],
        ],
        ids=["limit-a", "limit-b", "sweep", "study-n200", "identities-r120", "equivalence-digits", "equivalence-b2000",
             "limit-b60"],
    )
    def test_fast_inputs_accepted(self, argv, tmp_path, monkeypatch, capsys):
        # Each runs within the budget (a build to b_n = 100000 would not):
        # exit 0 with the stdout of a run with the budget lifted.
        a, b = "7" * 1000, "3" * 1000
        (tmp_path / "deep.json").write_text(json.dumps(DEEP))
        (tmp_path / "n200.json").write_text(json.dumps({"d": 2, "n": 200, "a": {"2,2": "1"}}))
        (tmp_path / "digits.json").write_text(json.dumps({"n": 2, "d": 2, "b": [1, 44], "c": [[a, a], ["-1/" + b, a]]}))
        (tmp_path / "b2000.json").write_text(json.dumps({"n": 3, "d": 1, "b": [1, 50, 2000], "c": [["1", "1", "1"]]}))
        (tmp_path / "b60.json").write_text(json.dumps({"n": 60, "d": 1, "b": list(range(1, 61)), "c": [["7/3"] * 60]}))
        (tmp_path / "f.txt").write_text("x1^3 + x1^2")
        (tmp_path / "lin.txt").write_text("x1 + x2")
        (tmp_path / "sparse.txt").write_text(" + ".join(f"x1^{k}" for k in range(1, 58, 7)))
        names = {"deep": tmp_path / "deep.json", "n200": tmp_path / "n200.json", "f": tmp_path / "f.txt",
                 "lin": tmp_path / "lin.txt", "tmp": tmp_path, "digits": tmp_path / "digits.json",
                 "b2000": tmp_path / "b2000.json", "b60": tmp_path / "b60.json", "sparse": tmp_path / "sparse.txt"}
        argv = [a.format(**names) for a in argv]
        assert main(argv) == 0
        out = capsys.readouterr().out
        monkeypatch.setattr(dinv.cli, "WORK_BUDGET_S", 1e9)
        assert main(argv) == 0
        assert capsys.readouterr().out == out

    def test_refusal_at_the_default_budget_in_time(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(DEEP))
        assert dinv.cli.WORK_BUDGET_S == 2.0
        _refused_in_time(["verify", "--what", "closure", "--spec", str(path)], capsys, "verify --what closure")

    def test_refusal_is_deterministic(self, tmp_path, capsys, small_budget):
        path = tmp_path / "b50000.json"
        path.write_text(json.dumps({"n": 2, "d": 1, "b": [1, 50000], "c": [["1", "1"]]}))
        errs = []
        for _ in range(2):
            assert main(["verify", "--what", "closure", "--spec", str(path)]) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert "out of fuel in the generating recurrence" in errs[0]

    def test_library_is_never_metered(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(DEEP))
        assert main(["verify", "--what", "closure", "--spec", str(path)]) == 2
        assert not dinv.fuel.metered
        assert main(["verify", "--what", "identities"]) == 0
        assert not dinv.fuel.metered
        capsys.readouterr()
        # Unmetered, a charge past any budget is free.
        dinv.fuel.charge(10**30, "a library call")


class TestPoints:
    def test_symbolic_pretty(self, spec_file, capsys):
        assert main(["points", "--scheme", "b", "--spec", spec_file, "--pretty"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "(0, 0)"
        assert lines[1] == "(h, 0)"
        assert lines[3] == "(3*h, 18*h^3 + 12*h^2)"

    def test_numeric_collapse_at_zero(self, spec_file, capsys):
        assert main(["points", "--scheme", "a", "--spec", spec_file, "--z0", "1,2", "--h", "0"]) == 0
        pts = json.loads(capsys.readouterr().out)
        assert pts == [["1", "2"]] * 5

    def test_symbolic_json_shape(self, spec_file, capsys):
        assert main(["points", "--scheme", "a", "--spec", spec_file]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scheme"] == "a" and len(data["points"]) == 5

    def test_bad_z0(self, spec_file, capsys):
        assert main(["points", "--scheme", "a", "--spec", spec_file, "--z0", "1"]) == 2

    @pytest.mark.parametrize("flags", [["--z0", "1/0,0"], ["--h", "1/0"]], ids=["z0", "h"])
    def test_zero_denominator_exits_2(self, flags, spec_file, capsys):
        assert main(["points", "--scheme", "a", "--spec", spec_file, *flags]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_oversized_point_refused_before_the_later_points(self, tmp_path, capsys):
        # Point 1 is h + h^600 with a 1000-digit h; the 599 points after it,
        # each larger, are never evaluated.
        spec = tmp_path / "b600.json"
        spec.write_text(json.dumps({"n": 2, "d": 1, "b": [1, 600], "c": [["1", "1"]]}))
        start = time.perf_counter()
        assert main(["points", "--scheme", "a", "--spec", str(spec), "--h", "7" * 1000]) == 2
        assert time.perf_counter() - start < 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: a result coefficient has 599935 digits, more than Python's limit of "
            f"{sys.get_int_max_str_digits()} for writing an integer as text (sys.get_int_max_str_digits())\n"
        )
        assert captured.out == ""


class TestSignedValues:
    """--z0, --h and --h0 take a value that starts with a minus sign, with
    or without "=", and still refuse an option name in its place."""

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("points", "--z0", "-2/3,5/7"),
            ("points", "--z0", "-2,5"),
            ("points", "--h", "-7/5"),
            ("limit", "--z0", "-2/3,5/7"),
            ("limit", "--z0", "-2,5"),
            ("sweep", "--z0", "-2,5"),
            ("study", "--z0", "-2/3,5/7"),
        ],
    )
    def test_negative_value_either_form(self, command, flag, value, spec_file, tmp_path, capsys):
        f = tmp_path / "f.txt"
        f.write_text("x1^3 + x1*x2 - x2^2 + 1")
        argv = {
            "points": ["points", "--scheme", "b", "--spec", spec_file],
            "limit": ["limit", "--m", "3", "--scheme", "a", "--spec", spec_file, "--f", str(f)],
            "sweep": ["sweep", "--m", "2", "--scheme", "a", "--steps", "3", "--spec", spec_file, "--f", str(f)],
            "study": ["study", "--steps", "3", "--out-dir", str(tmp_path / "out")],
        }[command]
        outputs = []
        for pair in ([flag, value], [f"{flag}={value}"]):
            assert main([*argv, *pair]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]

    def test_the_values_are_read(self, spec_file, capsys):
        assert main(["points", "--scheme", "a", "--spec", spec_file, "--z0", "-2/3,5/7", "--h", "0"]) == 0
        assert json.loads(capsys.readouterr().out) == [["-2/3", "5/7"]] * 5
        assert main(["points", "--scheme", "b", "--spec", spec_file, "--z0", "-2,5", "--h", "-7/5", "--pretty"]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == ["(-2, 5)", "(-17/5, 5)"]

    @pytest.mark.parametrize("command", ["sweep", "study"])
    def test_negative_h0_is_refused_by_the_sweep(self, command, spec_file, tmp_path, capsys):
        f = tmp_path / "f.txt"
        f.write_text("x1^2")
        argv = {
            "sweep": ["sweep", "--m", "1", "--scheme", "a", "--spec", spec_file, "--f", str(f)],
            "study": ["study", "--out-dir", str(tmp_path / "out")],
        }[command]
        errors = []
        for pair in (["--h0", "-1/4"], ["--h0=-1/4"]):
            assert main([*argv, *pair]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == "error: h0 must be positive, got -0.25\n"

    @pytest.mark.parametrize("follower", ["--h", "--out", "-h"])
    def test_an_option_name_is_still_refused(self, follower, spec_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["points", "--scheme", "a", "--spec", spec_file, "--z0", follower, "1"])
        assert exc.value.code == 2
        assert "argument --z0: expected one argument" in capsys.readouterr().err


class TestParsing:
    """main reads a command's arguments with that command's own parser, and
    falls back to the full parser when argv[0] names no command or an
    argument is left unread: every list exits, prints and runs as it does
    through _parsers()[0].parse_args."""

    COMMANDS = ("basis", "verify", "points", "limit", "sweep", "study", "scan", "example1")

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["-h"],
            ["--help", "basis"],
            ["bogus"],
            ["verif", "--what", "breadth"],
            *([command, "-h"] for command in COMMANDS),
            ["basis", "--source", "general"],
            ["verify"],
            ["verify", "--what", "everything", "--spec", "{spec}"],
            ["basis", "--source", "symbolic", "--spec", "{spec}"],
            ["limit", "--m", "two", "--scheme", "a", "--spec", "{spec}", "--f", "{f}"],
            ["scan", "--count", "1.5"],
            ["verify", "--what", "breadth", "--spec", "{spec}", "--bogus"],
            ["verify", "--what", "breadth", "--spec", "{spec}", "stray"],
            ["verify", "--what", "breadth", "--spec", "{spec}", "--bogus=1", "stray"],
            ["limit", "--s", "{spec}"],
            ["points", "--scheme", "a", "--spec", "{spec}", "--z0", "-h", "1"],
            ["limit", "--m", "3", "--scheme", "a", "--spec", "{spec}", "--f", "{f}", "--z0", "-2/3,5/7"],
            ["verify", "--wh", "breadth", "--spec", "{spec}"],
            ["basis", "--source", "general", "--spec", "{spec}"],
            ["verify", "--what", "closure", "--spec", "{spec}", "--out", "{out}"],
        ],
        ids=lambda argv: " ".join(argv) or "no-command",
    )
    def test_same_as_the_full_parser(self, argv, spec_file, tmp_path, monkeypatch, capsys):
        f = tmp_path / "f.txt"
        f.write_text("x1^3 + x1*x2 - x2^2 + 1")
        out = tmp_path / "report.json"
        argv = [a.format(spec=spec_file, f=f, out=out) for a in argv]

        def run():
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err, out.read_text() if out.exists() else None

        ours = run()
        out.unlink(missing_ok=True)
        monkeypatch.setattr(dinv.cli, "_parse_args", lambda argv: dinv.cli._parsers()[0].parse_args(argv))
        assert run() == ours

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--what", "breadth", "--spec", "s.json"],
            ["verify", "--wh", "closure", "--spec", "s.json", "--basis", "b.json"],
            ["limit", "--m", "3", "--scheme", "a", "--spec", "s.json", "--f", "f.txt", "--z0=-2/3,5/7"],
            ["scan"],
        ],
    )
    def test_a_command_is_read_by_its_own_parser(self, argv, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("parsed by the full parser")

        expect = dinv.cli._parsers()[0].parse_args(argv)
        monkeypatch.setattr(dinv.cli._parsers()[0], "parse_args", forbidden)
        assert dinv.cli._parse_args(argv) == expect


class TestLimitAndSweep:
    def test_limit_pass(self, spec_file, tmp_path, capsys):
        f = tmp_path / "f.txt"
        f.write_text("x1^5*x2^2")
        code = main(["limit", "--spec", spec_file, "--f", str(f), "--m", "4", "--scheme", "a"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True

    def test_limit_json_polynomial_input(self, spec_file, tmp_path, capsys):
        f = tmp_path / "f.json"
        f.write_text(json.dumps({"dim": 2, "terms": [{"exp": [2, 0], "coef": "1"}]}))
        code = main(["limit", "--spec", spec_file, "--f", str(f), "--m", "2", "--scheme", "b"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["lead"] == "1"

    def test_limit_nonzero_base(self, spec_file, tmp_path, capsys):
        f = tmp_path / "f.txt"
        f.write_text("x1^3 + x2^2")
        code = main([
            "limit", "--spec", spec_file, "--f", str(f),
            "--m", "3", "--scheme", "b", "--z0", "1/2,-2",
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_limit_float_coefficient_reads_as_its_decimal(self, spec_file, tmp_path, capsys):
        leads = []
        for coef in (0.1, "1/10"):
            f = tmp_path / "f.json"
            f.write_text(json.dumps({"dim": 2, "terms": [{"exp": [2, 0], "coef": coef}]}))
            assert main(["limit", "--spec", spec_file, "--f", str(f), "--m", "2", "--scheme", "b"]) == 0
            leads.append(json.loads(capsys.readouterr().out)["lead"])
        assert leads == ["1/10", "1/10"]

    def test_limit_m_out_of_range(self, spec_file, tmp_path, capsys):
        f = tmp_path / "f.txt"
        f.write_text("x1")
        assert main(["limit", "--spec", spec_file, "--f", str(f), "--m", "9", "--scheme", "a"]) == 2

    @pytest.mark.parametrize(
        "content", [b'{"dim": ' + b"[" * 100000, b"\xffx1"], ids=["nested-too-deep", "not-utf8"]
    )
    def test_limit_unreadable_f_exits_2(self, content, spec_file, tmp_path, capsys):
        f = tmp_path / "f.txt"
        f.write_bytes(content)
        assert main(["limit", "--spec", spec_file, "--f", str(f), "--m", "1", "--scheme", "a"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_limit_f_in_more_variables_than_the_spec_exits_2(self, spec_file, tmp_path, capsys):
        f = tmp_path / "f.json"
        f.write_text(json.dumps(P("x1*x3 + x2", 3).to_dict()))
        assert main(["limit", "--spec", spec_file, "--f", str(f), "--m", "1", "--scheme", "a"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {f}: polynomial has dimension 3, spec has 2\n" and captured.out == ""

    def test_limit_zero_denominator_in_f_exits_2(self, spec_file, tmp_path, capsys):
        f = tmp_path / "f.txt"
        f.write_text("1/0*x1")
        assert main(["limit", "--spec", spec_file, "--f", str(f), "--m", "1", "--scheme", "a"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "flags, named",
        [(["--steps", "1200"], "--steps"), (["--h0", "1e200"], "--h0"), (["--h0", "1/0"], "--h0")],
        ids=["underflow", "overflow", "zero-denominator"],
    )
    def test_sweep_float_range_exits_2(self, flags, named, spec_file, tmp_path, capsys):
        f = tmp_path / "f.txt"
        f.write_text("x1^3")
        assert main(["sweep", "--spec", spec_file, "--f", str(f), "--m", "2", "--scheme", "a", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err

    @pytest.mark.parametrize("command", ["sweep", "limit"])
    def test_order_beyond_points_exits_2(self, command, tmp_path, capsys):
        spec = tmp_path / "p.json"
        spec.write_text(json.dumps({"d": 2, "n": 2, "a": {"2,2": "1"}}))
        f = tmp_path / "f.txt"
        f.write_text("x1^3")
        assert main([command, "--spec", str(spec), "--f", str(f), "--m", "3", "--scheme", "a"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: order 3 exceeds available points 0..2\n"
        assert "Traceback" not in captured.err and captured.out == ""

    def test_sweep_csv(self, tmp_path, capsys):
        spec = tmp_path / "p.json"
        spec.write_text(json.dumps({"d": 2, "n": 2, "a": {"2,2": "1"}}))
        f = tmp_path / "f.txt"
        f.write_text("x1^3")
        code = main([
            "sweep", "--spec", str(spec), "--f", str(f),
            "--m", "2", "--scheme", "a", "--steps", "4",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "h,approx,exact,abs_err,est_order"
        assert len(lines) == 5
        assert lines[2].split(",")[-1] == "1.0"

    def test_sweep_to_file(self, tmp_path, capsys):
        spec = tmp_path / "p.json"
        spec.write_text(json.dumps({"d": 2, "n": 2, "a": {"2,2": "1"}}))
        f = tmp_path / "f.txt"
        f.write_text("x1^2")
        out = tmp_path / "rows.csv"
        code = main([
            "sweep", "--spec", str(spec), "--f", str(f),
            "--m", "2", "--scheme", "b", "--steps", "3", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().startswith("h,approx,exact,abs_err,est_order")


    @pytest.mark.parametrize("command", ["sweep", "study"])
    def test_steps_past_h_zero_exit_2_at_once(self, command, spec_file, tmp_path, capsys):
        # With m = 0 no h**m underflows, so only the count of halvings can stop it.
        f = tmp_path / "f.txt"
        f.write_text("x1^3")
        out = tmp_path / "out"
        argv = [command, "--spec", spec_file, "--f", str(f), "--steps", "3000000"]
        argv += ["--m", "0", "--scheme", "a", "--out", str(out)] if command == "sweep" else ["--out-dir", str(out)]
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: --steps 3000000 halvings of --h0 0.25 take h to 0.0; at most 1073 steps are accepted\n"
        )
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "study"])
    def test_h0_too_small_for_any_steps_names_h0(self, command, spec_file, tmp_path, capsys):
        # h**2 of 1e-300 is 0.0 before the first halving: fewer than 2 steps
        # would survive, and fewer are always refused, so --h0 is named.
        f = tmp_path / "f.txt"
        f.write_text("x1^3")
        out = tmp_path / "out"
        argv = [command, "--spec", spec_file, "--f", str(f), "--h0", "1e-300", "--steps", "3"]
        argv += ["--m", "2", "--scheme", "a", "--out", str(out)] if command == "sweep" else ["--out-dir", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: --steps 3 halvings of --h0 1e-300 take h**2 to 0.0; "
            "no --steps works from that --h0 at order 2, so --h0 must be larger\n"
        )
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("scheme", ["a", "b"])
    def test_sweep_target_too_large_for_a_float_exits_2(self, scheme, tmp_path, capsys):
        # B_10 holds a_22^5 / 5! x2^5, so (B_10(D) x2^5)(0) = 10^4995.
        spec = tmp_path / "p.json"
        spec.write_text(json.dumps({"d": 2, "n": 10, "a": {"2,2": "1e999"}}))
        f = tmp_path / "f.txt"
        f.write_text("x2^5")
        assert main(["sweep", "--spec", str(spec), "--f", str(f), "--m", "10", "--scheme", scheme]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: the exact target (B_10(D)f)(z0) has 4996 digits before the point; no float can hold it\n"
        )
        assert captured.out == ""

    def test_sweep_f_coefficient_too_large_for_a_float_exits_2(self, spec_file, tmp_path, capsys):
        f = tmp_path / "f.txt"
        f.write_text(f"{10 ** 400}*x1^3")
        assert main(["sweep", "--spec", spec_file, "--f", str(f), "--m", "4", "--scheme", "a"]) == 2
        err = capsys.readouterr().err
        assert err == "error: a coefficient of f has 401 digits before the point; no float can hold it\n"


def _abs_eval(p: Polynomial, point) -> Fraction:
    """p with each coefficient made positive, at a point of non-negative values."""
    total = Fraction(0)
    for e, c in p.terms.items():
        term = abs(c)
        for v, k in zip(point, e):
            term *= v**k
        total += term
    return total


class TestApproxColumn:
    """The approx column of sweep and study at each h against the stencil
    combination evaluated in Fractions at that h (a dyadic rational, as
    every float is): a second witness of the float path.  The float sum
    may lose a few ulps of each value it adds, so the tolerance is 1e-12 of
    the sum of the values' sizes, coefficients made positive, over h^m."""

    Z0 = (Fraction(-1, 2), Fraction(3))
    F = "x1^5*x2 + x2^3 - 2*x1^2 + 3"

    def _assert_rows_match(self, csv_text: str, scheme: str, m: int) -> None:
        spec = dinv.GeneralSpec.from_dict(GAPPED_SPEC)
        f, pts = P(self.F), dinv.discretize.SCHEMES[scheme](spec, self.Z0)
        lines = csv_text.splitlines()
        assert lines[0] == "h,approx,exact,abs_err,est_order" and len(lines) == 13
        for line in lines[1:]:
            h_text, approx = line.split(",")[:2]
            h = Fraction(float(h_text))
            exact = size = Fraction(0)
            for r, w in enumerate(dinv.discretize.stencil(m)):
                coords = pts.point(r)
                exact += w * f.eval([c.eval([h]) for c in coords])
                size += abs(w) * _abs_eval(f, [_abs_eval(c, [h]) for c in coords])
            assert abs(Fraction(float(approx)) - exact / h**m) <= size / h**m / 10**12, (scheme, m, line)

    @pytest.mark.parametrize("scheme", "ab")
    def test_sweep(self, scheme, tmp_path, capsys):
        (tmp_path / "s.json").write_text(json.dumps(GAPPED_SPEC))
        (tmp_path / "f.txt").write_text(self.F)
        for m in range(5):
            argv = ["sweep", "--spec", str(tmp_path / "s.json"), "--f", str(tmp_path / "f.txt"), "--m", str(m)]
            assert main([*argv, "--scheme", scheme, "--z0=-1/2,3"]) == 0
            self._assert_rows_match(capsys.readouterr().out, scheme, m)

    def test_study(self, tmp_path, capsys):
        (tmp_path / "s.json").write_text(json.dumps(GAPPED_SPEC))
        (tmp_path / "f.txt").write_text(self.F)
        out = tmp_path / "out"
        argv = ["study", "--spec", str(tmp_path / "s.json"), "--f", str(tmp_path / "f.txt"), "--z0=-1/2,3"]
        assert main([*argv, "--out-dir", str(out)]) == 0
        capsys.readouterr()
        for scheme in "ab":
            for m in range(5):
                self._assert_rows_match((out / f"scheme_{scheme}_m{m}.csv").read_text(), scheme, m)


class TestPowerDigitGuard:
    """limit, sweep and study raise z0 to the exponents of f's terms under
    fuel alone: a huge degree at a point whose powers grow is refused for
    fuel at once, in the limit series' lift of f's terms or its cut
    products (sweep's and study's in their target's arc), and a huge
    degree at z0 in {0, 1, -1} runs at once."""

    ARGV = {
        "limit": ["limit", "--m", "2", "--scheme", "a"],
        "sweep": ["sweep", "--m", "2", "--scheme", "b"],
        "study": ["study", "--steps", "3"],
    }

    @pytest.mark.parametrize(
        "command, z0",
        [pytest.param(c, z, id=c if z == "3/2,1" else f"{c}-{z}") for c in sorted(ARGV) for z in ("3/2,1", "3,1", "7,-1")],
    )
    def test_refused_at_once(self, command, z0, spec_file, tmp_path, capsys, monkeypatch, small_budget):
        # limit's first step at 3/2 lifts x2 and the scale by 2^99999999; at an
        # integer z0 the lift is free and its cut products refuse.  sweep and
        # study are refused in their target's arc, the same series at one point.
        f = tmp_path / "f.txt"
        f.write_text("x1^99999999 + x2")
        stages, charge = [], dinv.fuel.charge
        monkeypatch.setattr(dinv.fuel, "charge", lambda cells, stage: (stages.append(stage), charge(cells, stage)))
        start = time.perf_counter()
        argv = [*self.ARGV[command], "--spec", spec_file, "--f", str(f), "--z0", z0]
        assert main([*argv, "--out-dir", str(tmp_path / "out")] if command == "study" else argv) == 2
        assert time.perf_counter() - start < 1
        _assert_refused(capsys.readouterr(), command, "out of fuel in the limit series")
        if command == "limit" and z0 == "3/2,1":  # the lift, before any power: only the inputs' reading is charged first
            assert all(stage.startswith("reading ") for stage in stages[:-1]) and stages[-1] == "the limit series", stages
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("z0", ["0,0", "1,1", "-1,1", "1,-1"])
    def test_huge_degree_at_unit_points_passes(self, z0, spec_file, tmp_path, capsys):
        f = tmp_path / "f.txt"
        f.write_text("x1^99999999")
        start = time.perf_counter()
        assert main(["limit", "--m", "4", "--scheme", "b", "--spec", spec_file, "--f", str(f), f"--z0={z0}"]) == 0
        assert time.perf_counter() - start < 2
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_exactly_at_the_bound(self, spec_file, tmp_path, monkeypatch, capsys):
        # z0_2 = 1/100 lifts x1^3*x2 and the scale by powers of 100.
        f = tmp_path / "f.txt"
        f.write_text("x1^3*x2 + x2^40")
        argv = ["limit", "--m", "4", "--scheme", "a", "--spec", spec_file, "--f", str(f), "--z0", "1000,1/100"]
        _assert_refused(_at_its_fuel(argv, monkeypatch, capsys), "limit")


# CI's accepted spec with a gap up to weight 5300.
B5300 = {"n": 2, "d": 1, "b": [1, 5300], "c": [["1", "1"]]}


class TestSeriesSizeGuard:
    """limit is metered: the step of the series that would pass the budget
    is refused, exit 2 with no output, within 1.5 times it.  Each cut
    product is charged from its factors (discretize._mul_cut), each term's
    accumulation from its product's length, and each point's value from
    its length."""

    @pytest.mark.parametrize("scheme", "ab")
    def test_order_5300_of_b5300_refused_at_once(self, scheme, tmp_path, capsys, small_budget):
        spec = tmp_path / "b5300.json"
        spec.write_text(json.dumps(B5300))
        f = tmp_path / "f.txt"
        f.write_text("x1^3 + x1^2")
        argv = ["limit", "--m", "5300", "--scheme", scheme, "--spec", str(spec), "--f", str(f), "--z0", "1/3"]
        _refused_in_time(argv, capsys, "limit", "out of fuel in the limit series")

    @pytest.mark.parametrize("m, accepted", [(66, True), (200, True), (3000, True), (5000, False)])
    def test_b5300_orders_follow_the_series_length(self, m, accepted):
        # f = x1^3 + x1^2 reaches u^3 only: a few short cut products per
        # point, and the point's value of m + 1 entries, whose charge
        # refuses --m 5000 under the default budget.
        spec, f, z0 = dinv.GeneralSpec.from_dict(B5300), P("x1^3 + x1^2", 1), (Fraction(1, 3),)
        dinv.fuel.arm(dinv.cli._budget_cells())
        try:
            report = dinv.discretize.expansion_check(f, z0, m, dinv.discretize.SCHEMES["b"](spec, z0))
            assert accepted and report.passed
        except dinv.fuel.OutOfFuel as exc:
            assert not accepted and "out of fuel in the limit series" in str(exc)
        finally:
            dinv.fuel.disarm()

    def test_ci_limit_calls_accepted(self, tmp_path, capsys):
        runs = [
            (GAPPED_SPEC, "x1^5*x2 + x2^3 - 2*x1^2 + 3", "4", scheme, []) for scheme in "ab"
        ] + [
            (GENERAL_N1, "x1^3 + x1*x2 - x2^2 + 1", m, scheme, ["--z0", "1/2,3"]) for m in "01" for scheme in "ab"
        ] + [({"d": 2, "n": 3, "a": {"2,2": "1", "3,2": "2"}}, "x1^99999999", "2", "a", [])]
        for k, (spec, text, m, scheme, z0) in enumerate(runs):
            (tmp_path / f"s{k}.json").write_text(json.dumps(spec))
            (tmp_path / f"f{k}.txt").write_text(text)
            argv = ["limit", "--spec", str(tmp_path / f"s{k}.json"), "--f", str(tmp_path / f"f{k}.txt"), "--m", m]
            assert main([*argv, "--scheme", scheme, *z0]) == 0, (spec, m, scheme)
            assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_acceptance_draws_predict_far_below_the_bound(self):
        # The limit checks of acceptance criterion 6: tables with d in 2..3
        # and n in 1..6, f of degree up to n + 2, at the origin and at a
        # rational point, every order and both schemes, each within a
        # hundredth of the budget.
        rng = make_rng(701)
        try:
            for _ in range(60):
                t = random_param_table(rng, d=rng.choice((2, 3)), n=rng.randint(1, 6))
                f = random_poly(rng, t.d, t.n + 2, max_terms=4)
                for z0 in ((Fraction(0),) * t.d, tuple(rational(rng) for _ in range(t.d))):
                    for m in range(t.n + 1):
                        for scheme in "ab":
                            dinv.fuel.arm(dinv.cli._budget_cells() // 100)
                            dinv.discretize.expansion_check(f, z0, m, dinv.discretize.SCHEMES[scheme](t, z0))
        finally:
            dinv.fuel.disarm()

    def test_exactly_at_the_bound(self, spec_file, tmp_path, monkeypatch, capsys):
        f = tmp_path / "f.txt"
        f.write_text("x1^3*x2 + x2^2")
        argv = ["limit", "--m", "4", "--scheme", "b", "--spec", spec_file, "--f", str(f), "--z0", "3/2,-1"]
        _assert_refused(_at_its_fuel(argv, monkeypatch, capsys), "limit")


class TestPointsMadeOnRead:
    """On b = (1, 5300), a command makes only the points it reads: scheme a's
    point r holds r^5300, so making all 5301 took seconds."""

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (["limit", "--m", "2", "--scheme", "a", "--f", "{f}"], 0, "limit check m=2 scheme a: pass\n"),
            (
                ["points", "--scheme", "a"],
                2,
                f"error: a result coefficient has 4480 digits, more than Python's limit of "
                f"{sys.get_int_max_str_digits()} for writing an integer as text (sys.get_int_max_str_digits())\n",
            ),
            (
                ["sweep", "--m", "1000", "--scheme", "a", "--steps", "2", "--h0", "3/2", "--f", "{f}"],
                2,
                "error: a coefficient of point 2 has 1596 digits before the point; no float can hold it\n",
            ),
        ],
        ids=["limit", "points", "sweep"],
    )
    def test_b5300_at_once(self, argv, code, err, tmp_path, capsys):
        spec, f = tmp_path / "b5300.json", tmp_path / "f.txt"
        spec.write_text(json.dumps(B5300))
        f.write_text("x1^3 + x1^2")
        start = time.perf_counter()
        assert main([*(a.format(f=f) for a in argv), "--spec", str(spec), "--z0", "1/3"]) == code
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.err == err
        assert (captured.out == "") == (code == 2)


class TestPointSizeGuard:
    """points is metered: making each point, and evaluating it at --h, is
    charged before it is done, so a point set past the budget is refused
    within 1.5 times it.  A coordinate cheap to compute but too long to
    write exits 2 with rational_text's message, naming its digits."""

    def test_b5300_refused_at_once(self, tmp_path, capsys):
        # Point 1 of scheme a is h + h^5300 with a 1000-digit h: 5.3 million
        # digits, refused before apply_at takes the power.
        spec = tmp_path / "b5300.json"
        spec.write_text(json.dumps(B5300))
        start = time.perf_counter()
        assert main(["points", "--scheme", "a", "--spec", str(spec), "--h", "7" * 1000]) == 2
        assert time.perf_counter() - start < 2
        _assert_refused(capsys.readouterr(), "points", "out of fuel in apply_at")

    @pytest.mark.parametrize("h", [[], ["--h", "1/2"]], ids=["symbolic", "at-h"])
    def test_many_points_refused_in_time(self, h, tmp_path, capsys, small_budget):
        # 50001 points of one or two terms each: their making, not their
        # rule's integers, passes the budget.
        spec = tmp_path / "b50000.json"
        spec.write_text(json.dumps({"n": 2, "d": 1, "b": [1, 50000], "c": [["1", "1"]]}))
        _refused_in_time(["points", "--scheme", "b", "--spec", str(spec), *h], capsys, "points")

    def test_cheap_coordinate_past_the_limit_names_its_digits(self, tmp_path, capsys):
        # Point 1 of scheme a is z0 + h + h^2: at a 400-digit h its numerator
        # has 801 digits, past Python's least digit limit, 640.
        spec = tmp_path / "b2.json"
        spec.write_text(json.dumps({"n": 2, "d": 1, "b": [1, 2], "c": [["1", "1"]]}))
        h = Fraction("7" * 400)
        digits = len(str((Fraction(1, 3) + h + h * h).numerator))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert main(["points", "--scheme", "a", "--spec", str(spec), "--z0", "1/3", "--h", str(h)]) == 2
        finally:
            sys.set_int_max_str_digits(limit)
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"error: a result coefficient has {digits} digits, more than Python's limit of "
            f"640 for writing an integer as text (sys.get_int_max_str_digits())\n"
        )


# Rationals from the unit values up to MAX_RATIONAL_DIGITS digits, which
# take powers of z0 and h past every size guard and text limit.
_EXTREME_RATIONALS = st.one_of(
    st.sampled_from(["0", "1", "-1", "1/2", "-3/2"]),
    st.integers(1, MAX_RATIONAL_DIGITS).map(lambda k: "7" * k),
    st.integers(1, MAX_RATIONAL_DIGITS).map(lambda k: "-1/" + "3" * k),
)


@settings(max_examples=40, deadline=2000, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(["limit", "points", "sweep"]),
    general=st.booleans(),
    exps=st.tuples(*[st.one_of(st.integers(0, 12), st.integers(0, 40000), st.integers(0, 10**9))] * 2),
    z0=st.tuples(_EXTREME_RATIONALS, _EXTREME_RATIONALS),
    h=st.one_of(st.none(), _EXTREME_RATIONALS),
    m=st.one_of(st.integers(-1, 5), st.integers(0, 10**9)),
    scheme=st.sampled_from("ab"),
)
def test_extreme_valid_inputs_exit_0_1_or_2(tmp_path, small_budget, command, general, exps, z0, h, m, scheme):
    """Valid input of extreme size, under a small budget: an exit code in
    {0, 1, 2}, never an exception, within the deadline."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(TestEitherSpec.GENERAL if general else EXAMPLE_SPEC))
    f = tmp_path / "f.txt"
    f.write_text(f"x1^{exps[0]}*x2^{exps[1]} - 2*x2 + 1")
    argv = [command, "--spec", str(spec), "--scheme", scheme, f"--z0={z0[0]},{z0[1]}"]
    if command == "points":
        argv += [] if h is None else [f"--h={h}"]
    else:
        argv += ["--f", str(f), f"--m={m}"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(argv) in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


_SMALL_RATIONALS = st.sampled_from(["0", "1", "-1", "1/2", "-3/2", "2/3", "5"])


def _assert_parseable(text: str) -> None:
    """text is JSON, or rows of floats under the sweep's CSV header (est_order may be blank)."""
    if not text.startswith("h,"):
        json.loads(text)
        return
    header, *rows = text.splitlines()
    assert header == "h,approx,exact,abs_err,est_order" and rows
    for row in rows:
        fields = row.split(",")
        assert len(fields) == 5
        for v in fields[:4] + [fields[4] or "0"]:
            float(v)


@settings(max_examples=40, deadline=2000, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(["limit", "points", "sweep"]),
    general=st.booleans(),
    exps=st.tuples(st.integers(0, 6), st.integers(0, 6)),
    z0=st.tuples(_SMALL_RATIONALS, _SMALL_RATIONALS),
    h=st.one_of(st.none(), _SMALL_RATIONALS),
    m=st.integers(0, 4),
    scheme=st.sampled_from("ab"),
)
def test_small_valid_inputs_exit_0_or_1(tmp_path, small_budget, command, general, exps, z0, h, m, scheme):
    """The companion of test_extreme_valid_inputs_exit_0_1_or_2, drawn
    inside the small budget: exit 0 or 1 and a parseable stdout."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(TestEitherSpec.GENERAL if general else EXAMPLE_SPEC))
    f = tmp_path / "f.txt"
    f.write_text(f"x1^{exps[0]}*x2^{exps[1]} - 2*x2 + 1")
    argv = [command, "--spec", str(spec), "--scheme", scheme, f"--z0={z0[0]},{z0[1]}"]
    if command == "points":
        argv += [] if h is None else [f"--h={h}"]
    else:
        argv += ["--f", str(f), f"--m={m}"]
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(argv) in (0, 1), err.getvalue()
    _assert_parseable(out.getvalue())


@st.composite
def _extreme_specs(draw) -> dict:
    """A valid spec of extreme shape: a table, n = 1, gaps in b (up to
    b_n = 30, or from 5500 on, where d = 1, b = (1, b_n), c = (1, 1) nears
    the default budget), with rationals of up to MAX_RATIONAL_DIGITS
    digits."""
    d = draw(st.integers(1, 3))
    if d > 1 and draw(st.booleans()):
        n = draw(st.integers(1, 6))
        keys = st.tuples(st.integers(2, n), st.integers(2, d)).map(lambda ij: f"{ij[0]},{ij[1]}")
        return {"d": d, "n": n, "a": draw(st.dictionaries(keys, _EXTREME_RATIONALS, max_size=6)) if n > 1 else {}}
    b = [1] + draw(st.one_of(
        st.just([]),
        st.lists(st.integers(2, 12), min_size=1, max_size=2, unique=True).map(sorted),
        st.integers(13, 30).map(lambda v: [v]),
        st.integers(5500, 10**9).map(lambda v: [v]),
    ))
    c = [[draw(_EXTREME_RATIONALS) for _ in b] for _ in range(d)]
    if all(parse_rational(row[0]) == 0 for row in c):
        c[0][0] = "1"
    return {"n": len(b), "d": d, "b": b, "c": c}


@pytest.mark.parametrize("command", ["basis", "closure", "breadth", "equivalence"])
@settings(max_examples=40, deadline=2000, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=_extreme_specs(), source=st.sampled_from(SOURCES), pretty=st.booleans())
def test_extreme_specs_exit_0_1_or_2(tmp_path, small_budget, command, spec, source, pretty):
    """basis from every source, with and without --pretty, and verify
    --what closure|breadth|equivalence on valid specs of extreme size,
    under a small budget: an exit code in {0, 1, 2}, never an exception,
    within the deadline."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    if command == "basis":
        argv = ["basis", "--source", source, "--spec", str(path), *(["--pretty"] if pretty else [])]
    else:
        argv = ["verify", "--what", command, "--spec", str(path)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(argv) in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@st.composite
def _small_specs(draw) -> dict:
    """A valid spec inside the small budget: a table of n <= 6, or a general
    spec with b_n <= 12, each with short rationals."""
    d = draw(st.integers(1, 3))
    if d > 1 and draw(st.booleans()):
        n = draw(st.integers(1, 6))
        keys = st.tuples(st.integers(2, n), st.integers(2, d)).map(lambda ij: f"{ij[0]},{ij[1]}")
        return {"d": d, "n": n, "a": draw(st.dictionaries(keys, _SMALL_RATIONALS, max_size=6)) if n > 1 else {}}
    b = [1] + draw(st.lists(st.integers(2, 12), max_size=2, unique=True).map(sorted))
    c = [[draw(_SMALL_RATIONALS) for _ in b] for _ in range(d)]
    if all(parse_rational(row[0]) == 0 for row in c):
        c[0][0] = "1"
    return {"n": len(b), "d": d, "b": b, "c": c}


@pytest.mark.parametrize("command", ["basis", "closure", "breadth", "equivalence"])
@settings(max_examples=40, deadline=2000, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=_small_specs(), source=st.sampled_from(SOURCES), pretty=st.booleans())
def test_small_specs_exit_0_or_1(tmp_path, small_budget, command, spec, source, pretty):
    """The companion of test_extreme_specs_exit_0_1_or_2, drawn inside the
    small budget: exit 0 or 1 and a parseable stdout, JSON or, with
    --pretty, one polynomial per line.  The recursion reads only tables."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    if "a" not in spec and source == "recursive":
        source = "general"
    if command == "basis":
        argv = ["basis", "--source", source, "--spec", str(path), *(["--pretty"] if pretty else [])]
    else:
        argv = ["verify", "--what", command, "--spec", str(path)]
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(argv) in (0, 1), err.getvalue()
    if command == "basis" and pretty:
        lines = out.getvalue().splitlines()
        assert [Polynomial.parse(line, spec["d"]).degree for line in lines] == list(range(len(lines)))
    else:
        _assert_parseable(out.getvalue())


def _small_or_huge(low: int, small: int) -> st.SearchStrategy:
    return st.one_of(st.integers(low, small), st.integers(low, 10**9))


@settings(max_examples=40, deadline=2000, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bounds=st.tuples(*(_small_or_huge(low, 60) for low in (-1, -1, 0, 1))))
def test_extreme_identity_bounds_exit_0_1_or_2(small_budget, bounds):
    """verify --what identities with scan bounds from the empty ones up to
    10^9, under a small budget: an exit code in {0, 1, 2}, never an
    exception, within the deadline."""
    flags = [f"--{name}={v}" for name, v in zip(("m-max", "vand-max", "r-max", "i-max"), bounds)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(["verify", "--what", "identities", *flags]) in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@settings(max_examples=40, deadline=2000, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(count=_small_or_huge(0, 30), d_max=_small_or_huge(1, 6), n_max=_small_or_huge(1, 8), seed=st.integers(0, 10**9))
def test_extreme_scans_exit_0_1_or_2(small_budget, count, d_max, n_max, seed):
    """scan with --count, --d-max and --n-max from the empty ones up to
    10^9, under a small budget: an exit code in {0, 1, 2}, never an
    exception, within the deadline."""
    argv = ["scan", f"--count={count}", f"--d-max={d_max}", f"--n-max={n_max}", f"--seed={seed}"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(argv) in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@settings(max_examples=40, deadline=2000, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(count=st.integers(1, 5), d_max=st.integers(2, 3), n_max=st.integers(2, 5), seed=st.integers(0, 10**9))
def test_small_scans_exit_0_or_1(small_budget, count, d_max, n_max, seed):
    """The companion of test_extreme_scans_exit_0_1_or_2, drawn inside the
    small budget: exit 0 or 1 and a JSON report of every table."""
    argv = ["scan", f"--count={count}", f"--d-max={d_max}", f"--n-max={n_max}", f"--seed={seed}"]
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(argv) in (0, 1), err.getvalue()
    assert json.loads(out.getvalue())["count"] == count


@settings(max_examples=40, deadline=2000, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    spec=st.one_of(st.none(), _extreme_specs()),
    exps=st.tuples(*[st.one_of(st.integers(0, 12), st.integers(0, 10**9))] * 2),
    z0=st.tuples(*[_EXTREME_RATIONALS] * 3),
    h0=st.one_of(st.sampled_from(["1/4", "1", "3/2"]), _EXTREME_RATIONALS),
    steps=_small_or_huge(-1, 20),
)
def test_extreme_studies_exit_0_1_or_2(tmp_path, small_budget, spec, exps, z0, h0, steps):
    """study on the demo table or a valid spec of extreme size, with extreme
    --z0, --h0 and --steps, writing to tmp_path, under a small budget: an
    exit code in {0, 1, 2}, never an exception, within the deadline."""
    argv = ["study", f"--h0={h0}", f"--steps={steps}", "--out-dir", str(tmp_path / "out")]
    d = 2
    if spec is not None:
        d = spec["d"]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        f = tmp_path / "f.txt"
        f.write_text(f"x1^{exps[0]}*x{d}^{exps[1]} - 2*x{d} + 1")
        argv += ["--spec", str(path), "--f", str(f)]
    argv.append(f"--z0={','.join(z0[:d])}")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(argv) in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@settings(max_examples=40, deadline=2000, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    spec=st.one_of(st.none(), _small_specs()),
    exps=st.tuples(st.integers(0, 6), st.integers(0, 6)),
    z0=st.tuples(*[_SMALL_RATIONALS] * 3),
    h0=st.sampled_from(["1/4", "1/2", "1", "3/2"]),
    steps=st.integers(2, 20),
)
def test_small_studies_exit_0_or_1(tmp_path, small_budget, spec, exps, z0, h0, steps):
    """The companion of test_extreme_studies_exit_0_1_or_2, drawn inside
    the small budget: exit 0, a summary line per order and scheme, and
    each order's CSV with the sweep's header and a row per step."""
    out = tmp_path / "out"
    argv = ["study", f"--h0={h0}", f"--steps={steps}", "--out-dir", str(out)]
    d, top = 2, 4
    if spec is not None:
        d, top = spec["d"], spec["n"] if "a" in spec else spec["b"][-1]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        f = tmp_path / "f.txt"
        f.write_text(f"x1^{exps[0]}*x{d}^{exps[1]} - 2*x{d} + 1")
        argv += ["--spec", str(path), "--f", str(f)]
    argv.append(f"--z0={','.join(z0[:d])}")
    with contextlib.redirect_stdout(io.StringIO()) as stdout, contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(argv) in (0, 1), err.getvalue()
    assert len(stdout.getvalue().splitlines()) == 2 + 2 * (top + 1)
    for scheme in "ab":
        for m in range(top + 1):
            text = (out / f"scheme_{scheme}_m{m}.csv").read_text()
            _assert_parseable(text)
            assert len(text.splitlines()) == steps + 1


@settings(max_examples=10, deadline=2000, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(out=st.sampled_from([None, "example.txt", ".", "missing/example.txt"]))
def test_example1_exits_0_1_or_2(tmp_path, out):
    """example1 to stdout, to a writable --out and to an unwritable one (a
    directory, a file in a missing directory): an exit code in {0, 1, 2},
    never an exception, within the deadline."""
    argv = ["example1"] + ([] if out is None else ["--out", str(tmp_path / out)])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(argv) in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


class TestEitherSpec:
    """points, limit, sweep and study take either spec kind through its
    weights (b, c); on a table, these and verify --what closure|breadth
    call neither the recursive nor the closed-form builder."""

    GENERAL = {"n": 3, "d": 2, "b": [1, 3, 4], "c": [["1", "0", "2/3"], ["-1/2", "5", "0"]]}

    def test_table_paths_never_call_the_table_builders(self, spec_file, tmp_path, monkeypatch, capsys):
        def forbidden(*args):
            raise AssertionError("table builder called")

        for module in (dinv, dinv.cli, dinv.subspace, dinv.discretize):
            for name in ("build_recursive", "build_explicit", "_recursive_numerators", "_closed_form_elements"):
                monkeypatch.setattr(module, name, forbidden, raising=False)
        f = tmp_path / "f.txt"
        f.write_text("x1^4 + x1^2*x2 + x2^2")
        for what in ("closure", "breadth"):
            assert main(["verify", "--what", what, "--spec", spec_file]) == 0
        for scheme in "ab":
            assert main(["points", "--scheme", scheme, "--spec", spec_file, "--z0", "1,2"]) == 0
            for m in range(5):
                assert main(["limit", "--spec", spec_file, "--f", str(f), "--m", str(m), "--scheme", scheme]) == 0
                assert main(["sweep", "--spec", spec_file, "--f", str(f), "--m", str(m), "--scheme", scheme]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_n1_general_spec(self, tmp_path, capsys):
        spec = tmp_path / "n1.json"
        spec.write_text(json.dumps(GENERAL_N1))
        f = tmp_path / "f.txt"
        f.write_text("x1^3 + x1*x2 - x2^2 + 1")
        runs = [["verify", "--what", what] for what in ("closure", "breadth", "equivalence")]
        runs += [["basis", "--source", source] for source in ("explicit", "general")]
        runs += [["limit", "--f", str(f), "--m", m, "--scheme", scheme, "--z0", "1/2,3"] for m in "01" for scheme in "ab"]
        for argv in runs:
            assert main([*argv, "--spec", str(spec)]) == 0, argv
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err and "FAIL" not in captured.err

    def test_general_spec(self, tmp_path, capsys):
        spec = tmp_path / "g.json"
        spec.write_text(json.dumps(self.GENERAL))
        f = tmp_path / "f.txt"
        f.write_text("x1^5*x2 + x2^3 - 2*x1^2 + 3")
        common = ["--spec", str(spec), "--z0", "1/2,-1"]
        for scheme in "ab":
            assert main(["points", "--scheme", scheme, *common]) == 0
            assert len(json.loads(capsys.readouterr().out)["points"]) == 5
            for m in range(5):
                assert main(["limit", *common, "--f", str(f), "--m", str(m), "--scheme", scheme]) == 0
                assert json.loads(capsys.readouterr().out)["pass"] is True
                assert main(["sweep", *common, "--f", str(f), "--m", str(m), "--scheme", scheme, "--steps", "3"]) == 0
                assert capsys.readouterr().out.startswith("h,approx,exact,abs_err,est_order\n")
            for command in ("limit", "sweep"):
                assert main([command, *common, "--f", str(f), "--m", "5", "--scheme", scheme]) == 2
                captured = capsys.readouterr()
                assert captured.err == "error: order 5 exceeds available points 0..4\n" and captured.out == ""
        assert main(["study", *common, "--f", str(f), "--steps", "3", "--out-dir", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "general spec: d=2 b=[1, 3, 4], f = x1^5*x2 + x2^3 - 2*x1^2 + 3, z0 = (1/2, -1)"
        assert len(out) == 2 + 10
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(
            f"scheme_{s}_m{m}.csv" for s in "ab" for m in range(5)
        )


class TestExample1:
    def test_passes(self, capsys):
        assert main(["example1"]) == 0
        out = capsys.readouterr().out
        assert "result: all checks passed" in out
        assert "1/24*x1^4 + x1^2*x2 + 3*x1*x2 + 2*x2^2 + 4*x2" in out
        assert "(3*h, 18*h^3 + 12*h^2)" in out

    @pytest.mark.parametrize("broken", ["basis", "point", "expansion"])
    def test_failure_is_reported(self, broken, monkeypatch, capsys):
        if broken == "basis":
            texts = [*dinv.cli._EXAMPLE_BASIS_TEXT]
            texts[2] = "1/2*x1^2 + 3*x2"
            monkeypatch.setattr(dinv.cli, "_EXAMPLE_BASIS_TEXT", texts)
            fails = [
                f"FAIL: {source} element 2: got 1/2*x1^2 + 2*x2, expected 1/2*x1^2 + 3*x2"
                for source in ("recursive", "explicit", "general")
            ]
        elif broken == "point":
            points = [*dinv.cli._EXAMPLE_POINTS["b"]]
            points[2] = "(2*h, 5*h^2)"
            monkeypatch.setitem(dinv.cli._EXAMPLE_POINTS, "b", points)
            fails = ["FAIL: scheme b point 2: got (2*h, 4*h^2), expected (2*h, 5*h^2)"]
        else:
            check = dinv.cli.expansion_check

            def off_by_one(f, z0, m, pts):
                report = check(f, z0, m, pts)
                return dataclasses.replace(report, lead=report.lead + 1) if (m, pts.scheme) == (3, "a") else report

            monkeypatch.setattr(dinv.cli, "expansion_check", off_by_one)
            fails = ["FAIL: expansion m=3 scheme a: {'m': 3, 'low_coeffs': ['0', '0', '0'], 'lead': '4', 'target': '3', 'pass': False}"]
        assert main(["example1"]) == 1
        captured = capsys.readouterr()
        assert captured.out.endswith("\nresult: FAILURES\n")
        assert captured.err.splitlines() == fails

    def test_deterministic(self, capsys):
        assert main(["example1"]) == 0
        a = capsys.readouterr().out
        assert main(["example1"]) == 0
        b = capsys.readouterr().out
        assert a == b


class TestStudy:
    def test_writes_every_csv(self, tmp_path, capsys):
        assert main(["study", "--steps", "3", "--out-dir", str(tmp_path)]) == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == sorted(f"scheme_{s}_m{m}.csv" for s in "ab" for m in range(5))
        for name in names:
            assert len((tmp_path / name).read_text().splitlines()) == 4
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "table: d=2 n=4, f = x1^4 + x1^2*x2 + x2^2 + x1 + x2 + 1, z0 = (0, 0)"
        assert len(out) == 2 + len(names)

    def test_csv_equals_sweep(self, tmp_path, capsys):
        spec = tmp_path / "p.json"
        spec.write_text(json.dumps({"d": 2, "n": 3, "a": {"2,2": "1/2", "3,2": "-2"}}))
        f = tmp_path / "f.txt"
        f.write_text("x1^4 + x1*x2^2 + x2")
        flags = ["--spec", str(spec), "--f", str(f), "--z0", "1,-1/2", "--h0", "1/8", "--steps", "6"]
        assert main(["study", *flags, "--out-dir", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert main(["sweep", *flags, "--scheme", "b", "--m", "2"]) == 0
        assert (tmp_path / "out" / "scheme_b_m2.csv").read_text() == capsys.readouterr().out

    def test_each_point_is_converted_to_floats_once_per_scheme(self, general_file, tmp_path, monkeypatch, capsys):
        # study sweeps orders 0..b_n, and the sweep at order m reads points
        # 0..m as floats: each point's coordinates are converted once per
        # scheme, (b_n + 1) * d conversions, not once per order.
        float_terms, converted = dinv.discretize._float_terms, []

        def counted(p, what):
            if what.startswith("a coefficient of point"):
                converted.append(what)
            return float_terms(p, what)

        monkeypatch.setattr(dinv.discretize, "_float_terms", counted)
        f = tmp_path / "f.txt"
        f.write_text("x1^5*x2 + x2^3 - 2*x1^2 + 3")
        argv = ["study", "--spec", general_file, "--f", str(f), "--z0=-1/2,3", "--steps", "3"]
        assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        spec = dinv.GeneralSpec.from_dict(GENERAL_SPEC)
        assert len(converted) == 2 * (spec.top_weight + 1) * spec.d
        assert set(converted) == {f"a coefficient of point {r}" for r in range(spec.top_weight + 1)}

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--z0", "1"], "base point"),
            (["--h0", "x"], "--h0"),
            (["--steps", "1"], "steps"),
            (["--spec", "{tmp}/missing.json"], "cannot read"),
            (["--h0", "1/0"], "--h0"),
            (["--steps", "1200"], "--steps"),
            (["--h0", "1e200"], "--h0"),
        ],
        ids=["z0", "h0-text", "steps-1", "missing-spec", "h0-zero-denominator", "underflow", "overflow"],
    )
    def test_bad_input_exits_2_and_writes_nothing(self, argv, named, tmp_path, capsys):
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert main(["study", *argv, "--out-dir", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and named in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_steps_are_checked_before_the_work_guard(self, tmp_path, capsys):
        # h**27 underflows at the 40th halving of 1/2: the steps are named,
        # before any work is charged.
        spec = tmp_path / "n120.json"
        spec.write_text(json.dumps({"d": 2, "n": 120, "a": {"2,2": "1/2", "120,2": "1/7"}}))
        f = tmp_path / "f.txt"
        f.write_text("x1 + x2")
        argv = ["study", "--spec", str(spec), "--f", str(f), "--h0", "1/2", "--steps", "40"]
        assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --steps 40 halvings of --h0 0.5 take h**27 to 0.0; at most 39 steps are accepted\n"
        assert captured.out == "" and not (tmp_path / "out").exists()

    def test_float_overflow_of_an_exact_value_exits_2(self, tmp_path, capsys):
        # Scheme a's first order already needs point 1, whose x2 coordinate is
        # a_22 * h^2 with a 1000-digit a_22; --h0 cannot help, so it is not named.
        spec = tmp_path / "p.json"
        spec.write_text(json.dumps({"d": 2, "n": 10, "a": {"2,2": "1e999"}}))
        f = tmp_path / "f.txt"
        f.write_text("x2^5")
        assert main(["study", "--spec", str(spec), "--f", str(f), "--out-dir", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: a coefficient of point 1 has 1000 digits before the point; no float can hold it\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("spec", [B5300, {"d": 3, "n": 2, "a": {"2,3": "1"}}], ids=["b5300", "d3"])
    def test_spec_not_in_two_variables_needs_f(self, spec, tmp_path, capsys):
        # The demo f is in 2 variables: refused at once, before any point.
        path = tmp_path / "s.json"
        path.write_text(json.dumps(spec))
        start = time.perf_counter()
        assert main(["study", "--spec", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        d = dinv.GeneralSpec.from_dict(spec).d
        assert captured.err == f"error: {path}: the demo f is in 2 variables, the spec in {d}; pass --f\n"
        assert captured.out == "" and not (tmp_path / "out").exists()

    def test_refused_for_fuel_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # study sweeps every order 0..400 under both schemes, 161,202 point
        # evaluations a step, where the build alone (verify --what closure)
        # is in budget: refused within 1.5 times the budget, with no output.
        path = tmp_path / "n400.json"
        path.write_text(json.dumps({"d": 2, "n": 400, "a": {"2,2": "1"}}))
        f = tmp_path / "f.txt"
        f.write_text("x1 + x2")
        assert main(["verify", "--what", "closure", "--spec", str(path)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(dinv.cli, "WORK_BUDGET_S", SMALL_BUDGET_S)
        argv = ["study", "--spec", str(path), "--f", str(f), "--h0", "1", "--steps", "2", "--out-dir", str(tmp_path / "out")]
        _refused_in_time(argv, capsys, "study")
        assert not (tmp_path / "out").exists()

    def test_out_dir_is_a_file_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["study", "--steps", "3", "--out-dir", str(blocker)]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestScan:
    def test_ok(self, capsys):
        assert main(["scan", "--count", "3", "--n-max", "3"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"what": "scan", "count": 3, "seed": 0, "failures": [], "ok": True}
        assert "checked 3 tables in" in captured.err and "3 ok, 0 failed" in captured.err

    def test_same_seed_same_stdout(self, capsys):
        outs = []
        for _ in range(2):
            assert main(["scan", "--count", "4", "--seed", "5", "--d-max", "3", "--n-max", "4"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "name, wrong, problem",
        [
            ("_closed_form_elements", lambda arc, codes, top: Numerators(codes, [(1, {0: 1})]), "explicit != recursive"),
            ("_generating_elements", lambda arc, codes, top: Numerators(codes, [(1, {0: 1})]), "general != recursive"),
            ("check_closure_numerators", lambda elems, spec: ClosureReport(ok=False, violations=((2, 2),)),
             "closure violations ((2, 2),)"),
            ("breadth_numerators", lambda nums: 2, "breadth != 1"),
        ],
        ids=["explicit", "general", "closure", "breadth"],
    )
    def test_failed_check_is_reported(self, name, wrong, problem, monkeypatch, capsys):
        monkeypatch.setattr(dinv.cli, name, wrong)
        assert main(["scan", "--count", "2", "--n-max", "3"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert [f["index"] for f in report["failures"]] == [0, 1]
        for failure in report["failures"]:
            assert failure["problems"] == [problem]
            assert set(failure["table"]) == {"d", "n", "a"}

    @pytest.mark.parametrize(
        "flag, value", [("--count", "-3"), ("--count", "0"), ("--d-max", "1"), ("--n-max", "1")]
    )
    def test_empty_or_invalid_range_exits_2(self, flag, value, capsys):
        assert main(["scan", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and flag in captured.err
        assert captured.out == ""


def test_entry_point_subprocess(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    calls = [
        (["scan", "--count", "2", "--n-max", "3"], 0),
        (["study", "--steps", "3", "--out-dir", str(tmp_path / "out")], 0),
        (["scan", "--count", "-3"], 2),
    ]
    for argv, code in calls:
        proc = subprocess.run(
            [sys.executable, "-m", "dinv", *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
    assert len(list((tmp_path / "out").iterdir())) == 10
