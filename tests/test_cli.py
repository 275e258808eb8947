"""End-to-end tests of the command-line interface.

All invocations but the entry-point test go through main(argv)
in-process; stdout/stderr are captured with capsys and files live in
tmp_path.
"""

import contextlib
import io
import json
import os
import random
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
from dinv.poly import MAX_RATIONAL_DIGITS

SRC = Path(__file__).resolve().parent.parent / "src"

EXAMPLE_SPEC = {"d": 2, "n": 4, "a": {"2,2": "2", "3,2": "3", "4,2": "4"}}
GENERAL_SPEC = {"n": 2, "d": 2, "b": [1, 2], "c": [["1", "0"], ["0", "1"]]}
# Two general specs not of table shape: a gap in b (CI's), and n = 1, the
# spaces of every zero of multiplicity 2, with x2 at weight 1.
GAPPED_SPEC = {"n": 3, "d": 2, "b": [1, 3, 4], "c": [["1", "0", "2/3"], ["-1/2", "5", "0"]]}
GENERAL_N1 = {"n": 1, "d": 2, "b": [1], "c": [["1"], ["-2/3"]]}


def P(text, dim=2):
    return Polynomial.parse(text, dim)


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
        basis = build[source](dinv.cli._load_spec(str(path)))
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
        # 256 and 257 terms, at the writer's batch boundary.
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
        assert "".join(dinv.cli._basis_chunks(elements, False)) == expect
        assert "".join(dinv.cli._basis_chunks(elements[:1], False)) == json.dumps([elements[0].to_dict()], indent=2) + "\n"

    def test_writer_batches_an_element_256_terms_at_a_time(self):
        big = Polynomial(1, {(k,): Fraction(-k - 1, 7) for k in range(600)})
        pieces = list(dinv.cli._basis_chunks([Polynomial.constant(1, 1), big], False))
        assert max(piece.count('"coef"') for piece in pieces) == 256
        assert sum(piece.count('"coef"') for piece in pieces) == 601

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
        assert dinv.cli._load_spec(str(table)) == dinv.cli._load_spec(str(general))
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
        spec = tmp_path / "g.json"
        spec.write_text(json.dumps(GAPPED_SPEC))
        right = getattr(dinv.cli, name)

        def wrong(spec):
            top = right(spec)
            return BasisSequence(top.elements[:-1] + (top.elements[-1] + P("x1"),))

        monkeypatch.setattr(dinv.cli, name, wrong)
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
        def forbidden(spec):
            raise AssertionError("build_general called")

        monkeypatch.setattr(dinv.cli, "build_general", forbidden)
        monkeypatch.setattr(dinv.subspace, "build_general", forbidden)
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

    def test_spec_required(self, capsys):
        assert main(["verify", "--what", "closure"]) == 2

    def test_identities_off_by_one_power_sum_fails(self, monkeypatch, capsys):
        carried = dinv.identities.signed_power_sums

        def off_by_one(m, include_zero=True, j_max=None):
            sums = carried(m, include_zero, j_max)
            if m == 5 and not include_zero:
                sums[3] += 1
            return sums

        monkeypatch.setattr(dinv.cli, "signed_power_sums", off_by_one)
        assert main(["verify", "--what", "identities", "--m-max", "6"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["power_sums"] == {"m_max": 6, "ok": False}
        assert report["vandermonde"]["ok"] and report["falling_factorial"]["ok"] and not report["ok"]

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
        # Predicted within MAX_IDENTITY_WORK; at r_max = 1 no node i < r_max is left.
        start = time.perf_counter()
        assert main(["verify", "--what", "identities", "--m-max", "0", "--vand-max", "0", "--r-max", "1", "--i-max", "1250000"]) == 0
        assert time.perf_counter() - start < 1
        assert json.loads(capsys.readouterr().out)["falling_factorial"] == {"r_max": 1, "i_max": 1250000, "ok": True}

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
            (["basis", "--source", "recursive"], 4994),
            (["basis", "--source", "recursive", "--pretty"], 4994),
            (["limit", "--f", "{tmp}/f.txt", "--m", "10", "--scheme", "a"], 4996),
        ],
        ids=["basis", "basis-pretty", "limit"],
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

    def test_no_partial_out_file(self, tmp_path, capsys):
        (tmp_path / "a.json").write_text(json.dumps(self.TABLE))
        out = tmp_path / "basis.json"
        assert main(["basis", "--source", "recursive", "--spec", str(tmp_path / "a.json"), "--out", str(out)]) == 2
        assert "4994 digits" in capsys.readouterr().err
        assert not out.exists()


class TestSizeGuard:
    """basis --source explicit, verify --what equivalence and scan refuse,
    before any build, a spec whose closed-form walk would visit more count
    vectors than MAX_CLOSED_FORM_WORK // (d + 2); every command that builds
    a basis from a spec refuses one whose visits times the digits of
    top! * max(D, N)^top exceed MAX_RECURRENCE_WORK."""

    @pytest.fixture(autouse=True)
    def no_builds(self, monkeypatch):
        def forbidden(spec):
            raise AssertionError("built before the size guard")

        for name in ("build_recursive", "build_explicit", "build_general", "build_generating"):
            monkeypatch.setattr(dinv.cli, name, forbidden)

    def _refused(self, argv, capsys, count, allowed):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("error:")
        assert f"at least {count:,} compositions" in captured.err
        assert f"more than the {allowed:,} allowed" in captured.err
        assert f"({dinv.cli.MAX_CLOSED_FORM_WORK:,} / (d + 2))" in captured.err

    @pytest.mark.parametrize(
        "argv", [["basis", "--source", "explicit"], ["verify", "--what", "equivalence"]], ids=["basis", "equivalence"]
    )
    def test_full_d6_table_past_the_bound(self, argv, tmp_path, capsys):
        assert dinv.cli.MAX_CLOSED_FORM_WORK == 5_000_000
        # Full d = 6 tables visit 145,546 vectors at n = 16 and 1,180,415 at
        # n = 20; the count stops once it passes 5,000,000 // 8.
        path = tmp_path / "t.json"
        path.write_text(json.dumps(_full_table(6, 20)))
        self._refused([*argv, "--spec", str(path)], capsys, 637207, 625000)

    def test_general_spec_equivalence(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": 60, "d": 1, "b": list(range(1, 61)), "c": [["1"] * 60]}))
        assert main(["verify", "--what", "equivalence", "--spec", str(path)]) == 2
        assert "more than the 1,666,666 allowed in 1 variables" in capsys.readouterr().err

    def test_top_alone_refuses(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"d": 2, "n": 10**9, "a": {}}))
        self._refused(["basis", "--source", "explicit", "--spec", str(path)], capsys, 10**9 + 1, 1250000)

    @pytest.mark.parametrize(
        "flags, count, allowed",
        [(["--d-max", "6", "--n-max", "19"], 630395, 625000), (["--n-max", "100000"], 2500100001, 833333)],
        ids=["d6-n19", "n100000"],
    )
    def test_scan(self, flags, count, allowed, capsys):
        self._refused(["scan", *flags], capsys, count, allowed)

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
    def test_recurrence_digits_past_the_bound(self, argv, tmp_path, capsys):
        # 100,001 visits (x1 alone, a lower bound) times the 456,574 digits
        # of 100000!; the closed-form visits alone are within their bound.
        assert dinv.cli.MAX_RECURRENCE_WORK == 100_000_000
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": 2, "d": 1, "b": [1, 100000], "c": [["1", "1"]]}))
        start = time.perf_counter()
        assert main([*argv, "--spec", str(path)]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("error:")
        assert "at least 45,657,856,574 digit-steps (100,001 composition visits x 456,574 digits" in captured.err
        assert "more than the 100,000,000 allowed" in captured.err

    def test_recurrence_huge_top_refused_without_weights(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"d": 2, "n": 10**9, "a": {}}))
        for argv in (["basis", "--source", "recursive"], ["verify", "--what", "closure"]):
            assert main([*argv, "--spec", str(path)]) == 2
            assert "1,000,000,001 composition visits" in capsys.readouterr().err

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
    def test_point_commands_refuse_huge_top(self, argv, tmp_path, capsys):
        # Each point set has n + 1 points, so the guard must act before any is built.
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"d": 2, "n": 10**9, "a": {}}))
        f = tmp_path / "f.txt"
        f.write_text("x1^2 + x2")
        extra = ["--out-dir", str(tmp_path / "out")] if argv[0] == "study" else []
        if argv[0] in ("limit", "sweep", "study"):
            extra += ["--f", str(f)]
        start = time.perf_counter()
        assert main([*argv, *extra, "--spec", str(path)]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "composition visits" in captured.err
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
    def test_recurrence_accepts(self, spec, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(spec))
        dinv.cli._check_recurrence_size(str(path), dinv.cli._load_spec(str(path)))

    @pytest.mark.parametrize("argv", [["verify", "--what", "closure"], ["basis", "--source", "recursive"]])
    def test_recurrence_exactly_at_the_bound(self, argv, spec_file, monkeypatch, capsys):
        # The example table visits 12 vectors; 4! * 4^4 has 4 digits.
        monkeypatch.undo()
        monkeypatch.setattr(dinv.cli, "MAX_RECURRENCE_WORK", 12 * 4)
        assert main([*argv, "--spec", spec_file]) == 0
        capsys.readouterr()
        monkeypatch.setattr(dinv.cli, "MAX_RECURRENCE_WORK", 12 * 4 - 1)
        assert main([*argv, "--spec", spec_file]) == 2
        err = capsys.readouterr().err
        assert "at least 48 digit-steps (12 composition visits x 4 digits" in err
        assert "more than the 47 allowed" in err

    def test_exactly_at_the_bound(self, spec_file, monkeypatch, capsys):
        # The example table (d = 2, weights 1..4, top 4) visits 12 vectors.
        monkeypatch.undo()
        monkeypatch.setattr(dinv.cli, "MAX_CLOSED_FORM_WORK", 12 * 4)
        assert main(["verify", "--what", "equivalence", "--spec", spec_file]) == 0
        capsys.readouterr()
        monkeypatch.setattr(dinv.cli, "MAX_CLOSED_FORM_WORK", 12 * 4 - 1)
        self._refused(["verify", "--what", "equivalence", "--spec", spec_file], capsys, 12, 11)


class TestIdentitySizeGuard:
    """verify --what identities refuses, before any scan, bounds whose
    predicted steps exceed MAX_IDENTITY_WORK, naming both."""

    @pytest.fixture(autouse=True)
    def no_scans(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("scanned before the size guard")

        for name in ("signed_power_sums", "vandermonde_oracle", "falling_factorial_sums"):
            monkeypatch.setattr(dinv.cli, name, forbidden)

    @pytest.mark.parametrize("flag", ["--m-max", "--vand-max", "--r-max", "--i-max"])
    def test_huge_bound_refused_at_once(self, flag, capsys):
        assert dinv.cli.MAX_IDENTITY_WORK == 10_000_000
        start = time.perf_counter()
        assert main(["verify", "--what", "identities", flag, "100000000"]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("error: verify --what identities: the scans would take at least ")
        assert "steps, more than the 10,000,000 allowed" in captured.err

    def test_prediction_by_hand(self):
        # Power sums (m + 1)^2 + m^2 = 1 + 5 + 13 terms for m <= 2,
        # Vandermonde (m + 1)^3 = 1 + 8 cells for m <= 1.  Falling
        # factorials, one node i = 2 and two caps: at r = 1 a table of 2
        # entries and one slot pass of 1 update, 4 steps; at r = 2 a table of
        # 3 and passes of 2 and 1 updates, 8 steps; (4 + 8) * 2 = 24 =
        # 1 * 2 * 4 * 9 / 3, and 4^2 has far fewer than 100 digits.
        assert dinv.cli._identity_work(2, 1, 2, 2, cap=10**9) == 19 + 9 + 24
        assert dinv.cli._falling_factorial_work(2, 2) == 2 * (4 + 8) == 24
        # Past 100 digits (m^m at m = 100 has 201) a term counts 3 steps.
        assert dinv.cli._identity_work(100, 0, 1, 2, cap=10**9) - dinv.cli._identity_work(99, 0, 1, 2, cap=10**9) == 3 * (101**2 + 100**2)
        # (2 * 2)^r_max has 121 digits at r_max = 200: each step counts 2.
        assert dinv.cli._falling_factorial_work(200, 2) == 200 * 202 * 207 // 3 * 2

    # Defaults (20, 12, 8, 8): power sums sum_{k<=21} k^2 + sum_{m<=20} m^2 =
    # 3311 + 2870 = 6181 (m^m has at most 27 digits), Vandermonde
    # sum_{m<=12} (m + 1)^3 = 91^2 = 8281, falling factorials 7 nodes *
    # 8 * 10 * 15 / 3 = 2800 (16^8 has 10 digits): 17,262.  Bench-widest
    # (40, 20, 12, 12): 23821 + 22140 = 45961, 231^2 = 53361 and 11 nodes *
    # 12 * 14 * 19 / 3 = 11704: 111,026.
    @pytest.mark.parametrize(
        "bounds, steps", [((20, 12, 8, 8), 17_262), ((40, 20, 12, 12), 111_026)], ids=["defaults", "bench-widest"]
    )
    def test_accepted_bounds(self, bounds, steps):
        assert dinv.cli._identity_work(*bounds, cap=10**9) == steps <= dinv.cli.MAX_IDENTITY_WORK

    def test_exactly_at_the_bound(self, monkeypatch, capsys):
        # 19 + 9 + 24 = 52 steps, as in test_prediction_by_hand.
        monkeypatch.undo()
        flags = ["--m-max", "2", "--vand-max", "1", "--r-max", "2", "--i-max", "2"]
        monkeypatch.setattr(dinv.cli, "MAX_IDENTITY_WORK", 52)
        assert main(["verify", "--what", "identities", *flags]) == 0
        capsys.readouterr()
        monkeypatch.setattr(dinv.cli, "MAX_IDENTITY_WORK", 51)
        assert main(["verify", "--what", "identities", *flags]) == 2
        assert "at least 52 steps, more than the 51 allowed" in capsys.readouterr().err

    def test_falling_factorial_term_covers_the_recorded_steps(self, monkeypatch, capsys):
        monkeypatch.undo()
        ways = dinv.identities._ways
        steps = 0

        def recorded(top, slots):
            nonlocal steps
            steps += top + 1

            def passes():
                nonlocal steps
                for w, base in slots:
                    steps += 1 + max(0, top - w + 1)
                    yield w, base

            return ways(top, passes())

        monkeypatch.setattr(dinv.identities, "_ways", recorded)
        for r_max in range(1, 9):
            for i_max in range(2, 9):
                steps = 0
                flags = ["--m-max", "0", "--vand-max", "0", "--r-max", str(r_max), "--i-max", str(i_max)]
                assert main(["verify", "--what", "identities", *flags]) == 0
                assert steps <= dinv.cli._falling_factorial_work(r_max, i_max)
                # Only the nodes 2 <= i < r_max are scanned.
                assert (steps > 0) == (r_max > 2)
        capsys.readouterr()

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.tuples(*(st.one_of(st.integers(low, 60), st.integers(low, 10**9)) for low in (0, 0, 1, 2))),
        st.integers(0, 3),
        st.one_of(st.integers(1, 10), st.integers(1, 10**9)),
    )
    def test_monotone_and_prompt_in_every_bound(self, bounds, k, step):
        grown = list(bounds)
        grown[k] += step
        works = []
        for b in (bounds, grown):
            start = time.perf_counter()
            works.append(dinv.cli._identity_work(*b, cap=dinv.cli.MAX_IDENTITY_WORK))
            assert time.perf_counter() - start < 0.01
        assert works[0] <= works[1]


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


class TestPowerDigitGuard:
    """limit, sweep and study refuse, before any series or target work, an
    f whose terms raise z0 to more than MAX_POWER_DIGITS digits; a huge
    degree at z0 in {0, 1, -1} is accepted and runs at once."""

    ARGV = {
        "limit": ["limit", "--m", "2", "--scheme", "a"],
        "sweep": ["sweep", "--m", "2", "--scheme", "b"],
        "study": ["study", "--steps", "3"],
    }

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_refused_at_once(self, command, spec_file, tmp_path, capsys):
        f = tmp_path / "f.txt"
        f.write_text("x1^99999999 + x2")
        start = time.perf_counter()
        argv = [*self.ARGV[command], "--spec", spec_file, "--f", str(f), "--z0", "3/2,1"]
        assert main([*argv, "--out-dir", str(tmp_path / "out")] if command == "study" else argv) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: z0 raised to the exponents of f's terms would have about 47,712,125 digits, "
            "more than the 10,000 allowed\n"
        )
        assert captured.out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("z0", ["0,0", "1,1", "-1,1", "1,-1"])
    def test_huge_degree_at_unit_points_passes(self, z0, spec_file, tmp_path, capsys):
        f = tmp_path / "f.txt"
        f.write_text("x1^99999999")
        start = time.perf_counter()
        assert main(["limit", "--m", "4", "--scheme", "b", "--spec", spec_file, "--f", str(f), f"--z0={z0}"]) == 0
        assert time.perf_counter() - start < 2
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_prediction_by_hand(self):
        # 1000^3 has 10 digits and the denominator 100 has 3.
        z0 = (Fraction(1000), Fraction(1, 100))
        assert dinv.cli._power_digits(P("x1^3*x2 + 5"), z0) == 10
        assert dinv.cli._power_digits(P("x2^7"), z0) == 15
        assert dinv.cli._power_digits(P("x1^99999999"), (Fraction(0), Fraction(-1))) == 1
        assert dinv.cli._power_digits(P("x2^99999999"), (Fraction(0), Fraction(-1))) == 1

    def test_exactly_at_the_bound(self, spec_file, tmp_path, monkeypatch, capsys):
        f = tmp_path / "f.txt"
        f.write_text("x1^3*x2")
        argv = ["limit", "--m", "4", "--scheme", "a", "--spec", spec_file, "--f", str(f), "--z0", "1000,1/100"]
        monkeypatch.setattr(dinv.cli, "MAX_POWER_DIGITS", 10)
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(dinv.cli, "MAX_POWER_DIGITS", 9)
        assert main(argv) == 2
        assert "about 10 digits, more than the 9 allowed" in capsys.readouterr().err


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
def test_extreme_valid_inputs_exit_0_1_or_2(tmp_path, command, general, exps, z0, h, m, scheme):
    """Valid input of extreme size: an exit code in {0, 1, 2}, never an
    exception, within the deadline."""
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


class TestEitherSpec:
    """points, limit, sweep and study take either spec kind through its
    weights (b, c); on a table, these and verify --what closure|breadth
    call neither the recursive nor the closed-form builder."""

    GENERAL = {"n": 3, "d": 2, "b": [1, 3, 4], "c": [["1", "0", "2/3"], ["-1/2", "5", "0"]]}

    def test_table_paths_never_call_the_table_builders(self, spec_file, tmp_path, monkeypatch, capsys):
        def forbidden(params):
            raise AssertionError("table builder called")

        for module in (dinv, dinv.cli, dinv.subspace, dinv.discretize):
            monkeypatch.setattr(module, "build_recursive", forbidden, raising=False)
            monkeypatch.setattr(module, "build_explicit", forbidden, raising=False)
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
            ("build_explicit", lambda spec: BasisSequence((Polynomial.constant(spec.d, 1),)), "explicit != recursive"),
            ("build_generating", lambda spec: BasisSequence((Polynomial.constant(spec.d, 1),)), "general != recursive"),
            ("check_closure", lambda basis, spec: ClosureReport(ok=False, violations=((2, 2),)),
             "closure violations ((2, 2),)"),
            ("breadth", lambda elements: 2, "breadth != 1"),
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
