"""The benchmark's workloads, as lists of cases.

A case is one verified unit of work: `run()` is the timed call into the
library, `check(out)` (untimed) turns its output into a verdict, which
must equal `expected`, and into the exact text that goes into the
workload's output digest.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Any, Callable

import gen


@dataclass
class Case:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[Any, str]]
    expected: Any


def _render(basis) -> str:
    return "\n".join(p.render() for p in basis)


def _expansion(report) -> tuple[Any, str]:
    return report.passed, f"{report.m} {report.lead} {report.target}"


# -- tables -----------------------------------------------------------------


def tables(dinv, cli, seed: int, workdir: str, smoke: bool) -> list[Case]:
    """All three builders compared termwise, then closure and breadth of the
    recursive basis, per random parameter table."""

    def case(t) -> Case:
        def run():
            rec = dinv.build_recursive(t)
            exp = dinv.build_explicit(t)
            gen_ = dinv.build_general(dinv.specialize(t))
            agree = rec.elements == exp.elements and gen_.elements == rec.elements
            return agree, dinv.check_closure(rec, t).ok, dinv.breadth(list(rec)), rec

        def check(out):
            agree, closed, width, rec = out
            return (agree, closed, width), _render(rec)

        return Case("table", run, check, (True, True, 1))

    return [case(t) for t in gen.tables(dinv, seed, per_shape=1 if smoke else 17)]


# -- limits -----------------------------------------------------------------


SCHEMES = {"a": "points_scheme_a", "b": "points_scheme_b"}


def _limit_case(dinv, tag: str, t, f, z0, m: int) -> Case:
    """As `dinv limit`: build the point set of scheme `tag`, then the exact
    h-expansion check at order m.  Library names are looked up at call
    time, so that a traced pass sees the wrapped functions."""
    scheme = SCHEMES[tag]

    def run():
        return dinv.expansion_check(f, z0, m, getattr(dinv, scheme)(t, z0))

    return Case(f"limit_{tag}", run, _expansion, True)


def limits(dinv, cli, seed: int, workdir: str, smoke: bool) -> list[Case]:
    """Every order m of both schemes at both base points, per random draw."""
    cases = []
    for t, f, bases in gen.limits(dinv, seed, per_shape=1 if smoke else 12):
        for z0 in bases:
            for tag in SCHEMES:
                for m in range(t.n + 1):
                    cases.append(_limit_case(dinv, tag, t, f, z0, m))
    return cases


# -- cli_general --------------------------------------------------------------

IDENTITY_SCANS = (
    [],
    ["--m-max", "28", "--vand-max", "15", "--r-max", "9", "--i-max", "9"],
    ["--m-max", "34", "--vand-max", "18", "--r-max", "10", "--i-max", "10"],
    ["--m-max", "40", "--vand-max", "20", "--r-max", "12", "--i-max", "12"],
)


def _cli_case(cli, kind: str, argv: list[str], verdict: Callable[[dict], Any], expected) -> Case:
    """One in-process `dinv` call; the verdict is the exit code plus fields
    of its JSON report."""

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(out):
        code, text = out
        return (code, verdict(json.loads(text))), text

    return Case(kind, run, check, expected)


def cli_general(dinv, cli, seed: int, workdir: str, smoke: bool) -> list[Case]:
    """Per general spec: basis, closure and breadth through `cli.main`;
    closure refuted on a perturbed basis for a quarter of the specs with
    d >= 2; identity scans at widening bounds."""
    specs, refutes = gen.cli_files(dinv, seed, workdir, per_shape=1 if smoke else 8)
    cases = []
    for spec, path in specs:
        top = spec.b[-1]
        cases.append(_cli_case(cli, "basis", ["basis", "--source", "general", "--spec", path], len, (0, top + 1)))
        cases.append(
            _cli_case(
                cli, "closure", ["verify", "--what", "closure", "--spec", path],
                lambda r: (r["ok"], r["violations"]), (0, (True, [])),
            )
        )
        cases.append(
            _cli_case(
                cli, "breadth", ["verify", "--what", "breadth", "--spec", path],
                lambda r: (r["ok"], r["value"]), (0, (True, 1)),
            )
        )
    for path, bpath, top, k in refutes:
        cases.append(
            _cli_case(
                cli, "refute", ["verify", "--what", "closure", "--spec", path, "--basis", bpath],
                lambda r: (r["ok"], r["violations"]), (1, (False, [[top, k]])),
            )
        )
    for flags in IDENTITY_SCANS[:1] if smoke else IDENTITY_SCANS:
        cases.append(_cli_case(cli, "identities", ["verify", "--what", "identities", *flags], lambda r: r["ok"], (0, True)))
    return cases


# -- ladder -----------------------------------------------------------------


def ladder(dinv, cli, seed: int, workdir: str, smoke: bool) -> list[Case]:
    """Per rung: build_recursive, check_closure and breadth of that basis,
    and the top-order expansion check of both schemes."""
    rungs = ((4, 2), (5, 3)) if smoke else ((10, 4), (11, 5), (12, 6), (13, 6))
    cases = []
    for t, f, z0 in gen.ladder(dinv, seed, rungs):
        built = {}

        def build(t=t, built=built):
            built["basis"] = dinv.build_recursive(t)
            return built["basis"]

        cases.append(Case("build", build, lambda b, n=t.n: (dinv.degrees(b) == tuple(range(n + 1)), _render(b)), True))
        cases.append(
            Case(
                "closure",
                lambda t=t, built=built: dinv.check_closure(built["basis"], t),
                lambda r: ((r.ok, r.violations), ""),
                (True, ()),
            )
        )
        cases.append(Case("breadth", lambda built=built: dinv.breadth(list(built["basis"])), lambda w: (w, str(w)), 1))
        for tag in SCHEMES:
            cases.append(_limit_case(dinv, tag, t, f, z0, t.n))
    return cases


WORKLOADS = {
    "tables": tables,
    "limits": limits,
    "cli_general": cli_general,
    "ladder": ladder,
}
