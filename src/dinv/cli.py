"""Command-line front end.

Subcommands
-----------
basis     build a basis (recursive, explicit, or general source) as JSON
verify    run exact checks: closure, equivalence, breadth, identities
points    emit the coalescing points of a scheme, symbolic or at a given h
limit     exact h-expansion check of the stencil combination at one order
sweep     float h-sweep CSV of the scaled stencil combination
study     sweeps of every order under both schemes: one CSV each, a summary table
scan      seeded random tables, each built three ways and checked for closure, breadth
example1  reproduce and verify the built-in worked example end to end

A spec file holds a general spec (keys n, d, b, c) or a parameter table
(keys d, n, a); both load as one GeneralSpec, and a general spec of table
shape is a table.  Every command takes either form, except that basis
--source recursive needs a spec of table shape.

Conventions: data goes to stdout (or --out), diagnostics go to stderr.
Exit code 0 means every requested check passed; 1 means a check failed;
2 means bad input or usage.  Rationals cross the boundary as strings
like "3/4"; only the sweep and study CSVs contain floats.  Stdout is
deterministic given the arguments and input files (scan draws from its
--seed); the environment variable DINV_SEED seeds only the test suite.

Work is metered (dinv.fuel): main arms WORK_BUDGET_S / SECONDS_PER_CELL
cells for one command, and a step past them exits 2 before any output,
naming the command, the stage, the fuel spent and the budget.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import random
import re
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from . import fuel
from .discretize import (
    SCHEMES,
    SymbolicPointSet,
    arc,
    expansion_check,
    stencil,
    sweep,
    sweep_steps,
    sweep_to_csv,
)
from .identities import falling_factorial_sums, signed_power_sums, vandermonde_oracles
from .poly import DigitLimitError, Polynomial, parse_rational, rational_text
from .subspace import (
    TABLE_SHAPE,
    BasisSequence,
    GeneralSpec,
    Numerators,
    ParamTable,
    _closed_form_elements,
    _generating_elements,
    _recursive_numerators,
    breadth_numerators,
    check_closure,
    check_closure_numerators,
    numerator_basis,
)


class CliError(Exception):
    """Bad input or usage; message goes to stderr, exit code 2."""


# What a malformed number, basis or polynomial raises on its way in,
# besides ValueError: a zero denominator ("1/0") or a rational too large
# for a float (--h0 1e400).
_PARSE_ERRORS = (ValueError, ZeroDivisionError, OverflowError)


def _read_text(path: str) -> str:
    """The text of the file at path as open(path, encoding="utf-8").read()
    gives it: its bytes read once and decoded as UTF-8, then universal
    newlines (\r\n, then a lone \r, read as \n).  Raises what that raises."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _load_json(path: str):
    try:
        text = _read_text(path)
        fuel.charge(len(text), f"reading {path}")  # json.loads, a cell a character
        return json.loads(text)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nesting too deep
        raise CliError(f"{path} is not valid JSON: {exc}") from exc


def _load(path: str, basis: bool = False) -> GeneralSpec | BasisSequence:
    """The spec, or the basis, in the JSON file at path."""
    data = _load_json(path)
    if not isinstance(data, list if basis else dict):
        raise CliError(f"{path}: expected {'a JSON array of polynomials' if basis else 'a JSON object'}")
    try:
        return BasisSequence.from_list(data) if basis else GeneralSpec.from_dict(data)
    except _PARSE_ERRORS as exc:
        raise CliError(f"{path}: {exc}") from exc


def _load_poly(path: str, dim: int) -> Polynomial:
    """Polynomial file in dim variables: JSON object form, or the plain
    text form (whose ambient dimension is dim)."""
    try:
        text = _read_text(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    stripped = text.strip()
    # json.loads costs a cell a character; parse 8 a character and 80 a term, a term per sign and one more.
    terms = stripped.count("+") + stripped.count("-") + 1
    fuel.charge(len(stripped) if stripped.startswith("{") else 8 * len(stripped) + 80 * terms, f"reading {path}")
    try:
        if stripped.startswith("{"):
            f = Polynomial.from_dict(json.loads(stripped))
        else:
            f = Polynomial.parse(stripped, dim)
    except (*_PARSE_ERRORS, RecursionError) as exc:
        raise CliError(f"{path}: {exc}") from exc
    if f.dim != dim:
        raise CliError(f"{path}: polynomial has dimension {f.dim}, spec has {dim}")
    return f


def _parse_point(text: str | None, d: int) -> tuple[Fraction, ...]:
    if text is None:
        return (Fraction(0),) * d
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != d:
        raise CliError(f"base point needs {d} comma-separated rationals, got {text!r}")
    try:
        return tuple(parse_rational(p) for p in parts)
    except _PARSE_ERRORS as exc:
        raise CliError(f"bad rational in base point {text!r}: {exc}") from exc


def _emit(args, chunks: Iterable[str]) -> None:
    """Write the chunks in order to --out, or to stdout."""
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                for chunk in chunks:
                    fh.write(chunk)
        except OSError as exc:
            raise CliError(f"cannot write {args.out}: {exc}") from exc
    else:
        for chunk in chunks:
            sys.stdout.write(chunk)


# One term of Polynomial.to_dict as json.dumps(..., indent=2) lays it out
# inside a list of elements: _TERM_HEAD around the exponents joined by
# _EXP_SEP (a head made once per code), the reduced coefficient, then
# _TERM_TAIL.  The coefficient needs no escaping: its text has only [-0-9/].
_TERM_HEAD = '\n      {{\n        "exp": [\n          {}\n        ],\n        "coef": "'
_EXP_SEP = ",\n          "
_TERM_TAIL = '"\n      }'


def _basis_chunks(nums: Numerators, pretty: bool) -> Iterator[str]:
    """The text of the basis (s_k, P_k) of nums in small pieces; joined,
    they are json.dumps([p.to_dict() for p in basis], indent=2) + "\n" for
    a non-empty basis, or one rendered element per line.  The JSON is
    written for to_dict's fixed shape, an element's terms 256 at a time:
    few writes, no Fraction, and no element's whole text in memory.  An
    element's terms are its codes in descending order, which is to_dict's
    graded-lex order, each coefficient str(Fraction(v, s)) by one gcd, and
    each distinct code's term head is made once per call."""
    codes, elems = nums
    if pretty:
        for s, p in elems:
            yield Polynomial(codes.d, p, _scale=s, _codes=codes).render() + "\n"
        return
    heads: dict[int, str] = {}
    gcd, tail = math.gcd, _TERM_TAIL
    yield "["
    for k, (s, p) in enumerate(elems):
        head = (",\n  {" if k else "\n  {") + f'\n    "dim": {codes.d},\n    "terms": '
        if not p:
            yield head + "[]\n  }"
            continue
        order = sorted(p, reverse=True)
        for c, e in codes.exponents(p.keys() - heads.keys()).items():
            heads[c] = _TERM_HEAD.format(_EXP_SEP.join(map(str, e)))
        yield head + "["
        for start in range(0, len(order), 256):
            texts = []
            for c in order[start : start + 256]:
                v = p[c]
                g = gcd(v, s)
                texts.append(f"{heads[c]}{v // g}{tail}" if g == s else f"{heads[c]}{v // g}/{s // g}{tail}")
            yield ("," if start else "") + ",".join(texts)
        yield "\n    ]\n  }"
    yield "\n]\n"


# Every JSON report and list is written as json.dumps(x, indent=2) writes
# it, by one encoder made once.
_REPORT = json.JSONEncoder(indent=2)


def _verdict(args, ok: bool, report: dict, *notes: str) -> int:
    """Every verdict's ending: the report as JSON to --out or stdout, each
    note a line of stderr, and the exit code of ok."""
    _emit(args, [_REPORT.encode(report) + "\n"])
    for msg in notes:
        print(msg, file=sys.stderr)
    return 0 if ok else 1


# -- the work guard (README.md, "Work guard") -----------------------------
#
# SECONDS_PER_CELL is measured on one core of a 2-vCPU x86-64 host under
# CPython 3.11.  The cells of drawing a table of scan (and 150 per entry of
# its full table) and of writing a term of a basis, past its integers'
# digits; and the cheap bound's seconds per visit, d + 3 of them per element
# of a build or slot of the closed form's product (_check_top).
WORK_BUDGET_S = 2.0
SECONDS_PER_CELL = 1e-7
SCAN_TABLE_CELLS = 2500
TERM_CELLS = 60
SECONDS_PER_VISIT = 4.5e-7


def _budget_cells() -> int:
    return int(WORK_BUDGET_S / SECONDS_PER_CELL)


def _check_top(what: str, spec: GeneralSpec) -> None:
    """The cheap bound: a build makes b_n + 1 elements and the closed
    form's product over slots a step per slot, so a spec with more than
    int(WORK_BUDGET_S / SECONDS_PER_VISIT) // (d + 3) of them is refused
    before any list of weights is made."""
    low = max(spec.top_weight, len(spec.entries)) + 1
    cap = int(WORK_BUDGET_S / SECONDS_PER_VISIT) // (spec.d + 3)
    if low > cap:
        raise CliError(f"{what}: the build makes at least {low:,} vectors x (d + 3), "
                       f"more than the {cap:,} of the {WORK_BUDGET_S:g} s budget")


def _require_at_least(args, **least: int) -> None:
    """Refuse any integer flag, named by its dest, below its least value."""
    for dest, low in least.items():
        if getattr(args, dest) < low:
            raise CliError(f"--{dest.replace('_', '-')} must be >= {low}, got {getattr(args, dest)}")


# -- subcommands -----------------------------------------------------------


def _cmd_basis(args) -> int:
    spec = _load(args.spec)
    if args.source == "recursive" and spec.a is None:
        raise CliError(f"{args.spec}: source 'recursive' needs a spec of table shape ({TABLE_SHAPE})")
    _check_top(args.spec, spec)
    nums = _build_numerators(args.source, spec)
    # The text is written as it is made, so its cost is charged first, and a
    # coefficient too long to write is looked for first (no longer than its
    # scale or its numerator): its error must leave no partial output.  A
    # term's d exponents are each a division of its code, and a line of text.
    codes = nums.codes
    width = codes.high.bit_length()
    cells, widths, exps = 0, [], fuel.digits(codes.d, width)
    for s, p in nums.elems:
        bits = max(s.bit_length(), *map(int.bit_length, p.values()))
        widths.append(bits)
        cells += len(p) * (TERM_CELLS + exps + fuel.cells(1, bits, bits))
    fuel.charge(cells, "writing the basis")
    limit = sys.get_int_max_str_digits()
    # Only an element whose widest integer has at least 3 * limit bits (10^limit has 3.32 * limit) can hold one past it.
    for (s, p), bits in zip(nums.elems, widths):
        if limit and bits >= 3 * limit:
            too_long = 10**limit
            if s >= too_long or any(abs(v) >= too_long for v in p.values()):
                q = Polynomial(codes.d, p, _scale=s, _codes=codes)
                (q.render if args.pretty else q.to_dict)()  # raises DigitLimitError on a term too long
    _emit(args, _basis_chunks(nums, args.pretty))
    return 0


def _build_numerators(source: str, spec: GeneralSpec) -> Numerators:
    """The numerators (s_k, P_k) of B_0..B_top by the builder of --source."""
    if source == "recursive":
        return _recursive_numerators(spec)
    build = _generating_elements if source == "general" else _closed_form_elements
    return build(spec.arc, spec.codes, spec.top_weight)


def _same_elements(x: Numerators, y: Numerators) -> bool:
    """Whether x and y, keyed by equal codecs, are the same basis: per
    element, P / s == Q / t termwise, cross-multiplied by t / g and s / g,
    g = gcd(s, t)."""
    if x.codes != y.codes:
        raise ValueError(f"numerators keyed by {x.codes!r} and by {y.codes!r}")
    if len(x.elems) != len(y.elems):
        return False
    for (s, p), (t, q) in zip(x.elems, y.elems):
        g = math.gcd(s, t)
        a, b = t // g, s // g
        if p.keys() != q.keys() or any(v * a != q[e] * b for e, v in p.items()):
            return False
    return True


def _compare_builders(spec: GeneralSpec) -> tuple[Numerators | None, dict[str, bool]]:
    """The recursive basis's numerators (None unless the spec is a table)
    and the report's builder comparisons: on a table, whether the explicit
    (closed-form) basis equals the recursive one and whether the one of the
    generating recurrence does; on any other spec, whether the recurrence's
    equals the closed form's.  The closed form is built first: its product
    over slots is charged a step at a time, so a spec past the budget is
    refused at the step that would pass it, before the other builders run."""
    exp = _build_numerators("explicit", spec)
    if spec.a is None:
        return None, {"generating_vs_general": _same_elements(exp, _build_numerators("general", spec))}
    rec = _build_numerators("recursive", spec)
    return rec, {
        "recursive_vs_explicit": _same_elements(exp, rec),
        "general_vs_recursive": _same_elements(_build_numerators("general", spec), rec),
    }


def _power_sums_hold(m: int) -> bool:
    """Whether the signed power sums of order m over j = 0..m are
    m! * [j == m], from node 0 and, for j >= 1, from node 1.  Node 0 adds
    (-1)^m at j = 0 and 0^j = 0 past it, so the sums from node 0 are the
    run from node 1 with (-1)^m added at j = 0: one run checks both."""
    sums, want = signed_power_sums(m, False), [0] * m + [math.factorial(m)]
    return sums[1:] == want[1:] and sums[0] + (-1) ** m == want[0]


def _cmd_verify(args) -> int:
    if args.basis and args.what != "closure":
        raise CliError(f"--basis is read by --what closure only, not --what {args.what}")
    if args.what == "identities":
        # Each bound with the least value that leaves its scan non-empty.
        _require_at_least(args, m_max=0, vand_max=0, r_max=1, i_max=2)
        m_max, vand_max = args.m_max, args.vand_max
        r_max, i_max = args.r_max, args.i_max
        ps_ok = all(_power_sums_hold(m) for m in range(m_max + 1))
        vand_ok = vandermonde_oracles(vand_max) == [stencil(m) for m in range(vand_max + 1)]
        # A node i >= r_max reads both lists after slot min(i, r) = r: one snapshot.
        nodes = range(2, min(i_max + 1, r_max))
        ff_ok = all(cap_i == cap_r for cap_i, cap_r in (falling_factorial_sums(r_max, i) for i in nodes))
        ok = ps_ok and vand_ok and ff_ok
        report = {
            "what": "identities",
            "power_sums": {"m_max": m_max, "ok": ps_ok},
            "vandermonde": {"m_max": vand_max, "ok": vand_ok},
            "falling_factorial": {"r_max": r_max, "i_max": i_max, "ok": ff_ok},
            "ok": ok,
        }
        return _verdict(
            args, ok, report,
            f"power sums (m <= {m_max}): {'ok' if ps_ok else 'FAIL'}",
            f"stencil vs elimination oracle (m <= {vand_max}): {'ok' if vand_ok else 'FAIL'}",
            f"falling-factorial cap identity (r <= {r_max}, i <= {i_max}): {'ok' if ff_ok else 'FAIL'}",
        )

    if not args.spec:
        raise CliError(f"verify --what {args.what} needs --spec")
    spec = _load(args.spec)
    if args.what == "closure" and args.basis:
        basis = _load(args.basis, basis=True)
        try:
            rep = check_closure(basis, spec)
        except ValueError as exc:
            raise CliError(f"{args.basis}: {exc}") from exc
    else:
        _check_top(args.spec, spec)
        if args.what == "equivalence":
            _, same = _compare_builders(spec)
            ok = all(same.values())
            return _verdict(args, ok, {"what": "equivalence", **same, "ok": ok}, f"equivalence: {'ok' if ok else 'FAIL'}")
        nums = _build_numerators("general", spec)
        if args.what == "breadth":
            value = breadth_numerators(nums)
            ok = value == 1
            degrees = [nums.codes.degree(max(p)) if p else -1 for _, p in nums.elems]
            return _verdict(args, ok, {"what": "breadth", "value": value, "degrees": degrees, "ok": ok},
                            f"breadth: {value} ({'ok' if ok else 'FAIL, expected 1'})")
        rep = check_closure_numerators(nums, spec)
    note = "closure: ok" if rep.ok else f"closure: FAIL at (element, variable) {list(rep.violations)}"
    return _verdict(args, rep.ok, {"what": "closure", **rep.to_dict()}, note)


def _cmd_points(args) -> int:
    spec = _load(args.spec)
    _check_top(args.spec, spec)
    pts = SCHEMES[args.scheme](spec, _parse_point(args.z0, spec.d))
    if args.h is not None:
        try:
            h = parse_rational(args.h)
        except _PARSE_ERRORS as exc:
            raise CliError(f"bad rational --h {args.h!r}: {exc}") from exc
        # Each point is evaluated and checked in turn, so a coordinate too
        # long to write stops the command at its point.
        rows = [[rational_text(v) for v in pt] for pt in pts.at(h)]
        if args.pretty:
            text = "".join("(" + ", ".join(row) + ")\n" for row in rows)
        else:
            text = _REPORT.encode(rows) + "\n"
    elif args.pretty:
        text = "".join("(" + ", ".join(coord.render(names=["h"]) for coord in pt) + ")\n" for pt in pts)
    else:
        text = _REPORT.encode(pts.to_dict()) + "\n"
    _emit(args, [text])
    return 0


def _scheme_inputs(args) -> tuple[Polynomial, tuple[Fraction, ...], SymbolicPointSet]:
    """f, z0 and the point set of --scheme, as limit and sweep take them."""
    spec = _load(args.spec)
    _check_top(args.spec, spec)
    f = _load_poly(args.f, spec.d)
    z0 = _parse_point(args.z0, spec.d)
    return f, z0, SCHEMES[args.scheme](spec, z0)


def _cmd_limit(args) -> int:
    f, z0, pts = _scheme_inputs(args)
    try:
        report = expansion_check(f, z0, args.m, pts)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return _verdict(args, report.passed, report.to_dict(),
                    f"limit check m={args.m} scheme {args.scheme}: {'pass' if report.passed else 'FAIL'}")


def _parse_h0(args) -> float:
    try:
        return float(parse_rational(args.h0))
    except _PARSE_ERRORS as exc:
        raise CliError(f"bad --h0 {args.h0!r}: {exc}") from exc


@contextlib.contextmanager
def _sweep_errors(args) -> Iterator[None]:
    """Turn the failures of a sweep, or of its step check, into CliError."""
    try:
        yield
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    except OverflowError as exc:
        raise CliError(f"float overflow in the sweep from --h0 {args.h0}; use a smaller --h0") from exc


def _cmd_sweep(args) -> int:
    f, z0, pts = _scheme_inputs(args)
    h0 = _parse_h0(args)
    with _sweep_errors(args):
        rows = sweep(f, z0, args.m, pts, h0=h0, steps=args.steps)
    _emit(args, [sweep_to_csv(rows)])
    return 0


_EXAMPLE_PARAMS = ParamTable(d=2, n=4, a={(2, 2): Fraction(2), (3, 2): Fraction(3), (4, 2): Fraction(4)})
_EXAMPLE_F = Polynomial.parse("x1^4 + x1^2*x2 + x2^2 + x1 + x2 + 1", 2)

_EXAMPLE_BASIS_TEXT = [
    "1",
    "x1",
    "1/2*x1^2 + 2*x2",
    "1/6*x1^3 + 2*x1*x2 + 3*x2",
    "1/24*x1^4 + x1^2*x2 + 3*x1*x2 + 2*x2^2 + 4*x2",
]

# Each point as printed, coordinates in h; render is canonical, so equal text is equal points.
_EXAMPLE_POINTS = {
    "a": ["(0, 0)", "(h, 4*h^4 + 3*h^3 + 2*h^2)", "(2*h, 64*h^4 + 24*h^3 + 8*h^2)",
          "(3*h, 324*h^4 + 81*h^3 + 18*h^2)", "(4*h, 1024*h^4 + 192*h^3 + 32*h^2)"],
    "b": ["(0, 0)", "(h, 0)", "(2*h, 4*h^2)", "(3*h, 18*h^3 + 12*h^2)", "(4*h, 96*h^4 + 72*h^3 + 24*h^2)"],
}


def _cmd_study(args) -> int:
    spec = _load(args.spec) if args.spec else _EXAMPLE_PARAMS
    if not args.f and spec.d != _EXAMPLE_F.dim:
        raise CliError(f"{args.spec}: the demo f is in {_EXAMPLE_F.dim} variables, the spec in {spec.d}; pass --f")
    _check_top(args.spec or "the demo table", spec)
    f = _load_poly(args.f, spec.d) if args.f else _EXAMPLE_F
    z0 = _parse_point(args.z0, spec.d)
    h0, orders = _parse_h0(args), range(spec.top_weight + 1)
    with _sweep_errors(args):
        # Every order's steps are checked as its sweep would check them, before any work.
        for m in orders:
            fuel.charge(min(args.steps, 1076), "the step checks")
            sweep_steps(h0, args.steps, m, spec.top_weight)
        # Every order's target is read off one arc, and every sweep runs before
        # anything is written, so bad input leaves no output.  A scheme's sweeps
        # share its points: order m makes only point m.
        exact, runs = arc(f, z0, spec, len(orders)), []
        for name, build in SCHEMES.items():
            pts = build(spec, z0)
            for m in orders:
                runs.append((name, m, sweep(f, z0, m, pts, h0=h0, steps=args.steps, target=exact[m])))
    out_dir = Path(args.out_dir)
    z0_text = ", ".join(str(c) for c in z0)
    if spec.a is not None:
        shape = f"table: d={spec.d} n={spec.n}"
    else:
        shape = f"general spec: d={spec.d} b={list(spec.b)}"
    lines = [
        f"{shape}, f = {f.render()}, z0 = ({z0_text})",
        f"{'scheme':>6} {'m':>3} {'exact':>14} {'final abs_err':>14} {'median order':>13}  csv",
    ]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, m, rows in runs:
            path = out_dir / f"scheme_{name}_m{m}.csv"
            path.write_text(sweep_to_csv(rows), encoding="utf-8")
            estimates = [r.est_order for r in rows if r.est_order is not None and r.abs_err > 1e-12]
            median = f"{statistics.median(estimates):.3f}" if estimates else "exact"
            lines.append(
                f"{name:>6} {m:>3} {rows[0].exact:>14.6g} {rows[-1].abs_err:>14.3e} {median:>13}  {path}"
            )
    except OSError as exc:
        raise CliError(f"cannot write to {args.out_dir}: {exc}") from exc
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


def _random_table(rng: random.Random, d_max: int, n_max: int) -> GeneralSpec:
    d, n = rng.randint(2, d_max), rng.randint(2, n_max)
    a = {
        (i, j): Fraction(rng.randint(-10, 10), rng.randint(1, 10))
        for i in range(2, n + 1)
        for j in range(2, d + 1)
        if rng.random() < 0.8
    }
    return ParamTable(d=d, n=n, a=a)


def _cmd_scan(args) -> int:
    _require_at_least(args, count=1, d_max=2, n_max=2)
    d_max, n_max = args.d_max, args.n_max
    rng = random.Random(args.seed)
    failures = []
    start = time.perf_counter()
    for k in range(args.count):
        # Charged for the full table of (--d-max, --n-max) before the draw, whose size it bounds.
        fuel.charge(SCAN_TABLE_CELLS + 150 * d_max * n_max, "drawing a table")
        t = _random_table(rng, d_max, n_max)
        rec, same = _compare_builders(t)
        closure = check_closure_numerators(rec, t)
        checks = (
            (same["recursive_vs_explicit"], "explicit != recursive"),
            (same["general_vs_recursive"], "general != recursive"),
            (closure.ok, f"closure violations {closure.violations}"),
            (breadth_numerators(rec) == 1, "breadth != 1"),
        )
        problems = [msg for passed, msg in checks if not passed]
        if problems:
            failures.append({"index": k, "table": t.to_dict(), "problems": problems})
    elapsed, bad = time.perf_counter() - start, len(failures)
    report = {"what": "scan", "count": args.count, "seed": args.seed, "failures": failures, "ok": not failures}
    return _verdict(args, not failures, report, f"checked {args.count} tables in {elapsed:.2f}s: {args.count - bad} ok, {bad} failed")


def _cmd_example1(args) -> int:
    params = _EXAMPLE_PARAMS
    failures: list[str] = []
    out: list[str] = []

    expected_basis = [Polynomial.parse(t, 2) for t in _EXAMPLE_BASIS_TEXT]
    out.append("basis (degrees 0..4):")
    for source in ("recursive", "explicit", "general"):
        got = list(numerator_basis(_build_numerators(source, params)))
        for k, (g, e) in enumerate(zip(got, expected_basis)):
            if g != e:
                failures.append(f"{source} element {k}: got {g.render()}, expected {e.render()}")
    for p in expected_basis:
        out.append(f"  {p.render()}")

    z0 = (Fraction(0), Fraction(0))
    point_sets = {tag: build_pts(params, z0) for tag, build_pts in SCHEMES.items()}
    for tag, pts in point_sets.items():
        out.append(f"scheme {tag} points:")
        for i, (pt, want) in enumerate(zip(pts, _EXAMPLE_POINTS[tag])):
            got = "(" + ", ".join(coord.render(names=["h"]) for coord in pt) + ")"
            out.append(f"  {got}")
            if got != want:
                failures.append(f"scheme {tag} point {i}: got {got}, expected {want}")

    out.append(f"limit checks for f = {_EXAMPLE_F.render()} at the origin:")
    for tag, pts in point_sets.items():
        for m in range(5):
            report = expansion_check(_EXAMPLE_F, z0, m, pts)
            status = "pass" if report.passed else "FAIL"
            out.append(f"  scheme {tag}, m={m}: {status} (lead {report.lead}, target {report.target})")
            if not report.passed:
                failures.append(f"expansion m={m} scheme {tag}: {report.to_dict()}")

    out.append("result: " + ("all checks passed" if not failures else "FAILURES"))
    _emit(args, ["".join(line + "\n" for line in out)])
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    return 0 if not failures else 1


# -- parser ----------------------------------------------------------------


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser, and each command's own parser by its name."""
    parser = argparse.ArgumentParser(
        prog="dinv",
        description="Exact construction and verification of breadth-one "
        "derivative-closed polynomial bases and their coalescing point schemes.",
        epilog="Exit codes: 0 all requested checks passed, 1 a check failed, "
        "2 bad input. scan takes its seed from --seed; DINV_SEED seeds the "
        "randomized test suite and is not read here.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="build a basis and print it as JSON (or --pretty text)")
    p.add_argument("--source", choices=("recursive", "explicit", "general"), required=True)
    p.add_argument("--spec", required=True, help="spec JSON file")
    p.add_argument("--out", help="write output here instead of stdout")
    p.add_argument("--pretty", action="store_true", help="human-readable polynomials")
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("verify", help="run exact checks; exit 0 iff all pass")
    p.add_argument("--what", choices=("closure", "equivalence", "breadth", "identities"), required=True)
    p.add_argument("--spec", help="spec JSON file (not needed for identities)")
    p.add_argument("--basis", help="closure only: check this basis JSON instead of rebuilding")
    p.add_argument("--m-max", dest="m_max", type=int, default=20, help="identities: power-sum scan bound")
    p.add_argument("--vand-max", dest="vand_max", type=int, default=12, help="identities: oracle scan bound")
    p.add_argument("--r-max", dest="r_max", type=int, default=8, help="identities: weight scan bound")
    p.add_argument("--i-max", dest="i_max", type=int, default=8, help="identities: node scan bound")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("points", help="emit the coalescing points of a scheme")
    p.add_argument("--scheme", choices=tuple(SCHEMES), required=True)
    p.add_argument("--spec", required=True, help="spec JSON file")
    p.add_argument("--z0", help="base point as comma-separated rationals (default origin)")
    p.add_argument("--h", help="evaluate at this rational step instead of printing symbolically")
    p.add_argument("--out", help="write output here instead of stdout")
    p.add_argument("--pretty", action="store_true", help="one point per line")
    p.set_defaults(func=_cmd_points)

    p = sub.add_parser("limit", help="exact h-expansion check at one order")
    p.add_argument("--spec", required=True, help="spec JSON file")
    p.add_argument("--f", required=True, help="polynomial file (JSON or text)")
    p.add_argument("--m", type=int, required=True, help="derivative order to check")
    p.add_argument("--scheme", choices=tuple(SCHEMES), required=True)
    p.add_argument("--z0", help="base point (default origin)")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("sweep", help="float h-sweep CSV of the scaled combination")
    p.add_argument("--spec", required=True, help="spec JSON file")
    p.add_argument("--f", required=True, help="polynomial file (JSON or text)")
    p.add_argument("--m", type=int, required=True, help="derivative order")
    p.add_argument("--scheme", choices=tuple(SCHEMES), required=True)
    p.add_argument("--z0", help="base point (default origin)")
    p.add_argument("--h0", default="1/4", help="starting step (rational or float, default 1/4)")
    p.add_argument("--steps", type=int, default=12, help="number of halvings (default 12)")
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("study", help="sweep every order under both schemes: CSVs plus a summary table")
    p.add_argument("--spec", help="spec JSON file (default: built-in demo table)")
    p.add_argument("--f", help="polynomial file, text or JSON (default: built-in demo)")
    p.add_argument("--z0", help="comma-separated rational base point (default: origin)")
    p.add_argument("--h0", default="1/4", help="initial step as a rational (default 1/4)")
    p.add_argument("--steps", type=int, default=12, help="number of halvings (default 12)")
    p.add_argument("--out-dir", dest="out_dir", default="convergence_out", help="directory for the CSV files")
    p.set_defaults(func=_cmd_study)

    p = sub.add_parser("scan", help="randomized three-way builder, closure and breadth scan")
    p.add_argument("--count", type=int, default=200, help="number of random tables (default 200)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--d-max", dest="d_max", type=int, default=4, help="max variable count (default 4)")
    p.add_argument("--n-max", dest="n_max", type=int, default=7, help="max top degree (default 7)")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("example1", help="reproduce and verify the built-in worked example")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=_cmd_example1)

    return parser, sub.choices


# Options whose value, a rational or a point, may start with a minus sign.
# argparse reads "--z0 -2,5" as --z0 missing its value, then an option, so
# main passes such a pair on as "--z0=-2,5".  Only a value whose second
# character is a digit or a point is joined: an option name after the
# flag is still refused.
_SIGNED_OPTIONS = frozenset({"--z0", "--h", "--h0"})
_SIGNED_VALUE = re.compile(r"-[0-9.]")


def _join_signed_values(argv: Sequence[str]) -> list[str]:
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _SIGNED_OPTIONS and _SIGNED_VALUE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """_parsers()[0].parse_args(argv): by argv[0]'s own parser when it
    names a command and that parser reads every argument, and otherwise by
    the full parser, so every usage error and help text is as it prints it."""
    full, commands = _parsers()
    if argv and argv[0] in commands:
        args, rest = commands[argv[0]].parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return full.parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse_args(_join_signed_values(sys.argv[1:] if argv is None else argv))
    fuel.arm(_budget_cells())
    try:
        return args.func(args)
    except (CliError, DigitLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except fuel.OutOfFuel as exc:
        command = f"verify --what {args.what}" if args.command == "verify" else args.command
        print(f"error: {command}: {exc} ({WORK_BUDGET_S:g} s)", file=sys.stderr)
        return 2
    finally:
        fuel.disarm()


if __name__ == "__main__":
    raise SystemExit(main())
