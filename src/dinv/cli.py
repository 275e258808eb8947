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
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .compositions import count_compositions
from .discretize import SCHEMES, SweepRow, expansion_check, stencil, sweep, sweep_to_csv
from .identities import falling_factorial_sums, signed_power_sums, vandermonde_oracle
from .poly import DigitLimitError, Polynomial, parse_rational, rational_text
from .subspace import (
    TABLE_SHAPE,
    BasisSequence,
    GeneralSpec,
    ParamTable,
    breadth,
    build_explicit,
    build_general,
    build_generating,
    build_recursive,
    check_closure,
    degrees,
)


class CliError(Exception):
    """Bad input or usage; message goes to stderr, exit code 2."""


# What a malformed number, basis or polynomial raises on its way in,
# besides ValueError: a zero denominator ("1/0") or a rational too large
# for a float (--h0 1e400).
_PARSE_ERRORS = (ValueError, ZeroDivisionError, OverflowError)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nesting too deep
        raise CliError(f"{path} is not valid JSON: {exc}") from exc


def _load_spec(path: str) -> GeneralSpec:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise CliError(f"{path}: expected a JSON object")
    try:
        return GeneralSpec.from_dict(data)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _load_basis(path: str) -> BasisSequence:
    data = _load_json(path)
    if not isinstance(data, list):
        raise CliError(f"{path}: expected a JSON array of polynomials")
    try:
        return BasisSequence.from_list(data)
    except _PARSE_ERRORS as exc:
        raise CliError(f"{path}: {exc}") from exc


def _load_poly(path: str, dim: int) -> Polynomial:
    """Polynomial file in dim variables: JSON object form, or the plain
    text form (whose ambient dimension is dim)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    stripped = text.strip()
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


def _emit(args, text: str) -> None:
    _emit_chunks(args, [text])


def _emit_chunks(args, chunks: Iterable[str]) -> None:
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


@functools.cache
def _power_of_ten(k: int) -> int:
    return 10 ** k


# One term of Polynomial.to_dict as json.dumps(..., indent=2) lays it out
# inside a list of elements, and the separator of its exponents.  The
# coefficient needs no escaping: rational_text writes only [-0-9/].
_TERM_JSON = '\n      {{\n        "exp": [\n          {}\n        ],\n        "coef": "{}"\n      }}'
_EXP_SEP = ",\n          "


def _basis_chunks(basis: Iterable[Polynomial], pretty: bool) -> Iterator[str]:
    """The text of basis in small pieces, one element's at a time; joined,
    they are json.dumps([p.to_dict() for p in basis], indent=2) + "\n" for
    a non-empty basis, or one rendered element per line.  The JSON is
    written for to_dict's fixed shape, an element's terms 256 at a time:
    few writes, and no element's whole text in memory."""
    if pretty:
        for p in basis:
            yield p.render() + "\n"
        return
    yield "["
    for k, p in enumerate(basis):
        head = (",\n  {" if k else "\n  {") + f'\n    "dim": {p.dim},\n    "terms": '
        terms = p.canonical_terms()
        if not terms:
            yield head + "[]\n  }"
            continue
        yield head + "["
        for start in range(0, len(terms), 256):
            yield ("," if start else "") + ",".join(
                _TERM_JSON.format(_EXP_SEP.join(map(str, e)), rational_text(c)) for e, c in terms[start : start + 256]
            )
        yield "\n    ]\n  }"
    yield "\n]\n"


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


# The closed-form builders (build_explicit, build_general) visit every count
# vector on the spec's nonzero weight slots of weight <= top; that number is
# compositions.count_compositions(top, slot weights).  A visit, with the
# other builders of the same command, costs about as much as d + 2 exponent
# entries, so a spec in d variables may have at most
# MAX_CLOSED_FORM_WORK // (d + 2) of them.  On one core of a 2-vCPU host,
# verify --what equivalence took 0.4 to 2.2 us per visit and per d + 2
# (full tables with d = 2..80, dense general specs with d = 1..4), so at
# most about 11 s at the bound; the largest accepted input measured, a
# d = 1 spec with b = (1, ..., 51) and 1,535,914 visits, took 10.2 s.
MAX_CLOSED_FORM_WORK = 5_000_000


def _check_closed_form_size(what: str, top: int, d: int, weights) -> None:
    """Refuse, before any build, a spec whose closed-form construction
    would visit more count vectors than its d allows.  weights() gives the
    weights of its nonzero slots; it is called only once top is in bounds
    (x1 has weight 1, so the walk visits at least top + 1 vectors)."""
    allowed = MAX_CLOSED_FORM_WORK // (d + 2)
    count = top + 1 if top + 1 > allowed else count_compositions(top, weights(), cap=allowed)
    if count > allowed:
        raise CliError(
            f"{what}: the closed-form construction would enumerate at least {count:,} compositions, "
            f"more than the {allowed:,} allowed in {d} variables ({MAX_CLOSED_FORM_WORK:,} / (d + 2))"
        )


# Every builder of B_0..B_top computes on integers of about the size of
# top! * max(D, N)^top, D the common denominator of the spec's c and N the
# largest of its numerators over D: the generating recurrence's E_top =
# top! * D^top * B_top is a sum of products of top of those numerators, over
# the scale top! * D^top.  Its terms number at most the count vectors of the
# closed-form walk.  So the work is predicted, before any build, as those
# visits times those decimal digits, and a spec may predict at most
# MAX_RECURRENCE_WORK.  On one core of a 2-vCPU host the slowest family per
# unit measured is d = 1 with b = (1, B) and c = (1, 1), whose few terms
# carry the most digits: at B = 5300 (9.2e7 predicted) verify took 5.2 s for
# equivalence, 2.9 s for closure and 2.9 s (38 MiB) for breadth, as a
# subprocess; building the basis is most of each.
# Full d = 6 tables predict 2.8e7 at n = 18 and 8.9e7 at n = 20.
MAX_RECURRENCE_WORK = 100_000_000


def _check_recurrence_size(what: str, spec: GeneralSpec) -> None:
    """Refuse, before any build, a spec whose predicted builder work
    (closed-form visits times the digits of top! * max(D, N)^top) exceeds
    MAX_RECURRENCE_WORK.  It reads spec.slots, which a table builds from
    its entries alone, so n may be far larger than the input."""
    top, (den, slots) = spec.top_weight, spec.slots
    big = max(den, max(abs(n_ij) for _, _, n_ij in slots))
    digits = int(math.lgamma(top + 1) / math.log(10) + top * math.log10(big)) + 1
    allowed = MAX_RECURRENCE_WORK // digits
    visits = count_compositions(top, [bj for bj, _, _ in slots], cap=allowed)
    if visits > allowed:
        raise CliError(
            f"{what}: building the basis would take at least {visits * digits:,} digit-steps "
            f"({visits:,} composition visits x {digits:,} digits of top! * max(D, N)^top), "
            f"more than the {MAX_RECURRENCE_WORK:,} allowed"
        )


# verify --what identities predicts its three scans, before any of them, in
# steps of one integer operation on up to 100 digits (one step per 100 digits
# on longer ones; m^m has about m * log10(m)): (m + 1)^2 + m^2 power-sum terms
# per m <= --m-max, (m + 1)^3 Vandermonde cells per m <= --vand-max, and the
# steps of the compositions recurrence behind the falling-factorial sums (see
# _falling_factorial_work).  A power-sum step is one product, a term carried
# from power j to j + 1.  On one core of a 2-vCPU host, each scan alone at the
# bound as a subprocess, a step took 0.05 us in the power sums (--m-max 166,
# 0.7 s) and 0.18 us in the Vandermonde cells (--vand-max 69, 1.9 s).  The
# falling-factorial scan, which runs only the nodes i < r_max, took at most
# 0.2 s at r = i (60), at r >> i (243, 2) and at i >> r (1, 1,250,000); so a
# run at the bound takes at most about 2 s.
MAX_IDENTITY_WORK = 10_000_000


def _falling_factorial_work(r_max: int, i_max: int) -> int:
    """An upper bound on the steps of the falling-factorial scan, in
    closed form.  It counts, per node i and weight r, two sums
    (falling_factorial_sum at cap = i and at cap = r), each of which fills a
    table of r + 1 entries and makes at most r slot passes of one base
    product and r - t + 1 updates at slot t: (r^2 + 5r + 2) / 2 steps.
    Over r <= r_max that is r_max * (r_max + 2) * (r_max + 7) / 3 per node.
    The scan makes one run of falling_factorial_sums, the steps of the
    single sum at r = r_max, and only at the nodes i < r_max (at i >= r_max
    its two lists are one snapshot), so the prediction is an upper bound.
    Every integer is below (2 * i)^r (at most 2^r partitions of r, each
    term below i^r), so a step counts one more per 100 digits of
    (2 * i_max)^r_max."""
    digits = int(r_max * math.log10(2 * i_max))
    return (i_max - 1) * r_max * (r_max + 2) * (r_max + 7) // 3 * (1 + digits // 100)


def _identity_work(m_max: int, vand_max: int, r_max: int, i_max: int, cap: int) -> int:
    """The predicted steps of the identity scans.  The power-sum and
    Vandermonde sums each stop once past cap, so the prediction is cheap,
    is then a lower bound above cap, and is monotone in every bound."""
    work = _falling_factorial_work(r_max, i_max)
    for top, cells in ((m_max, lambda m: (m + 1) ** 2 + m * m), (vand_max, lambda m: (m + 1) ** 3)):
        scan = 0
        for m in range(top + 1):
            scan += cells(m) * (1 + int(m * math.log10(m or 1)) // 100)
            if scan > cap:
                break
        work += scan
    return work


def _check_identity_size(m_max: int, vand_max: int, r_max: int, i_max: int) -> None:
    """Refuse, before any scan, bounds that predict more than MAX_IDENTITY_WORK steps."""
    work = _identity_work(m_max, vand_max, r_max, i_max, MAX_IDENTITY_WORK)
    if work > MAX_IDENTITY_WORK:
        raise CliError(
            f"verify --what identities: the scans would take at least {work:,} steps, "
            f"more than the {MAX_IDENTITY_WORK:,} allowed"
        )


def _require_at_least(args, **least: int) -> None:
    """Refuse any integer flag, named by its dest, below its least value."""
    for dest, low in least.items():
        if getattr(args, dest) < low:
            raise CliError(f"--{dest.replace('_', '-')} must be >= {low}, got {getattr(args, dest)}")


# -- subcommands -----------------------------------------------------------


def _cmd_basis(args) -> int:
    spec = _load_spec(args.spec)
    if args.source == "recursive" and spec.a is None:
        raise CliError(f"{args.spec}: source 'recursive' needs a spec of table shape ({TABLE_SHAPE})")
    if args.source == "explicit":
        _check_closed_form_size(args.spec, spec.top_weight, spec.d, lambda: [bj for bj, _, _ in spec.slots[1]])
    _check_recurrence_size(args.spec, spec)
    build = {"recursive": build_recursive, "explicit": build_explicit, "general": build_generating}[args.source]
    basis = build(spec)
    # The text is written as it is made, so a coefficient too long to
    # write is looked for first: its error must leave no partial output.
    limit = sys.get_int_max_str_digits()
    if limit:
        too_long = _power_of_ten(limit)
        for p in basis:
            if any(abs(v.numerator) >= too_long or v.denominator >= too_long for v in p.terms.values()):
                (p.render if args.pretty else p.to_dict)()  # raises DigitLimitError
    _emit_chunks(args, _basis_chunks(basis, args.pretty))
    return 0


def _compare_builders(params: GeneralSpec) -> tuple[BasisSequence, bool, bool]:
    """The recursive basis, whether the explicit (closed-form) one equals it,
    and whether the one of the generating recurrence does."""
    rec = build_recursive(params)
    rec_vs_exp = build_explicit(params).elements == rec.elements
    gen_vs_rec = build_generating(params).elements == rec.elements
    return rec, rec_vs_exp, gen_vs_rec


def _cmd_verify(args) -> int:
    if args.what == "identities":
        # Each bound with the least value that leaves its scan non-empty.
        _require_at_least(args, m_max=0, vand_max=0, r_max=1, i_max=2)
        m_max, vand_max = args.m_max, args.vand_max
        r_max, i_max = args.r_max, args.i_max
        _check_identity_size(m_max, vand_max, r_max, i_max)
        # The sums of order m over j = 0..m are m! * [j == m], from j = 1
        # when the i = 0 term is left out.
        ps_ok = all(
            signed_power_sums(m, include_zero)[low:] == ([0] * m + [math.factorial(m)])[low:]
            for m in range(m_max + 1)
            for include_zero, low in ((True, 0), (False, 1))
        )
        vand_ok = all(vandermonde_oracle(m) == stencil(m).coeffs for m in range(vand_max + 1))
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
        _emit(args, json.dumps(report, indent=2) + "\n")
        _note(f"power sums (m <= {m_max}): {'ok' if ps_ok else 'FAIL'}")
        _note(f"stencil vs elimination oracle (m <= {vand_max}): {'ok' if vand_ok else 'FAIL'}")
        _note(f"falling-factorial cap identity (r <= {r_max}, i <= {i_max}): {'ok' if ff_ok else 'FAIL'}")
        return 0 if ok else 1

    if not args.spec:
        raise CliError(f"verify --what {args.what} needs --spec")
    spec = _load_spec(args.spec)

    if args.what == "closure":
        if args.basis:
            basis = _load_basis(args.basis)
        else:
            _check_recurrence_size(args.spec, spec)
            basis = build_generating(spec)
        try:
            rep = check_closure(basis, spec)
        except ValueError as exc:
            raise CliError(f"{args.basis}: {exc}") from exc
        _emit(args, json.dumps({"what": "closure", **rep.to_dict()}, indent=2) + "\n")
        _note("closure: ok" if rep.ok else f"closure: FAIL at (element, variable) {list(rep.violations)}")
        return 0 if rep.ok else 1

    if args.what == "equivalence":
        _check_closed_form_size(args.spec, spec.top_weight, spec.d, lambda: [bj for bj, _, _ in spec.slots[1]])
        _check_recurrence_size(args.spec, spec)
        if spec.a is None:
            ok = build_generating(spec).elements == build_general(spec).elements
            report = {"what": "equivalence", "generating_vs_general": ok, "ok": ok}
        else:
            _, rec_vs_exp, gen_vs_rec = _compare_builders(spec)
            ok = rec_vs_exp and gen_vs_rec
            report = {
                "what": "equivalence",
                "recursive_vs_explicit": rec_vs_exp,
                "general_vs_recursive": gen_vs_rec,
                "ok": ok,
            }
        _emit(args, json.dumps(report, indent=2) + "\n")
        _note("equivalence: ok" if ok else "equivalence: FAIL")
        return 0 if ok else 1

    if args.what == "breadth":
        _check_recurrence_size(args.spec, spec)
        basis = build_generating(spec)
        value = breadth(list(basis))
        ok = value == 1
        report = {
            "what": "breadth",
            "value": value,
            "degrees": list(degrees(basis)),
            "ok": ok,
        }
        _emit(args, json.dumps(report, indent=2) + "\n")
        _note(f"breadth: {value} ({'ok' if ok else 'FAIL, expected 1'})")
        return 0 if ok else 1

    raise CliError(f"unknown verification {args.what!r}")


def _cmd_points(args) -> int:
    spec = _load_spec(args.spec)
    _check_recurrence_size(args.spec, spec)
    pts = SCHEMES[args.scheme](spec, _parse_point(args.z0, spec.d))
    if args.h is not None:
        try:
            h = parse_rational(args.h)
        except _PARSE_ERRORS as exc:
            raise CliError(f"bad rational --h {args.h!r}: {exc}") from exc
        # Each point is written out before the next is evaluated, so a
        # coordinate too long to write stops the command at its point.
        rows = [[rational_text(v) for v in pt] for pt in pts.at(h)]
        if args.pretty:
            text = "".join("(" + ", ".join(row) + ")\n" for row in rows)
        else:
            text = json.dumps(rows, indent=2) + "\n"
    else:
        if args.pretty:
            text = "".join(
                "(" + ", ".join(coord.render(names=["h"]) for coord in pt) + ")\n"
                for pt in pts.points
            )
        else:
            text = json.dumps(pts.to_dict(), indent=2) + "\n"
    _emit(args, text)
    return 0


# limit, sweep and study evaluate every term x^e of f at z0 exactly: the
# h^0 coefficient of the limit check's series and the target (B_m(D)f)(z0)
# carry prod_i z0_i^(e_i).  The decimal digits of its numerator and
# denominator are predicted from the logarithms of z0's, with no power
# computed, and a run may predict at most MAX_POWER_DIGITS.  Python writes
# at most 4300 digits of an integer as text and a float holds about 308, so
# a result that can be printed is well inside the bound.  On one core of a
# 2-vCPU host, at the bound (z0 = 3/2,3/2 and f = x1^20959), limit --m 4 on
# the demo table took 0.4 s and limit --m 12 on a d = 2 spec with
# b = (1, 12) took 3.8 s (4.9 to 5.7 s with f = x1^10479*x2^10479): the
# work grows with the square of m and with f's terms too.
MAX_POWER_DIGITS = 10_000


def _power_digits(f: Polynomial, z0: Sequence[Fraction]) -> int:
    """Predicted decimal digits of the largest numerator or denominator of
    prod_i z0_i^(e_i) over f's terms x^e."""
    logs = [(math.log10(abs(v.numerator) or 1), math.log10(v.denominator)) for v in z0]
    return max(
        (int(sum(ei * lg[part] for ei, lg in zip(e, logs))) + 1 for e in f.terms for part in (0, 1)),
        default=1,
    )


def _check_power_size(f: Polynomial, z0: Sequence[Fraction]) -> None:
    """Refuse, before any series or target work, an f whose terms raise z0
    to more than MAX_POWER_DIGITS digits."""
    digits = _power_digits(f, z0)
    if digits > MAX_POWER_DIGITS:
        raise CliError(
            f"z0 raised to the exponents of f's terms would have about {digits:,} digits, "
            f"more than the {MAX_POWER_DIGITS:,} allowed"
        )


def _scheme_inputs(args):
    """f, z0 and the point set of --scheme, as limit and sweep take them."""
    spec = _load_spec(args.spec)
    _check_recurrence_size(args.spec, spec)
    f = _load_poly(args.f, spec.d)
    z0 = _parse_point(args.z0, spec.d)
    _check_power_size(f, z0)
    return f, z0, SCHEMES[args.scheme](spec, z0)


def _cmd_limit(args) -> int:
    f, z0, pts = _scheme_inputs(args)
    try:
        report = expansion_check(f, z0, args.m, pts)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _emit(args, json.dumps(report.to_dict(), indent=2) + "\n")
    _note(f"limit check m={args.m} scheme {args.scheme}: {'pass' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _sweep_rows(args, f: Polynomial, z0, m: int, pts) -> list[SweepRow]:
    """sweep() from --h0 and --steps, its failures turned into CliError."""
    try:
        h0 = float(parse_rational(args.h0))
    except _PARSE_ERRORS as exc:
        raise CliError(f"bad --h0 {args.h0!r}: {exc}") from exc
    try:
        return sweep(f, z0, m, pts, h0=h0, steps=args.steps)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    except OverflowError as exc:
        raise CliError(f"float overflow in the sweep from --h0 {args.h0}; use a smaller --h0") from exc


def _cmd_sweep(args) -> int:
    f, z0, pts = _scheme_inputs(args)
    _emit(args, sweep_to_csv(_sweep_rows(args, f, z0, args.m, pts)))
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
    spec = _load_spec(args.spec) if args.spec else _EXAMPLE_PARAMS
    _check_recurrence_size(args.spec or "the demo table", spec)
    f = _load_poly(args.f, spec.d) if args.f else _EXAMPLE_F
    z0 = _parse_point(args.z0, spec.d)
    _check_power_size(f, z0)
    # Every sweep runs before anything is written, so bad input leaves no output.
    runs = []
    for name, build in SCHEMES.items():
        pts = build(spec, z0)
        runs += [(name, m, _sweep_rows(args, f, z0, m, pts)) for m in range(len(pts.points))]
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
            orders = [r.est_order for r in rows if r.est_order is not None and r.abs_err > 1e-12]
            median = f"{statistics.median(orders):.3f}" if orders else "exact"
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
    _check_closed_form_size(
        f"scan --d-max {d_max} --n-max {n_max} (a full table of that size)", n_max, d_max,
        lambda: [1] + [j for j in range(2, n_max + 1) for _ in range(d_max - 1)],
    )
    rng = random.Random(args.seed)
    failures = []
    start = time.perf_counter()
    for k in range(args.count):
        t = _random_table(rng, args.d_max, args.n_max)
        rec, rec_vs_exp, gen_vs_rec = _compare_builders(t)
        closure = check_closure(rec, t)
        checks = (
            (rec_vs_exp, "explicit != recursive"),
            (gen_vs_rec, "general != recursive"),
            (closure.ok, f"closure violations {closure.violations}"),
            (breadth(list(rec)) == 1, "breadth != 1"),
        )
        problems = [msg for passed, msg in checks if not passed]
        if problems:
            failures.append({"index": k, "table": t.to_dict(), "problems": problems})
    elapsed, bad = time.perf_counter() - start, len(failures)
    report = {"what": "scan", "count": args.count, "seed": args.seed, "failures": failures, "ok": not failures}
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    _note(f"checked {args.count} tables in {elapsed:.2f}s: {args.count - bad} ok, {bad} failed")
    return 1 if failures else 0


def _cmd_example1(args) -> int:
    params = _EXAMPLE_PARAMS
    failures: list[str] = []
    out: list[str] = []

    expected_basis = [Polynomial.parse(t, 2) for t in _EXAMPLE_BASIS_TEXT]
    out.append("basis (degrees 0..4):")
    for source, build in (("recursive", build_recursive), ("explicit", build_explicit)):
        got = list(build(params))
        for k, (g, e) in enumerate(zip(got, expected_basis)):
            if g != e:
                failures.append(f"{source} element {k}: got {g.render()}, expected {e.render()}")
    for p in expected_basis:
        out.append(f"  {p.render()}")

    z0 = (Fraction(0), Fraction(0))
    point_sets = {tag: build_pts(params, z0) for tag, build_pts in SCHEMES.items()}
    for tag, pts in point_sets.items():
        out.append(f"scheme {tag} points:")
        for i, (pt, want) in enumerate(zip(pts.points, _EXAMPLE_POINTS[tag])):
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
    _emit(args, "".join(line + "\n" for line in out))
    for msg in failures:
        _note(f"FAIL: {msg}")
    return 0 if not failures else 1


# -- parser ----------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
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

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, DigitLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
