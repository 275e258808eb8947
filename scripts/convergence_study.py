#!/usr/bin/env python3
"""Convergence study: float h-sweeps for every derivative order and both
point schemes.

For a parameter table (a JSON file, or a built-in demo table) the script
runs the stencil combination against the exact functional value for each
order m = 0..n under both coalescing schemes, writes one CSV per
(scheme, m) pair and prints a summary table of final errors and observed
convergence rates.

Examples:
    python3 scripts/convergence_study.py --out-dir /tmp/study
    python3 scripts/convergence_study.py --spec table.json --f f.txt \
        --z0 1,2 --h0 1/8 --steps 16 --out-dir results
"""

from __future__ import annotations

import argparse
import statistics
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dinv import sweep, sweep_to_csv
from dinv.cli import (
    _EXAMPLE_F,
    _EXAMPLE_PARAMS,
    CliError,
    _load_poly,
    _load_spec,
    _parse_point,
    _require_params,
)
from dinv.discretize import SCHEMES


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spec", help="parameter table JSON (default: built-in demo table)")
    ap.add_argument("--f", help="polynomial file, text or JSON (default: built-in demo)")
    ap.add_argument("--z0", help="comma-separated rational base point (default: origin)")
    ap.add_argument("--h0", default="1/4", help="initial step as a rational (default 1/4)")
    ap.add_argument("--steps", type=int, default=12, help="number of halvings (default 12)")
    ap.add_argument("--out-dir", default="convergence_out", help="directory for the CSV files")
    args = ap.parse_args(argv)
    try:
        return _study(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _study(args) -> int:
    table = _require_params(_load_spec(args.spec), args.spec) if args.spec else _EXAMPLE_PARAMS
    f = _load_poly(args.f, table.d) if args.f else _EXAMPLE_F
    z0 = _parse_point(args.z0, table.d)
    try:
        h0 = float(Fraction(args.h0))
    except ValueError as exc:
        raise CliError(f"bad --h0 {args.h0!r}: {exc}") from exc
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    z0_text = ", ".join(str(c) for c in z0)
    print(f"table: d={table.d} n={table.n}, f = {f.render()}, z0 = ({z0_text})")
    print(f"{'scheme':>6} {'m':>3} {'exact':>14} {'final abs_err':>14} {'median order':>13}  csv")
    for name, build in SCHEMES.items():
        pts = build(table, z0)
        for m in range(table.n + 1):
            try:
                rows = sweep(f, z0, m, pts, h0=h0, steps=args.steps)
            except ValueError as exc:
                raise CliError(str(exc)) from exc
            path = out_dir / f"scheme_{name}_m{m}.csv"
            path.write_text(sweep_to_csv(rows), encoding="utf-8")
            orders = [r.est_order for r in rows if r.est_order is not None and r.abs_err > 1e-12]
            median = f"{statistics.median(orders):.3f}" if orders else "exact"
            print(
                f"{name:>6} {m:>3} {rows[0].exact:>14.6g} {rows[-1].abs_err:>14.3e} "
                f"{median:>13}  {path}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
