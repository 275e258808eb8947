"""Benchmark of the dinv exact verifier.

    python3 bench/run.py --workload tables --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  One process, one thread, closed loop: each case starts when the
previous one has finished.

Phases:

  1. set-up, SETUP_REPS times: import `dinv` afresh, generate the
     seeded inputs and write the input files.  `setup_s` is the median.
  2. warm-up: cases in order, untimed, for up to WARMUP_S seconds or one
     pass.
  3. timed phase: whole passes over the cases until `--seconds` have
     passed.  Every case's verdict must equal its expected verdict, and
     every pass must produce the same output digest.
  4. with `--trace 1`, one more pass with every layer module wrapped by
     `spans.Tracer`; the per-layer metrics come from it, and its digest
     must equal the untraced one.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics (the end-to-end metrics with `--trace 0`, the per-layer ones
with `--trace 1`).  The exit code is 0 when every case was correct, 1 when
one was not, 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Set-up lasts from 30 ms to 0.3 s depending on the workload; the median
# of SETUP_REPS samples is what keeps it steady.
SETUP_REPS = 11
WARMUP_S = 2.0

# The speed of a shared host can swing by 1.5x for seconds to minutes at
# a time (a plain Python loop shows it too), more than the differences
# the benchmark must resolve.  So every time is normalised: a fixed
# pure-Python probe runs between cases, at most every PROBE_EVERY_S
# seconds, and a raw time t from t0 to t1 counts as t * PROBE_REF_S / p,
# where p is the median time of the probes run from t0 - PROBE_WINDOW_S
# to t1 + PROBE_WINDOW_S (at least three, the nearest ones if fewer fall
# in that window).  Times are thus in units of the probe, scaled so that
# they read as seconds on a machine where the probe takes PROBE_REF_S.
# The probe shares no code with dinv.
PROBE_EVERY_S = 0.1
PROBE_WINDOW_S = 1.0
PROBE_REF_S = 0.001


_BIG_NUM, _BIG_DEN = 7 ** 250, 3 ** 300


def _probe() -> tuple[Fraction, Fraction]:
    """About 1 ms of the kinds of work dinv does: small Fractions, dicts
    keyed by tuples, and Fractions of thousands of bits."""
    small, seen = Fraction(0), {}
    for i in range(1, 100):
        small += Fraction(i, i + 7) * Fraction(3, i + 1)
        seen[(i, i % 7)] = small
    big = Fraction(0)
    for i in range(1, 12):
        big += Fraction(_BIG_NUM + i, _BIG_DEN - i)
    return small, big


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []

    def tick(self) -> None:
        """Run the probe if it is due."""
        now = time.perf_counter()
        if not self.times or now - self.times[-1] >= PROBE_EVERY_S:
            _probe()
            self.times.append(now)
            self.durations.append(time.perf_counter() - now)

    def factor(self, t0: float, t1: float) -> float:
        """PROBE_REF_S over the probe time around the interval t0..t1."""
        lo = bisect.bisect_left(self.times, t0 - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + PROBE_WINDOW_S)
        lo = max(0, min(lo, hi - 3))
        hi = max(hi, min(lo + 3, len(self.times)))
        return PROBE_REF_S / statistics.median(self.durations[lo:hi])


def _fresh_import():
    for name in [m for m in sys.modules if m == "dinv" or m.startswith("dinv.")]:
        del sys.modules[name]
    dinv = importlib.import_module("dinv")
    return dinv, importlib.import_module("dinv.cli")


def setup(workload: str, seed: int, workdir: Path, smoke: bool):
    """Time repeated set-ups; return the cases of the last one, the loaded
    package and the median set-up time."""
    from workloads import WORKLOADS

    spans = []
    speed = SpeedProbe()
    for _ in range(1 if smoke else SETUP_REPS):
        gc.collect()  # the previous import's modules, so that memory stays flat
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        speed.tick()
        t0 = time.perf_counter()
        dinv, cli = _fresh_import()
        cases = WORKLOADS[workload](dinv, cli, seed, str(workdir), smoke)
        spans.append((t0, time.perf_counter()))
    speed.tick()
    times = [(t1 - t0) * speed.factor(t0, t1) for t0, t1 in spans]
    return cases, dinv, statistics.median(times)


class Pass:
    """Outcome of one pass over the cases."""

    def __init__(self):
        self.spans: list[tuple[float, float]] = []  # start and end of each case
        self.raw: list[float] = []
        self.latencies: list[float] = []  # normalised, see PROBE_REF_S
        self.failed = 0
        self.digest = hashlib.sha256()


def run_pass(cases, speed: SpeedProbe, tracer=None, stop_after: float | None = None) -> Pass:
    result = Pass()
    start = time.perf_counter()
    for idx, case in enumerate(cases):
        speed.tick()
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = case.run()
            error = None
        except Exception:  # a case that raises counts as failed
            error = traceback.format_exc()
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.active = False
        result.spans.append((t0, t1))
        result.raw.append(t1 - t0)
        if error is None:
            try:
                verdict, text = case.check(out)
            except Exception:
                verdict, text, error = None, "", traceback.format_exc()
        if error is not None or verdict != case.expected:
            result.failed += 1
            if result.failed <= 3:
                detail = error or f"verdict {verdict!r}, expected {case.expected!r}"
                print(f"FAIL case {idx} ({case.kind}): {detail}", file=sys.stderr)
        else:
            result.digest.update(f"{idx} {case.kind}\n{text}\n".encode())
        if stop_after is not None and time.perf_counter() - start >= stop_after:
            break
    speed.tick()
    result.latencies = [(t1 - t0) * speed.factor(t0, t1) for t0, t1 in result.spans]
    return result


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes, attempted, failed, setup_s) -> dict:
    """Throughput over all case time; latency percentiles over the cases,
    each taken as its median over the passes, so that they rank the same
    cases whatever the number of passes."""
    busy = sum(sum(p.latencies) for p in passes)
    per_case = [statistics.median(times) for times in zip(*(p.latencies for p in passes))]
    return {
        "setup_s": (setup_s, "s"),
        "cases_per_s": (attempted / busy, "1/s"),
        "case_p50_ms": (1000 * statistics.median(per_case), "ms"),
        "case_p90_ms": (1000 * quantile(per_case, 90), "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
    }


# Span names summed into each per-layer self-time metric.
SELF_TIME_METRICS = {
    "subspace.build_general.self_s": ["subspace.build_general", "subspace.enumerate_weight_solutions"],
    "subspace.build_explicit.self_s": ["subspace.build_explicit"],
    "subspace.build_recursive.self_s": ["subspace.build_recursive"],
    "subspace.check_closure.self_s": ["subspace.check_closure"],
    "subspace.breadth.self_s": ["subspace.breadth"],
    "linalg.rref.self_s": ["linalg.rref"],
    "poly.compose.self_s": ["poly.compose"],
    "poly.diff.self_s": ["poly.diff"],
    "poly.apply_at.self_s": ["poly.apply_at"],
    "discretize.expansion_check.self_s": ["discretize.expansion_check"],
    "discretize.points.self_s": ["discretize.points_scheme_a", "discretize.points_scheme_b"],
}

CALL_METRICS = {
    "subspace.build_recursive.calls": "subspace.build_recursive",
    "subspace.span_contains.calls": "subspace.span_contains",
    "linalg.rref.calls": "linalg.rref",
    "poly.compose.calls": "poly.compose",
    "discretize.expansion_check.calls": "discretize.expansion_check",
    "cli.main.calls": "cli.main",
}


def per_layer(tracer, traced_raw: float, overhead_ratio: float) -> dict:
    """Metrics of the traced pass; self times are raw seconds, like the
    spans, and `traced_raw` is the raw case time of that pass."""
    from spans import LAYERS

    self_s, top, excluded_top = tracer.self_times()
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (sum(v for k, v in self_s.items() if k.split(".")[0] == layer), "s")
    metrics["bench.self_s"] = (traced_raw - top - excluded_top, "s")
    for name, spans in SELF_TIME_METRICS.items():
        metrics[name] = (sum(self_s.get(s, 0.0) for s in spans), "s")
    for name, span in CALL_METRICS.items():
        metrics[name] = (tracer.calls[span], "count")
    metrics["compositions.enumerated"] = (tracer.enumerated, "count")
    ratio = tracer.useful / tracer.enumerated if tracer.enumerated else 0.0
    metrics["compositions.useful_ratio"] = (ratio, "ratio")
    metrics["linalg.rref.cells"] = (tracer.rref_cells, "count")
    metrics["poly.constructed"] = (tracer.constructed, "count")
    metrics["poly.terms_max"] = (tracer.terms_max, "count")
    metrics["poly.coef_bits_max"] = (tracer.coef_bits_max, "bits")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up, no warm-up")
    args = parser.parse_args(argv)

    if not (SRC / "dinv" / "__init__.py").is_file():
        print(f"error: no dinv package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = BENCH_DIR / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        cases, dinv, setup_s = setup(args.workload, args.seed, workdir, args.smoke)
        if not Path(dinv.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"error: imported dinv from {dinv.__file__}, not from {SRC}", file=sys.stderr)
            return 2

        speed = SpeedProbe()
        if not args.smoke:
            run_pass(cases, speed, stop_after=WARMUP_S)

        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(run_pass(cases, speed))

        latencies = [dt for p in passes for dt in p.latencies]
        attempted = len(latencies)
        failed = sum(p.failed for p in passes)
        digests = {p.digest.hexdigest() for p in passes}
        correct = failed == 0 and len(digests) == 1

        raw = [dt for p in passes for dt in p.raw]
        print(f"workload {args.workload} seed {args.seed}: python {platform.python_version()}, "
              f"nproc {os.cpu_count()}, {len(cases)} cases x {len(passes)} passes")
        print(f"raw case time {sum(raw):.3f} s, raw cases_per_s {len(raw) / sum(raw):.6g}, "
              f"probe median {1000 * statistics.median(speed.durations):.4f} ms (reference {1000 * PROBE_REF_S} ms)")
        print(f"digest {args.workload} {sorted(digests)[0]}")
        if len(digests) > 1:
            print(f"error: {len(digests)} different output digests across passes", file=sys.stderr)

        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                traced = run_pass(cases, speed, tracer=tracer)
            finally:
                tracer.restore()
            failed += traced.failed
            attempted += len(traced.latencies)
            correct = correct and traced.failed == 0 and traced.digest.hexdigest() in digests
            overhead = sum(traced.latencies) / (sum(latencies) / len(passes))
            metrics = per_layer(tracer, sum(traced.raw), overhead)
            out_dir = BENCH_DIR / "_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(str(out_dir / f"spans-{args.workload}.tsv"))
        else:
            metrics = end_to_end(passes, attempted, failed, setup_s)

        for name, (value, unit) in metrics.items():
            print(f"{name:40s} {value:14.6g} {unit}")
        if args.trace:
            layers = {n: v for n, (v, _) in metrics.items() if n.count(".") == 1 and n.endswith(".self_s")}
            total = sum(layers.values())
            print("self-time shares: " + ", ".join(
                f"{n[:-7]} {100 * v / total:.1f}%" for n, v in sorted(layers.items(), key=lambda kv: -kv[1])
            ))
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
