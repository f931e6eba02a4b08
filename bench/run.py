"""Benchmark of the upsilon package: one workload, one process, closed loop.

    python3 bench/run.py --workload torus-large --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's operations, one at a time on one
thread, until the operations have taken ``--seconds`` of wall time; every
output is checked exactly against the independent reference in
``reference.py``.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with timings
scaled to a reference machine speed (see below; the line before the JSON
gives the raw wall-time figures too); with ``--trace 1`` each operation
runs once untraced and once with the tracer installed, the metrics are the
per-layer ones, and the spans are written to ``.bench_out/``.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

SETUP_REPEATS = 21
SETUP_CAL_S = 0.01
# Run in a fresh interpreter: time the package import, then calibrate in
# the same process (see below) and print both.
IMPORT_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import upsilon, upsilon.cli\n"
    "elapsed = time.perf_counter() - t\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from run import calibrate\n"
    "print(elapsed, *calibrate(float(sys.argv[3])))\n"
)

# Machine-speed scaling.  On the shared 2-core machine the figures in
# README.md come from, the speed one process gets drifts by tens of percent
# within a minute, and raw wall times of ten runs spread past the bounds in
# BENCHMARK.json (README.md has both sets of figures).  Between operations
# the benchmark runs a fixed calibration unit (pure-Python Fraction sums,
# like the package's own work) for at least CAL_MIN_UNITS units and at least
# CAL_SHARE of the preceding operation's time.  Each reported timing is the
# wall time scaled by REF_UNIT_S / (seconds per unit in the windows on
# either side of it): it reads as the time the operation would take on a
# machine where one unit takes REF_UNIT_S, about the quiet speed of that
# machine.  The units run in this process, right after the operation, which
# tracks the machine's speed far better than a separate interpreter does
# (README.md); the price is that a program that leaves this process slower
# for everything after it would hide part of that cost.  The raw wall-time
# figures are printed on the summary line.
CAL_MIN_UNITS = 2
CAL_SHARE = 0.5
REF_UNIT_S = 0.0005

# A run also ends, after a whole round, once its wall time with checks and
# calibration reaches this many times --seconds: checking costs the same
# however fast the program is, so a much faster program is checked more
# than it is timed, and the run must still end in bounded time.
MAX_WALL_FACTOR = 4


def _calibration_unit() -> Fraction:
    total = Fraction(0)
    for i in range(1, 201):
        total += Fraction(1, i % 97 + 1)
    return total


def calibrate(min_seconds: float = 0.0) -> tuple[float, int]:
    """Run calibration units; returns (seconds, units).  The collector is
    off meanwhile, so that the heap the program left does not slow them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        units, start = 0, perf_counter()
        while True:
            _calibration_unit()
            units += 1
            elapsed = perf_counter() - start
            if units >= CAL_MIN_UNITS and elapsed >= min_seconds:
                return elapsed, units
    finally:
        if enabled:
            gc.enable()


def _scale(elapsed: float, before: tuple, after: tuple) -> float:
    return elapsed * REF_UNIT_S * (before[1] + after[1]) / (before[0] + after[0])


def measure_setup(src: Path) -> tuple[float, float]:
    """Median import time of the package in fresh interpreters, raw and
    scaled; each interpreter scales its own import time by a calibration
    window run right after the import.

    One unmeasured import goes first, so that the bytecode cache it writes
    is in place for every measured one.
    """
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", IMPORT_CODE, str(src), str(HERE), str(SETUP_CAL_S)],
            capture_output=True, text=True, timeout=120, check=True)
        elapsed, cal_s, units = done.stdout.split()
        raw.append(float(elapsed))
        scaled.append(float(elapsed) * REF_UNIT_S * int(units) / float(cal_s))
    return statistics.median(raw[1:]), statistics.median(scaled[1:])


def import_package(src: Path) -> dict:
    sys.path.insert(0, str(src))
    import upsilon  # noqa: F401
    import upsilon.cli
    import upsilon.knots
    import upsilon.verify
    return {"cli": upsilon.cli, "knots": upsilon.knots, "verify": upsilon.verify}


def _attempt(op):
    start = perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # a failed operation is counted, not fatal
        result = exc
    return result, perf_counter() - start


def run(workload, seconds: float, tracer=None) -> dict:
    """Attempt whole rounds until the operations have used ``seconds`` of
    wall time (or the run has used MAX_WALL_FACTOR times that).

    Untraced, every operation is followed by a calibration window and its
    time is scaled; ``raw`` keeps the unscaled times.  Traced, every
    operation runs once untraced and once traced, the two taking turns at
    going first so that neither always gets the warm caches; the
    difference of their times is the tracing overhead.
    """
    timings, raw, problems, failures = [], [], [], []
    attempted = 0
    busy = scaled_busy = overhead = 0.0
    window = calibrate() if tracer is None else None
    start = perf_counter()
    for number, ops in enumerate(workload.rounds()):
        if busy >= seconds or perf_counter() - start >= MAX_WALL_FACTOR * seconds:
            break
        for slot, op in enumerate(ops):
            attempted += 1
            if tracer is None:
                result, wall = _attempt(op)
                busy += wall
                following = calibrate(CAL_SHARE * wall)
                elapsed = _scale(wall, window, following)
                window = following
                scaled_busy += elapsed
            else:
                traced_first = (number + slot) % 2 == 1
                if not traced_first:
                    plain, untraced = _attempt(op)
                tracer.install()
                try:
                    result, elapsed = _attempt(op)
                finally:
                    tracer.uninstall()
                if traced_first:
                    plain, untraced = _attempt(op)
                wall = elapsed
                busy += untraced + elapsed
                overhead += elapsed - untraced
                if op.ok(plain) != op.ok(result) or (op.ok(plain) and plain != result):
                    problems.append(f"{op.label}: traced and untraced results differ")
            if not op.ok(result):
                failures.append(f"{op.label}: {result!r}"[:300])
                continue
            timings.append(elapsed)
            raw.append(wall)
            try:
                problem = op.check(result)
            except Exception as exc:  # unreadable output is a wrong output
                problem = f"output could not be checked: {exc!r}"[:300]
            if problem is not None:
                problems.append(f"{op.label}: {problem}")
    final = getattr(workload, "final_check", lambda: None)()
    if final is not None:
        problems.append(final)
    return {"timings": timings, "raw": raw, "problems": problems, "failures": failures,
            "attempted": attempted, "busy": busy, "scaled_busy": scaled_busy, "overhead": overhead}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="source directory holding the upsilon package (default: ./src)")
    args = parser.parse_args(argv)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    src = Path(args.src).resolve()
    if not (src / "upsilon" / "__init__.py").is_file():
        print(f"no upsilon package under {src}", file=sys.stderr)
        return 2

    setup = None if args.trace else measure_setup(src)
    modules = import_package(src)
    workload = workloads.make(args.workload, modules, args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    out = run(workload, args.seconds, tracer)

    durations = out["timings"]
    for line in out["problems"][:20]:
        print(f"WRONG {line}", file=sys.stderr)
    for line in out["failures"][:3]:
        print(f"FAILED {line}", file=sys.stderr)
    if not durations:
        print("no operation completed", file=sys.stderr)
        return 1

    if tracer is None:
        summary = f"{args.workload}: {len(durations)} of {out['attempted']} ops completed"
        for kind, times, busy, setup_s in (("raw wall time", out["raw"], out["busy"], setup[0]),
                                           ("scaled", durations, out["scaled_busy"], setup[1])):
            p50 = statistics.median(times) * 1000
            summary += (f"; {kind}: ops_per_s {len(times) / busy:.4f}, op_p50_ms {p50:.3f}, "
                        f"setup_s {setup_s:.5f}")
            if len(times) >= 100:
                summary += f", op_p90_ms {statistics.quantiles(times, n=10)[-1] * 1000:.3f}"
        print(summary)
        metrics = {
            "setup_s": (setup[1], "s"),
            "ops_per_s": (len(durations) / out["scaled_busy"], "op/s"),
            "op_p50_ms": (statistics.median(durations) * 1000, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = tracer.metrics(out["overhead"])
        trace_dir = ROOT / ".bench_out"
        trace_dir.mkdir(exist_ok=True)
        tracer.write(trace_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")

    result = {
        "correct": not out["problems"],
        "attempted": out["attempted"],
        "failed": len(out["failures"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
