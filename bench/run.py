"""Benchmark of betaseries on a calibrated clock.

Run from the root of a source checkout:

    python3 bench/run.py --workload pi-digits --seed 1 --seconds 30 --trace 0

One process runs one workload in one thread.  It sets the package up several
times (a fresh ``import betaseries`` plus loading the catalog and inputs),
then runs whole passes over the workload's operations, in an order drawn
from ``--seed``, while they fit in ``--seconds`` calibrated seconds (at least
one pass).  Outputs are checked after each operation, outside its timed span.

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics ``setup_s``, ``run_s`` and ``peak_rss_mb``.  With
``--trace 1`` passes alternate traced and untraced, and the result holds the
per-layer metrics of ``layers.METRICS`` (median over traced passes) plus the
tracing overhead.  All times are calibrated seconds (see ``calclock``); raw
wall seconds are printed on the line before the result, for information.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import sys
import types

import calclock
import layers
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: fresh imports in one run; setup_s is their median
SETUP_REPEATS = 5

_MODULES = (
    "betaseries",
    "betaseries.catalog",
    "betaseries.cli",
    "betaseries.derive",
    "betaseries.engine",
    "betaseries.hyper",
    "betaseries.quadrature",
    "betaseries.references",
    "betaseries.wire",
    "mpmath",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def fresh_import() -> types.SimpleNamespace:
    """Import the package afresh.

    mpmath stays imported after the first set-up: importing it again leaves
    about 4 MB of freed but unreturned memory per import, which would show
    in ``peak_rss_mb``.
    """
    for name in list(sys.modules):
        if name.split(".")[0] == "betaseries":
            del sys.modules[name]
    bs = types.SimpleNamespace()
    for name in _MODULES:
        setattr(bs, name.rsplit(".", 1)[-1], importlib.import_module(name))
    if os.path.dirname(os.path.dirname(bs.betaseries.__file__)) != SRC:
        raise ImportError(f"betaseries imported from outside {SRC}")
    return bs


def set_up(clock, workload: str):
    """Set up SETUP_REPEATS times; returns the last set-up and all times."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = clock.mark()
        bs = fresh_import()
        work = workloads.build(workload, bs)
        times.append(clock.mark() - start)
        gc.collect()
    return bs, work, times


class Runner:
    """Runs passes over a workload's operations and tallies the outcomes."""

    def __init__(self, clock, work: workloads.Workload, rng: random.Random):
        self.clock = clock
        self.work = work
        self.rng = rng
        self.attempted = 0
        self.failed = 0
        self.errors = []
        #: op name -> why it failed, for operations counted in ``failed``
        self.failures = {}
        #: op name -> (calibrated s, wall s) in the latest pass
        self.op_times = {}

    def run_pass(self) -> tuple:
        """One pass in seeded order; returns (calibrated s, wall s) of the ops."""
        calibrated = wall = 0.0
        for op in self.rng.sample(self.work.ops, len(self.work.ops)):
            w0 = self.clock.wall()
            t0 = self.clock.mark()
            try:
                result = op.run()
            except Exception as exc:  # recorded and reported as a failure
                result = exc
            t1 = self.clock.mark()
            w1 = self.clock.wall()
            self.op_times[op.name] = (t1 - t0, w1 - w0)
            wall += w1 - w0
            calibrated += t1 - t0
            self.attempted += 1
            problem = op.check(result)
            if problem is not None:
                if op.known_fault or isinstance(result, Exception):
                    self.failed += 1
                    self.failures[op.name] = problem
                else:
                    self.errors.append(f"{op.name}: {problem}")
        return calibrated, wall

    def final_checks(self) -> None:
        for check in self.work.final_checks:
            problem = check()
            if problem is not None:
                self.errors.append(problem)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "betaseries", "__init__.py")):
        print(f"error: no betaseries package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    clock = calclock.CalibratedClock()
    with clock:
        bs, work, setup_times = set_up(clock, args.workload)
        runner = Runner(clock, work, random.Random(args.seed))
        tracer = layers.Tracer(clock) if args.trace else None
        passes, traced, layer_rows = [], [], []
        begin = clock.now()
        while True:
            if tracer is not None:
                # traced first, so that on one-pass workloads the traced pass
                # pays the same first-pass costs as an untraced run's pass
                tracer.reset()
                tracer.install(bs)
                try:
                    traced.append(runner.run_pass())
                finally:
                    tracer.restore()
                layer_rows.append(tracer.snapshot())
            passes.append(runner.run_pass())
            round_s = (clock.now() - begin) / len(passes)
            if clock.now() - begin + round_s > args.seconds:
                break
        runner.final_checks()
        kernel_times = clock.kernel_times

    run_s = statistics.median(p[0] for p in passes)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "pass_s": [round(p[0], 4) for p in passes],
        "pass_wall_s": [round(p[1], 4) for p in passes],
        "setup_s": [round(t, 4) for t in setup_times],
        "clock_samples": len(kernel_times),
        "kernel_ms": round(statistics.median(kernel_times) * 1e3, 4),
        "op_s": {k: round(v[0], 4) for k, v in runner.op_times.items()},
        "op_wall_s": {k: round(v[1], 4) for k, v in runner.op_times.items()},
        "errors": runner.errors,
        "failures": runner.failures,
    }
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s": (run_s, "s"),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB",
            ),
        }
    else:
        traced_s = statistics.median(p[0] for p in traced)
        info["traced_pass_s"] = [round(p[0], 4) for p in traced]
        info["untraced_points"] = tracer.missing
        metrics = {
            name: (statistics.median(row[name] for row in layer_rows), unit)
            for name, (unit, _) in layers.METRICS.items()
        }
        metrics["trace.run_s"] = (traced_s, "s")
        metrics["trace.untraced_run_s"] = (run_s, "s")
        metrics["trace.overhead"] = ((traced_s - run_s) / run_s, "ratio")
    print(json.dumps(info), flush=True)
    result = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
