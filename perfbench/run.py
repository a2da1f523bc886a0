#!/usr/bin/env python3
"""wavest benchmark: time to solution of the wavest CLI on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S     # each workload in a fresh process

Run from the repository root; the package is imported from ``src/``.  One
repetition runs every operation of the workload (see ``workloads.py``) from
its command line to its result CSV through ``wavest.cli.main``, in process.
A discarded warm-up on a coarse mesh comes first, so lazy imports are not
timed.  Repetitions continue until ``--seconds`` have passed and at least
three were made (``--seconds`` defaults to BENCHMARK.json's
``run_seconds``); every result row of every repetition is checked
(``checks.py``).

End-to-end metrics (``--trace 0``, tracing off):
  run_s        median repetition time, config to result CSV
  setup_s      median per repetition of the time spent in mesh generation or
               import, FemSpace assembly and grid build (harness.parse_mesh_spec,
               harness.FemSpace and harness.build_grid, timed where harness calls them)
  step_ms      (run_s - setup_s) / time steps of one repetition
  peak_rss_mb  peak resident set of this process

``--trace 1`` makes the same untraced repetitions, then as many again with
the span tracer of ``tracer.py`` installed, and reports per-layer self times
and counts per repetition, ``trace.overhead_frac`` (traced / untraced median
- 1) and ``trace.unattributed_frac`` (share of the traced repetition no
reported self time covers).  Spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object: ``correct``,
``attempted``/``failed`` (operations run / operations that exited non-zero
or failed a regression check) and ``metrics``.  ``failed_frac`` (failed
result checks / checks made, accuracy checks included) is printed above it.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads: one thread keeps runs steady on a
# shared machine, and the work here is sparse or elementwise, which they do not split.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import multiprocessing
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

from checks import check_row, load_reference, read_row  # noqa: E402
from workloads import WORKLOADS, operations  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
MIN_REPS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "wavest" / "__init__.py").is_file():
        print(f"perfbench: no wavest package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        result, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


# -- one workload -------------------------------------------------------------


def run_workload(workload, seed, seconds, trace):
    """Run, check and report one workload; return its result object and failed_frac."""
    from wavest import cli

    ref = load_reference()
    work = OUT / f"{workload}-seed{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops = operations(workload, seed, work)
        for op in operations(workload, seed, work, warm=True):
            cli.main(op.argv)
        tally = Tally(workload, seed, ref)
        with SetupClock() as clock:
            untraced, setup = repeat(ops, seconds, tally, clock)
        metrics = end_to_end(ops, ref["workloads"][workload], setup, untraced)
        layers = None
        if trace:
            layers = traced_run(ops, seconds, tally, untraced, workload, seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units, layer_units = metric_units()
    print(f"workload {workload}  seed {seed}  repetitions {len(untraced)}"
          f"  operations per repetition {len(ops)}")
    for name, value in metrics.items():
        print(f"  {name:<12} {value:.6g} {units[name]}")
    tally.report()
    if layers is not None:
        print(f"  traced: {layers['trace.run_s']:.6g} s per repetition, overhead "
              f"{layers['trace.overhead_frac']:.2%}, self times below add up to all but "
              f"{layers['trace.unattributed_frac']:.2%} of it")
        for name, value in layers.items():
            print(f"  {name:<28} {value:.6g}")
    chosen, units = (layers, layer_units) if trace else (metrics, units)
    if set(chosen) != set(units):
        raise RuntimeError(f"metrics {sorted(set(chosen) ^ set(units))} "
                           "disagree with BENCHMARK.json")
    result = {"correct": tally.correct, "attempted": tally.ops, "failed": tally.ops_failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in chosen.items()}}
    return result, tally.failed_frac


def repeat(ops, seconds, tally, clock=None):
    """Time whole repetitions until ``seconds`` have passed and MIN_REPS were made.

    Returns the repetition times and, with a running ``SetupClock``, the
    set-up time inside each repetition.
    """
    from wavest import cli

    times, setup = [], []
    start = time.perf_counter()
    while len(times) < MIN_REPS or time.perf_counter() - start < seconds:
        for op in ops:
            op.out.unlink(missing_ok=True)
        if clock is not None:
            clock.total = 0.0
        t0 = time.perf_counter()
        codes = [cli.main(op.argv) for op in ops]
        times.append(time.perf_counter() - t0)
        if clock is not None:
            setup.append(clock.total)
        tally.add(ops, codes)
    return times, setup


class SetupClock:
    """Adds up the time harness spends in mesh generation or import, FemSpace and grid build."""

    CALLS = ("parse_mesh_spec", "FemSpace", "build_grid")

    def __init__(self):
        self.total = 0.0
        self._saved = {}

    def __enter__(self):
        from wavest import harness

        for name in self.CALLS:
            self._saved[name] = fn = getattr(harness, name)
            setattr(harness, name, self._timed(fn))
        return self

    def __exit__(self, *exc):
        from wavest import harness

        for name, fn in self._saved.items():
            setattr(harness, name, fn)

    def _timed(self, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.total += time.perf_counter() - t0
        return timed


def end_to_end(ops, spec, setup, times):
    run_s = statistics.median(times)
    setup_s = statistics.median(setup)
    steps = sum(int(spec["rows"][op.key].get("N_ts") or spec["rows"][op.key]["N"])
                for op in ops)
    return {
        "run_s": run_s,
        "setup_s": setup_s,
        "step_ms": 1e3 * (run_s - setup_s) / steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(ops, seconds, tally, untraced, workload, seed):
    from tracer import TIME_METRICS, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = repeat(ops, seconds, tally)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics(len(traced))
    traced_mean = statistics.fmean(traced)
    layers["trace.run_s"] = traced_mean
    layers["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    layers["trace.unattributed_frac"] = 1 - sum(layers[k] for k in TIME_METRICS) / traced_mean
    layers["checks.failed_frac"] = tally.failed_frac
    tracer.write_spans(OUT / f"spans-{workload}-seed{seed}.csv")
    return layers


def metric_units():
    """{name: unit} of the end-to-end and of the per-layer metrics in BENCHMARK.json."""
    return tuple({m["name"]: m["unit"] for m in SPEC[kind]} for kind in ("end_to_end", "per_layer"))


class Tally:
    """Operations and result checks over every repetition of a run."""

    def __init__(self, workload, seed, ref):
        self.workload, self.seed, self.ref = workload, seed, ref
        self.ops = self.ops_failed = 0
        self.made, self.failed, self.failures = Counter(), Counter(), Counter()

    def add(self, ops, codes):
        for op, code in zip(ops, codes):
            row = read_row(op.out) if code == 0 else None
            results = check_row(self.workload, self.seed, op.key, row, self.ref)
            self.ops += 1
            self.ops_failed += any(kind == "regression" and not ok for kind, ok, _ in results)
            for kind, ok, message in results:
                self.made[kind] += 1
                if not ok:
                    self.failed[kind] += 1
                    self.failures[f"{kind}: {message}"] += 1

    @property
    def correct(self):
        return self.ops_failed == 0

    @property
    def failed_frac(self):
        return sum(self.failed.values()) / max(1, sum(self.made.values()))

    def report(self):
        kinds = ", ".join(f"{k} {self.failed[k]} of {self.made[k]}" for k in sorted(self.made))
        print(f"  {'failed_frac':<12} {self.failed_frac:.6g} ratio  (failed result checks: "
              f"{kinds}; operations failed {self.ops_failed} of {self.ops})")
        for message, n in sorted(self.failures.items()):
            print(f"    FAILED x{n} {message}")


# -- every workload -------------------------------------------------------------


def run_all(args):
    """Each workload in a fresh process; print their reports and one summary table."""
    results, failed_frac = {}, {}
    spawn = multiprocessing.get_context("spawn")
    for workload in WORKLOADS:
        sys.stdout.flush()
        with ProcessPoolExecutor(1, mp_context=spawn) as pool:   # a fresh process per workload
            job = pool.submit(run_workload, workload, args.seed, args.seconds, bool(args.trace))
            try:
                results[workload], failed_frac[workload] = job.result()
            except Exception:
                traceback.print_exc()
                return 1
    units = metric_units()[0]
    print(f"\n{'workload':<12}" + "".join(f"{k:>16}" for k in units)
          + f"{'failed_frac':>18}{'correct':>9}")
    for workload, res in results.items():
        cells = "".join(f"{res['metrics'][k]['value']:>13.4g} {units[k]:<2}"
                        if k in res["metrics"] else f"{'-':>16}" for k in units)
        print(f"{workload:<12}{cells}{failed_frac[workload]:>12.4g} ratio"
              f"{str(res['correct']):>9}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
