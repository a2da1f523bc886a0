#!/usr/bin/env python3
"""Run the benchmark on ten seeds and check each end-to-end metric's spread.

    python3 perfbench/steadiness.py [--workloads a,b] [--baseline FILE] [--against FILE]

For every workload, runs ``run.py`` once per seed (FIRST_SEED onwards, RUNS
runs, each in its own process, tracing off) and prints, per end-to-end metric
of ``BENCHMARK.json``, the median of the runs and the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a share
of the median.  A metric is steady when that spread is below a third of its
bound.  ``setup_s`` is exempt from the spread rule, as in the benchmark's
contract (its median is still compared under ``--against``).

``--baseline FILE`` writes the medians together with the commit, ``nproc``
and the Python, numpy and scipy versions.  ``--against FILE`` compares the
medians with such a file and fails any metric whose median moved by more
than its bound in either direction.  The exit code is 0 only if every check
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RUNS = 10
FIRST_SEED = 1
SEEDS = list(range(FIRST_SEED, FIRST_SEED + RUNS))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--baseline", type=Path)
    p.add_argument("--against", type=Path)
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    before = json.loads(args.against.read_text(encoding="ascii")) if args.against else None
    seconds = str(spec["run_seconds"])
    summary = {}
    ok_all = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in SEEDS:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", seconds, "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: result checks failed", file=sys.stderr)
                ok_all = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        summary[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            notes = []
            if name != "setup_s" and spread >= bounds[name] / 3:
                notes.append("WIDE")
            if before is not None:
                delta = med / before["workloads"][workload][name]["median"] - 1
                notes.append(f"vs baseline {delta:+.2%}")
                if abs(delta) > bounds[name]:
                    notes.append("MOVED")
            ok_all &= "WIDE" not in notes and "MOVED" not in notes
            summary[workload][name] = {"median": med, "spread": spread, "values": vals}
            print(f"{workload:<12} {name:<12} median {med:<12.6g} spread {spread:7.2%}"
                  f"  (a third of the bound: {bounds[name] / 3:.2%})  {'  '.join(notes)}"
                  f"  values {' '.join(f'{v:.4g}' for v in vals)}",
                  flush=True)
    if args.baseline:
        import numpy
        import scipy

        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False).stdout.strip()
        args.baseline.write_text(json.dumps({
            "commit": sha, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "run_seconds": spec["run_seconds"], "seeds": SEEDS,
            "workloads": summary}, indent=1) + "\n", encoding="ascii")
    return 0 if ok_all else 1


if __name__ == "__main__":
    sys.exit(main())
