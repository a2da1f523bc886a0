#!/usr/bin/env python3
"""Regenerate ``reference.json``, the result rows the benchmark checks against.

    python3 perfbench/make_reference.py

Runs every workload once at seed 0 with ``--tol 1e-13`` and stores its CSV
rows as printed.  For the wave workloads it also runs seeds 1..BOUND_SEEDS
at the same tolerance and stores, per column that depends on the mesh, the
bound a jittered run is held to: MARGIN times the largest relative deviation
from seed 0 seen over those seeds, rounded up to two significant digits.  Run
it only on a commit whose results are meant to be the reference.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checks import GRID_COLUMNS, REFERENCE, read_row  # noqa: E402
from workloads import WORKLOADS, operations  # noqa: E402

TIGHT_TOL = 1e-13
MARGIN = 3.0
BOUND_SEEDS = 6


def tight_rows(workload, seed, work):
    from wavest import cli

    rows = {}
    for op in operations(workload, seed, work, tol=TIGHT_TOL):
        if cli.main(op.argv) != 0:
            raise SystemExit(f"{workload} {op.key} failed at seed {seed}")
        rows[op.key] = read_row(op.out)
    return rows


def round_up(x, digits=2):
    if x <= 0:
        return 0.0
    scale = 10 ** (math.floor(math.log10(x)) - digits + 1)
    return round(math.ceil(x / scale) * scale, 12)


def main():
    work = HERE / "out" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
                         text=True, check=False).stdout.strip()
    ref = {"commit": sha, "tol": TIGHT_TOL, "seed_bound_seeds": BOUND_SEEDS,
           "seed_bound_margin": MARGIN, "workloads": {}}
    try:
        for workload in WORKLOADS:
            rows = tight_rows(workload, 0, work)
            spec = {"rows": rows}
            if workload != "ode-tables":
                worst = {}
                for seed in range(1, BOUND_SEEDS + 1):
                    for key, row in tight_rows(workload, seed, work).items():
                        for col, value in row.items():
                            if col in GRID_COLUMNS or col == "h":
                                continue
                            dev = abs(float(value) / float(rows[key][col]) - 1.0)
                            worst[col] = max(worst.get(col, 0.0), dev)
                spec["seed_deviation_max"] = worst
                spec["seed_bounds"] = {c: round_up(MARGIN * d) for c, d in worst.items()}
            ref["workloads"][workload] = spec
            print(workload, json.dumps(spec.get("seed_bounds", {})), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n", encoding="ascii")


if __name__ == "__main__":
    main()
