"""Result checks: every CSV row of a repetition against the stored reference.

The reference rows (``reference.json``) were produced at the seed commit with
``--tol 1e-13`` by ``make_reference.py``.  Two kinds of check are made:

* regression checks decide whether an operation succeeded.  At seed 0 they
  compare the CSV's 6-significant-digit fields byte for byte; the two
  rounding-noise cells of table 3 (A=100, N=19800, alt100: eta_T_hat and
  ei_T_hat) pass instead on criterion 3's blow-up ratio ei_T_hat / ei_T >= 2.
  At other seeds the grid columns stay exact, h may move by the jitter's
  2 x 0.1 h, and the remaining columns by the per-column bounds derived from
  seed 0 and stored with the reference.
* accuracy checks hold wave-alt100's estimator and effectivity columns to
  ROADMAP item 2's 1 % of the tight-tolerance reference.  The seed commit
  fails them (Jacobi-CG noise at tol 1e-10); they count in ``failed_frac``
  but do not fail the operation, whose own regression check on those columns
  is that they are finite and positive.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from workloads import JITTER

REFERENCE = Path(__file__).resolve().parent / "reference.json"

NOISE_ROW, NOISE_COLUMNS = "alt100/A=100/N=19800", ("eta_T_hat", "ei_T_hat")
BLOWUP_RATIO = 2.0
GRID_COLUMNS = ("A", "N", "tau0", "tau_F", "N_ts")   # inputs echoed back: exact at every seed
ACCURACY_COLUMNS = {"wave-alt100": ("ei", "ei_hat", "eta_T", "eta_T_hat", "eta_S")}
ACCURACY_REL = 0.01
H_REL = 2 * JITTER


def load_reference():
    with open(REFERENCE, encoding="ascii") as fh:
        return json.load(fh)


def read_row(path):
    """The single data row of a result CSV as {column: printed string}, or None."""
    try:
        with open(path, encoding="ascii", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError:
        return None
    return rows[0] if len(rows) == 1 else None


def _rel(x, ref):
    x, ref = float(x), float(ref)
    return abs(x / ref - 1.0) if ref != 0.0 else abs(x)


def check_row(workload, seed, key, row, ref):
    """[(kind, passed, message)] for one result row; kind is 'regression' or 'accuracy'."""
    spec = ref["workloads"][workload]
    expected = spec["rows"][key]
    if row is None:
        return [("regression", False, f"{key}: no result row")] * len(expected)
    jittered = seed != 0 and workload != "ode-tables"
    accuracy_cols = ACCURACY_COLUMNS.get(workload, ())
    out = []
    for col, want in expected.items():
        got = row.get(col)
        where = f"{key} {col}: got {got}, reference {want}"
        if got is None:
            out.append(("regression", False, where))
            continue
        if key == NOISE_ROW and col in NOISE_COLUMNS:
            ratio = float(row["ei_T_hat"]) / float(row["ei_T"])
            out.append(("regression", ratio >= BLOWUP_RATIO,
                        f"{key} {col}: blow-up ratio {ratio:.3g} >= {BLOWUP_RATIO}"))
        elif col in accuracy_cols:
            value = float(got)
            out.append(("regression", math.isfinite(value) and value > 0, where))
            bound = max(ACCURACY_REL, spec["seed_bounds"][col]) if jittered else ACCURACY_REL
            out.append(("accuracy", _rel(got, want) <= bound, f"{where} (within {bound:.3g})"))
        elif not jittered or col in GRID_COLUMNS:
            out.append(("regression", got == want, where))
        else:
            bound = H_REL if col == "h" else spec["seed_bounds"][col]
            out.append(("regression", _rel(got, want) <= bound, f"{where} (within {bound:.3g})"))
    return out
