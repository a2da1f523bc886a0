"""Command-line experiment runner.

Usage:
    wavest ode  --A 100 --N 1000 --grid uniform --out row.csv --trace trace.csv
    wavest wave --mesh structured:n=14:pattern=diagonal --grid decay --tau0 0.0141
    wavest ode  --config run.cfg --A 1000        # flags override the file

Config files are line-oriented 'key = value'.  Their keys are the fields of
``ExperimentConfig``: exactly the flag names (kind, A, N, grid, tau0, mesh,
T, tol, out, trace) plus solution (the manufactured solution of a wave run:
gaussian or mode); any other key is an error, and so is a setting the kind
does not read (mesh or solution for ode, A for wave, anything but mesh and
out for bench).  Every flag given overrides the file.  Exit code is 0 on
success and 1 with a diagnostic on stderr for a setting rejected after
parsing (config keys and values included).  Among those is a tol below the
machine epsilon, which CG would meet only by underflow; the floor is the
command line's, and ``fem.solve_spd`` takes any finite positive tol.  A
command line that argparse rejects (an unknown flag, a --grid outside the
choices, a value of the wrong type) exits 2 with argparse's usage message;
``main`` called in process raises ``SystemExit(2)`` for it.

Importing this module sets each BLAS/OpenMP thread count the environment
does not set already to 1, before numpy loads, as ``perfbench/run.py`` and
the tests do.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

# One BLAS/OpenMP thread unless the caller set its own, before numpy loads:
# a second thread waiting for a busy core can make the 5-point path's small
# dot products read slower than the 3-point path's solve in ``wavest bench``
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .harness import (  # noqa: E402
    BENCH_COLUMNS, ODE_COLUMNS, TRACE_COLUMNS, WAVE_COLUMNS, ExperimentConfig,
    benchmark_estimators, parse_config_file, rows_to_csv, run_ode_experiment,
    run_wave_experiment, write_csv,
)

def build_parser():
    p = argparse.ArgumentParser(prog="wavest",
                                description="Newmark wave solver with a posteriori error estimators")
    p.add_argument("kind", choices=("ode", "wave", "bench"), nargs="?",
                   help="experiment kind (may come from --config)")
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--A", type=float, help="stiffness constant of the scalar model")
    p.add_argument("--N", type=int, help="number of time steps")
    p.add_argument("--grid", choices=("uniform", "alt10", "alt100", "decay"),
                   help="time grid rule")
    p.add_argument("--tau0", type=float, help="initial step of the decaying rule")
    p.add_argument("--mesh", help="structured:n=K:pattern=diagonal|crisscross or file:PATH")
    p.add_argument("--T", type=float, help="final time")
    p.add_argument("--tol", type=float, help="linear solver tolerance")
    p.add_argument("--out", help="CSV output path for the result row")
    p.add_argument("--trace", help="CSV output path for the per-step trace")
    return p


# config-file values are strings: the numeric fields' casts (the others stay strings)
CASTS = {"A": float, "N": int, "tau0": float, "T": float, "tol": float}


# the settings each kind reads (ode accepts tol, which its runs do not use, so
# one command-line tail serves every kind)
SETTINGS_READ = {
    "ode": {"A", "grid", "N", "tau0", "T", "tol", "out", "trace"},
    "wave": {"mesh", "solution", "grid", "N", "tau0", "T", "tol", "out", "trace"},
    "bench": {"mesh", "out"},
}


def check_settings(config: ExperimentConfig, given):
    """Reject a setting named in ``given`` that config.kind does not read, and a bad tol.

    ``given`` holds the settings set explicitly (flags and config keys);
    ``kind`` itself is always read.  ``tol`` must be a finite positive number
    and at least the machine epsilon: below it CG meets the tolerance only
    when its residual underflows.
    """
    read = SETTINGS_READ.get(config.kind)
    if read is not None:
        unread = [f.name for f in dataclasses.fields(config)
                  if f.name in given and f.name not in read and f.name != "kind"]
        if unread:
            raise ValueError(f"the {config.kind} experiment does not use {' or '.join(unread)}")
    if not 0.0 < config.tol < math.inf:
        raise ValueError(f"tol must be a finite positive number, got {config.tol!r}")
    if config.tol < sys.float_info.epsilon:
        raise ValueError(f"tol must be at least the machine epsilon "
                         f"{sys.float_info.epsilon:g}, got {config.tol!r}")


def config_from_args(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    given = set()
    if args.config:
        with open(args.config, "r", encoding="ascii") as fh:
            raw = parse_config_file(fh.read())
        known = {f.name for f in dataclasses.fields(cfg)}
        for key, value in raw.items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            setattr(cfg, key, CASTS.get(key, str)(value))
            given.add(key)
    for key, value in vars(args).items():
        if key != "config" and value is not None:
            setattr(cfg, key, value)
            given.add(key)
    check_settings(cfg, given)
    return cfg


def _emit(columns, rows, path):
    if path:
        write_csv(path, columns, rows)
    else:
        sys.stdout.write(rows_to_csv(columns, rows))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        if cfg.kind == "ode":
            row, trace = run_ode_experiment(cfg)
            _emit(ODE_COLUMNS, [row], cfg.out)
            if cfg.trace:
                write_csv(cfg.trace, TRACE_COLUMNS, trace)
        elif cfg.kind == "wave":
            row, trace, _ = run_wave_experiment(cfg)
            _emit(WAVE_COLUMNS, [row], cfg.out)
            if cfg.trace:
                write_csv(cfg.trace, TRACE_COLUMNS, trace)
        elif cfg.kind == "bench":
            _emit(BENCH_COLUMNS, benchmark_estimators(cfg.mesh), cfg.out)
        else:
            raise ValueError("give an experiment kind: ode, wave or bench")
    except Exception as exc:
        print(f"wavest: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
