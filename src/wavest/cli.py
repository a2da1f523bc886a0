"""Command-line experiment runner.

Usage:
    wavest ode  --A 100 --N 1000 --grid uniform --out row.csv --trace trace.csv
    wavest wave --mesh structured:n=14:pattern=diagonal --grid decay --tau0 0.0141
    wavest ode  --config run.cfg --A 1000        # flags override the file

Config files are line-oriented 'key = value'.  Their keys are the fields of
``ExperimentConfig``: exactly the flag names (kind, A, N, grid, tau0, taustar,
mesh, T, tol, out, trace) plus solution (the manufactured solution of a wave
run: gaussian or mode); any other key is an error.  Every flag given
overrides the file.  Exit code is 0 on success and 1 with a diagnostic on
stderr otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .harness import (
    BENCH_COLUMNS, ODE_COLUMNS, TRACE_COLUMNS, WAVE_COLUMNS, ExperimentConfig,
    benchmark_estimators, parse_config_file, parse_mesh_spec, rows_to_csv,
    run_ode_experiment, run_wave_experiment, write_csv,
)

def build_parser():
    p = argparse.ArgumentParser(prog="wavest",
                                description="Newmark wave solver with a posteriori error estimators")
    p.add_argument("kind", choices=("ode", "wave", "bench"), nargs="?",
                   help="experiment kind (may come from --config)")
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--A", type=float, help="stiffness constant of the scalar model")
    p.add_argument("--N", type=int, help="number of time steps")
    p.add_argument("--grid", choices=("uniform", "alt10", "alt100", "decay", "decay-literal"),
                   help="time grid rule")
    p.add_argument("--tau0", type=float, help="initial step of the decaying rule")
    p.add_argument("--taustar", type=float, help="base step of the alternating rules")
    p.add_argument("--mesh", help="structured:n=K:pattern=diagonal|crisscross or file:PATH")
    p.add_argument("--T", type=float, help="final time")
    p.add_argument("--tol", type=float, help="linear solver tolerance")
    p.add_argument("--out", help="CSV output path for the result row")
    p.add_argument("--trace", help="CSV output path for the per-step trace")
    return p


# config-file values are strings: the numeric fields' casts (the others stay strings)
CASTS = {"A": float, "N": int, "tau0": float, "taustar": float, "T": float, "tol": float}


def config_from_args(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config:
        with open(args.config, "r", encoding="ascii") as fh:
            raw = parse_config_file(fh.read())
        known = {f.name for f in dataclasses.fields(cfg)}
        for key, value in raw.items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            setattr(cfg, key, CASTS.get(key, str)(value))
    for key, value in vars(args).items():
        if key != "config" and value is not None:
            setattr(cfg, key, value)
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
            _emit(BENCH_COLUMNS, benchmark_estimators(parse_mesh_spec(cfg.mesh)), cfg.out)
        else:
            raise ValueError("give an experiment kind: ode, wave or bench")
    except Exception as exc:
        print(f"wavest: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
