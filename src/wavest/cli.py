"""Command-line experiment runner.

Usage:
    wavest ode  --A 100 --N 1000 --grid uniform --out row.csv --trace trace.csv
    wavest wave --mesh structured:n=14:pattern=diagonal --grid decay --tau0 0.0141
    wavest ode  --config run.cfg --A 1000        # flags override the file

Config files are line-oriented 'key = value' with the same keys as the
flags (kind, A, N, grid, tau0, taustar, mesh, T, tol, out, trace), plus solution
(the manufactured solution of a wave run: gaussian or mode).
Exit code is 0 on success and 1 with a diagnostic on stderr otherwise.
"""

from __future__ import annotations

import argparse
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


def config_from_args(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config:
        with open(args.config, "r", encoding="ascii") as fh:
            raw = parse_config_file(fh.read())
        casts = {"A": float, "N": int, "tau0": float, "taustar": float,
                 "T": float, "tol": float}
        keymap = {"grid": "grid_rule", "mesh": "mesh_spec"}
        for key, value in raw.items():
            attr = keymap.get(key, key)
            if not hasattr(cfg, attr):
                raise ValueError(f"unknown config key {key!r}")
            cast = casts.get(key, str)
            setattr(cfg, attr, cast(value))
    if args.kind:
        cfg.kind = args.kind
    for flag, attr in (("A", "A"), ("N", "N"), ("tau0", "tau0"), ("taustar", "taustar"),
                       ("T", "T"), ("tol", "tol"), ("out", "out"), ("trace", "trace")):
        value = getattr(args, flag)
        if value is not None:
            setattr(cfg, attr, value)
    if args.grid:
        cfg.grid_rule = args.grid
    if args.mesh:
        cfg.mesh_spec = args.mesh
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
            mesh = parse_mesh_spec(cfg.mesh_spec)
            report = benchmark_estimators(mesh=mesh)
            _emit(BENCH_COLUMNS, report.to_rows(), cfg.out)
        else:
            raise ValueError("give an experiment kind: ode, wave or bench")
    except Exception as exc:
        print(f"wavest: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
