"""The benchmark's workloads: the wavest CLI invocations each one runs.

Every operation is one ``wavest`` command line (``wavest.cli.main``) that
writes a one-row result CSV.  Inputs follow from the seed: seed 0 runs the
structured reference meshes; any other seed jitters the interior vertices of
each wave mesh by at most 0.1 h (uniformly in a disc) and hands the mesh to
the CLI as a ``file:`` spec, so vertex, triangle and edge counts stay the
same.  The scalar-model workload does not depend on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("ode-tables", "wave-sweep", "wave-large", "wave-alt100")  # why: BENCHMARK.json

# table 1-3 step counts per grid rule, each run for A in 100, 1000, 10000
TABLE_STEPS = {"uniform": (100, 1000, 10000), "alt10": (180, 1816, 18180),
               "alt100": (196, 1978, 19800)}
TABLE_A = (100, 1000, 10000)
SWEEP_LEVELS = (14, 28, 56)
LARGE_N, LARGE_STEPS = 160, 16
ALT_N, ALT_STEPS = 56, 200
WARM_N = 8          # mesh level of the discarded warm-up run of a wave workload
JITTER = 0.1        # largest vertex displacement of a non-zero seed, in units of h


@dataclass(frozen=True)
class Op:
    key: str      # reference row
    argv: list    # wavest command line, --out included
    out: Path


def operations(workload, seed, work: Path, tol=None, warm=False):
    """The operations of one repetition; ``warm`` gives the cheap warm-up set."""
    if workload == "ode-tables":
        return [_op(work, f"{rule}/A={A}/N={N}",
                    ["ode", "--A", str(A), "--N", str(N), "--grid", rule, "--T", "1"], tol)
                for rule, steps in TABLE_STEPS.items() for A in TABLE_A for N in steps]
    if workload == "wave-sweep":
        levels = (WARM_N,) if warm else SWEEP_LEVELS
        return [_op(work, f"n={n}",
                    ["wave", "--mesh", mesh_spec(n, seed, work), "--grid", "decay",
                     "--tau0", repr(float(0.12 * np.sqrt(1.0 / n))), "--T", "1"], tol)
                for n in levels]
    if workload == "wave-large":
        n = WARM_N if warm else LARGE_N
        return [_op(work, f"n={n}",
                    ["wave", "--mesh", mesh_spec(n, seed, work), "--grid", "uniform",
                     "--N", str(LARGE_STEPS), "--T", "1"], tol)]
    if workload == "wave-alt100":
        n = WARM_N if warm else ALT_N
        cfg = work / "standing-mode.cfg"
        cfg.write_text("kind = wave\nsolution = mode\n", encoding="ascii")
        return [_op(work, f"n={n}",
                    ["--config", str(cfg), "--mesh", mesh_spec(n, seed, work),
                     "--grid", "alt100", "--N", str(ALT_STEPS), "--T", "1"], tol)]
    raise ValueError(f"unknown workload {workload!r}")


def _op(work, key, argv, tol):
    if tol is not None:
        argv = argv + ["--tol", repr(tol)]
    out = work / (key.replace("/", "_").replace("=", "") + ".csv")
    return Op(key, argv + ["--out", str(out)], out)


def mesh_spec(n, seed, work: Path):
    """The CLI mesh spec of crisscross level n: structured at seed 0, a jittered file otherwise."""
    if seed == 0:
        return f"structured:n={n}:pattern=crisscross"
    path = work / f"mesh-n{n}-seed{seed}.txt"
    if not path.exists():
        path.write_text(jittered_mesh_text(n, seed), encoding="ascii")
    return f"file:{path}"


def jittered_mesh_text(n, seed):
    from wavest.mesh import Mesh, format_mesh, generate_structured

    mesh = generate_structured(n, "crisscross")
    rng = np.random.default_rng([seed, n])
    free = ~mesh.boundary_vertex
    k = int(free.sum())
    radius = JITTER * mesh.h * np.sqrt(rng.random(k))
    angle = 2.0 * np.pi * rng.random(k)
    verts = mesh.vertices.copy()
    verts[free] += np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    return format_mesh(Mesh(vertices=verts, triangles=mesh.triangles,
                            boundary_vertex=mesh.boundary_vertex))
