"""Experiment drivers: table rows, traces, true errors and the cost benchmark.

Both models end in one per-step trace (``step_trace``), built as columns from
the estimators' running totals and the per-state true errors; each result
row takes its totals from its trace's last entries.  Outputs are plain CSV
with fixed headers and 6-significant-digit decimals so repeated runs of the
same configuration are byte-identical.

The true error of a solution without moments is a quadrature over the
blocks of ``FemSpace.blocks``, against the solution's derivatives at the
block's points, which ``FemSpace.block_points`` derives at each call; the
derivatives are evaluated into the space's ``FemSpace.block_work``, so a
call holds one block's solution values at a time, in arrays the space
allocated once, and no run stores the points of every triangle.

A wave run, as a scalar one, takes its final time only from its grid: the
grid rules check T (``ExperimentConfig.build_grid``) before any mesh is
built, and the wave problem carries no copy of it.  Every space, the cost
benchmark's included, integrates with the one rule ``fem.QUAD_RULE``.

The cost benchmark's settings are module constants: ``BENCH_STEPS`` timed
windows of three nodes, of which the first ``BENCH_WARMUP`` are also
evaluated once untimed before any timing, steps of ``BENCH_TAU``, and the
best of ``BENCH_REPEATS`` evaluations per window.  It steps just far enough
to build the ``BENCH_STEPS + 2`` nodes its windows read.

The drivers call ``parse_mesh_spec``, ``FemSpace``, ``build_grid``,
``get_solution``, ``generate_structured``/``read_mesh`` and
``wave_energy_error_at`` through this module's globals, so
``perfbench/run.py`` and its tracer time them by assigning wrappers to
these plain module attributes.  Importing this module, or looking those
names up, loads numpy but no scipy: ``fem.sparse`` imports ``scipy.sparse``
at the first sparse build, which only a wave or bench run makes.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ode
from .estimators import WaveEstimatorAccumulator, eta3_step, eta5_step, node_diffs
from .fem import FemSpace, SolveCounter
from .grids import TimeGrid, build_grid
from .manufactured import ManufacturedSolution, get_solution
from .mesh import generate_structured, read_mesh
from .newmark import NewmarkWaveSolver, WaveProblem

ODE_COLUMNS = ("A", "N", "eta_T", "eta_T_hat", "e", "ei_T", "ei_T_hat")
WAVE_COLUMNS = ("h", "tau0", "ei", "ei_hat", "eta_T", "eta_T_hat", "eta_S",
                "tau_F", "N_ts", "e")
TRACE_COLUMNS = ("n", "t", "eta_T_cum", "eta_T_hat_cum", "err_max")

# largest |u| a manufactured solution may take on the boundary over [0, T]
BOUNDARY_TRACE_BOUND = 1e-3
# evenly spaced times on [0, T] at which the boundary trace is checked after
# the grid's own, since a coarse grid can step over the times a solution
# reaches the boundary; both sets go BOUNDARY_TRACE_CHUNK times at a time, so
# the (times, vertices) arrays stay small on grids of up to grids.MAX_STEPS steps
BOUNDARY_TRACE_SAMPLES, BOUNDARY_TRACE_CHUNK = 1001, 64


@dataclass
class ExperimentConfig:
    """One experiment: the scalar model ('ode') or the wave problem ('wave')."""

    kind: str = "ode"
    # ode parameters
    A: float = 100.0
    # wave parameters
    mesh: str = "structured:n=14:pattern=diagonal"
    solution: str = "gaussian"
    # grid
    grid: str = "uniform"
    N: Optional[int] = None
    tau0: Optional[float] = None
    T: float = 1.0
    # numerics
    tol: float = 1e-10
    # outputs
    out: Optional[str] = None
    trace: Optional[str] = None

    def build_grid(self) -> TimeGrid:
        """The run's time grid; one of fewer than 4 steps fails here, before any mesh is built."""
        grid = build_grid(self.grid, self.T, N=self.N, tau0=self.tau0)
        if grid.n_steps < 4:
            raise ValueError("the 5-point estimator needs at least 4 steps")
        return grid


def parse_mesh_spec(spec: str):
    """'structured:n=K:pattern=diagonal|crisscross' or 'file:PATH'."""
    head, _, rest = spec.partition(":")
    if head == "file":
        if not rest:
            raise ValueError("file mesh spec needs a path")
        return read_mesh(rest)
    if head == "structured":
        options = {}
        for part in filter(None, rest.split(":")):
            key, _, value = part.partition("=")
            if key not in ("n", "pattern"):
                raise ValueError(f"unknown mesh option {key!r}")
            if key in options:
                raise ValueError(f"mesh option {key!r} given twice")
            options[key] = value
        if "n" not in options:
            raise ValueError("structured mesh spec needs n=K")
        return generate_structured(int(options["n"]), options.get("pattern", "diagonal"))
    raise ValueError(f"unknown mesh spec {spec!r}")


def parse_config_file(text: str) -> dict:
    """line-oriented 'key = value' files; blank lines allowed."""
    out = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {ln}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ValueError(f"config line {ln}: {key!r} given twice")
        out[key] = value
    return out


def _fmt(x):
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{x:.6g}"


def rows_to_csv(columns, rows) -> str:
    """CSV text of ``rows``: row dicts, or one mapping of columns (a trace)."""
    if isinstance(rows, dict):
        rows = [dict(zip(columns, values)) for values in zip(*(rows[c] for c in columns))]
    buf = io.StringIO()
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(row[c]) for c in columns) + "\n")
    return buf.getvalue()


def write_csv(path, columns, rows):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(rows_to_csv(columns, rows))


# -- scalar model -------------------------------------------------------------


def step_trace(t, eta3_cum, eta5_cum, err):
    """The per-step trace as columns over n = 0..N.

    ``eta3_cum``/``eta5_cum`` are the running totals of the two time
    estimators (entries n = 1..N and n = 4..N: the trace's eta_T_cum at n is
    sum_{k<n} tau_k eta_T(t_k)), and ``err`` the true error at every t_n; the
    trace carries its running maximum.
    """
    return {"n": np.arange(len(t)), "t": np.asarray(t),
            "eta_T_cum": np.concatenate((np.zeros(1), eta3_cum)),
            "eta_T_hat_cum": np.concatenate((np.zeros(4), eta5_cum)),
            "err_max": np.maximum.accumulate(err)}


def effectivity(eta, e):
    """Ratio estimator / true error; NaN where the true error is 0 and the ratio undefined."""
    return eta / e if e > 0 else float("nan")


def run_ode_experiment(config: ExperimentConfig):
    """One row of the scalar-model tables plus the per-step trace."""
    A = config.A
    problem = ode.OdeProblem(A=A, u0=1.0, v0=0.0)
    omega = np.sqrt(A)   # once OdeProblem has checked A
    exact = (lambda t: np.cos(omega * t), lambda t: -omega * np.sin(omega * t))
    grid = config.build_grid()
    traj = ode.solve_newmark_ode(problem, grid)
    trace = step_trace(grid.points, ode.eta3_ode_cumulative(traj, A),
                       ode.eta5_ode_cumulative(traj, A), ode.ode_energy_error(traj, exact, A))
    eta3, eta5, err = (trace[c][-1] for c in ("eta_T_cum", "eta_T_hat_cum", "err_max"))
    row = {
        "A": A, "N": grid.n_steps, "eta_T": eta3, "eta_T_hat": eta5, "e": err,
        "ei_T": effectivity(eta3, err), "ei_T_hat": effectivity(eta5, err),
    }
    return row, trace


# -- wave problem -------------------------------------------------------------


def wave_problem_from(solution: ManufacturedSolution) -> WaveProblem:
    """The wave problem of a manufactured solution; a zero forcing becomes f = None."""
    grad_u0, grad_v0 = solution.initial_data()
    f = None if solution.zero_forcing else solution.f
    return WaveProblem(f=f, grad_u0=grad_u0, grad_v0=grad_v0)


def _check_boundary_trace(solution: ManufacturedSolution, mesh, times):
    """Reject a solution whose |u| on the boundary vertices exceeds BOUNDARY_TRACE_BOUND.

    The scheme imposes u = 0 on the boundary, so against such a solution the
    reported errors and effectivities would measure the wrong problem.  The
    grid's times are checked first, then BOUNDARY_TRACE_SAMPLES evenly
    spaced times from the first to the last.
    """
    xb, yb = mesh.vertices[mesh.boundary_vertex].T

    def largest(t):   # the largest |u| on the boundary at each of the times t
        trace = np.broadcast_to(solution.u(t[:, None], xb, yb), (len(t), len(xb)))
        return np.abs(trace).max(axis=1, initial=0.0)

    for checked in (times, np.linspace(times[0], times[-1], BOUNDARY_TRACE_SAMPLES)):
        peaks = np.concatenate([largest(checked[lo:lo + BOUNDARY_TRACE_CHUNK])
                                for lo in range(0, len(checked), BOUNDARY_TRACE_CHUNK)])
        n = peaks.argmax()   # the first time of the largest |u|
        if peaks[n] > BOUNDARY_TRACE_BOUND:
            raise ValueError(f"manufactured solution {solution.name!r} reaches |u| = "
                             f"{peaks[n]:.3g} on the boundary at t = {checked[n]:g}, above the "
                             f"bound {BOUNDARY_TRACE_BOUND:g} of the homogeneous Dirichlet "
                             "condition")


def _check_interior(mesh):
    """Reject a mesh without interior vertices: its P1 space with zero trace is {0}."""
    if not len(mesh.free_vertices):
        raise ValueError("the mesh has no interior vertex, so its discrete space is {0}")


def wave_energy_error_at(space: FemSpace, state, derivatives) -> float:
    """Energy-norm error of one state against the exact solution (quadrature).

    ``derivatives(t, x, y, out=None)`` is the solution's
    ``ManufacturedSolution.derivatives``, called once per block of
    ``space.blocks`` on the block's quadrature points
    (``FemSpace.block_points``) with ``out=space.block_work(b)``: it returns
    du/dt and (du/dx, du/dy) there in three arrays that the quadrature may
    overwrite (those of ``out``, or new ones), and each squared residual is
    computed in one of them.  The per-triangle integrals fill three rows
    over all triangles block by block; the sums over all triangles come
    last.
    """
    rule, area, tris, grads = space.rule, space.area, space.mesh.triangles, space.grads
    u, v = space.full(state.u), space.full(state.v)
    velocity, *h1_rows = np.empty((3, space.mesh.n_triangles))
    largest = max(b.stop - b.start for b in space.blocks)
    nodal_buffer, grad_buffer = np.empty((largest, 3)), np.empty((2, largest))
    at_points = np.ascontiguousarray(rule.points.T)   # nodal values -> point values
    for b in space.blocks:
        rows = b.stop - b.start
        nodal, grad = nodal_buffer[:rows], grad_buffer[:, :rows]
        # mode="clip": the mesh's indices are in range, and a raising take buffers its output
        np.take(u, tris[b], out=nodal, mode="clip")
        for d in range(2):   # component d of the constant gradient on each triangle
            np.einsum("tb,tb->t", nodal, grads[b, :, d], out=grad[d])
        dudt, gxy = derivatives(state.t, *space.block_points(b), out=space.block_work(b))
        for g, grad_d, row in zip(gxy, grad, h1_rows):
            np.square(np.subtract(grad_d[:, None], g, out=g), out=g)
            np.matmul(g, rule.weights, out=row[b])
        # P1 values at the quadrature points, in the freed x component: nodal
        # values times the barycentric coordinates of the rule
        r = np.matmul(np.take(v, tris[b], out=nodal, mode="clip"), at_points, out=gxy[0])
        np.square(np.subtract(r, dudt, out=r), out=r)
        np.matmul(r, rule.weights, out=velocity[b])
    err_sq = velocity @ area
    for row in h1_rows:   # velocity term first, as the tests' fresh-array oracle sums
        err_sq += row @ area
    return float(np.sqrt(err_sq))


def true_error_form(solution: ManufacturedSolution, space: FemSpace):
    """The run's true energy-norm error as ``state -> e``.

    A separable solution brings its moments (``ManufacturedSolution.moments``);
    any other is integrated by quadrature (``wave_energy_error_at``) against
    its ``derivatives`` at the space's quadrature points.
    """
    if solution.moments is not None:
        return solution.moments(space)
    return lambda state: wave_energy_error_at(space, state, solution.derivatives)


def run_wave_experiment(config: ExperimentConfig):
    """Integrate the wave problem, accumulating estimators and the true error online."""
    solution = get_solution(config.solution)
    problem = wave_problem_from(solution)
    grid = config.build_grid()
    mesh = parse_mesh_spec(config.mesh)
    _check_interior(mesh)
    _check_boundary_trace(solution, mesh, grid.points)
    space = FemSpace(mesh, tol=config.tol)
    solver = NewmarkWaveSolver(problem, space)
    acc = WaveEstimatorAccumulator(space)
    error_at = true_error_form(solution, space)
    errors = np.empty(grid.n_steps + 1)
    for n, state in enumerate(solver.run(grid)):
        acc.push(state)
        errors[n] = error_at(state)
    inc3, inc5 = acc.increments()
    trace = step_trace(grid.points, np.cumsum(inc3), np.cumsum(inc5), errors)
    eta3, eta5, err_max = (trace[c][-1] for c in ("eta_T_cum", "eta_T_hat_cum", "err_max"))
    eta_s = acc.space_acc.total
    row = {
        "h": mesh.h, "tau0": grid.steps[0],
        "ei": effectivity(eta3 + eta_s, err_max),
        "ei_hat": effectivity(eta5 + eta_s, err_max),
        "eta_T": eta3, "eta_T_hat": eta5, "eta_S": eta_s,
        "tau_F": grid.tau_final, "N_ts": grid.n_steps, "e": err_max,
    }
    return row, trace, acc


# -- estimator cost benchmark ---------------------------------------------------


BENCH_COLUMNS = ("path", "n_vertices", "steps", "seconds_per_step", "aux_solves")
BENCH_STEPS = 8      # windows timed
BENCH_WARMUP = 2     # leading windows evaluated once untimed first
BENCH_TAU = 1e-3     # step of the prepared states
BENCH_REPEATS = 3    # evaluations per window; the best counts


def benchmark_estimators(mesh):
    """Per-step cost of both estimator paths at prepared interior nodes, as two rows.

    Integration cost is excluded: the states and each node's second
    differences (shared by both paths) are built once, then each estimator
    is evaluated per window of three nodes as
    ``WaveEstimatorAccumulator.push`` calls it, timing only the estimator
    work and counting the 3-point path's mass solves.  The reported per-step
    time is the median over windows of the best of ``BENCH_REPEATS``
    evaluations, which keeps one-off allocation spikes out of the
    comparison.  Returns the ``BENCH_COLUMNS`` rows of the paths.
    """
    _check_interior(mesh)
    problem = wave_problem_from(get_solution("mode"))
    space = FemSpace(mesh)
    solver = NewmarkWaveSolver(problem, space)
    state = solver.initial_state()
    states = [state]
    for _ in range(3 + BENCH_STEPS):
        state = solver.step(state, BENCH_TAU)
        states.append(state)
    nodes = [node_diffs(space, states[k:k + 3]) for k in range(len(states) - 2)]
    # the last three nodes, as push holds them
    windows = [nodes[k:k + 3] for k in range(BENCH_STEPS)]

    for w in windows[:BENCH_WARMUP]:
        eta3_step(space, w[-1], counter=None)
        eta5_step(space, w)

    def timed(fn):
        per_window = []
        for w in windows:
            best = min(_time_once(fn, w) for _ in range(BENCH_REPEATS))
            per_window.append(best)
        return float(np.median(per_window))

    c3 = SolveCounter()
    t3 = timed(lambda w: eta3_step(space, w[-1], counter=c3))
    t5 = timed(lambda w: eta5_step(space, w))
    # eta5_step takes no solver counter: it solves nothing (the tests count
    # solve_spd calls around it)
    common = {"n_vertices": mesh.n_vertices, "steps": BENCH_STEPS}
    return [
        {"path": "eta3", **common, "seconds_per_step": t3,
         "aux_solves": c3.solves // BENCH_REPEATS},
        {"path": "eta5", **common, "seconds_per_step": t5, "aux_solves": 0},
    ]


def _time_once(fn, window):
    t0 = time.perf_counter()
    fn(window)
    return time.perf_counter() - t0
