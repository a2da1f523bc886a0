"""Experiment drivers: table rows, traces, true errors and the cost benchmark.

Both models end in one per-step trace (``step_trace``), built as columns from
the estimators' running totals and the per-state true errors; each result
row takes its totals from its trace's last entries.  Outputs are plain CSV
with fixed headers and 6-significant-digit decimals so repeated runs of the
same configuration are byte-identical.

The cost benchmark's settings are module constants: ``BENCH_STEPS`` timed
nodes after ``BENCH_WARMUP`` untimed ones, steps of ``BENCH_TAU``, and the
best of ``BENCH_REPEATS`` evaluations per node.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ode
from .estimators import WaveEstimatorAccumulator, eta3_step, eta5_step, node_diffs
from .fem import FemSpace, SolveCounter, quadrature_rule
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
    taustar: Optional[float] = None
    T: float = 1.0
    # numerics
    tol: float = 1e-10
    # outputs
    out: Optional[str] = None
    trace: Optional[str] = None

    def build_grid(self) -> TimeGrid:
        return build_grid(self.grid, self.T, N=self.N, tau0=self.tau0,
                          taustar=self.taustar)


def parse_mesh_spec(spec: str):
    """'structured:n=K:pattern=diagonal|crisscross' or 'file:PATH'."""
    head, _, rest = spec.partition(":")
    if head == "file":
        if not rest:
            raise ValueError("file mesh spec needs a path")
        return read_mesh(rest)
    if head == "structured":
        n = None
        pattern = "diagonal"
        for part in rest.split(":"):
            if not part:
                continue
            key, _, value = part.partition("=")
            if key == "n":
                n = int(value)
            elif key == "pattern":
                pattern = value
            else:
                raise ValueError(f"unknown mesh option {key!r}")
        if n is None:
            raise ValueError("structured mesh spec needs n=K")
        return generate_structured(n, pattern)
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
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
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


def run_ode_experiment(config: ExperimentConfig):
    """One row of the scalar-model tables plus the per-step trace."""
    A = config.A
    omega = np.sqrt(A)
    problem = ode.OdeProblem(
        A=A, f=None, u0=1.0, v0=0.0, T=config.T,
        exact=(lambda t: np.cos(omega * t), lambda t: -omega * np.sin(omega * t)),
    )
    grid = config.build_grid()
    traj = ode.solve_newmark_ode(problem, grid)
    fs = problem.f_samples(grid.points)
    trace = step_trace(grid.points, ode.eta3_ode_cumulative(traj, fs, A),
                       ode.eta5_ode_cumulative(traj, A),
                       ode.ode_energy_error(traj, problem.exact, A))
    eta3, eta5, err = (trace[c][-1] for c in ("eta_T_cum", "eta_T_hat_cum", "err_max"))
    row = {
        "A": A, "N": grid.n_steps, "eta_T": eta3, "eta_T_hat": eta5, "e": err,
        "ei_T": ode.effectivity(err, eta3), "ei_T_hat": ode.effectivity(err, eta5),
    }
    return row, trace


# -- wave problem -------------------------------------------------------------


def wave_problem_from(solution: ManufacturedSolution, T) -> WaveProblem:
    """The wave problem of a manufactured solution; a zero forcing becomes f = None."""
    grad_u0, grad_v0 = solution.initial_data()
    f = None if solution.zero_forcing else solution.f
    return WaveProblem(f=f, grad_u0=grad_u0, grad_v0=grad_v0, T=T)


def _check_boundary_trace(solution: ManufacturedSolution, mesh, times):
    """Reject a solution whose |u| on the boundary vertices exceeds BOUNDARY_TRACE_BOUND.

    The scheme imposes u = 0 on the boundary, so against such a solution the
    reported errors and effectivities would measure the wrong problem.
    """
    xb, yb = mesh.vertices[mesh.boundary_vertex].T
    trace = np.abs(solution.u(times[:, None], xb, yb))
    peak = trace.max(initial=0.0)
    if peak > BOUNDARY_TRACE_BOUND:
        n = np.unravel_index(trace.argmax(), trace.shape)[0]
        raise ValueError(f"manufactured solution {solution.name!r} reaches |u| = {peak:.3g} "
                         f"on the boundary at t = {times[n]:g}, above the bound "
                         f"{BOUNDARY_TRACE_BOUND:g} of the homogeneous Dirichlet condition")


class ErrorWork:
    """Buffers of the true-error quadrature, reused for every state of a run."""

    def __init__(self, space: FemSpace):
        nt, q = space.quad_xy.shape[:2]
        self.full = np.zeros(space.mesh.n_vertices)  # all-vertex coefficients, zero on the boundary
        self.nodal = np.empty((nt, 3))               # coefficients at each triangle's vertices
        self.resid = np.empty((nt, q))               # one residual at the quadrature points
        self.per_tri = np.empty(nt)                  # a gradient component, then an integral


def wave_energy_error_at(space: FemSpace, state, exact, work: ErrorWork) -> float:
    """Energy-norm error of one state against the exact solution (quadrature).

    ``exact`` is a solution bound to ``space.quad_xy`` (``ManufacturedSolution.bind``):
    it maps t to du/dt and (du/dx, du/dy) at the quadrature points.  ``work``
    holds the buffers of a run.
    """
    dudt, (gx, gy) = exact(state.t)
    rule, area, tris = space.rule, space.area, space.mesh.triangles
    # P1 values at the quadrature points: nodal values times the barycentric
    # coordinates of the rule; one (triangles, points) buffer holds each
    # squared residual in turn
    work.full[space.free] = state.v
    r = np.matmul(np.take(work.full, tris, out=work.nodal), rule.points.T, out=work.resid)
    np.square(np.subtract(r, dudt, out=r), out=r)
    err_sq = np.matmul(r, rule.weights, out=work.per_tri) @ area
    work.full[space.free] = state.u
    np.take(work.full, tris, out=work.nodal)
    for d, g in enumerate((gx, gy)):
        # component d of the constant gradient on each triangle
        grad = np.einsum("tb,tb->t", work.nodal, space.grads[:, :, d], out=work.per_tri)
        np.square(np.subtract(grad[:, None], g, out=r), out=r)
        err_sq += np.matmul(r, rule.weights, out=work.per_tri) @ area
    return float(np.sqrt(err_sq))


def run_wave_experiment(config: ExperimentConfig):
    """Integrate the wave problem, accumulating estimators and the true error online."""
    solution = get_solution(config.solution)
    problem = wave_problem_from(solution, config.T)
    grid = config.build_grid()
    mesh = parse_mesh_spec(config.mesh)
    _check_boundary_trace(solution, mesh, grid.points)
    space = FemSpace(mesh, quadrature_rule(5), tol=config.tol)
    exact = solution.bind(space.quad_xy[:, :, 0], space.quad_xy[:, :, 1])
    solver = NewmarkWaveSolver(problem, space)
    acc = WaveEstimatorAccumulator(space)
    work = None
    errors = np.empty(grid.n_steps + 1)
    for n, state in enumerate(solver.run(grid)):
        acc.push(state)
        if work is None:   # after the initial projections, whose temporaries are freed by now
            work = ErrorWork(space)
        errors[n] = wave_energy_error_at(space, state, exact, work)
    inc3, inc5 = acc.increments()
    trace = step_trace(grid.points, np.cumsum(inc3), np.cumsum(inc5), errors)
    eta3, eta5, err_max = (trace[c][-1] for c in ("eta_T_cum", "eta_T_hat_cum", "err_max"))
    eta_s = acc.space_acc.total
    row = {
        "h": mesh.h, "tau0": grid.steps[0],
        "ei": (eta3 + eta_s) / err_max if err_max > 0 else float("nan"),
        "ei_hat": (eta5 + eta_s) / err_max if err_max > 0 else float("nan"),
        "eta_T": eta3, "eta_T_hat": eta5, "eta_S": eta_s,
        "tau_F": grid.tau_final, "N_ts": grid.n_steps, "e": err_max,
    }
    return row, trace, acc


# -- estimator cost benchmark ---------------------------------------------------


BENCH_COLUMNS = ("path", "n_vertices", "steps", "seconds_per_step", "aux_solves")
BENCH_STEPS = 8      # interior nodes timed
BENCH_WARMUP = 2     # nodes evaluated untimed first
BENCH_TAU = 1e-3     # step of the prepared states
BENCH_REPEATS = 3    # evaluations per node; the best counts


def benchmark_estimators(mesh):
    """Per-step cost of both estimator paths at prepared interior nodes, as two rows.

    Integration cost is excluded: the states and each node's second
    differences (shared by both paths) are built once, then each estimator
    is evaluated per node as ``WaveEstimatorAccumulator.push`` calls it,
    timing only the estimator work and counting the 3-point path's mass
    solves.  The reported per-step time is the median over nodes of the best
    of ``BENCH_REPEATS`` evaluations, which keeps one-off allocation spikes
    out of the comparison.  Returns the ``BENCH_COLUMNS`` rows of the paths.
    """
    problem = wave_problem_from(get_solution("mode"), T=1.0)
    space = FemSpace(mesh, quadrature_rule(2))
    solver = NewmarkWaveSolver(problem, space)
    state = solver.initial_state()
    states = [state]
    for _ in range(4 + BENCH_STEPS):
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
