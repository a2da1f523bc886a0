"""Span tracer for the benchmark's traced runs.

The tracer patches the public functions of each wavest module, from outside
the package, with wrappers that record one span per call: name, parent span,
start and end (``time.perf_counter``) and an optional count.  Names that a
module imports by value (``newmark.solve_spd``, ``estimators.second_diff``,
``harness.get_solution``, ``harness.generate_structured``/``read_mesh``) are
patched where they are used.  Spans stay in memory until ``write_spans``.

A span's self time is its duration minus the durations of its children
(calls are nested and single-threaded, so children never overlap).  Every
span's self time goes to exactly one per-layer bucket, so the buckets add up
to the time the root spans cover.
"""

from __future__ import annotations

import dataclasses
import time
import zlib
from collections import defaultdict

import numpy as np

# span name -> self-time bucket; solve_spd spans are bucketed by their parent
SELF_BUCKETS = {
    "cli.main": "cli.self_s",
    "harness.run_ode_experiment": "harness.ode_self_s",
    "harness.run_wave_experiment": "harness.wave_self_s",
    "harness.wave_energy_error_at": "harness.true_error_s",
    "grids.build_grid": "grids.build_s",
    "mesh.generate_structured": "mesh.build_s",
    "mesh.read_mesh": "mesh.build_s",
    "fem.FemSpace": "fem.assembly_s",
    "fem.assemble_load": "fem.load_s",
    "fem.l2_project": "fem.mass_solve_s",
    "fem.h1_project": "fem.h1_project_s",
    "fem.apply_discrete_laplacian": "estimators.aux_solve_s",
    "newmark.step": "newmark.step_s",
    "estimators.push": "estimators.push_s",
    "estimators.eta3_step": "estimators.eta3_s",
    "estimators.eta5_step": "estimators.eta5_s",
    "estimators.space_update": "estimators.space_s",
    "stencils.second_diff": "stencils.second_diff_s",
    "manufactured.eval": "manufactured.eval_s",
    "ode.solve_newmark_ode": "ode.solve_s",
    "ode.ode_energy_error": "ode.error_s",
    "ode.eta3_ode_cumulative": "ode.estimators_s",
    "ode.eta5_ode_cumulative": "ode.estimators_s",
    "ode.eta3_ode_samples": "ode.estimators_s",
    "ode.eta5_ode_samples": "ode.estimators_s",
    "trace.bookkeeping": "trace.self_s",
}

# parent span of a solve_spd call -> (time bucket, solve counter, CG-iteration counter)
SOLVE_KINDS = {
    "newmark.step": ("newmark.solve_s", "newmark.solves", "newmark.cg_iters"),
    "fem.l2_project": ("fem.mass_solve_s", "fem.mass_solves", "fem.mass_cg_iters"),
    "fem.apply_discrete_laplacian": ("estimators.aux_solve_s", "estimators.aux_solves",
                                     "estimators.aux_cg_iters"),
    "fem.h1_project": ("fem.h1_project_s", None, "fem.h1_cg_iters"),
}

TIME_METRICS = sorted(set(SELF_BUCKETS.values()) | {k[0] for k in SOLVE_KINDS.values()})

COUNT_METRICS = (
    "mesh.vertices", "fem.nnz", "fem.load_calls", "fem.mass_solves", "fem.mass_cg_iters",
    "fem.h1_cg_iters", "newmark.solves", "newmark.cg_iters", "estimators.aux_solves",
    "estimators.aux_cg_iters", "stencils.second_diff_calls", "manufactured.evals",
    "ode.steps", "grids.steps", "grids.distinct_tau", "grids.tau_changes",
)

_NAME, _PARENT, _START, _END, _COUNT = range(5)


class Tracer:
    """Records spans from patched wavest functions; ``install``/``uninstall`` swap them in."""

    def __init__(self):
        self.spans = []       # [name, parent index or -1, start, end, count]
        self._stack = []
        self._patched = []    # (owner, attribute, original)
        self.counts = defaultdict(int)
        self._d2_keys = set()

    # -- recording ----------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, parent, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[_START] = time.perf_counter()
        return span

    def _close(self, span):
        span[_END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return traced

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        from wavest import cli, estimators, fem, harness, newmark, ode
        from wavest.fem import SolveCounter

        plain = (
            (cli, "main", "cli.main"),
            (cli, "run_ode_experiment", "harness.run_ode_experiment"),
            (cli, "run_wave_experiment", "harness.run_wave_experiment"),
            (harness, "wave_energy_error_at", "harness.wave_energy_error_at"),
            (fem.FemSpace, "l2_project", "fem.l2_project"),
            (fem.FemSpace, "h1_project", "fem.h1_project"),
            (fem.FemSpace, "apply_discrete_laplacian", "fem.apply_discrete_laplacian"),
            (newmark.NewmarkWaveSolver, "step", "newmark.step"),
            (estimators.WaveEstimatorAccumulator, "push", "estimators.push"),
            (estimators, "eta3_step", "estimators.eta3_step"),
            (estimators, "eta5_step", "estimators.eta5_step"),
            (estimators.SpaceEstimatorAccumulator, "update", "estimators.space_update"),
            (ode, "ode_energy_error", "ode.ode_energy_error"),
            (ode, "eta3_ode_cumulative", "ode.eta3_ode_cumulative"),
            (ode, "eta5_ode_cumulative", "ode.eta5_ode_cumulative"),
            (ode, "eta3_ode_samples", "ode.eta3_ode_samples"),
            (ode, "eta5_ode_samples", "ode.eta5_ode_samples"),
        )
        for owner, attr, name in plain:
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))

        counts = self.counts

        def counted(name, fn, on_result):
            inner = self.wrap(name, fn)

            def traced(*args, **kwargs):
                result = inner(*args, **kwargs)
                on_result(result, *args)
                return result
            return traced

        def on_mesh(mesh, *_):
            counts["mesh.vertices"] += mesh.n_vertices

        for attr in ("generate_structured", "read_mesh"):
            self._patch(harness, attr, counted(f"mesh.{attr}", getattr(harness, attr), on_mesh))

        def on_grid(grid, *_):
            steps = grid.steps
            counts["grids.steps"] += len(steps)
            counts["grids.distinct_tau"] += len(np.unique(steps))
            counts["grids.tau_changes"] += int(np.count_nonzero(steps[1:] != steps[:-1]))

        self._patch(harness, "build_grid", counted("grids.build_grid", harness.build_grid, on_grid))

        def on_space(_, space, *__):
            counts["fem.nnz"] += space.stiffness_ff.nnz

        self._patch(fem.FemSpace, "__init__",
                    counted("fem.FemSpace", fem.FemSpace.__init__, on_space))

        def on_load(*_):
            counts["fem.load_calls"] += 1

        self._patch(fem.FemSpace, "assemble_load",
                    counted("fem.assemble_load", fem.FemSpace.assemble_load, on_load))

        def on_ode(traj, *_):
            counts["ode.steps"] += traj.grid.n_steps

        self._patch(ode, "solve_newmark_ode",
                    counted("ode.solve_newmark_ode", ode.solve_newmark_ode, on_ode))

        # solve_spd: pass our own SolveCounter through and forward to the caller's
        solve_spd = fem.solve_spd

        def traced_solve(matrix, rhs, *args, counter=None, **kwargs):
            mine = SolveCounter()
            span = self._open("fem.solve_spd")
            try:
                x = solve_spd(matrix, rhs, *args, counter=mine, **kwargs)
            finally:
                self._close(span)
            span[_COUNT] = mine.iterations
            if counter is not None:
                counter.record(mine.iterations)
            return x

        self._patch(fem, "solve_spd", traced_solve)
        self._patch(newmark, "solve_spd", traced_solve)

        # second differences: count calls and distinct (steps, data) inputs
        second_diff = estimators.second_diff

        def traced_second_diff(w, tau):
            span = self._open("stencils.second_diff")
            try:
                out = second_diff(w, tau)
            finally:
                self._close(span)
            book = self._open("trace.bookkeeping")
            self._d2_keys.add(_d2_key(w, tau))
            self._close(book)
            counts["stencils.second_diff_calls"] += 1
            return out

        self._patch(estimators, "second_diff", traced_second_diff)

        # manufactured solutions: wrap the callables of the returned bundle
        get_solution = harness.get_solution

        def on_eval(*_):
            counts["manufactured.evals"] += 1

        def traced_get_solution(name):
            sol = get_solution(name)

            def ev(fn):
                return counted("manufactured.eval", fn, on_eval)
            return dataclasses.replace(sol, u=ev(sol.u), dudt=ev(sol.dudt),
                                       grad_u=ev(sol.grad_u),
                                       grad_dudt=ev(sol.grad_dudt), f=ev(sol.f))

        self._patch(harness, "get_solution", traced_get_solution)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reduction ------------------------------------------------------------

    def layer_metrics(self, n_reps):
        """Per-repetition self times by bucket and counts, as {metric: value}."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[_PARENT] >= 0:
                child_time[s[_PARENT]] += s[_END] - s[_START]
        times = dict.fromkeys(TIME_METRICS, 0.0)
        counts = defaultdict(int, self.counts)
        for i, s in enumerate(spans):
            self_s = s[_END] - s[_START] - child_time[i]
            name = s[_NAME]
            if name == "fem.solve_spd":
                parent = spans[s[_PARENT]][_NAME] if s[_PARENT] >= 0 else None
                kind = SOLVE_KINDS.get(parent)
                if kind is None:
                    continue
                bucket, n_solves, n_iters = kind
                times[bucket] += self_s
                if n_solves:
                    counts[n_solves] += 1
                counts[n_iters] += s[_COUNT]
            elif name in SELF_BUCKETS:
                times[SELF_BUCKETS[name]] += self_s
        out = {k: v / n_reps for k, v in times.items()}
        out.update({k: counts[k] / n_reps for k in COUNT_METRICS})
        # repetitions repeat the same inputs, so the key set holds one repetition's
        calls = out["stencils.second_diff_calls"]
        out["stencils.d2_useful_ratio"] = len(self._d2_keys) / calls if calls else 0.0
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("index,name,parent,start,end,count\n")
            for i, (name, parent, start, end, count) in enumerate(self.spans):
                fh.write(f"{i},{name},{parent},{start!r},{end!r},"
                         f"{'' if count is None else count}\n")


def _d2_key(w, tau):
    """Identity of a second difference by its steps and the non-zero entries of its data.

    Dropping zeros makes a free-vertex vector and its full-vertex scatter
    (zeros on the boundary) the same input, as they are mathematically.
    """
    parts = [float(tau[0]), float(tau[1])]
    for x in w:
        a = np.asarray(x, dtype=float).ravel()
        parts.append(zlib.crc32(a[a != 0.0].tobytes()))
    return tuple(parts)
