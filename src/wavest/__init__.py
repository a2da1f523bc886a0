"""Trapezoidal-Newmark wave solvers with a posteriori space-time error estimators.

Subpackages:
    ode          scalar model problem u'' + A u = f with both time estimators
    mesh         2D triangulations with interior-edge adjacency
    fem          P1 assembly, projections, CG solves, norms
    newmark      time integration of the semi-discrete wave equation
    estimators   3-point / 5-point time estimators and the residual space estimator
    stencils     non-uniform finite-difference operators in time
    grids        time grid construction rules
    manufactured closed-form test solutions
    harness      experiment drivers, CSV emission, cost benchmark
"""

from .fem import FemSpace, QuadratureRule, SolveCounter, SolverError, quadrature_rule
from .grids import TimeGrid, alternating_grid, build_grid, decaying_grid, uniform_grid
from .mesh import Mesh, MeshError, generate_structured, import_mesh, read_mesh
from .newmark import NewmarkWaveSolver, WaveProblem, WaveState
from .ode import (OdeProblem, OdeTrajectory, effectivity, eta3_ode_cumulative,
                  eta5_ode_cumulative, ode_energy_error, solve_newmark_ode)

__all__ = [
    "FemSpace", "QuadratureRule", "SolveCounter", "SolverError", "quadrature_rule",
    "TimeGrid", "alternating_grid", "build_grid", "decaying_grid", "uniform_grid",
    "Mesh", "MeshError", "generate_structured", "import_mesh", "read_mesh",
    "NewmarkWaveSolver", "WaveProblem", "WaveState", "OdeProblem", "OdeTrajectory",
    "effectivity", "eta3_ode_cumulative", "eta5_ode_cumulative", "ode_energy_error",
    "solve_newmark_ode",
]

__version__ = "0.1.0"
