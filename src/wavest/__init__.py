"""Trapezoidal-Newmark wave solvers with a posteriori space-time error estimators.

Modules (import them directly; the package itself defines no names):
    ode          scalar model problem u'' + A u = 0 with both time estimators
    mesh         2D triangulations with one edge table
    fem          P1 assembly, projections, CG solves, norms
    newmark      time integration of the semi-discrete wave equation
    estimators   3-point / 5-point time estimators and the residual space estimator
    stencils     non-uniform time differences and the time estimators' weights
    grids        time grid construction rules
    manufactured closed-form test solutions
    harness      experiment drivers, CSV emission, cost benchmark
    cli          the ``wavest`` command line
"""
