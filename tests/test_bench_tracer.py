"""The benchmark tracer's patch targets: every name ``perfbench/tracer.py`` wraps exists,
the scalar run calls the wrapped names, and uninstalling restores each one; in a traced
wave run the package's own counts equal the traced ones."""

import importlib.util
from pathlib import Path

import pytest

from wavest.harness import ExperimentConfig, run_ode_experiment, run_wave_experiment

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# the scalar model's functions the tracer times by name
ODE_SPANS = {"ode.solve_newmark_ode", "ode.ode_energy_error", "ode.eta3_ode_samples",
             "ode.eta5_ode_samples", "ode.eta3_ode_cumulative", "ode.eta5_ode_cumulative"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_patches_every_target_and_uninstall_restores_it():
    tracer = load_tracer().Tracer()
    tracer.install()   # an attribute the tracer names and the package lacks fails here
    try:
        patched = list(tracer._patched)
        assert len(patched) == 27
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, (owner, attr)
        run_ode_experiment(ExperimentConfig(kind="ode", A=100.0, N=8))
    finally:
        tracer.uninstall()
    assert not tracer._patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
    assert ODE_SPANS <= {span[0] for span in tracer.spans}
    assert tracer.counts["ode.steps"] == 8


@pytest.mark.parametrize("solution", ["gaussian", "mode"])
def test_package_counts_equal_the_traced_ones(solution):
    # a short wave run under the tracer: the space's auxiliary-solve count is
    # the tracer's, and the accumulator times each estimator call it traces
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        _, _, acc = run_wave_experiment(ExperimentConfig(
            kind="wave", mesh="structured:n=4:pattern=crisscross", solution=solution,
            grid="uniform", N=8))
    finally:
        tracer.uninstall()
    # the tracer counts the solve_spd spans under fem.apply_discrete_laplacian
    assert tracer.layer_metrics(1)["estimators.aux_solves"] == acc.space.aux_solves.solves == 7
    # one eta3 call per interior node t_1..t_7, one eta5 call per node t_3..t_7
    names = [span[0] for span in tracer.spans]
    assert names.count("estimators.eta3_step") == len(acc.eta3_seconds) == 7
    assert names.count("estimators.eta5_step") == len(acc.eta5_seconds) == 5
