"""The benchmark tracer's patch targets: every name ``perfbench/tracer.py`` wraps exists,
the scalar run calls the wrapped names, and uninstalling restores each one."""

import importlib.util
from pathlib import Path

from wavest.harness import ExperimentConfig, run_ode_experiment

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
