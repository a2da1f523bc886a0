"""Import footprint: the scalar model runs on numpy alone, and a wave run loads scipy.sparse."""

import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def scipy_sparse_loaded_after(code, tmp_path):
    """Whether ``scipy.sparse`` is in ``sys.modules`` after ``code`` runs in a fresh interpreter.

    ``code`` may name ``OUT``, a path for a result CSV.
    """
    probe = (f"import sys\nsys.path.insert(0, {str(SRC)!r})\nOUT = {str(tmp_path / 'row.csv')!r}\n"
             f"{code}\nprint('scipy.sparse' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    return {"True": True, "False": False}[done.stdout.splitlines()[-1]]


def test_scalar_model_and_the_benchmark_lookups_load_no_scipy(tmp_path):
    code = """
import importlib, pkgutil
import wavest
for module in pkgutil.iter_modules(wavest.__path__):
    importlib.import_module(f"wavest.{module.name}")
from wavest import cli, harness
harness.FemSpace, harness.parse_mesh_spec, harness.build_grid
assert cli.main(["ode", "--A", "100", "--N", "100", "--grid", "uniform", "--out", OUT]) == 0
"""
    assert not scipy_sparse_loaded_after(code, tmp_path)


def test_wave_run_loads_scipy_sparse(tmp_path):
    code = """
from wavest import cli
assert cli.main(["wave", "--mesh", "structured:n=3", "--N", "4", "--out", OUT]) == 0
"""
    assert scipy_sparse_loaded_after(code, tmp_path)


def test_one_scipy_import_site():
    sites = [(path.name, line.strip()) for path in sorted((SRC / "wavest").glob("*.py"))
             for line in path.read_text(encoding="utf-8").splitlines()
             if re.match(r"\s*(import|from)\s+scipy\b", line)]
    assert sites == [("fem.py", "import scipy.sparse")]


def test_one_owner_of_preconditioning():
    # only fem forms a preconditioner or reads a diagonal; other modules pass
    # on the ones a space keeps (such as ``space.mass_ff_jacobi``)
    pattern = re.compile(r"jacobi\(|\.diagonal\(|\.multigrid|Multigrid|preconditioner\(")
    sites = [(path.name, line.strip()) for path in sorted((SRC / "wavest").glob("*.py"))
             if path.name != "fem.py"
             for line in path.read_text(encoding="utf-8").splitlines() if pattern.search(line)]
    assert sites == []


def test_one_size_rule_for_multigrid():
    # the threshold is compared once, where the space decides on its V-cycle;
    # every free-vertex preconditioner follows from that decision
    comparisons = [line.strip() for line in (SRC / "wavest" / "fem.py").read_text(
        encoding="utf-8").splitlines() if re.search(r"[<>]=?\s*MULTIGRID_MIN_FREE\b", line)]
    assert comparisons == ["if len(self.free) < MULTIGRID_MIN_FREE:"]


def test_one_driver_of_the_stepper():
    # every wave run, the cost benchmark's included, steps through
    # NewmarkWaveSolver.run: no other code in the package starts or steps a state
    sites = [(path.name, line.strip()) for path in sorted((SRC / "wavest").glob("*.py"))
             for line in path.read_text(encoding="utf-8").splitlines()
             if re.search(r"initial_state\(|\.step\(", line) and "def " not in line]
    assert sites == [("newmark.py", "state = self.initial_state()"),
                     ("newmark.py", "state = self.step(state, tau)")]
