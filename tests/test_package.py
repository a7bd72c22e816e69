"""Start-up of the package and its CLI process.

``import beltrami`` loads no submodule and no numpy: each public name is
imported from its home module on first use.  ``beltrami.cli`` starts
OpenBLAS with one thread unless ``OPENBLAS_NUM_THREADS`` is set already.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import beltrami

SRC = Path(__file__).resolve().parent.parent / "src"

# the public names, in order, with the module that defines each
EXPORTS = (
    ("errors", ("BeltramiError", "ContractionTooLarge", "DegenerateFrame",
                "DegenerateImmersion", "FieldFormatError", "NoConvergence",
                "RungeApproximationFailure", "ValidationError")),
    ("exhaustion", ("ExhaustionStep", "ExhaustionTrace", "TaylorJet",
                    "exhaustion_solve", "taylor_project")),
    ("family", ("DbarDiagnostics", "DbarResult", "FamilyEntry", "FamilySpec",
                "FamilySweepResult", "OneFormField", "convert_to_background",
                "convert_to_moving", "solve_dbar", "solve_dbar_form",
                "solve_family")),
    ("fieldgen", ("builtin_field", "constant_field", "disc_indicator_field",
                  "gaussian_bump_field", "linear_coordinate_field")),
    ("grid", ("BeltramiField", "ComplexField", "Disc", "DomainSpec", "Rect",
              "cutoff_field", "fd_wirtinger_dbar", "fd_wirtinger_dz",
              "interior_mask", "make_coordinate_field", "omega_mask", "rebase",
              "sup_norm", "transition_profile", "wirtinger_dz")),
    ("io", ("read_field", "read_field_raw", "write_field", "write_pgm_heatmaps")),
    ("solver", ("ImmersionResult", "NeumannResult", "SolverConfig",
                "beltrami_residual", "neumann_solve", "solve_immersion")),
    ("transforms", ("beurling_transform", "cauchy_transform",
                    "estimate_contraction")),
)


def _python(*args, **env_changes):
    """Run ``python *args`` on this tree's sources, with
    ``OPENBLAS_NUM_THREADS`` unset unless given; stdout, stripped."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC),
                                                      env.get("PYTHONPATH")]))
    env.update(env_changes)
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_submodule_and_no_numpy():
    probe = ("import sys, beltrami; "
             "print(sorted(m for m in sys.modules "
             "if m == 'numpy' or m.startswith('beltrami.')))")
    assert _python("-c", probe) == "[]"


def test_all_lists_the_public_names_in_order():
    assert beltrami.__all__ == [name for _, names in EXPORTS for name in names]


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS
                                          for n in names])
def test_each_name_is_its_home_modules_object(module, name):
    home = importlib.import_module(f"beltrami.{module}")
    assert getattr(beltrami, name) is getattr(home, name)
    assert getattr(beltrami, name).__module__ == home.__name__


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        beltrami.no_such_name


def test_dir_covers_all_before_any_name_loads():
    probe = "import beltrami; print(set(beltrami.__all__) <= set(dir(beltrami)))"
    assert _python("-c", probe) == "True"


# records the variable at the moment numpy's first import begins
BLAS_PROBE = """
import os, sys

class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not hasattr(self, "seen"):
            self.seen = os.environ.get("OPENBLAS_NUM_THREADS")
        return None

probe = Probe()
sys.meta_path.insert(0, probe)
import beltrami.cli
print(probe.seen)
"""


def test_cli_starts_openblas_with_one_thread():
    assert _python("-c", BLAS_PROBE) == "1"


def test_cli_keeps_a_preset_thread_count():
    assert _python("-c", BLAS_PROBE, OPENBLAS_NUM_THREADS="3") == "3"


def test_module_entry_runs():
    assert _python("-m", "beltrami", "--version").endswith(beltrami.__version__)
