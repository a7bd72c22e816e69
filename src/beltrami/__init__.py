"""Solvers for Beltrami and nonhomogeneous Cauchy-Riemann equations on plane domains.

Complex structures on a planar domain are encoded by Beltrami coefficients
mu with |mu| < 1.  The library builds the quasiconformal immersions that
trivialize those structures, converts 1-forms between the background and
moving coframes, and solves the d-bar equation for single coefficients,
one-parameter families, and (by disc exhaustion with polynomial Runge
corrections) on the whole plane, with built-in residual oracles for every
solve.

The public names load lazily (PEP 562): ``import beltrami`` imports neither
numpy nor any submodule; the first use of a name imports its home module.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names it defines, in ``__all__`` order
_EXPORTS = {
    "errors": ("BeltramiError", "ContractionTooLarge", "DegenerateFrame",
               "DegenerateImmersion", "FieldFormatError", "NoConvergence",
               "RungeApproximationFailure", "ValidationError"),
    "exhaustion": ("ExhaustionStep", "ExhaustionTrace", "TaylorJet",
                   "exhaustion_solve", "taylor_project"),
    "family": ("DbarDiagnostics", "DbarResult", "FamilyEntry", "FamilySpec",
               "FamilySweepResult", "OneFormField", "convert_to_background",
               "convert_to_moving", "solve_dbar", "solve_dbar_form", "solve_family"),
    "fieldgen": ("builtin_field", "constant_field", "disc_indicator_field",
                 "gaussian_bump_field", "linear_coordinate_field"),
    "grid": ("BeltramiField", "ComplexField", "Disc", "DomainSpec", "Rect",
             "cutoff_field", "fd_wirtinger_dbar", "fd_wirtinger_dz",
             "interior_mask", "make_coordinate_field", "omega_mask", "rebase",
             "sup_norm", "transition_profile", "wirtinger_dz"),
    "io": ("read_field", "read_field_raw", "write_field", "write_pgm_heatmaps"),
    "solver": ("ImmersionResult", "NeumannResult", "SolverConfig",
               "beltrami_residual", "neumann_solve", "solve_immersion"),
    "transforms": ("beurling_transform", "cauchy_transform", "estimate_contraction"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value   # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
