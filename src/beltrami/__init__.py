"""Solvers for Beltrami and nonhomogeneous Cauchy-Riemann equations on plane domains.

Complex structures on a planar domain are encoded by Beltrami coefficients
mu with |mu| < 1.  The library builds the quasiconformal immersions that
trivialize those structures, converts 1-forms between the background and
moving coframes, and solves the d-bar equation for single coefficients,
one-parameter families, and (by disc exhaustion with polynomial Runge
corrections) on the whole plane, with built-in residual oracles for every
solve.
"""

__version__ = "0.1.0"

from .errors import (
    BeltramiError,
    ContractionTooLarge,
    DegenerateFrame,
    DegenerateImmersion,
    FieldFormatError,
    NoConvergence,
    RungeApproximationFailure,
    ValidationError,
)
from .exhaustion import ExhaustionStep, ExhaustionTrace, TaylorJet, exhaustion_solve, taylor_project
from .family import (
    DbarDiagnostics,
    DbarResult,
    FamilyEntry,
    FamilySpec,
    FamilySweepResult,
    OneFormField,
    convert_to_background,
    convert_to_moving,
    solve_dbar,
    solve_dbar_form,
    solve_family,
)
from .fieldgen import (
    builtin_field,
    constant_field,
    disc_indicator_field,
    gaussian_bump_field,
    linear_coordinate_field,
)
from .grid import (
    BeltramiField,
    ComplexField,
    Disc,
    DomainSpec,
    Rect,
    cutoff_field,
    fd_wirtinger_dbar,
    fd_wirtinger_dz,
    interior_mask,
    make_coordinate_field,
    omega_mask,
    rebase,
    sup_norm,
    transition_profile,
    wirtinger_dz,
)
from .io import read_field, read_field_raw, write_field, write_pgm_heatmaps
from .solver import (
    ImmersionResult,
    NeumannResult,
    SolverConfig,
    beltrami_residual,
    neumann_solve,
    solve_immersion,
)
from .transforms import beurling_transform, cauchy_transform, estimate_contraction

__all__ = [
    "BeltramiError", "ContractionTooLarge", "DegenerateFrame",
    "DegenerateImmersion", "FieldFormatError", "NoConvergence",
    "RungeApproximationFailure", "ValidationError",
    "ExhaustionStep", "ExhaustionTrace", "TaylorJet",
    "exhaustion_solve", "taylor_project",
    "DbarDiagnostics", "DbarResult", "FamilyEntry", "FamilySpec",
    "FamilySweepResult", "OneFormField",
    "convert_to_background", "convert_to_moving", "solve_dbar",
    "solve_dbar_form", "solve_family",
    "builtin_field", "constant_field", "disc_indicator_field",
    "gaussian_bump_field", "linear_coordinate_field",
    "BeltramiField", "ComplexField", "Disc", "DomainSpec", "Rect",
    "cutoff_field", "fd_wirtinger_dbar", "fd_wirtinger_dz",
    "interior_mask", "make_coordinate_field", "omega_mask",
    "rebase", "sup_norm", "transition_profile", "wirtinger_dz",
    "read_field", "read_field_raw", "write_field", "write_pgm_heatmaps",
    "ImmersionResult", "NeumannResult", "SolverConfig",
    "beltrami_residual", "neumann_solve", "solve_immersion",
    "beurling_transform", "cauchy_transform", "estimate_contraction",
]
