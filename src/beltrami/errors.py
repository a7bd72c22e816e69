"""Exception types raised by the solvers and transforms."""

from __future__ import annotations

import math


class BeltramiError(Exception):
    """Base class for all library-specific errors."""


class ValidationError(BeltramiError):
    """Invalid domain, field, or configuration data."""


class ContractionTooLarge(BeltramiError):
    """sup|mu_ext| of the coefficient is at or above the configured cap.

    The Beurling transform S is unitary on L^2, so sup|mu_ext| bounds the
    contraction factor of mu*S and hence the rate of the Neumann series;
    at or above the cap the series is refused.  ``estimate`` holds that
    sup norm.
    """

    def __init__(self, estimate: float, cap: float):
        super().__init__(
            f"sup|mu_ext| {estimate:.6g} >= contraction cap {cap:.6g}; "
            "refusing to iterate the Neumann series"
        )
        self.estimate = estimate
        self.cap = cap


class NoConvergence(BeltramiError):
    """Neumann iteration hit the iteration cap with residual above tolerance,
    or stopped at a residual (or series term size) that is not finite.

    Carries the partial state so callers can inspect or export the trace:
    ``phi`` (last iterate, ndarray), ``iterations``, ``final_residual``,
    and ``trace`` (per-iteration sup-norm residuals).
    """

    def __init__(self, phi, iterations: int, final_residual: float, trace):
        if math.isfinite(final_residual):
            message = (f"no convergence after {iterations} iterations "
                       f"(residual {final_residual:.3e})")
        else:
            message = (f"no convergence: residual {final_residual} is not "
                       f"finite at iteration {iterations}")
        super().__init__(message)
        self.phi = phi
        self.iterations = iterations
        self.final_residual = final_residual
        self.trace = trace


class DegenerateImmersion(BeltramiError):
    """The derivative field g of a computed immersion vanishes somewhere on Omega."""


class DegenerateFrame(BeltramiError):
    """Frame conversion would divide by a vanishing |g| or 1-|mu|^2."""


class RungeApproximationFailure(BeltramiError):
    """A polynomial correction missed its exhaustion step budget.

    Usually means ``taylor_degree`` is too small for the requested accuracy.
    """

    def __init__(self, step: int, error: float, budget: float):
        super().__init__(
            f"exhaustion step {step}: polynomial approximation error "
            f"{error:.3e} exceeds step budget {budget:.3e} "
            "(increase taylor_degree or loosen tol)"
        )
        self.step = step
        self.error = error
        self.budget = budget


class FieldFormatError(BeltramiError):
    """Malformed binary field file."""
