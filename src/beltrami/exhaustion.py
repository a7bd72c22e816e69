"""Global d-bar solve on the plane by disc exhaustion with polynomial correction.

The equation is solved on an increasing sequence of concentric discs inside
one fixed computational square.  After each enlargement the new solution is
reconciled with the previous one: their difference solves the homogeneous
equation on the previous disc, so (for data supported where the structure is
standard) it is holomorphic there and can be approximated by its Taylor
polynomial at the origin -- discs are Runge in the plane, and polynomials are
the globally defined holomorphic functions.  Subtracting that polynomial keeps
every earlier disc's values stable within a summable per-step budget while
leaving the equation untouched (polynomials are entire, so their d-bar is
zero everywhere).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import RungeApproximationFailure, ValidationError
from .family import DbarResult, solve_dbar
from .grid import (
    BeltramiField,
    ComplexField,
    Disc,
    DomainSpec,
    _complex,
    _geometry,
    _integer,
    _real,
    _same_domain,
    rebase,
)
from .solver import SolverConfig

# interpolation patch order for off-grid circle samples; exact through
# polynomial degree PATCH_ORDER - 1 per axis
PATCH_ORDER = 6

CIRCLE_RADIUS_FRACTION = 0.8

# Largest degree taylor_project (and so exhaustion_solve) accepts.  The
# projection builds a (degree + 1) x max(64, 8 degree) complex phase table:
# 0.5 MiB at 64, but 115 GB at degree 30000.  The shipped config uses 8.
MAX_TAYLOR_DEGREE = 64


@dataclass(frozen=True)
class TaylorJet:
    """Polynomial jet from discrete Cauchy integrals on a circle.

    ``circle_residual`` is the max reconstruction error of the polynomial on
    the sampled circle itself -- O(1) when the input has an antiholomorphic
    part the projection cannot represent, which is the flag consumers check.
    """

    center: complex
    radius: float
    coefficients: tuple
    circle_residual: float
    samples: int

    def evaluate(self, z: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(z, dtype=np.complex128)
        for c in reversed(self.coefficients):
            acc = acc * (z - self.center) + c
        return acc


def _lagrange_patch_interpolate(f: ComplexField, points: np.ndarray) -> np.ndarray:
    """Evaluate a grid field at off-grid points with a 6x6 Lagrange patch."""
    domain = f.domain
    N, L, h = domain.resolution, domain.half_width, domain.spacing
    points = points.ravel()
    offsets = np.arange(PATCH_ORDER) - PATCH_ORDER // 2 + 1
    # patch node indices per point, x (columns) and y (rows)
    jj = np.floor((points.real + L) / h).astype(int)[:, None] + offsets
    ii = np.floor((points.imag + L) / h).astype(int)[:, None] + offsets
    if min(jj.min(), ii.min()) < 0 or max(jj.max(), ii.max()) >= N:
        raise ValidationError("interpolation circle leaves the grid")
    wx = _lagrange_weights(points.real, -L + h * jj)
    wy = _lagrange_weights(points.imag, -L + h * ii)
    out = np.empty(points.shape, dtype=np.complex128)
    for m in range(points.size):
        out[m] = wy[m] @ f.samples[np.ix_(ii[m], jj[m])] @ wx[m]
    return out


def _lagrange_weights(t: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Lagrange basis weights w[m, a] = prod over b != a of
    (t[m] - x_b) / (x_a - x_b), with x = nodes[m], for all points at once;
    the factors are multiplied in increasing b."""
    order = nodes.shape[1]
    others = np.array([[b for b in range(order) if b != a] for a in range(order)])
    rest = nodes[:, others]                       # x_b, b != a, per (m, a)
    factors = (t[:, None, None] - rest) / (nodes[:, :, None] - rest)
    return np.prod(factors, axis=2)


def taylor_project(f: ComplexField, center: complex, degree: int,
                   circle_radius: float) -> TaylorJet:
    """Taylor coefficients of f at ``center`` by circle Cauchy integrals.

    a_k = (1 / 2 pi i) contour integral of f(zeta) / (zeta - center)^(k+1),
    evaluated by the trapezoid rule on max(64, 8*degree) equispaced circle
    points (the trapezoid rule is spectrally accurate for periodic
    integrands).  Off-grid circle values come from a local Lagrange patch,
    exact on polynomials through degree 5.

    The jet represents f only where f is holomorphic inside the circle; the
    returned circle_residual flags inputs that are not.  ``center`` is a
    finite complex number, and ``degree`` runs from 1 to MAX_TAYLOR_DEGREE.
    """
    center = _complex(center, "center")
    degree = _integer(degree, "degree", 1, MAX_TAYLOR_DEGREE)
    circle_radius = _real(circle_radius, "circle_radius")
    if circle_radius <= 0:
        raise ValidationError("circle_radius must be positive")
    samples = max(64, 8 * degree)
    theta = 2.0 * np.pi * np.arange(samples) / samples
    ring = center + circle_radius * np.exp(1j * theta)
    values = _lagrange_patch_interpolate(f, ring)
    # trapezoid rule on the circle: a_k = mean(values * e^{-ik theta}) / r^k
    phases = np.exp(-1j * np.outer(np.arange(degree + 1), theta))
    coeffs = (phases @ values) / samples / circle_radius ** np.arange(degree + 1)
    jet = TaylorJet(center, circle_radius, tuple(coeffs), 0.0, samples)
    residual = float(np.max(np.abs(values - jet.evaluate(ring))))
    return replace(jet, circle_residual=residual)


@dataclass(frozen=True)
class ExhaustionStep:
    step: int
    radius: float
    iterations: int
    correction_sup: float     # sup of the subtracted polynomial on the previous disc
    approx_error: float       # post-correction disagreement on the previous disc
    budget: float


@dataclass(frozen=True)
class ExhaustionTrace:
    """Per-step records and the right-hand side the last step solved."""

    steps: tuple
    rhs: ComplexField = field(repr=False)


def _check_exhaustion(domain: DomainSpec, radii: Sequence[float],
                      taylor_degree: int) -> tuple[list, int]:
    """The radii as floats and the degree as an int, checked before a solve
    runs: radii positive, strictly increasing and below L - margin on
    ``domain``, a degree from 1 to MAX_TAYLOR_DEGREE."""
    radii = [_real(r, f"radii[{i}]") for i, r in enumerate(radii)]
    if not radii or radii[0] <= 0 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValidationError(f"radii must be nonempty, positive and strictly "
                              f"increasing, got {radii}")
    if radii[-1] >= domain.half_width - domain.margin:
        raise ValidationError("last radius must satisfy r < L - margin")
    return radii, _integer(taylor_degree, "taylor_degree", 1, MAX_TAYLOR_DEGREE)


def _disc_domain(base: DomainSpec, radius: float) -> DomainSpec:
    """base's grid and margin on the disc of ``radius`` about the origin."""
    return DomainSpec(base.half_width, base.resolution, Disc(0j, radius), base.margin)


def _step_budget(step: int, tol: float) -> float:
    """The approximation budget of exhaustion step ``step`` >= 1,
    tol * 6 / (pi^2 step^2): the budgets of any number of steps sum to at
    most tol, and they decay slowly enough to stay above the rounding floor
    of the Taylor correction (step 11 gets 5.0e-3 tol, where 2^-step tol
    gave 4.9e-4 tol, under that floor at N = 1024)."""
    return tol * 6.0 / (math.pi ** 2 * step ** 2)


def exhaustion_solve(mu: BeltramiField, u: ComplexField,
                     radii: Sequence[float], taylor_degree: int,
                     cfg: SolverConfig = SolverConfig()
                     ) -> tuple[ComplexField, ExhaustionTrace]:
    """Solve the d-bar problem on the plane by exhausting with concentric discs.

    ``mu`` and ``u`` must be supported inside the first disc (the exhaustion
    then exercises only the correction mechanics; wide data additionally
    triggers genuine corrections and, with a small ``taylor_degree``,
    RungeApproximationFailure).  Each step re-tapers the raw data to its disc,
    solves there, projects the difference with the previous solution onto a
    degree <= taylor_degree polynomial via Cauchy integrals on the circle of
    radius 0.8 * previous_radius, and subtracts it, so earlier discs stay
    fixed within the step's budget (``_step_budget``), which sums to at
    most cfg.tol over any number of steps.

    ``mu`` and ``u`` share one DomainSpec, and ``taylor_degree`` runs from
    1 to MAX_TAYLOR_DEGREE.  With a single radius this is exactly solve_dbar
    on that disc.  The trace also carries the rhs that the returned f solves
    on the last disc.
    """
    _same_domain("mu and u", mu, u)
    base = mu.domain
    radii, taylor_degree = _check_exhaustion(base, radii, taylor_degree)
    budgets = [_step_budget(n, cfg.tol) for n in range(1, len(radii) + 1)]

    def solve_on(r: float) -> DbarResult:
        domain = _disc_domain(base, r)
        mu_n = BeltramiField.from_raw(rebase(mu.raw, domain))
        u_n = ComplexField(domain, _geometry(domain).cutoff * u.samples)
        return solve_dbar(mu_n, u_n, cfg)

    def corrected(n: int, result: DbarResult, current: np.ndarray) -> tuple:
        """Step n's f less the Taylor polynomial of its difference with the
        corrected samples of step n - 1, and the step's record."""
        z = _geometry(base).coordinates()   # formed per step: not held by a solve
        prev_radius = radii[n - 2]
        prev_mask = np.abs(z) <= prev_radius
        diff_samples = result.f.samples - current
        diff = ComplexField(result.f.domain, diff_samples)
        jet = taylor_project(diff, 0j, taylor_degree,
                             CIRCLE_RADIUS_FRACTION * prev_radius)
        poly = jet.evaluate(z)
        budget = budgets[n - 1]
        approx_error = float(np.max(np.abs((diff_samples - poly)[prev_mask])))
        if approx_error > budget:
            raise RungeApproximationFailure(n, approx_error, budget)
        return result.f.samples - poly, ExhaustionStep(
            n, radii[n - 1], result.diagnostics.iterations,
            float(np.max(np.abs(poly[prev_mask]))), approx_error, budget)

    # A step keeps only the corrected samples of the last disc: the last
    # result, and with it its domain and that domain's tables, goes before
    # the next solve.
    result = solve_on(radii[0])
    current = result.f.samples
    steps = [ExhaustionStep(1, radii[0], result.diagnostics.iterations,
                            0.0, 0.0, budgets[0])]
    for n, r in enumerate(radii[1:], start=2):
        del result
        result = solve_on(r)
        current, step = corrected(n, result, current)
        steps.append(step)

    return (ComplexField(result.f.domain, current),
            ExhaustionTrace(tuple(steps), result.rhs))
