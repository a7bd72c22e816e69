"""Moving-frame 1-form algebra and the d-bar solver for coefficient families.

A 1-form beta on Omega is carried as a coefficient pair in one of two frames:
the background frame (dz, dzbar) of the identity coordinate, or the moving
frame (dh, dhbar) of the quasiconformal immersion h attached to a coefficient
mu.  Writing g = dh/dz, the frames convert pointwise by

    A_mu = (A - conj(mu) B) / ((1 - |mu|^2) g)
    B_mu = (B - mu A) / ((1 - |mu|^2) conj(g))

and back by the linear system A = A_mu g + B_mu conj(mu g),
B = A_mu mu g + B_mu conj(g).

The d-bar problem for the structure of mu with moving-frame datum u is
equivalent to the nonhomogeneous Beltrami equation

    f_zbar - mu f_z = (1 - |mu|^2) conj(g) u,

solved by one Neumann inversion followed by the Cauchy transform.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Literal, Optional

import numpy as np

from .errors import (
    BeltramiError,
    ContractionTooLarge,
    DegenerateFrame,
    NoConvergence,
    ValidationError,
)
from .grid import (
    BeltramiField,
    ComplexField,
    _fd_beltrami_defect,
    _FourierApply,
    _integer,
    _on_grid,
    _real,
    _same_domain,
    _support_box,
    interior_mask,
    sup_norm,
)
from .solver import (
    SolverConfig,
    check_nondegenerate,
    neumann_solve,
    solve_immersion,
)
from .transforms import cauchy_transform

FRAME_DEGENERACY_TOL = 1e-12


# ---------------------------------------------------------------------------
# 1-forms and frame conversion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OneFormField:
    """Coefficient pair of a 1-form in a named frame.

    ``coeff_10`` multiplies dz (background) or dh (moving); ``coeff_01``
    multiplies dzbar or dhbar.  A moving-frame form remembers the coefficient
    mu whose immersion defines its frame.
    """

    frame: Literal["background", "moving"]
    coeff_10: ComplexField
    coeff_01: ComplexField
    mu: Optional[BeltramiField] = None

    def __post_init__(self):
        if self.frame not in ("background", "moving"):
            raise ValidationError(f"unknown frame {self.frame!r}")
        _same_domain("coefficient fields", self.coeff_10, self.coeff_01)
        if self.frame == "moving" and self.mu is None:
            raise ValidationError("moving-frame forms must carry their mu")

    @property
    def domain(self):
        return self.coeff_10.domain


def _check_frame_regular(form: OneFormField, mu: BeltramiField, g: ComplexField):
    _same_domain("form, mu and g", form, mu, g)
    gmin = float(np.min(np.abs(g.samples)))
    if gmin <= FRAME_DEGENERACY_TOL:
        raise DegenerateFrame(f"|g| vanishes on the grid (min {gmin:.3e})")
    dmin = float(np.min(1.0 - np.abs(mu.extended.samples) ** 2))
    if dmin <= FRAME_DEGENERACY_TOL:
        raise DegenerateFrame(f"1 - |mu|^2 vanishes on the grid (min {dmin:.3e})")


def convert_to_moving(form: OneFormField, mu: BeltramiField,
                      g: ComplexField) -> OneFormField:
    """Convert a background-frame form to the moving frame of (mu, g)."""
    if form.frame != "background":
        raise ValidationError("convert_to_moving expects a background-frame form")
    _check_frame_regular(form, mu, g)
    m = mu.extended.samples
    gs = g.samples
    denom = (1.0 - np.abs(m) ** 2)
    a, b = form.coeff_10.samples, form.coeff_01.samples
    a_mu = (a - np.conj(m) * b) / (denom * gs)
    b_mu = (b - m * a) / (denom * np.conj(gs))
    return OneFormField("moving",
                        ComplexField(form.domain, a_mu),
                        ComplexField(form.domain, b_mu), mu=mu)


def convert_to_background(form: OneFormField, mu: BeltramiField,
                          g: ComplexField) -> OneFormField:
    """Convert a moving-frame form back to the background frame."""
    if form.frame != "moving":
        raise ValidationError("convert_to_background expects a moving-frame form")
    _check_frame_regular(form, mu, g)
    m = mu.extended.samples
    gs = g.samples
    a_mu, b_mu = form.coeff_10.samples, form.coeff_01.samples
    a = a_mu * gs + b_mu * np.conj(m * gs)
    b = a_mu * m * gs + b_mu * np.conj(gs)
    return OneFormField("background",
                        ComplexField(form.domain, a),
                        ComplexField(form.domain, b))


# ---------------------------------------------------------------------------
# families of coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    """A one-parameter family of Beltrami coefficients over b in [0, 1].

    law "linear": mu_b = b * base_mu.  law "table": explicit coefficient per
    grid point, aligned with parameter_grid.
    """

    base_mu: BeltramiField
    parameter_grid: tuple
    law: Literal["linear", "table"] = "linear"
    table: Optional[tuple] = None

    def __post_init__(self):
        grid = tuple(_real(b, "family parameter") for b in self.parameter_grid)
        object.__setattr__(self, "parameter_grid", grid)
        if len(grid) == 0:
            raise ValidationError("parameter_grid must be nonempty")
        if any(not 0.0 <= b <= 1.0 for b in grid):
            raise ValidationError("parameters must lie in [0, 1]")
        if self.law == "linear":
            if self.table is not None:
                raise ValidationError("linear law takes no table")
        elif self.law == "table":
            if self.table is None or len(self.table) != len(grid):
                raise ValidationError("table law needs one coefficient per parameter")
            object.__setattr__(self, "table", tuple(self.table))
            _same_domain("table entries", self.base_mu, *self.table)
        else:
            raise ValidationError(f"unknown family law {self.law!r}")

    def realize(self, index: int) -> BeltramiField:
        """The coefficient at parameter_grid[index], for an int index in range."""
        index = _integer(index, "index", 0, len(self.parameter_grid) - 1)
        if self.law == "linear":
            return self.base_mu.scaled(self.parameter_grid[index])
        return self.table[index]


# ---------------------------------------------------------------------------
# d-bar solves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DbarDiagnostics:
    iterations: int
    neumann_residual: float
    interior_residual: float          # |f_zbar - mu f_z - rhs| on interior Omega
    moving_frame_residual: float      # |(f_zbar - mu f_z)/((1-|mu|^2) conj(g)) - u|
    trace: tuple = field(repr=False, default=())


@dataclass(frozen=True)
class DbarResult:
    """Particular solution f, the right-hand side it solves, and diagnostics."""

    f: ComplexField
    diagnostics: DbarDiagnostics
    rhs: ComplexField = field(repr=False)


def _dbar_data(m: np.ndarray, g: np.ndarray, u: np.ndarray, inner: np.ndarray) -> tuple:
    """The d-bar rhs (1 - |mu|^2) conj(g) u, and its frame factor
    (1 - |mu|^2) conj(g) at the ``inner`` points: all that a d-bar solve
    reads of g = dh/dz, so a caller that drops g then frees it."""
    frame = (1.0 - np.abs(m) ** 2) * np.conj(g)
    return frame * u, frame[inner]


def _dbar_result(mu: BeltramiField, denom: np.ndarray, u: ComplexField,
                 rhs: ComplexField, phi: ComplexField, iterations: int,
                 neumann_residual: float, trace: tuple) -> DbarResult:
    """f = P(phi) and its finite-difference residuals on interior Omega;
    ``denom`` is the interior frame factor of ``_dbar_data``."""
    f = cauchy_transform(phi)
    inner = interior_mask(u.domain)
    lhs = _fd_beltrami_defect(f, mu)
    interior_residual = float(np.max(np.abs(lhs - rhs.samples[inner])))
    moving_frame_residual = float(np.max(np.abs(lhs / denom - u.samples[inner])))
    return DbarResult(
        f=f,
        diagnostics=DbarDiagnostics(
            iterations=iterations,
            neumann_residual=neumann_residual,
            interior_residual=interior_residual,
            moving_frame_residual=moving_frame_residual,
            trace=trace,
        ),
        rhs=rhs,
    )


def solve_dbar(mu: BeltramiField, u: ComplexField,
               cfg: SolverConfig = SolverConfig()) -> DbarResult:
    """Solve the d-bar equation for the structure of mu with datum u.

    ``u`` is the moving-frame (0,1) coefficient (cutoff-tapered).  The solve
    reduces to the nonhomogeneous Beltrami equation with right-hand side
    (1 - |mu|^2) conj(g) u, returned as ``rhs``, and returns the particular
    solution f = P(phi).  Both residuals of the result are reported: the
    background Beltrami residual and the equivalent moving-frame one,
    evaluated with the finite-difference derivative route on interior Omega.
    """
    _same_domain("mu and u", mu, u)
    g = solve_immersion(mu, cfg).g.samples
    rhs, denom = _dbar_data(mu.extended.samples, g, u.samples, interior_mask(u.domain))
    del g   # before the d-bar solve
    return _solve_dbar(mu, u, rhs, denom, cfg)


def _solve_dbar(mu: BeltramiField, u: ComplexField, rhs: np.ndarray,
                denom: np.ndarray, cfg: SolverConfig) -> DbarResult:
    """solve_dbar given ``_dbar_data``."""
    rhs = ComplexField(u.domain, rhs)
    res = neumann_solve(mu, rhs, cfg)
    return _dbar_result(mu, denom, u, rhs, res.phi, res.iterations,
                        res.final_residual, res.trace)


# relative size above which a would-be (0,1) datum's moving (1,0) part is
# rejected as incompatible with the structure of mu
COMPATIBILITY_RTOL = 1e-8


def solve_dbar_form(mu: BeltramiField, form: OneFormField,
                    cfg: SolverConfig = SolverConfig()) -> DbarResult:
    """Solve the d-bar equation with the datum given as a 1-form.

    Accepts either frame: a background-frame form is converted to the moving
    frame of mu first, so the solve always runs on the normal-form moving
    coefficient.  The form must actually be (0,1) for the structure of mu:
    its moving-frame (1,0) coefficient may not exceed COMPATIBILITY_RTOL
    relative to the (0,1) one.
    """
    _same_domain("form and mu", form, mu)
    g = solve_immersion(mu, cfg).g   # phi goes with the immersion
    if form.frame == "background":
        moving = convert_to_moving(form, mu, g)
    else:
        if form.mu is not mu and not np.array_equal(
                form.mu.extended.samples, mu.extended.samples):
            raise ValidationError("form is framed by a different coefficient")
        moving = form
    u = moving.coeff_01
    scale = float(np.max(np.abs(u.samples)))
    stray = float(np.max(np.abs(moving.coeff_10.samples)))
    if stray > COMPATIBILITY_RTOL * max(scale, 1e-300):
        raise ValidationError(
            f"datum is not a (0,1)-form for this structure: moving (1,0) "
            f"part {stray:.3e} vs (0,1) scale {scale:.3e}"
        )
    rhs, denom = _dbar_data(mu.extended.samples, g.samples, u.samples,
                            interior_mask(u.domain))
    del g, moving   # before the d-bar solve
    return _solve_dbar(mu, u, rhs, denom, cfg)


@dataclass(frozen=True)
class FamilyEntry:
    b: float
    result: Optional[DbarResult]
    error: Optional[str] = None


@dataclass(frozen=True)
class FamilySweepResult:
    """Per-parameter solutions plus the parameter-regularity report."""

    entries: tuple
    adjacent_differences: tuple   # (b_lo, b_hi, sup|f_hi - f_lo|, ratio) per pair
    lipschitz_constant: Optional[float]
    extrapolation_errors: tuple   # (b, error) per interior quadruple, uniform grids


def _quadratic_extrapolation_gap(f_prev, f_mid, f_next, f_target) -> float:
    """Sup gap between f_target and the quadratic through the three nodes.

    For equispaced parameters the quadratic through (t-d, t, t+d) evaluated at
    t+2d is f_prev - 3 f_mid + 3 f_next; the gap scales like the cube of the
    spacing whenever the parameter dependence is smooth, which is the
    computable surrogate for analytic dependence on the coefficient.
    """
    pred = f_prev.samples - 3.0 * f_mid.samples + 3.0 * f_next.samples
    return float(np.max(np.abs(f_target.samples - pred)))


def _difference_positions(entries) -> list:
    """Positions i, in report order, of the entries whose pair
    (entries[i - 1], entries[i]) has an adjacent difference: both solved,
    at different parameters."""
    return [i for i in range(1, len(entries))
            if entries[i - 1].result is not None and entries[i].result is not None
            and entries[i].b != entries[i - 1].b]


def _extrapolation_positions(entries) -> list:
    """Positions i, in report order, of the entries with an extrapolation
    gap against the quadratic through entries i - 3 .. i - 1: on uniform
    grids of at least four points, when all four are solved."""
    grid = [e.b for e in entries]
    steps = [b2 - b1 for b1, b2 in zip(grid, grid[1:])]
    uniform = steps and all(math.isclose(s, steps[0], rel_tol=1e-12) for s in steps)
    if not uniform or len(grid) < 4:
        return []
    return [i for i in range(3, len(grid))
            if all(e.result is not None for e in entries[i - 3:i + 1])]


@dataclass
class _SeriesPoint:
    """A linear-law grid point whose b-power series is still being summed."""

    index: int
    b: float
    chain: int          # which datum's d-bar chain feeds psi
    phi: np.ndarray     # sum of b^n a_n so far, on the support box
    psi: np.ndarray     # sum of b^n c_n so far, on the support box
    trace: list         # term sizes b^n max(sup|a_n|, sup|c_n|)


def _finish_series_point(family: FamilySpec, point: _SeriesPoint,
                         u: ComplexField, cfg: SolverConfig,
                         beurling: _FourierApply) -> Optional[DbarResult]:
    """The result of a point whose last term met the stop test.

    Returns None while a measured residual is still above cfg.tol: the
    immersion residual |mu_b g_b - phi_b| with g_b = 1 + S(phi_b), or the
    d-bar residual |rhs_b + mu_b S(psi_b) - psi_b|.  Both vanish off the
    support box, so they are measured on it.  The whole-grid psi_b is built
    only for a result, from a copy of u.
    """
    mu = family.realize(point.index)
    m = mu.extended.samples
    domain = u.domain
    box = beurling.box
    beurling(point.phi)
    g = beurling.finish() + 1.0
    immersion_step = m[box] * g[box] - point.phi
    if float(np.max(np.abs(immersion_step), initial=0.0)) <= cfg.tol:
        rhs, denom = _dbar_data(m, g, u.samples, interior_mask(domain))
        psi_step = rhs[box] + m[box] * beurling(point.psi) - point.psi
        residual = float(np.max(np.abs(psi_step), initial=0.0))
        if residual <= cfg.tol:
            check_nondegenerate(g, domain)
            del g   # before the Cauchy transform
            return _dbar_result(mu, denom, u, ComplexField(domain, rhs),
                                ComplexField(domain, _on_grid(u.samples, box,
                                                              point.psi)),
                                len(point.trace), residual,
                                tuple(point.trace))
    return None


def _solve_linear_series(family: FamilySpec, u_family, cfg: SolverConfig) -> list:
    """Entries of a linear-law sweep from the b-power series of both fixed points.

    For mu_b = b mu_0 the immersion fixed point is phi_b = sum_{n>=1} b^n a_n
    with a_1 = mu_0, g_n = S(a_n), a_{n+1} = mu_0 g_n, and the d-bar fixed
    point is psi_b = sum_{n>=0} b^n c_n with c_0 = u,
    c_n = r_n + mu_0 S(c_{n-1}) and r_n = (conj(g_n) - |mu_0|^2 conj(g_{n-2})) u
    (g_0 = 1, g_{-1} = 0): the b-expansion of the rhs (1 - b^2|mu_0|^2)
    conj(g_b) u.  One recurrence serves every grid point at two Beurling
    applies per term (one more per extra distinct datum).  Each point adds
    b^n times the new terms to its own sums and is finished once its term size
    reaches cfg.tol and its measured residuals pass, so its result is bitwise
    independent of the other grid points.  Point b is gated on
    sup|mu_b| = b sup|mu_0|, as neumann_solve gates a per-b solve.  Every
    term vanishes off the box of the nonzero samples of mu_0 and the data,
    so the recurrence and the sums are box arrays.
    """
    grid = family.parameter_grid
    domain = family.base_mu.domain
    m0 = family.base_mu.extended.samples
    sup0 = family.base_mu.sup_norm
    entries = [None] * len(grid)
    data = []                       # distinct data, one d-bar chain each
    chains = []                     # (index, b, chain) of each gated point
    for i, b in enumerate(grid):
        if b * sup0 >= cfg.contraction_cap:
            exc = ContractionTooLarge(b * sup0, cfg.contraction_cap)
            entries[i] = FamilyEntry(b, None, error=str(exc))
            continue
        u = u_family[i].samples
        chain = next((j for j, d in enumerate(data) if np.array_equal(d, u)),
                     len(data))
        if chain == len(data):
            data.append(u)
        chains.append((i, b, chain))

    box = _support_box(m0, *data)
    beurling = _FourierApply.beurling(domain, box)
    m0_box = m0[box]
    abs2 = np.abs(m0_box) ** 2
    data_box = [d[box] for d in data]
    live = [_SeriesPoint(i, b, j, np.zeros_like(m0_box), data_box[j].copy(), [])
            for i, b, j in chains]
    # the recurrence updates buffers allocated here, once per sweep; a_{n+1}
    # ping-pongs between two of them, since a_1 is the read-only mu_0 box
    a, a_buffers = m0_box, (np.empty_like(m0_box), np.empty_like(m0_box))
    c = [d.copy() for d in data_box]                # c_{n-1} per chain
    conj_g, conj_g1, conj_g2 = (np.empty_like(m0_box) for _ in range(3))
    conj_g1.fill(1.0)                       # conj(g_{n-1}), g_0 = 1
    conj_g2.fill(0.0)                       # conj(g_{n-2}), g_{-1} = 0
    weight, tmp = np.empty_like(m0_box), np.empty_like(m0_box)
    magnitude = np.empty(m0_box.shape)
    n = 0
    while live and n < cfg.max_iter:
        n += 1
        g = beurling(a)
        np.conj(g, out=conj_g)
        # a_{n+1} = mu_0 g_n, so the apply that holds g_n is free again
        a_next = np.multiply(m0_box, g, out=a_buffers[n % 2])
        np.subtract(conj_g, np.multiply(abs2, conj_g2, out=weight), out=weight)
        c_size = {}
        for j in sorted({p.chain for p in live}):
            np.multiply(m0_box, beurling(c[j]), out=c[j])
            np.add(np.multiply(weight, data_box[j], out=tmp), c[j], out=c[j])
            c_size[j] = float(np.max(np.abs(c[j], out=magnitude), initial=0.0))
        a_size = float(np.max(np.abs(a, out=magnitude), initial=0.0))
        pending = []
        for p in live:
            bn = p.b ** n
            np.add(p.phi, np.multiply(bn, a, out=tmp), out=p.phi)
            np.add(p.psi, np.multiply(bn, c[p.chain], out=tmp), out=p.psi)
            p.trace.append(bn * max(a_size, c_size[p.chain]))
            if p.trace[-1] > cfg.tol:
                pending.append(p)
                continue
            try:
                result = _finish_series_point(family, p, u_family[p.index], cfg,
                                              beurling)
            except BeltramiError as exc:
                entries[p.index] = FamilyEntry(p.b, None, error=str(exc))
                continue
            if result is None:
                pending.append(p)
            else:
                entries[p.index] = FamilyEntry(p.b, result)
        live = pending
        a = a_next
        conj_g2, conj_g1, conj_g = conj_g1, conj_g, conj_g2
    for p in live:
        exc = NoConvergence(p.psi, n, p.trace[-1], tuple(p.trace))
        entries[p.index] = FamilyEntry(p.b, None, error=str(exc))
    return entries


def solve_family(family: FamilySpec, u_family, cfg: SolverConfig = SolverConfig(),
                 threads: int = 1) -> FamilySweepResult:
    """Solve the d-bar problem at every parameter of the family.

    ``u_family`` is a list of moving-frame data aligned with the parameter
    grid.  A linear-law family with two or more grid points is solved as one
    power series in b (see ``_solve_linear_series``): a single recurrence of
    two Beurling applies per term feeds every grid point, and an entry's
    ``iterations`` is the number of series terms it used, its ``trace`` the
    sizes of those terms.  Table-law families and one-point grids run one
    immersion and one Neumann d-bar solve per parameter; only these use
    ``threads`` worker threads (0 = ``os.cpu_count()``, never more than the
    grid points; results are stored by index, so thread scheduling cannot
    change the output).  Either way an entry does not depend on the other
    grid points, and per-parameter failures are recorded in their entry
    rather than failing the sweep.  The report carries adjacent sup
    differences with a single fitted Lipschitz constant, and
    quadratic-extrapolation gaps when the grid is uniform with at least four
    points.
    """
    threads = _integer(threads, "threads", 0)
    grid = family.parameter_grid
    if len(u_family) != len(grid):
        raise ValidationError("u_family must align with the parameter grid")
    _same_domain("family data", family.base_mu, *u_family)

    def solve_one(i: int) -> FamilyEntry:
        try:
            result = solve_dbar(family.realize(i), u_family[i], cfg)
            return FamilyEntry(grid[i], result)
        except BeltramiError as exc:
            return FamilyEntry(grid[i], None, error=str(exc))

    indices = range(len(grid))
    workers = min(threads or os.cpu_count() or 1, len(grid))
    if family.law == "linear" and len(grid) > 1:
        entries = _solve_linear_series(family, u_family, cfg)
    elif workers == 1:
        entries = [solve_one(i) for i in indices]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            entries = list(pool.map(solve_one, indices))

    diffs = []
    for i in _difference_positions(entries):
        lo, hi = entries[i - 1], entries[i]
        d = sup_norm(hi.result.f - lo.result.f)
        diffs.append((lo.b, hi.b, d, d / abs(hi.b - lo.b)))
    lipschitz = max((r for *_, r in diffs), default=None)
    extrap = [(entries[i].b, _quadratic_extrapolation_gap(
                  *(e.result.f for e in entries[i - 3:i + 1])))
              for i in _extrapolation_positions(entries)]
    return FamilySweepResult(tuple(entries), tuple(diffs), lipschitz, tuple(extrap))
