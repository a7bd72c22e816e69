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
    _Blockwise,
    _fd_beltrami_defect,
    _FourierApply,
    _full_box,
    _geometry,
    _integer,
    _interior,
    _real,
    _row_blocks,
    _same_domain,
    _support_box,
    omega_mask,
)
from .solver import (
    SolverConfig,
    _neumann,
    check_nondegenerate,
    solve_immersion,
)

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
        else:
            raise ValidationError(f"unknown family law {self.law!r}")
        coefficients = (self.base_mu, *(self.table or ()))
        for mu in coefficients:
            if not isinstance(mu, BeltramiField):
                raise ValidationError(f"family coefficients must be BeltramiFields, "
                                      f"got {type(mu).__name__}")
        _same_domain("table entries", *coefficients)

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
    """Particular solution f, the right-hand side it solves, and diagnostics.

    The rhs (1 - |mu|^2) conj(g) u vanishes wherever the datum u does, so
    the result keeps only its samples on the support box of u
    (``_support_box``; empty for u = 0, the whole grid for a u with no
    zero row or column), as ``rhs_on_box`` = (box, read-only samples).
    ``rhs`` builds the whole field on each read, +0 off that box, and does
    not keep it: a caller that drops it frees it.
    """

    f: ComplexField
    diagnostics: DbarDiagnostics
    rhs_on_box: tuple = field(repr=False, compare=False)

    @property
    def rhs(self) -> ComplexField:
        box, samples = self.rhs_on_box
        whole = np.zeros(self.f.samples.shape, dtype=np.complex128)
        whole[box] = samples
        return ComplexField(self.f.domain, whole)


# The d-bar finish, shared by solve_dbar, solve_dbar_form and the linear
# series: ``_dbar_data`` forms the rhs from g, ``_dbar_finish`` the result
# from the fixed point.  They read mu_ext as an array or a ``_Blockwise``
# reader of b mu_0, and form every whole-grid expression in row blocks.

def _overlap(rows: slice, other: slice) -> slice:
    """The rows that ``rows`` and ``other`` share, an empty slice if none."""
    lo = max(rows.start, other.start)
    return slice(lo, max(lo, min(rows.stop, other.stop)))


def _shift(rows: slice, origin: int) -> slice:
    """``rows`` as offsets from ``origin``."""
    return slice(rows.start - origin, rows.stop - origin)


def _box_blocks(box: tuple):
    """(key, at) for the row blocks of ``box``, top to bottom: ``key`` is a
    block of the grid, ``at`` the same rows of an array of the box's shape."""
    rows, cols = box
    for block in _row_blocks(rows, cols.stop - cols.start):
        yield (block, cols), _shift(block, rows.start)


def _dbar_data(m, g: np.ndarray, u: ComplexField, box: tuple,
               rhs: np.ndarray) -> tuple:
    """Write the d-bar rhs (1 - |mu|^2) conj(g) u on ``box``, the support
    box of u, into ``rhs`` (an array of the box's shape); return its frame
    factor (1 - |mu|^2) conj(g) at the interior points and min |g| there:
    all that a d-bar solve reads of g, so a caller that drops g then frees
    it.  m holds the samples of mu_ext.  The frame is formed a row block at
    a time, on ``box`` for the rhs and on the interior box for the rest."""
    def frame(key):
        return (1.0 - np.abs(m[key]) ** 2) * np.conj(g[key])

    for key, at in _box_blocks(box):
        np.multiply(frame(key), u.samples[key], out=rhs[at])
    inner_box, inner = _interior(u.domain)
    denom, gmin = [], []
    for key, at in _box_blocks(inner_box):
        denom.append(frame(key)[inner[at]])
        gmin.append(np.min(np.abs(g[key][inner[at]]), initial=np.inf))
    return np.concatenate(denom), float(np.min(gmin))


def _box_sup(box: tuple, step) -> float:
    """The max of |step(key, at)| over ``_box_blocks(box)``.  0 on an empty
    box; a NaN comes through."""
    return float(np.max([np.max(np.abs(step(key, at)), initial=0.0)
                         for key, at in _box_blocks(box)], initial=0.0))


def _dbar_finish(m, u: ComplexField, denom: np.ndarray, rhs_on_box: tuple,
                 psi: np.ndarray, box: tuple, residual: float,
                 trace: tuple) -> DbarResult:
    """The result of the d-bar fixed point psi, given by its samples on
    ``box`` (it vanishes off it): f = P(psi), from a box apply, and its
    finite-difference residuals on interior Omega.  ``denom`` is the
    interior frame factor of ``_dbar_data``, m the samples of mu_ext and
    ``rhs_on_box`` the result's (box of u, rhs samples on it)."""
    geo = _geometry(u.domain)
    f = ComplexField(u.domain, _FourierApply.whole(geo.P, geo.w, psi, box))
    lhs = _fd_beltrami_defect(f, m)
    inner_box, inner = _interior(u.domain)
    u_inner = u.samples[inner_box][inner]
    # the rhs at the interior points, bitwise: _dbar_data formed it as frame * u
    interior_residual = float(np.max(np.abs(lhs - np.multiply(denom, u_inner))))
    moving_frame_residual = float(np.max(np.abs(lhs / denom - u_inner)))
    rhs_on_box[1].setflags(write=False)
    return DbarResult(
        f=f,
        diagnostics=DbarDiagnostics(
            iterations=len(trace),
            neumann_residual=residual,
            interior_residual=interior_residual,
            moving_frame_residual=moving_frame_residual,
            trace=trace,
        ),
        rhs_on_box=rhs_on_box,
    )


def _immersion_g(beurling: _FourierApply) -> np.ndarray:
    """g = 1 + S(phi) from the apply that holds S(phi) on its box: finished
    and written over S(phi) in the apply buffer."""
    s = beurling.finish()
    return np.add(s, 1.0, out=s)


def _dbar_tail(mu: BeltramiField, datum: tuple, cfg: SolverConfig) -> DbarResult:
    """solve_dbar for datum = (u, the samples of g = dh/dz), passed as the
    only reference to g, so that g is freed before the Neumann solve.  The
    rhs is formed on the support box of u, in a zeroed grid for the loop;
    the result keeps a copy of that box."""
    u, g = datum
    m, support = mu.extended.samples, _support_box(u.samples)
    whole = np.zeros(u.samples.shape, dtype=np.complex128)
    denom, gmin = _dbar_data(m, g, u, support, whole[support])
    del datum, g   # before the d-bar solve
    check_nondegenerate(gmin)
    psi, trace, beurling = _neumann(mu, whole, cfg)
    box = beurling.box
    del beurling   # before the Cauchy transform
    rhs_on_box = (support, whole[support].copy())
    del whole
    return _dbar_finish(m, u, denom, rhs_on_box, psi, box, trace[-1], tuple(trace))


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
    return _dbar_tail(mu, (u, _immersion_g(_neumann(mu, mu.extended.samples, cfg)[-1])),
                      cfg)


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
    return _dbar_tail(mu, _moving_datum(mu, form, cfg), cfg)


def _moving_datum(mu: BeltramiField, form: OneFormField, cfg: SolverConfig) -> tuple:
    """(u, g) for solve_dbar_form: the form's moving-frame (0,1)
    coefficient and the samples of g = dh/dz of mu's immersion."""
    g = solve_immersion(mu, cfg).g   # phi goes with the immersion
    moving = convert_to_moving(form, mu, g) if form.frame == "background" else form
    if moving.mu is not mu and not np.array_equal(moving.mu.extended.samples,
                                                  mu.extended.samples):
        raise ValidationError("form is framed by a different coefficient")
    u = moving.coeff_01
    scale = float(np.max(np.abs(u.samples)))
    stray = float(np.max(np.abs(moving.coeff_10.samples)))
    if stray > COMPATIBILITY_RTOL * max(scale, 1e-300):
        raise ValidationError(
            f"datum is not a (0,1)-form for this structure: moving (1,0) "
            f"part {stray:.3e} vs (0,1) scale {scale:.3e}"
        )
    return u, g.samples


@dataclass(frozen=True)
class FamilyEntry:
    b: float
    result: Optional[DbarResult]
    error: Optional[str] = None


@dataclass(frozen=True)
class FamilySweepResult:
    """Per-parameter solutions plus the parameter-regularity report, whose
    sups are taken over Omega."""

    entries: tuple
    adjacent_differences: tuple   # (b_lo, b_hi, sup|f_hi - f_lo|, ratio) per pair
    lipschitz_constant: Optional[float]
    extrapolation_errors: tuple   # (b, error) per interior quadruple, uniform grids


def _quadratic_extrapolation_gap(prev, mid, nxt, target, omega) -> float:
    """Sup gap over Omega between target and the quadratic through the
    three nodes.

    For equispaced parameters the quadratic through (t-d, t, t+d) evaluated at
    t+2d is f_prev - 3 f_mid + 3 f_next; the gap scales like the cube of the
    spacing whenever the parameter dependence is smooth, which is the
    computable surrogate for analytic dependence on the coefficient.  The
    solutions are given by their samples on Omega's bounding box, ``omega``
    is the Omega mask on that box.
    """
    return _box_sup(_full_box(omega), lambda key, at: (
        target[key] - (prev[key] - 3.0 * mid[key] + 3.0 * nxt[key]))[omega[key]])


def _sup_difference(f, g, omega) -> float:
    """The max of |f - g| over Omega, for samples on Omega's bounding box
    and ``omega`` the Omega mask on that box."""
    return _box_sup(_full_box(omega), lambda key, at: (f[key] - g[key])[omega[key]])


class _Regularity:
    """The parameter-regularity report of a sweep, built as its entries arrive.

    ``add`` takes entries in any order and processes them in grid order,
    holding an early one until every entry before it has arrived.  Of the
    solutions it keeps only those a later difference or gap still reads: the
    last three processed (the last one on a grid without gaps), and the held
    ones; of each, only a copy of its samples on the bounding box of Omega,
    so a caller that drops an entry frees its f.  Values are keyed by grid
    position i: ``differences[i]`` is (b_lo, b_hi, sup|f_hi - f_lo|, ratio)
    of entries i - 1 and i, both solved, at different parameters;
    ``gaps[i]`` is (b, gap) of entry i against the quadratic through entries
    i - 3 .. i - 1, on uniform grids of at least four points, when all four
    are solved.  Both sups are taken over Omega.  ``diagnostics[i]`` is
    entry i's, None if it failed.
    """

    def __init__(self, grid: tuple):
        self.grid = grid
        steps = [b2 - b1 for b1, b2 in zip(grid, grid[1:])]
        uniform = len(grid) >= 4 and all(
            math.isclose(s, steps[0], rel_tol=1e-12) for s in steps)
        self._depth = 3 if uniform else 1
        self._box = None    # Omega's bounding box, read from the first solution
        self._omega = None  # the Omega mask on it
        self._held = {}     # index -> box samples, None if failed, of entries not yet processed
        self._last = ()     # box samples, None if failed, of the last entries processed
        self._next = 0      # the index processed next
        self.diagnostics = [None] * len(grid)
        self.differences = {}
        self.gaps = {}

    def _on_box(self, f: ComplexField) -> np.ndarray:
        if self._box is None:
            om = omega_mask(f.domain)
            self._box = _support_box(om)
            self._omega = om[self._box].copy()
        return f.samples[self._box].copy()

    def add(self, index: int, entry: FamilyEntry) -> None:
        solved = entry.result is not None
        self.diagnostics[index] = entry.result.diagnostics if solved else None
        self._held[index] = self._on_box(entry.result.f) if solved else None
        grid, omega = self.grid, self._omega
        while self._next in self._held:
            i = self._next
            f, last = self._held.pop(i), self._last
            if (f is not None and last and last[-1] is not None
                    and grid[i] != grid[i - 1]):
                d = _sup_difference(f, last[-1], omega)
                self.differences[i] = (grid[i - 1], grid[i], d,
                                       d / abs(grid[i] - grid[i - 1]))
            if f is not None and len(last) == 3 and all(g is not None for g in last):
                self.gaps[i] = (grid[i], _quadratic_extrapolation_gap(*last, f, omega))
            self._last = (last + (f,))[-self._depth:]
            self._next += 1

    def summary(self) -> tuple:
        """FamilySweepResult's adjacent_differences, lipschitz_constant and
        extrapolation_errors, once every entry is processed."""
        diffs = tuple(self.differences.values())    # in grid order
        return (diffs, max((r for *_, r in diffs), default=None),
                tuple(self.gaps.values()))


@dataclass
class _SeriesPoint:
    """A linear-law grid point whose b-power series is still being summed."""

    index: int
    b: float
    phi: np.ndarray     # sum of b^n a_n so far, on the support box
    psi: np.ndarray     # sum of b^n c_n so far, on the support box
    trace: list         # term sizes b^n max(sup|a_n|, sup|c_n|)


def _above_tol(point: _SeriesPoint, cfg: SolverConfig, residual: float) -> bool:
    """Whether a measured residual of a series point is above cfg.tol;
    NoConvergence if it is not finite."""
    if not math.isfinite(residual):
        raise NoConvergence(point.psi, len(point.trace), residual, tuple(point.trace))
    return residual > cfg.tol


def _finish_series_point(family: FamilySpec, point: _SeriesPoint,
                         u: ComplexField, support: tuple, cfg: SolverConfig,
                         beurling: _FourierApply) -> Optional[FamilyEntry]:
    """The entry of a point whose last term met the stop test.

    Returns None while a measured residual is still above cfg.tol: the
    immersion residual |mu_b g_b - phi_b| with g_b = 1 + S(phi_b), or the
    d-bar residual |rhs_b + mu_b S(psi_b) - psi_b|; raises NoConvergence
    when one is not finite.  Both vanish off the apply box, so they are
    measured on it; rhs_b is formed on ``support``, the support box of u,
    and added there only: off it rhs_b is a zero, which moves no sup.
    mu_b = b mu_0 is read in blocks, bitwise ``family.realize``'s, and g_b
    from the apply buffer.
    """
    m = _Blockwise(point.b, family.base_mu.extended.samples)
    box = beurling.box
    beurling(point.phi)
    g = _immersion_g(beurling)
    phi, psi = point.phi, point.psi
    if _above_tol(point, cfg, _box_sup(box, lambda key, at: m[key] * g[key] - phi[at])):
        return None
    rhs = np.empty_like(u.samples[support])
    denom, gmin = _dbar_data(m, g, u, support, rhs)
    s = beurling(psi)   # the apply buffer no longer holds g
    rows, cols = support

    def defect(key, at):
        t = m[key] * s[at]
        both = _overlap(key[0], rows)
        on_support = t[_shift(both, key[0].start), _shift(cols, key[1].start)]
        np.add(rhs[_shift(both, rows.start)], on_support, out=on_support)
        return np.subtract(t, psi[at], out=t)

    residual = _box_sup(box, defect)
    if _above_tol(point, cfg, residual):
        return None
    check_nondegenerate(gmin)
    return FamilyEntry(point.b, _dbar_finish(m, u, denom, (support, rhs), psi, box,
                                             residual, tuple(point.trace)))


def _solve_linear_series(family: FamilySpec, u: ComplexField, cfg: SolverConfig):
    """Yield (index, entry) of a linear-law sweep with the datum u at every
    grid point, from the b-power series of both fixed points, as the entries
    finish.

    For mu_b = b mu_0 the immersion fixed point is phi_b = sum_{n>=1} b^n a_n
    with a_1 = mu_0, g_n = S(a_n), a_{n+1} = mu_0 g_n, and the d-bar fixed
    point is psi_b = sum_{n>=0} b^n c_n with c_0 = u,
    c_n = r_n + mu_0 S(c_{n-1}) and r_n = (conj(g_n) - |mu_0|^2 conj(g_{n-2})) u
    (g_0 = 1, g_{-1} = 0): the b-expansion of the rhs (1 - b^2|mu_0|^2)
    conj(g_b) u.  One recurrence serves every grid point at two Beurling
    applies per term.  Each point adds b^n times the new terms to its own
    sums and is finished once its term size reaches cfg.tol and its measured
    residuals pass, so its result is bitwise independent of the other grid
    points.  Point b is gated on sup|mu_b| = b sup|mu_0|, as neumann_solve
    gates a per-b solve; gated points are yielded first.  Every term vanishes
    off the box of the nonzero samples of mu_0 and u, so the recurrence and
    the sums are box arrays.  A term size that is not finite ends the
    series (sup|a_n| before any point adds a_n, sup|c_n| before any adds
    c_n): every point still summing fails with NoConvergence naming it.
    Nothing here refers to a yielded result afterwards, so a consumer that
    drops it frees it while the series runs on.
    """
    domain = family.base_mu.domain
    m0 = family.base_mu.extended.samples
    sup0 = family.base_mu.sup_norm
    points = []                     # (index, b) of each point the gate passes
    for i, b in enumerate(family.parameter_grid):
        if b * sup0 >= cfg.contraction_cap:
            exc = ContractionTooLarge(b * sup0, cfg.contraction_cap)
            yield i, FamilyEntry(b, None, error=str(exc))
        else:
            points.append((i, b))

    box = _support_box(m0, u.samples)
    support = _support_box(u.samples)   # the rhs's: within box
    beurling = _FourierApply.beurling(domain, box)
    m0_box, u_box = m0[box], u.samples[box]
    abs2 = np.abs(m0_box) ** 2
    live = [_SeriesPoint(i, b, np.zeros_like(m0_box), u_box.copy(), [])
            for i, b in points]
    # the recurrence updates five box buffers, allocated here once per sweep.
    # a_{n+1} overwrites a_n once every point has added it (a_1 is the
    # read-only mu_0 box).  Of the conj(g) ring's three buffers, the one that
    # receives conj(g_n) is the temporary of the phi sums before it does, and
    # the one holding conj(g_{n-2}) takes the weight and then serves as the
    # temporary of the psi sums.
    a, a_buffer = m0_box, np.empty_like(m0_box)
    c = u_box.copy()                        # c_{n-1}
    conj_g, conj_g1, conj_g2 = (np.empty_like(m0_box) for _ in range(3))
    conj_g1.fill(1.0)                       # conj(g_{n-1}), g_0 = 1
    conj_g2.fill(0.0)                       # conj(g_{n-2}), g_{-1} = 0
    magnitude = np.empty(m0_box.shape)

    def term_size(t: np.ndarray) -> float:
        return float(np.max(np.abs(t, out=magnitude), initial=0.0))

    n, nonfinite = 0, []
    while live and n < cfg.max_iter:
        n += 1
        g = beurling(a)
        size = term_size(a)
        if not math.isfinite(size):   # every later term is as bad: no point can finish
            nonfinite = [size]
            break
        for p in live:
            np.add(p.phi, np.multiply(p.b ** n, a, out=conj_g), out=p.phi)
        np.conj(g, out=conj_g)
        # a_{n+1} = mu_0 g_n, so the apply that holds g_n is free again
        a = np.multiply(m0_box, g, out=a_buffer)
        weight = np.subtract(conj_g, np.multiply(abs2, conj_g2, out=conj_g2), out=conj_g2)
        np.multiply(m0_box, beurling(c), out=c)
        np.add(np.multiply(weight, u_box, out=weight), c, out=c)
        size_c = term_size(c)
        if not math.isfinite(size_c):
            nonfinite = [size_c]
            break
        size = max(size, size_c)
        pending = []
        for p in live:
            bn = p.b ** n
            np.add(p.psi, np.multiply(bn, c, out=weight), out=p.psi)
            p.trace.append(bn * size)
            if p.trace[-1] > cfg.tol:
                pending.append(p)
                continue
            try:
                entry = _finish_series_point(family, p, u, support, cfg, beurling)
            except BeltramiError as exc:
                entry = FamilyEntry(p.b, None, error=str(exc))
            if entry is None:
                pending.append(p)
            else:
                yield p.index, entry
                del entry
        live = pending
        conj_g2, conj_g1, conj_g = conj_g1, conj_g, conj_g2
    for p in live:
        trace = (*p.trace, *nonfinite)
        exc = NoConvergence(p.psi, n, trace[-1], trace)
        yield p.index, FamilyEntry(p.b, None, error=str(exc))


def _finished_entries(family: FamilySpec, u_family, cfg: SolverConfig,
                      threads: int):
    """Yield (index, entry) of every grid point as it finishes.  A linear-law
    family of two or more points whose data all equal the first runs as one
    series and yields in the order the series finishes them; any other family
    runs one ``solve_dbar`` per point on ``threads`` workers and yields in
    index order.  The arguments are those of ``solve_family``, checked on the
    first ``next``."""
    threads = _integer(threads, "threads", 0)
    grid = family.parameter_grid
    if len(u_family) != len(grid):
        raise ValidationError("u_family must align with the parameter grid")
    _same_domain("family data", family.base_mu, *u_family)
    _interior(family.base_mu.domain)   # every entry would fail on an empty one
    u = u_family[0]
    if family.law == "linear" and len(grid) > 1 and all(
            v is u or np.array_equal(v.samples, u.samples) for v in u_family):
        yield from _solve_linear_series(family, u, cfg)
        return

    def solve_one(i: int) -> FamilyEntry:
        try:
            result = solve_dbar(family.realize(i), u_family[i], cfg)
            return FamilyEntry(grid[i], result)
        except BeltramiError as exc:
            return FamilyEntry(grid[i], None, error=str(exc))

    indices = range(len(grid))
    workers = min(threads or os.cpu_count() or 1, len(grid))
    if workers == 1:
        yield from enumerate(map(solve_one, indices))
    else:
        # imported here: no other path, and no shipped command, needs it
        from concurrent.futures import ThreadPoolExecutor
        from contextvars import copy_context
        # each task runs in a copy of the caller's context, so that numpy's
        # errstate (a context variable) holds in the workers as well
        context = copy_context()
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield from enumerate(pool.map(lambda i: context.copy().run(solve_one, i),
                                          indices))


def solve_family(family: FamilySpec, u_family, cfg: SolverConfig = SolverConfig(),
                 threads: int = 1) -> FamilySweepResult:
    """Solve the d-bar problem at every parameter of the family.

    ``u_family`` is a list of moving-frame data aligned with the parameter
    grid.  A linear-law family with two or more grid points and one datum
    (every entry equal to the first) is solved as one power series in b (see
    ``_solve_linear_series``): a single recurrence of two Beurling applies
    per term feeds every grid point, and an entry's ``iterations`` is the
    number of series terms it used, its ``trace`` the sizes of those terms.
    Table-law families, one-point grids and linear families whose data
    differ run one immersion and one Neumann d-bar solve per parameter,
    bitwise ``solve_dbar``; only these use ``threads`` worker threads
    (0 = ``os.cpu_count()``, never more than the grid points; results are
    stored by index, so thread scheduling cannot change the output).  Either
    way an entry does not depend on the other grid points, and per-parameter
    failures are recorded in their entry rather than failing the sweep.  The
    report carries adjacent sup differences with a single fitted Lipschitz
    constant, and quadratic-extrapolation gaps when the grid is uniform with
    at least four points, all sups over Omega; it is built once the sweep's
    buffers are freed, from copies of the solutions on Omega's bounding box.
    """
    grid = family.parameter_grid
    entries = [None] * len(grid)
    for i, entry in _finished_entries(family, u_family, cfg, threads):
        entries[i] = entry
    # the report's differences are formed once the sweep's buffers are freed
    report = _Regularity(grid)
    for i, entry in enumerate(entries):
        report.add(i, entry)
    return FamilySweepResult(tuple(entries), *report.summary())
