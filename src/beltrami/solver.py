"""Neumann-series inversion of I - mu*S and quasiconformal immersions.

For a Beltrami coefficient mu with sup|mu_ext| < 1, the operator I - mu*S is
inverted by the fixed-point iteration

    phi_{k+1} = rhs + mu * S(phi_k),    phi_0 = rhs,

which sums the geometric operator series term by term.  The residual of the
k-th iterate is exactly ||phi_{k+1} - phi_k|| in sup norm, so each iteration
costs one Beurling apply and the stop test is free.  mu_ext and rhs vanish
off the row x column box of their nonzero samples, and there every iterate
equals rhs; the apply is therefore pruned to the box (forward row FFTs on
its rows, last inverse column FFTs on its columns, the mean term on the box),
and the iterates, the pointwise update and the residual are box arrays.  The
whole-grid phi is built once, from a copy of rhs with the box written in,
for the result the solve returns.

Warm start.  When mu_ext is nonzero and both mu_ext and rhs are resolved
on the N/2 grid -- every Fourier mode outside its band, |k| >= N/4 on
either axis, has amplitude |x^(k)| / N^2 <= tol -- the same problem is first
solved cold on the N/2 grid of the same square, Omega and margin, from the
samples at even indices.  Its solution, zero-padded in the spectrum, is the
starting iterate on the support box.  The rhs test reads the spectrum of the
first apply, so a refused solve costs one scan of it and is bitwise the cold
loop; mu_ext is transformed only when it is not the rhs itself, as in a
d-bar solve.  An invalid N/2 (odd, or below 16) or an N/2 solve that does
not converge falls back to the cold loop.  The stop test is unchanged, so a
warm-started phi meets the same tol; it differs from the cold one by the
sum of their a-posteriori errors, which the tests bound by
2 tol / (1 - sup|mu_ext|).  ``iterations`` and ``trace`` count the
fine-grid iterations only.  On the default geometry mu_ext = 0.3 is
resolved from N = 512 up and its d-bar rhs with the disc indicator from
N = 1024 up; the shipped configs, all at N <= 256, run cold.

The immersion for the homogeneous Beltrami equation f_zbar = mu * f_z close
to the identity is assembled as h = z + P(phi) with phi the fixed point for
rhs = mu; its z-derivative is g = 1 + S(phi), which must stay away from zero
for h to be an immersion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ContractionTooLarge,
    DegenerateImmersion,
    NoConvergence,
    ValidationError,
)
from .grid import (
    BeltramiField,
    ComplexField,
    DomainSpec,
    _fd_beltrami_defect,
    _FourierApply,
    _integer,
    _interior,
    _on_grid,
    _real,
    _same_domain,
    _support_box,
    make_coordinate_field,
)
from .transforms import _coarse_tables, cauchy_transform

DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the Neumann iteration.

    tol: sup-norm residual stop for the fixed-point iteration.
    max_iter: iteration cap; exceeding it raises NoConvergence.
    contraction_cap: reject coefficients whose sup|mu_ext| reaches this
        value.  S is unitary on L^2, so in L^2 ||mu S|| <= sup|mu_ext|
        bounds the rate of the series; the sup-norm ||mu S||_inf, the norm
        of tol, is larger (2.8 to 8.6 measured on N = 32 and 48 grids).
    """

    tol: float = 1e-10
    max_iter: int = 200
    contraction_cap: float = 0.9

    def __post_init__(self):
        tol = _real(self.tol, "tol")
        if tol <= 0:
            raise ValidationError(f"tol must be positive, got {tol!r}")
        max_iter = _integer(self.max_iter, "max_iter", 1)
        cap = _real(self.contraction_cap, "contraction_cap")
        if not 0.0 < cap < 1.0:
            raise ValidationError(f"contraction_cap must lie in (0, 1), got {cap!r}")
        # the frozen fields hold the checked values
        vars(self).update(tol=tol, max_iter=max_iter, contraction_cap=cap)


@dataclass(frozen=True)
class NeumannResult:
    phi: ComplexField
    iterations: int
    final_residual: float
    trace: tuple  # sup-norm residual per iteration


@dataclass(frozen=True)
class ImmersionResult:
    """Immersion h, g = dh/dz and the Neumann fixed point.

    h = z + P(phi) costs a Cauchy apply, so it is built on first use."""

    g: ComplexField
    phi: ComplexField
    iterations: int
    final_residual: float
    trace: tuple = field(repr=False, default=())

    def __post_init__(self):
        box, inner = _interior(self.g.domain)
        check_nondegenerate(float(np.min(np.abs(self.g.samples[box][inner]))))

    @cached_property
    def h(self) -> ComplexField:
        return make_coordinate_field(self.phi.domain) + cauchy_transform(self.phi)


def check_nondegenerate(gmin: float) -> None:
    """Raise DegenerateImmersion if gmin, the min of |g| on interior Omega,
    is at most DEGENERACY_TOL."""
    if gmin <= DEGENERACY_TOL:
        raise DegenerateImmersion(
            f"min |g| on interior Omega is {gmin:.3e} (<= {DEGENERACY_TOL:g})"
        )


def neumann_solve(mu: BeltramiField, rhs: ComplexField,
                  cfg: SolverConfig = SolverConfig()) -> NeumannResult:
    """Invert (I - mu*S) phi = rhs by fixed-point iteration.

    Raises
    ------
    ContractionTooLarge
        If sup|mu_ext| reaches cfg.contraction_cap, before any iteration.
    NoConvergence
        If cfg.max_iter applications leave the residual above cfg.tol, or at
        the first residual that is not finite; the exception carries the
        partial iterate and the residual trace.
    """
    _same_domain("mu and rhs", mu, rhs)
    phi, trace, beurling = _neumann(mu, rhs.samples, cfg)
    phi = ComplexField(rhs.domain, _on_grid(rhs.samples, beurling.box, phi))
    return NeumannResult(phi, len(trace), trace[-1], tuple(trace))


def _neumann(mu: BeltramiField, r: np.ndarray, cfg: SolverConfig) -> tuple:
    """The fixed point of neumann_solve for the rhs samples r, on the
    support box, its residual trace, and the apply that holds S(phi).

    mu_ext and r vanish off the box of their nonzero samples (the apply's
    ``box``), so every iterate equals r there: the loop holds box arrays
    only, and a caller that needs the whole-grid phi builds it from a copy
    of r (as NoConvergence carries it).  The apply's ``finish`` gives the
    whole S(phi).  The loop starts from r, or from ``_warm_start``'s guess
    on the box.
    """
    if mu.sup_norm >= cfg.contraction_cap:
        raise ContractionTooLarge(mu.sup_norm, cfg.contraction_cap)
    m = mu.extended.samples
    box = _support_box(m, r)
    beurling = _FourierApply.beurling(mu.domain, box)
    phi = r[box].copy()
    beurling.forward(phi)  # fft2(rhs): the first apply's, and the gate's
    if _warm_start(mu, r, cfg, beurling, phi):
        beurling.forward(phi)
    try:
        return (*_iterate(m[box], r[box], phi, beurling, cfg), beurling)
    except NoConvergence as exc:
        exc.phi = _on_grid(r, box, exc.phi)
        raise


def _iterate(m: np.ndarray, r: np.ndarray, phi: np.ndarray,
             beurling: _FourierApply, cfg: SolverConfig) -> tuple:
    """The fixed-point loop on the box samples m of mu_ext and r of rhs,
    from the box iterate phi, whose spectrum ``beurling`` holds; returns the
    first iterate that meets cfg.tol and the residual trace, or raises
    NoConvergence with the last box iterate, at once when a residual is not
    finite (data that overflow the FFTs).  The iterates overwrite phi and
    one more box buffer."""
    # phi and nxt ping-pong between two buffers owned by the solve
    nxt = np.empty_like(r)
    step = np.empty_like(r)
    magnitude = np.empty(r.shape)
    trace = []
    for _ in range(cfg.max_iter):
        s = beurling.inverse()
        np.add(r, np.multiply(m, s, out=nxt), out=nxt)
        np.subtract(nxt, phi, out=step)  # exact residual of phi
        residual = float(np.max(np.abs(step, out=magnitude), initial=0.0))
        trace.append(residual)
        if residual <= cfg.tol:
            return phi, trace
        if not math.isfinite(residual):
            break
        phi, nxt = nxt, phi
        beurling.forward(phi)
    raise NoConvergence(phi, len(trace), trace[-1], tuple(trace))


def _warm_start(mu: BeltramiField, r: np.ndarray, cfg: SolverConfig,
                beurling: _FourierApply, phi: np.ndarray) -> bool:
    """Write the N/2-grid solution, prolonged, into the box iterate phi.

    Runs when mu_ext is nonzero and both the rhs samples r and mu_ext are
    resolved on the N/2 grid: every mode of their spectra outside the N/2
    band has amplitude |x^(k)| / N^2 <= cfg.tol.  ``beurling`` holds
    fft2(rhs) on entry, so the rhs test costs one scan of it; mu_ext is
    transformed only when the rhs passes and is not mu_ext itself.  The two
    grids nest, so the N/2 problem takes mu_ext and rhs at even indices, on
    the same square, Omega and margin; it is solved cold by the same loop on
    its own support box, and its solution is zero-padded in the spectrum
    onto the fine grid (``_FourierApply.interpolate``, which overwrites the
    spectrum in ``beurling``).  Returns False, with phi and the spectrum of
    the rhs in ``beurling`` as they were, when a test refuses, when N/2 is
    no valid resolution, or when the N/2 solve does not converge; fft2(rhs)
    is formed again only where the mu_ext test displaced it.
    """
    d = mu.domain
    if mu.sup_norm == 0.0:
        return False   # the cold loop stops at its first iteration
    try:
        DomainSpec(d.half_width, d.resolution // 2, d.omega, d.margin)
    except ValidationError:
        return False
    if not beurling.resolved_at_half(cfg.tol):
        return False
    m = mu.extended.samples
    if m is not r:
        beurling.forward(m[beurling.box])
        if not beurling.resolved_at_half(cfg.tol):
            beurling.forward(phi)   # fft2(rhs) again, for the cold loop
            return False
    cm, cr = m[::2, ::2], r[::2, ::2]
    box = _support_box(cm, cr)
    apply = _FourierApply(*_coarse_tables(d), box)
    guess = cr[box].copy()
    apply.forward(guess)
    try:
        guess = _iterate(cm[box], cr[box], guess, apply, cfg)[0]
    except NoConvergence:
        if m is not r:
            beurling.forward(phi)   # fft2(rhs) again, for the cold loop
        return False
    phi[...] = beurling.interpolate(_on_grid(cr, box, guess))
    return True


def solve_immersion(mu: BeltramiField,
                    cfg: SolverConfig = SolverConfig()) -> ImmersionResult:
    """Solve the homogeneous Beltrami equation for the near-identity immersion.

    Returns h = z + P(phi) and g = 1 + S(phi) where phi solves
    (I - mu*S) phi = mu; S(phi) is the last apply of the iteration.  For mu
    identically zero this reduces exactly to h = z, g = 1 in one iteration.
    """
    phi, trace, beurling = _neumann(mu, mu.extended.samples, cfg)
    phi = ComplexField(mu.domain, _on_grid(mu.extended.samples, beurling.box, phi))
    g = ComplexField(mu.domain, beurling.finish() + 1.0)
    return ImmersionResult(g=g, phi=phi, iterations=len(trace),
                           final_residual=trace[-1], trace=tuple(trace))


def beltrami_residual(h: ComplexField, mu: BeltramiField,
                      rhs: ComplexField | None = None) -> float:
    """Sup over interior Omega of |dh/dzbar - mu * dh/dz - rhs|; a
    ValidationError if no grid point lies in that interior.

    Derivatives are taken with 4th-order centered finite differences, which
    are exact on the affine part z + c*zbar of solver outputs and blind to
    the periodic seam -- an oracle independent of the spectral pipeline.
    rhs None means the homogeneous equation.
    """
    _same_domain("h, mu and rhs", h, mu, *([] if rhs is None else [rhs]))
    res = _fd_beltrami_defect(h, mu.extended.samples)
    if rhs is not None:
        box, inner = _interior(h.domain)
        res = res - rhs.samples[box][inner]
    return float(np.max(np.abs(res)))
