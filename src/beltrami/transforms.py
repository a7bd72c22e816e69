"""Cauchy transform P and Beurling transform S.

Kernel conventions on the plane:

    P(phi)(z) = (1/pi) integral of phi(zeta) / (z - zeta) dA(zeta)
    S(phi)    = d/dz P(phi)   (principal value kernel -1/(pi (z - zeta)^2))

so that d/dzbar P(phi) = phi.  Two implementations are provided:

``spectral``
    The Fourier multiplier of convolution by 1/(pi z) on the periodic square,
    with the zero mode pinned to 0.  The constant Fourier mode has no periodic
    antiderivative under d/dzbar, so the mean of phi is routed through the
    margin-tapered conjugate coordinate W = cutoff * conj(z) (which satisfies
    d/dzbar W = 1 on Omega); this keeps the inversion contract
    d/dzbar P(phi) = phi exact on Omega for data of any mean.

``quadrature``
    Pointwise midpoint rule for the area integral over the whole square, with
    the singular cell replaced by the exact integral of the kernel over the
    square cell centered at the singularity -- which is 0, by the antisymmetry
    of 1/zeta under zeta -> -zeta (and of 1/zeta^2 under a quarter turn).
    Evaluated as an aperiodic convolution via zero-padded FFT; the result is
    identical to the O(N^4) direct sum at machine precision (the tests check
    this).  The additive constant of P is re-pinned to the spectral
    convention so both methods answer in the same gauge.

The spectral path is the production route; quadrature is the slow,
free-space oracle used by the cross-method acceptance checks.  Both run
through the solvers' box apply ``grid._FourierApply``: on the whole grid,
or on the 2N grid with the N x N data as its box, so the zero padding costs
no row FFTs and no last column FFTs.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .grid import (
    BeltramiField,
    ComplexField,
    DomainSpec,
    _FourierApply,
    _geometry,
    _integer,
)

METHODS = ("spectral", "quadrature")


def _check_method(method: str):
    if method not in METHODS:
        raise ValidationError(
            f"unsupported method {method!r}; expected one of {METHODS}"
        )


# ---------------------------------------------------------------------------
# tables of the N/2 grid
# ---------------------------------------------------------------------------

def _coarse_tables(domain: DomainSpec) -> tuple:
    """The Beurling multiplier and mean profile of the N/2 grid of a domain,
    derived from its own tables, which stay the only stored ones.

    The two grids nest: the N/2 grid's frequencies are the fine grid's
    |k| <= N/4, so its multiplier is the fine S on that band with its
    Nyquist lines (k = -N/4) zeroed.  Its mean profile is the fine dz_w at
    even indices, the N/2 grid's spectral d/dz of w[::2, ::2] up to the
    modes of w outside that band.
    """
    n = domain.resolution
    half = n // 4
    band = np.r_[0:half, n - half:n]
    geo = _geometry(domain)
    # take, not [:, band], whose result is column-major: the apply's
    # multiply runs over row-major buffers
    S = np.concatenate([geo.S.rows(rows).take(band, axis=1)
                        for rows in (slice(0, half), slice(n - half, n))])
    S[half] = 0
    S[:, half] = 0
    return S, geo.dz_w[::2, ::2]


# ---------------------------------------------------------------------------
# quadrature kernels
# ---------------------------------------------------------------------------

def _quadrature_hat(domain: DomainSpec, power: int) -> np.ndarray:
    """fft2 of the kernel 1/(pi w) (``power`` 1) or -1/(pi w^2) (2) on the
    2N lattice offsets w, zero at w = 0 (the exact centered-cell integral)
    and on the row and column of offset -N, which no aperiodic pair reaches.

    Built once per ``_transform`` and not kept: one complex (2N)^2 array,
    four fields.  The kernel is formed from the 1-D lattice offsets by
    broadcasting, in place in one buffer, and transformed in it; the samples
    are bitwise those of the meshgrid construction ``np.fft.fft2`` of the
    whole-array expressions.
    """
    n, h = domain.resolution, domain.spacing
    off = (np.arange(2 * n) + n) % (2 * n) - n     # lattice offsets, [-N, N-1]
    w = off * h + 1j * (off * h)[:, None]          # x offset + i y offset
    kern = np.multiply(np.pi, w)
    if power == 2:
        np.multiply(kern, w, out=kern)
    del w
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(1.0 if power == 1 else -1.0, kern, out=kern)
    kern[0, 0] = 0.0
    kern[n] = 0.0
    kern[:, n] = 0.0
    np.fft.fft(kern, axis=1, out=kern)
    np.fft.fft(kern, axis=0, out=kern)
    return kern


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _transform(domain: DomainSpec, method: str, kind: str):
    """P (``kind`` "P") or S ("S") on the grid of ``domain``: a function of
    whole-grid samples returning a fresh contiguous array, which a
    ComplexField takes without a copy.  It builds a quadrature kernel once."""
    if method == "spectral":
        geo = _geometry(domain)
        multiplier, profile = (geo.P, geo.w) if kind == "P" else (geo.S, geo.dz_w)
        return lambda samples: _FourierApply.whole(multiplier, profile, samples)
    n, h = domain.resolution, domain.spacing
    hat = _quadrature_hat(domain, 1 if kind == "P" else 2)
    quadrature = _FourierApply(hat, None, (slice(0, n), slice(0, n)))
    return lambda samples: quadrature(samples) * (h * h)


def cauchy_transform(phi: ComplexField, method: str = "spectral") -> ComplexField:
    """Solve d/dzbar(P phi) = phi on Omega for cutoff-supported phi.

    Parameters
    ----------
    phi : ComplexField
        Data supported in the margin-extended region (solver inputs are, by
        construction; arbitrary data is accepted but the Omega contract is
        only claimed for supported data).
    method : {"spectral", "quadrature"}
        Production multiplier path or the slow free-space oracle.

    Returns
    -------
    ComplexField
        The particular solution pinned by the zero-mode convention of the
        spectral path (both methods share the pinning).
    """
    _check_method(method)
    d = phi.domain
    out = _transform(d, method, "P")(phi.samples)
    if method == "quadrature":
        # re-pin the additive constant to the spectral gauge
        out += np.mean(phi.samples) * _geometry(d).w_mean - np.mean(out)
    return ComplexField(d, out)


def beurling_transform(phi: ComplexField, method: str = "spectral") -> ComplexField:
    """The Beurling transform S(phi) = d/dz P(phi).

    The spectral path applies the composed multiplier conj(xi)/xi directly;
    the quadrature path convolves the closed-form kernel derivative
    -1/(pi zeta^2) (principal value, singular cell exactly 0).
    """
    _check_method(method)
    return ComplexField(phi.domain, _transform(phi.domain, method, "S")(phi.samples))


def estimate_contraction(mu: BeltramiField, iterations: int = 8,
                         method: str = "spectral") -> float:
    """Power-iteration estimate of the contraction factor of phi -> mu*S(phi).

    Starts from the extended coefficient itself and returns the maximum
    sup-norm growth ratio over ``iterations`` applications.  A diagnostic:
    no solve gates on it (the gate compares sup|mu_ext|, which bounds
    ||mu S|| on L^2), and it can read below or far above the observed
    Neumann rate.  Deterministic; returns 0 for mu identically zero.
    """
    iterations = _integer(iterations, "iterations", 1)
    _check_method(method)
    beurling = _transform(mu.domain, method, "S")
    m = mu.extended.samples
    magnitude = np.empty(m.shape)
    norm = float(np.max(np.abs(m, out=magnitude)))
    v = m
    q = 0.0
    for _ in range(iterations):
        if norm == 0.0:
            break
        v = beurling(v)  # a fresh array: update it in place
        np.multiply(m, v, out=v)
        grown = float(np.max(np.abs(v, out=magnitude)))
        q = max(q, grown / norm)
        norm = grown
    return q

