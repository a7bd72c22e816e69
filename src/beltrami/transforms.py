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
free-space oracle used by the cross-method acceptance checks.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .grid import (
    BeltramiField,
    ComplexField,
    DomainSpec,
    _fourier_apply,
    _fourier_forward,
    _fourier_inverse,
    _full_box,
    _geometry,
    _multipliers,
)

METHODS = ("spectral", "quadrature")


def _check_method(method: str):
    if method not in METHODS:
        raise ValidationError(
            f"unsupported method {method!r}; expected one of {METHODS}"
        )


# ---------------------------------------------------------------------------
# spectral path
# ---------------------------------------------------------------------------

# Byte size of the row blocks through which the mean term is added.  A
# full-size temporary (4 MiB at N = 512) is a fresh mapping that is
# page-faulted on every apply; blocks this small are reused heap memory.
_MEAN_BLOCK_BYTES = 1 << 16


def _add_mean(out: np.ndarray, mean: complex, mean_profile: np.ndarray,
              rows: slice, cols: slice) -> None:
    """out[rows, cols] += mean * mean_profile[rows, cols], in row blocks."""
    width = max(1, cols.stop - cols.start)
    step = max(1, _MEAN_BLOCK_BYTES // (out.itemsize * width))
    for lo in range(rows.start, rows.stop, step):
        block = out[lo:min(lo + step, rows.stop), cols]
        np.add(block, mean * mean_profile[lo:lo + block.shape[0], cols], out=block)


def _spectral(samples: np.ndarray, multiplier: np.ndarray,
              mean_profile: np.ndarray) -> np.ndarray:
    """Apply a multiplier; the mean mode is carried by ``mean_profile``.

    Allocates the output; the mean term goes through small row blocks."""
    out = np.empty_like(samples)
    mean = _fourier_apply(samples, multiplier, out) / samples.size
    _add_mean(out, mean, mean_profile, *_full_box(out))
    return out


# Complex samples of padding after each row of the pruned apply's buffer.
# An unpadded row of N = 512 or 1024 samples is a power-of-two stride, so a
# column's samples share one cache set and the column FFTs thrash.  One
# 64-byte cache line (4 samples) measured best at N = 1024, level with 2 or
# 8 at N = 512; the FFT results are bitwise those of a contiguous buffer.
_ROW_PAD = 4


class _PrunedBeurling:
    """S of fields that vanish off one (rows, cols) box, into one buffer.

    A call computes S(x) on the box only, through the pruned
    ``_fourier_apply`` and a box-only mean term, and returns the box view of
    ``out``; ``finish`` completes ``out`` to the whole S(x).  Either way the
    samples are bitwise those of ``_spectral``.  The iterations of a solve
    reuse ``out``, an N x N view of a row-padded array (see ``_ROW_PAD``),
    so an apply allocates no full-size array.  A call is ``forward`` (out
    holds fft2(x)) then ``inverse``; the Neumann loop runs the two stages
    apart, so that its warm start can read the spectrum of the rhs.

    ``tables`` = (multiplier, mean profile) replaces the domain's own, as
    ``_coarse_tables`` gives them for the N/2 grid.
    """

    def __init__(self, domain: DomainSpec, box: tuple, tables: tuple | None = None):
        n = domain.resolution
        self.box = box
        if tables is None:
            tables = (_multipliers(n, domain.half_width).S, _geometry(domain).dz_w)
        self.multiplier, self.mean_profile = tables
        self.out = np.empty((n, n + _ROW_PAD), dtype=np.complex128)[:, :n]
        self.mean = 0j

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self.forward(x)
        return self.inverse()

    def forward(self, x: np.ndarray) -> None:
        """out = fft2(x), for an x that vanishes off the box rows."""
        self.mean = _fourier_forward(x, self.out, self.box[0]) / x.size

    def inverse(self) -> np.ndarray:
        """S(x) on the box from the spectrum ``forward`` left in out."""
        _fourier_inverse(self.multiplier, self.out, self.box[1])
        _add_mean(self.out, self.mean, self.mean_profile, *self.box)
        return self.out[self.box]

    def finish(self) -> np.ndarray:
        """The whole S(x) of the last call: the column FFTs and the mean
        term off the box."""
        out, (rows, cols) = self.out, self.box
        n = out.shape[0]
        for rest in (slice(0, cols.start), slice(cols.stop, n)):
            np.fft.ifft(out[:, rest], axis=0, out=out[:, rest])
            _add_mean(out, self.mean, self.mean_profile, slice(0, n), rest)
        for rest in (slice(0, rows.start), slice(rows.stop, n)):
            _add_mean(out, self.mean, self.mean_profile, rest, cols)
        return out

    def resolved_at_half(self, bound: float) -> bool:
        """Whether every mode of the spectrum in out outside the band of the
        N/2 grid (|k| >= N/4 on either axis) has amplitude |x^(k)| / N^2 at
        most ``bound``.  Scans out in small row blocks, as ``_add_mean``
        does, and stops at the first block above the bound."""
        out = self.out
        n = out.shape[0]
        lo, hi = n // 4, n - n // 4 + 1
        limit = bound * out.size
        step = max(1, _MEAN_BLOCK_BYTES // (out.itemsize * n))
        for rows, cols in ((slice(lo, hi), slice(0, n)),
                           (slice(0, lo), slice(lo, hi)),
                           (slice(hi, n), slice(lo, hi))):
            for top in range(rows.start, rows.stop, step):
                block = out[top:min(top + step, rows.stop), cols]
                if np.max(np.abs(block), initial=0.0) > limit:
                    return False
        return True

    def interpolate(self, coarse: np.ndarray) -> np.ndarray:
        """The trigonometric interpolant of N/2-grid samples, on the box.

        Zero-pads the spectrum of ``coarse`` (overwritten by it), with its
        Nyquist lines zeroed, into out and inverts it: the column FFTs run
        on the band's columns only, the row FFTs on the box rows only.
        Returns the box view of out; at even indices it equals ``coarse``
        up to rounding and to the zeroed Nyquist lines.
        """
        out, (rows, cols) = self.out, self.box
        n, half = out.shape[0], coarse.shape[0] // 2
        np.fft.fft(coarse, axis=1, out=coarse)
        np.fft.fft(coarse, axis=0, out=coarse)
        coarse[half] = 0
        coarse[:, half] = 0
        coarse *= (n / coarse.shape[0]) ** 2   # ifft2 on N divides by N^2
        low, high = slice(0, half), slice(n - half, n)
        out.fill(0)
        for fine_rows, coarse_rows in ((low, low), (high, slice(half, None))):
            out[fine_rows, low] = coarse[coarse_rows, :half]
            out[fine_rows, high] = coarse[coarse_rows, half:]
        for band in (low, slice(n - half + 1, n)):
            np.fft.ifft(out[:, band], axis=0, out=out[:, band])
        np.fft.ifft(out[rows], axis=1, out=out[rows])
        return out[self.box]


def _coarse_tables(domain: DomainSpec) -> tuple:
    """The Beurling multiplier and mean profile of the N/2 grid of a domain,
    derived from its own tables, which stay the only cached ones.

    The two grids nest: the N/2 grid's frequencies are the fine grid's
    |k| <= N/4, so its multiplier is the fine S on that band with its
    Nyquist lines (k = -N/4) zeroed.  Its mean profile is the fine dz_w at
    even indices, the N/2 grid's spectral d/dz of w[::2, ::2] up to the
    modes of w outside that band.
    """
    n = domain.resolution
    half = n // 4
    band = np.r_[0:half, n - half:n]
    S = _multipliers(n, domain.half_width).S[np.ix_(band, band)]
    S[half] = 0
    S[:, half] = 0
    return S, _geometry(domain).dz_w[::2, ::2]


# ---------------------------------------------------------------------------
# quadrature plan
# ---------------------------------------------------------------------------

class _QuadraturePlan:
    """FFT tables for the zero-padded free-space kernel convolutions."""

    def __init__(self, domain: DomainSpec):
        N = domain.resolution
        h = domain.spacing
        M = 2 * N
        idx = np.arange(M)
        off = (idx + N) % M - N          # lattice offsets, [-N, N-1]
        DJ, DI = np.meshgrid(off, off)   # DJ: x offset, DI: y offset
        w = (DJ * h) + 1j * (DI * h)
        unused = (DI == -N) | (DJ == -N)  # slots no aperiodic pair reaches
        diag = (DI == 0) & (DJ == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            cauchy = 1.0 / (np.pi * w)
            beurling = -1.0 / (np.pi * w * w)
        for kern in (cauchy, beurling):
            kern[diag] = 0.0  # exact centered-cell integral vanishes
            kern[unused] = 0.0
        self.cauchy_hat = np.fft.fft2(cauchy)
        self.beurling_hat = np.fft.fft2(beurling)
        self.cell_area = h * h


@lru_cache(maxsize=16)
def _quad_plan(domain: DomainSpec) -> _QuadraturePlan:
    return _QuadraturePlan(domain)


def _quad_convolve(samples: np.ndarray, kernel_hat: np.ndarray,
                   cell_area: float) -> np.ndarray:
    N = samples.shape[0]
    pad = np.zeros((2 * N, 2 * N), dtype=np.complex128)
    pad[:N, :N] = samples
    _fourier_apply(pad, kernel_hat, pad)
    return pad[:N, :N] * cell_area


def _beurling(samples: np.ndarray, domain: DomainSpec, method: str) -> np.ndarray:
    if method == "spectral":
        m_S = _multipliers(domain.resolution, domain.half_width).S
        return _spectral(samples, m_S, _geometry(domain).dz_w)
    q = _quad_plan(domain)
    return _quad_convolve(samples, q.beurling_hat, q.cell_area)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

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
    if method == "spectral":
        m_P = _multipliers(d.resolution, d.half_width).P
        return ComplexField(d, _spectral(phi.samples, m_P, _geometry(d).w))
    q = _quad_plan(d)
    out = _quad_convolve(phi.samples, q.cauchy_hat, q.cell_area)
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
    return ComplexField(phi.domain, _beurling(phi.samples, phi.domain, method))


def estimate_contraction(mu: BeltramiField, iterations: int = 8,
                         method: str = "spectral") -> float:
    """Power-iteration estimate of the contraction factor of phi -> mu*S(phi).

    Starts from the extended coefficient itself and returns the maximum
    sup-norm growth ratio over ``iterations`` applications.  A diagnostic:
    no solve gates on it (the gate compares sup|mu_ext|, which bounds
    ||mu S|| on L^2), and it can read below or far above the observed
    Neumann rate.  Deterministic; returns 0 for mu identically zero.
    """
    if iterations < 1:
        raise ValidationError(f"iterations must be >= 1, got {iterations!r}")
    _check_method(method)
    m = mu.extended.samples
    magnitude = np.empty(m.shape)
    norm = float(np.max(np.abs(m, out=magnitude)))
    v = m
    q = 0.0
    for _ in range(iterations):
        if norm == 0.0:
            break
        v = _beurling(v, mu.domain, method)  # a fresh array: update it in place
        np.multiply(m, v, out=v)
        grown = float(np.max(np.abs(v, out=magnitude)))
        q = max(q, grown / norm)
        norm = grown
    return q

