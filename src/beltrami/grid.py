"""Uniform-grid complex fields on a rectangle with Wirtinger calculus.

The computational domain is the square [-L, L]^2 sampled on an N x N grid with
spacing h = 2L/N; sample (i, j) sits at x = -L + j*h, y = -L + i*h (row-major,
so the point x = +L is identified with x = -L by periodicity).  A working
subdomain Omega (disc or axis-aligned rectangle) sits well inside the square,
separated from its edge by a margin collar.  Fields produced by the solvers
are identically zero outside Omega plus the collar, which makes them
compatible with the periodic spectral transforms.

Wirtinger derivatives d/dz = (d/dx - i d/dy)/2 and d/dzbar = (d/dx + i d/dy)/2
are computed by Fourier differentiation on the periodic square.  Their
accuracy contract holds on Omega for fields that are smooth on the square and
near-periodic; the margin cutoff exists precisely to put solver data in that
class.  Fourth-order centered finite differences are also provided: they are
insensitive to the periodic seam and serve as the independent derivative route
for the residual checks.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import numbers
import os
import sys
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import ValidationError

# Sharpness of the erf transition used by the margin cutoff.  At 4.5 the
# profile is numerically exactly 0/1 at the collar ends (tails ~1e-10) while
# its Gaussian spectrum is still resolved at N = 64 on the default geometry.
CUTOFF_SHARPNESS = 4.5

# Interior-of-Omega convention for residual reporting: grid points at distance
# >= 2*margin/3 from the Omega boundary, on the inside.
INTERIOR_DEPTH_FRACTION = 2.0 / 3.0

MIN_RESOLUTION = 16
# Largest accepted N: one complex field costs 16 N^2 bytes (256 MiB at 4096),
# a solve holds dozens and the quadrature oracle works on (2N)^2 arrays.
MAX_RESOLUTION = 4096


# ---------------------------------------------------------------------------
# domain specification
# ---------------------------------------------------------------------------

def _real(value, what: str) -> float:
    """``value`` as a float if it is a finite real number and not a bool
    (Python's or numpy's); else ValidationError.  With ``_integer``, the
    check of every scalar that a public entry point takes."""
    try:
        if (isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
                and math.isfinite(value)):
            return float(value)
    except OverflowError:   # math.isfinite of an int too large for a float
        pass
    raise ValidationError(f"{what} must be a finite real number, got {value!r}")


def _integer(value, what: str, lo: int, hi: float = math.inf) -> int:
    """``value`` as an int if it is an integer (not a bool or 3.0) from
    ``lo`` to ``hi`` that a float can hold; else ValidationError."""
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and lo <= value <= hi and abs(value) <= sys.float_info.max):
        return int(value)
    span = f"from {lo} to {hi}" if hi < math.inf else f">= {lo}"
    raise ValidationError(f"{what} must be an integer {span}, got {value!r}")


def _complex(value, what: str) -> complex:
    """``value`` as a complex if it is a number, not a bool, whose real and
    imaginary parts pass ``_real``; else ValidationError."""
    if isinstance(value, numbers.Complex) and not isinstance(value, (bool, np.bool_)):
        return complex(_real(value.real, what), _real(value.imag, what))
    raise ValidationError(f"{what} must be a finite complex number, got {value!r}")


def _same_domain(what: str, first, *rest) -> None:
    """ValidationError unless ``first`` and every one of ``rest`` (fields,
    coefficients, forms: anything with a ``domain``) share one DomainSpec."""
    if any(other.domain != first.domain for other in rest):
        raise ValidationError(f"{what} live on different DomainSpecs")


@dataclass(frozen=True)
class Disc:
    center: complex
    radius: float


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle with corners (x0, y0) and (x1, y1)."""

    x0: float
    y0: float
    x1: float
    y1: float


Shape = Union[Disc, Rect]


@dataclass(frozen=True)
class DomainSpec:
    """Computational square plus the working subdomain Omega.

    Parameters
    ----------
    half_width : float
        Half-width L of the square [-L, L]^2.
    resolution : int
        Number of samples N per axis; even, from 16 to MAX_RESOLUTION.
    omega : Disc or Rect
        The working subdomain.  Its closure plus the margin collar must fit
        strictly inside the open square.
    margin : float
        Width of the cutoff collar between the boundary of Omega and the
        region where extended fields vanish.

    Every length, corner and center coordinate must be a finite real
    number; the fields hold the checked floats.  A domain owns its tables
    (cutoff, masks, Fourier multipliers, mean profiles): they are built on
    first use and freed with the domain.  Equal domains built separately
    do not share them, so build one DomainSpec and pass that instance to
    every field and solve on it.
    """

    half_width: float
    resolution: int
    omega: Shape
    margin: float

    def __post_init__(self):
        N = _integer(self.resolution, "resolution", MIN_RESOLUTION, MAX_RESOLUTION)
        if N % 2:
            raise ValidationError(f"resolution must be even, got {N}")
        L, margin = _real(self.half_width, "half_width"), _real(self.margin, "margin")
        lengths = [("half_width", L), ("margin", margin)]
        if isinstance(self.omega, Disc):
            omega = Disc(_complex(self.omega.center, "disc center"),
                         _real(self.omega.radius, "disc radius"))
            lengths.append(("disc radius", omega.radius))
            reach = max(abs(omega.center.real), abs(omega.center.imag))
            span = omega.radius + margin
        elif isinstance(self.omega, Rect):
            r = self.omega
            corners = [_real(v, "rectangle corner") for v in (r.x0, r.y0, r.x1, r.y1)]
            omega = Rect(*corners)
            if not (omega.x0 < omega.x1 and omega.y0 < omega.y1):
                raise ValidationError("rectangle corners must satisfy x0 < x1, y0 < y1")
            reach, span = max(map(abs, corners)), margin
        else:
            raise ValidationError(f"unsupported omega shape: {self.omega!r}")
        for name, value in lengths:
            if value <= 0:
                raise ValidationError(f"{name} must be positive, got {value!r}")
        if reach + span >= L:
            raise ValidationError(
                "omega plus margin collar does not fit inside the open square"
            )
        # the frozen fields hold the checked values
        vars(self).update(half_width=L, resolution=N, omega=omega, margin=margin)

    @property
    def spacing(self) -> float:
        """Grid spacing h = 2L/N, uniform in both axes."""
        return 2.0 * self.half_width / self.resolution

    @cached_property
    def _tables(self) -> _Geometry:
        return _Geometry(self)


# ---------------------------------------------------------------------------
# per-domain geometry tables
# ---------------------------------------------------------------------------

def transition_profile(t) -> np.ndarray:
    """Smooth 0 -> 1 transition on [0, 1] (the margin "smoothstep" profile).

    Rescaled erf(CUTOFF_SHARPNESS * (2t - 1)), clamped exactly to 0 and 1 at
    the ends; the erf tails there are ~1e-10, below every tolerance in the
    library.  A mollified step with a Gaussian spectrum: fields built from it
    are spectrally resolved once the transition covers a few grid cells.
    erf is ``math.erf``, evaluated on the collar points 0 < t < 1 only, so
    the cutoff needs no special-function library.
    """
    t = np.asarray(t, dtype=float)
    out = np.where(t >= 1.0, 1.0, 0.0)
    collar = ~((t <= 0.0) | (t >= 1.0))
    s = CUTOFF_SHARPNESS * (2.0 * t[collar] - 1.0)
    out[collar] = 0.5 * (1.0 + np.fromiter(map(math.erf, s.tolist()), float, s.size))
    return out


def _signed_distance(domain: DomainSpec, z: np.ndarray) -> np.ndarray:
    """Signed distance to the boundary of Omega (negative inside)."""
    if isinstance(domain.omega, Disc):
        return np.abs(z - domain.omega.center) - domain.omega.radius
    r = domain.omega
    x, y = z.real, z.imag
    dx = np.maximum(r.x0 - x, x - r.x1)
    dy = np.maximum(r.y0 - y, y - r.y1)
    outside = np.hypot(np.maximum(dx, 0.0), np.maximum(dy, 0.0))
    inside = np.minimum(np.maximum(dx, dy), 0.0)
    return np.where((dx > 0) | (dy > 0), outside, inside)


class _TaperedConjugate:
    """w = cutoff * conj(z), read block by block: ``w[rows, cols]`` (slices)
    forms that block only, so the whole-grid profile is never held.

    conj(z) is written straight from the axis (real part x, imaginary part
    -y): bitwise conj(x + 1j * y), whose real part is x and whose imaginary
    part is -y, -0.0 on the row y = 0 included.
    """

    def __init__(self, axis: np.ndarray, cutoff: np.ndarray):
        self._axis, self._cutoff = axis, cutoff

    def __getitem__(self, box: tuple) -> np.ndarray:
        rows, cols = box
        x, y = self._axis[cols], self._axis[rows]
        w = np.empty((y.size, x.size), dtype=np.complex128)
        w.real = x
        w.imag = -y[:, None]
        return np.multiply(self._cutoff[rows, cols], w, out=w)


class _Blockwise:
    """scalar * base, read block by block: ``x[rows, cols]`` (slices) forms
    that block only, bitwise the same block of the whole-grid product.  The
    scalar stays the first operand, as in ``b * mu``.  base is an array or
    an ``_OnBox``."""

    def __init__(self, scalar, base):
        self._scalar, self._base = scalar, base

    def __getitem__(self, box: tuple) -> np.ndarray:
        return np.multiply(self._scalar, self._base[box])


def _positions(key: slice, span: slice, n: int) -> tuple:
    """How the indices ``range(*key.indices(n))`` (a positive step) of a
    block meet ``span``: the positions of the block that lie in span, the
    same indices as a slice of an array whose first index is span.start, and
    the block's length."""
    idx = range(*key.indices(n))
    lo = min(len(idx), max(0, -((idx.start - span.start) // idx.step)))
    hi = max(lo, min(len(idx), -((idx.start - span.stop) // idx.step)))
    first = idx.start + lo * idx.step - span.start
    return slice(lo, hi), slice(first, first + (hi - lo) * idx.step, idx.step), len(idx)


class _OnBox:
    """A field of an n x n grid held as its samples on the support box of
    its nonzero samples: the one reader of mu_ext and of a Neumann rhs.

    Built from ``samples`` on a box (``origin``, of which only the starts
    count), it keeps the read-only view of them on their support box
    (``box``; (0:0, 0:0) when every sample is zero).  ``x[rows, cols]``
    (slices, positive steps allowed) reads any block of the whole field,
    bitwise: a view of ``samples`` when the block lies in the box, else a
    fresh array that ``outside(rows, cols)`` forms (the field's values on
    that block, which must be a fresh array; None: +0 everywhere off the
    box), with the box samples written in.  Off the box every value is a
    zero, but its sign is the field's: mu_ext = cutoff * raw there holds
    the signed zeros of the product.
    """

    def __init__(self, shape: tuple, origin: tuple, samples: np.ndarray,
                 outside=None):
        rows, cols = _support_box(samples)
        self.shape, self._outside = shape, outside
        self.box = ((_shift(rows, -origin[0].start), _shift(cols, -origin[1].start))
                    if rows.stop > rows.start else (slice(0, 0), slice(0, 0)))
        self.samples = samples[rows, cols]
        self.samples.setflags(write=False)

    @classmethod
    def of(cls, samples: np.ndarray) -> "_OnBox":
        """The reader of whole-grid samples, which it shares."""
        return cls(samples.shape, _full_box(samples), samples,
                   lambda rows, cols: samples[rows, cols].copy())

    def __getitem__(self, key: tuple) -> np.ndarray:
        n = self.shape[0]
        (_, r, nr), (_, c, nc) = (_positions(k, b, n) for k, b in zip(key, self.box))
        inside = self.samples[r, c]
        return inside if inside.shape == (nr, nc) else self._formed(*key)

    def _formed(self, rows: slice, cols: slice) -> np.ndarray:
        """The block at (rows, cols), a fresh array."""
        n = self.shape[0]
        rows, cols = slice(*rows.indices(n)), slice(*cols.indices(n))
        (ra, r, nr), (ca, c, nc) = (_positions(k, b, n)
                                    for k, b in zip((rows, cols), self.box))
        block = (np.zeros((nr, nc), dtype=np.complex128) if self._outside is None
                 else self._outside(rows, cols))
        block[ra, ca] = self.samples[r, c]
        return block

    def whole(self) -> np.ndarray:
        """The whole field, a fresh array."""
        return self._formed(*_full_box(self))

    def even(self) -> "_OnBox":
        """The samples at even indices: a field of the n/2 grid, whose box
        is read from this one's samples."""
        rows, cols = self.box
        origin = (slice(-(-rows.start // 2), None), slice(-(-cols.start // 2), None))

        def outside(r: slice, c: slice) -> np.ndarray:
            return self._formed(slice(2 * r.start, 2 * r.stop, 2 * r.step),
                                slice(2 * c.start, 2 * c.stop, 2 * c.step))

        half = (self.shape[0] // 2, self.shape[1] // 2)
        return _OnBox(half, origin,
                      self.samples[rows.start % 2::2, cols.start % 2::2], outside)

    def equals(self, other: "_OnBox") -> bool:
        """Whether the two whole fields are equal (as numpy compares, so
        -0 equals +0): tight boxes make it a comparison of boxes and box
        samples."""
        return self.box == other.box and np.array_equal(self.samples, other.samples)


class _Geometry:
    """Immutable tables of one domain, owned by its DomainSpec.

    The 1-D ``axis`` stands for the coordinate z, which a reader forms with
    ``coordinates`` when it needs it: a cached z would cost one field per
    domain.  The geometry keeps the grid's (N, L), not the domain: without a
    reference back to its owner it forms no cycle, so reference counting
    frees it with the domain's last field.
    """

    def __init__(self, domain: DomainSpec):
        L, N = domain.half_width, domain.resolution
        self._grid = (N, L)
        self.axis = -L + domain.spacing * np.arange(N)
        dist = _signed_distance(domain, self.coordinates())
        self.omega_mask = dist <= 0.0
        self.interior_mask = dist <= -INTERIOR_DEPTH_FRACTION * domain.margin
        # cutoff: 1 on the closure of Omega, 0 beyond the collar
        self.cutoff = 1.0 - transition_profile(np.maximum(dist, 0.0) / domain.margin)
        # the only region where the residuals read the FD defect
        self.interior_box = _support_box(self.interior_mask)
        # where a cutoff extension cutoff * raw can be nonzero
        self.cutoff_box = _support_box(self.cutoff)
        for arr in (self.axis, self.cutoff, self.omega_mask, self.interior_mask):
            arr.setflags(write=False)
        # the mean-mode profile of P, formed a row block at a time by the apply
        self.w = _TaperedConjugate(self.axis, self.cutoff)

    def coordinates(self) -> np.ndarray:
        """The grid samples of z, a fresh array: bitwise the meshgrid
        X + 1j * Y."""
        return self.axis + 1j * self.axis[:, None]

    # The tables of the spectral transforms, built on first use, so that a
    # domain that runs no transform (a verify run's, an exhaustion's base
    # domain) allocates none.  The multipliers vanish on the Nyquist lines:
    # P = 1 / symbol of d/dzbar (0 at the zero mode) and S = dz * P =
    # conj(xi)/xi, with dz the symbol of d/dz.  P is applied once per d-bar
    # finish, so it is not stored: each apply forms it a row block at a time
    # from the 1-D wavenumbers (``_FormedMultiplier``).  S is applied on
    # every Neumann iteration, so its rows 0..N/2 are stored and the rest
    # read as their conjugates (``_HalfBeurling``): with dz_w, 1.5 fields.
    # w = cutoff * conj(z) has d/dzbar w = 1 on Omega, and dz_w is its
    # spectral d/dz, so S = d/dz o P holds exactly, mean mode included.

    @cached_property
    def P(self) -> _FormedMultiplier:
        return _FormedMultiplier(_wavenumber_axis(*self._grid), "P")

    @cached_property
    def S(self) -> _HalfBeurling:
        return _HalfBeurling(_wavenumber_axis(*self._grid))

    @cached_property
    def w_mean(self) -> complex:
        return complex(np.mean(self.w[:, :]))

    @cached_property
    def dz_w(self) -> np.ndarray:
        dz_w = _spectral_dz(self.w[:, :], *self._grid)
        dz_w.setflags(write=False)
        return dz_w


def _geometry(domain: DomainSpec) -> _Geometry:
    """The tables of ``domain``, built on its first use and stored on it."""
    return domain._tables


def omega_mask(domain: DomainSpec) -> np.ndarray:
    """Boolean mask of grid points in the closure of Omega."""
    return _geometry(domain).omega_mask


def interior_mask(domain: DomainSpec) -> np.ndarray:
    """Mask of the residual-reporting interior (2*margin/3 inside Omega)."""
    return _geometry(domain).interior_mask


def _interior(domain: DomainSpec) -> tuple:
    """The bounding box of the interior points and ``interior_mask`` on it:
    where every solve measures min |g| and every residual is read.
    ValidationError if no grid point lies that deep in Omega."""
    geo = _geometry(domain)
    box = geo.interior_box
    if box[0].stop == box[0].start:
        raise ValidationError("no grid point lies 2*margin/3 inside Omega, "
                              "where the residuals are measured")
    return box, geo.interior_mask[box]


def cutoff_field(domain: DomainSpec) -> np.ndarray:
    """The margin cutoff: 1 on the closure of Omega, 0 outside the collar."""
    return _geometry(domain).cutoff


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class ComplexField:
    """A sampled complex-valued function on the grid of a DomainSpec.

    Immutable: the sample array is read-only after construction, and all
    operations return new fields.  Two fields can be combined arithmetically
    only when their DomainSpec values are identical.
    """

    __slots__ = ("domain", "samples")

    def __init__(self, domain: DomainSpec, samples: np.ndarray):
        samples = np.ascontiguousarray(samples, dtype=np.complex128)
        N = domain.resolution
        if samples.shape != (N, N):
            raise ValidationError(
                f"samples shape {samples.shape} does not match resolution {N}"
            )
        # checked in row blocks, so that the check allocates no mask of the grid
        if not all(np.isfinite(samples[rows].view(np.float64)).all()
                   for rows in _row_blocks(slice(0, N), N)):
            raise ValidationError("field samples contain NaN or Inf")
        samples.setflags(write=False)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "samples", samples)

    @classmethod
    def _of(cls, domain: DomainSpec, samples: np.ndarray) -> "ComplexField":
        """The field of N x N complex samples that the library formed from
        checked fields, finite by construction: held without a copy or a
        finiteness scan, and made read-only."""
        samples.setflags(write=False)
        field = object.__new__(cls)
        object.__setattr__(field, "domain", domain)
        object.__setattr__(field, "samples", samples)
        return field

    def __setattr__(self, name, value):
        raise AttributeError("ComplexField is immutable")

    def __add__(self, other):
        if isinstance(other, ComplexField):
            _same_domain("fields", self, other)
            return ComplexField(self.domain, self.samples + other.samples)
        return ComplexField(self.domain, self.samples + other)

    def __sub__(self, other):
        if isinstance(other, ComplexField):
            _same_domain("fields", self, other)
            return ComplexField(self.domain, self.samples - other.samples)
        return ComplexField(self.domain, self.samples - other)

    def __mul__(self, other):
        if isinstance(other, ComplexField):
            _same_domain("fields", self, other)
            return ComplexField(self.domain, self.samples * other.samples)
        return ComplexField(self.domain, self.samples * other)

    __rmul__ = __mul__

    def __neg__(self):
        return ComplexField(self.domain, -self.samples)

    def conj(self) -> "ComplexField":
        return ComplexField(self.domain, np.conj(self.samples))

    def __repr__(self):
        N = self.domain.resolution
        return f"ComplexField(N={N}, L={self.domain.half_width})"


def rebase(field: ComplexField, domain: DomainSpec) -> ComplexField:
    """Reinterpret a field's samples on another DomainSpec of the same grid.

    The deliberate escape hatch from the same-domain combination rule, used
    when Omega changes but the (N, L) grid does not (exhaustion steps).
    """
    if (field.domain.resolution != domain.resolution
            or field.domain.half_width != domain.half_width):
        raise ValidationError("rebase requires identical (resolution, half_width)")
    return ComplexField(domain, field.samples)


def make_coordinate_field(domain: DomainSpec) -> ComplexField:
    """Sample the identity coordinate z = x + iy on the grid."""
    return ComplexField(domain, _geometry(domain).coordinates())


class BeltramiField:
    """A Beltrami coefficient mu with |mu| < 1 and its cutoff extension.

    ``raw`` holds the coefficient as given (meaningful on the closure of
    Omega).  Its extension mu_ext = cutoff * raw agrees with raw on Omega,
    vanishes outside the margin collar, and is the field every transform and
    solver actually consumes.  mu_ext is held on its box only: its samples
    on the support box of their nonzero values, read through one
    ``_OnBox``, whose reads off the box form cutoff * raw there (signed
    zeros included).  ``extended`` forms the whole field on each access,
    bitwise cutoff * raw; a caller that drops it frees it.
    """

    __slots__ = ("raw", "sup_norm", "_ext")

    def __init__(self, raw: ComplexField, extended: ComplexField):
        _same_domain("raw and extended fields", raw, extended)
        self._hold(raw, _OnBox.of(extended.samples))

    def _hold(self, raw: ComplexField, ext: _OnBox) -> None:
        """Keep raw and the reader of mu_ext, once sup|mu_ext| < 1."""
        s = float(np.max(np.abs(ext.samples), initial=0.0))
        if s >= 1.0:
            raise ValidationError(
                f"extended Beltrami coefficient has sup-norm {s:.6g} >= 1"
            )
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "_ext", ext)
        object.__setattr__(self, "sup_norm", s)

    def __setattr__(self, name, value):
        raise AttributeError("BeltramiField is immutable")

    @classmethod
    def from_raw(cls, raw: ComplexField) -> "BeltramiField":
        """The coefficient raw, extended by the cutoff: the product is formed
        on the cutoff's support box only (the cutoff is +0 off it)."""
        geo, x = _geometry(raw.domain), raw.samples

        def outside(rows: slice, cols: slice) -> np.ndarray:
            return np.multiply(geo.cutoff[rows, cols], x[rows, cols])

        box = geo.cutoff_box
        ext = _OnBox(x.shape, box, outside(*box), outside)
        if ext.box != box:   # a narrower support: keep only its samples
            ext = _OnBox(x.shape, ext.box, ext.samples.copy(), outside)
        mu = object.__new__(cls)
        mu._hold(raw, ext)
        return mu

    def scaled(self, factor: float) -> "BeltramiField":
        """The coefficient factor * mu (cutoff extension is linear in raw):
        its mu_ext is factor * mu_ext, as the product reads it."""
        factor = _real(factor, "scaling factor")
        if not 0.0 <= factor <= 1.0:
            raise ValidationError("scaling factor must lie in [0, 1]")
        ext = self._ext

        def outside(rows: slice, cols: slice) -> np.ndarray:
            return np.multiply(factor, ext[rows, cols])

        mu = object.__new__(BeltramiField)
        mu._hold(ComplexField(self.raw.domain, factor * self.raw.samples),
                 _OnBox(ext.shape, ext.box, np.multiply(factor, ext.samples), outside))
        return mu

    @property
    def extended(self) -> ComplexField:
        """The whole mu_ext, formed on each access."""
        return ComplexField(self.raw.domain, self._ext.whole())

    @property
    def domain(self) -> DomainSpec:
        return self.raw.domain

    def __repr__(self):
        return f"BeltramiField(sup_norm={self.sup_norm:.4g}, {self.raw!r})"


# ---------------------------------------------------------------------------
# spectral Wirtinger derivatives
# ---------------------------------------------------------------------------

def _wavenumber_axis(resolution: int, half_width: float) -> np.ndarray:
    """The 1-D wavenumbers k of the (N, L) grid: xi = kx + i ky takes kx
    from k at the column and ky at the row."""
    return 2.0 * np.pi * np.fft.fftfreq(resolution, d=2.0 * half_width / resolution)


def _zero_nyquist(block: np.ndarray, nyquist: int, rows: slice,
                  cols: slice) -> np.ndarray:
    """The block of the (rows, cols) box with its samples on the Nyquist
    row and column multiplied by 0j, the corner once."""
    c = nyquist - cols.start
    if 0 <= c < block.shape[1]:
        np.multiply(block[:, c], 0j, out=block[:, c])
    r = nyquist - rows.start
    if 0 <= r < block.shape[0]:
        line = block[r]
        for part in ((line[:c], line[c + 1:]) if 0 <= c < line.size else (line,)):
            np.multiply(part, 0j, out=part)
    return block


class _FormedMultiplier:
    """P (``kind`` "P") or the symbol of d/dz ("dz"), never stored:
    ``m[rows, cols]`` (slices) forms that block from the 1-D wavenumbers,
    and ``multiply`` forms it a row block at a time.

    A block is bitwise the box of the whole-grid table expression,
    2 / (1j * xi) or 0.5j * conj(xi), times the 0/1 mask of the Nyquist
    lines.  Both are c 1j (kx + i q), with c = 1, q = ky for P and
    c = 0.5, q = -ky for d/dz, which numpy's complex product forms as
    (0 kx - c q) + i (0 q + c kx): the block is the column term
    0 kx + i c kx minus the row term c q, the same operations on every
    sample, the signed zeros of row q = 0 and column kx = 0 included.  P
    then divides 2 by it in place.  The mask's 1 leaves every bit as it is,
    so only the Nyquist lines take its product, with 0, whose zeros carry
    signs; P's zero mode is written as 0.
    """

    def __init__(self, k: np.ndarray, kind: str):
        c, q = (1.0, k) if kind == "P" else (0.5, -k)
        self._column = np.empty(k.size, dtype=np.complex128)
        self._column.real = 0.0 * k
        self._column.imag = c * k
        self._row = c * q
        self._invert = kind == "P"
        self.shape = (k.size, k.size)

    def __getitem__(self, box: tuple) -> np.ndarray:
        rows, cols = box
        d = np.subtract(self._column[cols], self._row[rows, None])
        if self._invert:
            zero_mode = rows.start == 0 and cols.start == 0
            if zero_mode:
                d[0, 0] = 1.0   # 1j * xi vanishes there
            np.divide(2.0, d, out=d)
            if zero_mode:
                d[0, 0] = 0.0
        return _zero_nyquist(d, self.shape[0] // 2, rows, cols)

    def multiply(self, out: np.ndarray) -> None:
        """out = m * out, the multiplier the first operand, in the
        ``_row_blocks`` of out."""
        cols = slice(0, out.shape[1])
        for rows in _row_blocks(slice(0, out.shape[0]), out.shape[1]):
            block, m = out[rows], self[rows, cols]   # forming m casts reals
            with _unbuffered():
                np.multiply(m, block, out=block)


class _HalfBeurling:
    """S = dz * P, of which only the rows 0..N/2 are stored (``upper``).

    k is odd about 0 (k[N - r] = -k[r]), so S, a function of conj(xi)/xi,
    is conjugated by the reflection ky -> -ky and unchanged by xi -> -xi:
    bit for bit, row N - r of S is the conjugate of row r, and
    S[N - r, N - c] = S[r, c], except on the Nyquist column (and, for the
    second, column 0), whose signed zeros ``nyquist`` keeps.  The stored
    rows are built in row blocks, so no whole P or dz exists.
    """

    def __init__(self, k: np.ndarray):
        n = k.size
        h, every = n // 2, slice(0, n)
        P, dz = _FormedMultiplier(k, "P"), _FormedMultiplier(k, "dz")
        self.shape = (n, n)
        self.upper = np.empty((h + 1, n), dtype=np.complex128)
        for rows in _row_blocks(slice(0, h + 1), n):
            np.multiply(dz[rows, every], P[rows, every], out=self.upper[rows])
        column = slice(h, h + 1)
        self.nyquist = np.multiply(dz[every, column], P[every, column])[:, 0]
        for arr in (self.upper, self.nyquist):
            arr.setflags(write=False)

    def rows(self, rows: slice) -> np.ndarray:
        """The whole rows ``rows`` of S, all stored or all below row N/2: a
        view of ``upper``, or a fresh array of conjugates."""
        n = self.shape[0]
        if rows.stop <= n // 2 + 1:
            return self.upper[rows]
        block = np.conj(self.upper[n - rows.start:n - rows.stop:-1])
        block[:, n // 2] = self.nyquist[rows]
        return block

    def multiply(self, out: np.ndarray) -> None:
        """out = S * out, S the first operand, without a copy of S: the
        stored rows in one product; below them, row N - r takes row r
        reversed, and column 0 and the Nyquist column their own values."""
        n = self.shape[0]
        h = n // 2
        top, low = out[:h + 1], out[h + 1:]
        mirror = self.upper[h - 1:0:-1]      # row r = N - R for each low row R
        with _unbuffered():
            np.multiply(self.upper, top, out=top)
            for cols, reflected in ((slice(1, h), slice(n - 1, h, -1)),
                                    (slice(h + 1, n), slice(h - 1, 0, -1))):
                block = low[:, cols]
                np.multiply(mirror[:, reflected], block, out=block)
            np.multiply(np.conj(mirror[:, 0]), low[:, 0], out=low[:, 0])
            np.multiply(self.nyquist[h + 1:], low[:, h], out=low[:, h])


def _full_box(a) -> tuple:
    """The (rows, cols) slices covering all of ``a`` (anything with a
    ``shape``)."""
    return slice(0, a.shape[0]), slice(0, a.shape[1])


def _hull(*boxes: tuple) -> tuple:
    """The smallest box holding every nonempty one of ``boxes``: the support
    box of fields whose support boxes they are; (0:0, 0:0) if all are empty."""
    boxes = [box for box in boxes if box[0].stop > box[0].start]
    if not boxes:
        return slice(0, 0), slice(0, 0)
    return tuple(slice(min(box[a].start for box in boxes), max(box[a].stop for box in boxes))
                 for a in (0, 1))


def _support_box(*samples: np.ndarray) -> tuple:
    """The smallest (rows, cols) slices holding every nonzero sample.

    Read from the values, not from the cutoff support: a constant datum is
    nonzero on the whole grid.  All-zero samples give an empty box.
    """
    nonzero = samples[0] != 0
    for s in samples[1:]:
        nonzero |= s != 0
    rows = np.flatnonzero(nonzero.any(axis=1))
    cols = np.flatnonzero(nonzero.any(axis=0))
    if rows.size == 0:
        return slice(0, 0), slice(0, 0)
    return (slice(int(rows[0]), int(rows[-1]) + 1),
            slice(int(cols[0]), int(cols[-1]) + 1))


# Byte size of the row blocks through which the mean term is added, the
# spectrum is scanned and the d-bar finish forms its whole-grid expressions
# (``_row_blocks``).  A full-size temporary (4 MiB at N = 512) is a fresh
# mapping that is page-faulted on every apply; blocks this small are reused
# heap memory.
_MEAN_BLOCK_BYTES = 1 << 16


def _row_blocks(rows: slice, width: int):
    """The row slices of ``_MEAN_BLOCK_BYTES`` of complex samples (or one
    row) that tile ``rows`` of a grid ``width`` samples wide, top to bottom:
    the blocks in which whole-grid expressions are formed without a
    whole-grid temporary."""
    step = max(1, _MEAN_BLOCK_BYTES // (16 * max(1, width)))
    for lo in range(rows.start, rows.stop, step):
        yield slice(lo, min(lo + step, rows.stop))


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


def _box_sup(box: tuple, step) -> float:
    """The max of |step(key, at)| over ``_box_blocks(box)``.  0 on an empty
    box; a NaN comes through."""
    return float(np.max([np.max(np.abs(step(key, at)), initial=0.0)
                         for key, at in _box_blocks(box)], initial=0.0))


@contextlib.contextmanager
def _unbuffered():
    """numpy's ufunc buffer at its smallest, 16 samples, for the
    elementwise products of an apply.  Their operands are row-padded or
    reversed views, which numpy's default buffer (8,192 samples) copies
    through three 128 KiB buffers per call; at 16 it runs the loop on the
    views row by row, faster and without the copies.  A buffer only copies
    samples, so every result is bitwise the same.  Only for products of
    complex arrays: a cast would go through the small buffer, and a sum's
    pairwise order follows the buffer size.  numpy keeps the size in a
    context variable, so other threads are not affected."""
    size = np.setbufsize(16)
    try:
        yield
    finally:
        np.setbufsize(size)


# Complex samples of padding after each row of a padded apply buffer.  An
# unpadded row of 512 or 1024 samples is a power-of-two stride, so a
# column's samples share one cache set and the column FFTs thrash.  One
# 64-byte cache line (4 samples) measured best at N = 1024, level with 2 or
# 8 at N = 512; the FFT results are bitwise those of a contiguous buffer.
_ROW_PAD = 4

# Samples of an FFT stage from which ``_fft_lines`` splits its lines over
# two cores: waking the helper costs tens of microseconds.  In solve_dbar
# (sup|mu| 0.3 and 0.8, 2-core x86_64), splitting every stage of 2^13
# samples or more read 1.09-1.11x the one-core time at N = 96 (9,216-sample
# whole-grid stages), 1.02x at N = 128; splitting from 2^14 read 0.99-1.00x
# at N = 128 and 0.82-0.85x at N = 192, where the box stages hold 22,080.
_SPLIT_SAMPLES = 20_000


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # a platform without affinity masks
        return os.cpu_count() or 1


def _splits(samples: int) -> bool:
    """Whether work on ``samples`` samples is shared with the helper thread:
    from ``_SPLIT_SAMPLES`` on, on the main thread of a process that may run
    on two or more CPUs.  Other threads (the table-law sweep's workers, the
    helper itself) never share, so the one helper serves the main thread
    alone."""
    return (samples >= _SPLIT_SAMPLES
            and threading.current_thread() is threading.main_thread()
            and _usable_cpus() >= 2)


class _LineHelper:
    """A daemon thread that runs one job at a time for the main thread.

    ``start(job)`` hands it the callable ``job``, run in a copy of the
    caller's context (so numpy's ``errstate`` holds on it); ``wait()``
    blocks until the job is done and returns what it raised, or None.  Two
    locks, each held while its event is pending, carry the hand-off.  The
    thread drops each job as it finishes it, so no buffer outlives its use.
    """

    def __init__(self):
        self._go, self._done = threading.Lock(), threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._job = self._error = None
        threading.Thread(target=self._serve, name="beltrami-fft", daemon=True).start()

    def _serve(self):
        while True:
            self._go.acquire()
            self._error = self._run(*self._job)
            self._job = None
            self._done.release()

    @staticmethod
    def _run(context, job):
        # a function of its own, so that no local of _serve keeps the job
        try:
            context.run(job)
        except BaseException as exc:
            return exc
        return None

    def start(self, job) -> None:
        self._job = (contextvars.copy_context(), job)
        self._go.release()

    def wait(self):
        self._done.acquire()
        error, self._error = self._error, None
        return error


# The helper thread: None until first use and after a fork or an interrupted
# wait, _BUSY while it runs a job.
_BUSY = "busy"
_helper: _LineHelper | str | None = None


def _forget_helper() -> None:
    """Drop the helper: a forked child has no thread behind it."""
    global _helper
    _helper = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _pair(first, second) -> None:
    """Run first() on the helper thread (``_LineHelper``, started on first
    use) and second() on the caller, side by side, and return once both are
    done.

    The two must touch disjoint memory.  The helper runs first() in a copy
    of the caller's context, so numpy's ``errstate`` holds on both threads;
    an error on either reaches the caller once both are done.  Off the main
    thread, or while the helper is busy (a pair or split asked for inside
    one of the jobs), the two run one after the other on the calling thread,
    so no second helper starts.  A wait cut short by a signal
    (KeyboardInterrupt) drops the helper, since its late "done" would end the
    next pair's wait before that job.
    """
    global _helper
    if _helper is _BUSY or threading.current_thread() is not threading.main_thread():
        first()
        second()
        return
    helper, _helper = _helper or _LineHelper(), _BUSY
    helper.start(first)
    try:
        second()
    finally:
        _helper = None   # unless the wait below completes
        error = helper.wait()
        _helper = helper
    if error is not None:
        raise error


def _fft_lines(fft, view: np.ndarray, axis: int) -> None:
    """view = fft(view) along ``axis`` (1: the rows, 0: the columns), in
    place: one per-axis stage of a Fourier apply.

    A stage that ``_splits`` is one ``_pair``: the first half of its lines
    is transformed on the helper thread, the rest on the caller.  Each line
    goes through the same pocketfft call either way, so the samples are
    bitwise those of the one serial call.
    """
    if not _splits(view.size):
        fft(view, axis=axis, out=view)
        return
    half = view.shape[1 - axis] // 2
    first, second = ((view[:half], view[half:]) if axis == 1
                     else (view[:, :half], view[:, half:]))
    _pair(lambda: fft(first, axis=axis, out=first),
          lambda: fft(second, axis=axis, out=second))


class _FourierApply:
    """ifft2(multiplier * fft2(x)) [+ mean(x) * mean_profile] for a field x
    on the multiplier's n x n grid that vanishes off one (rows, cols) box.

    The one Fourier multiplier apply of the library: P, S and d/dz on the
    whole grid, S on the support box of a Neumann loop, a linear series or
    the N/2 grid of a warm start, and the quadrature kernels, whose box is
    the N x N data on the zero-padded 2N grid.  Its input is the box samples
    of x.  ``forward`` leaves fft2(x) in ``out`` (row FFTs on the box rows
    only); ``inverse`` returns the box view of the result (last column FFTs
    on the box columns only); ``finish`` completes the whole result.  out is
    an n x n view of a row-padded array (``_ROW_PAD``; ``pad=0`` makes it
    contiguous) that every call reuses, until ``release`` hands it over to
    a result and the next call makes a fresh one.  Per-axis 1-D FFTs in fft2's order,
    and the multiplier as the first operand of the product (complex multiply
    is not bitwise commutative), make the samples bitwise the numpy fft2
    expression's.  Each per-axis stage runs through ``_fft_lines``, which
    transforms half the lines of a large stage on a second core: the same
    lines, so the same samples.  The multiplier is an array (the quadrature
    kernels, the N/2 grid's S) or an object whose ``multiply(out)`` forms
    the product a row block at a time (P and d/dz, ``_FormedMultiplier``;
    S, ``_HalfBeurling``).  The mean profile is read by ``profile[rows, cols]``
    blocks: dz_w is an array, and P's w forms each block as it is read.  d/dz
    and the quadrature kernels take no mean profile.
    """

    def __init__(self, multiplier, mean_profile,
                 box: tuple, pad: int = _ROW_PAD, out: np.ndarray | None = None):
        self.multiplier, self.mean_profile, self.box = multiplier, mean_profile, box
        self.pad, self.out = pad, out
        self.buffer()
        self.mean = 0j

    def buffer(self) -> np.ndarray:
        """out, made afresh if ``release`` handed the last one over."""
        if self.out is None:
            n = self.multiplier.shape[0]
            self.out = np.empty((n, n + self.pad), dtype=np.complex128)[:, :n]
        return self.out

    def release(self) -> np.ndarray:
        """Hand out over to the caller, as the buffer of another apply or a
        result; the next call makes a fresh one."""
        out, self.out = self.out, None
        return out

    def scratch(self, shape: tuple) -> np.ndarray:
        """A contiguous array of ``shape`` (at most n x n) laid over the
        memory of out: scratch that the next call overwrites."""
        memory = self.buffer().base.reshape(-1)   # the padded n x (n + pad) block
        return memory[:math.prod(shape)].reshape(shape)

    @classmethod
    def beurling(cls, domain: DomainSpec, box: tuple) -> "_FourierApply":
        """S on the grid of ``domain``, with its mean profile dz_w."""
        geo = _geometry(domain)
        return cls(geo.S, geo.dz_w, box)

    @classmethod
    def whole(cls, multiplier, mean_profile, x: np.ndarray,
              box: tuple | None = None, out: np.ndarray | None = None) -> np.ndarray:
        """The whole apply to the field whose samples on ``box`` (default:
        the whole grid) are x and that vanishes off it, in a contiguous
        array, which a ComplexField takes without a copy: ``out``, the
        unpadded buffer another apply released, or a fresh one."""
        apply = cls(multiplier, mean_profile, box or _full_box(x), pad=0, out=out)
        apply(x)
        return apply.out if box is None else apply.finish()

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self.forward(x)
        return self.inverse()

    def forward(self, x: np.ndarray) -> None:
        """out = fft2 of the field whose box samples are x."""
        out, (rows, cols) = self.buffer(), self.box
        out[:rows.start] = 0
        out[rows.stop:] = 0
        band = out[rows]
        band[:, :cols.start] = 0
        band[:, cols] = x
        band[:, cols.stop:] = 0
        _fft_lines(np.fft.fft, band, 1)
        _fft_lines(np.fft.fft, out, 0)
        self.mean = out[0, 0] / out.size

    def inverse(self) -> np.ndarray:
        """The result on the box, from the spectrum ``forward`` left in out."""
        out, (rows, cols) = self.out, self.box
        if isinstance(self.multiplier, np.ndarray):
            with _unbuffered():
                np.multiply(self.multiplier, out, out=out)
        else:
            self.multiplier.multiply(out)
        _fft_lines(np.fft.ifft, out, 1)
        _fft_lines(np.fft.ifft, out[:, cols], 0)
        self._add_mean(rows, cols)
        return out[self.box]

    def finish(self) -> np.ndarray:
        """The whole result of the last call: the column FFTs and the mean
        term off the box."""
        out, (rows, cols) = self.out, self.box
        n = out.shape[0]
        for rest in (slice(0, cols.start), slice(cols.stop, n)):
            _fft_lines(np.fft.ifft, out[:, rest], 0)
            self._add_mean(slice(0, n), rest)
        for rest in (slice(0, rows.start), slice(rows.stop, n)):
            self._add_mean(rest, cols)
        return out

    def _blocks(self, rows: slice, cols: slice):
        """(lo, out[lo:hi, cols]) for the ``_row_blocks`` that tile
        out[rows, cols], top to bottom."""
        for block in _row_blocks(rows, cols.stop - cols.start):
            yield block.start, self.out[block, cols]

    def _add_mean(self, rows: slice, cols: slice) -> None:
        """out[rows, cols] += mean * mean_profile[rows, cols], in row blocks;
        nothing without a mean profile."""
        profile = self.mean_profile
        if profile is None:
            return
        for lo, block in self._blocks(rows, cols):
            p = profile[lo:lo + block.shape[0], cols]   # forming it casts reals
            with _unbuffered():
                np.add(block, self.mean * p, out=block)

    def resolved_at_half(self, bound: float) -> bool:
        """Whether every mode of the spectrum in out outside the band of the
        n/2 grid (|k| >= n/4 on either axis) has amplitude |x^(k)| / n^2 at
        most ``bound``.  Scans out in row blocks, as the mean term is added,
        and stops at the first block above the bound or holding a NaN, which
        no solve can use."""
        n = self.out.shape[0]
        lo, hi = n // 4, n - n // 4 + 1
        limit = bound * self.out.size
        return all(np.max(np.abs(block), initial=0.0) <= limit
                   for rows, cols in ((slice(lo, hi), slice(0, n)),
                                      (slice(0, lo), slice(lo, hi)),
                                      (slice(hi, n), slice(lo, hi)))
                   for _, block in self._blocks(rows, cols))

    def interpolate(self, coarse: np.ndarray) -> np.ndarray:
        """The trigonometric interpolant of n/2-grid samples, on the box.

        Zero-pads the spectrum of ``coarse`` (overwritten by it), with its
        Nyquist lines zeroed, into out and inverts it: the column FFTs run
        on the band's columns only, the row FFTs on the box rows only.
        Returns the box view of out; at even indices it equals ``coarse``
        up to rounding and to the zeroed Nyquist lines.
        """
        out, (rows, cols) = self.out, self.box
        n, half = out.shape[0], coarse.shape[0] // 2
        _fft_lines(np.fft.fft, coarse, 1)
        _fft_lines(np.fft.fft, coarse, 0)
        coarse[half] = 0
        coarse[:, half] = 0
        coarse *= (n / coarse.shape[0]) ** 2   # ifft2 on n divides by n^2
        low, high = slice(0, half), slice(n - half, n)
        out.fill(0)
        for fine_rows, coarse_rows in ((low, low), (high, slice(half, None))):
            out[fine_rows, low] = coarse[coarse_rows, :half]
            out[fine_rows, high] = coarse[coarse_rows, half:]
        for band in (low, slice(n - half + 1, n)):
            _fft_lines(np.fft.ifft, out[:, band], 0)
        _fft_lines(np.fft.ifft, out[rows], 1)
        return out[self.box]


def _on_grid(base: _OnBox, box: tuple, x: np.ndarray) -> np.ndarray:
    """The whole field ``base`` with the box samples x written in, a fresh
    array: off the box it holds base's values, signed zeros included."""
    whole = base.whole()
    whole[box] = x
    return whole


def wirtinger_dz(f: ComplexField) -> ComplexField:
    """Spectral d/dz = (d/dx - i d/dy)/2 on the periodic square.

    Accurate on Omega for fields smooth on the square and near-periodic
    (all solver-produced fields, by construction of the margin).
    """
    return ComplexField(f.domain, _spectral_dz(f.samples, f.domain.resolution,
                                               f.domain.half_width))


def _spectral_dz(samples: np.ndarray, resolution: int, half_width: float) -> np.ndarray:
    """The samples of wirtinger_dz, in a fresh contiguous array."""
    dz = _FormedMultiplier(_wavenumber_axis(resolution, half_width), "dz")
    return _FourierApply.whole(dz, None, samples)


# ---------------------------------------------------------------------------
# finite-difference Wirtinger derivatives (seam-insensitive)
# ---------------------------------------------------------------------------

def _fd4(p: np.ndarray, axis: int, h: float) -> np.ndarray:
    """4th-order centered difference along ``axis`` of p, whose first and
    last two entries along that axis are a halo."""
    size = p.shape[axis] - 4

    def at(k: int) -> np.ndarray:  # at(k)[i] = p[2 + i + k] along axis
        return p[(slice(None),) * axis + (slice(2 + k, 2 + k + size),)]

    return (-at(2) + 8 * at(1) - 8 * at(-1) + at(-2)) / (12.0 * h)


def _fd_xy(samples: np.ndarray, box: tuple, h: float) -> tuple:
    """The x and y stencils of ``samples`` on the (rows, cols) box, from one
    copy of the box plus a 2-cell halo indexed mod N (the periodic wrap)."""
    rows, cols = box
    n = samples.shape[0]
    p = samples[np.ix_(np.arange(rows.start - 2, rows.stop + 2) % n,
                       np.arange(cols.start - 2, cols.stop + 2) % n)]
    return _fd4(p[2:-2], 1, h), _fd4(p[:, 2:-2], 0, h)


def fd_wirtinger_dz(f: ComplexField) -> ComplexField:
    """4th-order centered-difference d/dz; exact on affine fields.

    Local stencil, so the periodic wrap only touches the outermost two rows
    and columns, far outside Omega.  Used by the residual checks as the
    derivative route independent of the spectral pipeline.
    """
    fx, fy = _fd_xy(f.samples, _full_box(f.samples), f.domain.spacing)
    return ComplexField(f.domain, 0.5 * (fx - 1j * fy))


def fd_wirtinger_dbar(f: ComplexField) -> ComplexField:
    """4th-order centered-difference d/dzbar; see fd_wirtinger_dz."""
    fx, fy = _fd_xy(f.samples, _full_box(f.samples), f.domain.spacing)
    return ComplexField(f.domain, 0.5 * (fx + 1j * fy))


def _fd_beltrami_defect(f: ComplexField, m) -> np.ndarray:
    """f_zbar - mu f_z at the interior points, in ``interior_mask`` order,
    from one pair of 4th-order x/y stencils on the interior box.  ``m``
    reads the samples of mu_ext: an array, an ``_OnBox`` or a ``_Blockwise``
    reader, read on the interior box only; callers check that f and mu share a
    DomainSpec.  ValidationError if the interior is empty (``_interior``).

    mu is the second operand of the product at every N, the order in which
    the residuals of the shipped configs were always computed: complex
    multiply is not bitwise commutative.
    """
    box, inner = _interior(f.domain)
    fx, fy = _fd_xy(f.samples, box, f.domain.spacing)
    fx, fy, m = fx[inner], fy[inner], m[box][inner]
    return 0.5 * (fx + 1j * fy) - (0.5 * (fx - 1j * fy)) * m


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def sup_norm(f: ComplexField) -> float:
    """Max of |samples| over Omega."""
    return float(np.max(np.abs(f.samples[omega_mask(f.domain)])))
