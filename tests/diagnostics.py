"""Holder-seminorm diagnostics and test-only field operations.

The gain-of-derivative report measures the paper's optimal-regularity claim:
the solution of the d-bar problem is one derivative smoother than its datum.
No solver or command reads it, nor the spectral d/dzbar and the tapered
conjugate coordinate below, so they live beside the tests that check them.
So do the whole-grid tables of the Fourier multipliers, the library's
former expressions, which the formed and half-stored multipliers match bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from beltrami import ComplexField, DomainSpec, ValidationError
from beltrami.grid import _geometry, interior_mask, wirtinger_dz


def wirtinger_dbar(f: ComplexField) -> ComplexField:
    """Spectral d/dzbar = (d/dx + i d/dy)/2 on the periodic square.

    Implemented as conj(dz(conj(f))), so the conjugation symmetry
    dbar(f) == conj(dz(conj(f))) holds bit for bit.
    """
    return wirtinger_dz(f.conj()).conj()


def wavenumbers_reference(resolution: int, half_width: float) -> tuple:
    """xi = kx + i ky on the (N, L) grid, and the 0/1 mask of its Nyquist lines."""
    h = 2.0 * half_width / resolution
    k = 2.0 * np.pi * np.fft.fftfreq(resolution, d=h)
    KX, KY = np.meshgrid(k, k)
    keep = np.ones((resolution, resolution))
    keep[resolution // 2, :] = 0.0
    keep[:, resolution // 2] = 0.0
    return KX + 1j * KY, keep


def dz_multiplier_reference(resolution: int, half_width: float) -> np.ndarray:
    """The whole symbol of d/dz, zero on the Nyquist lines."""
    xi, keep = wavenumbers_reference(resolution, half_width)
    return 0.5j * np.conj(xi) * keep


def cauchy_multiplier_reference(resolution: int, half_width: float) -> np.ndarray:
    """The whole multiplier of P: 1 / symbol of d/dzbar, 0 at the zero mode
    and on the Nyquist lines."""
    xi, keep = wavenumbers_reference(resolution, half_width)
    with np.errstate(divide="ignore", invalid="ignore"):
        m_P = np.where(np.abs(xi) > 0, 2.0 / (1j * xi), 0.0) * keep
    m_P[0, 0] = 0.0
    return m_P


def beurling_multiplier_reference(resolution: int, half_width: float) -> np.ndarray:
    """The whole multiplier of S = dz * P."""
    return (dz_multiplier_reference(resolution, half_width)
            * cauchy_multiplier_reference(resolution, half_width))


def multiplier_references(domain: DomainSpec) -> tuple:
    """The whole P, S and d/dz multipliers of the grid of ``domain``."""
    grid = (domain.resolution, domain.half_width)
    return (cauchy_multiplier_reference(*grid), beurling_multiplier_reference(*grid),
            dz_multiplier_reference(*grid))


def tapered_coordinate_conjugate(domain: DomainSpec) -> ComplexField:
    """The margin-tapered conjugate coordinate: cutoff * conj(z).

    Identically conj(z) on the closure of Omega, zero outside the collar, and
    d/dzbar of it is 1 on Omega.  This is the profile that carries the mean
    component through the periodic Cauchy transform.
    """
    return ComplexField(domain, _geometry(domain).w[:, :])


def _holder_seminorm_masked(samples: np.ndarray, z: np.ndarray, mask: np.ndarray,
                            alpha: float, pairs: int, seed: int) -> float:
    pts = np.flatnonzero(mask.ravel())
    vals = samples.ravel()[pts]
    zs = z.ravel()[pts]
    rng = np.random.default_rng(seed)
    # one deterministic stream: the first k draws are a prefix of the first
    # k' > k draws, so the running max never decreases when pairs grows
    idx = rng.integers(0, len(pts), size=(pairs, 2))
    keep = idx[:, 0] != idx[:, 1]
    if not np.any(keep):
        return 0.0
    a, b = idx[keep, 0], idx[keep, 1]
    num = np.abs(vals[a] - vals[b])
    den = np.abs(zs[a] - zs[b]) ** alpha
    return float(np.max(num / den))


def holder_seminorm(f: ComplexField, alpha: float, pairs: int, seed: int) -> float:
    """Randomized Holder-alpha seminorm surrogate over grid points of Omega.

    Max of |f(x) - f(y)| / |x - y|^alpha over ``pairs`` pseudo-random pairs of
    distinct Omega grid points; deterministic given ``seed``, and monotone
    under extending ``pairs`` with the same seed.  The exact grid seminorm is
    an O(N^4) pair scan, affordable only at small N (the tests do it there).
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha!r}")
    if pairs < 1:
        raise ValidationError(f"pairs must be >= 1, got {pairs!r}")
    g = _geometry(f.domain)
    return _holder_seminorm_masked(f.samples, g.coordinates(), g.omega_mask, alpha,
                                   pairs, seed)


@dataclass(frozen=True)
class GainReport:
    """Holder-seminorm comparison of a d-bar datum and its solution's gradient.

    A diagnostic artifact, no hard pass/fail: the solution of the d-bar
    problem is expected to be one derivative smoother than the datum, so the
    seminorms of dz f and dzbar f should be finite and stable under grid
    refinement whenever the datum's seminorm is.
    """

    alpha: float
    seminorm_u: float
    seminorm_dz_f: float
    seminorm_dbar_f: float
    ratio_dz: float
    ratio_dbar: float


def gain_of_derivative_report(u: ComplexField, f: ComplexField, alpha: float,
                              pairs: int = 2000, seed: int = 0) -> GainReport:
    """Holder seminorms of u, dz f, dzbar f on interior Omega and their ratios.

    Derivatives of f are spectral (solutions are periodic by construction);
    the seminorms use the randomized pair estimator restricted to the
    reporting interior.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha!r}")
    if u.domain != f.domain:
        raise ValidationError("u and f live on different DomainSpecs")
    z = _geometry(u.domain).coordinates()
    mask = interior_mask(u.domain)

    def semi(field_: ComplexField) -> float:
        return _holder_seminorm_masked(field_.samples, z, mask, alpha, pairs, seed)

    s_u = semi(u)
    s_dz = semi(wirtinger_dz(f))
    s_db = semi(wirtinger_dbar(f))

    def ratio(num: float) -> float:
        if s_u == 0.0:
            return 0.0 if num == 0.0 else float("inf")
        return num / s_u

    return GainReport(alpha, s_u, s_dz, s_db, ratio(s_dz), ratio(s_db))
