import tracemalloc

import numpy as np
import pytest

from beltrami import (
    BeltramiField,
    ComplexField,
    Disc,
    DomainSpec,
    constant_field,
    cutoff_field,
    gaussian_bump_field,
    linear_coordinate_field,
    make_coordinate_field,
)

# canonical test geometry: unit disc inside [-3, 3]^2 with a 0.8 collar
L, RADIUS, MARGIN = 3.0, 1.0, 0.8


def disc_domain(resolution: int) -> DomainSpec:
    return DomainSpec(L, resolution, Disc(0j, RADIUS), MARGIN)


@pytest.fixture(scope="session")
def dom64():
    return disc_domain(64)


@pytest.fixture(scope="session")
def dom128():
    return disc_domain(128)


@pytest.fixture(scope="session")
def dom256():
    return disc_domain(256)


@pytest.fixture(scope="session")
def dom512():
    return disc_domain(512)


def mu_constant(domain: DomainSpec, value=0.3) -> BeltramiField:
    return BeltramiField.from_raw(constant_field(domain, value))


def mu_linear(domain: DomainSpec, coefficient=0.3) -> BeltramiField:
    return BeltramiField.from_raw(linear_coordinate_field(domain, coefficient))


def mu_bump(domain: DomainSpec, amplitude=0.3) -> BeltramiField:
    return BeltramiField.from_raw(gaussian_bump_field(domain, amplitude, width=0.566))


def mu_strong(domain: DomainSpec) -> BeltramiField:
    """Constant 0.5 plus a centred 0.3 bump: sup |mu| = 0.8."""
    raw = constant_field(domain, 0.5) + gaussian_bump_field(domain, 0.3, width=0.5)
    return BeltramiField.from_raw(raw)


def mu_angular(domain: DomainSpec, value: float) -> BeltramiField:
    """value * z / zbar (0 at z = 0): |mu| = value, discontinuous at 0."""
    z = make_coordinate_field(domain).samples
    raw = np.divide(value * z, np.conj(z), out=np.zeros_like(z), where=z != 0)
    return BeltramiField.from_raw(ComplexField(domain, raw))


def corpus(domain: DomainSpec) -> dict:
    """The standard coefficient corpus: constant, linear-z, gaussian bump."""
    return {
        "constant": mu_constant(domain),
        "linear-z": mu_linear(domain),
        "bump": mu_bump(domain),
    }


def smooth_random_field(domain: DomainSpec, seed: int, modes: int = 6,
                        scale: float = 0.2) -> ComplexField:
    """Deterministic low-frequency field tapered to the collar."""
    rng = np.random.default_rng(seed)
    z = make_coordinate_field(domain).samples
    acc = np.zeros_like(z)
    k0 = np.pi / domain.half_width
    for _ in range(modes):
        kx, ky = rng.integers(-3, 4, size=2)
        amp = rng.normal() + 1j * rng.normal()
        acc = acc + amp * np.exp(1j * k0 * (kx * z.real + ky * z.imag))
    acc *= scale * cutoff_field(domain)
    return ComplexField(domain, acc)


def cauchy_transform_direct(phi: ComplexField) -> ComplexField:
    """Reference O(N^4) midpoint sum for the Cauchy transform.

    Literally the double loop the quadrature method is defined as; certifies
    that the padded-FFT evaluation is the same sum.  Unpinned gauge (raw
    sum).  Unusable beyond small N.
    """
    z = make_coordinate_field(phi.domain).samples.ravel()
    vals = phi.samples.ravel()
    h2 = phi.domain.spacing ** 2
    out = np.empty(z.size, dtype=np.complex128)
    for i in range(z.size):
        diff = z[i] - z
        diff[i] = 1.0  # singular cell: exact centered integral is 0
        kern = 1.0 / (np.pi * diff)
        kern[i] = 0.0
        out[i] = np.sum(kern * vals) * h2
    return ComplexField(phi.domain, out.reshape(phi.samples.shape))


def coordinate_reference(domain: DomainSpec) -> np.ndarray:
    """z = X + 1j * Y from the meshgrid of the grid axis, as one whole-array
    expression; the library forms z from the 1-D axis, bit for bit the same."""
    axis = -domain.half_width + domain.spacing * np.arange(domain.resolution)
    X, Y = np.meshgrid(axis, axis)
    return X + 1j * Y


def tapered_conjugate_reference(domain: DomainSpec) -> np.ndarray:
    """P's mean-mode profile w = cutoff * conj(z) as one whole-array
    expression; the library forms it a block at a time."""
    return cutoff_field(domain) * np.conj(coordinate_reference(domain))


def quadrature_hats_reference(domain: DomainSpec) -> tuple:
    """fft2 of the Cauchy and Beurling kernels on the 2N lattice offsets,
    built from int meshgrids and whole-array expressions: the construction
    the quadrature plan matches bit for bit from 1-D offsets."""
    N, h = domain.resolution, domain.spacing
    M = 2 * N
    off = (np.arange(M) + N) % M - N
    DJ, DI = np.meshgrid(off, off)   # DJ: x offset, DI: y offset
    w = (DJ * h) + 1j * (DI * h)
    unused = (DI == -N) | (DJ == -N)
    diag = (DI == 0) & (DJ == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cauchy = 1.0 / (np.pi * w)
        beurling = -1.0 / (np.pi * w * w)
    for kern in (cauchy, beurling):
        kern[diag] = 0.0
        kern[unused] = 0.0
    return np.fft.fft2(cauchy), np.fft.fft2(beurling)


def traced_fields(fn, resolution: int) -> tuple:
    """Run fn under tracemalloc; return (peak, kept) of the memory it
    allocated, in fields of 16 N^2 bytes, and fn's result."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    field = 16.0 * resolution ** 2
    return (peak - base) / field, (kept - base) / field, result


def fourier_apply_reference(x: np.ndarray, multiplier: np.ndarray,
                            mean_profile: np.ndarray | None = None) -> np.ndarray:
    """ifft2(multiplier * fft2(x)) [+ mean(x) * mean_profile] as the plain
    numpy 2-D FFT expression; the library's in-place applies match it bit
    for bit.

    fft2(x) is named before the product on purpose: numpy evaluates
    ``m * np.fft.fft2(x)`` for arrays of 256 KiB or more as the in-place
    ``fft2(x) *= m``, and complex multiply is not bitwise commutative.
    """
    spec = np.fft.fft2(x)
    out = np.fft.ifft2(multiplier * spec)
    if mean_profile is not None:
        out = out + spec[0, 0] / x.size * mean_profile
    return out


def quad_convolve_reference(x: np.ndarray, kernel_hat: np.ndarray,
                            cell_area: float) -> np.ndarray:
    """The zero-padded free-space convolution through fourier_apply_reference."""
    N = x.shape[0]
    pad = np.zeros((2 * N, 2 * N), dtype=np.complex128)
    pad[:N, :N] = x
    return fourier_apply_reference(pad, kernel_hat)[:N, :N] * cell_area


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-for-bit equality of two complex arrays.

    np.array_equal counts -0.0 and +0.0 as equal; the uint64 views do not.
    """
    return np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                          np.ascontiguousarray(b).view(np.uint64))
