import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beltrami import (
    BeltramiField,
    ComplexField,
    Disc,
    DomainSpec,
    ValidationError,
    beurling_transform,
    cauchy_transform,
    constant_field,
    cutoff_field,
    disc_indicator_field,
    estimate_contraction,
    interior_mask,
    make_coordinate_field,
    omega_mask,
    sup_norm,
    wirtinger_dz,
)
from beltrami.grid import (
    _FormedMultiplier,
    _FourierApply,
    _HalfBeurling,
    _geometry,
    _row_blocks,
    _support_box,
    _wavenumber_axis,
)
from beltrami import transforms
from beltrami.transforms import _coarse_tables, _quadrature_hat

from conftest import (
    cauchy_transform_direct,
    corpus,
    disc_domain,
    fourier_apply_reference,
    mu_bump,
    mu_constant,
    quad_convolve_reference,
    quadrature_hats_reference,
    same_bits,
    smooth_random_field,
    tapered_conjugate_reference,
    traced_fields,
)
from diagnostics import (
    beurling_multiplier_reference,
    multiplier_references,
    tapered_coordinate_conjugate,
    wirtinger_dbar,
)


def _sup_on(mask, samples):
    return float(np.max(np.abs(samples[mask])))


# ---------------------------------------------------------------------------
# Cauchy transform
# ---------------------------------------------------------------------------

def test_cauchy_of_zero_is_zero(dom64):
    zero = constant_field(dom64, 0.0)
    for method in ("spectral", "quadrature"):
        assert np.max(np.abs(cauchy_transform(zero, method).samples)) == 0.0


def test_cauchy_disc_indicator_is_zbar(dom512):
    # classical identity: the transform of the unit-disc indicator is zbar
    # inside; the taper only perturbs an annulus around the boundary
    u = disc_indicator_field(dom512)
    f = cauchy_transform(u)
    zbar = make_coordinate_field(dom512).conj()
    err = _sup_on(interior_mask(dom512), (f - zbar).samples)
    assert err <= 5e-3


def test_cauchy_disc_indicator_quadrature_oracle(dom64):
    u = disc_indicator_field(dom64)
    f = cauchy_transform(u, method="quadrature")
    zbar = make_coordinate_field(dom64).conj()
    err = _sup_on(interior_mask(dom64), (f - zbar).samples)
    assert err <= 1e-2


def test_dbar_inversion_contract(dom256):
    # d/dzbar P(phi) = phi on Omega for cutoff-tapered data, any mean
    om = omega_mask(dom256)
    for phi in (disc_indicator_field(dom256),
                smooth_random_field(dom256, seed=4),
                mu_constant(dom256).extended):
        back = wirtinger_dbar(cauchy_transform(phi))
        assert _sup_on(om, (back - phi).samples) <= 5e-3


def test_dbar_inversion_contract_512(dom512):
    u = disc_indicator_field(dom512)
    back = wirtinger_dbar(cauchy_transform(u))
    assert _sup_on(omega_mask(dom512), (back - u).samples) <= 5e-3


def test_zero_mode_pinned(dom128):
    f = smooth_random_field(dom128, seed=9)
    balanced = f - complex(np.mean(f.samples))  # rectangle-mean zero
    out = cauchy_transform(balanced)
    spec = np.fft.fft2(out.samples)
    assert abs(spec[0, 0]) / balanced.samples.size <= 1e-13


def test_transform_linearity(dom64):
    f = smooth_random_field(dom64, seed=5)
    g = smooth_random_field(dom64, seed=6)
    a, b = 0.3 + 1.1j, -2.0 + 0.7j
    for op in (cauchy_transform, beurling_transform):
        lhs = op(a * f + b * g).samples
        rhs = a * op(f).samples + b * op(g).samples
        scale = np.max(np.abs(rhs)) + 1.0
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_unsupported_method(dom64):
    u = constant_field(dom64, 1.0)
    with pytest.raises(ValidationError):
        cauchy_transform(u, method="magic")
    with pytest.raises(ValidationError):
        beurling_transform(u, method="fd")


# ---------------------------------------------------------------------------
# Beurling transform
# ---------------------------------------------------------------------------

def test_beurling_of_zero_is_zero(dom64):
    zero = constant_field(dom64, 0.0)
    for method in ("spectral", "quadrature"):
        assert np.max(np.abs(beurling_transform(zero, method).samples)) == 0.0


def test_beurling_disc_indicator_vanishes_inside(dom512):
    # P(u) = zbar inside the disc, so S(u) = dz(zbar) = 0 there
    u = disc_indicator_field(dom512)
    s = beurling_transform(u)
    assert _sup_on(interior_mask(dom512), s.samples) <= 5e-3


def test_beurling_disc_indicator_quadrature_confirms(dom128):
    u = disc_indicator_field(dom128)
    s = beurling_transform(u, method="quadrature")
    assert _sup_on(interior_mask(dom128), s.samples) <= 2e-2


def test_beurling_is_dz_of_cauchy(dom128):
    f = smooth_random_field(dom128, seed=8)
    from beltrami import wirtinger_dz
    composed = wirtinger_dz(cauchy_transform(f))
    fused = beurling_transform(f)
    assert sup_norm(fused - composed) <= 1e-8


# ---------------------------------------------------------------------------
# cross-method agreement
# ---------------------------------------------------------------------------

def test_cross_method_agreement_on_corpus(dom64):
    om = omega_mask(dom64)
    for name, mu in corpus(dom64).items():
        phi = mu.extended
        dp = _sup_on(om, (cauchy_transform(phi, "spectral")
                          - cauchy_transform(phi, "quadrature")).samples)
        ds = _sup_on(om, (beurling_transform(phi, "spectral")
                          - beurling_transform(phi, "quadrature")).samples)
        assert dp <= 1e-2, f"{name}: Cauchy methods differ by {dp:.3e}"
        assert ds <= 1e-2, f"{name}: Beurling methods differ by {ds:.3e}"


def test_cross_method_agreement_random_smooth(dom64):
    # random smooth compactly supported data: the Cauchy paths agree at the
    # corpus tolerance; the Beurling kernel amplifies the under-resolved tail
    # of sharp random content, so it gets a documented looser bound here
    om = omega_mask(dom64)
    phi = smooth_random_field(dom64, seed=7)
    dp = _sup_on(om, (cauchy_transform(phi, "spectral")
                      - cauchy_transform(phi, "quadrature")).samples)
    ds = _sup_on(om, (beurling_transform(phi, "spectral")
                      - beurling_transform(phi, "quadrature")).samples)
    assert dp <= 1e-2
    assert ds <= 3e-2


def test_transforms_and_wirtinger_dz_share_one_multiplier_table(dom64):
    phi = smooth_random_field(dom64, seed=3)
    spec = np.fft.fft2(phi.samples)
    mean = spec[0, 0] / phi.samples.size
    P, S, dz = multiplier_references(dom64)
    assert np.array_equal(wirtinger_dz(phi).samples, np.fft.ifft2(dz * spec))
    # the geometry's S reads as dz * P, and its P as the table, bit for bit
    geo = _geometry(dom64)
    S_rows = np.concatenate([geo.S.rows(slice(0, 33)), geo.S.rows(slice(33, 64))])
    assert same_bits(S_rows, dz * P)
    assert same_bits(geo.P[slice(0, 64), slice(0, 64)], P)
    # the geometry holds the mean-mode profile: dz_w is wirtinger_dz of w
    w_ref = tapered_conjugate_reference(dom64)
    w = tapered_coordinate_conjugate(dom64)
    assert np.array_equal(w_ref, w.samples)
    assert np.array_equal(geo.dz_w, wirtinger_dz(w).samples)
    assert np.array_equal(beurling_transform(phi).samples,
                          np.fft.ifft2(S * spec) + mean * geo.dz_w)
    assert np.array_equal(cauchy_transform(phi).samples,
                          np.fft.ifft2(P * spec) + mean * w_ref)
    # it keeps dz_w and S's rows 0..N/2; P is formed in each apply
    assert {k for k, v in vars(geo).items()
            if isinstance(v, np.ndarray) and v.dtype == np.complex128} == {"dz_w"}
    assert geo.S.upper.shape == (33, 64) and not geo.S.upper.flags.writeable


def test_mean_mode_profile_is_built_on_first_use():
    # a domain that runs no transform builds neither w_mean nor dz_w, and P
    # reads its profile w block by block: no whole w is ever cached
    dom = DomainSpec(3.0, 32, Disc(0.25 + 0.5j, 0.75), 0.8)
    geo = _geometry(dom)
    phi = constant_field(dom, 1.0)
    assert not {"w_mean", "dz_w"} & set(vars(geo))
    cauchy_transform(phi)
    assert not {"w_mean", "dz_w"} & set(vars(geo))
    beurling_transform(phi)
    assert "dz_w" in vars(geo) and not geo.dz_w.flags.writeable
    cauchy_transform(phi, "quadrature")
    assert geo.w_mean == complex(np.mean(tapered_conjugate_reference(dom)))
    assert {k for k, v in vars(geo).items()
            if isinstance(v, np.ndarray) and v.dtype == np.complex128} == {"dz_w"}
    assert geo.S.upper.shape == (17, 32)
    # any block of w is the block of the whole-array expression
    w_ref = tapered_conjugate_reference(dom)
    for box in ((slice(0, 32), slice(0, 32)), (slice(3, 9), slice(20, 31)),
                (slice(31, 32), slice(0, 1))):
        assert same_bits(geo.w[box], w_ref[box])


@pytest.mark.parametrize("resolution", [32, 64, 128])
def test_spectral_applies_match_the_fft2_expression_bitwise(resolution):
    # the in-place per-axis FFT applies are the numpy fft2/ifft2 expression
    dom = disc_domain(resolution)
    rng = np.random.default_rng(resolution)
    shape = (resolution, resolution)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    phi = ComplexField(dom, x)
    geo = _geometry(dom)
    P, S, dz = multiplier_references(dom)
    assert np.array_equal(beurling_transform(phi).samples,
                          fourier_apply_reference(x, S, geo.dz_w))
    assert np.array_equal(cauchy_transform(phi).samples,
                          fourier_apply_reference(x, P, tapered_conjugate_reference(dom)))
    assert np.array_equal(wirtinger_dz(phi).samples, fourier_apply_reference(x, dz))
    assert np.array_equal(beurling_transform(phi, "quadrature").samples,
                          quad_convolve_reference(x, _quadrature_hat(dom, 2),
                                                  dom.spacing * dom.spacing))


@st.composite
def _boxes(draw):
    # 18 and 30 give rows that are no multiple of a SIMD width
    n = draw(st.sampled_from([16, 18, 30, 32, 64]))
    r0 = draw(st.integers(0, n - 1))
    c0 = draw(st.integers(0, n - 1))
    return (n, r0, draw(st.integers(r0 + 1, n)), c0, draw(st.integers(c0 + 1, n)),
            draw(st.integers(0, 2**32 - 1)))


def _check_apply(multiplier, table, mean_profile, x, box):
    """The box values of the apply of ``multiplier`` (an array, or one that
    forms or half stores ``table``), and its whole output after finish, are
    the numpy fft2 expression's with ``table``, though the buffer's rows are
    padded; a second call reuses the buffer and gives the same bits."""
    n = x.shape[0]
    ref = fourier_apply_reference(x, table, mean_profile)
    apply = _FourierApply(multiplier, mean_profile, box)
    assert apply.out.strides[0] != n * apply.out.itemsize
    assert same_bits(apply(x[box]), ref[box])
    assert same_bits(apply.finish(), ref)
    assert same_bits(apply(x[box]), ref[box])
    return apply


def _random_on_box(n, box, seed):
    rng = np.random.default_rng(seed)
    x = np.zeros((n, n), dtype=np.complex128)
    x[box] = rng.normal(size=x[box].shape) + 1j * rng.normal(size=x[box].shape)
    return x


def _check_box_applies(dom, box, seed):
    # S with its mean profile and d/dz without one on the box, P with its
    # block-formed w as the d-bar finish runs it (in a contiguous buffer),
    # and both quadrature kernels on the N x N data box of the zero-padded
    # 2N grid
    n = dom.resolution
    x = _random_on_box(n, box, seed)
    geo = _geometry(dom)
    P, S, dz = multiplier_references(dom)
    _check_apply(geo.S, S, geo.dz_w, x, box)
    formed_dz = _FormedMultiplier(_wavenumber_axis(n, dom.half_width), "dz")
    _check_apply(formed_dz, dz, None, x, box)
    f = _FourierApply.whole(geo.P, geo.w, x[box], box)
    assert f.flags.c_contiguous
    assert same_bits(f, fourier_apply_reference(x, P, tapered_conjugate_reference(dom)))
    cell_area = dom.spacing * dom.spacing
    pad = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    pad[:n, :n] = x
    data = (slice(0, n), slice(0, n))
    for kernel_hat in (_quadrature_hat(dom, 1), _quadrature_hat(dom, 2)):
        apply = _check_apply(kernel_hat, kernel_hat, None, pad, data)
        assert same_bits(apply(x) * cell_area,
                         quad_convolve_reference(x, kernel_hat, cell_area))


@settings(max_examples=60, deadline=None, database=None)
@given(_boxes())
@example((32, 0, 32, 0, 32, 1))      # the whole grid
@example((32, 7, 8, 0, 32, 2))       # one row
@example((16, 0, 16, 5, 6, 3))       # one column
@example((64, 0, 9, 50, 64, 4))      # touching row 0 and column N - 1
@example((64, 41, 64, 0, 3, 5))      # touching row N - 1 and column 0
@example((16, 15, 16, 15, 16, 6))    # the last sample alone
@example((18, 0, 18, 0, 18, 7))      # whole grids of odd half-length
@example((30, 3, 27, 4, 29, 8))
def test_box_applies_match_the_fft2_expression_bitwise(case):
    n, r0, r1, c0, c1, seed = case
    _check_box_applies(disc_domain(n), (slice(r0, r1), slice(c0, c1)), seed)


@pytest.mark.parametrize("resolution", [256, 512])
def test_pruned_beurling_on_the_dbar_box_bitwise(resolution):
    # the support box of the d-bar solves at the sizes the padding targets
    dom = disc_domain(resolution)
    box = _support_box(cutoff_field(dom))
    geo = _geometry(dom)
    S = beurling_multiplier_reference(resolution, dom.half_width)
    _check_apply(geo.S, S, geo.dz_w, _random_on_box(resolution, box, resolution), box)


@pytest.mark.parametrize("resolution", [16, 18, 64, 512])
def test_formed_and_half_stored_multipliers_match_the_tables_bitwise(resolution):
    # every P row block an apply forms and every S row block, stored or read
    # as conjugates, is the table's, Nyquist lines and their signed zeros
    # included
    n, h = resolution, resolution // 2
    dom = disc_domain(n)
    P, S, dz = multiplier_references(dom)
    geo = _geometry(dom)
    every = slice(0, n)
    for rows in _row_blocks(every, n):
        assert same_bits(geo.P[rows, every], P[rows])
    for rows in (*_row_blocks(slice(0, h + 1), n), *_row_blocks(slice(h + 1, n), n)):
        assert same_bits(geo.S.rows(rows), S[rows])
    assert same_bits(geo.S.upper, S[:h + 1])
    # a plain conjugate of the stored rows differs on the Nyquist column only
    plain = np.conj(geo.S.upper[h - 1:0:-1]).view(np.uint64)
    words = np.flatnonzero((plain != S[h + 1:].view(np.uint64)).any(axis=0))
    assert set(words // 2) == {h}
    # boxes across the Nyquist lines and the zero mode
    formed_dz = _FormedMultiplier(_wavenumber_axis(n, dom.half_width), "dz")
    for box in ((slice(h, h + 1), slice(h, h + 1)), (slice(0, h + 1), slice(h, n)),
                (slice(h - 1, n), slice(0, 3)), (slice(3, 5), slice(h - 2, h + 2)),
                (slice(0, 1), slice(0, 1)), (slice(h + 1, h + 2), every)):
        assert same_bits(geo.P[box], P[box])
        assert same_bits(formed_dz[box], dz[box])
    # the multiplies are the table products, the multiplier the first
    # operand; S's lower rows are its stored rows reflected, on other grids too
    rng = np.random.default_rng(n)
    spec = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    other = [(_HalfBeurling(_wavenumber_axis(n, L)), beurling_multiplier_reference(n, L))
             for L in (2.5, 3.7)]
    for multiplier, table in ((geo.P, P), (geo.S, S), (formed_dz, dz), *other):
        out = np.empty((n, n + 4), dtype=np.complex128)[:, :n]
        out[...] = spec
        multiplier.multiply(out)
        assert same_bits(out, np.multiply(table, spec))


@pytest.mark.parametrize("resolution, half_width", [(16, 3.0), (32, 2.5),
                                                   (64, 3.0), (128, 3.7)])
def test_quadrature_hats_match_the_meshgrid_construction(resolution, half_width):
    dom = DomainSpec(half_width, resolution, Disc(0j, 1.0), 0.8)
    cauchy, beurling = quadrature_hats_reference(dom)
    assert same_bits(_quadrature_hat(dom, 2), beurling)
    assert same_bits(_quadrature_hat(dom, 1), cauchy)


@pytest.mark.parametrize("resolution", [128, 256])
def test_quadrature_plan_builds_only_the_hat_a_call_needs(resolution):
    # one hat is four fields of 16 N^2 bytes; building both from int
    # meshgrids peaked at ~29 fields and kept 8
    dom = disc_domain(resolution)
    peak, kept, _ = traced_fields(lambda: _quadrature_hat(dom, 2), resolution)
    assert peak <= 16 and kept <= 4.01
    peak, kept, _ = traced_fields(lambda: _quadrature_hat(dom, 1), resolution)
    assert peak <= 16 and kept <= 4.01


def test_quadrature_equals_direct_sum():
    # the padded-FFT evaluation is literally the midpoint double sum
    dom = disc_domain(16)
    phi = smooth_random_field(dom, seed=13, modes=3)
    direct = cauchy_transform_direct(phi).samples
    # align the raw sum to the library's additive-constant pinning
    direct = (direct + np.mean(phi.samples) * _geometry(dom).w_mean
              - np.mean(direct))
    fast = cauchy_transform(phi, method="quadrature").samples
    assert np.max(np.abs(fast - direct)) <= 1e-12


# ---------------------------------------------------------------------------
# contraction estimation
# ---------------------------------------------------------------------------

def test_contraction_of_zero(dom64):
    mu = BeltramiField.from_raw(constant_field(dom64, 0.0))
    assert estimate_contraction(mu) == 0.0


def test_contraction_of_const(dom256):
    q = estimate_contraction(mu_constant(dom256), 8)
    assert 0.0 < q <= 0.5


def test_contraction_one_step_homogeneity(dom64):
    mu = mu_constant(dom64, 0.4)
    base = estimate_contraction(mu, 1)
    for t in (0.25, 0.5, 1.0):
        scaled = estimate_contraction(mu.scaled(t), 1)
        assert scaled == pytest.approx(t * base, rel=1e-12)


@pytest.mark.parametrize("method", ["spectral", "quadrature"])
def test_contraction_matches_the_allocating_power_loop_bitwise(dom64, method):
    mu = mu_bump(dom64, 0.5)
    m = mu.extended.samples
    v, q = m, 0.0
    for _ in range(8):
        norm = float(np.max(np.abs(v)))
        v = m * beurling_transform(ComplexField(dom64, v), method).samples
        q = max(q, float(np.max(np.abs(v))) / norm)
    assert estimate_contraction(mu, 8, method=method) == q


def test_contraction_builds_its_quadrature_kernel_once(dom64, monkeypatch):
    # each of the 8 applies rebuilt the kernel's FFT, four fields on the 2N grid
    builds = []

    def counted(domain, power):
        builds.append(power)
        return _quadrature_hat(domain, power)

    monkeypatch.setattr(transforms, "_quadrature_hat", counted)
    assert estimate_contraction(mu_bump(dom64, 0.5), 8, method="quadrature") > 0
    assert builds == [2]


def test_contraction_validation(dom64):
    mu = mu_constant(dom64)
    with pytest.raises(ValidationError):
        estimate_contraction(mu, 0)


def test_contraction_quadrature_method(dom64):
    mu = mu_constant(dom64)
    q_spec = estimate_contraction(mu, 4, method="spectral")
    q_quad = estimate_contraction(mu, 4, method="quadrature")
    assert 0 < q_quad < 0.9
    assert abs(q_spec - q_quad) <= 0.2


def test_interpolate_prolongs_band_limited_samples(dom128):
    # the even samples of a field with modes |k| < N/4 give back the field
    # on the apply's box, through the apply's own buffer
    n = 128
    rng = np.random.default_rng(11)
    idx = np.arange(n)
    x = np.zeros((n, n), dtype=np.complex128)
    for kx, ky in rng.integers(-n // 4 + 1, n // 4, size=(12, 2)):
        amp = rng.normal() + 1j * rng.normal()
        x += amp * np.exp(2j * np.pi * (kx * idx[None, :] + ky * idx[:, None]) / n)
    box = (slice(10, 100), slice(5, 121))
    apply = _FourierApply.beurling(dom128, box)
    got = apply.interpolate(x[::2, ::2].copy())
    assert np.shares_memory(got, apply.out)
    assert np.max(np.abs(got - x[box])) <= 1e-12


def test_coarse_tables_derive_from_the_fine_grid(dom256):
    # the N/2 grid's S is the fine S on the band, Nyquist lines zeroed, and
    # its mean profile is the fine dz_w at even indices, a view
    S, profile = _coarse_tables(dom256)
    own = beurling_multiplier_reference(128, dom256.half_width)
    assert S.shape == (128, 128) and S.flags.c_contiguous
    assert np.all(S[64] == 0) and np.all(S[:, 64] == 0)
    assert np.max(np.abs(S - own)) <= 1e-15
    band = np.r_[0:64, 192:256]
    fine = beurling_multiplier_reference(256, dom256.half_width)[np.ix_(band, band)]
    fine[64] = 0
    fine[:, 64] = 0
    assert same_bits(S, fine)
    fine = _geometry(dom256).dz_w
    assert np.shares_memory(profile, fine)
    assert same_bits(profile, fine[::2, ::2])
