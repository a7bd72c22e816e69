import gc
import math
import weakref

import numpy as np
import pytest

from beltrami import (
    BeltramiField,
    ComplexField,
    Disc,
    DomainSpec,
    FamilySpec,
    OneFormField,
    Rect,
    SolverConfig,
    ValidationError,
    beltrami_residual,
    beurling_transform,
    constant_field,
    convert_to_background,
    convert_to_moving,
    cutoff_field,
    estimate_contraction,
    exhaustion_solve,
    fd_wirtinger_dbar,
    fd_wirtinger_dz,
    interior_mask,
    make_coordinate_field,
    neumann_solve,
    omega_mask,
    solve_dbar,
    solve_dbar_form,
    solve_family,
    sup_norm,
    taylor_project,
    wirtinger_dz,
)
from beltrami.grid import (
    CUTOFF_SHARPNESS,
    MAX_RESOLUTION,
    _fd_beltrami_defect,
    _geometry,
    _Geometry,
    transition_profile,
)

from conftest import (
    coordinate_reference,
    disc_domain,
    same_bits,
    smooth_random_field,
    tapered_conjugate_reference,
    traced_fields,
)
from diagnostics import holder_seminorm, tapered_coordinate_conjugate, wirtinger_dbar


# ---------------------------------------------------------------------------
# DomainSpec validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad_n", [2, 8, 14, 15, 17, 33, MAX_RESOLUTION + 2,
                                   10 ** 12])
def test_resolution_rejected(bad_n):
    with pytest.raises(ValidationError):
        DomainSpec(3.0, bad_n, Disc(0j, 1.0), 0.8)


def test_resolution_ceiling_bounds_one_field():
    # a DomainSpec allocates nothing; the ceiling is checked arithmetically
    assert DomainSpec(3.0, MAX_RESOLUTION, Disc(0j, 1.0), 0.8).resolution == 4096
    assert 16 * MAX_RESOLUTION ** 2 == 256 * 2 ** 20   # complex128 bytes


def test_collar_must_fit():
    with pytest.raises(ValidationError):
        DomainSpec(1.5, 64, Disc(0j, 1.0), 0.8)  # 1.0 + 0.8 >= 1.5
    with pytest.raises(ValidationError):
        DomainSpec(3.0, 64, Disc(2.0 + 0j, 1.0), 0.8)  # off-center overflow
    with pytest.raises(ValidationError):
        DomainSpec(3.0, 64, Rect(-1.0, -1.0, 2.5, 1.0), 0.8)


def test_bad_scalars_rejected():
    with pytest.raises(ValidationError):
        DomainSpec(-1.0, 64, Disc(0j, 0.2), 0.1)
    with pytest.raises(ValidationError):
        DomainSpec(3.0, 64, Disc(0j, 1.0), 0.0)
    with pytest.raises(ValidationError):
        DomainSpec(3.0, 64, Rect(1.0, -1.0, -1.0, 1.0), 0.5)


@pytest.mark.parametrize("args", [
    (math.inf, 64, Disc(0j, 1.0), 0.8),
    (math.nan, 64, Disc(0j, 1.0), 0.8),
    ("3.0", 64, Disc(0j, 1.0), 0.8),
    (True, 64, Disc(0j, 0.1), 0.1),
    (3.0, 64, Disc(0j, 1.0), "0.8"),
    (3.0, 64, Disc(0j, 1.0), math.inf),
    (3.0, 64, Disc(0j, 1.0), np.nan),
    (3.0, 64, Disc(0j, "1.0"), 0.8),
    (3.0, 64, Disc(0j, math.nan), 0.8),
    (3.0, 64, Disc(0j, np.bool_(True)), 0.8),
    (3.0, 64, Disc(complex(math.nan, 0.0), 1.0), 0.8),
    (3.0, 64, Disc(complex(0.0, -math.inf), 1.0), 0.8),
    (3.0, 64, Disc("0", 1.0), 0.8),
    (3.0, 64, Disc(None, 1.0), 0.8),
    (3.0, 64, Disc(True, 1.0), 0.8),
    (3.0, 64, Rect(-1.0, "-1.0", 1.0, 1.0), 0.8),
    (3.0, 64, Rect(-1.0, -1.0, 1.0, math.nan), 0.8),
], ids=["inf-half-width", "nan-half-width", "str-half-width", "bool-half-width",
        "str-margin", "inf-margin", "nan-margin", "str-radius", "nan-radius",
        "bool-radius", "nan-center", "inf-center", "str-center", "none-center",
        "bool-center", "str-corner", "nan-corner"])
def test_non_finite_or_non_numeric_domain_values_are_refused(args):
    # refused at construction, before any table is built; before, inf and
    # nan centers passed, and strings raised TypeError or AttributeError
    with pytest.raises(ValidationError):
        DomainSpec(*args)


def test_domain_values_take_ints_and_numpy_numbers():
    dom = DomainSpec(np.float64(3.0), 64, Disc(np.complex128(0.5j), np.int64(1)), 1)
    assert dom.spacing == 6.0 / 64
    assert DomainSpec(3, 64, Disc(0, 1.0), 0.8).omega.center == 0


# A malformed scalar argument of any public entry point raises
# ValidationError; before, these raised OverflowError, TypeError or
# ValueError from the arithmetic they reached, or ran (bools and numeric
# strings read as numbers, a fractional or bool thread count).
_BOUNDARY_CASES = {
    "domain-huge-int": lambda mu, u: DomainSpec(10 ** 400, 64, Disc(0j, 1.0), 0.8),
    "tol-huge-int": lambda mu, u: SolverConfig(tol=10 ** 400),
    "cap-huge-int": lambda mu, u: SolverConfig(contraction_cap=10 ** 400),
    "grid-str": lambda mu, u: FamilySpec(mu, ("0.5", 1.0)),
    "grid-bool": lambda mu, u: FamilySpec(mu, (True, 0.5)),
    "grid-abc": lambda mu, u: FamilySpec(mu, ("abc",)),
    "grid-none": lambda mu, u: FamilySpec(mu, (None,)),
    "radii-str": lambda mu, u: exhaustion_solve(mu, u, ["1.0"], 4),
    "radii-bool": lambda mu, u: exhaustion_solve(mu, u, [True], 4),
    "radii-none": lambda mu, u: exhaustion_solve(mu, u, [None], 4),
    "circle-radius-str": lambda mu, u: taylor_project(u, 0j, 3, "0.5"),
    "circle-radius-nan": lambda mu, u: taylor_project(u, 0j, 3, math.nan),
    "scaled-str": lambda mu, u: mu.scaled("0.5"),
    "iterations-str": lambda mu, u: estimate_contraction(mu, "3"),
    "iterations-float": lambda mu, u: estimate_contraction(mu, 2.5),
    "iterations-bool": lambda mu, u: estimate_contraction(mu, True),
    "threads-negative": lambda mu, u: _table_sweep(mu, u, -1),
    "threads-str": lambda mu, u: _table_sweep(mu, u, "2"),
    "threads-float": lambda mu, u: _table_sweep(mu, u, 2.5),
    "threads-bool": lambda mu, u: _table_sweep(mu, u, True),
    # before, realize(True) returned entry 1, realize(-1) the last entry,
    # and 1.0 and 3 raised TypeError and IndexError
    "index-bool": lambda mu, u: FamilySpec(mu, (0.0, 0.5, 1.0)).realize(True),
    "index-negative": lambda mu, u: FamilySpec(mu, (0.0, 0.5, 1.0)).realize(-1),
    "index-float": lambda mu, u: FamilySpec(mu, (0.0, 0.5, 1.0)).realize(1.0),
    "index-past-end": lambda mu, u: FamilySpec(mu, (0.0, 0.5, 1.0)).realize(3),
    # before, "0" raised UFuncTypeError and None TypeError, True ran, and a
    # nan center was refused only as a circle that leaves the grid
    "center-str": lambda mu, u: taylor_project(u, "0", 3, 0.5),
    "center-none": lambda mu, u: taylor_project(u, None, 3, 0.5),
    "center-bool": lambda mu, u: taylor_project(u, True, 3, 0.5),
    "center-nan": lambda mu, u: taylor_project(u, complex(math.nan, 0.0), 3, 0.5),
}


def _table_sweep(mu, u, threads):
    family = FamilySpec(mu, (0.0, 1.0), law="table", table=(mu, mu))
    return solve_family(family, [u, u], threads=threads)


@pytest.mark.parametrize("case", _BOUNDARY_CASES)
@pytest.mark.filterwarnings("error")   # refused before any arithmetic runs
def test_malformed_scalar_arguments_raise_validation_error(dom64, case):
    mu = BeltramiField.from_raw(constant_field(dom64, 0.3))
    u = constant_field(dom64, 1.0)
    with pytest.raises(ValidationError):
        _BOUNDARY_CASES[case](mu, u)


def test_frozen_types_hold_the_checked_numbers():
    # numpy scalars were stored as given, so a float32 half-width made the
    # grid spacing a float32
    dom = DomainSpec(np.float32(3.1), np.int64(64),
                     Disc(np.complex64(0.5j), np.int32(1)), np.float32(0.5))
    assert [type(v) for v in (dom.half_width, dom.resolution, dom.margin,
                              dom.omega.center, dom.omega.radius)] == [
        float, int, float, complex, float]
    assert dom.spacing == 2.0 * float(np.float32(3.1)) / 64
    rect = DomainSpec(3, 64, Rect(np.int64(-1), -1, 1, np.float32(1)), 1).omega
    assert [type(v) for v in (rect.x0, rect.y0, rect.x1, rect.y1)] == [float] * 4
    cfg = SolverConfig(tol=np.float32(1e-3), max_iter=np.int64(3),
                       contraction_cap=np.float16(0.5))
    assert [type(v) for v in (cfg.tol, cfg.max_iter, cfg.contraction_cap)] == [
        float, int, float]


def test_spacing():
    dom = DomainSpec(3.0, 64, Disc(0j, 1.0), 0.8)
    assert dom.spacing == pytest.approx(6.0 / 64, abs=0)


# ---------------------------------------------------------------------------
# margin cutoff profile
# ---------------------------------------------------------------------------

def test_transition_profile_is_exact_outside_the_collar():
    t = np.array([-np.inf, -1.0, -1e-300, 0.0, 1.0, 1.0 + 1e-15, 2.0, np.inf])
    out = transition_profile(t)
    assert out.tolist() == [0.0] * 4 + [1.0] * 4
    assert transition_profile(0.5) == 0.5


@pytest.mark.parametrize("t", [0.25, np.float64(0.25), [0.25], [[0.1, 0.9]],
                               np.zeros((3, 4)), np.empty(0)])
def test_transition_profile_keeps_the_input_shape(t):
    out = transition_profile(t)
    assert isinstance(out, np.ndarray) and out.dtype == np.float64
    assert out.shape == np.shape(t)


def test_transition_profile_nondecreasing():
    out = transition_profile(np.linspace(-0.05, 1.05, 200_001))
    assert np.all(np.diff(out) >= 0.0)
    assert 0.0 <= out.min() and out.max() <= 1.0


def test_transition_profile_matches_scipy_erf():
    special = pytest.importorskip("scipy.special")
    t = np.linspace(0.0, 1.0, 200_001)[1:-1]
    oracle = 0.5 * (1.0 + special.erf(CUTOFF_SHARPNESS * (2.0 * t - 1.0)))
    assert np.max(np.abs(transition_profile(t) - oracle)) <= 1e-15


# ---------------------------------------------------------------------------
# coordinate field
# ---------------------------------------------------------------------------

def test_coordinate_samples_lie_on_grid():
    # smallest legal grid; sample (i, j) must sit exactly at -L + j*h, -L + i*h
    dom = DomainSpec(1.0, 16, Disc(0j, 0.3), 0.2)
    z = make_coordinate_field(dom).samples
    h = dom.spacing
    assert z[0, 0] == -1.0 - 1.0j
    assert z[0, 1] == (-1.0 + h) - 1.0j
    assert z[3, 5] == (-1.0 + 5 * h) + (-1.0 + 3 * h) * 1j
    # the endpoint +L is omitted: max coordinate is L - h
    assert np.max(z.real) == pytest.approx(1.0 - h, abs=0)


def test_origin_is_a_sample():
    dom = disc_domain(64)
    z = make_coordinate_field(dom).samples
    nearest = np.min(np.abs(z))
    assert nearest <= dom.spacing * np.sqrt(2)
    assert nearest == 0.0  # even N puts a sample exactly at the origin


def test_raw_conjugate_coordinate_against_fd():
    # spectral derivative of the raw (non-periodic) conjugate coordinate is
    # polluted by the seam; the FD oracle is exact there.  The spectral value
    # tracks 1 only loosely -- this documents the gap, the tapered companion
    # below carries the accuracy contract.
    dom = disc_domain(64)
    zbar = make_coordinate_field(dom).conj()
    spectral = wirtinger_dbar(zbar).samples
    fd = fd_wirtinger_dbar(zbar).samples
    inner = interior_mask(dom)
    assert np.max(np.abs(fd[inner] - 1.0)) < 1e-12
    assert np.max(np.abs(spectral[inner] - fd[inner])) < 0.7


def test_tapered_conjugate_coordinate_dbar(dom256):
    w = tapered_coordinate_conjugate(dom256)
    err = wirtinger_dbar(w).samples - 1.0
    assert np.max(np.abs(err[omega_mask(dom256)])) <= 1e-6


def test_tapered_coordinate_dz(dom256):
    z = make_coordinate_field(dom256)
    tapered = ComplexField(dom256, cutoff_field(dom256) * z.samples)
    err = wirtinger_dz(tapered).samples - 1.0
    assert np.max(np.abs(err[omega_mask(dom256)])) <= 1e-6


# ---------------------------------------------------------------------------
# Wirtinger derivatives
# ---------------------------------------------------------------------------

def test_derivatives_of_constant(dom64):
    c = constant_field(dom64, 2.0 - 3.0j)
    assert np.max(np.abs(wirtinger_dz(c).samples)) <= 1e-12
    assert np.max(np.abs(wirtinger_dbar(c).samples)) <= 1e-12


def test_dz_of_z_zbar_tapered(dom256):
    z = make_coordinate_field(dom256).samples
    f = ComplexField(dom256, cutoff_field(dom256) * z * np.conj(z))
    err = wirtinger_dz(f).samples - np.conj(z)
    assert np.max(np.abs(err[omega_mask(dom256)])) <= 1e-6


def test_dbar_of_zbar_matches_quadratic_oracle(dom256):
    # d/dzbar (z zbar) = z on Omega: analytic differentiation oracle
    z = make_coordinate_field(dom256).samples
    f = ComplexField(dom256, cutoff_field(dom256) * z * np.conj(z))
    err = wirtinger_dbar(f).samples - z
    assert np.max(np.abs(err[omega_mask(dom256)])) <= 1e-6


def test_linearity_to_machine_precision(dom64):
    f = smooth_random_field(dom64, seed=1)
    g = smooth_random_field(dom64, seed=2)
    a, b = 1.7 - 0.3j, -0.4 + 2.1j
    lhs = wirtinger_dz(a * f + b * g).samples
    rhs = a * wirtinger_dz(f).samples + b * wirtinger_dz(g).samples
    scale = np.max(np.abs(rhs)) + 1.0
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_conjugation_symmetry_is_bitwise(dom64):
    f = smooth_random_field(dom64, seed=3)
    via_conj = wirtinger_dz(f.conj()).conj()
    assert np.array_equal(wirtinger_dbar(f).samples, via_conj.samples)


# ---------------------------------------------------------------------------
# fields: invariants
# ---------------------------------------------------------------------------

def test_fields_reject_nan(dom64):
    bad = np.zeros((64, 64), complex)
    bad[3, 3] = np.nan
    with pytest.raises(ValidationError):
        ComplexField(dom64, bad)
    bad[3, 3] = np.inf
    with pytest.raises(ValidationError):
        ComplexField(dom64, bad)


def test_fields_reject_wrong_shape(dom64):
    with pytest.raises(ValidationError):
        ComplexField(dom64, np.zeros((32, 32), complex))


def test_fields_are_immutable(dom64):
    f = constant_field(dom64, 1.0)
    with pytest.raises(ValueError):
        f.samples[0, 0] = 5.0
    with pytest.raises(AttributeError):
        f.samples = np.zeros((64, 64))


def test_fields_combine_only_on_same_domain(dom64):
    other = DomainSpec(3.0, 64, Disc(0j, 1.0), 0.7)  # different margin
    with pytest.raises(ValidationError):
        constant_field(dom64, 1.0) + constant_field(other, 1.0)


# At least one case per same-domain check of the library, each reached
# through a public entry point that takes two fields or a field list.  The
# second domain differs from the first in its margin only, so the shapes
# agree.
_MIXED_DOMAIN_CASES = {
    "field-add": lambda mu, u, mu2, u2: u + u2,
    "field-sub": lambda mu, u, mu2, u2: u - u2,
    "field-mul": lambda mu, u, mu2, u2: u * u2,
    "beltrami-field": lambda mu, u, mu2, u2: BeltramiField(mu.raw, mu2.extended),
    "neumann-solve": lambda mu, u, mu2, u2: neumann_solve(mu, u2),
    "residual-h": lambda mu, u, mu2, u2: beltrami_residual(u2, mu),
    "residual-rhs": lambda mu, u, mu2, u2: beltrami_residual(u, mu, u2),
    "one-form": lambda mu, u, mu2, u2: OneFormField("background", u, u2),
    "to-moving-g": lambda mu, u, mu2, u2: convert_to_moving(
        OneFormField("background", u, u), mu, u2),
    "to-moving-form": lambda mu, u, mu2, u2: convert_to_moving(
        OneFormField("background", u2, u2), mu, u),
    "to-background-form": lambda mu, u, mu2, u2: convert_to_background(
        OneFormField("moving", u2, u2, mu=mu2), mu, u),
    "family-table": lambda mu, u, mu2, u2: FamilySpec(
        mu, (0.0, 1.0), law="table", table=(mu, mu2)),
    "solve-dbar": lambda mu, u, mu2, u2: solve_dbar(mu, u2),
    "solve-dbar-form": lambda mu, u, mu2, u2: solve_dbar_form(
        mu, OneFormField("background", 0 * u2, u2)),
    "solve-family": lambda mu, u, mu2, u2: solve_family(
        FamilySpec(mu, (0.0, 1.0)), [u, u2]),
}


@pytest.mark.parametrize("case", _MIXED_DOMAIN_CASES)
def test_mixed_domains_raise_validation_error(dom64, case):
    other = DomainSpec(dom64.half_width, 64, dom64.omega, 0.7)
    assert other != dom64
    fields = [(BeltramiField.from_raw(constant_field(d, 0.3)), constant_field(d, 1.0))
              for d in (dom64, other)]
    with pytest.raises(ValidationError, match="different DomainSpecs"):
        _MIXED_DOMAIN_CASES[case](*fields[0], *fields[1])


def test_beltrami_field_invariants(dom64):
    mu = BeltramiField.from_raw(constant_field(dom64, 0.5))
    ext = mu.extended.samples
    chi = cutoff_field(dom64)
    assert np.max(np.abs(ext)) < 1.0
    assert mu.sup_norm == pytest.approx(0.5, rel=1e-12)
    # extended == raw on Omega, 0 outside the collar
    om = omega_mask(dom64)
    assert np.array_equal(ext[om], mu.raw.samples[om])
    assert np.all(ext[chi == 0.0] == 0.0)
    with pytest.raises(ValidationError):
        BeltramiField.from_raw(constant_field(dom64, 1.2))


def test_beltrami_scaling(dom64):
    mu = BeltramiField.from_raw(constant_field(dom64, 0.4))
    half = mu.scaled(0.5)
    assert np.array_equal(half.extended.samples, 0.5 * mu.extended.samples)
    with pytest.raises(ValidationError):
        mu.scaled(1.5)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_sup_norm_trivial(dom64):
    assert sup_norm(constant_field(dom64, 0.0)) == 0.0
    assert sup_norm(constant_field(dom64, 3 - 4j)) == pytest.approx(5.0)


def test_sup_norm_exhaustive(dom64):
    z = make_coordinate_field(dom64)
    om = omega_mask(dom64)
    assert sup_norm(z) == np.max(np.abs(z.samples[om]))


def test_holder_trivial(dom64):
    assert holder_seminorm(constant_field(dom64, 0.0), 0.5, 100, seed=0) == 0.0
    assert holder_seminorm(constant_field(dom64, 5.0), 0.5, 100, seed=0) == 0.0


def test_holder_validation(dom64):
    f = constant_field(dom64, 1.0)
    for alpha in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValidationError):
            holder_seminorm(f, alpha, 10, seed=0)
    with pytest.raises(ValidationError):
        holder_seminorm(f, 0.5, 0, seed=0)


def test_holder_against_exhaustive_scan():
    dom = disc_domain(32)
    z = make_coordinate_field(dom)
    pts = z.samples[omega_mask(dom)]
    diff = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(diff, 0.0)
    exact = np.max(diff / np.where(diff > 0, np.sqrt(diff), 1.0))  # |dz|^(1/2)
    sampled = holder_seminorm(z, 0.5, pairs=60000, seed=7)
    assert 0.0 <= sampled <= exact + 1e-12
    assert sampled >= 0.95 * exact           # dense sampling nearly saturates
    assert exact <= np.sqrt(2.0) + 1e-12      # diam(unit disc)^alpha bound


def test_holder_prefix_monotone(dom64):
    f = smooth_random_field(dom64, seed=11)
    values = [holder_seminorm(f, 0.4, pairs, seed=5)
              for pairs in (10, 50, 200, 1000, 5000)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_rect_omega_masks():
    dom = DomainSpec(3.0, 64, Rect(-1.0, -0.5, 1.0, 0.5), 0.6)
    om = omega_mask(dom)
    inner = interior_mask(dom)
    z = make_coordinate_field(dom).samples
    assert np.all(np.abs(z.real[om]) <= 1.0 + 1e-12)
    assert np.all(np.abs(z.imag[om]) <= 0.5 + 1e-12)
    assert inner.sum() < om.sum()
    chi = cutoff_field(dom)
    assert np.all(chi[om] == 1.0)
    far = (np.abs(z.real) > 1.0 + 0.6) | (np.abs(z.imag) > 0.5 + 0.6)
    assert np.all(chi[far] == 0.0)


def test_rebase_requires_same_grid(dom64, dom128):
    z = make_coordinate_field(dom64)
    from beltrami import rebase
    other_omega = DomainSpec(3.0, 64, Disc(0j, 0.8), 0.8)
    rehomed = rebase(z, other_omega)
    assert np.array_equal(rehomed.samples, z.samples)
    assert rehomed.domain == other_omega
    with pytest.raises(ValidationError):
        rebase(z, dom128)


def test_tapered_conjugate_equals_zbar_on_omega(dom64):
    w = tapered_coordinate_conjugate(dom64)
    z = make_coordinate_field(dom64)
    om = omega_mask(dom64)
    assert np.array_equal(w.samples[om], np.conj(z.samples[om]))
    far = cutoff_field(dom64) == 0.0
    assert np.all(w.samples[far] == 0.0)


@pytest.mark.parametrize("omega", [Disc(0.25 + 0.5j, 0.75),
                                   Rect(-1.0, -0.5, 1.25, 0.75)])
def test_coordinates_are_the_meshgrid_construction_bitwise(omega):
    # z and w are formed from the 1-D axis when read, not cached
    dom = DomainSpec(2.75, 48, omega, 0.6)
    assert same_bits(make_coordinate_field(dom).samples, coordinate_reference(dom))
    assert same_bits(tapered_coordinate_conjugate(dom).samples,
                     tapered_conjugate_reference(dom))


def test_a_fresh_geometry_keeps_at_most_one_field():
    # the cutoff is half a field and each mask 1/16; a cached z was one more
    dom = disc_domain(256)
    kept = traced_fields(lambda: _Geometry(dom), 256)[1]
    assert kept <= 1.0, kept


def test_a_domain_owns_its_tables():
    dom = disc_domain(32)
    geo = _geometry(dom)
    assert _geometry(dom) is geo
    # an equal domain built separately builds its own
    assert _geometry(disc_domain(32)) is not geo
    assert not any(v is dom for v in vars(geo).values())


def test_tables_are_freed_with_the_domain_s_last_field():
    # the tables hold no reference back to their domain, so reference
    # counting alone frees them; a count-bounded cache kept them alive
    dom = DomainSpec(2.5, 64, Disc(0.1j, 0.9), 0.6)
    mu = BeltramiField.from_raw(constant_field(dom, 0.3))
    u = constant_field(dom, 1.0)
    result = solve_dbar(mu, u)
    oracle = beurling_transform(u, "quadrature")
    geo = weakref.ref(_geometry(dom))
    assert {"P", "S", "dz_w"} <= set(vars(geo()))
    gc.disable()
    try:
        del dom, mu, u, result, oracle
        assert geo() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# finite-difference stencils against the whole-grid np.roll form
# ---------------------------------------------------------------------------

# the halo of the interior box wraps the periodic seam (interior row 1)
SEAM_DOMAIN = DomainSpec(3.0, 16, Disc(0j, 2.8), 0.1)


def _roll_fd_xy(samples, h):
    def fd4(axis):
        r = np.roll
        return (-r(samples, -2, axis) + 8 * r(samples, -1, axis)
                - 8 * r(samples, 1, axis) + r(samples, 2, axis)) / (12.0 * h)
    return fd4(1), fd4(0)


def _random_samples(domain, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    shape = (domain.resolution,) * 2
    return scale * (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))


@pytest.mark.parametrize("domain", [
    disc_domain(64), disc_domain(256), SEAM_DOMAIN,
    DomainSpec(3.0, 32, Rect(-2.5, -0.4, 0.3, 2.6), 0.3),
], ids=["disc-64", "disc-256", "seam-16", "rect-32"])
def test_fd_defect_on_the_interior_box_matches_the_whole_grid_bitwise(domain):
    # mu-last product at every N: numpy reorders mu * B into B * mu only on
    # temporaries of 256 KiB or more, and complex multiply is not commutative
    f = ComplexField(domain, _random_samples(domain, 1))
    mu = BeltramiField.from_raw(ComplexField(domain, _random_samples(domain, 2, 0.6)))
    fx, fy = _roll_fd_xy(f.samples, domain.spacing)
    whole = 0.5 * (fx + 1j * fy) - (0.5 * (fx - 1j * fy)) * mu.extended.samples
    inner = interior_mask(domain)
    assert same_bits(_fd_beltrami_defect(f, mu.extended.samples), whole[inner])


@pytest.mark.parametrize("domain", [disc_domain(16), disc_domain(64), SEAM_DOMAIN],
                         ids=["disc-16", "disc-64", "seam-16"])
def test_fd_wirtinger_matches_the_roll_form_bitwise(domain):
    f = ComplexField(domain, _random_samples(domain, 3))
    fx, fy = _roll_fd_xy(f.samples, domain.spacing)
    assert same_bits(fd_wirtinger_dz(f).samples, 0.5 * (fx - 1j * fy))
    assert same_bits(fd_wirtinger_dbar(f).samples, 0.5 * (fx + 1j * fy))
