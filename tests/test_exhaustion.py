import math

import numpy as np
import pytest

from beltrami import (
    BeltramiField,
    ComplexField,
    RungeApproximationFailure,
    SolverConfig,
    ValidationError,
    cauchy_transform,
    constant_field,
    disc_indicator_field,
    exhaustion_solve,
    gaussian_bump_field,
    make_coordinate_field,
    solve_dbar,
    solve_immersion,
    taylor_project,
)
from beltrami.exhaustion import (
    MAX_TAYLOR_DEGREE,
    PATCH_ORDER,
    _lagrange_patch_interpolate,
    _step_budget,
)

from conftest import disc_domain, same_bits, smooth_random_field, traced_fields


def _compact_bump(domain):
    """Radial bump exactly supported in the disc of radius 0.5."""
    return disc_indicator_field(domain, amplitude=1.0, radius=0.25, width=0.5)


# ---------------------------------------------------------------------------
# taylor_project
# ---------------------------------------------------------------------------

def test_taylor_of_z_squared(dom256):
    z = make_coordinate_field(dom256)
    jet = taylor_project(ComplexField(dom256, z.samples ** 2), 0j, 3, 0.7)
    coeffs = np.array(jet.coefficients)
    assert np.max(np.abs(coeffs - np.array([0, 0, 1, 0]))) <= 1e-8
    assert jet.circle_residual <= 1e-8


def test_taylor_of_constant(dom256):
    c = 2.5 - 1.25j
    jet = taylor_project(constant_field(dom256, c), 0j, 4, 0.6)
    coeffs = np.array(jet.coefficients)
    assert abs(coeffs[0] - c) <= 1e-12
    assert np.max(np.abs(coeffs[1:])) <= 1e-12


def test_taylor_of_zbar_is_flagged(dom256):
    # the antiholomorphic coordinate has no Taylor representation: all
    # coefficients integrate to zero and the circle reconstruction misses by
    # the circle radius
    radius = 0.7
    jet = taylor_project(make_coordinate_field(dom256).conj(), 0j, 3, radius)
    assert np.max(np.abs(np.array(jet.coefficients))) <= 1e-10
    assert jet.circle_residual == pytest.approx(radius, rel=1e-6)


def test_taylor_is_a_projection(dom256):
    z = make_coordinate_field(dom256)
    poly = ComplexField(dom256, 0.3 - 1j * z.samples + 0.25 * z.samples ** 3)
    jet = taylor_project(poly, 0j, 3, 0.7)
    rebuilt = ComplexField(dom256, jet.evaluate(z.samples))
    again = taylor_project(rebuilt, 0j, 3, 0.7)
    gap = np.abs(np.array(jet.coefficients) - np.array(again.coefficients))
    assert np.max(gap) <= 1e-12


def test_taylor_off_center(dom256):
    z = make_coordinate_field(dom256)
    center = 0.4 + 0.2j
    jet = taylor_project(ComplexField(dom256, z.samples ** 2), center, 2, 0.5)
    # (z)^2 = c^2 + 2c (z-c) + (z-c)^2
    expected = np.array([center ** 2, 2 * center, 1.0])
    assert np.max(np.abs(np.array(jet.coefficients) - expected)) <= 1e-8


def _patch_interpolate_pointwise(f, points):
    """The 6x6 Lagrange patch one point at a time, each weight a product
    over np.delete of the other nodes."""
    L, h, half = f.domain.half_width, f.domain.spacing, PATCH_ORDER // 2
    out = np.empty(points.size, dtype=np.complex128)
    for m, p in enumerate(points.ravel()):
        jj = np.arange(PATCH_ORDER) + int(np.floor((p.real + L) / h)) - half + 1
        ii = np.arange(PATCH_ORDER) + int(np.floor((p.imag + L) / h)) - half + 1
        xn, yn = -L + h * jj, -L + h * ii
        wx = [np.prod((p.real - np.delete(xn, a)) / (xn[a] - np.delete(xn, a)))
              for a in range(PATCH_ORDER)]
        wy = [np.prod((p.imag - np.delete(yn, a)) / (yn[a] - np.delete(yn, a)))
              for a in range(PATCH_ORDER)]
        out[m] = np.array(wy) @ f.samples[np.ix_(ii, jj)] @ np.array(wx)
    return out


def test_patch_weights_for_all_points_are_the_pointwise_ones(dom128):
    # the weights built for all circle points at once are bitwise the
    # one-point products, so taylor_project's jets are unchanged
    f = smooth_random_field(dom128, seed=9)
    rng = np.random.default_rng(9)
    ring = 0.3 + 0.1j + 1.1 * np.exp(2j * np.pi * np.arange(64) / 64)
    scattered = rng.uniform(-2.5, 2.5, 200) + 1j * rng.uniform(-2.5, 2.5, 200)
    for points in (ring, scattered):
        assert same_bits(_lagrange_patch_interpolate(f, points),
                         _patch_interpolate_pointwise(f, points))


def test_taylor_validation(dom64):
    f = constant_field(dom64, 1.0)
    for degree in (-1, 0, MAX_TAYLOR_DEGREE + 1, 2.0, True, "3"):
        with pytest.raises(ValidationError, match="degree"):
            taylor_project(f, 0j, degree, 0.5)
    assert len(taylor_project(f, 0j, MAX_TAYLOR_DEGREE, 0.5).coefficients) == 65
    with pytest.raises(ValidationError):
        taylor_project(f, 0j, 2, 0.0)
    with pytest.raises(ValidationError):
        taylor_project(f, 0j, 2, 10.0)  # circle leaves the grid


def test_taylor_degree_above_the_bound_is_refused_before_allocating(dom64):
    # degree 30000 would build a 30001 x 240000 complex phase table
    f = constant_field(dom64, 1.0)

    def project():
        with pytest.raises(ValidationError, match="degree"):
            taylor_project(f, 0j, 30000, 0.5)

    peak = traced_fields(project, 64)[0] * 16 * 64 ** 2
    assert peak < 2 ** 22, peak


# ---------------------------------------------------------------------------
# exhaustion_solve
# ---------------------------------------------------------------------------

def test_single_radius_is_solve_dbar(dom128):
    mu = BeltramiField.from_raw(constant_field(dom128, 0.0))
    u = _compact_bump(dom128)
    f, trace = exhaustion_solve(mu, u, [1.0], taylor_degree=4)
    from beltrami import Disc, DomainSpec, rebase
    step_dom = DomainSpec(dom128.half_width, dom128.resolution, Disc(0j, 1.0),
                          dom128.margin)
    direct = solve_dbar(BeltramiField.from_raw(rebase(mu.raw, step_dom)),
                        ComplexField(step_dom, u.samples))
    assert np.array_equal(f.samples, direct.f.samples)
    assert len(trace.steps) == 1


def test_exhaustion_matches_direct_global_solve(dom256):
    mu = BeltramiField.from_raw(constant_field(dom256, 0.0))
    u = _compact_bump(dom256)
    f, trace = exhaustion_solve(mu, u, [1.0, 1.5, 2.0], taylor_degree=8)
    direct = cauchy_transform(u)
    disc1 = np.abs(make_coordinate_field(dom256).samples) <= 1.0
    assert np.max(np.abs(f.samples[disc1] - direct.samples[disc1])) <= 5e-3


def test_exhaustion_trace_meets_its_step_budgets(dom256):
    mu = BeltramiField.from_raw(constant_field(dom256, 0.0))
    u = _compact_bump(dom256)
    cfg = SolverConfig()
    _, trace = exhaustion_solve(mu, u, [1.0, 1.5, 2.0], 8, cfg)
    assert [s.step for s in trace.steps] == [1, 2, 3]
    # post-correction agreement obeys the summable budget at every step
    for s in trace.steps:
        assert s.budget == cfg.tol * 6.0 / (math.pi ** 2 * s.step ** 2)
        assert s.approx_error <= s.budget
    assert sum(s.budget for s in trace.steps) <= cfg.tol
    # fitted single constant K: corrections stay within K times the budget
    fitted = max((s.correction_sup / s.budget for s in trace.steps), default=0.0)
    for s in trace.steps:
        assert s.correction_sup <= fitted * s.budget * (1 + 1e-12)


def test_step_budgets_sum_to_at_most_tol_and_stay_above_rounding():
    # a geometric budget 2^-n tol gave step 11 4.9e-14 at tol 1e-10, under
    # the 7.2e-14 a Taylor correction at N = 1024 reaches by rounding alone
    for tol in (1e-6, 1e-10, 1e-14):
        budgets = [_step_budget(n, tol) for n in range(1, 10001)]
        assert budgets[0] == tol * 6.0 / math.pi ** 2
        assert all(b > later for b, later in zip(budgets, budgets[1:]))
        assert math.fsum(budgets) <= tol and sum(budgets) <= tol
        assert math.fsum(budgets) >= tol * (1 - 1e-3)
    assert _step_budget(11, 1e-10) == pytest.approx(5.02e-13, rel=1e-3)


def test_exhaustion_with_nonzero_mu(dom256):
    # coefficient compactly supported inside the first disc; N = 256 fully
    # resolves the collar tapers, keeping step agreement inside the budget
    mu = BeltramiField.from_raw(
        disc_indicator_field(dom256, amplitude=0.3, radius=0.25, width=0.5))
    u = _compact_bump(dom256)
    f, trace = exhaustion_solve(mu, u, [1.0, 1.5], taylor_degree=6)
    assert len(trace.steps) == 2
    assert trace.steps[1].approx_error <= trace.steps[1].budget
    assert np.all(np.isfinite(f.samples.view(np.float64)))
    # the returned rhs is the one an independent immersion solve on the last
    # disc rebuilds, bit for bit
    mu_last = BeltramiField.from_raw(ComplexField(f.domain, mu.raw.samples))
    g = solve_immersion(mu_last).g.samples
    expected = (1.0 - np.abs(mu_last.extended.samples) ** 2) * np.conj(g) * u.samples
    assert trace.rhs.domain == f.domain
    assert np.array_equal(trace.rhs.samples, expected)


def test_exhaustion_peak_does_not_grow_with_the_number_of_discs():
    # each step frees the last step's result, its domain and that domain's
    # tables before the next solve; kept alive, they cost ~1.6 fields a disc
    dom = disc_domain(128)
    mu = BeltramiField.from_raw(constant_field(dom, 0.0))
    u = _compact_bump(dom)
    exhaustion_solve(mu, u, [1.0, 2.0], 8)   # numpy's FFT plans, outside the traces
    peaks = {}
    for discs in (2, 6):
        radii = list(np.linspace(1.0, 2.0, discs))

        def run():   # the result, and with it the last disc's tables, is dropped
            exhaustion_solve(mu, u, radii, 8)

        peak, kept, _ = traced_fields(run, 128)
        peaks[discs] = peak
        assert kept <= 0.1, kept
    assert peaks[6] <= peaks[2] + 0.5, peaks


def test_runge_failure_on_wide_data(dom128):
    # wide datum violates the compact-support precondition: per-disc tapers
    # genuinely differ, the step corrections are real, and a tiny polynomial
    # degree cannot meet the step budget
    mu = BeltramiField.from_raw(constant_field(dom128, 0.0))
    wide = gaussian_bump_field(dom128, 1.0, width=0.9)
    with pytest.raises(RungeApproximationFailure) as info:
        exhaustion_solve(mu, wide, [1.0, 1.5], taylor_degree=1)
    assert info.value.step == 2
    assert info.value.error > info.value.budget


def test_exhaustion_validation(dom128):
    mu = BeltramiField.from_raw(constant_field(dom128, 0.0))
    u = _compact_bump(dom128)
    with pytest.raises(ValidationError):
        exhaustion_solve(mu, u, [], 4)
    with pytest.raises(ValidationError):
        exhaustion_solve(mu, u, [1.0, 1.0], 4)
    with pytest.raises(ValidationError):
        exhaustion_solve(mu, u, [1.0, 2.5], 4)  # 2.5 >= L - margin
    with pytest.raises(ValidationError):
        exhaustion_solve(mu, u, [1.0], 0)
    # a datum on another grid was read as if it lay on mu's
    from beltrami import Disc, DomainSpec
    other = DomainSpec(4.0, 128, Disc(0j, 1.0), 0.8)
    with pytest.raises(ValidationError, match="different DomainSpecs"):
        exhaustion_solve(mu, _compact_bump(other), [1.0, 1.5], 4)
    # a first disc narrower than 2/3 of the margin has no interior to solve on
    with pytest.raises(ValidationError, match="inside Omega"):
        exhaustion_solve(mu, u, [0.5, 1.0], 4)
