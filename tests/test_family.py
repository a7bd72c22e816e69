import cmath
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beltrami.family as family_module
from beltrami import (
    BeltramiField,
    ComplexField,
    DegenerateFrame,
    Disc,
    DomainSpec,
    FamilySpec,
    OneFormField,
    Rect,
    SolverConfig,
    ValidationError,
    constant_field,
    convert_to_background,
    convert_to_moving,
    disc_indicator_field,
    gaussian_bump_field,
    interior_mask,
    make_coordinate_field,
    neumann_solve,
    omega_mask,
    rebase,
    solve_dbar,
    solve_family,
    solve_immersion,
)

from beltrami.grid import _full_box, _support_box

from conftest import (
    disc_domain,
    mu_bump,
    mu_constant,
    mu_strong,
    same_bits,
    smooth_random_field,
    traced_fields,
)
from diagnostics import gain_of_derivative_report


def _random_instance(domain, seed):
    """(A, B, mu, g) with sup|mu| <= 0.5 and |g| >= 0.5 everywhere."""
    rng = np.random.default_rng(seed)
    shape = (domain.resolution,) * 2

    def cplx():
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    a = ComplexField(domain, cplx())
    b = ComplexField(domain, cplx())
    raw = cplx()
    raw *= 0.5 / np.max(np.abs(raw))
    mu = BeltramiField.from_raw(ComplexField(domain, raw))
    gs = cplx()
    g = ComplexField(domain, 1.0 + 0.4 * gs / np.max(np.abs(gs)))
    return a, b, mu, g


# ---------------------------------------------------------------------------
# frame conversion
# ---------------------------------------------------------------------------

def test_conversion_identity_at_mu_zero(dom64):
    mu = BeltramiField.from_raw(constant_field(dom64, 0.0))
    one = constant_field(dom64, 1.0)
    a = smooth_random_field(dom64, seed=20)
    b = smooth_random_field(dom64, seed=21)
    moving = convert_to_moving(OneFormField("background", a, b), mu, one)
    assert np.array_equal(moving.coeff_10.samples, a.samples)
    assert np.array_equal(moving.coeff_01.samples, b.samples)
    back = convert_to_background(moving, mu, one)
    assert np.array_equal(back.coeff_10.samples, a.samples)
    assert np.array_equal(back.coeff_01.samples, b.samples)


def test_conversion_roundtrip(dom64):
    a, b, mu, g = _random_instance(dom64, seed=3)
    form = OneFormField("background", a, b)
    back = convert_to_background(convert_to_moving(form, mu, g), mu, g)
    assert np.max(np.abs((back.coeff_10 - a).samples)) <= 1e-12
    assert np.max(np.abs((back.coeff_01 - b).samples)) <= 1e-12


def test_conversion_01_compatibility(dom64):
    # A = conj(mu) B is the (0,1) relation: the moving (1,0) part vanishes
    _, b, mu, g = _random_instance(dom64, seed=4)
    a = ComplexField(dom64, np.conj(mu.extended.samples) * b.samples)
    moving = convert_to_moving(OneFormField("background", a, b), mu, g)
    assert np.max(np.abs(moving.coeff_10.samples)) <= 1e-12


def test_conversion_constant_mu_example(dom64):
    # A_mu = 0, B_mu = 1, mu = c, g = 1  ->  A = conj(c), B = 1 on Omega
    c = 0.3 - 0.2j
    mu = BeltramiField.from_raw(constant_field(dom64, c))
    one = constant_field(dom64, 1.0)
    moving = OneFormField("moving", constant_field(dom64, 0.0), one, mu=mu)
    back = convert_to_background(moving, mu, one)
    om = omega_mask(dom64)
    assert np.max(np.abs(back.coeff_10.samples[om] - np.conj(c))) <= 1e-12
    assert np.max(np.abs(back.coeff_01.samples[om] - 1.0)) <= 1e-12


def test_conversion_frame_tags_enforced(dom64):
    a, b, mu, g = _random_instance(dom64, seed=5)
    background = OneFormField("background", a, b)
    with pytest.raises(ValidationError):
        convert_to_background(background, mu, g)
    moving = OneFormField("moving", a, b, mu=mu)
    with pytest.raises(ValidationError):
        convert_to_moving(moving, mu, g)
    with pytest.raises(ValidationError):
        OneFormField("moving", a, b)  # moving frame must carry mu
    with pytest.raises(ValidationError):
        OneFormField("sideways", a, b)


def test_degenerate_frame_raises(dom64):
    a, b, mu, _ = _random_instance(dom64, seed=6)
    z = make_coordinate_field(dom64).samples
    g_bad = ComplexField(dom64, np.where(np.abs(z) < 0.1, 0.0, 1.0).astype(complex))
    with pytest.raises(DegenerateFrame):
        convert_to_moving(OneFormField("background", a, b), mu, g_bad)
    mu_close = BeltramiField.from_raw(constant_field(dom64, 1 - 1e-13))
    with pytest.raises(DegenerateFrame):
        convert_to_moving(OneFormField("background", a, b), mu_close,
                          constant_field(dom64, 1.0))


# ---------------------------------------------------------------------------
# d-bar solves
# ---------------------------------------------------------------------------

def test_dbar_mu_zero_reduces_to_cauchy(dom256):
    mu = BeltramiField.from_raw(constant_field(dom256, 0.0))
    u = disc_indicator_field(dom256)
    res = solve_dbar(mu, u)
    zbar = make_coordinate_field(dom256).conj()
    err = np.abs((res.f - zbar).samples[interior_mask(dom256)])
    assert np.max(err) <= 5e-3


def test_dbar_zero_datum_gives_zero(dom128):
    mu = mu_constant(dom128)
    res = solve_dbar(mu, constant_field(dom128, 0.0))
    assert np.all(res.f.samples == 0.0)
    assert res.diagnostics.interior_residual == 0.0


def test_dbar_const_mu_residual(dom256):
    mu = mu_constant(dom256)
    res = solve_dbar(mu, disc_indicator_field(dom256))
    assert res.diagnostics.interior_residual <= 1e-2
    assert res.diagnostics.moving_frame_residual <= 1e-2


@pytest.mark.parametrize("omega", [Disc(0j, 0.2), Rect(-0.2, -0.3, 0.3, 0.2)],
                         ids=["disc", "rect"])
def test_an_omega_with_no_interior_fails_each_solve_with_a_validation_error(omega):
    # Omega narrower than 2/3 of the margin: no grid point lies where min |g|
    # and the residuals are read.  The solves failed there with numpy's
    # errors on empty arrays.  The domain itself stays valid, and a Neumann
    # solve, which reads no interior, runs on it
    dom = DomainSpec(3.0, 64, omega, 0.8)
    assert not interior_mask(dom).any()
    from beltrami import beltrami_residual, solve_dbar_form
    mu, u = mu_constant(dom), disc_indicator_field(dom, radius=0.2)
    assert neumann_solve(mu, u).final_residual <= SolverConfig().tol
    solves = {
        "immersion": lambda: solve_immersion(mu),
        "residual": lambda: beltrami_residual(make_coordinate_field(dom), mu),
        "d-bar": lambda: solve_dbar(mu, u),
        "form": lambda: solve_dbar_form(mu, OneFormField("moving", u * 0.0, u, mu=mu)),
        "linear sweep": lambda: solve_family(FamilySpec(mu, (0.0, 1.0)), [u] * 2),
        "table sweep": lambda: solve_family(
            FamilySpec(mu, (0.0, 1.0), law="table", table=(mu, mu)), [u] * 2),
    }
    for name, solve in solves.items():
        with pytest.raises(ValidationError, match="inside Omega"):
            solve()


def test_no_solve_runs_the_power_iteration(dom64, monkeypatch):
    # every gate compares sup|mu_ext|; the power iteration is a diagnostic
    from beltrami import exhaustion_solve, solve_dbar_form

    def refuse(*args, **kwargs):
        raise AssertionError("a solve ran estimate_contraction")

    modules = [m for name, m in sys.modules.items()
               if name.split(".")[0] == "beltrami"
               and hasattr(m, "estimate_contraction")]
    assert modules
    for module in modules:
        monkeypatch.setattr(module, "estimate_contraction", refuse)
    mu = mu_constant(dom64)
    u = disc_indicator_field(dom64)
    solve_dbar(mu, u)
    solve_dbar_form(mu, OneFormField("moving", constant_field(dom64, 0.0), u, mu=mu))
    for family in (FamilySpec(mu, (0.0, 0.5, 1.0)),
                   FamilySpec(mu, (0.0, 1.0), law="table",
                              table=(mu.scaled(0.5), mu))):
        sweep = solve_family(family, [u] * len(family.parameter_grid))
        assert all(e.result is not None for e in sweep.entries)
    exhaustion_solve(BeltramiField.from_raw(constant_field(dom64, 0.0)),
                     disc_indicator_field(dom64, radius=0.25, width=0.5),
                     [1.0, 1.5], taylor_degree=8)


def test_first_solve_dbar_peaks_at_most_seven_fields_above_its_inputs():
    # a fresh domain, so the call also builds its multipliers and dz_w;
    # with w and z cached and g alive through the d-bar solve the peak was
    # 8.6 fields of 16 N^2 bytes
    dom = DomainSpec(3.125, 256, Disc(0j, 1.0), 0.8)
    raw = (constant_field(dom, 0.175)
           + gaussian_bump_field(dom, 0.175, center=0.2 + 0.3j, width=0.5))
    mu, u = BeltramiField.from_raw(raw), disc_indicator_field(dom)
    peak, _, result = traced_fields(lambda: solve_dbar(mu, u), 256)
    assert result.diagnostics.moving_frame_residual <= 1e-2
    assert peak <= 7.0, peak


def test_dbar_linearity_machine_precision(dom128):
    # rotationally symmetric mu makes the residual norms of a bump and its
    # quarter-turned copy identical, forcing equal iteration counts
    mu = mu_constant(dom128)
    u1 = gaussian_bump_field(dom128, 1.0, center=0.4, width=0.3)
    u2 = ComplexField(dom128, np.rot90(u1.samples))
    a, b = 1.3 - 0.4j, 0.2 + 0.9j
    r1 = solve_dbar(mu, u1)
    r2 = solve_dbar(mu, u2)
    r12 = solve_dbar(mu, a * u1 + b * u2)
    assert (r1.diagnostics.iterations == r2.diagnostics.iterations
            == r12.diagnostics.iterations)
    combo = a * r1.f.samples + b * r2.f.samples
    scale = np.max(np.abs(combo))
    assert np.max(np.abs(r12.f.samples - combo)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# family sweeps
# ---------------------------------------------------------------------------

def test_family_spec_validation(dom64):
    mu = mu_constant(dom64)
    with pytest.raises(ValidationError):
        FamilySpec(mu, ())
    with pytest.raises(ValidationError):
        FamilySpec(mu, (0.0, 1.5))
    with pytest.raises(ValidationError):
        FamilySpec(mu, (0.0, 1.0), law="table")  # missing table
    with pytest.raises(ValidationError):
        FamilySpec(mu, (0.0,), law="nonlinear")
    table = (mu_constant(dom64, 0.1), mu_constant(dom64, 0.2))
    spec = FamilySpec(mu, (0.0, 1.0), law="table", table=table)
    assert spec.realize(1) is table[1]
    # a field that is not a coefficient failed inside the sweep, with an
    # AttributeError on its missing ``extended``
    field = constant_field(dom64, 0.1)
    with pytest.raises(ValidationError, match="BeltramiFields, got ComplexField"):
        FamilySpec(mu, (0.0, 1.0), law="table", table=(table[0], field))
    with pytest.raises(ValidationError, match="BeltramiFields, got ComplexField"):
        FamilySpec(field, (0.0, 1.0))


def test_family_zero_base_all_equal(dom64):
    mu0 = BeltramiField.from_raw(constant_field(dom64, 0.0))
    family = FamilySpec(mu0, (0.0, 0.3, 0.6, 1.0))
    u = disc_indicator_field(dom64)
    sweep = solve_family(family, [u] * 4)
    ref = sweep.entries[0].result.f.samples
    for entry in sweep.entries[1:]:
        assert np.array_equal(entry.result.f.samples, ref)


def test_family_reversed_grid_bitwise(dom64):
    mu = mu_constant(dom64)
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    u = disc_indicator_field(dom64)
    fwd = solve_family(FamilySpec(mu, grid), [u] * 5)
    rev = solve_family(FamilySpec(mu, grid[::-1]), [u] * 5)
    for e_fwd, e_rev in zip(fwd.entries, reversed(rev.entries)):
        assert e_fwd.b == e_rev.b
        assert same_bits(e_fwd.result.f.samples, e_rev.result.f.samples)


def test_family_threads_bitwise_equal(dom64):
    mu = mu_constant(dom64)
    grid = (0.0, 0.5, 1.0)
    u = disc_indicator_field(dom64)
    serial = solve_family(FamilySpec(mu, grid), [u] * 3, threads=1)
    threaded = solve_family(FamilySpec(mu, grid), [u] * 3, threads=3)
    for a, b in zip(serial.entries, threaded.entries):
        assert same_bits(a.result.f.samples, b.result.f.samples)


def _table_family(domain):
    mu = mu_constant(domain)
    return FamilySpec(mu, (0.0, 0.5, 1.0), law="table",
                      table=(mu.scaled(0.2), mu.scaled(0.6), mu))


def test_series_stops_at_the_first_non_finite_term(dom64):
    # the d-bar terms of a datum that overflows the FFTs are NaN from the
    # first term on: every point fails there, not after max_iter terms
    family = FamilySpec(mu_constant(dom64), (0.0, 0.125, 1.0))
    huge = gaussian_bump_field(dom64, 1e308)
    with np.errstate(all="ignore"):
        result = solve_family(family, [huge] * 3)
    assert [e.error for e in result.entries] == [
        "no convergence: residual nan is not finite at iteration 1"] * 3


def test_series_point_fails_at_a_non_finite_residual(dom64, monkeypatch):
    # a measured finish residual that is not finite fails its point at once
    monkeypatch.setattr(family_module, "_box_sup", lambda box, step: math.inf)
    family = FamilySpec(mu_constant(dom64), (0.25, 0.5))
    result = solve_family(family, [disc_indicator_field(dom64)] * 2)
    for entry in result.entries:
        assert entry.result is None
        assert entry.error.startswith("no convergence: residual inf is not finite")


def test_table_law_workers_keep_the_callers_errstate(dom64):
    # the pool runs each point in a copy of the caller's context, where
    # numpy's errstate lives
    mu = mu_constant(dom64)
    family = FamilySpec(mu, (0.0, 1.0), law="table", table=(mu.scaled(0.5), mu))
    huge = gaussian_bump_field(dom64, 1e308)
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        solve_family(family, [huge] * 2, threads=2)


def test_family_table_law_threads_bitwise_equal(dom64):
    # a table-law sweep is the one that runs the worker pool
    family = _table_family(dom64)
    u = [disc_indicator_field(dom64)] * 3
    serial = solve_family(family, u, threads=1)
    for threads in (2, 0):
        pooled = solve_family(family, u, threads=threads)
        for a, b in zip(serial.entries, pooled.entries):
            assert a.b == b.b
            assert a.result.diagnostics == b.result.diagnostics
            assert np.array_equal(a.result.f.samples, b.result.f.samples)
            assert np.array_equal(a.result.rhs.samples, b.result.rhs.samples)


class _RecordingPool:
    """Stands in for ThreadPoolExecutor: records max_workers, maps serially."""

    calls = []

    def __init__(self, max_workers=None):
        self.calls.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("cpus,threads,expected",
                         [(64, 0, [3]), (2, 0, [2]), (None, 0, []),
                          (1, 0, []), (2, 8, [3]), (64, 1, [])])
def test_family_pool_never_exceeds_cores_or_grid_points(dom64, monkeypatch,
                                                        cpus, threads, expected):
    monkeypatch.setattr(family_module.os, "cpu_count", lambda: cpus)
    # the pool is imported where it is used, on the table-law path only
    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "calls", [])
    family = _table_family(dom64)
    sweep = solve_family(family, [disc_indicator_field(dom64)] * 3,
                         threads=threads)
    assert _RecordingPool.calls == expected
    assert all(e.result is not None for e in sweep.entries)


def test_family_per_parameter_errors_isolated(dom64):
    mu = mu_constant(dom64)
    cfg = SolverConfig(contraction_cap=0.1)  # trips for b away from 0
    sweep = solve_family(FamilySpec(mu, (0.0, 1.0)),
                         [disc_indicator_field(dom64)] * 2, cfg)
    assert sweep.entries[0].result is not None
    assert sweep.entries[1].result is None
    assert "contraction" in sweep.entries[1].error


def test_family_lipschitz_report(dom128):
    mu = mu_constant(dom128)
    grid = tuple(np.linspace(0.0, 1.0, 5))
    u = disc_indicator_field(dom128)
    sweep = solve_family(FamilySpec(mu, grid), [u] * 5)
    assert sweep.lipschitz_constant is not None
    assert math.isfinite(sweep.lipschitz_constant)
    for b_lo, b_hi, diff, _ in sweep.adjacent_differences:
        assert diff <= sweep.lipschitz_constant * (b_hi - b_lo) * (1 + 1e-12)
    # uniform 5-point grid: extrapolation gaps exist for interior quadruples
    assert len(sweep.extrapolation_errors) == 2


def test_results_are_read_only_and_share_no_memory(dom64):
    # no solver workspace buffer may leak into, or be shared by, results
    mu = mu_constant(dom64)
    u = smooth_random_field(dom64, seed=2)
    family = FamilySpec(mu, (0.0, 0.5, 1.0))
    arrays = []
    for _ in range(2):
        # the zero coefficient returns the loop's first buffer
        arrays += [neumann_solve(m, u).phi.samples for m in (mu, mu.scaled(0.0))]
        result = solve_dbar(mu, u)
        arrays += [result.f.samples, result.rhs.samples]
        for entry in solve_family(family, [u] * 3).entries:
            arrays += [entry.result.f.samples, entry.result.rhs.samples]
    assert not any(a.flags.writeable for a in arrays)
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


def test_family_misaligned_data_rejected(dom64):
    mu = mu_constant(dom64)
    with pytest.raises(ValidationError):
        solve_family(FamilySpec(mu, (0.0, 1.0)), [disc_indicator_field(dom64)])


def test_single_point_family_reduces_to_dbar(dom64):
    mu = mu_constant(dom64)
    u = disc_indicator_field(dom64)
    sweep = solve_family(FamilySpec(mu, (1.0,)), [u])
    direct = solve_dbar(mu, u)
    assert np.array_equal(sweep.entries[0].result.f.samples, direct.f.samples)
    assert sweep.adjacent_differences == ()
    assert sweep.lipschitz_constant is None


# ---------------------------------------------------------------------------
# linear-law sweeps as one power series in b
# ---------------------------------------------------------------------------

EIGHTHS = tuple(k / 8 for k in range(9))


@pytest.mark.parametrize("resolution", [64, 128])
@pytest.mark.parametrize("make_mu", [mu_constant, mu_strong],
                         ids=["constant", "strong"])
def test_linear_sweep_matches_per_entry_dbar(resolution, make_mu):
    dom = disc_domain(resolution)
    family = FamilySpec(make_mu(dom), EIGHTHS)
    u = disc_indicator_field(dom)
    cfg = SolverConfig()
    sweep = solve_family(family, [u] * 9, cfg)
    om = omega_mask(dom)
    for i, entry in enumerate(sweep.entries):
        assert entry.b == EIGHTHS[i]
        direct = solve_dbar(family.realize(i), u, cfg)
        gap = np.max(np.abs((entry.result.f - direct.f).samples[om]))
        assert gap <= 1e-10, (entry.b, gap)
        assert entry.result.diagnostics.neumann_residual <= cfg.tol
        assert len(entry.result.diagnostics.trace) == \
            entry.result.diagnostics.iterations


@pytest.mark.parametrize("forced", [0, 1], ids=["immersion", "d-bar"])
def test_series_point_that_fails_a_measured_residual_finishes_later(dom64,
                                                                    monkeypatch,
                                                                    forced):
    # a point whose term size met the stop test but whose measured immersion
    # (first) or d-bar (second) residual is forced above tol once stays in
    # the series and finishes at a later term; the other points do not see it
    family, u, cfg = FamilySpec(mu_strong(dom64), EIGHTHS), disc_indicator_field(dom64), \
        SolverConfig()
    ref = solve_family(family, [u] * 9, cfg)
    above, calls = family_module._above_tol, {}

    def once(point, cfg, residual):
        seen = calls.setdefault(point.index, [])
        seen.append(residual)
        return (point.index == 4 and len(seen) == forced + 1) or above(point, cfg,
                                                                       residual)

    monkeypatch.setattr(family_module, "_above_tol", once)
    sweep = solve_family(family, [u] * 9, cfg)
    assert len(calls[4]) == forced + 1 + 2   # the forced attempt, then one that passes
    late, early = sweep.entries[4].result.diagnostics, ref.entries[4].result.diagnostics
    assert late.iterations > early.iterations
    assert late.trace[:early.iterations] == early.trace
    assert late.neumann_residual <= cfg.tol
    assert late.interior_residual <= 1e-2
    for i, (got, want) in enumerate(zip(sweep.entries, ref.entries)):
        if i != 4:
            assert got.result.diagnostics == want.result.diagnostics, i
            assert same_bits(got.result.f.samples, want.result.f.samples), i
            assert same_bits(got.result.rhs_on_box[1], want.result.rhs_on_box[1]), i


def test_linear_sweep_with_data_wider_than_mu(dom64):
    # the series runs on the box of mu_0 and the datum, here the datum's
    small = DomainSpec(3.0, 64, Disc(0j, 0.5), 0.8)
    wide = DomainSpec(3.0, 64, Disc(0.3 + 0.2j, 1.8), 0.8)
    mu = BeltramiField.from_raw(rebase(gaussian_bump_field(small, 0.6), dom64))
    u_wide = rebase(smooth_random_field(wide, seed=11), dom64)
    grid = (0.25, 0.5, 0.75, 1.0)
    cfg = SolverConfig()
    sweep = solve_family(FamilySpec(mu, grid), [u_wide] * 4, cfg)
    om = omega_mask(dom64)
    for i, entry in enumerate(sweep.entries):
        direct = solve_dbar(mu.scaled(grid[i]), u_wide, cfg)
        gap = np.max(np.abs((entry.result.f - direct.f).samples[om]))
        assert gap <= 1e-10, (entry.b, gap)


@pytest.mark.parametrize("scales", [
    (1.0, 1.3) * 4 + (1.0,),
    tuple(1.0 + 0.08 * b for b in EIGHTHS),
], ids=["two-alternating", "nine-distinct"])
def test_linear_sweep_with_distinct_data_is_per_point_dbar(dom64, scales):
    # the series serves one datum; data that differ are solved point by point
    mu = mu_strong(dom64)
    u = disc_indicator_field(dom64)
    data = [u * s for s in scales]
    cfg = SolverConfig()
    sweep = solve_family(FamilySpec(mu, EIGHTHS), data, cfg)
    for i, entry in enumerate(sweep.entries):
        direct = solve_dbar(mu.scaled(EIGHTHS[i]), data[i], cfg)
        assert entry.result.diagnostics == direct.diagnostics
        assert same_bits(entry.result.f.samples, direct.f.samples)
        assert same_bits(entry.result.rhs.samples, direct.rhs.samples)


def test_linear_sweep_takes_equal_data_as_one_datum(dom64):
    # equal data in distinct objects run the series, as one shared object does
    family = FamilySpec(mu_strong(dom64), EIGHTHS)
    u = disc_indicator_field(dom64)
    copies = [ComplexField(dom64, u.samples.copy()) for _ in EIGHTHS]
    shared = solve_family(family, [u] * 9)
    for a, b in zip(shared.entries, solve_family(family, copies).entries):
        assert a.result.diagnostics == b.result.diagnostics
        assert same_bits(a.result.f.samples, b.result.f.samples)


def test_linear_sweep_no_convergence_only_where_terms_run_out(dom64):
    family = FamilySpec(mu_strong(dom64), (0.0, 0.001, 0.01, 0.5, 1.0))
    u = disc_indicator_field(dom64)
    full = solve_family(family, [u] * 5)
    capped = solve_family(family, [u] * 5, SolverConfig(max_iter=5))
    needs = [e.result.diagnostics.iterations for e in full.entries]
    assert min(needs) <= 5 < max(needs)
    for need, ref, entry in zip(needs, full.entries, capped.entries):
        if need <= 5:
            assert np.array_equal(entry.result.f.samples, ref.result.f.samples)
        else:
            assert entry.result is None
            assert "no convergence after 5 iterations" in entry.error


def test_family_entries_return_their_rhs(dom128):
    mu = mu_constant(dom128)
    u = disc_indicator_field(dom128)
    family = FamilySpec(mu, EIGHTHS)
    sweep = solve_family(family, [u] * 9)
    for i, entry in enumerate(sweep.entries):
        mu_b = family.realize(i)
        g = solve_immersion(mu_b).g.samples
        expected = (1.0 - np.abs(mu_b.extended.samples) ** 2) * np.conj(g) * u.samples
        assert np.max(np.abs(entry.result.rhs.samples - expected)) <= 1e-10
    # the per-parameter path returns the rhs its Neumann solve used
    table = FamilySpec(mu, (0.0, 1.0), law="table", table=(mu.scaled(0.5), mu))
    for i, entry in enumerate(solve_family(table, [u] * 2).entries):
        direct = solve_dbar(table.realize(i), u)
        assert same_bits(entry.result.rhs.samples, direct.rhs.samples)


# A result keeps its rhs on the support box of u only.  The disc indicator
# with a complex amplitude gives u's own zeros a sign, so the product
# (1 - |mu|^2) conj(g) u that the result once stored held -0 off that box.
AMPLITUDE = cmath.exp(2.1j)


def _plus_zero_off(samples: np.ndarray, box: tuple) -> bool:
    """Whether every sample off ``box`` is +0, sign bits clear."""
    off = np.ones(samples.shape, dtype=bool)
    off[box] = False
    return same_bits(samples[off], np.zeros(np.count_nonzero(off), dtype=complex))


def _frame_times_u(mu, u) -> np.ndarray:
    """(1 - |m|^2) conj(g) u on the whole grid, g from ``solve_immersion``."""
    g = solve_immersion(mu).g.samples
    return (1.0 - np.abs(mu.extended.samples) ** 2) * np.conj(g) * u.samples


def test_solve_dbar_keeps_its_rhs_on_the_support_box_of_u(dom128):
    mu = mu_strong(dom128)
    u = disc_indicator_field(dom128, AMPLITUDE)
    box = _support_box(u.samples)
    rhs = solve_dbar(mu, u).rhs.samples
    expected = _frame_times_u(mu, u)
    assert not _plus_zero_off(expected, box)   # the old rhs held -0 off the box
    assert _plus_zero_off(rhs, box)
    assert same_bits(rhs[box], expected[box])
    assert np.array_equal(rhs, expected)


def test_series_entries_keep_their_rhs_on_the_support_box_of_u(dom128):
    mu = mu_strong(dom128)
    u = disc_indicator_field(dom128, AMPLITUDE)
    box = _support_box(u.samples)
    for entry in solve_family(FamilySpec(mu, EIGHTHS), [u] * 9).entries:
        rhs = entry.result.rhs.samples
        assert _plus_zero_off(rhs, box), entry.b
        assert np.count_nonzero(rhs[box]) > 0, entry.b


def test_zero_datum_gives_zero_rhs_and_zero_f(dom64):
    # u = 0 has an empty support box
    mu = mu_strong(dom64)
    u = constant_field(dom64, 0.0)
    assert _support_box(u.samples) == (slice(0, 0), slice(0, 0))
    sweep = solve_family(FamilySpec(mu, (0.0, 0.5, 1.0)), [u] * 3)
    for result in (solve_dbar(mu, u), *(entry.result for entry in sweep.entries)):
        assert same_bits(result.rhs.samples, np.zeros_like(u.samples))
        assert np.all(result.f.samples == 0)


def test_constant_datum_keeps_the_whole_rhs(dom64):
    # a nonzero constant u has the whole grid as its box: the rhs is the
    # whole-grid product, signed zeros included (the sweep's entries are
    # pinned to their earlier bytes by the constant-u golden digests)
    mu = mu_strong(dom64)
    u = constant_field(dom64, 0.25 * AMPLITUDE)
    assert _support_box(u.samples) == _full_box(u.samples)
    assert same_bits(solve_dbar(mu, u).rhs.samples, _frame_times_u(mu, u))


def test_rhs_reads_are_equal_read_only_and_share_no_memory(dom64):
    mu = mu_strong(dom64)
    u = disc_indicator_field(dom64, AMPLITUDE)
    sweep = solve_family(FamilySpec(mu, (0.5, 1.0)), [u] * 2)
    for result in (solve_dbar(mu, u), *(entry.result for entry in sweep.entries)):
        first, second = result.rhs.samples, result.rhs.samples
        assert same_bits(first, second)
        assert not first.flags.writeable and not second.flags.writeable
        assert not np.shares_memory(first, second)
        assert not result.rhs_on_box[1].flags.writeable


def test_series_finish_allocates_its_two_outputs_and_half_a_field(dom256,
                                                                  monkeypatch):
    # mu_b, g_b, the frame, the residuals and P(psi_b) are formed in row
    # blocks or from box samples, so a finish allocates f, the rhs on the
    # support box of u and little else: 1.36 fields measured; 2.21 while it
    # formed the whole rhs, and 5.9 while it formed every term whole
    finish, peaks = family_module._finish_series_point, []

    def traced(*args):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        entry = finish(*args)
        if entry is not None:
            peaks.append((tracemalloc.get_traced_memory()[1] - start) / (16.0 * 256 ** 2))
        return entry

    monkeypatch.setattr(family_module, "_finish_series_point", traced)
    u = disc_indicator_field(dom256)
    tracemalloc.start()
    try:
        sweep = solve_family(FamilySpec(mu_constant(dom256), EIGHTHS), [u] * 9)
    finally:
        tracemalloc.stop()
    assert all(e.result is not None for e in sweep.entries)
    assert len(peaks) == 9 and max(peaks) <= 1.6, peaks


def test_regularity_add_allocates_under_half_a_field(dom256):
    # the difference on Omega and the extrapolation gap are taken in row
    # blocks; on the whole grid one add allocated 2.5 fields
    u = disc_indicator_field(dom256)
    sweep = solve_family(FamilySpec(mu_constant(dom256), EIGHTHS), [u] * 9)
    report = family_module._Regularity(EIGHTHS)
    for i, entry in enumerate(sweep.entries):
        peak, _, _ = traced_fields(lambda: report.add(i, entry), 256)
        assert peak < 0.5, (i, peak)
    assert report.summary() == (sweep.adjacent_differences, sweep.lipschitz_constant,
                                sweep.extrapolation_errors)
    assert len(sweep.extrapolation_errors) == 6


def test_regularity_values_are_the_whole_field_sups_on_omega(dom64):
    # the report keeps only Omega's bounding box of each solution; its values
    # are bitwise the sups over omega_mask of the whole fields' expressions.
    # On this sweep the whole-grid gaps peak in the cutoff collar, 5-8 times
    # above those on Omega.
    u = disc_indicator_field(dom64)
    sweep = solve_family(FamilySpec(mu_constant(dom64), EIGHTHS), [u] * 9)
    f = [entry.result.f.samples for entry in sweep.entries]
    om = omega_mask(dom64)
    assert [d for _, _, d, _ in sweep.adjacent_differences] == [
        float(np.max(np.abs(f[i] - f[i - 1])[om])) for i in range(1, 9)]
    gaps = [np.abs(f[i] - (f[i - 3] - 3.0 * f[i - 2] + 3.0 * f[i - 1]))
            for i in range(3, 9)]
    assert sweep.extrapolation_errors == tuple(
        (b, float(np.max(gap[om]))) for b, gap in zip(EIGHTHS[3:], gaps))
    assert all(np.max(gap) > 4 * np.max(gap[om]) for gap in gaps)


_DOM32 = disc_domain(32)
_MU32 = mu_bump(_DOM32, 0.5)
_U32 = disc_indicator_field(_DOM32)
_FULL32 = []


@settings(max_examples=40, deadline=None, database=None)
@given(st.lists(st.sampled_from(range(9)), min_size=2, max_size=9, unique=True))
def test_linear_sweep_entries_independent_of_grid(indices):
    if not _FULL32:
        _FULL32.extend(solve_family(FamilySpec(_MU32, EIGHTHS), [_U32] * 9).entries)
    grid = tuple(EIGHTHS[i] for i in indices)
    sweep = solve_family(FamilySpec(_MU32, grid), [_U32] * len(grid))
    for i, entry in zip(indices, sweep.entries):
        assert entry.b == _FULL32[i].b
        assert same_bits(entry.result.f.samples, _FULL32[i].result.f.samples)


# ---------------------------------------------------------------------------
# gain-of-derivative diagnostics
# ---------------------------------------------------------------------------

def test_gain_report_zero_datum(dom64):
    mu = BeltramiField.from_raw(constant_field(dom64, 0.0))
    u = constant_field(dom64, 0.0)
    res = solve_dbar(mu, u)
    report = gain_of_derivative_report(u, res.f, alpha=0.5)
    assert report.seminorm_u == 0.0
    assert report.seminorm_dz_f == 0.0
    assert report.seminorm_dbar_f == 0.0
    assert report.ratio_dz == 0.0


def test_gain_report_smooth_bump_refinement_stable():
    mu_by_n = {}
    reports = {}
    for n in (256, 512):
        dom = disc_domain(n)
        mu_by_n[n] = BeltramiField.from_raw(constant_field(dom, 0.0))
        u = gaussian_bump_field(dom, 1.0, width=0.4)
        f = solve_dbar(mu_by_n[n], u).f
        reports[n] = gain_of_derivative_report(u, f, alpha=0.5)
    for n in (256, 512):
        r = reports[n]
        assert 0 < r.seminorm_u < math.inf
        assert 0 < r.ratio_dz < math.inf
        assert 0 < r.ratio_dbar < math.inf
    for attr in ("seminorm_u", "seminorm_dz_f", "seminorm_dbar_f",
                 "ratio_dz", "ratio_dbar"):
        lo, hi = getattr(reports[256], attr), getattr(reports[512], attr)
        assert max(lo, hi) / min(lo, hi) <= 1.5, attr


def test_gain_report_flat_datum_has_finite_gradient_seminorm(dom256):
    # the tapered indicator is constant on the interior, so its seminorm is 0
    # there, while the solution's gradient still has a finite seminorm
    mu = BeltramiField.from_raw(constant_field(dom256, 0.0))
    u = disc_indicator_field(dom256)
    f = solve_dbar(mu, u).f
    report = gain_of_derivative_report(u, f, alpha=0.5)
    assert report.seminorm_u == 0.0
    assert math.isfinite(report.seminorm_dz_f)
    assert math.isfinite(report.seminorm_dbar_f)
    assert math.isinf(report.ratio_dz)


def test_gain_report_validation(dom64):
    u = constant_field(dom64, 0.0)
    with pytest.raises(ValidationError):
        gain_of_derivative_report(u, u, alpha=1.5)


def test_solve_dbar_form_accepts_either_frame(dom128):
    # a (0,1) datum in background coordinates: A = conj(mu) g_bar-free form
    mu = mu_constant(dom128)
    from beltrami import solve_dbar_form, solve_immersion
    imm = solve_immersion(mu)
    u = disc_indicator_field(dom128)
    moving = OneFormField("moving", constant_field(dom128, 0.0), u, mu=mu)
    background = convert_to_background(moving, mu, imm.g)

    from_moving = solve_dbar_form(mu, moving)
    from_background = solve_dbar_form(mu, background)
    direct = solve_dbar(mu, u)
    assert np.array_equal(from_moving.f.samples, direct.f.samples)
    gap = np.max(np.abs(from_background.f.samples - direct.f.samples))
    assert gap <= 1e-10 * max(np.max(np.abs(direct.f.samples)), 1.0)


def test_solve_dbar_form_solves_the_immersion_once(dom64, monkeypatch):
    # the form's frame conversion and the solve share one immersion, and
    # the result is bitwise solve_dbar on the converted moving datum
    from beltrami import solve_dbar_form
    mu = mu_constant(dom64)
    g = solve_immersion(mu).g
    moving = OneFormField("moving", constant_field(dom64, 0.0),
                          disc_indicator_field(dom64), mu=mu)
    background = convert_to_background(moving, mu, g)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_immersion(*args, **kwargs)

    monkeypatch.setattr(family_module, "solve_immersion", counted)
    result = solve_dbar_form(mu, background)
    assert len(calls) == 1
    monkeypatch.undo()
    u = convert_to_moving(background, mu, g).coeff_01
    assert same_bits(result.f.samples, solve_dbar(mu, u).f.samples)


def test_solve_dbar_form_peaks_as_solve_dbar_does():
    # the form's immersion (g and phi) goes before the d-bar solve, as in
    # solve_dbar; kept through it, it cost two more fields
    from beltrami import solve_dbar_form
    dom = disc_domain(128)
    mu = mu_constant(dom)
    u = disc_indicator_field(dom)
    moving = OneFormField("moving", constant_field(dom, 0.0), u, mu=mu)
    solve_dbar(mu, u)   # builds the domain's tables outside the traces
    direct, _, expected = traced_fields(lambda: solve_dbar(mu, u), 128)
    form, _, result = traced_fields(lambda: solve_dbar_form(mu, moving), 128)
    assert same_bits(result.f.samples, expected.f.samples)
    assert form <= direct + 0.25, (form, direct)


def test_solve_dbar_form_rejects_incompatible_datum(dom128):
    # a background form with a genuine (1,0) part is not d-bar data for mu
    mu = mu_constant(dom128)
    from beltrami import solve_dbar_form
    bad = OneFormField("background", disc_indicator_field(dom128),
                       disc_indicator_field(dom128))
    with pytest.raises(ValidationError):
        solve_dbar_form(mu, bad)


def test_solve_dbar_form_rejects_foreign_frame(dom128):
    mu = mu_constant(dom128)
    other = mu_constant(dom128, 0.2)
    from beltrami import solve_dbar_form
    form = OneFormField("moving", constant_field(dom128, 0.0),
                        disc_indicator_field(dom128), mu=other)
    with pytest.raises(ValidationError):
        solve_dbar_form(mu, form)
