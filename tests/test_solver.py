import math

import numpy as np
import pytest

from beltrami import (
    BeltramiField,
    ComplexField,
    ContractionTooLarge,
    DegenerateImmersion,
    Disc,
    DomainSpec,
    ImmersionResult,
    NoConvergence,
    Rect,
    SolverConfig,
    ValidationError,
    beltrami_residual,
    cauchy_transform,
    constant_field,
    disc_indicator_field,
    gaussian_bump_field,
    interior_mask,
    make_coordinate_field,
    neumann_solve,
    rebase,
    solve_dbar,
    solve_immersion,
    beurling_transform,
)

import beltrami.solver as solver_module
from beltrami.grid import _FourierApply, _support_box

from conftest import (
    corpus,
    disc_domain,
    mu_angular,
    mu_bump,
    mu_constant,
    mu_linear,
    mu_strong,
    same_bits,
    smooth_random_field,
)
from diagnostics import tapered_coordinate_conjugate


def test_solver_config_validation():
    with pytest.raises(ValidationError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValidationError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValidationError):
        SolverConfig(contraction_cap=1.0)
    with pytest.raises(ValidationError):
        SolverConfig(contraction_cap=0.0)


@pytest.mark.parametrize("max_iter", [2.5, 3.0, True, np.True_, "3"])
def test_solver_config_refuses_a_non_integer_max_iter(max_iter):
    # a float cap failed inside the loop, and True ran "True iterations"
    with pytest.raises(ValidationError, match="max_iter"):
        SolverConfig(max_iter=max_iter)
    assert SolverConfig(max_iter=np.int64(3)).max_iter == 3


@pytest.mark.parametrize("key, value", [
    ("tol", True), ("tol", np.True_), ("tol", "1e-10"), ("tol", None),
    ("tol", 1e-10 + 0j), ("tol", float("inf")), ("tol", float("nan")),
    ("contraction_cap", True), ("contraction_cap", np.True_),
    ("contraction_cap", "0.5"), ("contraction_cap", None),
    ("contraction_cap", 0.5 + 0j),
])
def test_solver_config_refuses_a_tol_or_cap_that_is_no_real_number(key, value):
    # True read as tol 1.0, inf stopped every loop at once, and a string
    # raised TypeError from the comparison
    with pytest.raises(ValidationError, match=key):
        SolverConfig(**{key: value})


def test_solver_config_takes_numpy_reals():
    cfg = SolverConfig(tol=np.float64(1e-9), contraction_cap=np.float32(0.5))
    assert cfg.tol == 1e-9 and cfg.contraction_cap == np.float32(0.5)


# ---------------------------------------------------------------------------
# Neumann iteration
# ---------------------------------------------------------------------------

def test_neumann_zero_mu_returns_rhs_in_one_iteration(dom64):
    mu = BeltramiField.from_raw(constant_field(dom64, 0.0))
    rhs = constant_field(dom64, 0.7 - 0.2j)
    res = neumann_solve(mu, rhs)
    assert res.iterations == 1
    assert res.final_residual == 0.0
    assert np.array_equal(res.phi.samples, rhs.samples)


def test_neumann_const_mu_fixed_point_close_to_mu(dom512):
    # S of the tapered constant nearly vanishes inside the disc, so the fixed
    # point for rhs = mu stays close to mu there
    mu = mu_constant(dom512)
    res = neumann_solve(mu, mu.extended)
    gap = (res.phi - mu.extended).samples
    assert np.max(np.abs(gap[interior_mask(dom512)])) <= 1e-2


def test_neumann_geometric_decay_on_corpus(dom256):
    cfg = SolverConfig()
    for name, mu in corpus(dom256).items():
        res = neumann_solve(mu, mu.extended, cfg)
        trace = res.trace
        assert res.final_residual <= cfg.tol
        assert res.iterations <= cfg.max_iter
        ratios = [trace[i + 1] / trace[i]
                  for i in range(1, len(trace) - 1) if trace[i] > 0]
        assert all(r <= 0.9 for r in ratios), f"{name}: ratios {ratios}"
        # monotone after iteration 2
        assert all(trace[i + 1] <= trace[i] * (1 + 1e-9)
                   for i in range(1, len(trace) - 1)), name


def test_neumann_contraction_gate(dom128):
    mu = mu_constant(dom128)
    cfg = SolverConfig(contraction_cap=0.1)  # sup|mu_ext| = 0.3 trips the gate
    with pytest.raises(ContractionTooLarge) as info:
        neumann_solve(mu, mu.extended, cfg)
    assert info.value.estimate >= 0.1
    assert info.value.estimate == mu.sup_norm
    assert info.value.cap == 0.1


def _random_mu(domain, seed, sup):
    raw = smooth_random_field(domain, seed)
    return BeltramiField.from_raw(raw * (sup / np.max(np.abs(raw.samples))))


# the test corpus, strong and near-cap coefficients, the discontinuous
# angular coefficient c z/zbar and six seeded smooth coefficients
GATE_CASES = {
    **{name: (lambda dom, name=name: corpus(dom)[name])
       for name in ("constant", "linear-z", "bump")},
    "strong": mu_strong,
    "constant-0.85": lambda dom: mu_constant(dom, 0.85),
    "angular-0.3": lambda dom: mu_angular(dom, 0.3),
    "angular-0.6": lambda dom: mu_angular(dom, 0.6),
    **{f"random-{seed}": (lambda dom, seed=seed, sup=sup:
                          _random_mu(dom, seed, sup))
       for seed, sup in enumerate(np.linspace(0.3, 0.85, 6))},
}


@pytest.mark.parametrize("rhs_kind", ["mu", "disc-indicator"])
@pytest.mark.parametrize("case", list(GATE_CASES))
@pytest.mark.parametrize("resolution", [64, 128])
def test_gate_bounds_the_observed_rate(resolution, case, rhs_kind):
    # the observed tail rate (geometric-mean residual ratio over the second
    # half of the trace) never exceeds the gated quantity: a cap at that
    # rate refuses the coefficient
    dom = disc_domain(resolution)
    mu = GATE_CASES[case](dom)
    rhs = mu.extended if rhs_kind == "mu" else disc_indicator_field(dom)
    trace = neumann_solve(mu, rhs).trace
    half = len(trace) // 2
    assert len(trace) - half >= 3
    rate = (trace[-1] / trace[half]) ** (1.0 / (len(trace) - 1 - half))
    with pytest.raises(ContractionTooLarge) as info:
        neumann_solve(mu, rhs, SolverConfig(contraction_cap=rate))
    assert info.value.estimate == mu.sup_norm


def test_angular_coefficient_solves(dom128):
    # 0.3 z/zbar: |mu| = 0.3 everywhere, but its power-iteration estimate
    # exceeds 1, so an estimate gate would refuse it
    mu = mu_angular(dom128, 0.3)
    res = solve_immersion(mu)
    assert res.final_residual <= SolverConfig().tol
    assert res.iterations <= 30


def test_constant_at_the_cap_is_refused(dom128):
    mu = mu_constant(dom128, 0.9)
    with pytest.raises(ContractionTooLarge) as info:
        neumann_solve(mu, mu.extended)
    assert info.value.estimate == 0.9


def test_neumann_no_convergence_carries_state(dom128):
    mu = mu_constant(dom128)
    cfg = SolverConfig(tol=1e-30, max_iter=3)
    with pytest.raises(NoConvergence) as info:
        neumann_solve(mu, mu.extended, cfg)
    exc = info.value
    assert exc.iterations == 3
    assert len(exc.trace) == 3
    assert exc.final_residual > 1e-30
    assert exc.phi.shape == (128, 128)


def test_solves_stop_at_the_first_non_finite_residual(dom64):
    # a datum that overflows the FFTs gives NaN iterates: the loop stops at
    # once instead of iterating on NaN until max_iter
    mu = mu_constant(dom64)
    huge = gaussian_bump_field(dom64, 1e308)
    with np.errstate(all="ignore"):
        with pytest.raises(NoConvergence) as info:
            neumann_solve(mu, huge)
        assert info.value.iterations == 1
        assert math.isnan(info.value.final_residual)
        assert "residual nan is not finite at iteration 1" in str(info.value)
        with pytest.raises(NoConvergence) as info:
            solve_dbar(mu, huge)
        assert info.value.iterations == 1


def test_a_spectrum_holding_nan_is_not_resolved_at_half(dom64):
    # the warm-start gate read a NaN amplitude as small and built the N/2
    # problem of an rhs that overflowed the FFTs
    apply = _FourierApply.beurling(dom64, (slice(0, 64), slice(0, 64)))
    x = np.zeros((64, 64), dtype=np.complex128)
    x[5, 7] = np.nan
    with np.errstate(all="ignore"):
        apply.forward(x)
    assert not apply.resolved_at_half(1e-10)
    apply.forward(np.zeros((64, 64), dtype=np.complex128))
    assert apply.resolved_at_half(1e-10)


def _allocating_neumann(mu, rhs, cfg):
    """The Neumann loop as fresh-array arithmetic on the whole grid."""
    m, r = mu.extended.samples, rhs.samples
    phi, trace = r, []
    while True:
        nxt = r + m * beurling_transform(ComplexField(rhs.domain, phi)).samples
        trace.append(float(np.max(np.abs(nxt - phi))))
        if trace[-1] <= cfg.tol:
            return phi, tuple(trace)
        phi = nxt


def _assert_matches_the_allocating_loop(mu, rhs, cfg=SolverConfig()):
    """neumann_solve gives the allocating loop's trace and, bit for bit, its
    iterate on the support box of mu_ext and rhs.  Off the box mu_ext
    vanishes and phi is rhs itself, bit for bit; the allocating loop holds
    rhs + 0 * S(phi) there, the same value with the sign of zero that
    rounding gives."""
    res = neumann_solve(mu, rhs, cfg)
    phi, trace = _allocating_neumann(mu, rhs, cfg)
    assert res.trace == trace
    box = _support_box(mu.extended.samples, rhs.samples)
    assert same_bits(res.phi.samples[box], phi[box])
    off = np.ones(phi.shape, dtype=bool)
    off[box] = False
    assert same_bits(res.phi.samples[off], rhs.samples[off])
    assert np.array_equal(res.phi.samples, phi)
    return res, box


def test_neumann_loop_matches_the_allocating_reference_bitwise(dom128):
    # the buffered loop computes the same iterates as fresh-array arithmetic
    _assert_matches_the_allocating_loop(mu_bump(dom128, 0.5),
                                        smooth_random_field(dom128, seed=5))


def test_neumann_loop_matches_the_allocating_reference_on_a_wider_rhs(dom128):
    # rhs tapered to a larger disc: the box is rhs's, wider than mu_ext's
    wide = DomainSpec(3.0, 128, Disc(0j, 1.8), 0.8)
    rhs = rebase(smooth_random_field(wide, seed=6), dom128)
    mu = mu_bump(dom128, 0.5)
    _, box = _assert_matches_the_allocating_loop(mu, rhs)
    assert _support_box(mu.extended.samples) != box
    assert box == _support_box(rhs.samples)


def test_neumann_full_support_rhs_runs_on_the_whole_grid(dom64):
    # a constant rhs is nonzero everywhere, so every sample is the reference's
    mu, rhs = mu_bump(dom64, 0.5), constant_field(dom64, 0.2 - 0.1j)
    res, box = _assert_matches_the_allocating_loop(mu, rhs)
    assert box == (slice(0, 64), slice(0, 64))
    phi, _ = _allocating_neumann(mu, rhs, SolverConfig())
    assert same_bits(res.phi.samples, phi)


def test_neumann_zero_data_has_an_empty_box(dom64):
    zero = constant_field(dom64, 0.0)
    mu = BeltramiField.from_raw(zero)
    assert _support_box(mu.extended.samples, zero.samples) == (slice(0, 0),
                                                               slice(0, 0))
    res = neumann_solve(mu, zero)
    assert (res.iterations, res.final_residual, res.trace) == (1, 0.0, (0.0,))
    assert same_bits(res.phi.samples, zero.samples)


def test_neumann_off_centre_rect(dom64):
    dom = DomainSpec(3.0, 64, Rect(-0.4, 0.3, 1.2, 1.1), 0.5)
    mu = BeltramiField.from_raw(gaussian_bump_field(dom, 0.4 + 0.2j, width=0.6,
                                                     center=0.4 + 0.7j))
    rhs = smooth_random_field(dom, seed=7)
    _, (rows, cols) = _assert_matches_the_allocating_loop(mu, rhs)
    # the box follows Omega off the centre of the square
    assert rows.start > 64 - rows.stop and cols.start != 64 - cols.stop


@pytest.mark.parametrize("kind", ["constant", "linear-z", "bump"])
def test_immersion_g_is_one_plus_the_beurling_transform_of_phi(dom128, kind):
    # g comes from the last apply of the iteration, finished off the box
    res = solve_immersion(corpus(dom128)[kind])
    assert same_bits(res.g.samples, (beurling_transform(res.phi) + 1.0).samples)


def test_neumann_domain_mismatch(dom64, dom128):
    mu = mu_constant(dom64)
    with pytest.raises(ValidationError):
        neumann_solve(mu, constant_field(dom128, 0.0))


# ---------------------------------------------------------------------------
# immersions
# ---------------------------------------------------------------------------

def test_immersion_mu_zero_is_identity(dom64):
    mu = BeltramiField.from_raw(constant_field(dom64, 0.0))
    res = solve_immersion(mu)
    z = make_coordinate_field(dom64)
    assert np.array_equal(res.h.samples, z.samples)
    assert np.all(res.g.samples == 1.0)
    assert np.all(res.phi.samples == 0.0)
    assert res.iterations == 1


def test_immersion_affine_oracle(dom256):
    # mu = const c solves exactly as z + c*zbar: f_zbar = c = c f_z
    mu = mu_constant(dom256)
    res = solve_immersion(mu)
    z = make_coordinate_field(dom256)
    exact = z + 0.3 * z.conj()
    inner = interior_mask(dom256)
    assert np.max(np.abs((res.h - exact).samples[inner])) <= 1e-2
    assert np.max(np.abs((res.g - 1.0).samples[inner])) <= 1e-2


def test_immersion_linear_mu_residual(dom512):
    mu = mu_linear(dom512)
    res = solve_immersion(mu)
    assert beltrami_residual(res.h, mu) <= 1e-3


def test_immersion_stability_min_g(dom256):
    for name, mu in corpus(dom256).items():
        res = solve_immersion(mu)
        om_min = np.min(np.abs(res.g.samples[interior_mask(dom256)]))
        assert om_min >= 0.5, f"{name}: min |g| = {om_min}"


def test_immersion_builds_h_on_first_use(dom64):
    # a d-bar solve reads only g and phi, so h = z + P(phi) waits for a reader
    res = solve_immersion(mu_bump(dom64))
    assert "h" not in vars(res)
    h = res.h
    assert res.h is h
    z = make_coordinate_field(dom64)
    assert same_bits(h.samples, (z + cauchy_transform(res.phi)).samples)


def test_degenerate_immersion_guard(dom64):
    zero = constant_field(dom64, 0.0)
    with pytest.raises(DegenerateImmersion):
        ImmersionResult(g=zero, phi=zero, iterations=1, final_residual=0.0)


# ---------------------------------------------------------------------------
# residual oracle
# ---------------------------------------------------------------------------

def test_residual_identity_field(dom128):
    mu = BeltramiField.from_raw(constant_field(dom128, 0.0))
    z = make_coordinate_field(dom128)
    assert beltrami_residual(z, mu) <= 1e-12


def test_residual_tapered_zbar_nonhomogeneous(dom256):
    # h = tapered zbar solves f_zbar = 1 with mu = 0
    mu = BeltramiField.from_raw(constant_field(dom256, 0.0))
    w = tapered_coordinate_conjugate(dom256)
    one = constant_field(dom256, 1.0)
    assert beltrami_residual(w, mu, one) <= 1e-6


def test_residual_exact_affine_solution(dom256):
    mu = mu_constant(dom256)
    z = make_coordinate_field(dom256)
    h = z + 0.3 * tapered_coordinate_conjugate(dom256)
    assert beltrami_residual(h, mu) <= 1e-6


def test_residual_domain_checks(dom64, dom128):
    mu = mu_constant(dom64)
    with pytest.raises(ValidationError):
        beltrami_residual(make_coordinate_field(dom128), mu)
    with pytest.raises(ValidationError):
        beltrami_residual(make_coordinate_field(dom64), mu,
                          constant_field(dom128, 0.0))


# ---------------------------------------------------------------------------
# analytic dependence surrogate
# ---------------------------------------------------------------------------

def test_scaling_family_extrapolation_order(dom256):
    # phi(t) for mu_t = t*mu0 is a power series in t; the quadratic
    # extrapolation gap must shrink ~8x when the step halves
    mu0 = mu_constant(dom256)
    cfg = SolverConfig(tol=1e-12)

    def phi_at(t: float) -> np.ndarray:
        mu = mu0.scaled(t)
        return neumann_solve(mu, mu.extended, cfg).phi.samples

    t0, d = 0.5, 0.1
    cache = {t: phi_at(t) for t in
             (t0 - d, t0 - d / 2, t0, t0 + d / 2, t0 + d, t0 + 2 * d)}

    def gap(step: float) -> float:
        pred = (cache[t0 - step] - 3 * cache[t0] + 3 * cache[t0 + step])
        return float(np.max(np.abs(cache[t0 + 2 * step] - pred)))

    e_full, e_half = gap(d), gap(d / 2)
    assert e_half > 0
    assert e_full / e_half >= 6.0


# ---------------------------------------------------------------------------
# warm start from the N/2 grid
# ---------------------------------------------------------------------------

def _cold(monkeypatch):
    """Force the cold loop: the warm-start helper declines every solve."""
    monkeypatch.setattr(solver_module, "_warm_start", lambda *args: False)


def _count_loops(monkeypatch) -> list:
    """Record the grid size of every run of the fixed-point loop, read from
    its apply: the loop itself holds box arrays only."""
    sizes, loop = [], solver_module._iterate

    def counted(m, r, phi, beurling, cfg):
        sizes.append(beurling.out.shape[0])
        return loop(m, r, phi, beurling, cfg)

    monkeypatch.setattr(solver_module, "_iterate", counted)
    return sizes


def _out_of_band(x: np.ndarray) -> float:
    """max |fft2(x)(k)| / N^2 over the modes with |k| >= N/4 on either axis."""
    n = x.shape[0]
    k = np.abs(np.fft.fftfreq(n, 1.0 / n))
    outside = (k[:, None] >= n // 4) | (k[None, :] >= n // 4)
    return float(np.max(np.abs(np.fft.fft2(x)[outside]))) / n**2


def _dbar_rhs_samples(mu, u):
    """(1 - |mu|^2) conj(g) u, the d-bar rhs that solve_dbar builds."""
    g = solve_immersion(mu).g.samples
    return (1.0 - np.abs(mu.extended.samples) ** 2) * np.conj(g) * u.samples


GATE_RHS = {
    # rhs kind -> gate verdict at N = 256, 512, 1024
    "shipped mu_ext": ((False, True, True),
                       lambda dom: mu_constant(dom).extended.samples),
    "shipped d-bar rhs": ((False, False, True),
                          lambda dom: _dbar_rhs_samples(mu_constant(dom),
                                                        disc_indicator_field(dom))),
    "0.3 z/zbar": ((False, False, False),
                   lambda dom: mu_angular(dom, 0.3).extended.samples),
}


@pytest.mark.parametrize("kind", list(GATE_RHS))
@pytest.mark.parametrize("position, resolution", enumerate([256, 512, 1024]))
def test_warm_start_gate_reads_the_out_of_band_modes(kind, position, resolution):
    # the gate reads the spectrum of the first apply: every mode outside the
    # N/2 band at most tol in amplitude |x^(k)| / N^2
    verdicts, make = GATE_RHS[kind]
    dom = disc_domain(resolution)
    x = make(dom)
    box = _support_box(x)
    apply = _FourierApply.beurling(dom, box)
    apply.forward(x[box])
    tol = SolverConfig().tol
    assert apply.resolved_at_half(tol) == (_out_of_band(x) <= tol)
    assert apply.resolved_at_half(tol) == verdicts[position]


def test_refused_solves_are_bitwise_the_cold_loop(dom256, monkeypatch):
    # refused on the rhs (mu_ext at N = 256), and on mu_ext with a resolved
    # rhs (a constant): one loop runs, and its bits are the cold loop's.  The
    # rhs test reads the first apply's forward transform, so a solve refused
    # there runs one forward per iteration, as the cold loop does; the mu_ext
    # test costs two more (mu_ext, then the rhs again)
    tol = SolverConfig().tol
    bump, constant = mu_bump(dom256, 0.5), constant_field(dom256, 0.2 - 0.1j)
    assert _out_of_band(constant.samples) <= tol < _out_of_band(bump.extended.samples)
    sizes = _count_loops(monkeypatch)
    forwards, forward = [], _FourierApply.forward

    def counted(apply, x):
        forwards.append(apply.out.shape[0])
        forward(apply, x)

    monkeypatch.setattr(_FourierApply, "forward", counted)
    for mu, rhs, extra in ((mu_constant(dom256), None, 0), (bump, constant, 2)):
        rhs = mu.extended if rhs is None else rhs
        warm = neumann_solve(mu, rhs)
        assert sizes == [256]
        assert forwards == [256] * (warm.iterations + extra)
        with monkeypatch.context() as cold:
            _cold(cold)
            ref = neumann_solve(mu, rhs)
        sizes.clear()
        forwards.clear()
        assert same_bits(warm.phi.samples, ref.phi.samples)
        assert warm.trace == ref.trace


def _warm_corpus(dom):
    # sup|mu_ext| from 0.25 to 0.8; each is resolved on the N/2 grid at 512
    return {"bump-0.25": mu_bump(dom, 0.25), "constant-0.3": mu_constant(dom),
            "linear-z": mu_linear(dom), "bump-0.45": mu_bump(dom, 0.45),
            "strong-0.8": mu_strong(dom)}


def test_warm_started_immersions_match_the_cold_solve(dom512, monkeypatch):
    # the fine loop's stop test is the cold loop's, so an accepted solve meets
    # the same tol; its field is within 2 tol / (1 - sup|mu_ext|) of the cold
    # one, the sum of their a-posteriori error bounds at the gated rate
    tol = SolverConfig().tol
    sizes = _count_loops(monkeypatch)
    for name, mu in _warm_corpus(dom512).items():
        warm = solve_immersion(mu)
        assert sizes == [256, 512], name
        with monkeypatch.context() as cold:
            _cold(cold)
            ref = solve_immersion(mu)
        sizes.clear()
        assert warm.final_residual <= tol, name
        assert warm.iterations <= ref.iterations, name
        assert len(warm.trace) == warm.iterations, name
        bound = 2 * tol / (1 - mu.sup_norm)
        for got, want in ((warm.phi, ref.phi), (warm.g, ref.g), (warm.h, ref.h)):
            assert np.max(np.abs((got - want).samples)) <= bound, name
        residual = beltrami_residual(warm.h, mu)
        assert residual <= 1e-3, name
        assert abs(residual - beltrami_residual(ref.h, mu)) <= 1e-9, name


def test_dbar_with_a_warm_started_immersion_matches_the_cold_solve(dom512,
                                                                  monkeypatch):
    # at N = 512 the immersion is warm-started and the d-bar chain, whose
    # disc-indicator rhs is not resolved on the N/2 grid, runs cold from it
    mu, u = mu_bump(dom512, 0.45), disc_indicator_field(dom512)
    sizes = _count_loops(monkeypatch)
    warm = solve_dbar(mu, u)
    assert sizes == [256, 512, 512]
    with monkeypatch.context() as cold:
        _cold(cold)
        ref = solve_dbar(mu, u)
    d, c = warm.diagnostics, ref.diagnostics
    assert d.neumann_residual <= SolverConfig().tol
    assert d.interior_residual <= 1e-2 and d.moving_frame_residual <= 1e-2
    assert abs(d.interior_residual - c.interior_residual) <= 1e-9
    assert np.max(np.abs((warm.f - ref.f).samples)) <= 2 * SolverConfig().tol / (
        1 - mu.sup_norm)


def test_warm_started_iterate_equals_the_rhs_off_the_box(dom512):
    mu = mu_bump(dom512, 0.45)
    res = neumann_solve(mu, mu.extended)
    assert res.iterations < 10
    box = _support_box(mu.extended.samples)
    off = np.ones(res.phi.samples.shape, dtype=bool)
    off[box] = False
    assert off.any()
    assert same_bits(res.phi.samples[off], mu.extended.samples[off])


def test_warm_started_solves_are_deterministic(dom512):
    mu = mu_linear(dom512)
    a, b = solve_immersion(mu), solve_immersion(mu)
    assert a.trace == b.trace
    for x, y in ((a.phi, b.phi), (a.g, b.g)):
        assert same_bits(x.samples, y.samples)


def _band_limited_problem(resolution):
    """mu_ext and rhs with Fourier modes |k| <= 2 only: resolved on every
    grid from N = 16 up, whatever N/2."""
    dom = DomainSpec(3.0, resolution, Disc(0j, 1.0), 0.8)
    z = make_coordinate_field(dom).samples
    wave = np.exp(1j * np.pi / 3.0 * (2 * z.real - z.imag))
    m = ComplexField(dom, 0.2 * wave + 0.1)
    mu = BeltramiField(m, m)
    return mu, ComplexField(dom, 0.5 * np.conj(wave) - 0.3j)


@pytest.mark.parametrize("resolution, warm", [(16, False), (20, False),
                                              (34, False), (64, True)])
def test_warm_start_needs_a_valid_half_resolution(resolution, warm, monkeypatch):
    # N/2 = 8 and 10 are below 16 and 17 is odd: the cold loop runs alone,
    # bit for bit; at N = 64 the same kind of problem is warm-started
    mu, rhs = _band_limited_problem(resolution)
    _FourierApply.beurling(mu.domain, (slice(0, 0),) * 2)   # dz_w, built by a forward
    sizes = _count_loops(monkeypatch)
    forwards, forward = [], _FourierApply.forward

    def counted(apply, x):
        forwards.append(apply.out.shape[0])
        forward(apply, x)

    monkeypatch.setattr(_FourierApply, "forward", counted)
    res = neumann_solve(mu, rhs)
    assert sizes == ([resolution // 2, resolution] if warm else [resolution])
    # the fine grid transforms the rhs, then mu_ext and the prolonged guess
    # when warm, then each iterate but the last; fft2(rhs) is formed again
    # only for a cold loop that needs it
    assert forwards.count(resolution) == res.iterations + (2 if warm else 0)
    with monkeypatch.context() as cold:
        _cold(cold)
        ref = neumann_solve(mu, rhs)
    assert res.final_residual <= SolverConfig().tol
    if not warm:
        assert same_bits(res.phi.samples, ref.phi.samples)
        assert res.trace == ref.trace


def test_warm_start_falls_back_when_the_coarse_solve_fails(dom512, monkeypatch):
    # a coarse solve that raises NoConvergence leaves the cold loop to run
    # from the rhs, bit for bit: for an immersion, and for a solve whose
    # rhs is not mu_ext, where the mu_ext test displaced fft2(rhs) first
    mu = mu_bump(dom512, 0.45)
    band_mu, band_rhs = _band_limited_problem(64)
    loop = solver_module._iterate
    for solve, fields in ((lambda: solve_immersion(mu), ("phi", "g")),
                          (lambda: neumann_solve(band_mu, band_rhs), ("phi",))):
        sizes = []

        def failing(m, r, phi, beurling, cfg):
            sizes.append(beurling.out.shape[0])
            if len(sizes) == 1:
                raise NoConvergence(phi, cfg.max_iter, 1.0, (1.0,))
            return loop(m, r, phi, beurling, cfg)

        with monkeypatch.context() as patch:
            patch.setattr(solver_module, "_iterate", failing)
            res = solve()
        assert sizes[0] * 2 == sizes[1]
        with monkeypatch.context() as cold:
            _cold(cold)
            ref = solve()
        assert res.trace == ref.trace
        for name in fields:
            assert same_bits(getattr(res, name).samples, getattr(ref, name).samples)
