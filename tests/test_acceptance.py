"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are fixed here and nowhere else.
"""

import json
import math

import numpy as np
from click.testing import CliRunner

from beltrami import (
    BeltramiField,
    ComplexField,
    FamilySpec,
    OneFormField,
    SolverConfig,
    beltrami_residual,
    beurling_transform,
    cauchy_transform,
    constant_field,
    convert_to_background,
    convert_to_moving,
    disc_indicator_field,
    exhaustion_solve,
    interior_mask,
    make_coordinate_field,
    neumann_solve,
    omega_mask,
    solve_dbar,
    solve_family,
    solve_immersion,
)
from beltrami.cli import main as cli_main

from conftest import corpus, disc_domain


def _report(criterion: int, detail: str):
    print(f"acceptance criterion {criterion}: PASS  [{detail}]")


def _sup_on(mask, samples) -> float:
    return float(np.max(np.abs(samples[mask])))


def test_criterion_1_affine_oracle():
    # mu = 0.3 tapered on the unit disc at N = 512: the homogeneous equation
    # f_zbar = mu f_z with f_z = 1 forces the exact solution z + 0.3 zbar
    dom = disc_domain(512)
    mu = BeltramiField.from_raw(constant_field(dom, 0.3))
    res = solve_immersion(mu)
    z = make_coordinate_field(dom)
    exact = z + 0.3 * z.conj()
    err = _sup_on(interior_mask(dom), (res.h - exact).samples)
    residual = beltrami_residual(res.h, mu)
    assert err <= 1e-2
    assert residual <= 1e-2
    _report(1, f"|h - (z + 0.3 zbar)| = {err:.3e}, residual = {residual:.3e}")


def test_criterion_2_dbar_identity_at_mu_zero():
    dom = disc_domain(512)
    mu = BeltramiField.from_raw(constant_field(dom, 0.0))
    u = disc_indicator_field(dom)
    res = solve_dbar(mu, u)
    zbar = make_coordinate_field(dom).conj()
    err = _sup_on(interior_mask(dom), (res.f - zbar).samples)
    assert err <= 5e-3

    # independent oracle: the free-space quadrature transform at N = 64
    # reproduces the classical zbar identity
    dom64 = disc_domain(64)
    u64 = disc_indicator_field(dom64)
    quad = cauchy_transform(u64, method="quadrature")
    zbar64 = make_coordinate_field(dom64).conj()
    oracle_err = _sup_on(interior_mask(dom64), (quad - zbar64).samples)
    assert oracle_err <= 1e-2
    _report(2, f"|f - zbar| = {err:.3e}, quadrature oracle = {oracle_err:.3e}")


def test_criterion_3_neumann_geometric_decay():
    dom = disc_domain(256)
    cfg = SolverConfig()
    worst_ratio = 0.0
    for name, mu in corpus(dom).items():
        res = neumann_solve(mu, mu.extended, cfg)
        assert res.final_residual <= 1e-10, name
        assert res.iterations <= 200, name
        trace = res.trace
        ratios = [trace[i + 1] / trace[i]
                  for i in range(1, len(trace) - 1) if trace[i] > 0]
        assert all(r <= 0.9 for r in ratios), f"{name}: {ratios}"
        worst_ratio = max(worst_ratio, max(ratios, default=0.0))
    _report(3, f"worst decay ratio = {worst_ratio:.3f} <= 0.9")


def test_criterion_4_frame_roundtrip():
    dom = disc_domain(64)
    rng = np.random.default_rng(2024)
    shape = (64, 64)
    worst_rt, worst_compat = 0.0, 0.0
    for _ in range(100):
        a = ComplexField(dom, rng.standard_normal(shape)
                         + 1j * rng.standard_normal(shape))
        b = ComplexField(dom, rng.standard_normal(shape)
                         + 1j * rng.standard_normal(shape))
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        raw *= 0.5 / np.max(np.abs(raw))
        mu = BeltramiField.from_raw(ComplexField(dom, raw))
        gs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        g = ComplexField(dom, 1.0 + 0.4 * gs / np.max(np.abs(gs)))

        form = OneFormField("background", a, b)
        back = convert_to_background(convert_to_moving(form, mu, g), mu, g)
        worst_rt = max(worst_rt,
                       np.max(np.abs((back.coeff_10 - a).samples)),
                       np.max(np.abs((back.coeff_01 - b).samples)))

        a_compat = ComplexField(dom, np.conj(mu.extended.samples) * b.samples)
        moving = convert_to_moving(OneFormField("background", a_compat, b), mu, g)
        worst_compat = max(worst_compat, np.max(np.abs(moving.coeff_10.samples)))
    assert worst_rt <= 1e-12
    assert worst_compat <= 1e-10
    _report(4, f"roundtrip = {worst_rt:.2e}, compatibility = {worst_compat:.2e}")


def test_criterion_5_residual_convergence_order():
    factors = {}
    for name in ("constant", "linear-z", "bump"):
        residuals = {}
        for n in (256, 512):
            dom = disc_domain(n)
            mu = corpus(dom)[name]
            u = disc_indicator_field(dom)
            residuals[n] = solve_dbar(mu, u).diagnostics.interior_residual
        assert residuals[512] <= 1e-2, f"{name}: residual {residuals[512]:.3e}"
        factor = residuals[256] / residuals[512]
        assert factor >= 2.0, f"{name}: refinement factor {factor:.2f}"
        factors[name] = factor
    detail = ", ".join(f"{k}: {v:.0f}x" for k, v in factors.items())
    _report(5, f"refinement factors {detail}")


def test_criterion_6_family_regularity_surrogate():
    dom = disc_domain(256)
    mu0 = BeltramiField.from_raw(constant_field(dom, 0.3))
    grid = tuple(np.linspace(0.0, 1.0, 9))
    u = disc_indicator_field(dom)
    sweep = solve_family(FamilySpec(mu0, grid), [u] * 9)
    assert all(e.result is not None for e in sweep.entries)

    # single Lipschitz constant covers every adjacent pair
    c_fit = sweep.lipschitz_constant
    assert c_fit is not None and np.isfinite(c_fit)
    for b_lo, b_hi, diff, _ in sweep.adjacent_differences:
        assert diff <= c_fit * (b_hi - b_lo) * (1 + 1e-12)

    # analytic-dependence surrogate: the quadratic-extrapolation gap shrinks
    # by >= 6x when the parameter step halves (both scales on the same grid)
    f = {e.b: e.result.f.samples for e in sweep.entries}

    def gap(t, d):
        pred = f[t - d] - 3 * f[t] + 3 * f[t + d]
        return float(np.max(np.abs(f[t + 2 * d] - pred)))

    e_full = gap(0.5, 0.25)
    e_half = gap(0.5, 0.125)
    assert e_half > 0
    ratio = e_full / e_half
    assert ratio >= 6.0
    _report(6, f"C = {c_fit:.3f}, extrapolation ratio = {ratio:.2f}")


def test_criterion_7_exhaustion_consistency():
    dom = disc_domain(256)
    mu = BeltramiField.from_raw(constant_field(dom, 0.0))
    u = disc_indicator_field(dom, radius=0.25, width=0.5)  # support in r <= 0.5
    cfg = SolverConfig()
    f, trace = exhaustion_solve(mu, u, [1.0, 1.5, 2.0], taylor_degree=8, cfg=cfg)
    direct = cauchy_transform(u)
    disc1 = np.abs(make_coordinate_field(dom).samples) <= 1.0
    err = float(np.max(np.abs(f.samples[disc1] - direct.samples[disc1])))
    assert err <= 5e-3
    for step in trace.steps:
        assert step.budget == cfg.tol * 6.0 / (math.pi ** 2 * step.step ** 2)
        assert step.approx_error <= step.budget
    assert sum(step.budget for step in trace.steps) <= cfg.tol
    _report(7, f"|exhaustion - direct| = {err:.2e}, "
               f"worst step error = {max(s.approx_error for s in trace.steps):.2e}")


def test_criterion_8_method_cross_check():
    dom = disc_domain(64)
    om = omega_mask(dom)
    worst = 0.0
    for name, mu in corpus(dom).items():
        phi = mu.extended
        dp = _sup_on(om, (cauchy_transform(phi, "spectral")
                          - cauchy_transform(phi, "quadrature")).samples)
        ds = _sup_on(om, (beurling_transform(phi, "spectral")
                          - beurling_transform(phi, "quadrature")).samples)
        assert dp <= 1e-2, f"{name}: Cauchy difference {dp:.3e}"
        assert ds <= 1e-2, f"{name}: Beurling difference {ds:.3e}"
        worst = max(worst, dp, ds)
    _report(8, f"worst cross-method difference = {worst:.3e}")


def test_criterion_9_determinism(tmp_path):
    base_domain = {
        "half_width": 3.0, "resolution": 256,
        "omega": {"shape": "disc", "center": [0.0, 0.0], "radius": 1.0},
        "margin": 0.8,
    }
    small_domain = dict(base_domain, resolution=128)
    configs = {
        "solve-beltrami": {
            "schema_version": 1, "domain": base_domain,
            "mu": {"kind": "constant", "value": [0.3, 0.0]},
        },
        "solve-dbar": {
            "schema_version": 1, "domain": base_domain,
            "mu": {"kind": "constant", "value": [0.3, 0.0]},
            "u": {"kind": "disc-indicator"},
        },
        "sweep-family": {
            "schema_version": 1, "domain": small_domain,
            "mu": {"kind": "constant", "value": [0.3, 0.0]},
            "u": {"kind": "disc-indicator"},
            "family": {"law": "linear", "grid": [0.0, 0.25, 0.5, 0.75, 1.0]},
        },
        "exhaust": {
            "schema_version": 1, "domain": small_domain,
            "mu": {"kind": "constant", "value": [0.0, 0.0]},
            "u": {"kind": "disc-indicator", "radius": 0.25, "width": 0.5},
            "exhaustion": {"radii": [1.0, 1.5, 2.0], "taylor_degree": 8},
        },
        "oracle-compare": {
            "schema_version": 1, "domain": dict(base_domain, resolution=64),
            "u": {"kind": "gaussian-bump", "amplitude": [0.3, 0.0],
                  "width": 0.566},
        },
    }
    runner = CliRunner()
    checked = 0
    for command, cfg in configs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        trees = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}-{tag}"
            result = runner.invoke(cli_main, [command, "--config", str(cfg_path),
                                              "--out", str(out)])
            assert result.exit_code == 0, f"{command}: {result.output}"
            trees.append({p.name: p.read_bytes()
                          for p in sorted(out.iterdir()) if p.is_file()})
        assert trees[0] == trees[1], f"{command}: outputs differ between runs"
        checked += len(trees[0])
    _report(9, f"{len(configs)} commands, {checked} files bitwise identical")
