"""Batch CLI: config parsing, solver dispatch, verification, and exports.

Subcommands: solve-beltrami, solve-dbar, sweep-family, exhaust, verify,
oracle-compare.  Every run writes into an output directory: a copy of the
config, fields in the binary format, reports as JSON/CSV, and PGM heatmaps.
Outputs are bitwise deterministic for a fixed config (fixed seeds, fixed
iteration order, no timestamps).

Exit codes: 0 success, 1 validation error, 2 solver/verification error,
3 I/O error.  Error detail goes to stderr as single-line JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .errors import (
    BeltramiError,
    ContractionTooLarge,
    DegenerateFrame,
    DegenerateImmersion,
    FieldFormatError,
    NoConvergence,
    RungeApproximationFailure,
    ValidationError,
)
from .exhaustion import exhaustion_solve
from .family import FamilySpec, dbar_rhs, solve_dbar, solve_family
from .fieldgen import builtin_field
from .grid import (
    BeltramiField,
    ComplexField,
    Disc,
    DomainSpec,
    Rect,
    omega_mask,
)
from .io import (
    read_field,
    write_exhaustion_trace_csv,
    write_family_report_csv,
    write_field,
    write_pgm_heatmaps,
    write_residual_trace_csv,
)
from .solver import SolverConfig, beltrami_residual, solve_immersion
from .transforms import beurling_transform, cauchy_transform, estimate_contraction

CONFIG_SCHEMA_VERSION = 1

_SOLVER_ERRORS = (ContractionTooLarge, NoConvergence, DegenerateImmersion,
                  DegenerateFrame, RungeApproximationFailure)


class VerificationMismatch(BeltramiError):
    pass


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    version = cfg.get("schema_version")
    if version != CONFIG_SCHEMA_VERSION:
        raise ValidationError(
            f"config schema_version must be {CONFIG_SCHEMA_VERSION}, got {version!r}"
        )
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ValidationError(f"config is missing required key {key!r}")
    return cfg[key]


def _domain_from_config(cfg: dict) -> DomainSpec:
    spec = _require(cfg, "domain")
    omega_spec = _require(spec, "omega")
    shape = omega_spec.get("shape")
    if shape == "disc":
        center = omega_spec.get("center", [0.0, 0.0])
        omega = Disc(complex(center[0], center[1]), float(_require(omega_spec, "radius")))
    elif shape == "rect":
        corners = _require(omega_spec, "corners")
        if len(corners) != 4:
            raise ValidationError("rect omega needs corners [x0, y0, x1, y1]")
        omega = Rect(*map(float, corners))
    else:
        raise ValidationError(f"unknown omega shape {shape!r}")
    return DomainSpec(
        half_width=float(_require(spec, "half_width")),
        resolution=int(_require(spec, "resolution")),
        omega=omega,
        margin=float(_require(spec, "margin")),
    )


def _solver_from_config(cfg: dict) -> SolverConfig:
    spec = cfg.get("solver", {})
    return SolverConfig(
        tol=float(spec.get("tol", 1e-10)),
        max_iter=int(spec.get("max_iter", 200)),
        contraction_cap=float(spec.get("contraction_cap", 0.9)),
        contraction_iterations=int(spec.get("contraction_iterations", 8)),
    )


def _mu_from_config(cfg: dict, domain: DomainSpec) -> BeltramiField:
    return BeltramiField.from_raw(builtin_field(_require(cfg, "mu"), domain))


def _family_from_config(cfg: dict, domain: DomainSpec,
                        mu: BeltramiField) -> FamilySpec:
    spec = _require(cfg, "family")
    if not isinstance(spec, dict):
        raise ValidationError("config key 'family' must be a JSON object")
    grid = _require(spec, "grid")
    if not (isinstance(grid, list) and all(
            isinstance(b, (int, float)) and not isinstance(b, bool) for b in grid)):
        raise ValidationError(f"family grid must be a list of numbers, got {grid!r}")
    law = spec.get("law", "linear")
    table = None
    if law == "table":
        specs = _require(spec, "mu_table")
        if not isinstance(specs, list):
            raise ValidationError(
                f"family mu_table must be a list of field specs, got {specs!r}")
        table = tuple(BeltramiField.from_raw(builtin_field(s, domain))
                      for s in specs)
    return FamilySpec(mu, tuple(grid), law=law, table=table)


def _write_report(out: Path, report: dict) -> None:
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _prepare_out(out, config_path) -> Path:
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_bytes(Path(config_path).read_bytes())
    return out


# ---------------------------------------------------------------------------
# command bodies
# ---------------------------------------------------------------------------

def _cmd_solve_beltrami(config_path, out, threads, method):
    cfg = _load_config(config_path)
    domain = _domain_from_config(cfg)
    solver_cfg = _solver_from_config(cfg)
    mu = _mu_from_config(cfg, domain)
    out = _prepare_out(out, config_path)

    result = solve_immersion(mu, solver_cfg, method=method)
    residual = beltrami_residual(result.h, mu)
    write_field(out / "mu_raw.field", mu.raw)
    write_field(out / "h.field", result.h)
    write_field(out / "g.field", result.g)
    write_field(out / "phi.field", result.phi)
    write_residual_trace_csv(out / "residual_trace.csv", result.trace)
    write_pgm_heatmaps(out, "h", result.h)
    _write_report(out, {
        "command": "solve-beltrami",
        "method": method,
        "iterations": result.iterations,
        "neumann_residual": result.final_residual,
        "interior_residual": residual,
        "contraction_estimate": estimate_contraction(
            mu, solver_cfg.contraction_iterations, method=method),
        "fields": ["mu_raw.field", "h.field", "g.field", "phi.field"],
    })


def _cmd_solve_dbar(config_path, out, threads, method):
    cfg = _load_config(config_path)
    domain = _domain_from_config(cfg)
    solver_cfg = _solver_from_config(cfg)
    mu = _mu_from_config(cfg, domain)
    u = builtin_field(_require(cfg, "u"), domain)
    out = _prepare_out(out, config_path)

    result = solve_dbar(mu, u, solver_cfg, method=method)
    write_field(out / "mu_raw.field", mu.raw)
    write_field(out / "u.field", u)
    write_field(out / "rhs.field", result.rhs)
    write_field(out / "f.field", result.f)
    write_residual_trace_csv(out / "residual_trace.csv", result.diagnostics.trace)
    write_pgm_heatmaps(out, "f", result.f)
    _write_report(out, {
        "command": "solve-dbar",
        "method": method,
        "iterations": result.diagnostics.iterations,
        "neumann_residual": result.diagnostics.neumann_residual,
        "interior_residual": result.diagnostics.interior_residual,
        "moving_frame_residual": result.diagnostics.moving_frame_residual,
        "fields": ["mu_raw.field", "u.field", "rhs.field", "f.field"],
    })


def _cmd_sweep_family(config_path, out, threads, method):
    cfg = _load_config(config_path)
    domain = _domain_from_config(cfg)
    solver_cfg = _solver_from_config(cfg)
    mu = _mu_from_config(cfg, domain)
    u = builtin_field(_require(cfg, "u"), domain)
    family = _family_from_config(cfg, domain, mu)
    out = _prepare_out(out, config_path)

    grid = family.parameter_grid
    sweep = solve_family(family, [u] * len(grid), solver_cfg,
                         method=method, threads=threads)
    write_field(out / "mu_raw.field", mu.raw)
    write_field(out / "u.field", u)
    entries_report = []
    for idx, entry in enumerate(sweep.entries):
        record = {"b": entry.b}
        if entry.result is None:
            record["error"] = entry.error
        else:
            write_field(out / f"f_{idx:03d}.field", entry.result.f)
            write_field(out / f"rhs_{idx:03d}.field", entry.result.rhs)
            record["iterations"] = entry.result.diagnostics.iterations
            record["interior_residual"] = entry.result.diagnostics.interior_residual
        entries_report.append(record)
    write_family_report_csv(out / "family_report.csv", sweep)
    _write_report(out, {
        "command": "sweep-family",
        "method": method,
        "law": family.law,
        "parameters": list(grid),
        "entries": entries_report,
        "lipschitz_constant": sweep.lipschitz_constant,
        "adjacent_differences": [list(d) for d in sweep.adjacent_differences],
        "extrapolation_errors": [list(e) for e in sweep.extrapolation_errors],
    })


def _cmd_exhaust(config_path, out, threads, method):
    cfg = _load_config(config_path)
    domain = _domain_from_config(cfg)
    solver_cfg = _solver_from_config(cfg)
    mu = _mu_from_config(cfg, domain)
    u = builtin_field(_require(cfg, "u"), domain)
    spec = _require(cfg, "exhaustion")
    radii = [float(r) for r in _require(spec, "radii")]
    degree = int(_require(spec, "taylor_degree"))
    out = _prepare_out(out, config_path)

    f, trace = exhaustion_solve(mu, u, radii, degree, solver_cfg, method=method)
    last_domain = f.domain
    mu_last = BeltramiField.from_raw(
        ComplexField(last_domain, mu.raw.samples))
    imm = solve_immersion(mu_last, solver_cfg, method=method)
    rhs = ComplexField(last_domain, dbar_rhs(mu_last.extended.samples,
                                             imm.g.samples, u.samples))
    residual = beltrami_residual(f, mu_last, rhs)
    write_field(out / "mu_raw.field", mu.raw)
    write_field(out / "u.field", u)
    write_field(out / "rhs.field", rhs)
    write_field(out / "f.field", f)
    write_exhaustion_trace_csv(out / "exhaust_steps.csv", trace)
    write_pgm_heatmaps(out, "f", f)
    _write_report(out, {
        "command": "exhaust",
        "method": method,
        "radii": radii,
        "taylor_degree": degree,
        "interior_residual": residual,
        "steps": [
            {"step": s.step, "radius": s.radius, "iterations": s.iterations,
             "correction_sup": s.correction_sup, "approx_error": s.approx_error,
             "budget": s.budget}
            for s in trace.steps
        ],
    })


def _cmd_oracle_compare(config_path, out, threads, method):
    cfg = _load_config(config_path)
    domain = _domain_from_config(cfg)
    u = builtin_field(_require(cfg, "u"), domain)
    out = _prepare_out(out, config_path)

    mask = omega_mask(domain)
    p_spec = cauchy_transform(u, method="spectral")
    p_quad = cauchy_transform(u, method="quadrature")
    s_spec = beurling_transform(u, method="spectral")
    s_quad = beurling_transform(u, method="quadrature")
    dp = float(np.max(np.abs((p_spec.samples - p_quad.samples)[mask])))
    ds = float(np.max(np.abs((s_spec.samples - s_quad.samples)[mask])))
    for name, fld in (("p_spectral", p_spec), ("p_quadrature", p_quad),
                      ("s_spectral", s_spec), ("s_quadrature", s_quad)):
        write_field(out / f"{name}.field", fld)
    _write_report(out, {
        "command": "oracle-compare",
        "cauchy_sup_difference_on_omega": dp,
        "beurling_sup_difference_on_omega": ds,
    })


def _cmd_verify(config_path, out, threads, method):
    out = Path(out)
    report_path = out / "report.json"
    if not report_path.exists():
        raise ValidationError(f"no report.json in {out}")
    report = json.loads(report_path.read_text())
    cfg = _load_config(out / "config.json")
    domain = _domain_from_config(cfg)
    command = report.get("command")

    def recheck(stored: float, recomputed: float, what: str):
        if abs(stored - recomputed) > 1e-12:
            raise VerificationMismatch(
                f"{what}: stored {stored:.17g}, recomputed {recomputed:.17g}"
            )

    if command == "solve-beltrami":
        mu = BeltramiField.from_raw(read_field(out / "mu_raw.field", domain))
        h = read_field(out / "h.field", domain)
        recheck(report["interior_residual"], beltrami_residual(h, mu),
                "interior_residual")
    elif command in ("solve-dbar", "exhaust"):
        check_domain = domain
        if command == "exhaust":
            radii = report["radii"]
            check_domain = DomainSpec(domain.half_width, domain.resolution,
                                      Disc(0j, float(radii[-1])), domain.margin)
        mu = BeltramiField.from_raw(read_field(out / "mu_raw.field", check_domain))
        f = read_field(out / "f.field", check_domain)
        rhs = read_field(out / "rhs.field", check_domain)
        recheck(report["interior_residual"], beltrami_residual(f, mu, rhs),
                "interior_residual")
    elif command == "sweep-family":
        mu = BeltramiField.from_raw(read_field(out / "mu_raw.field", domain))
        table_specs = cfg.get("family", {}).get("mu_table", ())
        for idx, record in enumerate(report["entries"]):
            if "error" in record:
                continue
            if report["law"] == "linear":
                mu_b = mu.scaled(record["b"])
            else:
                mu_b = BeltramiField.from_raw(
                    builtin_field(table_specs[idx], domain))
            f = read_field(out / f"f_{idx:03d}.field", domain)
            rhs = read_field(out / f"rhs_{idx:03d}.field", domain)
            recheck(record["interior_residual"], beltrami_residual(f, mu_b, rhs),
                    f"entry {idx} interior_residual")
    else:
        raise ValidationError(f"cannot verify runs of command {command!r}")
    click.echo(f"verify: {command} run reproduced within 1e-12")


# ---------------------------------------------------------------------------
# click wiring
# ---------------------------------------------------------------------------

def _emit_error(exc: BaseException, exit_code: int):
    payload = {"error": str(exc), "kind": type(exc).__name__, "exit_code": exit_code}
    click.echo(json.dumps(payload), err=True)
    sys.exit(exit_code)


def _run(body, config, out, threads, method):
    try:
        body(config, out, threads, method)
    except (ValidationError, FieldFormatError) as exc:
        _emit_error(exc, 1)
    except VerificationMismatch as exc:
        _emit_error(exc, 2)
    except _SOLVER_ERRORS as exc:
        _emit_error(exc, 2)
    except OSError as exc:
        _emit_error(exc, 3)


def _common_options(fn):
    fn = click.option("--method", type=click.Choice(["spectral", "quadrature"]),
                      default="spectral", show_default=True,
                      help="Transform implementation.")(fn)
    fn = click.option("--threads", type=int, default=0, show_default=True,
                      help="Worker threads for table-law family sweeps "
                           "(0 = auto); linear-law sweeps run on one thread.")(fn)
    fn = click.option("--out", required=True,
                      type=click.Path(file_okay=False, path_type=Path),
                      help="Output directory.")(fn)
    fn = click.option("--config", required=True,
                      type=click.Path(exists=True, dir_okay=False, path_type=Path),
                      help="JSON config path.")(fn)
    return fn


@click.group()
@click.version_option(__version__)
def main():
    """Beltrami / d-bar equation solver batch front-end."""


@main.command("solve-beltrami")
@_common_options
def solve_beltrami_cmd(config, out, threads, method):
    """Solve the homogeneous Beltrami equation for the immersion h."""
    _run(_cmd_solve_beltrami, config, out, threads, method)


@main.command("solve-dbar")
@_common_options
def solve_dbar_cmd(config, out, threads, method):
    """Solve the d-bar equation for the configured mu and datum u."""
    _run(_cmd_solve_dbar, config, out, threads, method)


@main.command("sweep-family")
@_common_options
def sweep_family_cmd(config, out, threads, method):
    """Solve the d-bar equation across a parameter family of coefficients."""
    _run(_cmd_sweep_family, config, out, threads, method)


@main.command("exhaust")
@_common_options
def exhaust_cmd(config, out, threads, method):
    """Global solve on the plane via the disc exhaustion scheme."""
    _run(_cmd_exhaust, config, out, threads, method)


@main.command("oracle-compare")
@_common_options
def oracle_compare_cmd(config, out, threads, method):
    """Compare the spectral and quadrature transforms on the configured field."""
    _run(_cmd_oracle_compare, config, out, threads, method)


@main.command("verify")
@click.option("--out", required=True,
              type=click.Path(exists=True, file_okay=False, path_type=Path),
              help="Directory of a previous run.")
def verify_cmd(out):
    """Recompute the residuals of a saved run and compare to its report."""
    _run(lambda c, o, t, m: _cmd_verify(c, o, t, m), None, out, 0, "spectral")


def entry():
    """Console entry point; maps usage errors to the validation exit code."""
    try:
        main(standalone_mode=False)
    except click.UsageError as exc:
        _emit_error(exc, 1)
    except click.ClickException as exc:
        _emit_error(exc, 1)


if __name__ == "__main__":
    entry()
