"""Batch CLI: config parsing, solver dispatch, verification, and exports.

Subcommands: solve-beltrami, solve-dbar, sweep-family, exhaust, verify,
oracle-compare.  Every run writes into an output directory: a copy of the
config, fields in the binary format, reports as JSON/CSV, and PGM heatmaps.
Outputs are bitwise deterministic for a fixed config (fixed seeds, fixed
iteration order, no timestamps).

Exit codes: 0 success, 1 validation error, 2 solver/verification error,
3 I/O error.  Error detail goes to stderr as single-line JSON.

Importing this module sets ``OPENBLAS_NUM_THREADS=1`` in ``os.environ``
unless it is set already; when numpy is not yet loaded, as in every
``beltrami`` process, OpenBLAS then starts with one thread.
"""

from __future__ import annotations

import os

# no solve runs threaded BLAS, and an idle OpenBLAS pool costs each process ~0.1 s
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import json
import shutil
import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

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
from .exhaustion import _check_exhaustion, _disc_domain, exhaustion_solve
from .family import FamilySpec, _finished_entries, _Regularity, solve_dbar
from .fieldgen import _as_complex, _check_keys, builtin_field
from .grid import (
    BeltramiField,
    ComplexField,
    Disc,
    DomainSpec,
    Rect,
    _real,
    omega_mask,
)
from .io import (
    _write_field_on_box,
    read_field,
    write_exhaustion_trace_csv,
    write_family_report_csv,
    write_field,
    write_pgm_heatmaps,
    write_residual_trace_csv,
)
from .solver import SolverConfig, beltrami_residual, solve_immersion
from .transforms import beurling_transform, cauchy_transform

# after the package: imported before its modules compile, click leaves every
# CLI process's peak RSS ~0.5 MB higher when no bytecode is cached
import click

CONFIG_SCHEMA_VERSION = 1

# Every solve runs on the spectral transforms (the quadrature ones are the
# oracle of oracle-compare); reports keep the key for a stable schema.
SOLVE_METHOD = "spectral"


class VerificationMismatch(BeltramiError):
    pass


_EXIT_2 = (VerificationMismatch, ContractionTooLarge, NoConvergence,
           DegenerateImmersion, DegenerateFrame, RungeApproximationFailure)


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def _read_json(path, what: str):
    """The JSON value in the file at ``path``; ValidationError if the file
    is not UTF-8 JSON, or nests too deep for the parser."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:   # ValueError: decoding, syntax
        raise ValidationError(f"{what} is not valid JSON: {exc}") from exc


def _load_config(path) -> dict:
    cfg = _read_json(path, "config")
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    version = cfg.get("schema_version")
    if version != CONFIG_SCHEMA_VERSION:
        raise ValidationError(
            f"config schema_version must be {CONFIG_SCHEMA_VERSION}, got {version!r}"
        )
    return cfg


_MISSING = object()


def _require(cfg: dict, key: str, default=_MISSING):
    """cfg[key], or ``default`` if one is given and the key is absent."""
    if not isinstance(cfg, dict):
        raise ValidationError(f"expected a JSON object with {key!r}, got {cfg!r}")
    if key not in cfg and default is _MISSING:
        raise ValidationError(f"config is missing required key {key!r}")
    return cfg.get(key, default)


def _list(value, what: str, length: int | None = None) -> list:
    """``value`` if it is a list (of exactly ``length`` entries if given);
    its entries are checked by the reader or constructor that takes them."""
    if not isinstance(value, list) or length not in (None, len(value)):
        size = "" if length is None else f" of {length} entries"
        raise ValidationError(f"{what} must be a list{size}, got {value!r}")
    return value


def _whole(value):
    """An integral config float (32.0) as an int; any other value as it is."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def _domain_from_config(cfg: dict) -> DomainSpec:
    spec = _require(cfg, "domain")
    omega_spec = _require(spec, "omega")
    _check_keys(spec, ("half_width", "resolution", "omega", "margin"), "domain")
    shape = _require(omega_spec, "shape", None)
    if shape == "disc":
        _check_keys(omega_spec, ("shape", "center", "radius"), "disc omega")
        center = _list(_require(omega_spec, "center", [0.0, 0.0]), "disc center", 2)
        omega = Disc(_as_complex(center, "disc center"), _require(omega_spec, "radius"))
    elif shape == "rect":
        _check_keys(omega_spec, ("shape", "corners"), "rect omega")
        omega = Rect(*_list(_require(omega_spec, "corners"),
                            "rect corners [x0, y0, x1, y1]", 4))
    else:
        raise ValidationError(f"unknown omega shape {shape!r}")
    return DomainSpec(half_width=_require(spec, "half_width"),
                      resolution=_whole(_require(spec, "resolution")),
                      omega=omega, margin=_require(spec, "margin"))


def _solver_from_config(cfg: dict) -> SolverConfig:
    """Absent keys of the optional 'solver' object keep the defaults; a key
    that is not a SolverConfig field is refused."""
    spec = _require(cfg, "solver", {})
    max_iter = _whole(_require(spec, "max_iter", SolverConfig.max_iter))
    _check_keys(spec, [f.name for f in fields(SolverConfig)], "solver")
    return SolverConfig(**dict(spec, max_iter=max_iter))


def _family_from_config(cfg: dict, domain: DomainSpec,
                        mu: BeltramiField) -> FamilySpec:
    spec = _require(cfg, "family")
    grid = _list(_require(spec, "grid"), "family grid")
    law = _require(spec, "law", "linear")
    _check_keys(spec, ("law", "grid", "mu_table") if law == "table"
                else ("law", "grid"), f"{law} family")
    table = None
    if law == "table":
        specs = _list(_require(spec, "mu_table"), "family mu_table")
        table = tuple(BeltramiField.from_raw(builtin_field(s, domain))
                      for s in specs)
    return FamilySpec(mu, tuple(grid), law=law, table=table)


def _exhaustion_from_config(cfg: dict, domain: DomainSpec) -> tuple:
    """The radii and taylor_degree, checked on ``domain`` as exhaustion_solve
    checks them."""
    spec = _require(cfg, "exhaustion")
    radii = _list(_require(spec, "radii"), "exhaustion radii")
    _check_keys(spec, ("radii", "taylor_degree"), "exhaustion")
    return _check_exhaustion(domain, radii, _whole(_require(spec, "taylor_degree")))


# Config inputs in parse order; a parser sees the inputs parsed before it.
_INPUTS = {
    "solver": lambda cfg, run: _solver_from_config(cfg),
    "mu": lambda cfg, run: BeltramiField.from_raw(
        builtin_field(_require(cfg, "mu"), run.domain)),
    "u": lambda cfg, run: builtin_field(_require(cfg, "u"), run.domain),
    "family": lambda cfg, run: _family_from_config(cfg, run.domain, run.mu),
    "exhaustion": lambda cfg, run: _exhaustion_from_config(cfg, run.domain),
}


def _write_report(out: Path, report: dict) -> None:
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _execute(body, needs, config_path, out, threads):
    """Parse the domain and each input in ``needs``, and only then create
    ``out`` (a config that fails validation leaves none) and run ``body``.
    If ``body`` fails, what this run created is removed: ``out`` with its
    contents, then each parent it created, innermost first, while empty (a
    parent another run has written into stays).  An ``out`` that already
    existed is left as it is."""
    cfg = _load_config(config_path)
    run = SimpleNamespace(threads=threads, domain=_domain_from_config(cfg))
    for key, parse in _INPUTS.items():
        if key in needs:
            setattr(run, key, parse(cfg, run))
    run.out = out
    created = []            # the directories this run creates, innermost first
    for path in (out, *out.parents):
        if path.exists():
            break
        created.append(path)
    try:
        run.out.mkdir(parents=True, exist_ok=True)
        (run.out / "config.json").write_bytes(Path(config_path).read_bytes())
        body(run)
    except BaseException:
        if created and created[0] == out:
            shutil.rmtree(out, ignore_errors=True)
        for parent in created[1:]:
            try:
                parent.rmdir()
            except OSError:
                break
        raise


# ---------------------------------------------------------------------------
# click wiring
# ---------------------------------------------------------------------------

def _emit_error(exc: BaseException, exit_code: int):
    payload = {"error": str(exc), "kind": type(exc).__name__, "exit_code": exit_code}
    click.echo(json.dumps(payload), err=True)
    sys.exit(exit_code)


def _run(fn, *args):
    """Run a command, mapping library errors to their exit codes.  numpy's
    floating-point warnings are off: a non-finite value ends in a documented
    error (a field check, or a solve that stops at its first non-finite
    residual), whose JSON line is then the only one on stderr."""
    try:
        with np.errstate(all="ignore"):
            fn(*args)
    except (ValidationError, FieldFormatError) as exc:
        _emit_error(exc, 1)
    except _EXIT_2 as exc:
        _emit_error(exc, 2)
    except OSError as exc:
        _emit_error(exc, 3)


@click.group()
@click.version_option(__version__)
def main():
    """Beltrami / d-bar equation solver batch front-end."""


def _command(name: str, *needs: str):
    """Register a body as CLI command ``name`` (its docstring is the help)
    that reads the config inputs ``needs``, keys of _INPUTS."""
    def register(body):
        @main.command(name, help=body.__doc__)
        @click.option("--config", required=True, help="JSON config path.",
                      type=click.Path(exists=True, dir_okay=False, path_type=Path))
        @click.option("--out", required=True, help="Output directory.",
                      type=click.Path(file_okay=False, path_type=Path))
        @click.option("--threads", type=click.IntRange(min=0), default=0,
                      show_default=True,
                      help="Worker threads for table-law family sweeps "
                           "(0 = one per CPU core; never more than the grid "
                           "points); linear-law sweeps run on one thread.")
        def command(config, out, threads):
            _run(_execute, body, needs, config, out, threads)
        return body
    return register


# ---------------------------------------------------------------------------
# command bodies
# ---------------------------------------------------------------------------

@_command("solve-beltrami", "solver", "mu")
def _cmd_solve_beltrami(run):
    """Solve the homogeneous Beltrami equation for the immersion h."""
    result = solve_immersion(run.mu, run.solver)
    residual = beltrami_residual(result.h, run.mu)
    out = run.out
    write_field(out / "mu_raw.field", run.mu.raw)
    write_field(out / "h.field", result.h)
    write_field(out / "g.field", result.g)
    write_field(out / "phi.field", result.phi)
    write_residual_trace_csv(out / "residual_trace.csv", result.trace)
    write_pgm_heatmaps(out, "h", result.h)
    _write_report(out, {
        "command": "solve-beltrami",
        "method": SOLVE_METHOD,
        "iterations": result.iterations,
        "neumann_residual": result.final_residual,
        "interior_residual": residual,
        "contraction_estimate": run.mu.sup_norm,
        "fields": ["mu_raw.field", "h.field", "g.field", "phi.field"],
    })


@_command("solve-dbar", "solver", "mu", "u")
def _cmd_solve_dbar(run):
    """Solve the d-bar equation for the configured mu and datum u."""
    result = solve_dbar(run.mu, run.u, run.solver)
    out = run.out
    write_field(out / "mu_raw.field", run.mu.raw)
    write_field(out / "u.field", run.u)
    _write_field_on_box(out / "rhs.field", run.domain, result.rhs_on_box)
    write_field(out / "f.field", result.f)
    write_residual_trace_csv(out / "residual_trace.csv", result.diagnostics.trace)
    write_pgm_heatmaps(out, "f", result.f)
    _write_report(out, {
        "command": "solve-dbar",
        "method": SOLVE_METHOD,
        "iterations": result.diagnostics.iterations,
        "neumann_residual": result.diagnostics.neumann_residual,
        "interior_residual": result.diagnostics.interior_residual,
        "moving_frame_residual": result.diagnostics.moving_frame_residual,
        "fields": ["mu_raw.field", "u.field", "rhs.field", "f.field"],
    })


@_command("sweep-family", "solver", "mu", "u", "family")
def _cmd_sweep_family(run):
    """Solve the d-bar equation across a parameter family of coefficients."""
    family, out = run.family, run.out
    grid = family.parameter_grid
    write_field(out / "mu_raw.field", run.mu.raw)
    write_field(out / "u.field", run.u)
    # each entry's fields are written as it finishes and its f is then freed;
    # the report keeps Omega's box of the solutions it still reads
    regularity = _Regularity(grid)
    entries_report = [None] * len(grid)
    for idx, entry in _finished_entries(family, [run.u] * len(grid), run.solver,
                                        run.threads):
        record = {"b": entry.b}
        if entry.result is None:
            record["error"] = entry.error
        else:
            write_field(out / f"f_{idx:03d}.field", entry.result.f)
            _write_field_on_box(out / f"rhs_{idx:03d}.field", run.domain,
                                entry.result.rhs_on_box)
            record["iterations"] = entry.result.diagnostics.iterations
            record["interior_residual"] = entry.result.diagnostics.interior_residual
        entries_report[idx] = record
        regularity.add(idx, entry)
        del entry   # before the next entry is solved
    write_family_report_csv(out / "family_report.csv", regularity)
    adjacent, lipschitz, extrapolation = regularity.summary()
    _write_report(out, {
        "command": "sweep-family",
        "method": SOLVE_METHOD,
        "law": family.law,
        "parameters": list(grid),
        "entries": entries_report,
        "lipschitz_constant": lipschitz,
        "adjacent_differences": [list(d) for d in adjacent],
        "extrapolation_errors": [list(e) for e in extrapolation],
    })


@_command("exhaust", "solver", "mu", "u", "exhaustion")
def _cmd_exhaust(run):
    """Global solve on the plane via the disc exhaustion scheme."""
    (radii, degree), out = run.exhaustion, run.out
    f, trace = exhaustion_solve(run.mu, run.u, radii, degree, run.solver)
    mu_last = BeltramiField.from_raw(ComplexField(f.domain, run.mu.raw.samples))
    residual = beltrami_residual(f, mu_last, trace.rhs)
    write_field(out / "mu_raw.field", run.mu.raw)
    write_field(out / "u.field", run.u)
    write_field(out / "rhs.field", trace.rhs)
    write_field(out / "f.field", f)
    write_exhaustion_trace_csv(out / "exhaust_steps.csv", trace)
    write_pgm_heatmaps(out, "f", f)
    _write_report(out, {
        "command": "exhaust",
        "method": SOLVE_METHOD,
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


@_command("oracle-compare", "u")
def _cmd_oracle_compare(run):
    """Compare the spectral and quadrature transforms on the configured field."""
    u = run.u
    mask = omega_mask(run.domain)
    p_spec = cauchy_transform(u, method="spectral")
    p_quad = cauchy_transform(u, method="quadrature")
    s_spec = beurling_transform(u, method="spectral")
    s_quad = beurling_transform(u, method="quadrature")
    dp = float(np.max(np.abs((p_spec.samples - p_quad.samples)[mask])))
    ds = float(np.max(np.abs((s_spec.samples - s_quad.samples)[mask])))
    for name, fld in (("p_spectral", p_spec), ("p_quadrature", p_quad),
                      ("s_spectral", s_spec), ("s_quadrature", s_quad)):
        write_field(run.out / f"{name}.field", fld)
    _write_report(run.out, {
        "command": "oracle-compare",
        "cauchy_sup_difference_on_omega": dp,
        "beurling_sup_difference_on_omega": ds,
    })


def _cmd_verify(out: Path):
    report_path = out / "report.json"
    if not report_path.exists():
        raise ValidationError(f"no report.json in {out}")
    report = _read_json(report_path, "report.json")
    cfg = _load_config(out / "config.json")
    domain = _domain_from_config(cfg)
    command = _require(report, "command")
    if command not in ("solve-beltrami", "solve-dbar", "sweep-family", "exhaust"):
        raise ValidationError(f"cannot verify runs of command {command!r}")
    if command == "exhaust":
        radii, _ = _exhaustion_from_config(cfg, domain)
        domain = _disc_domain(domain, radii[-1])
    mu = BeltramiField.from_raw(read_field(out / "mu_raw.field", domain))

    def recheck(record, what: str, mu_, name: str, rhs_name=None):
        stored = _real(_require(record, "interior_residual"), what)
        f = read_field(out / name, domain)
        rhs = None if rhs_name is None else read_field(out / rhs_name, domain)
        recomputed = beltrami_residual(f, mu_, rhs)
        if abs(stored - recomputed) > 1e-12:
            raise VerificationMismatch(
                f"{what}: stored {stored:.17g}, recomputed {recomputed:.17g}"
            )

    if command == "solve-beltrami":
        recheck(report, "interior_residual", mu, "h.field")
    elif command in ("solve-dbar", "exhaust"):
        recheck(report, "interior_residual", mu, "f.field", "rhs.field")
    else:
        family = _family_from_config(cfg, domain, mu)
        entries = _list(_require(report, "entries"), "report entries (one per "
                        "family parameter)", len(family.parameter_grid))
        for idx, record in enumerate(entries):
            if _require(record, "error", None) is None:
                recheck(record, f"entry {idx} interior_residual",
                        family.realize(idx), f"f_{idx:03d}.field",
                        f"rhs_{idx:03d}.field")
    click.echo(f"verify: {command} run reproduced within 1e-12")


@main.command("verify")
@click.option("--out", required=True,
              type=click.Path(exists=True, file_okay=False, path_type=Path),
              help="Directory of a previous run.")
def verify_cmd(out):
    """Recompute the residuals of a saved run and compare to its report."""
    _run(_cmd_verify, out)


def entry():
    """Console entry point; maps usage errors to the validation exit code."""
    try:
        main(standalone_mode=False)
    except click.ClickException as exc:  # usage errors included
        _emit_error(exc, 1)


if __name__ == "__main__":
    entry()
