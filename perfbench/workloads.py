"""The benchmark's workloads: seeded inputs, one op each, and its check.

Each in-process workload holds three input slots whose coefficient strengths
are fixed and span the workload's range.  The seed rotates each slot's
coefficient pattern and sets the phase of its datum.  A rotation
z -> e^{ia} z with mu -> e^{2ia} mu, and a unimodular factor on the datum,
leave the Neumann contraction rate unchanged up to grid effects, so inputs
differ from seed to seed while the work per op stays steady.  Ops visit the
slots round-robin, so the median op falls in the middle slot.

``cli-shipped`` rewrites the five shipped configs with seeded phases (and,
except for ``exhaust``, amplitude factors within 3%), runs each as a fresh
``python -m beltrami`` process and checks the run directory afterwards.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import beltrami as bl
import beltrami.cli

HERE = Path(__file__).resolve().parent

THREADS = 2
# Bounds shared with tests/test_acceptance.py: interior and moving-frame
# residuals (criterion 5) and spectral-vs-quadrature gaps (criterion 8).
RESIDUAL_BOUND = 1e-2
CROSS_CHECK_BOUND = 1e-2
FAMILY_GRID = tuple(k / 8 for k in range(9))
# mu = 0.95 z / zbar: the contraction estimate is far above the 0.9 cap.
FAILING_MU = 0.95

COMMANDS = ("solve-beltrami", "solve-dbar", "sweep-family", "exhaust",
            "oracle-compare")
CONFIG_FILES = {
    "solve-beltrami": "solve_beltrami.json",
    "solve-dbar": "solve_dbar.json",
    "sweep-family": "sweep_family.json",
    "exhaust": "exhaust.json",
    "oracle-compare": "oracle_compare.json",
}


class OpFailed(Exception):
    """An op ran but its output failed the check."""


def _pair(z: complex) -> list:
    return [z.real, z.imag]


def _domain(resolution: int) -> bl.DomainSpec:
    return bl.DomainSpec(3.0, resolution, bl.Disc(0j, 1.0), 0.8)


def _coefficient(domain, sup, const_share, bump_radius, width, angle):
    """Constant plus Gaussian bump, rotated by ``angle``, with sup|mu| = sup."""
    turn = complex(math.cos(2 * angle), math.sin(2 * angle))
    center = bump_radius * complex(math.cos(angle), math.sin(angle))
    raw = (bl.builtin_field({"kind": "constant",
                             "value": _pair(const_share * turn)}, domain)
           + bl.builtin_field({"kind": "gaussian-bump",
                               "amplitude": _pair((1 - const_share) * turn),
                               "center": _pair(center), "width": width}, domain))
    scale = sup / bl.BeltramiField.from_raw(raw).sup_norm
    return bl.BeltramiField.from_raw(raw * scale)


def _datum(domain, phase):
    amplitude = complex(math.cos(phase), math.sin(phase))
    return bl.builtin_field({"kind": "disc-indicator",
                            "amplitude": _pair(amplitude)}, domain)


def _failing_mu(domain):
    z = bl.make_coordinate_field(domain).samples
    with np.errstate(invalid="ignore", divide="ignore"):
        raw = np.where(z != 0, FAILING_MU * z / np.conj(z), 0.0)
    return bl.BeltramiField.from_raw(bl.ComplexField(domain, raw))


class _InProcess:
    """Three seeded (mu, u) slots on one domain; subclasses define the op."""

    # (sup|mu|, constant share, bump center radius, bump width) per slot
    templates = ()

    def __init__(self, seed: int, resolution: int, inject_failure: bool):
        self.resolution = resolution
        self.cfg = bl.SolverConfig()
        domain = _domain(resolution)
        self.inputs = []
        for slot, (sup, share, radius, width) in enumerate(self.templates):
            rng = np.random.default_rng([seed, slot])
            angle, phase = rng.uniform(0.0, 2 * math.pi, size=2)
            mu = _coefficient(domain, sup, share, radius, width, angle)
            self.inputs.append((mu, _datum(domain, phase)))
        if inject_failure:
            self.inputs[0] = (_failing_mu(domain), self.inputs[0][1])

    @property
    def slots(self) -> int:
        return len(self.inputs)

    def _check_dbar(self, result, what: str) -> None:
        d = result.diagnostics
        if not d.neumann_residual <= self.cfg.tol:
            raise OpFailed(f"{what}: Neumann residual {d.neumann_residual:.3e}")
        if not d.interior_residual <= RESIDUAL_BOUND:
            raise OpFailed(f"{what}: interior residual {d.interior_residual:.3e}")
        if not d.moving_frame_residual <= RESIDUAL_BOUND:
            raise OpFailed(f"{what}: moving-frame residual "
                           f"{d.moving_frame_residual:.3e}")


class DbarN512(_InProcess):
    """One solve_dbar per op on weak coefficients (sup|mu| 0.25 to 0.45)."""

    templates = ((0.25, 0.5, 0.4, 0.5), (0.35, 0.5, 0.4, 0.5),
                 (0.45, 0.5, 0.4, 0.5))

    def run(self, slot: int) -> None:
        mu, u = self.inputs[slot]
        self._check_dbar(bl.solve_dbar(mu, u, self.cfg), "solve_dbar")


class FamilyStrongN256(_InProcess):
    """One 9-point linear family sweep per op (sup|mu_0| 0.72 to 0.84)."""

    templates = ((0.72, 0.85, 0.3, 0.6), (0.78, 0.85, 0.3, 0.6),
                 (0.84, 0.85, 0.3, 0.6))

    def run(self, slot: int) -> None:
        mu, u = self.inputs[slot]
        sweep = bl.solve_family(bl.FamilySpec(mu, FAMILY_GRID),
                                [u] * len(FAMILY_GRID), self.cfg,
                                threads=THREADS)
        for entry in sweep.entries:
            if entry.result is None:
                raise OpFailed(f"family entry b={entry.b}: {entry.error}")
            self._check_dbar(entry.result, f"family entry b={entry.b}")


def _perturb(rng, spec: dict, keep_size: bool) -> dict:
    """Seeded phase (and size within 3%) for a field spec's amplitude."""
    spec = dict(spec)
    key = "value" if spec["kind"] == "constant" else "amplitude"
    base = spec.get(key, 1.0)
    base = complex(*base) if isinstance(base, list) else complex(base)
    size = 1.0 if keep_size else rng.uniform(0.97, 1.03)
    phase = rng.uniform(0.0, 2 * math.pi)
    spec[key] = _pair(base * size * complex(math.cos(phase), math.sin(phase)))
    return spec


class CliShipped:
    """One op is a cycle over the five shipped configs, one process each."""

    slots = 1

    def __init__(self, seed: int, root: Path, area: Path,
                 smoke: bool, inject_failure: bool):
        self.root = root
        self.area = area
        rng = np.random.default_rng(seed)
        self.configs = {}
        for command in COMMANDS:
            cfg = json.loads((root / "configs" / CONFIG_FILES[command]).read_text())
            keep_size = command == "exhaust"
            for key in ("mu", "u"):
                if key in cfg:
                    cfg[key] = _perturb(rng, cfg[key], keep_size)
            if smoke:
                cfg["domain"]["resolution"] = 32 if command == "oracle-compare" else 64
            if inject_failure and command == "solve-dbar":
                failing = area / "failing_mu.field"
                bl.write_field(failing, _failing_mu(_domain(
                    cfg["domain"]["resolution"])).raw)
                cfg["mu"] = {"kind": "file", "path": str(failing)}
            path = area / f"{command}.json"
            path.write_text(json.dumps(cfg))
            self.configs[command] = path
        self.command_walls = {c: [] for c in COMMANDS}
        self.command_walls["verify"] = []

    def launch(self, command: str, out: Path, trace_file: Path | None):
        args = [command, "--config", str(self.configs[command]),
                "--out", str(out), "--threads", str(THREADS)]
        if trace_file is None:
            argv = [sys.executable, "-m", "beltrami", *args]
        else:
            argv = [sys.executable, str(HERE / "cli_child.py"), str(trace_file), *args]
        return subprocess.run(argv, cwd=self.root,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)

    def run_cycle(self, tag: str, trace_dir: Path | None) -> dict:
        """Run the five commands; return per-command wall, exit code, stderr."""
        cycle = self.area / tag
        runs = {}
        for command in COMMANDS:
            trace_file = None if trace_dir is None else trace_dir / f"{command}.json"
            start = time.perf_counter()
            proc = self.launch(command, cycle / command, trace_file)
            runs[command] = (time.perf_counter() - start, proc.returncode,
                             proc.stderr.strip()[-500:])
        return runs

    def check_cycle(self, tag: str, runs: dict, record_walls: bool) -> None:
        """Exit codes, then ``verify`` (in process) or the oracle gaps."""
        cycle = self.area / tag
        for command, (wall, code, err) in runs.items():
            if code != 0:
                raise OpFailed(f"{command} exited {code}: {err}")
            if record_walls:
                self.command_walls[command].append(wall)
        for command in COMMANDS:
            out = cycle / command
            if command == "oracle-compare":
                report = json.loads((out / "report.json").read_text())
                for key in ("cauchy_sup_difference_on_omega",
                            "beurling_sup_difference_on_omega"):
                    if not report[key] <= CROSS_CHECK_BOUND:
                        raise OpFailed(f"oracle-compare {key} = {report[key]:.3e}")
                continue
            start = time.perf_counter()
            code = _verify(out)
            if record_walls:
                self.command_walls["verify"].append(time.perf_counter() - start)
            if code != 0:
                raise OpFailed(f"verify of {command} exited {code}")

    def bytes_written(self, tag: str) -> int:
        cycle = self.area / tag
        return sum(p.stat().st_size for p in cycle.rglob("*") if p.is_file())

    def discard(self, tag: str) -> None:
        shutil.rmtree(self.area / tag, ignore_errors=True)


def exit_code(exc: SystemExit) -> int:
    """The process exit status ``sys.exit`` would give for ``exc``."""
    if exc.code is None:
        return 0
    return exc.code if isinstance(exc.code, int) else 1


def _verify(out: Path) -> int:
    """``beltrami verify --out <out>`` through the click group; the exit code."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            beltrami.cli.main(["verify", "--out", str(out)], standalone_mode=False)
    except SystemExit as exc:
        return exit_code(exc)
    return 0
