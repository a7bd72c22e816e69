"""Benchmark of the beltrami library and CLI, driven from outside.

Usage (from the repository root):

    python3 perfbench/run.py --workload dbar-n512 --seed 1 --seconds 24 --trace 0

Workloads (the seed makes every input; see workloads.py):

    dbar-n512           one solve_dbar per op at N = 512, weak coefficients
    family-strong-n256  one 9-point family sweep per op at N = 256, 2 threads
    cli-shipped         one cycle of the five shipped configs, a fresh
                        ``python -m beltrami`` process per command

A run starts three worker processes one after another, each timed from
launch until it is ready for its first op (its set-up), and gives each a
third of ``--seconds``.  One client runs ops in a closed loop, one op at a
time.  With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
run whose ops alternate untraced and traced.  Every op is checked, and a
failed check counts the op as failed.  A full report (metadata, sample
counts, per-slot values) is written under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKERS = 3
# cli-shipped set-up is a bare ``import beltrami.cli`` (about 0.6 s), timed
# this many times before each worker
CLI_IMPORTS_PER_WORKER = 2
RUN_LIMIT_S = 170.0
RESOLUTION = {"dbar-n512": 512, "family-strong-n256": 256,
              "cli-shipped": "shipped configs (64 to 256)"}
SLOTS = {"dbar-n512": 3, "family-strong-n256": 3, "cli-shipped": 1}
COMMANDS = ("solve-beltrami", "solve-dbar", "sweep-family", "exhaust",
            "oracle-compare", "verify")

END_TO_END = (("op_s_p50", "s"), ("op_s_tail", "s"), ("op_cpu_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_ok_ratio", "ratio"))

# span name -> the per-op span counters reported for it
SPAN_COUNTS = {
    "transforms.beurling": ("calls", "self_s"),
    "transforms.cauchy": ("calls", "self_s"),
    "transforms.estimate_contraction": ("calls", "self_s"),
    "solver.neumann": ("calls", "self_s"),
    "solver.immersion": ("calls", "self_s"),
    "solver.residual": ("calls", "self_s"),
    "family.solve_dbar": ("calls", "self_s"),
    "family.solve_family": ("self_s",),
    "exhaustion.solve": ("calls", "self_s"),
    "exhaustion.taylor_project": ("self_s",),
    "grid.fd": ("calls", "self_s"),
    "io.write": ("calls", "self_s"),
    "io.read": ("self_s",),
}
# per-layer metric -> (unit, key in the per-op span summary)
SUMMARY_COUNTS = {
    "transforms.fft_pairs": ("count", "fft_pairs"),
    "transforms.fft_gflop_computed": ("GFLOP", "fft_gflop"),
    "transforms.fft_gbytes_computed": ("GB", "fft_gbytes"),
    "solver.neumann.iterations": ("count", "neumann_iterations"),
    "family.entries_failed": ("count", "entries_failed"),
    "exhaustion.steps": ("count", "exhaustion_steps"),
    "grid.field_inits": ("count", "field_inits"),
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span, kinds in SPAN_COUNTS.items():
        for kind in kinds:
            units[f"{span}.{kind}"] = "count" if kind == "calls" else "s"
    units.update({name: unit for name, (unit, _) in SUMMARY_COUNTS.items()})
    units.update({
        "transforms.estimates_per_mu": "ratio",
        "solver.immersions_per_mu": "ratio",
        "solver.estimate_over_observed_rate.min": "ratio",
        "fieldgen.build_s": "s",
        "io.bytes_written": "bytes",
        "cli.immersions_per_command": "ratio",
        "trace.overhead_s": "s",
        "trace.uncovered_share": "ratio",
    })
    for command in COMMANDS:
        units[f"cli.{command}.wall_s"] = "s"
    return units


def tail(values):
    """Value at the highest nearest-rank percentile with 10 samples beyond it.

    Returns (value, percentile); with 10 samples or fewer, the maximum at 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n > 10:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return ordered[-1], 100.0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "unknown"


class HarnessError(Exception):
    """The benchmark itself could not run (not a failed op)."""


def _remaining(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 0:
        raise HarnessError(f"run exceeded {RUN_LIMIT_S:.0f} s")
    return left


def run_workers(args, area: Path, deadline: float):
    """Start the workers one at a time; return their set-up times and results."""
    env = _env()
    workers = 1 if args.smoke else WORKERS
    # a traced run needs each slot once untraced and once traced per worker;
    # the smoke run does exactly two ops
    min_ops = 2 if args.smoke else SLOTS[args.workload] * (2 if args.trace else 1)
    setups, results = [], []
    for index in range(workers):
        if args.workload == "cli-shipped":
            for _ in range(CLI_IMPORTS_PER_WORKER):
                start = time.perf_counter()
                subprocess.run([sys.executable, "-c", "import beltrami.cli"],
                               env=env, cwd=ROOT, check=True,
                               timeout=_remaining(deadline))
                setups.append(time.perf_counter() - start)
        result = area / f"worker{index}.json"
        argv = [sys.executable, str(HERE / "worker.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds / workers),
                "--trace", str(args.trace), "--index", str(index),
                "--min-ops", str(min_ops),
                "--root", str(ROOT), "--area", str(area), "--result", str(result)]
        if args.smoke:
            argv += ["--smoke", "--max-ops", "2"]
        if args.inject_failure:
            argv.append("--inject-failure")
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True)
        try:
            readable, _, _ = select.select([proc.stdout], [], [], _remaining(deadline))
            line = proc.stdout.readline() if readable else ""
            ready = time.perf_counter()
            if line.strip() != "ready":
                raise HarnessError(f"worker {index} did not get ready")
            if args.workload != "cli-shipped":
                setups.append(ready - start)
            proc.communicate(timeout=_remaining(deadline))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0:
            raise HarnessError(f"worker {index} exited {proc.returncode}")
        results.append(json.loads(result.read_text()))
    return setups, results


def end_to_end(ops, setups, results) -> tuple[dict, dict]:
    untraced = [o for o in ops if not o["traced"]]
    timed = [o for o in untraced if o["ok"]] or untraced
    walls = [o["wall_s"] for o in timed]
    tail_s, tail_pct = tail(walls)
    attempted = len(ops)
    failed = sum(not o["ok"] for o in ops)
    metrics = {
        "op_s_p50": statistics.median(walls),
        "op_s_tail": tail_s,
        "op_cpu_s": statistics.median(o["cpu_s"] for o in timed),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "op_ok_ratio": (attempted - failed) / attempted,
    }
    details = {"timed_ops": len(walls), "tail_percentile": tail_pct,
               "samples_beyond_tail": sum(w > tail_s for w in walls),
               "setup_samples_s": setups, "op_fail_ratio": failed / attempted}
    return metrics, details


def _slot_mean(layer_ops, value) -> float:
    """Mean over input slots of the per-slot mean of ``value(op)``.

    Counts of one input repeat exactly, so this is exact for any number of
    traced ops per slot.
    """
    by_slot = {}
    for op in layer_ops:
        by_slot.setdefault(op["slot"], []).append(value(op))
    if not by_slot:
        return 0.0
    return sum(sum(v) / len(v) for _, v in sorted(by_slot.items())) / len(by_slot)


def per_layer(workload, ops, results) -> dict:
    layer_ops = [op for r in results for op in r["layer_ops"]]
    metrics = {}
    for span, kinds in SPAN_COUNTS.items():
        for kind in kinds:
            key = f"{span}.{kind}"
            metrics[key] = _slot_mean(layer_ops, lambda op: op["summary"][key])
    for name, (_, key) in SUMMARY_COUNTS.items():
        metrics[name] = _slot_mean(layer_ops, lambda op: op["summary"][key])

    def ratio(key):
        mus = _slot_mean(layer_ops, lambda op: op["summary"]["mu_count"])
        calls = _slot_mean(layer_ops, lambda op: op["summary"][key])
        return calls / mus if mus else 0.0

    metrics["transforms.estimates_per_mu"] = ratio("transforms.estimate_contraction.calls")
    metrics["solver.immersions_per_mu"] = ratio("solver.immersion.calls")
    rates = [op["summary"]["rate_ratio_min"] for op in layer_ops
             if op["summary"]["rate_ratio_min"] is not None]
    metrics["solver.estimate_over_observed_rate.min"] = min(rates, default=0.0)

    cli = workload == "cli-shipped"
    if cli:
        metrics["fieldgen.build_s"] = _slot_mean(
            layer_ops, lambda op: op["summary"]["fieldgen.build.self_s"])
        metrics["io.bytes_written"] = _slot_mean(layer_ops, lambda op: op["bytes_written"])
        metrics["cli.immersions_per_command"] = _slot_mean(
            layer_ops, lambda op: op["immersions_per_command"])
    else:
        metrics["fieldgen.build_s"] = statistics.median(r["fieldgen_s"] for r in results)
        metrics["io.bytes_written"] = 0.0
        metrics["cli.immersions_per_command"] = 0.0
    for command in COMMANDS:
        walls = [w for r in results for w in r.get("command_walls", {}).get(command, ())]
        metrics[f"cli.{command}.wall_s"] = statistics.median(walls) if walls else 0.0

    ok = [o for o in ops if o["ok"]] or ops
    traced = [o["wall_s"] for o in ok if o["traced"]]
    untraced = [o["wall_s"] for o in ok if not o["traced"]]
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced)
                                   if traced and untraced else 0.0)
    wall = sum(op["wall_s"] for op in layer_ops)
    covered = sum(min(op["summary"]["covered_s"], op["wall_s"]) for op in layer_ops)
    metrics["trace.uncovered_share"] = 1.0 - covered / wall if wall else 0.0
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(RESOLUTION))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="harness self-test: N = 32 to 128, one worker, two ops")
    p.add_argument("--inject-failure", action="store_true",
                   help="harness self-test: give one input a mu above the "
                        "contraction cap, so its ops must fail")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "beltrami" / "__init__.py").is_file() \
            or not (ROOT / "configs").is_dir():
        print(f"perfbench: no beltrami sources under {ROOT}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_LIMIT_S
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.smoke:
        name += "-smoke" + ("-fail" if args.inject_failure else "")
    base = ROOT / ".bench_build" / "perfbench"
    area = base / name
    shutil.rmtree(area, ignore_errors=True)
    area.mkdir(parents=True)
    try:
        setups, results = run_workers(args, area, deadline)
    except (HarnessError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    ops = [o for r in results for o in r["ops"]]
    e2e, details = end_to_end(ops, setups, results)
    if args.trace:
        metrics = per_layer(args.workload, ops, results)
        units = per_layer_units()
    else:
        metrics, units = e2e, dict(END_TO_END)
    attempted = len(ops)
    failed = sum(not o["ok"] for o in ops)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": attempted, "N": RESOLUTION[args.workload],
        "threads": 2, "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": _version("numpy"),
        "scipy": _version("scipy"), "workers": len(results),
        "clients": "1 closed-loop client", "claim": None,
    }
    report = {"meta": meta, "end_to_end": e2e, "end_to_end_details": details,
              "metrics": metrics, "units": units,
              "failures": [o["error"] for o in ops if not o["ok"]][:20],
              "ops": ops}
    report_path = base / f"{name}.json"
    report_path.write_text(json.dumps(report, indent=1))

    print("meta " + json.dumps(meta))
    print(f"ops {attempted} failed {failed} timed {details['timed_ops']} "
          f"tail p{details['tail_percentile']:.1f}")
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {units[key]}")
    print(f"report {report_path.relative_to(ROOT)}")
    line = {"correct": failed == 0 and math.isfinite(sum(metrics.values())),
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
