"""Per-call timings of the solver layers, best of k, at several grid sizes.

Usage (from the repository root):

    python3 tools/bench_layers.py --sizes 256 512 1024 \
        --baseline /path/to/other/checkout --out BENCH_<label>.json

Each (tree, N) pair runs in ROUNDS fresh child processes that import
``beltrami`` from that tree's ``src/`` and print one JSON object of rows.
With ``--baseline`` the two trees alternate, N by N and round by round, so
both see the same machine load.  Each row keeps the best time over all
rounds and, as its spread, the min and max of the rounds' best times; a
difference that the two trees' spreads overlap is not resolved.  Each tree
must be the top level of its own git work tree (a clone, or
``git worktree add <dir> <commit>``), so the output can name its commit.
Rows (one call each, on the unit disc in [-3, 3]^2 with a 0.8 collar):

    beurling.full     public beurling_transform of a field (validated)
    beurling.pruned   the private box apply of S (``grid._FourierApply``) on
                      the support box of mu and u, fed the box samples; a
                      tree without it fails the run
    beurling.quadrature
                      public beurling_transform by quadrature (the 2N grid)
    cauchy.full       public cauchy_transform of a field (validated): the
                      whole-grid P apply, whose multiplier and mean profile
                      w are formed block by block
    solve_immersion   mu = 0.3 constant
    solve_immersion.strong
                      mu = 0.5 + 0.3 bump, sup|mu| = 0.8, where the N/2-grid
                      warm start saves the fewest iterations
    fd.residual       beltrami_residual(h, mu) of that immersion (the FD defect)
    solve_dbar        mu = 0.3 constant, u the disc indicator
    sweep.linear9     solve_family, linear law on 0.5 + 0.3 bump, b = k/8
    sweep.linear9.forms
                      the same law with the nine distinct data
                      u_b = (1 + 0.08 b) u, which run point by point
    sweep.table9      solve_family with threads=2, a table law holding the
                      linear law's nine coefficients b mu: one solve_dbar
                      per point on the table-law pool's two workers

Each timing row also keeps CPU seconds (``time.process_time``: every thread
of the child, so a stage split over two cores, ``grid._FourierApply``, and
the pool's workers count in full), best and spread alike.

Memory rows, in fields of 16 N^2 bytes: "fields" is the tracemalloc peak of
the row's first call above its inputs, and "kept" what stays allocated above
the inputs once the call has returned and its result is dropped.  The rows
are solve_immersion, solve_dbar, sweep.linear9 and beurling.quadrature as
above, and

    coefficient       BeltramiField.from_raw of mu = 0.3 constant, its raw
                      field built in the call: "fields" is what the result
                      holds while it is alive (raw and mu_ext), not a peak

    exhaust.3         exhaustion_solve on radii 1, 1.5, 2 with taylor_degree 8,
                      mu = 0 and u the disc indicator of radius 0.25, the data
                      of the shipped exhaust config (a nonzero mu inside the
                      first disc peaks alike)
    exhaust.11        the same on 11 radii evenly spaced from 1 to 2
    sweep.cli         the sweep-family command body (``cli._cmd_sweep_family``)
                      in process on configs/sweep_family.json at the row's N,
                      writing its run files into a temporary directory: the
                      sweep as the CLI runs it, with its I/O

CLI rows, one fresh ``python`` process per call, in each tree's ``src/``:

    cli.interpreter   ``python -c pass``: interpreter start-up alone
    cli.import        ``python -c "import beltrami.cli"``: start-up plus the
                      imports of a CLI process (numpy, click, the package)
    cli.<command>     ``python -m beltrami <command>`` on the tree's
                      ``configs/`` file for that command, into a temporary
                      ``--out``, for each of the five shipped configs

Each row runs REPEAT times per round and tree, for ROUNDS rounds with the
trees alternating; its wall time, its CPU time (user + system) and its peak
resident set size (``ru_maxrss``, in MB of 2^20 bytes, as perfbench reports
``peak_rss_mb``), the last two from ``os.wait4`` on that process, are each
kept as best and spread like the timing rows.  They do not depend on N and
run once, also when ``--sizes`` is given no value, which runs only these
rows.  With ``--baseline``, "cli_peak_rss_changed" marks each row whose two
spreads lie apart by more than RSS_FLOOR_MB: the peak RSS of a command that
neither tree changes has read 0.4 MB apart between two checkouts.

Each is taken once per tree and N, in a child process of its own, apart
from the timing rounds.  The inputs are built before tracing starts, but no
transform table is: the peak includes building the multipliers, the mean
profile dz_w and the quadrature kernel.  "kept" counts the tables that
outlive the call: those of the input domain, which is still alive.  It is
read after a ``gc.collect()``, and ``numpy.fft``, which numpy loads on
first use, is imported before tracing starts, so that neither cyclic
garbage nor a module counts as kept.  Allocations are deterministic, so
one child per row suffices.

The script prints the JSON it writes.  Timings are wall clock
(``time.perf_counter``) and CPU time, and depend on the host: record its
CPU count and the numpy version beside them, as the output does.  A child
whose affinity mask holds one CPU (``taskset -c 0``) runs every stage on
one core.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
REPEAT = 5  # calls per row and round; ten times as many for the cheap rows
SWEEP_REPEAT = 2  # calls of a 9-point sweep per round
ROUNDS = 3  # child processes per tree and N
MEMORY_ROWS = ("coefficient", "solve_immersion", "solve_dbar", "sweep.linear9",
               "beurling.quadrature", "exhaust.3", "exhaust.11", "sweep.cli")
CLI_CONFIGS = {"solve-beltrami": "solve_beltrami.json", "solve-dbar": "solve_dbar.json",
               "sweep-family": "sweep_family.json", "exhaust": "exhaust.json",
               "oracle-compare": "oracle_compare.json"}
CLI_ROWS = ("cli.interpreter", "cli.import", *(f"cli.{c}" for c in CLI_CONFIGS))
# variables that change what a CLI process spends before it solves
START_ENV = ("OPENBLAS_NUM_THREADS", "PYTHONDONTWRITEBYTECODE")
# MB by which two trees' CLI peak RSS spreads must lie apart to count as a
# change: cli.oracle-compare read 32.12-32.18 against 32.56-32.63 MB on code
# that neither tree changed
RSS_FLOOR_MB = 0.5


def _rss_changed(baseline: list, change: list) -> bool:
    """Whether two [min, max] peak RSS spreads lie apart by more than
    RSS_FLOOR_MB, either way."""
    return (change[0] - baseline[1] > RSS_FLOOR_MB
            or baseline[0] - change[1] > RSS_FLOOR_MB)


def _best(fn, repeat: int) -> tuple:
    """The best wall and the best CPU seconds of ``repeat`` calls of fn."""
    wall = cpu = float("inf")
    for _ in range(repeat):
        t0, c0 = time.perf_counter(), time.process_time()
        fn()
        wall = min(wall, time.perf_counter() - t0)
        cpu = min(cpu, time.process_time() - c0)
    return wall, cpu


def _child(resolution: int) -> dict:
    """Time every row in this process; ``beltrami`` comes from sys.path."""
    import beltrami as bl
    from beltrami import grid

    domain = bl.DomainSpec(3.0, resolution, bl.Disc(0j, 1.0), 0.8)
    mu = bl.BeltramiField.from_raw(bl.constant_field(domain, 0.3))
    u = bl.builtin_field({"kind": "disc-indicator"}, domain)
    cfg = bl.SolverConfig()
    imm = bl.solve_immersion(mu, cfg)
    phi, h = imm.phi, imm.h
    # an apply or a residual is cheap and noisy: time it ten times as often
    rows = {"beurling.full": _best(lambda: bl.beurling_transform(phi), 10 * REPEAT)}
    box = grid._support_box(mu.extended.samples, u.samples)
    apply, x = grid._FourierApply.beurling(domain, box), phi.samples[box].copy()
    rows["beurling.pruned"] = _best(lambda: apply(x), 10 * REPEAT)
    rows["cauchy.full"] = _best(lambda: bl.cauchy_transform(phi), 10 * REPEAT)
    rows["beurling.quadrature"] = _best(
        lambda: bl.beurling_transform(phi, "quadrature"), REPEAT)
    rows["solve_immersion"] = _best(lambda: bl.solve_immersion(mu, cfg), REPEAT)
    raw0 = (bl.constant_field(domain, 0.5)
            + bl.gaussian_bump_field(domain, 0.3, width=0.5))
    strong = bl.BeltramiField.from_raw(raw0)
    rows["solve_immersion.strong"] = _best(lambda: bl.solve_immersion(strong, cfg),
                                           REPEAT)
    rows["fd.residual"] = _best(lambda: bl.beltrami_residual(h, mu), 10 * REPEAT)
    rows["solve_dbar"] = _best(lambda: bl.solve_dbar(mu, u, cfg), REPEAT)
    family = bl.FamilySpec(strong, tuple(k / 8 for k in range(9)))
    data = [u] * 9
    rows["sweep.linear9"] = _best(lambda: bl.solve_family(family, data, cfg),
                                  SWEEP_REPEAT)
    forms = [u * (1.0 + 0.08 * b) for b in family.parameter_grid]
    rows["sweep.linear9.forms"] = _best(lambda: bl.solve_family(family, forms, cfg),
                                        SWEEP_REPEAT)
    table = bl.FamilySpec(strong, family.parameter_grid, "table",
                          tuple(strong.scaled(b) for b in family.parameter_grid))
    rows["sweep.table9"] = _best(lambda: bl.solve_family(table, data, cfg, threads=2),
                                 SWEEP_REPEAT)
    return {"N": resolution, "rows": {row: wall for row, (wall, _) in rows.items()},
            "cpu": {row: cpu for row, (_, cpu) in rows.items()}}


def _memory_child(resolution: int, row: str) -> dict:
    """The tracemalloc peak of one cold call of ``row`` above its inputs (for
    the coefficient row, what its result holds), and what it keeps once its
    result is dropped."""
    import gc
    import tracemalloc

    import numpy as np
    import numpy.fft  # numpy loads it on first use: a module, not a table of the row

    import beltrami as bl
    from beltrami import cli

    domain = bl.DomainSpec(3.0, resolution, bl.Disc(0j, 1.0), 0.8)
    mu = bl.BeltramiField.from_raw(bl.constant_field(domain, 0.3))
    u = bl.builtin_field({"kind": "disc-indicator"}, domain)
    strong = bl.BeltramiField.from_raw(
        bl.constant_field(domain, 0.5) + bl.gaussian_bump_field(domain, 0.3, width=0.5))
    cfg = bl.SolverConfig()
    zero = bl.BeltramiField.from_raw(bl.constant_field(domain, 0.0))
    small = bl.builtin_field({"kind": "disc-indicator", "radius": 0.25, "width": 0.5},
                             domain)

    def exhaust(discs: int):
        return bl.exhaustion_solve(zero, small, list(np.linspace(1.0, 2.0, discs)),
                                   8, cfg)

    out = tempfile.TemporaryDirectory()
    if row == "sweep.cli":   # its inputs parsed as the CLI parses them
        spec = json.loads((ROOT / "configs" / "sweep_family.json").read_text())
        spec["domain"]["resolution"] = resolution
        run = SimpleNamespace(threads=0, domain=cli._domain_from_config(spec),
                              out=Path(out.name))
        for key in ("solver", "mu", "u", "family"):
            setattr(run, key, cli._INPUTS[key](spec, run))

    call = {
        "coefficient": lambda: bl.BeltramiField.from_raw(bl.constant_field(domain, 0.3)),
        "solve_immersion": lambda: bl.solve_immersion(mu, cfg),
        "solve_dbar": lambda: bl.solve_dbar(mu, u, cfg),
        "sweep.linear9": lambda: bl.solve_family(
            bl.FamilySpec(strong, tuple(k / 8 for k in range(9))), [u] * 9, cfg),
        "beurling.quadrature": lambda: bl.beurling_transform(u, "quadrature"),
        "exhaust.3": lambda: exhaust(3),
        "exhaust.11": lambda: exhaust(11),
        "sweep.cli": lambda: cli._cmd_sweep_family(run),
    }[row]
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    result = call()
    held = tracemalloc.get_traced_memory()[0]
    del result
    gc.collect()   # cyclic garbage the call left, such as json's encoder closures
    kept, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    out.cleanup()
    field = 16 * resolution ** 2
    fields = held if row == "coefficient" else peak
    return {"N": resolution, "row": row, "fields": (fields - base) / field,
            "kept": (kept - base) / field}


def _run_child(tree: Path, resolution: int, memory_row: str | None = None) -> dict:
    """A timing child, or with ``memory_row`` a memory child for that row."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    flags = ["--memory-row", memory_row] if memory_row else ["--child"]
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *flags,
         "--sizes", str(resolution)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _cli_args(tree: Path, row: str, out: str) -> list:
    """The arguments of the ``python`` process of a CLI row."""
    if row == "cli.interpreter":
        return ["-c", "pass"]
    if row == "cli.import":
        return ["-c", "import beltrami.cli"]
    command = row[len("cli."):]
    return ["-m", "beltrami", command,
            "--config", str(tree / "configs" / CLI_CONFIGS[command]), "--out", out]


def _run_cli_row(tree: Path, row: str) -> tuple:
    """Wall and CPU seconds and peak RSS in MB of one fresh process of
    ``row`` on ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        args = [sys.executable, *_cli_args(tree, row, str(Path(tmp) / "run"))]
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, env=env, cwd=tmp, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, args)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def _check_tree(tree: Path) -> None:
    """Refuse a tree whose commit git cannot name: one that is not the top
    level of its own work tree (a ``git archive`` copy, say, which reads as
    no commit, or as the commit of a repository around it)."""
    proc = subprocess.run(["git", "-C", str(tree), "rev-parse", "--show-toplevel"],
                          capture_output=True, text=True)
    if proc.returncode != 0 or Path(proc.stdout.strip()).resolve() != tree.resolve():
        raise SystemExit(f"bench_layers: {tree} is not the top level of its own git "
                         "work tree, so its commit cannot be recorded; check the "
                         "commit out with `git worktree add <dir> <commit>` or "
                         "`git clone`")


def _commit(tree: Path) -> str:
    proc = subprocess.run(["git", "-C", str(tree), "describe", "--always", "--dirty"],
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="*", default=[256, 512, 1024],
                    help="grid sizes of the per-N rows; none runs only the CLI rows")
    ap.add_argument("--baseline", type=Path,
                    help="a second checkout to time alternately (its src/)")
    ap.add_argument("--out", type=Path, help="write the JSON here as well")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--memory-row", choices=MEMORY_ROWS, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.child:
        print(json.dumps(_child(args.sizes[0])))
        return 0
    if args.memory_row:
        print(json.dumps(_memory_child(args.sizes[0], args.memory_row)))
        return 0

    trees = {"change": ROOT}
    if args.baseline is not None:
        trees = {"baseline": args.baseline.resolve(), "change": ROOT}
    for tree in trees.values():
        _check_tree(tree)
    rounds = {name: {} for name in trees}   # tree -> N -> row -> round bests
    cpu_rounds = {name: {} for name in trees}   # the same, in CPU seconds
    for n in args.sizes:
        for r in range(ROUNDS):
            # alternate which tree goes first from round to round
            order = list(trees.items())
            for name, tree in (order if r % 2 == 0 else order[::-1]):
                child = _run_child(tree, n)
                for store, key in ((rounds, "rows"), (cpu_rounds, "cpu")):
                    rows = store[name].setdefault(str(n), {})
                    for row, seconds in child[key].items():
                        rows.setdefault(row, []).append(seconds)

    fields = {name: {} for name in trees}   # tree -> N -> row -> peak fields
    kept = {name: {} for name in trees}     # tree -> N -> row -> kept fields
    for n in args.sizes:
        for row in MEMORY_ROWS:
            for name, tree in trees.items():
                child = _run_child(tree, n, row)
                fields[name].setdefault(str(n), {})[row] = round(child["fields"], 3)
                kept[name].setdefault(str(n), {})[row] = round(child["kept"], 3)

    # tree -> "wall" / "cpu" / "rss" -> row -> round bests
    cli = {name: {"wall": {}, "cpu": {}, "rss": {}} for name in trees}
    for r in range(ROUNDS):
        order = list(trees.items())
        for name, tree in (order if r % 2 == 0 else order[::-1]):
            for row in CLI_ROWS:
                calls = zip(*(_run_cli_row(tree, row) for _ in range(REPEAT)))
                for kind, values in zip(("wall", "cpu", "rss"), calls):
                    cli[name][kind].setdefault(row, []).append(min(values))

    def per_row(stat, store=rounds):
        return {name: {n: {row: stat(times) for row, times in rows.items()}
                       for n, rows in by_n.items()}
                for name, by_n in store.items()}

    def cli_per_row(stat, kinds=("wall", "cpu")):
        return {name: {kind: {row: stat(values) for row, values in by_kind[kind].items()}
                       for kind in kinds}
                for name, by_kind in cli.items()}

    def rss_per_row(stat):
        return {name: by_kind["rss"] for name, by_kind in
                cli_per_row(stat, ("rss",)).items()}

    report = {
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(),
                 "numpy": importlib.metadata.version("numpy"),
                 "env": {key: os.environ.get(key) for key in START_ENV}},
        "method": (f"best of {REPEAT} calls ({10 * REPEAT} for the "
                   f"spectral applies and fd.residual, {SWEEP_REPEAT} for "
                   f"the sweeps) in each of {ROUNDS} child processes per "
                   "tree and N, trees alternating; 'seconds' holds each "
                   "row's best over the processes and 'spread' the "
                   "[min, max] of the processes' bests, in seconds per call; "
                   "'cpu_seconds' and 'cpu_spread' the same in CPU seconds "
                   "(time.process_time, every thread of the child)"),
        "memory_method": ("'fields': tracemalloc peak of the row's first call "
                          "above its inputs ('coefficient': what its result "
                          "holds), no transform table built "
                          "beforehand; 'kept': allocated above the inputs after "
                          "the call returned and its result was dropped; one "
                          "child process per tree, N and row; in fields of "
                          "16 N^2 bytes"),
        "commits": {name: _commit(tree) for name, tree in trees.items()},
        "seconds": per_row(min),
        "spread": per_row(lambda times: [min(times), max(times)]),
        "cpu_seconds": per_row(min, cpu_rounds),
        "cpu_spread": per_row(lambda times: [min(times), max(times)], cpu_rounds),
        "fields": fields,
        "kept": kept,
        "cli_method": (f"one fresh python process per call, best of {REPEAT} "
                       f"calls in each of {ROUNDS} rounds per tree, trees "
                       "alternating; 'wall' is wall clock and 'cpu' the child's "
                       "user + system time (os.wait4), each the best over the "
                       "rounds, with the [min, max] of the rounds' bests in "
                       "'spread', in seconds per call; 'cli_peak_rss_mb' is the "
                       "child's ru_maxrss (os.wait4) in MB of 2^20 bytes, as "
                       "perfbench's peak_rss_mb, with best and spread alike; "
                       f"'cli_peak_rss_changed' marks the rows whose two trees' "
                       f"rss spreads lie apart by more than a noise floor of "
                       f"{RSS_FLOOR_MB} MB"),
        "cli_seconds": cli_per_row(min),
        "cli_spread": cli_per_row(lambda times: [min(times), max(times)]),
        "cli_peak_rss_mb": rss_per_row(min),
        "cli_peak_rss_spread": rss_per_row(lambda mb: [min(mb), max(mb)]),
    }
    if args.baseline is not None:
        spread = report["cli_peak_rss_spread"]
        report["cli_peak_rss_changed"] = {
            row: _rss_changed(spread["baseline"][row], spread["change"][row])
            for row in CLI_ROWS}
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out is not None:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
