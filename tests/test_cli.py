import json
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

from beltrami import BeltramiField, builtin_field, read_field, solve_family
from beltrami import cli
from beltrami.cli import main
from beltrami.errors import ContractionTooLarge
from beltrami.grid import MAX_RESOLUTION
from beltrami.solver import SolverConfig

from conftest import disc_domain, same_bits, traced_fields

ROOT = Path(__file__).resolve().parent.parent


def _config(tmp_path, name="config.json", **overrides):
    cfg = {
        "schema_version": 1,
        "domain": {
            "half_width": 3.0,
            "resolution": 128,
            "omega": {"shape": "disc", "center": [0.0, 0.0], "radius": 1.0},
            "margin": 0.8,
        },
        "solver": {"tol": 1e-10, "max_iter": 200, "contraction_cap": 0.9},
        "mu": {"kind": "constant", "value": [0.3, 0.0]},
        "u": {"kind": "disc-indicator"},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def _domain(resolution=32, **changes):
    spec = {"half_width": 3.0, "resolution": resolution,
            "omega": {"shape": "disc", "center": [0.0, 0.0], "radius": 1.0},
            "margin": 0.8}
    spec.update(changes)
    return spec


def _invoke(args):
    return CliRunner().invoke(main, [str(a) for a in args])


def _tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


# ---------------------------------------------------------------------------
# solve-beltrami
# ---------------------------------------------------------------------------

def test_solve_beltrami_run(tmp_path):
    cfg = _config(tmp_path, domain={
        "half_width": 3.0, "resolution": 256,
        "omega": {"shape": "disc", "center": [0.0, 0.0], "radius": 1.0},
        "margin": 0.8,
    })
    out = tmp_path / "run"
    result = _invoke(["solve-beltrami", "--config", cfg, "--out", out])
    assert result.exit_code == 0, result.output
    for name in ("h.field", "g.field", "phi.field", "mu_raw.field",
                 "report.json", "residual_trace.csv", "config.json",
                 "h_abs.pgm", "h_arg.pgm", "h_scale.txt"):
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    assert report["interior_residual"] <= 1e-2
    assert report["iterations"] <= 200


def test_invalid_mu_exits_1_before_solving(tmp_path):
    cfg = _config(tmp_path, mu={"kind": "constant", "value": [1.2, 0.0]})
    out = tmp_path / "run"
    result = _invoke(["solve-beltrami", "--config", cfg, "--out", out])
    assert result.exit_code == 1
    assert not (out / "h.field").exists()
    payload = json.loads(result.output.strip().splitlines()[-1])
    assert payload["kind"] == "ValidationError"
    assert payload["exit_code"] == 1


def test_contraction_error_exits_2(tmp_path):
    cfg = _config(tmp_path, solver={"tol": 1e-10, "max_iter": 200,
                                    "contraction_cap": 0.05})
    result = _invoke(["solve-beltrami", "--config", cfg, "--out", tmp_path / "r"])
    assert result.exit_code == 2
    payload = json.loads(result.output.strip().splitlines()[-1])
    assert payload["kind"] == "ContractionTooLarge"


def test_solve_beltrami_reports_the_gate_estimate(tmp_path):
    cfg = _config(tmp_path, domain=_domain(64))
    out = tmp_path / "run"
    assert _invoke(["solve-beltrami", "--config", cfg, "--out", out]).exit_code == 0
    report = json.loads((out / "report.json").read_text())
    mu = BeltramiField.from_raw(builtin_field(
        {"kind": "constant", "value": [0.3, 0.0]}, disc_domain(64)))
    assert report["contraction_estimate"] == mu.sup_norm


# Every numeric config read, field specs included, is checked: non-numbers,
# bools, non-finite values and non-integral integers exit 1 before --out is
# created, as do keys that the domain, omega, solver, family, exhaustion or
# field-spec reader does not read.  Each input runs on solve-beltrami
# (domain, solver, mu) and on solve-dbar (the same plus u); a u input runs
# on solve-dbar only, a family on sweep-family and an exhaustion on exhaust.
@pytest.mark.parametrize("breakage", [
    {"schema_version": 99},
    {"mu": {"kind": "mystery"}},
    {"domain": {"half_width": 3.0, "resolution": 10,
                "omega": {"shape": "disc", "radius": 1.0}, "margin": 0.8}},
    {"domain": _domain(omega={"shape": "disc", "center": [0], "radius": 1.0})},
    {"domain": _domain(resolution="abc")},
    {"solver": {"tol": "x"}},
    {"domain": _domain(omega={"shape": "rect", "corners": "abcd"})},
    {"domain": _domain(omega={"shape": "disc", "radius": None})},
    {"domain": _domain(resolution=32.7)},
    {"solver": {"max_iter": 2.5}},
    {"domain": _domain(half_width="inf")},
    {"solver": {"tol": float("inf")}},
    {"solver": {"contraction_iterations": True}},
    {"solver": [1e-10]},
    {"solver": {"tol": 10 ** 400}},
    {"u": {"kind": "gaussian-bump", "width": "x"}},
    {"u": {"kind": "gaussian-bump", "amplitude": ["x", 0]}},
    {"u": {"kind": "disc-indicator", "radius": "0.5"}},
    {"u": {"kind": "disc-indicator", "width": float("nan")}},
    {"u": {"kind": "gaussian-bump", "center": [0, True]}},
    {"u": {"kind": "file", "path": 5}},
    {"mu": {"kind": "constant", "value": True}},
    {"mu": {"kind": "linear-z", "coefficient": [10 ** 400, 0]}},
    {"solver": {"contraction_iterations": 8}},
    {"solver": {"max_iters": 10}},
    {"u": {"kind": "gaussian-bump", "widht": 0.05}},
    {"domain": _domain(omega={"shape": "disc", "centre": [0.5, 0.0],
                              "radius": 1.0})},
    {"domain": _domain(omega={"shape": "rect", "corners": [-1, -1, 1, 1],
                              "radius": 1.0})},
    {"domain": _domain(margins=0.5)},
    {"mu": {"kind": "constant", "value": [0.3, 0.0], "amplitude": 2.0}},
    {"u": {"kind": "disc-indicator", "center": [0.5, 0.0]}},
    {"family": {"lwa": "table", "grid": [0.0, 0.5]}},
    {"family": {"law": "linear", "grid": [0.0, 0.5],
                "mu_table": [{"kind": "constant", "value": 0.1}] * 2}},
    {"family": {"law": "table", "grid": [0.0, 0.5],
                "mu_table": [{"kind": "constant", "value": 0.1},
                             {"kind": "constant", "valeu": 0.2}]}},
    {"exhaustion": {"radii": [1.0, 1.5], "taylor_degree": 8, "degree": 4}},
    {"mu": {"kind": "file", "path": "mu.field", "format": 1}},
])
def test_config_validation_exits_1(tmp_path, breakage):
    cfg = _config(tmp_path, **breakage)
    commands = (["sweep-family"] if "family" in breakage
                else ["exhaust"] if "exhaustion" in breakage
                else ["solve-dbar"] if "u" in breakage
                else ["solve-beltrami", "solve-dbar"])
    for command in commands:
        out = tmp_path / command
        result = _invoke([command, "--config", cfg, "--out", out])
        assert result.exit_code == 1, (command, result.output)
        assert not out.exists(), command
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1, command
        payload = json.loads(lines[0])
        assert payload["kind"] == "ValidationError", command
        assert payload["exit_code"] == 1, command


def test_solver_failure_removes_the_out_directory_it_created(tmp_path):
    cfg = _config(tmp_path, domain=_domain(32),
                  solver={"contraction_cap": 0.05})
    out = tmp_path / "new" / "run"
    result = _invoke(["solve-dbar", "--config", cfg, "--out", out])
    assert result.exit_code == 2, result.output
    assert json.loads(result.stderr)["kind"] == "ContractionTooLarge"
    assert not (tmp_path / "new").exists()


def test_solver_failure_keeps_what_another_run_wrote_under_its_parents(
        tmp_path, monkeypatch):
    # run A creates runs/ for --out runs/a; run B writes runs/b meanwhile
    # and A then fails: A removes runs/a only, runs/ and runs/b stay
    def other_run_then_fail(*args, **kwargs):
        (tmp_path / "runs" / "b").mkdir()
        (tmp_path / "runs" / "b" / "report.json").write_text("{}")
        raise ContractionTooLarge(0.95, 0.9)

    monkeypatch.setattr(cli, "solve_dbar", other_run_then_fail)
    cfg = _config(tmp_path, domain=_domain(32))
    result = _invoke(["solve-dbar", "--config", cfg,
                      "--out", tmp_path / "runs" / "a"])
    assert result.exit_code == 2, result.output
    assert not (tmp_path / "runs" / "a").exists()
    assert (tmp_path / "runs" / "b" / "report.json").read_text() == "{}"


def test_solver_failure_keeps_an_out_directory_that_existed(tmp_path):
    cfg = _config(tmp_path, domain=_domain(32),
                  solver={"contraction_cap": 0.05})
    out = tmp_path / "run"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    result = _invoke(["solve-dbar", "--config", cfg, "--out", out])
    assert result.exit_code == 2, result.output
    assert (out / "notes.txt").read_text() == "kept"


def test_malformed_json_exits_1(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    result = _invoke(["solve-beltrami", "--config", path, "--out", tmp_path / "r"])
    assert result.exit_code == 1


# a file that starts with the UTF-16 byte order mark FF FE is not UTF-8, and
# one nested 100,000 deep exceeds the parser's recursion limit: both ended in
# a traceback, UnicodeDecodeError and RecursionError
UNREADABLE_JSON = {
    "not-utf8": b"\xff\xfe" + json.dumps({"schema_version": 1}).encode("utf-16-le"),
    "nested-too-deep": b"[" * 100_000,
}


@pytest.mark.parametrize("content", UNREADABLE_JSON.values(), ids=UNREADABLE_JSON)
def test_unreadable_config_json_exits_1(tmp_path, content):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    out = tmp_path / "run"
    result = _invoke(["solve-dbar", "--config", path, "--out", out])
    _assert_refused(result.exit_code, result.stderr, out)
    assert json.loads(result.stderr)["kind"] == "ValidationError"


@pytest.mark.parametrize("name", ["report.json", "config.json"])
@pytest.mark.parametrize("content", UNREADABLE_JSON.values(), ids=UNREADABLE_JSON)
def test_verify_unreadable_run_json_exits_1(tmp_path, name, content):
    cfg = _config(tmp_path, domain=_domain(32))
    run = tmp_path / "run"
    assert _invoke(["solve-dbar", "--config", cfg, "--out", run]).exit_code == 0
    (run / name).write_bytes(content)
    files = _tree_bytes(run)
    result = _invoke(["verify", "--out", run])
    # verify writes nothing: the run directory is left as it was
    assert _tree_bytes(run) == files
    _assert_refused(result.exit_code, result.stderr, tmp_path / "absent")
    assert json.loads(result.stderr)["kind"] == "ValidationError"


# ---------------------------------------------------------------------------
# other commands
# ---------------------------------------------------------------------------

def test_solve_dbar_and_verify(tmp_path):
    cfg = _config(tmp_path)
    out = tmp_path / "run"
    assert _invoke(["solve-dbar", "--config", cfg, "--out", out]).exit_code == 0
    assert (out / "f.field").exists() and (out / "rhs.field").exists()
    verify = _invoke(["verify", "--out", out])
    assert verify.exit_code == 0, verify.output
    assert "reproduced" in verify.output


def test_verify_detects_tampering(tmp_path):
    cfg = _config(tmp_path)
    out = tmp_path / "run"
    _invoke(["solve-dbar", "--config", cfg, "--out", out])
    report = json.loads((out / "report.json").read_text())
    report["interior_residual"] += 1e-3
    (out / "report.json").write_text(json.dumps(report))
    result = _invoke(["verify", "--out", out])
    assert result.exit_code == 2
    payload = json.loads(result.output.strip().splitlines()[-1])
    assert payload["kind"] == "VerificationMismatch"


@pytest.mark.parametrize("command, edit", [
    ("solve-dbar", lambda report: "not json"),
    ("solve-dbar", lambda report: "[1, 2]"),
    ("solve-dbar", lambda report: json.dumps({"command": "solve-dbar"})),
    ("solve-dbar", lambda report: json.dumps(dict(report,
                                                  interior_residual="x"))),
    ("sweep-family", lambda report: json.dumps(dict(report, entries="x"))),
], ids=["not-json", "not-an-object", "missing-residual", "string-residual",
        "string-entries"])
def test_verify_malformed_report_exits_1(tmp_path, command, edit):
    cfg = _config(tmp_path, domain=_domain(32),
                  family={"law": "linear", "grid": [0.0, 0.5, 1.0]})
    out = tmp_path / command
    assert _invoke([command, "--config", cfg, "--out", out]).exit_code == 0
    report = json.loads((out / "report.json").read_text())
    (out / "report.json").write_text(edit(report))
    result = _invoke(["verify", "--out", out])
    assert result.exit_code == 1, result.output
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["kind"] == "ValidationError"
    assert payload["exit_code"] == 1


def test_verify_without_report_exits_1(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert _invoke(["verify", "--out", empty]).exit_code == 1


def test_sweep_family_run_and_verify(tmp_path):
    cfg = _config(tmp_path, family={"law": "linear",
                                    "grid": [0.0, 0.25, 0.5, 0.75, 1.0]})
    out = tmp_path / "fam"
    result = _invoke(["sweep-family", "--config", cfg, "--out", out,
                      "--threads", 2])
    assert result.exit_code == 0, result.output
    assert (out / "family_report.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert len(report["entries"]) == 5
    assert report["lipschitz_constant"] > 0
    assert all((out / f"f_{i:03d}.field").exists() for i in range(5))
    assert _invoke(["verify", "--out", out]).exit_code == 0


def test_sweep_family_table_law_and_verify(tmp_path):
    cfg = _config(tmp_path, family={
        "law": "table",
        "grid": [0.0, 0.5, 1.0],
        "mu_table": [
            {"kind": "constant", "value": [0.1, 0.0]},
            {"kind": "constant", "value": [0.2, 0.1]},
            {"kind": "linear-z", "coefficient": [0.3, 0.0]},
        ],
    })
    out = tmp_path / "table"
    result = _invoke(["sweep-family", "--config", cfg, "--out", out])
    assert result.exit_code == 0, result.output
    assert _invoke(["verify", "--out", out]).exit_code == 0


@pytest.mark.parametrize("family", [
    {"law": "quadratic", "grid": [0.0, 1.0]},
    {"law": "linear", "grid": "abc"},
    {"law": "table", "grid": [0.0, 1.0], "mu_table": 5},
], ids=["unknown-law", "string-grid", "scalar-table"])
def test_sweep_family_config_contract_exits_1(tmp_path, family):
    cfg = _config(tmp_path, family=family, domain={
        "half_width": 3.0, "resolution": 32,
        "omega": {"shape": "disc", "center": [0.0, 0.0], "radius": 1.0},
        "margin": 0.8,
    })
    out = tmp_path / "fam"
    result = _invoke(["sweep-family", "--config", cfg, "--out", out])
    assert result.exit_code == 1, result.output
    assert not out.exists()
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["kind"] == "ValidationError"
    assert payload["exit_code"] == 1


def _sweep_run(cfg: dict, out: Path, threads: int = 0) -> SimpleNamespace:
    """The inputs the sweep-family body reads, parsed from ``cfg`` as the
    CLI parses them."""
    run = SimpleNamespace(threads=threads, domain=cli._domain_from_config(cfg),
                          out=out)
    for key in ("solver", "mu", "u", "family"):
        setattr(run, key, cli._INPUTS[key](cfg, run))
    return run


def test_sweep_family_failing_mid_stream_leaves_nothing_behind(tmp_path,
                                                               monkeypatch):
    # mu_raw and u are written first; the third field is the first entry's f,
    # written while the other entries are still being solved
    written = []
    write_field = cli.write_field

    def fail_on_the_third(path, field):
        written.append(path.name)
        if len(written) == 3:
            raise OSError(f"no space left writing {path.name}")
        write_field(path, field)

    monkeypatch.setattr(cli, "write_field", fail_on_the_third)
    cfg = _config(tmp_path, domain=_domain(32),
                  family={"law": "linear", "grid": [0.0, 0.5, 1.0]})
    out = tmp_path / "runs" / "fam"
    result = _invoke(["sweep-family", "--config", cfg, "--out", out])
    assert result.exit_code == 3, result.output
    assert written == ["mu_raw.field", "u.field", "f_000.field"]
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["kind"] == "OSError" and payload["exit_code"] == 3
    assert not (tmp_path / "runs").exists()


_TABLE = [{"kind": "constant", "value": [0.05 * k, 0.02 * k]} for k in range(5)]


@pytest.mark.parametrize("family, solver, threads", [
    ({"law": "linear", "grid": [1.0, 0.25, 0.75, 0.0, 0.5]}, {}, 0),
    ({"law": "linear", "grid": [0.0, 0.25, 1.0, 0.5, 0.75]},
     {"contraction_cap": 0.28}, 0),
    ({"law": "table", "grid": [0.0, 0.25, 0.5, 0.75, 1.0], "mu_table": _TABLE},
     {}, 2),
], ids=["unsorted-linear", "gated-in-the-middle", "table-law-two-threads"])
def test_streamed_sweep_reports_what_solve_family_reports(tmp_path, monkeypatch,
                                                          family, solver,
                                                          threads):
    arrivals = []
    finished_entries = cli._finished_entries

    def recorded(*args):
        for idx, entry in finished_entries(*args):
            arrivals.append(idx)
            yield idx, entry

    monkeypatch.setattr(cli, "_finished_entries", recorded)
    path = _config(tmp_path, domain=_domain(32), family=family,
                   solver={"tol": 1e-10, "max_iter": 200, **solver})
    out = tmp_path / "fam"
    result = _invoke(["sweep-family", "--config", path, "--out", out,
                      "--threads", threads])
    assert result.exit_code == 0, result.output
    if family["law"] == "linear":
        assert arrivals != sorted(arrivals)   # early entries were held
    run = _sweep_run(json.loads(path.read_text()), out)
    grid = run.family.parameter_grid
    sweep = solve_family(run.family, [run.u] * len(grid), run.solver,
                         threads=threads)

    report = json.loads((out / "report.json").read_text())
    assert report["adjacent_differences"] == [
        list(d) for d in sweep.adjacent_differences]
    assert report["extrapolation_errors"] == [
        list(e) for e in sweep.extrapolation_errors]
    assert report["lipschitz_constant"] == sweep.lipschitz_constant
    rows = [line.split(",") for line in
            (out / "family_report.csv").read_text().splitlines()[1:]]
    assert len(rows) == len(report["entries"]) == len(sweep.entries)
    for idx, (row, record, entry) in enumerate(zip(rows, report["entries"],
                                                   sweep.entries)):
        name = f"{idx:03d}.field"
        assert row[0] == format(entry.b, ".17g") and record["b"] == entry.b
        if entry.result is None:
            assert record == {"b": entry.b, "error": entry.error}
            assert row[1:] == ["", "", "", ""]
            assert not (out / f"f_{name}").exists()
            continue
        diag = entry.result.diagnostics
        assert record == {"b": entry.b, "iterations": diag.iterations,
                          "interior_residual": diag.interior_residual}
        assert row[1:3] == [str(diag.iterations),
                            format(diag.interior_residual, ".17g")]
        assert same_bits(read_field(out / f"f_{name}", run.domain).samples,
                         entry.result.f.samples)
        assert same_bits(read_field(out / f"rhs_{name}", run.domain).samples,
                         entry.result.rhs.samples)
    # each value sits on the row of the entry it ends at
    assert [(rows[i - 1][0], row[0], row[3]) for i, row in enumerate(rows)
            if row[3]] == [(format(lo, ".17g"), format(hi, ".17g"),
                            format(d, ".17g"))
                           for lo, hi, d, _ in sweep.adjacent_differences]
    assert [(row[0], row[4]) for row in rows if row[4]] == [
        (format(b, ".17g"), format(gap, ".17g"))
        for b, gap in sweep.extrapolation_errors]
    assert sweep.extrapolation_errors or family["law"] == "linear"


def test_streamed_sweep_peaks_below_19_6_fields(tmp_path):
    """The sweep-family body on the shipped sweep config at N = 128, its
    inputs parsed beforehand: 18.0 fields measured (21.4 while each series
    finish and regularity add formed whole-grid temporaries, 30.8 while
    every entry was kept to the end), pinned at 19.6 to leave 1.6 fields
    for allocator and numpy differences."""
    cfg = json.loads((ROOT / "configs" / "sweep_family.json").read_text())
    cfg["domain"]["resolution"] = 128
    run = _sweep_run(cfg, tmp_path)
    peak, _, _ = traced_fields(lambda: cli._cmd_sweep_family(run), 128)
    assert peak <= 19.6, peak


def test_exhaust_run_and_verify(tmp_path):
    cfg = _config(
        tmp_path,
        u={"kind": "disc-indicator", "radius": 0.25, "width": 0.5},
        mu={"kind": "constant", "value": [0.0, 0.0]},
        exhaustion={"radii": [1.0, 1.5, 2.0], "taylor_degree": 8},
    )
    out = tmp_path / "ex"
    result = _invoke(["exhaust", "--config", cfg, "--out", out])
    assert result.exit_code == 0, result.output
    assert (out / "exhaust_steps.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert len(report["steps"]) == 3
    assert _invoke(["verify", "--out", out]).exit_code == 0


def test_oracle_compare(tmp_path):
    cfg = _config(tmp_path, domain={
        "half_width": 3.0, "resolution": 64,
        "omega": {"shape": "disc", "center": [0.0, 0.0], "radius": 1.0},
        "margin": 0.8,
    }, u={"kind": "gaussian-bump", "amplitude": [0.3, 0.0], "width": 0.566})
    out = tmp_path / "oc"
    result = _invoke(["oracle-compare", "--config", cfg, "--out", out])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    assert report["cauchy_sup_difference_on_omega"] <= 1e-2
    assert report["beurling_sup_difference_on_omega"] <= 1e-2


def _module_run(args):
    """Run ``python -m beltrami`` (the console entry, which maps click usage
    errors to exit 1) and return the process."""
    return subprocess.run([sys.executable, "-m", "beltrami", *map(str, args)],
                          capture_output=True, text=True)


def test_cli_import_loads_no_scipy():
    # the margin cutoff's erf is math.erf, so start-up pays no scipy import
    probe = ("import sys, beltrami, beltrami.cli; "
             "print([m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')])")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _assert_refused(code, stderr, out):
    """Exit 1, exactly one JSON line on stderr, and no ``out``."""
    assert code == 1, stderr
    assert not out.exists()
    lines = stderr.strip().splitlines()
    assert len(lines) == 1, lines
    assert json.loads(lines[0])["exit_code"] == 1


RUN_COMMANDS = ("solve-beltrami", "solve-dbar", "sweep-family", "exhaust",
                "oracle-compare")


@pytest.mark.parametrize("command", RUN_COMMANDS)
def test_run_commands_offer_only_config_out_threads(command):
    text = _invoke([command, "--help"]).output
    offered = set(re.findall(r"^\s+(--[\w-]+)", text, re.MULTILINE))
    assert offered == {"--config", "--out", "--threads", "--help"}, text


def test_shipped_commands_load_no_thread_pool(tmp_path):
    # only a table-law sweep on two or more workers imports
    # ThreadPoolExecutor, whose concurrent.futures loads logging, queue and
    # traceback: about 5 ms of every process that imported it at start-up
    configs, runs = str(ROOT / "configs"), str(tmp_path)
    probe = (
        "import sys\n"
        "from beltrami.cli import main\n"
        f"for command in {RUN_COMMANDS!r}:\n"
        f"    config = {configs!r} + '/' + command.replace('-', '_') + '.json'\n"
        f"    out = {runs!r} + '/' + command\n"
        "    main([command, '--config', config, '--out', out], standalone_mode=False)\n"
        "    if command != 'oracle-compare':\n"
        "        main(['verify', '--out', out], standalone_mode=False)\n"
        "pool = ('concurrent.futures', 'logging', 'queue', 'traceback')\n"
        "print(sorted(set(pool) & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(RUN_COMMANDS)


@pytest.mark.parametrize("flags", [["--method", "quadrature"],
                                   ["--threads", "-1"]],
                         ids=["method", "negative-threads"])
def test_removed_and_out_of_range_flags_exit_1(tmp_path, flags):
    # solves run on the spectral transforms only; --threads counts workers
    cfg = _config(tmp_path, domain=_domain(32), family={"grid": [0.0, 0.5]})
    for command in ("solve-beltrami", "sweep-family"):
        out = tmp_path / command
        proc = _module_run([command, "--config", cfg, "--out", out, *flags])
        _assert_refused(proc.returncode, proc.stderr, out)


@pytest.mark.parametrize("datum, code, resolution", [
    ({"kind": "gaussian-bump", "width": 1e-300}, 1, 64),       # NaN samples
    ({"kind": "gaussian-bump", "amplitude": [1e308, 0.0]}, 2, 64),   # FFT overflow
    ({"kind": "gaussian-bump", "amplitude": [1e308, 0.0]}, 2, 256),
], ids=["width-1e-300", "amplitude-1e308", "amplitude-1e308-n256"])
def test_non_finite_values_fail_with_one_stderr_line(tmp_path, datum, code,
                                                     resolution):
    # numpy's floating-point warnings printed 4 and 12 lines before the JSON
    # line, and the overflowing datum iterated on NaN until max_iter.  At
    # N = 256 the FFT stages are split over two threads (``grid._fft_lines``):
    # the helper's half overflows too, and warns unless it runs under the
    # caller's errstate
    cfg = _config(tmp_path, domain=_domain(resolution), u=datum)
    out = tmp_path / "run"
    proc = _module_run(["solve-dbar", "--config", cfg, "--out", out])
    assert proc.returncode == code, proc.stderr
    assert not out.exists()
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1, lines
    error = json.loads(lines[0])
    assert error["exit_code"] == code
    if code == 2:
        assert error["error"] == ("no convergence: residual nan is not finite "
                                  "at iteration 1")


@pytest.mark.parametrize("omega", [
    {"shape": "disc", "center": [0.0, 0.0], "radius": 0.2},
    {"shape": "rect", "corners": [-0.2, -0.3, 0.3, 0.2]},
], ids=["disc", "rect"])
@pytest.mark.parametrize("command", ["solve-beltrami", "solve-dbar", "sweep-family",
                                     "exhaust"])
def test_an_omega_with_no_interior_exits_1(tmp_path, command, omega):
    # Omega narrower than 2/3 of the margin, and for exhaust a first disc as
    # narrow: no grid point lies where the residuals are read.  These runs
    # died with a numpy traceback
    cfg = _config(tmp_path, domain=_domain(64, omega=omega),
                  u={"kind": "disc-indicator", "radius": 0.2},
                  family={"grid": [0.0, 0.5, 1.0]},
                  exhaustion={"radii": [0.4, 1.0], "taylor_degree": 8})
    out = tmp_path / "run"
    result = _invoke([command, "--config", cfg, "--out", out])
    _assert_refused(result.exit_code, result.stderr, out)
    assert json.loads(result.stderr)["kind"] == "ValidationError"


@pytest.mark.parametrize("resolution", [MAX_RESOLUTION + 2, 10 ** 12])
def test_resolution_above_the_ceiling_exits_1_before_allocating(tmp_path,
                                                                resolution):
    cfg = _config(tmp_path, domain=_domain(resolution))
    out = tmp_path / "big"
    tracemalloc.start()
    try:
        result = _invoke(["solve-beltrami", "--config", cfg, "--out", out])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_refused(result.exit_code, result.stderr, out)
    assert "resolution" in json.loads(result.stderr)["error"]
    assert peak < 2 ** 20, peak   # one field at N = 4098 would be 16 N^2 bytes


def test_taylor_degree_above_the_bound_exits_1_before_allocating(tmp_path):
    # degree 30000 would build a 30001 x 240000 complex phase table
    cfg = _config(tmp_path, domain=_domain(64),
                  exhaustion={"radii": [1.0, 1.5], "taylor_degree": 30000})
    out = tmp_path / "ex"
    tracemalloc.start()
    try:
        result = _invoke(["exhaust", "--config", cfg, "--out", out])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_refused(result.exit_code, result.stderr, out)
    assert "taylor_degree" in json.loads(result.stderr)["error"]
    assert peak < 2 ** 22, peak


@pytest.mark.parametrize("exhaustion", [
    {"radii": [1.5, 1.0], "taylor_degree": 8},
    {"radii": [1.0, 1.5], "taylor_degree": 30000},
    {"radii": [1.0, 2.5], "taylor_degree": 8},
], ids=["decreasing-radii", "degree-above-the-bound", "last-radius-past-L-margin"])
def test_exhaust_refuses_its_config_before_writing_into_an_existing_out(
        tmp_path, exhaustion):
    # these were refused by exhaustion_solve only after config.json had
    # been copied into --out, so an --out that existed kept it
    cfg = _config(tmp_path, domain=_domain(32), exhaustion=exhaustion)
    out = tmp_path / "ex"
    out.mkdir()
    result = _invoke(["exhaust", "--config", cfg, "--out", out])
    assert result.exit_code == 1, result.output
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1, lines
    assert json.loads(lines[0])["kind"] == "ValidationError"
    assert list(out.iterdir()) == []


def _as_floats(value):
    """A config with every number but schema_version written as a float."""
    if isinstance(value, dict):
        return {k: v if k == "schema_version" else _as_floats(v)
                for k, v in value.items()}
    if isinstance(value, list):
        return [_as_floats(v) for v in value]
    return float(value) if type(value) is int else value


@pytest.mark.parametrize("command, inputs", [
    ("solve-dbar", {"mu": {"kind": "constant", "value": [0.3, 0]},
                    "u": {"kind": "disc-indicator"}}),
    ("exhaust", {"mu": {"kind": "constant", "value": [0, 0]},
                 "u": {"kind": "disc-indicator", "radius": 0.25, "width": 0.5},
                 "exhaustion": {"radii": [1, 1.5, 1.75], "taylor_degree": 8}}),
])
def test_int_config_numbers_give_the_run_files_of_floats(tmp_path, command, inputs):
    # the constructors take the raw JSON numbers, and the reports write the
    # checked floats: "radii": [1, ...] would differ from [1.0, ...]
    cfg = {"schema_version": 1,
           "domain": {"half_width": 3, "resolution": 64, "margin": 1,
                      "omega": {"shape": "disc", "center": [0, 0], "radius": 1}},
           "solver": {"tol": 1e-10, "max_iter": 200, "contraction_cap": 0.9},
           **inputs}
    runs = {}
    for name, config in (("ints", cfg), ("floats", _as_floats(cfg))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        out = tmp_path / name
        result = _invoke([command, "--config", path, "--out", out])
        assert result.exit_code == 0, result.output
        runs[name] = _tree_bytes(out)
        assert runs[name].pop("config.json") == path.read_bytes()
        assert _invoke(["verify", "--out", out]).exit_code == 0
    assert b'"resolution": 64.0' in (tmp_path / "floats.json").read_bytes()
    assert runs["ints"] == runs["floats"]


def test_readme_config_schema_parses(tmp_path):
    # the documented schema is a config every parser accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config schema (version 1)", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "schema.json"
    path.write_text(block)
    cfg = cli._load_config(path)
    domain = cli._domain_from_config(cfg)
    assert cli._solver_from_config(cfg) == SolverConfig(**cfg["solver"])
    assert cli._exhaustion_from_config(cfg, domain) == (
        cfg["exhaustion"]["radii"], cfg["exhaustion"]["taylor_degree"])
    mu = BeltramiField.from_raw(builtin_field(cfg["mu"], domain))
    builtin_field(cfg["u"], domain)
    family = cli._family_from_config(cfg, domain, mu)
    assert family.parameter_grid == tuple(cfg["family"]["grid"])


# ---------------------------------------------------------------------------
# determinism and the installed entry point
# ---------------------------------------------------------------------------

def test_identical_configs_are_bitwise_identical(tmp_path):
    cfg = _config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert _invoke(["solve-dbar", "--config", cfg, "--out", out_a]).exit_code == 0
    assert _invoke(["solve-dbar", "--config", cfg, "--out", out_b]).exit_code == 0
    assert _tree_bytes(out_a) == _tree_bytes(out_b)


def test_module_entry_point_maps_usage_errors_to_1(tmp_path):
    proc = _module_run(["solve-beltrami", "--config", tmp_path / "missing.json",
                        "--out", tmp_path / "o"])
    assert proc.returncode == 1
    payload = json.loads(proc.stderr.strip().splitlines()[-1])
    assert payload["exit_code"] == 1


def test_unwritable_out_exits_3(tmp_path):
    cfg = _config(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    result = _invoke(["solve-beltrami", "--config", cfg,
                      "--out", blocker / "sub"])
    assert result.exit_code == 3
    payload = json.loads(result.output.strip().splitlines()[-1])
    assert payload["exit_code"] == 3
