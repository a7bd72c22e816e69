"""Golden digests of the five shipped run directories.

``shipped_runs.json`` holds, for each command's run on its config under
``configs/``, the SHA-256 of every file of the run directory and the parsed
``report.json``, with the numpy version and machine they were recorded on.

The test reruns the five configs in process.  Everywhere it requires the
recorded file names, the same ``report.json`` keys, strings and integers
(iteration counts included), and every report float within REPORT_RTOL
relative or REPORT_ATOL absolute of the recording.  On the recording setup
(same numpy version and ``platform.machine()``) it also requires every
digest to match: the run directories are byte-identical to the recording.
numpy's FFTs may round differently on another numpy version or machine,
where fields differ in their last bits, so there the digests are not
compared.

A change that moves results on purpose re-records the file by running this
module as a script from the repository root:

    PYTHONPATH=src python3 tests/test_shipped_runs.py
"""

import hashlib
import json
import math
import platform
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from beltrami.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "shipped_runs.json"
COMMANDS = ("solve-beltrami", "solve-dbar", "sweep-family", "exhaust",
            "oracle-compare")
# off the recording setup: report floats agree to rounding of the FFTs
REPORT_RTOL = 1e-6
REPORT_ATOL = 1e-12


def _setup() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


def _run(command: str, out: Path) -> None:
    config = ROOT / "configs" / f"{command.replace('-', '_')}.json"
    result = CliRunner().invoke(cli_main, [command, "--config", str(config),
                                           "--out", str(out)])
    assert result.exit_code == 0, f"{command}: {result.output}"


def _digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def _assert_close(got, want, where: str) -> None:
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and math.isclose(
            got, want, rel_tol=REPORT_RTOL, abs_tol=REPORT_ATOL), \
            f"{where}: {got!r} against {want!r}"
    else:
        assert got == want and type(got) is type(want), where


@pytest.mark.parametrize("command", COMMANDS)
def test_shipped_run_matches_its_golden_digests(tmp_path, command):
    golden = json.loads(GOLDEN.read_text())
    want = golden["runs"][command]
    out = tmp_path / command
    _run(command, out)
    got = _digests(out)
    assert sorted(got) == sorted(want["sha256"])
    report = json.loads((out / "report.json").read_text())
    _assert_close(report, want["report"], command)
    if golden["recorded_on"] == _setup():
        assert got == want["sha256"]


def record(scratch: Path) -> None:
    """Rerun the five configs under ``scratch`` and rewrite GOLDEN."""
    runs = {}
    for command in COMMANDS:
        out = scratch / command
        _run(command, out)
        runs[command] = {"sha256": _digests(out),
                         "report": json.loads((out / "report.json").read_text())}
    golden = {"recorded_on": _setup(), "runs": runs}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        record(Path(scratch))
    print(f"wrote {GOLDEN}")
