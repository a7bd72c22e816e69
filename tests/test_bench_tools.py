"""Smoke test of ``tools/bench_layers.py``: its timing and memory children
run in process at small N, so a change to the private names it calls
breaks this test instead of the next benchmark run."""

import importlib.util
import math
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_layers.py"


@pytest.fixture(scope="module")
def bench_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_timing_child_times_every_row(bench_layers, monkeypatch):
    monkeypatch.setattr(bench_layers, "REPEAT", 1)
    monkeypatch.setattr(bench_layers, "SWEEP_REPEAT", 1)
    child = bench_layers._child(32)
    assert child["N"] == 32
    assert {"beurling.pruned", "cauchy.full", "solve_dbar", "sweep.linear9",
            "sweep.table9"} <= set(child["rows"])
    assert set(child["cpu"]) == set(child["rows"])
    for times in (child["rows"], child["cpu"]):
        assert all(math.isfinite(s) and s > 0 for s in times.values()), times


def test_memory_child_measures_every_row(bench_layers):
    # the kept tables of the input domain: S's rows 0..N/2 and dz_w, 1.5
    # fields (3 while P and the whole S were stored)
    for row in bench_layers.MEMORY_ROWS:
        child = bench_layers._memory_child(64, row)
        assert (child["N"], child["row"]) == (64, row)
        assert math.isfinite(child["fields"]) and child["fields"] > 0
        assert math.isfinite(child["kept"])
        if row in ("solve_dbar", "sweep.linear9", "sweep.cli"):
            assert child["kept"] <= 1.6, (row, child)


def test_the_coefficient_row_reads_what_a_coefficient_holds(bench_layers):
    # raw (one field) and mu_ext on its box: 1.38 fields at N = 64, 2.0
    # while mu_ext was a whole field
    assert "coefficient" in bench_layers.MEMORY_ROWS
    child = bench_layers._memory_child(64, "coefficient")
    assert 1.0 < child["fields"] <= 1.45, child
    assert child["kept"] <= 0.01, child


# The sweep's peaks at N = 64, in fields: 15.97 and 19.41 measured while
# each d-bar result keeps its rhs on the support box of u only; 17.25 and
# 27.58 while each kept its whole rhs, with the regularity report keeping
# Omega's box of each solution it still reads and the linear series on five
# box buffers; 19.22 and 28.70 while the report kept whole solutions and the
# series eight buffers.
SWEEP_CEILINGS = {"sweep.cli": 17.6, "sweep.linear9": 19.8}


@pytest.mark.parametrize("row", sorted(SWEEP_CEILINGS))
def test_sweep_peaks_stay_under_their_ceilings(bench_layers, row):
    child = bench_layers._memory_child(64, row)
    assert child["fields"] <= SWEEP_CEILINGS[row], child


# The same peaks at N = 256, where the linear series runs the two applies of
# a term side by side on two apply buffers (``grid._pair``): 16.18 and
# 12.37-12.68 fields measured, against 15.97 and 12.48 with one buffer.
# numpy's strided ufuncs allocate a fixed 128 KiB buffer per operand, 0.125
# fields at N = 256, and the two jobs' buffers are live at once.  The margin,
# half a field, is under the one field of another apply buffer.
PAIRED_SWEEP_CEILINGS = {"sweep.cli": 13.2, "sweep.linear9": 16.7}


@pytest.mark.parametrize("row", sorted(PAIRED_SWEEP_CEILINGS))
def test_paired_sweep_peaks_stay_under_their_ceilings(bench_layers, monkeypatch, row):
    from beltrami import family, grid
    monkeypatch.setattr(grid, "_usable_cpus", lambda: 2)
    pairs, pair = [], family._pair
    monkeypatch.setattr(family, "_pair", lambda *jobs: (pairs.append(1), pair(*jobs)))
    child = bench_layers._memory_child(256, row)
    assert pairs
    assert child["fields"] <= PAIRED_SWEEP_CEILINGS[row], child


@pytest.mark.parametrize("baseline, change, changed", [
    ([32.12, 32.18], [32.56, 32.63], False),   # apart by 0.38 MB: under the floor
    ([48.2, 48.4], [49.0, 49.3], True),
    ([49.0, 49.3], [48.2, 48.4], True),
    ([48.2, 49.3], [48.9, 49.5], False),       # overlapping spreads
])
def test_cli_rss_rows_change_only_beyond_the_noise_floor(bench_layers, baseline,
                                                         change, changed):
    assert bench_layers.RSS_FLOOR_MB == 0.5
    assert bench_layers._rss_changed(baseline, change) is changed
