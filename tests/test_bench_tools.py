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
    assert {"beurling.pruned", "cauchy.full", "solve_dbar", "sweep.linear9"} <= set(
        child["rows"])
    assert all(math.isfinite(s) and s > 0 for s in child["rows"].values())


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
