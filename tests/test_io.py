import numpy as np
import pytest

from beltrami import (
    BeltramiField,
    ComplexField,
    DomainSpec,
    Disc,
    FieldFormatError,
    SolverConfig,
    ValidationError,
    builtin_field,
    constant_field,
    read_field,
    read_field_raw,
    solve_dbar,
    write_field,
    write_pgm_heatmaps,
)
from beltrami.family import _Regularity
from beltrami.io import (
    _write_field_on_box,
    write_exhaustion_trace_csv,
    write_family_report_csv,
    write_residual_trace_csv,
)

from conftest import smooth_random_field


def _regularity(sweep, order=None):
    """The regularity report of a solved sweep, its entries added in
    ``order`` (grid order by default)."""
    report = _Regularity(tuple(e.b for e in sweep.entries))
    for i in range(len(sweep.entries)) if order is None else order:
        report.add(i, sweep.entries[i])
    return report


def test_binary_roundtrip_bitwise(dom64, tmp_path):
    f = smooth_random_field(dom64, seed=30)
    path = tmp_path / "f.field"
    write_field(path, f)
    back = read_field(path, dom64)
    assert np.array_equal(back.samples, f.samples)
    n, half_width, raw = read_field_raw(path)
    assert n == 64 and half_width == 3.0
    assert np.array_equal(raw, f.samples)


def test_binary_roundtrip_keeps_every_signed_zero(tmp_path):
    # every row of the field holds the 16 numbers whose real and imaginary
    # parts are 0.0, -0.0, 1.0 or -1.0, -0.0 + 1j among them
    dom = DomainSpec(3.0, 16, Disc(0j, 1.0), 0.8)
    parts = (0.0, -0.0, 1.0, -1.0)
    values = [complex(re, im) for re in parts for im in parts]
    samples = np.resize(np.array(values), (16, 16))
    path = tmp_path / "zeros.field"
    write_field(path, ComplexField(dom, samples))
    _, _, back = read_field_raw(path)
    assert np.array_equal(np.signbit(back.real), np.signbit(samples.real))
    assert np.array_equal(np.signbit(back.imag), np.signbit(samples.imag))
    assert np.array_equal(back, samples)


@pytest.mark.parametrize("datum, box_rows", [
    ({"kind": "constant", "value": 0.0}, 0),
    ({"kind": "disc-indicator"}, None),
    ({"kind": "constant", "value": [0.5, -0.25]}, 128),
], ids=["empty-box", "partial-box", "whole-grid-box"])
def test_rhs_written_from_its_box_has_the_bytes_of_the_whole_rhs(dom128, tmp_path,
                                                                 datum, box_rows):
    # N = 128 tiles the grid in four row blocks, so the box starts and ends
    # inside blocks; the mu is complex, so the rhs holds signed zeros
    mu = BeltramiField.from_raw(constant_field(dom128, 0.2 - 0.1j))
    result = solve_dbar(mu, builtin_field(datum, dom128), SolverConfig())
    (rows, cols), samples = result.rhs_on_box
    if box_rows is None:
        assert 0 < rows.start and rows.stop < 128 and 0 < cols.start
    else:
        assert rows.stop - rows.start == box_rows
    whole, boxed = tmp_path / "whole.field", tmp_path / "boxed.field"
    write_field(whole, result.rhs)
    _write_field_on_box(boxed, dom128, result.rhs_on_box)
    assert boxed.read_bytes() == whole.read_bytes()


def test_binary_header_layout(dom64, tmp_path):
    f = constant_field(dom64, 1 + 2j)
    path = tmp_path / "f.field"
    write_field(path, f)
    blob = path.read_bytes()
    assert blob[:8] == b"CPXFIELD"
    assert int.from_bytes(blob[8:12], "little") == 1
    assert blob[12:16] == b"\x00" * 4
    assert int.from_bytes(blob[16:20], "little") == 64
    assert len(blob) == 16 + 12 + 64 * 64 * 16


def test_binary_rejects_garbage(tmp_path, dom64):
    p = tmp_path / "bad.field"
    p.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(FieldFormatError):
        read_field_raw(p)
    p.write_bytes(b"\x01")
    with pytest.raises(FieldFormatError):
        read_field_raw(p)


def test_binary_truncated_payload(tmp_path, dom64):
    f = constant_field(dom64, 1.0)
    p = tmp_path / "f.field"
    write_field(p, f)
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(FieldFormatError):
        read_field_raw(p)


def test_read_field_domain_mismatch(tmp_path, dom64):
    f = constant_field(dom64, 1.0)
    p = tmp_path / "f.field"
    write_field(p, f)
    other = DomainSpec(3.0, 128, Disc(0j, 1.0), 0.8)
    with pytest.raises(ValidationError):
        read_field(p, other)


def test_pgm_heatmaps(tmp_path, dom64):
    f = smooth_random_field(dom64, seed=31)
    write_pgm_heatmaps(tmp_path, "f", f)
    blob = (tmp_path / "f_abs.pgm").read_bytes()
    header = b"P5\n64 64\n255\n"
    assert blob.startswith(header)
    assert len(blob) == len(header) + 64 * 64
    scale = (tmp_path / "f_scale.txt").read_text()
    assert "abs_min" in scale and "arg_max" in scale
    # row order matches grid rows: brightest pixel index agrees with argmax
    body = np.frombuffer(blob[len(header):], dtype=np.uint8).reshape(64, 64)
    assert np.unravel_index(np.argmax(body), body.shape) == \
        np.unravel_index(np.argmax(np.abs(f.samples)), (64, 64))


def test_pgm_constant_field(tmp_path, dom64):
    write_pgm_heatmaps(tmp_path, "c", constant_field(dom64, 1.0))
    blob = (tmp_path / "c_abs.pgm").read_bytes()
    body = blob[len(b"P5\n64 64\n255\n"):]
    assert set(body) == {0}  # degenerate range maps to zeros


def test_trace_csv_writers(tmp_path):
    write_residual_trace_csv(tmp_path / "t.csv", (1.0, 0.5, 0.25))
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[0] == "iteration,residual"
    assert lines[1] == "1,1"
    assert len(lines) == 4


def test_family_csv_writer(tmp_path, dom64):
    from beltrami import BeltramiField, FamilySpec, constant_field, solve_family
    from beltrami import disc_indicator_field
    mu = BeltramiField.from_raw(constant_field(dom64, 0.3))
    sweep = solve_family(FamilySpec(mu, (0.0, 0.5, 1.0)),
                         [disc_indicator_field(dom64)] * 3, SolverConfig())
    write_family_report_csv(tmp_path / "fam.csv", _regularity(sweep))
    lines = (tmp_path / "fam.csv").read_text().splitlines()
    assert lines[0] == "b,iterations,residual,adjacent_difference,extrapolation_error"
    assert len(lines) == 4


@pytest.mark.parametrize("grid, adjacent_rows", [
    ((0.25, 0.5, 0.25), (1, 2)),    # the first row has no predecessor
    ((0.25, 0.5, 0.5), (1,)),       # the repeated pair has no difference
])
def test_family_csv_keys_columns_by_position(tmp_path, grid, adjacent_rows):
    from beltrami import BeltramiField, FamilySpec, solve_family
    from beltrami import disc_indicator_field
    dom = DomainSpec(3.0, 32, Disc(0j, 1.0), 0.8)
    mu = BeltramiField.from_raw(constant_field(dom, 0.3))
    sweep = solve_family(FamilySpec(mu, grid), [disc_indicator_field(dom)] * 3,
                         SolverConfig())
    write_family_report_csv(tmp_path / "fam.csv", _regularity(sweep))
    rows = [line.split(",")
            for line in (tmp_path / "fam.csv").read_text().splitlines()[1:]]
    assert [float(r[0]) for r in rows] == list(grid)
    diffs = [format(d, ".17g") for _, _, d, _ in sweep.adjacent_differences]
    assert len(diffs) == len(adjacent_rows)
    for i, row in enumerate(rows):
        expected = diffs[adjacent_rows.index(i)] if i in adjacent_rows else ""
        assert row[3] == expected, (i, row)
        assert row[4] == ""


def test_family_csv_extrapolation_column_on_a_uniform_grid(tmp_path, dom64):
    from beltrami import BeltramiField, FamilySpec, solve_family
    from beltrami import disc_indicator_field
    mu = BeltramiField.from_raw(constant_field(dom64, 0.3))
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    sweep = solve_family(FamilySpec(mu, grid), [disc_indicator_field(dom64)] * 5,
                         SolverConfig())
    write_family_report_csv(tmp_path / "fam.csv", _regularity(sweep))
    rows = [line.split(",")
            for line in (tmp_path / "fam.csv").read_text().splitlines()[1:]]
    assert [r[4] for r in rows] == ["", "", ""] + [
        format(gap, ".17g") for _, gap in sweep.extrapolation_errors]
    assert [r[3] for r in rows] == [""] + [
        format(d, ".17g") for _, _, d, _ in sweep.adjacent_differences]


def test_family_csv_is_the_same_whatever_order_the_entries_arrive_in(tmp_path,
                                                                     dom64):
    """Entries that arrive early are held until those before them arrive, so
    every row gets the values of its own grid position."""
    from beltrami import BeltramiField, FamilySpec, solve_family
    from beltrami import disc_indicator_field
    mu = BeltramiField.from_raw(constant_field(dom64, 0.3))
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    sweep = solve_family(FamilySpec(mu, grid), [disc_indicator_field(dom64)] * 5,
                         SolverConfig())
    texts = []
    for order in (None, (4, 3, 2, 1, 0), (2, 0, 4, 1, 3)):
        report = _regularity(sweep, order)
        assert report.summary() == (sweep.adjacent_differences,
                                    sweep.lipschitz_constant,
                                    sweep.extrapolation_errors)
        write_family_report_csv(tmp_path / "fam.csv", report)
        texts.append((tmp_path / "fam.csv").read_text())
    assert texts[1:] == texts[:1] * 2


def test_exhaustion_csv_writer(tmp_path, dom256):
    from beltrami import BeltramiField, constant_field, disc_indicator_field
    from beltrami import exhaustion_solve
    mu = BeltramiField.from_raw(constant_field(dom256, 0.0))
    u = disc_indicator_field(dom256, radius=0.25, width=0.5)
    _, trace = exhaustion_solve(mu, u, [1.0, 1.5], 6)
    write_exhaustion_trace_csv(tmp_path / "steps.csv", trace)
    lines = (tmp_path / "steps.csv").read_text().splitlines()
    assert lines[0] == "step,radius,iterations,correction_sup,budget"
    assert len(lines) == 3
