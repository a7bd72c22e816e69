"""Binary field format, CSV reports, and PGM heatmaps.

Field binary format (all little-endian):

    bytes 0-7    magic "CPXFIELD"
    bytes 8-11   u32 format version (1)
    bytes 12-15  reserved, zero
    bytes 16-19  u32 N (samples per axis)
    bytes 20-27  f64 L (rectangle half-width)
    then N*N (re, im) f64 pairs, row-major

The subdomain and margin are not part of the format; readers supply the
DomainSpec (the CLI keeps it in the run's config copy).  Heatmaps are 8-bit
binary PGM (P5), one for |field| and one for arg(field), rows in grid order,
linearly scaled with the min/max recorded in a sidecar text file.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import FieldFormatError, ValidationError
from .grid import ComplexField, DomainSpec, _row_blocks

MAGIC = b"CPXFIELD"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<8sI4x")
_DIMS = struct.Struct("<Id")


def _write_header(fh, domain: DomainSpec) -> None:
    fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION))
    fh.write(_DIMS.pack(domain.resolution, domain.half_width))


def write_field(path, field: ComplexField) -> None:
    """Write a field in the binary format (bit-exact round trip).  On a
    little-endian host the samples are written from their own buffer."""
    with open(path, "wb") as fh:
        _write_header(fh, field.domain)
        fh.write(np.ascontiguousarray(field.samples, dtype="<c16"))


def _write_field_on_box(path, domain: DomainSpec, on_box: tuple) -> None:
    """Write the field that is ``samples`` on the (rows, cols) ``box`` and
    +0 off it, given as ``on_box`` = (box, samples) (a d-bar result's
    ``rhs_on_box``): the bytes ``write_field`` writes of the whole field,
    which is never formed.  Each of the grid's row blocks (``_row_blocks``)
    is written from one reused buffer: zeros, with the box rows in it."""
    (rows, cols), samples = on_box
    n = domain.resolution
    every = slice(0, n)
    buffer = np.empty((next(_row_blocks(every, n)).stop, n), dtype="<c16")
    with open(path, "wb") as fh:
        _write_header(fh, domain)
        for block in _row_blocks(every, n):
            part = buffer[:block.stop - block.start]
            part.fill(0)
            lo, hi = max(block.start, rows.start), min(block.stop, rows.stop)
            if lo < hi:
                part[lo - block.start:hi - block.start, cols] = samples[
                    lo - rows.start:hi - rows.start]
            fh.write(part)


def read_field_raw(path) -> tuple[int, float, np.ndarray]:
    """Read (N, L, samples) from a binary field file, the samples bit for
    bit as written."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size + _DIMS.size:
        raise FieldFormatError(f"{path}: truncated header")
    magic, version = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise FieldFormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise FieldFormatError(f"{path}: unsupported version {version}")
    n, half_width = _DIMS.unpack_from(raw, _HEADER.size)
    offset = _HEADER.size + _DIMS.size
    expected = n * n * 16
    if len(raw) - offset != expected:
        raise FieldFormatError(
            f"{path}: expected {expected} payload bytes, found {len(raw) - offset}"
        )
    # the payload starts 28 bytes in, off the alignment of complex samples;
    # arithmetic on an aligned copy runs faster
    samples = np.frombuffer(raw, "<c16", offset=offset).reshape(n, n).copy()
    return n, half_width, samples


def read_field(path, domain: DomainSpec) -> ComplexField:
    """Read a field and attach the given DomainSpec (must match N and L)."""
    n, half_width, samples = read_field_raw(path)
    if n != domain.resolution or half_width != domain.half_width:
        raise ValidationError(
            f"{path}: file grid (N={n}, L={half_width}) does not match the "
            f"domain (N={domain.resolution}, L={domain.half_width})"
        )
    return ComplexField(domain, samples)


def _to_pgm_bytes(values: np.ndarray) -> tuple[bytes, float, float]:
    lo = float(np.min(values))
    hi = float(np.max(values))
    if hi > lo:
        scaled = np.round(255.0 * (values - lo) / (hi - lo)).astype(np.uint8)
    else:
        scaled = np.zeros(values.shape, dtype=np.uint8)
    n_rows, n_cols = values.shape
    header = f"P5\n{n_cols} {n_rows}\n255\n".encode()
    return header + scaled.tobytes(), lo, hi


def write_pgm_heatmaps(directory, name: str, field: ComplexField) -> None:
    """Write <name>_abs.pgm, <name>_arg.pgm and a min/max sidecar."""
    directory = Path(directory)
    magnitude, mag_lo, mag_hi = _to_pgm_bytes(np.abs(field.samples))
    phase, arg_lo, arg_hi = _to_pgm_bytes(np.angle(field.samples))
    (directory / f"{name}_abs.pgm").write_bytes(magnitude)
    (directory / f"{name}_arg.pgm").write_bytes(phase)
    (directory / f"{name}_scale.txt").write_text(
        f"abs_min {mag_lo:.17g}\nabs_max {mag_hi:.17g}\n"
        f"arg_min {arg_lo:.17g}\narg_max {arg_hi:.17g}\n"
    )


def write_residual_trace_csv(path, trace) -> None:
    with open(path, "w") as fh:
        fh.write("iteration,residual\n")
        for k, r in enumerate(trace, start=1):
            fh.write(f"{k},{r:.17g}\n")


def write_family_report_csv(path, report) -> None:
    """Columns: b, iterations, residual, adjacent-difference, extrapolation-error.

    ``report`` is a sweep's regularity report (``family._Regularity``), one
    row per grid point.  Its values are keyed by entry position, not by b, so
    a grid that repeats a parameter labels every row with its own values.
    """
    with open(path, "w") as fh:
        fh.write("b,iterations,residual,adjacent_difference,extrapolation_error\n")
        for i, (b, diag) in enumerate(zip(report.grid, report.diagnostics)):
            if diag is None:
                fh.write(f"{b:.17g},,,,\n")
                continue
            adj = report.differences.get(i)
            ext = report.gaps.get(i)
            fh.write(f"{b:.17g},{diag.iterations},"
                     f"{diag.interior_residual:.17g},"
                     f"{'' if adj is None else format(adj[2], '.17g')},"
                     f"{'' if ext is None else format(ext[1], '.17g')}\n")


def write_exhaustion_trace_csv(path, trace) -> None:
    """Columns: step, radius, iterations, correction_sup, budget."""
    with open(path, "w") as fh:
        fh.write("step,radius,iterations,correction_sup,budget\n")
        for s in trace.steps:
            fh.write(f"{s.step},{s.radius:.17g},{s.iterations},"
                     f"{s.correction_sup:.17g},{s.budget:.17g}\n")
