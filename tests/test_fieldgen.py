import numpy as np
import pytest

from beltrami import (
    Rect,
    DomainSpec,
    ValidationError,
    builtin_field,
    constant_field,
    disc_indicator_field,
    gaussian_bump_field,
    linear_coordinate_field,
    make_coordinate_field,
    write_field,
)


def test_constant_zero(dom64):
    f = constant_field(dom64, 0.0)
    assert np.all(f.samples == 0.0)


def test_constant_complex_value(dom64):
    f = builtin_field({"kind": "constant", "value": [0.3, -0.1]}, dom64)
    assert np.all(f.samples == 0.3 - 0.1j)


def test_disc_indicator_area(dom256):
    # midpoint mass of the boundary-centered taper matches pi r^2 within 1%
    u = disc_indicator_field(dom256)
    area = float(np.sum(u.samples.real)) * dom256.spacing ** 2
    assert abs(area - np.pi) / np.pi <= 0.01


def test_disc_indicator_plateau_and_support(dom256):
    u = disc_indicator_field(dom256, radius=1.0, width=0.3)
    z = make_coordinate_field(dom256).samples
    rho = np.abs(z)
    assert np.all(u.samples[rho <= 1.0 - 0.15] == 1.0)
    assert np.all(u.samples[rho >= 1.0 + 0.15] == 0.0)


def test_disc_indicator_validation(dom64):
    with pytest.raises(ValidationError):
        disc_indicator_field(dom64, width=-0.1)
    with pytest.raises(ValidationError):
        disc_indicator_field(dom64, radius=0.2, width=0.5)
    rect_dom = DomainSpec(3.0, 64, Rect(-1, -1, 1, 1), 0.5)
    with pytest.raises(ValidationError):
        disc_indicator_field(rect_dom)  # needs explicit radius


def test_gaussian_sup_norm_is_amplitude(dom128):
    amp = 0.37
    f = gaussian_bump_field(dom128, amplitude=amp, width=0.4)
    assert np.max(np.abs(f.samples)) == pytest.approx(amp, abs=0)


def test_linear_z(dom64):
    c = 0.3 - 0.1j
    f = linear_coordinate_field(dom64, c)
    z = make_coordinate_field(dom64)
    assert np.array_equal(f.samples, c * z.samples)


def test_builtin_dispatch(dom64):
    assert np.all(builtin_field({"kind": "constant", "value": 0}, dom64).samples == 0)
    u = builtin_field({"kind": "disc-indicator", "radius": 0.5, "width": 0.2}, dom64)
    assert np.max(np.abs(u.samples)) == 1.0
    g = builtin_field({"kind": "gaussian-bump", "amplitude": 2.0}, dom64)
    assert np.max(np.abs(g.samples)) == pytest.approx(2.0)
    lz = builtin_field({"kind": "linear-z", "coefficient": [0.0, 1.0]}, dom64)
    assert lz.samples[0, 0] == 1j * make_coordinate_field(dom64).samples[0, 0]


def test_builtin_file_roundtrip(dom64, tmp_path):
    f = gaussian_bump_field(dom64, 1.0)
    path = tmp_path / "u.field"
    write_field(path, f)
    back = builtin_field({"kind": "file", "path": str(path)}, dom64)
    assert np.array_equal(back.samples, f.samples)


def test_builtin_unknown_kind(dom64):
    with pytest.raises(ValidationError):
        builtin_field({"kind": "mystery"}, dom64)
    with pytest.raises(ValidationError):
        builtin_field({"no": "kind"}, dom64)
    with pytest.raises(ValidationError):
        builtin_field({"kind": "file"}, dom64)


@pytest.mark.parametrize("spec", [
    {"kind": "constant", "value": "0.1"},
    {"kind": "constant", "value": [0.1, None]},
    {"kind": "constant", "value": complex(float("inf"), 0)},
    {"kind": "disc-indicator", "radius": "0.5"},
    {"kind": "disc-indicator", "width": False},
    {"kind": "disc-indicator", "amplitude": float("inf")},
    {"kind": "gaussian-bump", "width": "x"},
    {"kind": "gaussian-bump", "amplitude": ["x", 0]},
    {"kind": "gaussian-bump", "center": [float("nan"), 0]},
    {"kind": "linear-z", "coefficient": {"re": 1}},
    {"kind": "file", "path": 5},
])
def test_field_spec_numbers_are_checked(dom64, spec):
    with pytest.raises(ValidationError):
        builtin_field(spec, dom64)


def test_field_spec_numbers_accept_numpy_scalars(dom64):
    ref = disc_indicator_field(dom64, amplitude=1.0, radius=1.0, width=0.5)
    f = disc_indicator_field(dom64, amplitude=np.float32(1.0),
                             radius=np.int64(1), width=np.float32(0.5))
    assert np.array_equal(f.samples, ref.samples)
    g = gaussian_bump_field(dom64, amplitude=np.complex64(1 + 0j),
                            center=np.float64(0.0), width=np.float32(0.5))
    assert np.array_equal(g.samples,
                          gaussian_bump_field(dom64, width=0.5).samples)
    assert constant_field(dom64, np.int64(1)).samples[0, 0] == 1


def test_complex_scalar_parsing(dom64):
    with pytest.raises(ValidationError):
        builtin_field({"kind": "constant", "value": [1, 2, 3]}, dom64)
    with pytest.raises(ValidationError):
        builtin_field({"kind": "constant", "value": "one"}, dom64)
