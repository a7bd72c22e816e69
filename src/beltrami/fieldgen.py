"""Named test-field generators used by the CLI and the test corpus.

Every generator is deterministic in its parameters.  Field specs are plain
dicts (the CLI config format): {"kind": ..., parameters...}.  Complex scalars
are given either as a number or as a two-element [re, im] list.  Every number
is read through ``grid._real``: non-numbers, bools and non-finite values raise
ValidationError.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import ValidationError
from .grid import ComplexField, DomainSpec, _geometry, _real, transition_profile

DEFAULT_INDICATOR_WIDTH = 0.3


def _check_keys(spec: dict, allowed, what: str) -> None:
    """Refuse the keys of a config object that its reader does not read."""
    unknown = sorted(set(spec) - set(allowed))
    if unknown:
        raise ValidationError(f"unknown {what} keys {unknown}")


def _as_complex(value, what: str) -> complex:
    """A finite complex scalar from a number or an [re, im] pair."""
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ValidationError(f"{what} needs [re, im], got {value!r}")
        re, im = value
    elif isinstance(value, numbers.Complex) and not isinstance(value, numbers.Real):
        re, im = value.real, value.imag
    else:
        return complex(_real(value, what))
    return complex(_real(re, f"{what} re"), _real(im, f"{what} im"))


def constant_field(domain: DomainSpec, value: complex) -> ComplexField:
    return ComplexField(domain, np.full((domain.resolution,) * 2,
                                        _as_complex(value, "constant value"),
                                        dtype=np.complex128))


def disc_indicator_field(domain: DomainSpec, amplitude: complex = 1.0,
                         radius: float | None = None,
                         width: float = DEFAULT_INDICATOR_WIDTH) -> ComplexField:
    """Smoothed indicator of a centered disc, taper centered on its boundary.

    The profile is 1 inside radius - width/2, 0 outside radius + width/2, so
    the midpoint-rule mass matches pi * radius^2 to O(width^2) -- within 1%
    for the default width.  The radius defaults to the Omega disc's.
    """
    if radius is None:
        from .grid import Disc
        if not isinstance(domain.omega, Disc):
            raise ValidationError("disc-indicator needs a radius for Rect domains")
        radius = domain.omega.radius
    radius = _real(radius, "disc-indicator radius")
    width = _real(width, "disc-indicator width")
    # width == 2*radius degenerates the flat part to the center point, which
    # is the compactly supported bump profile; wider than that is invalid
    if width <= 0 or width > 2 * radius:
        raise ValidationError(f"indicator width {width!r} out of range")
    z = _geometry(domain).coordinates()
    rho = np.abs(z - (domain.omega.center if hasattr(domain.omega, "center") else 0))
    profile = 1.0 - transition_profile((rho - (radius - width / 2)) / width)
    return ComplexField(domain,
                        _as_complex(amplitude, "disc-indicator amplitude") * profile)


def gaussian_bump_field(domain: DomainSpec, amplitude: complex = 1.0,
                        center: complex = 0j, width: float = 0.4) -> ComplexField:
    """amplitude * exp(-|z - center|^2 / width^2), margin-tapered.

    The cutoff factor gives exact compact support; the peak sits where the
    cutoff is 1, so the sup-norm equals |amplitude|.
    """
    width = _real(width, "gaussian-bump width")
    if width <= 0:
        raise ValidationError("gaussian width must be positive")
    center = _as_complex(center, "gaussian-bump center")
    amplitude = _as_complex(amplitude, "gaussian-bump amplitude")
    g = _geometry(domain)
    bump = np.exp(-np.abs(g.coordinates() - center) ** 2 / width ** 2)
    return ComplexField(domain, amplitude * bump * g.cutoff)


def linear_coordinate_field(domain: DomainSpec, coefficient: complex) -> ComplexField:
    """c * z; as a Beltrami raw coefficient this is mu(z) = c*z."""
    z = _geometry(domain).coordinates()
    return ComplexField(domain, _as_complex(coefficient, "linear-z coefficient") * z)


# kind -> (generator, its parameters in order with their config defaults);
# a spec with any other key is refused
_KINDS = {
    "constant": (constant_field, {"value": 0.0}),
    "disc-indicator": (disc_indicator_field, {
        "amplitude": 1.0, "radius": None, "width": DEFAULT_INDICATOR_WIDTH}),
    "gaussian-bump": (gaussian_bump_field, {
        "amplitude": 1.0, "center": 0.0, "width": 0.4}),
    "linear-z": (linear_coordinate_field, {"coefficient": 0.0}),
}


def builtin_field(spec: dict, domain: DomainSpec) -> ComplexField:
    """Construct a named field from a config spec dict.

    Kinds: constant {value}, disc-indicator {amplitude, radius, width},
    gaussian-bump {amplitude, center, width}, linear-z {coefficient},
    file {path} (the binary field format).  Any other key is refused.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValidationError(f"field spec must be a dict with a 'kind', got {spec!r}")
    kind = spec["kind"]
    if kind == "file":
        from .io import read_field
        _check_keys(spec, ("kind", "path"), "file field spec")
        if not isinstance(spec.get("path"), str):
            raise ValidationError(
                f"file field spec needs a 'path' string, got {spec.get('path')!r}")
        return read_field(spec["path"], domain)
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValidationError(f"unknown field kind {kind!r}")
    build, defaults = _KINDS[kind]
    _check_keys(spec, ("kind", *defaults), f"{kind} field spec")
    return build(domain, *(spec.get(key, value) for key, value in defaults.items()))

