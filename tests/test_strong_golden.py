"""Golden SHA-256 digests of d-bar solves on a strong, non-symmetric mu.

mu_0 is a constant plus a Gaussian bump, both turned by e^(2 i THETA), the
bump centred off the origin, scaled to sup|mu_0| = 0.8: the shape of the
family-strong-n256 benchmark inputs, at N = 128.  The datum is the disc
indicator with a unit complex amplitude.  The digests pin, bit for bit,
every entry of a 9-point linear sweep (the power series), ``solve_dbar`` on
mu_0, and ``solve_dbar_form`` on mu_0 with a moving-frame and a
background-frame form.  Each digest covers f's samples, the rhs samples and
the diagnostics (iterations, residuals and the trace as exact float reprs).
Two more cover the sweep's regularity report: its adjacent differences with
the Lipschitz constant, and its extrapolation gaps.

The digests depend on numpy's FFT rounding, so they are compared only on
the setup they were recorded on (numpy version and machine).  A change that
moves results on purpose re-records them by running this module as a script
from the repository root, and says why:

    PYTHONPATH=src python3 tests/test_strong_golden.py
"""

import cmath
import hashlib
import platform

import numpy as np
import pytest

from beltrami import (
    BeltramiField,
    ComplexField,
    FamilySpec,
    OneFormField,
    SolverConfig,
    builtin_field,
    constant_field,
    solve_dbar,
    solve_dbar_form,
    solve_family,
)

from conftest import disc_domain

RECORDED_ON = {"numpy": "2.4.6", "machine": "x86_64"}
THETA, PHASE = 0.7, 2.1
EIGHTHS = tuple(k / 8 for k in range(9))

GOLDEN = {
    "sweep/0": "b6a506fe5bd73473294ac1ccdcede45dea0e0d4aeebaba833bcd57ca9a49cc71",
    "sweep/1": "5acfca3499c35063b6c8ac256eae4826446dda9fcfff90fc19b5de39fe484fce",
    "sweep/2": "76225c16c459ab90e93596af75af6ac7c7e7ce595b77e3ac22207d6182f0a4ed",
    "sweep/3": "d2e51f169400d435ff8aef886cab7322f6ce2cc26eff7eef0c55cc4f4cfa2c08",
    "sweep/4": "3f198909afa305a5d7fcb2af0e8259c069503d4f3cadccf1a0417d0fb1a9e4ab",
    "sweep/5": "77d1ea83911b50792f7fca2d453ac93a7620f3092e194ec83283e80bcbb18bc7",
    "sweep/6": "4b99fc6cc2b9d5508d72f2a2a402ebb1d22024f24da6c6e4bda24edbf65fcb62",
    "sweep/7": "583efd3c901f96cbfbf41ac48d5b2e9b14b031f68f9d4afba8eb3a1041815cea",
    "sweep/8": "6da5ef4cc4f118e70f4f154717e12324c35b269e263a26caea99b99c914097cd",
    "sweep/differences": "6fcbe0a14994e1b33cc78f86e964545799145bd8730474eb1e8d869f4bacfd43",
    "sweep/gaps": "b8967dff729b83167be9634e40792e560f6bc17a4d5f22a23246f139ad4c1a05",
    "solve_dbar": "10f1d90fcc67bd9ffa8f7d04f7c0f1efde1f59bc68c407922d8dd2016daa6336",
    "solve_dbar_form/moving": "10f1d90fcc67bd9ffa8f7d04f7c0f1efde1f59bc68c407922d8dd2016daa6336",
    "solve_dbar_form/background": "0dc1dc3d28c378ddc88cbb29a6d7f0931fa1bbd9573be4e590dde3683b022b28",
}


def _inputs():
    dom = disc_domain(128)
    turn = cmath.exp(2j * THETA)
    center = 0.3 * cmath.exp(1j * THETA)
    raw = constant_field(dom, 0.85 * turn) + builtin_field(
        {"kind": "gaussian-bump", "amplitude": [(0.15 * turn).real, (0.15 * turn).imag],
         "center": [center.real, center.imag], "width": 0.6}, dom)
    raw = raw * (0.8 / BeltramiField.from_raw(raw).sup_norm)
    amplitude = cmath.exp(1j * PHASE)
    u = builtin_field({"kind": "disc-indicator",
                       "amplitude": [amplitude.real, amplitude.imag]}, dom)
    return BeltramiField.from_raw(raw), u


def _digest(result) -> str:
    d = result.diagnostics
    h = hashlib.sha256(result.f.samples.tobytes())
    h.update(result.rhs.samples.tobytes())
    h.update(repr((d.iterations, d.neumann_residual, d.interior_residual,
                   d.moving_frame_residual, d.trace)).encode())
    return h.hexdigest()


def _digests() -> dict:
    mu, u = _inputs()
    cfg = SolverConfig()
    out = {}
    sweep = solve_family(FamilySpec(mu, EIGHTHS), [u] * 9, cfg)
    for i, entry in enumerate(sweep.entries):
        out[f"sweep/{i}"] = _digest(entry.result)
    differences = (sweep.adjacent_differences, sweep.lipschitz_constant)
    out["sweep/differences"] = hashlib.sha256(repr(differences).encode()).hexdigest()
    out["sweep/gaps"] = hashlib.sha256(
        repr(sweep.extrapolation_errors).encode()).hexdigest()
    out["solve_dbar"] = _digest(solve_dbar(mu, u, cfg))
    zero = constant_field(u.domain, 0.0)
    moving = OneFormField("moving", zero, u, mu=mu)
    out["solve_dbar_form/moving"] = _digest(solve_dbar_form(mu, moving, cfg))
    # (conj(mu) v) dz + v dzbar is (0,1) for mu: its moving (1,0) part is 0
    v = ComplexField(u.domain, np.conj(mu.extended.samples) * u.samples)
    background = OneFormField("background", v, u)
    out["solve_dbar_form/background"] = _digest(solve_dbar_form(mu, background, cfg))
    return out


def test_strong_mu_solves_match_their_golden_digests():
    setup = {"numpy": np.__version__, "machine": platform.machine()}
    if setup != RECORDED_ON:
        pytest.skip(f"digests recorded on {RECORDED_ON}, running on {setup}")
    assert _digests() == GOLDEN


if __name__ == "__main__":
    for key, value in _digests().items():
        print(f'    "{key}": "{value}",')
