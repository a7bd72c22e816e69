"""Golden SHA-256 digests of d-bar solves on a strong, non-symmetric mu.

mu_0 is a constant plus a Gaussian bump, both turned by e^(2 i THETA), the
bump centred off the origin, scaled to sup|mu_0| = 0.8: the shape of the
family-strong-n256 benchmark inputs, at N = 128.  The datum is the disc
indicator with a unit complex amplitude.  The digests pin, bit for bit,
every entry of a 9-point linear sweep (the power series), ``solve_dbar`` on
mu_0, and ``solve_dbar_form`` on mu_0 with a moving-frame and a
background-frame form.  Each result has two digests: ``<key>/solution``
covers f's samples and the diagnostics (iterations, residuals and the trace
as exact float reprs), ``<key>/rhs`` the rhs samples plus 0.0.  Adding 0.0
turns a -0 into +0 and leaves every other value as it is: a result keeps
its rhs on the support box of u only and reads +0 off it, where the product
(1 - |mu|^2) conj(g) u once stored the sign of u's own zeros.  Two more
digests cover the sweep's regularity report: its adjacent differences with
the Lipschitz constant, and its extrapolation gaps.  The ``constant-u``
digests pin the rhs bytes, signed zeros included, of solves whose datum is
a nonzero constant, so that the support box is the whole grid.

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
    "sweep/0/solution": "c35783a590c51ed382fd0b7156514a402400ef6f049e46677671c17e14ebee56",
    "sweep/0/rhs": "d461d45ac049f5233bb08c373c2ea81841df65c4abdf043f0cbb8384d9ea3a04",
    "sweep/1/solution": "f7482f8983459e29bd0bbce104cb5b29ad3c1a205645dc330f3e0e82a1c052fa",
    "sweep/1/rhs": "ae81d86154b05cfaa08e9d0fb89309812820fe059c24231c6b69db11d482ff05",
    "sweep/2/solution": "9456a2890c345cbe93cf0eac47ff41072b1fd3b7bcf7485be48f4aa98c2c0cae",
    "sweep/2/rhs": "25f2213b3a4de515cf147fad12aabbb0538f70b1fd307eb31c829bbfbe26b49d",
    "sweep/3/solution": "39f29a79c47f4357c68a25073afed98ab4a94b876171367d519cc81fd4e942dd",
    "sweep/3/rhs": "082e4910f36d6dd70c7f53e2ba3d758adbfa5d9999dacf3c67eb20d307c17f0b",
    "sweep/4/solution": "569fb5b2fc3aa45970dbb115af3e21d7349574aae703c018a2c34e3f566d7953",
    "sweep/4/rhs": "e3da1ca29f8d288dc004619cf18d4b2fc4abd95a469a37d58a4b26601ca3a699",
    "sweep/5/solution": "fa67cb4e6d9f0aaec884d190955ed28a611c4ac7c269f3326caad2a49ad4af2e",
    "sweep/5/rhs": "5aba5fdd0d63c1ad836775e3908cf6bcbc93fb67c77f5a0f6c7cf73965f598c5",
    "sweep/6/solution": "00a1e353b602107b533842294856587e96c1614e8a14b5418e2a98953dc6cb6f",
    "sweep/6/rhs": "a3c91056d560f3c24cf0c9dfedb248108dee1502c6b20318a448b54766c66c0a",
    "sweep/7/solution": "3a91f7e86db48ed110762b8f49263cb3a11f87d70cca422639550a8d3ccb99af",
    "sweep/7/rhs": "9df7ecd5738b621cefb83ff2ec53400347cc62c01bd45f8c405651018e29198b",
    "sweep/8/solution": "50dff806f32317601891e7232ba86187f2717b86e227a901d4250f46d135aee0",
    "sweep/8/rhs": "293291c7402b2a15212a20900588f034a69b9235b1265e218f23a56acabc79e6",
    "sweep/differences": "6fcbe0a14994e1b33cc78f86e964545799145bd8730474eb1e8d869f4bacfd43",
    "sweep/gaps": "b8967dff729b83167be9634e40792e560f6bc17a4d5f22a23246f139ad4c1a05",
    "solve_dbar/solution": "3647dce592866ad74b2602ef6c62d1e3ab2b3ddd3298030f7499e4b8b9e7112d",
    "solve_dbar/rhs": "a6ca5713d0793f9c7ad1b585b0874ee52af410e9a9dfe58090ea4e0aa804d8be",
    "solve_dbar_form/moving/solution": "3647dce592866ad74b2602ef6c62d1e3ab2b3ddd3298030f7499e4b8b9e7112d",
    "solve_dbar_form/moving/rhs": "a6ca5713d0793f9c7ad1b585b0874ee52af410e9a9dfe58090ea4e0aa804d8be",
    "solve_dbar_form/background/solution": "6ea54a3016857cdb1a2fa903f88ce48e5bfd8828794188b62744ad40470f8cdd",
    "solve_dbar_form/background/rhs": "80901a35cdb57c0a673ad35809381a05ab62dc6b6fbc6c765ab51bf158e63868",
    "constant-u/sweep/0/rhs": "c9e5d7d493f31ceeaeb99ec6ef2b67ff936c4419e1df6cb1dffead2c5bf4e9e6",
    "constant-u/sweep/1/rhs": "c1c7617a4f7b91327ebbdccc04ec6361a0ce5064eb68cdfc90594fed40cae7b8",
    "constant-u/sweep/2/rhs": "f22de07f680ee596fe87eeb6872888132f70fc7bab626187b9a4102e0b8e4980",
    "constant-u/solve_dbar/rhs": "80cfba48b7afdb823144a3e8b444197d781a1b598e28bc65655eeb5371042fc5",
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


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _add_digests(out: dict, key: str, result) -> None:
    d = result.diagnostics
    diagnostics = repr((d.iterations, d.neumann_residual, d.interior_residual,
                        d.moving_frame_residual, d.trace)).encode()
    out[f"{key}/solution"] = _sha256(result.f.samples.tobytes() + diagnostics)
    out[f"{key}/rhs"] = _sha256((result.rhs.samples + 0.0).tobytes())


def _digests() -> dict:
    mu, u = _inputs()
    cfg = SolverConfig()
    out = {}
    sweep = solve_family(FamilySpec(mu, EIGHTHS), [u] * 9, cfg)
    for i, entry in enumerate(sweep.entries):
        _add_digests(out, f"sweep/{i}", entry.result)
    differences = (sweep.adjacent_differences, sweep.lipschitz_constant)
    out["sweep/differences"] = _sha256(repr(differences).encode())
    out["sweep/gaps"] = _sha256(repr(sweep.extrapolation_errors).encode())
    _add_digests(out, "solve_dbar", solve_dbar(mu, u, cfg))
    zero = constant_field(u.domain, 0.0)
    moving = OneFormField("moving", zero, u, mu=mu)
    _add_digests(out, "solve_dbar_form/moving", solve_dbar_form(mu, moving, cfg))
    # (conj(mu) v) dz + v dzbar is (0,1) for mu: its moving (1,0) part is 0
    v = ComplexField(u.domain, np.conj(mu.extended.samples) * u.samples)
    background = OneFormField("background", v, u)
    _add_digests(out, "solve_dbar_form/background",
                 solve_dbar_form(mu, background, cfg))
    constant = constant_field(u.domain, 0.25 * cmath.exp(1j * PHASE))
    halves = solve_family(FamilySpec(mu, (0.0, 0.5, 1.0)), [constant] * 3, cfg)
    for i, entry in enumerate(halves.entries):
        out[f"constant-u/sweep/{i}/rhs"] = _sha256(entry.result.rhs.samples.tobytes())
    out["constant-u/solve_dbar/rhs"] = _sha256(
        solve_dbar(mu, constant, cfg).rhs.samples.tobytes())
    return out


def test_strong_mu_solves_match_their_golden_digests():
    setup = {"numpy": np.__version__, "machine": platform.machine()}
    if setup != RECORDED_ON:
        pytest.skip(f"digests recorded on {RECORDED_ON}, running on {setup}")
    assert _digests() == GOLDEN


if __name__ == "__main__":
    for key, value in _digests().items():
        print(f'    "{key}": "{value}",')
