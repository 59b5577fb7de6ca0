"""Fast invariant battery covering every subsystem.

Each check returns (name, passed, detail); `pstokes-lab selftest` prints
one line per check and maps any failure to exit code 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import potential as pot
from .grid import (
    Grid,
    ScalarField,
    VectorField,
    div_vec_values,
    grad_scalar_values,
    lp_norm,
    sym_grad_values,
)
from .noise import NoiseSpec, PathRng, apply_G, sample_increment
from .projection import BogovskiiOperator, HelmholtzProjector
from .potential import PotentialParams
from .runner import initial_velocity
from .seminorms import OrliczSpec, SampledPath, besov_seminorm, luxemburg_norm
from .stepping import SolverConfig, Stepper

__all__ = ["CheckResult", "run_battery", "format_table"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _l2(g, values):
    return lp_norm(ScalarField(g, values), 2)


def _inner(g, a, b):
    return float(g.cell_area * np.sum(a * b))


def _potential_checks(rng):
    out = []
    for p, kappa in ((1.5, 0.5), (2.0, 0.0), (2.5, 0.01), (3.0, 1.0)):
        params = PotentialParams(p, kappa)
        t = rng.uniform(0.0, 10.0, 200)
        lhs = pot.phi(params, 2.0 * t)
        rhs = 2.0**p * pot.phi(PotentialParams(p, kappa / 2.0), t)
        err = np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300))
        out.append(CheckResult(f"potential scaling identity p={p}", err < 1e-12, f"rel err {err:.2e}"))
        kt = kappa + t
        lower = kt**p / (2.0 * p) - (2.0 ** (p - 1.0) - 1.0) * kappa**p / (p * (p - 1.0))
        upper = kt**p / p + kappa**p / (p * (p - 1.0))
        phi_t = pot.phi(params, t)
        ok = np.all(phi_t <= upper + 1e-12 * np.abs(upper)) and np.all(
            phi_t >= lower - 1e-12 * np.maximum(np.abs(lower), 1.0)
        )
        out.append(CheckResult(f"potential power sandwich p={p}", bool(ok), ""))
        xi = np.moveaxis(rng.standard_normal((200, 2, 2)), 0, -1)  # field layout
        s_dot = np.sum(pot.s_tensor(params, xi) * xi, axis=(0, 1))
        v_sq = np.sum(pot.v_tensor(params, xi) ** 2, axis=(0, 1))
        err = np.max(np.abs(s_dot - v_sq) / np.maximum(v_sq, 1e-300))
        out.append(CheckResult(f"S:xi equals |V|^2 p={p}", err < 1e-12, f"rel err {err:.2e}"))
    x = np.array([0.5, 0.49, 0.25])  # phi's switch point t = kappa/2 and below
    for p in (1.5, 2.5, 3.0, 4.2):
        closed = (1.0 + x) ** p / p - (1.0 + x) ** (p - 1.0) / (p - 1.0) + 1.0 / (p * (p - 1.0))
        err = np.max(np.abs(pot._phi_series(p, 1.0, x) / closed - 1.0))
        out.append(CheckResult(f"phi series meets closed form p={p}", err < 1e-12, f"rel err {err:.2e}"))
    return out


def _grid_checks(rng):
    out = []
    g = Grid(16)
    D = g.diff_1d
    q = rng.standard_normal((16, 16))
    v = rng.standard_normal((2, 16, 16))
    grad_q = grad_scalar_values(D, q)
    lhs = _inner(g, grad_q, v)
    rhs = -_inner(g, q, div_vec_values(D, v))
    err = abs(lhs - rhs) / (_l2(g, q) * _l2(g, v))
    out.append(CheckResult("grad/div adjointness", err < 1e-13, f"rel err {err:.2e}"))
    w = rng.standard_normal((2, 16, 16))
    lin = sym_grad_values(D, 2.0 * v + 3.0 * w)
    err = np.max(np.abs(lin - 2.0 * sym_grad_values(D, v) - 3.0 * sym_grad_values(D, w)))
    out.append(CheckResult("operator linearity", err < 1e-12, f"abs err {err:.2e}"))
    c = np.full((16, 16), 2.5)
    out.append(CheckResult("constant-field L2 norm", abs(_l2(g, c) - 2.5) < 1e-13, ""))
    return out


def _projection_checks(rng):
    out = []
    g = Grid(16)
    D = g.diff_1d
    proj = HelmholtzProjector(g)
    v = rng.standard_normal((2, 16, 16))
    div_free, gradient, _ = proj.project_values(v)
    pyth = abs(_l2(g, v) ** 2 - _l2(g, div_free) ** 2 - _l2(g, gradient) ** 2) / _l2(g, v) ** 2
    out.append(CheckResult("projection Pythagoras", pyth < 1e-12, f"{pyth:.2e}"))
    again = proj.project_values(div_free)[0]
    idem = _l2(g, again - div_free) / max(_l2(g, div_free), 1e-300)
    out.append(CheckResult("projection idempotence", idem < 1e-10, f"{idem:.2e}"))
    nonexp = _l2(g, div_free) <= _l2(g, v) * (1.0 + 1e-12)
    out.append(CheckResult("projection nonexpansive", bool(nonexp), ""))
    bog = BogovskiiOperator(g)
    q = rng.standard_normal((16, 16))
    q -= q.mean()
    w = bog.apply(ScalarField(g, q)).values
    res = _l2(g, div_vec_values(D, w) - q) / _l2(g, q)
    out.append(CheckResult("Bogovskii right inverse", res < 1e-10, f"{res:.2e}"))
    vv = rng.standard_normal((2, 16, 16))
    adj = abs(_inner(g, bog.adjoint_apply(VectorField(g, vv)).values, q) - _inner(g, vv, w))
    adj /= _l2(g, vv) * _l2(g, q)
    out.append(CheckResult("Bogovskii adjoint identity", adj < 1e-10, f"{adj:.2e}"))
    # B* grad q = -q on mean-free q: the stepper's pressures rely on it
    bstar_grad = bog.adjoint_apply(VectorField(g, grad_scalar_values(D, q))).values
    pot_err = _l2(g, bstar_grad + q) / _l2(g, q)
    out.append(CheckResult(
        "Bogovskii adjoint of a gradient is minus its potential", pot_err < 1e-10, f"{pot_err:.2e}"
    ))
    return out


def _noise_checks(rng):
    out = []
    g = Grid(16)
    spec = NoiseSpec(g, 8, flavor="divergence-free")
    worst = max(_l2(g, div_vec_values(g.diff_1d, spec.modes[j])) for j in range(8))
    out.append(CheckResult("divergence-free noise modes", worst < 1e-10, f"{worst:.2e}"))
    a = sample_increment(PathRng(11, 5), 0.25, 8)
    b = sample_increment(PathRng(11, 5), 0.25, 8)
    out.append(
        CheckResult("path replay determinism", bool(np.array_equal(a, b)), "")
    )
    u = rng.standard_normal((2, 16, 16))
    spec_m = NoiseSpec(g, 8, flavor="mixed")
    d1 = sample_increment(PathRng(1, 0), 0.5, 8)
    d2 = sample_increment(PathRng(2, 0), 0.5, 8)
    lin = apply_G(spec_m, u, 2.0 * d1 + 3.0 * d2)
    err = np.max(np.abs(lin - 2.0 * apply_G(spec_m, u, d1) - 3.0 * apply_G(spec_m, u, d2)))
    out.append(CheckResult("noise linearity in increment", err < 1e-13, f"{err:.2e}"))
    return out


def _stepper_checks():
    out = []
    g = Grid(8)
    cfg = SolverConfig(dt=1e-2, T=5e-2, newton_tol=1e-20, cg_tol=1e-12)
    stepper = Stepper(g, PotentialParams(3.0, 0.0), cfg)
    u0 = initial_velocity(g, "curl", 1.0)
    traj = stepper.run_path(u0, PathRng(0, 0))
    mono = bool(np.all(np.diff(traj.energy) <= 0.0))
    out.append(CheckResult("zero-noise energy dissipation", mono and traj.completed, ""))
    st2 = Stepper(g, PotentialParams(2.0, 0.0), cfg)
    u, _ = st2.step(u0[:, None], None)
    div_worst = _l2(g, div_vec_values(g.diff_1d, u[:, 0]))
    out.append(
        CheckResult("step preserves divergence-free", div_worst < 1e-10, f"{div_worst:.2e}")
    )
    return out


def _seminorm_checks():
    out = []
    path = SampledPath(np.full(65, 4.0), dt=1.0 / 64)  # spans [0, 1]
    lux = luxemburg_norm(path, OrliczSpec.phi2())
    exact = 4.0 / np.sqrt(np.log(2.0))
    out.append(
        CheckResult(
            "Luxemburg constant-path closed form",
            abs(lux - exact) / exact < 1e-9,
            f"{lux:.6f} vs {exact:.6f}",
        )
    )
    vals = np.sin(np.arange(256) / 17.0)
    p1 = SampledPath(vals, dt=1.0 / 255)
    lux1 = luxemburg_norm(p1, OrliczSpec.power(3))
    lux2 = luxemburg_norm(SampledPath(5.0 * vals, dt=1.0 / 255), OrliczSpec.power(3))
    out.append(
        CheckResult(
            "Luxemburg homogeneity",
            abs(lux2 - 5.0 * lux1) / (5.0 * lux1) < 1e-10,
            "",
        )
    )
    rep = besov_seminorm(SampledPath(np.full(64, 1.0), 1.0 / 64), 0.5, OrliczSpec.power(2))
    out.append(CheckResult("constant path has zero seminorm", rep.degenerate, ""))
    return out


def run_battery():
    rng = np.random.default_rng(20240817)
    checks = []
    checks.extend(_potential_checks(rng))
    checks.extend(_grid_checks(rng))
    checks.extend(_projection_checks(rng))
    checks.extend(_noise_checks(rng))
    checks.extend(_stepper_checks())
    checks.extend(_seminorm_checks())
    return checks


def format_table(checks) -> str:
    width = max(len(c.name) for c in checks)
    lines = []
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        detail = f"  {c.detail}" if c.detail else ""
        lines.append(f"{c.name.ljust(width)}  {status}{detail}")
    n_fail = sum(not c.passed for c in checks)
    lines.append(f"{len(checks)} checks, {n_fail} failures")
    return "\n".join(lines)
