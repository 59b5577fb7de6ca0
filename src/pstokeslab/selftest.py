"""Fast invariant battery covering every subsystem.

Each check returns (name, passed, detail); the battery prints one line
per check and the CLI maps any failure to exit code 3.  A corruption
hook deliberately breaks the grad/div adjoint pairing so the negative
control can verify the battery actually detects defects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import potential as pot
from .grid import (
    Grid,
    ScalarField,
    VectorField,
    div_vec,
    grad_scalar,
    l2_inner,
    lp_norm,
    sym_grad,
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


def _grid_checks(rng, corrupt=None):
    out = []
    g = Grid(16)
    q = ScalarField(g, rng.standard_normal((16, 16)))
    v = VectorField(g, rng.standard_normal((2, 16, 16)))
    grad_q = grad_scalar(q)
    if corrupt == "adjointness":
        bad = grad_q.values.copy()
        bad[0, 3, 5] += 1e-3
        grad_q = VectorField(g, bad)
    lhs = l2_inner(grad_q, v)
    rhs = -l2_inner(q, div_vec(v))
    err = abs(lhs - rhs) / (lp_norm(q, 2) * lp_norm(v, 2))
    out.append(CheckResult("grad/div adjointness", err < 1e-13, f"rel err {err:.2e}"))
    w = VectorField(g, rng.standard_normal((2, 16, 16)))
    lin = sym_grad(VectorField(g, 2.0 * v.values + 3.0 * w.values)).values
    err = np.max(np.abs(lin - 2.0 * sym_grad(v).values - 3.0 * sym_grad(w).values))
    out.append(CheckResult("operator linearity", err < 1e-12, f"abs err {err:.2e}"))
    c = ScalarField(g, np.full((16, 16), 2.5))
    out.append(
        CheckResult("constant-field L2 norm", abs(lp_norm(c, 2) - 2.5) < 1e-13, "")
    )
    return out


def _projection_checks(rng):
    out = []
    g = Grid(16)
    proj = HelmholtzProjector(g)
    v = VectorField(g, rng.standard_normal((2, 16, 16)))
    parts = proj.leray_project(v)
    pyth = abs(
        lp_norm(v, 2) ** 2
        - lp_norm(parts.div_free, 2) ** 2
        - lp_norm(parts.gradient, 2) ** 2
    ) / lp_norm(v, 2) ** 2
    out.append(CheckResult("projection Pythagoras", pyth < 1e-12, f"{pyth:.2e}"))
    again = proj.project(parts.div_free)
    idem = lp_norm(again - parts.div_free, 2) / max(lp_norm(parts.div_free, 2), 1e-300)
    out.append(CheckResult("projection idempotence", idem < 1e-10, f"{idem:.2e}"))
    nonexp = lp_norm(parts.div_free, 2) <= lp_norm(v, 2) * (1.0 + 1e-12)
    out.append(CheckResult("projection nonexpansive", bool(nonexp), ""))
    bog = BogovskiiOperator(g)
    q = rng.standard_normal((16, 16))
    q -= q.mean()
    gq = ScalarField(g, q)
    w = bog.apply(gq)
    res = lp_norm(div_vec(w) - gq, 2) / lp_norm(gq, 2)
    out.append(CheckResult("Bogovskii right inverse", res < 1e-10, f"{res:.2e}"))
    vv = VectorField(g, rng.standard_normal((2, 16, 16)))
    adj = abs(l2_inner(bog.adjoint_apply(vv), gq) - l2_inner(vv, w))
    adj /= lp_norm(vv, 2) * lp_norm(gq, 2)
    out.append(CheckResult("Bogovskii adjoint identity", adj < 1e-10, f"{adj:.2e}"))
    # B* grad q = -q on mean-free q: the stepper's pressures rely on it
    pot_err = lp_norm(bog.adjoint_apply(grad_scalar(gq)) + gq, 2) / lp_norm(gq, 2)
    out.append(CheckResult(
        "Bogovskii adjoint of a gradient is minus its potential", pot_err < 1e-10, f"{pot_err:.2e}"
    ))
    return out


def _noise_checks(rng):
    out = []
    g = Grid(16)
    spec = NoiseSpec(g, 8, flavor="divergence-free")
    worst = max(
        lp_norm(div_vec(VectorField(g, spec.modes[j])), 2) for j in range(8)
    )
    out.append(CheckResult("divergence-free noise modes", worst < 1e-10, f"{worst:.2e}"))
    a = sample_increment(PathRng(11, 5), 0.25, 8)
    b = sample_increment(PathRng(11, 5), 0.25, 8)
    out.append(
        CheckResult("path replay determinism", bool(np.array_equal(a.z, b.z)), "")
    )
    u = VectorField(g, rng.standard_normal((2, 16, 16)))
    spec_m = NoiseSpec(g, 8, flavor="mixed")
    d1 = sample_increment(PathRng(1, 0), 0.5, 8)
    d2 = sample_increment(PathRng(2, 0), 0.5, 8)
    from .noise import WienerIncrement

    comb = WienerIncrement(0.5, 2.0 * d1.z + 3.0 * d2.z)
    lin = apply_G(spec_m, u, comb).values
    err = np.max(
        np.abs(
            lin
            - 2.0 * apply_G(spec_m, u, d1).values
            - 3.0 * apply_G(spec_m, u, d2).values
        )
    )
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
    div_worst = 0.0
    st2 = Stepper(g, PotentialParams(2.0, 0.0), cfg)
    u, _ = st2.step(u0, None)
    div_worst = lp_norm(div_vec(u), 2)
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


def run_battery(corrupt: str | None = None):
    rng = np.random.default_rng(20240817)
    checks = []
    checks.extend(_potential_checks(rng))
    checks.extend(_grid_checks(rng, corrupt=corrupt))
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
