"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; the heavy sample-path experiments are shared session fixtures.
"""

import os
import time

import numpy as np
import pytest

from pstokeslab.config import ExperimentConfig, RunManifest
from pstokeslab.grid import (
    Grid,
    ScalarField,
    TensorField,
    VectorField,
    div_tensor_values,
    div_vec_values,
    grad_vec_values,
    lp_norm,
)
from pstokeslab.noise import NoiseSpec
from pstokeslab.potential import (
    PotentialParams,
    hessian_coeffs,
    phi,
    s_tensor,
    v_tensor,
)
from pstokeslab.projection import BogovskiiOperator, HelmholtzProjector
from pstokeslab.runner import (
    initial_velocity,
    run_experiment,
    series_path,
    wiener_dichotomy_study,
)
from pstokeslab.seminorms import OrliczSpec, SampledPath, fit_exponent
from pstokeslab.analysis import load_diffs, path_indices
from pstokeslab.stepping import SolverConfig, Stepper

from oracles import (
    inequality_report,
    l2_inner,
    l2_norm,
    ito_isometry_check,
    report_for_quantity,
    wiener_refinement_ratios,
)


def announce(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {criterion}] {status}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------
# heavy shared runs (criteria 7-10)
# ---------------------------------------------------------------------

BASE = dict(
    grid_n=16, p=2.5, kappa=0.01, T=0.125, noise_modes=16,
    noise_decay=2.0, noise_rho="one", u0_kind="zero", workers=2,
)


@pytest.fixture(scope="session")
def heavy_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    runs, elapsed = {}, {}
    plans = {
        "A": dict(kind="velocity_regularity", dt=2.0**-12, paths=64,
                  master_seed=7001, noise_flavor="mixed"),
        "A_fine": dict(kind="velocity_regularity", dt=2.0**-13, paths=64,
                       master_seed=7002, noise_flavor="mixed"),
        "G": dict(kind="pressure_regularity", dt=2.0**-12, paths=32,
                  master_seed=7003, noise_flavor="gradient"),
        "G_fine": dict(kind="pressure_regularity", dt=2.0**-13, paths=32,
                       master_seed=7004, noise_flavor="gradient"),
        "D": dict(kind="pressure_regularity", dt=2.0**-12, paths=8,
                  master_seed=7005, noise_flavor="divergence-free"),
        "zero": dict(kind="velocity_regularity", dt=2.0**-12, paths=1,
                     master_seed=7006, noise_modes=0, u0_kind="curl"),
    }
    for name, plan in plans.items():
        cfg_kw = dict(BASE)
        cfg_kw.update(plan)
        cfg_kw["out_dir"] = str(root / name)
        cfg = ExperimentConfig(**cfg_kw)
        t0 = time.time()
        manifest = run_experiment(cfg)
        elapsed[name] = time.time() - t0
        assert manifest.status == "ok", f"run {name} failed: {manifest.status}"
        runs[name] = cfg.out_dir
    return {"runs": runs, "elapsed": elapsed}


def median_report(run_dir, quantity, alpha, spec):
    """Across-path medians of the sup-report and fitted slope."""
    manifest = RunManifest.read(run_dir)
    dt = float(manifest.config["dt"])
    n_steps = int(round(float(manifest.config["T"]) / dt))
    sups, slopes = [], []
    for index in path_indices(run_dir):
        diffs = load_diffs(run_dir, index)
        rep = report_for_quantity(diffs[quantity], dt, n_steps, alpha, spec)
        sups.append(rep.sup_approx)
        fit = fit_exponent(rep)
        if not fit.degenerate:
            slopes.append(fit.slope)
    return float(np.median(sups)), float(np.median(slopes)) if slopes else float("nan")


# ---------------------------------------------------------------------
# criterion 1: algebraic identity suite
# ---------------------------------------------------------------------

def test_criterion_1_algebraic_identities():
    t0 = time.time()
    rng = np.random.default_rng(42)
    n_samples = 10000
    worst = 0.0

    for p, kappa in ((1.5, 0.5), (2.0, 1.0), (2.5, 0.01), (3.0, 0.0), (4.5, 2.0)):
        t = rng.uniform(0.0, 10.0, n_samples)
        lhs = phi(PotentialParams(p, kappa), 2.0 * t)
        rhs = 2.0**p * phi(PotentialParams(p, kappa / 2.0), t)
        worst = max(worst, np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)))

        kt = kappa + t
        lower = kt**p / (2 * p) - (2 ** (p - 1) - 1) * kappa**p / (p * (p - 1))
        upper = kt**p / p + kappa**p / (p * (p - 1))
        vals = phi(PotentialParams(p, kappa), t)
        sandwich_ok = np.all(
            vals <= upper * (1 + 1e-12) + 1e-12
        ) and np.all(vals >= lower - 1e-12 * np.maximum(np.abs(lower), 1.0))
        assert sandwich_ok, f"power sandwich violated at p={p}, kappa={kappa}"

        xi = rng.standard_normal((n_samples, 2, 2)) * 10.0 ** rng.uniform(
            -2, 2, (n_samples, 1, 1)
        )
        xi = np.moveaxis(xi, 0, -1)  # the kernels' field layout (2, 2, samples)
        params = PotentialParams(p, kappa)
        s_dot = np.sum(s_tensor(params, xi) * xi, axis=(0, 1))
        v_sq = np.sum(v_tensor(params, xi) ** 2, axis=(0, 1))
        worst = max(worst, np.max(np.abs(s_dot - v_sq) / np.maximum(v_sq, 1e-300)))

    g = Grid(16)
    qs = rng.standard_normal((n_samples, 16, 16))
    vs = rng.standard_normal((n_samples, 2, 16, 16))
    D = g.diff_1d
    grad_q = np.stack([
        -np.einsum("ij,bjk->bik", D.T, qs),
        -np.einsum("bij,jk->bik", qs, D),
    ], axis=1)
    div_v = np.einsum("ij,bjk->bik", D, vs[:, 0]) + np.einsum(
        "bij,kj->bik", vs[:, 1], D
    )
    lhs = np.sum(grad_q * vs, axis=(1, 2, 3))
    rhs = -np.sum(qs * div_v, axis=(1, 2))
    # conditioning scale of the summed products on either side
    scale = np.maximum(
        np.sqrt(np.sum(grad_q**2, axis=(1, 2, 3)) * np.sum(vs**2, axis=(1, 2, 3))),
        np.sqrt(np.sum(qs**2, axis=(1, 2)) * np.sum(div_v**2, axis=(1, 2))),
    )
    worst = max(worst, np.max(np.abs(lhs - rhs) / scale))

    elapsed = time.time() - t0
    announce(
        1,
        worst < 1e-12 and elapsed < 30.0,
        f"worst relative identity error {worst:.2e} over {n_samples} samples each, "
        f"{elapsed:.1f}s (< 30s)",
    )


# ---------------------------------------------------------------------
# criterion 2: projection suite
# ---------------------------------------------------------------------

def test_criterion_2_projection_suite():
    t0 = time.time()
    rng = np.random.default_rng(43)
    worst_proj = 0.0
    worst_dual = 0.0
    worst_bog = 0.0
    for n in (16, 32):
        g = Grid(n)
        proj = HelmholtzProjector(g)
        bog = BogovskiiOperator(g)
        D = g.diff_1d

        def norm(x):
            return l2_norm(g, x)

        for _ in range(5):
            v = rng.standard_normal((2, n, n))
            div_free, gradient, _ = proj.project_values(v)
            nv2 = norm(v) ** 2
            pyth = abs(nv2 - norm(div_free) ** 2 - norm(gradient) ** 2) / nv2
            idem = norm(proj.project_values(div_free)[0] - div_free) / max(
                norm(div_free), 1e-300
            )
            nonexp = max(norm(div_free) / norm(v), norm(gradient) / norm(v)) - 1.0
            worst_proj = max(worst_proj, pyth, idem, nonexp)

            S = rng.standard_normal((2, 2, n, n))
            S = 0.5 * (S + S.transpose(1, 0, 2, 3))
            R = proj.project_values(div_tensor_values(D, S))[0]
            for _ in range(10):
                xi = rng.standard_normal((2, n, n))
                lhs = l2_inner(g, R, xi)
                rhs = -l2_inner(g, S, grad_vec_values(D, proj.project_values(xi)[0]))
                worst_dual = max(
                    worst_dual,
                    abs(lhs - rhs) / max(norm(S) * norm(xi), 1.0),
                )

            q = rng.standard_normal((n, n))
            q -= q.mean()
            w = bog.apply(ScalarField(g, q)).values
            worst_bog = max(worst_bog, norm(div_vec_values(D, w) - q) / norm(q))
    elapsed = time.time() - t0
    announce(
        2,
        worst_proj < 1e-8 and worst_dual < 1e-8 and worst_bog < 1e-8 and elapsed < 120.0,
        f"projection residuals {worst_proj:.2e}, duality {worst_dual:.2e}, "
        f"Bogovskii {worst_bog:.2e} on 16^2 and 32^2, {elapsed:.1f}s (< 2min)",
    )


# ---------------------------------------------------------------------
# criterion 3: equivalence-ratio brackets
# ---------------------------------------------------------------------

def test_criterion_3_equivalence_brackets():
    details = []
    ok = True
    for p in (1.5, 2.0, 3.0, 4.5):
        for kappa in (0.0, 1e-3, 1.0):
            rep = inequality_report(PotentialParams(p, kappa), 100000, rng_seed=4242)
            good = 0.0 < rep.ratio_min <= rep.ratio_max < np.inf
            if p == 2.0 and kappa == 0.0:
                good = good and rep.ratio_min >= 1.0 - 1e-12 and rep.ratio_max <= 1.0 + 1e-12
            ok = ok and good
            details.append(f"p={p},k={kappa}: [{rep.ratio_min:.3f},{rep.ratio_max:.3f}]")
    announce(3, ok, "; ".join(details))


# ---------------------------------------------------------------------
# criterion 4: linear cross-check against the dense implicit-Euler oracle
# ---------------------------------------------------------------------

def test_criterion_4_linear_crosscheck():
    t0 = time.time()
    g = Grid(8)
    dt = 1e-3
    cfg = SolverConfig(dt=dt, T=0.1, newton_tol=1e-26, cg_tol=1e-12)
    stepper = Stepper(g, PotentialParams(2.0, 0.0), cfg)
    zero_eps = np.zeros((2, 2, 8, 8))
    coeffs = hessian_coeffs(stepper.params, zero_eps)
    dim = 128

    def columns(fn):
        M = np.zeros((dim, dim))
        for c in range(dim):
            e = np.zeros(dim)
            e[c] = 1.0
            M[:, c] = fn(e.reshape(2, 8, 8)).ravel()
        return M

    A = columns(lambda w: stepper._hessian_apply(*coeffs, w))
    P = columns(stepper._project)
    M = np.eye(dim) + dt * (P @ A @ P)
    u = initial_velocity(g, "curl", 1.0)
    worst = 0.0
    for _ in range(100):
        u_next = stepper.step(u[:, None], None)[0][:, 0]
        oracle = np.linalg.solve(M, P @ u.ravel())
        worst = max(worst, float(np.max(np.abs(u_next.ravel() - oracle))))
        u = u_next
    elapsed = time.time() - t0
    announce(
        4,
        worst < 1e-8 and elapsed < 60.0,
        f"worst per-step mismatch {worst:.2e} over 100 steps, {elapsed:.1f}s (< 1min)",
    )


# ---------------------------------------------------------------------
# criterion 5: stochastic-integral second-moment identity
# ---------------------------------------------------------------------

def test_criterion_5_ito_isometry():
    t0 = time.time()
    g = Grid(16)
    spec = NoiseSpec(g, 16, rho="one", flavor="mixed")
    u = np.zeros((2, 16, 16))
    rep = ito_isometry_check(spec, u, dt=1.0 / 64, steps=64, paths=10000, rng_seed=99)
    elapsed = time.time() - t0
    announce(
        5,
        abs(rep.zscore) <= 3.0 and elapsed < 120.0,
        f"terminal moment {rep.terminal_mean:.5f} vs exact {rep.exact_second_moment:.5f} "
        f"(z = {rep.zscore:.2f}), sup/integral = {rep.sup_to_integral:.2f}, "
        f"{elapsed:.1f}s (< 2min)",
    )


# ---------------------------------------------------------------------
# criterion 6: Wiener dichotomy
# ---------------------------------------------------------------------

def test_criterion_6_wiener_dichotomy():
    t0 = time.time()
    rows = wiener_dichotomy_study(paths=64, master_seed=606, coarsest_exp=10, finest_exp=16)
    med_sup, med_quan = wiener_refinement_ratios(rows, 64)
    elapsed = time.time() - t0
    sup_ok = all(0.7 <= r <= 1.6 for r in med_sup)
    quan_ok = all(r >= 1.15 for r in med_quan)
    announce(
        6,
        sup_ok and quan_ok and elapsed < 300.0,
        f"phi2 sup ratios {[f'{r:.3f}' for r in med_sup]} in [0.7,1.6]; "
        f"quadratic quantity ratios {[f'{r:.3f}' for r in med_quan]} >= 1.15; "
        f"{elapsed:.1f}s (< 5min)",
    )


# ---------------------------------------------------------------------
# criteria 7-8: velocity and nonlinear-gradient temporal exponents
# ---------------------------------------------------------------------

def test_criterion_7_velocity_exponent(heavy_runs):
    runs, elapsed = heavy_runs["runs"], heavy_runs["elapsed"]
    _, slope = median_report(runs["A"], "u", 0.5, OrliczSpec.power(2))
    sup_coarse, _ = median_report(runs["A"], "u", 0.5, OrliczSpec.phi2())
    sup_fine, _ = median_report(runs["A_fine"], "u", 0.5, OrliczSpec.phi2())
    ratio = sup_fine / sup_coarse
    wall = elapsed["A"] + elapsed["A_fine"]
    announce(
        7,
        0.40 <= slope <= 0.60 and ratio <= 1.6 and wall < 1800.0,
        f"median velocity exponent {slope:.3f} in [0.40, 0.60]; "
        f"exponential sup-report refinement ratio {ratio:.3f} <= 1.6; "
        f"runs took {wall:.0f}s (< 30min)",
    )


def test_criterion_8_vgrad_exponent(heavy_runs):
    runs = heavy_runs["runs"]
    _, slope = median_report(runs["A"], "V", 0.5, OrliczSpec.power(2))
    announce(8, 0.35 <= slope <= 0.60, f"median strain-tensor exponent {slope:.3f} in [0.35, 0.60]")


# ---------------------------------------------------------------------
# criterion 9: pressure split
# ---------------------------------------------------------------------

def test_criterion_9_pressure_split(heavy_runs):
    runs = heavy_runs["runs"]
    sup_coarse, _ = median_report(runs["G"], "K", 0.5, OrliczSpec.power(4))
    sup_fine, _ = median_report(runs["G_fine"], "K", 0.5, OrliczSpec.power(4))
    ratio = sup_fine / sup_coarse

    # measured adjoint-composition constant on random stress fields
    g = Grid(16)
    proj = HelmholtzProjector(g)
    bog = BogovskiiOperator(g)
    stepper = Stepper(
        g, PotentialParams(2.5, 0.01), SolverConfig(dt=2.0**-12, T=2.0**-12)
    )
    rng = np.random.default_rng(909)
    p_conj = 2.5 / 1.5
    c_meas = 0.0
    for _ in range(50):
        S_vals = rng.standard_normal((2, 2, 16, 16))
        S_vals = 0.5 * (S_vals + S_vals.transpose(1, 0, 2, 3))
        div_s = div_tensor_values(g.diff_1d, S_vals)
        grad_part = div_s - stepper._project(div_s)
        pi = bog.adjoint_apply(VectorField(g, grad_part))
        c_meas = max(
            c_meas, lp_norm(pi, p_conj) / lp_norm(TensorField(g, S_vals), p_conj)
        )

    pi_ok = True
    pi_detail = []
    for name in ("G", "G_fine"):
        manifest = RunManifest.read(runs[name])
        for idx, summary in manifest.path_summary.items():
            bound = c_meas * (1.0 + summary["sup_stress_lpprime"])
            pi_ok = pi_ok and summary["sup_pressure_det_lpprime"] <= bound
        pi_detail.append(
            f"{name}: max pi {max(s['sup_pressure_det_lpprime'] for s in manifest.path_summary.values()):.3g}"
        )

    manifest_d = RunManifest.read(runs["D"])
    k_div_free = max(s["sup_k_sto_w12"] for s in manifest_d.path_summary.values())

    announce(
        9,
        ratio <= 1.6 and pi_ok and k_div_free <= 1e-8,
        f"integrated-pressure quartic sup ratio {ratio:.3f} <= 1.6; "
        f"pi_det bounded by measured constant {c_meas:.3f} ({'; '.join(pi_detail)}); "
        f"divergence-free-noise K_sto max {k_div_free:.2e} <= 1e-8",
    )


# ---------------------------------------------------------------------
# criterion 10: energy a priori monitor
# ---------------------------------------------------------------------

def test_criterion_10_energy_monitor(heavy_runs):
    runs = heavy_runs["runs"]
    ok = True
    details = []
    for name in ("A", "A_fine", "G", "G_fine", "D"):
        manifest = RunManifest.read(runs[name])
        for idx, summary in manifest.path_summary.items():
            bound = 1e3 * (summary["initial_energy"] + 1.0)
            ok = ok and summary["sup_energy"] <= bound
            ok = ok and summary["dissipation_integral"] <= bound
            ok = ok and np.isfinite(summary["dissipation_integral"])
        details.append(
            f"{name}: sup_J {max(s['sup_energy'] for s in manifest.path_summary.values()):.3g}"
        )
    series = np.genfromtxt(series_path(runs["zero"], 0), delimiter=",", names=True)
    monotone = bool(np.all(np.diff(np.atleast_1d(series["J"])) <= 0.0))
    ok = ok and monotone
    details.append(f"zero-noise exactly monotone: {monotone}")
    announce(10, ok, "; ".join(details))
