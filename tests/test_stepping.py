import hashlib

import numpy as np
import pytest

from pstokeslab.grid import (
    Grid,
    VectorField,
    curl_values,
    div_tensor_values,
    div_vec_values,
    grad_vec_values,
    lp_norm,
    sym_grad_values,
)
from pstokeslab import potential, stepping
from pstokeslab.noise import NoiseSpec, PathRng, apply_G, sample_increment
from pstokeslab.potential import PotentialParams, energy, hessian_coeffs, s_tensor, v_tensor
from pstokeslab.projection import BogovskiiOperator, HelmholtzProjector
from pstokeslab.runner import initial_velocity
from pstokeslab.stepping import SolverConfig, StepError, Stepper

from oracles import l2_inner, l2_norm


@pytest.fixture(scope="module")
def grid8():
    return Grid(8)


@pytest.fixture(scope="module")
def grid16():
    return Grid(16)


def make_stepper(grid, p=2.0, kappa=0.0, dt=1e-3, T=None, spec=None, **kw):
    cfg = SolverConfig(dt=dt, T=T if T is not None else dt * 8, **kw)
    return Stepper(grid, PotentialParams(p, kappa), cfg, spec=spec)


def zeros(grid, *lead):
    """A zero field of one path on grid with the leading axes lead."""
    return np.zeros(lead + (grid.n, grid.n))


def step_one(stepper, u, dW):
    """step() on one path u (2, n, n) as a block of one, as run_path calls
    it; returns the path's next velocity and the report."""
    u_next, rep = stepper.step(u[:, None], None if dW is None else [dW])
    return u_next[:, 0], rep


def residual_and_pressure(stepper, u):
    """P div S(eps u) and pi_det of u, as run_path records them: on a
    block of one."""
    eps = sym_grad_values(stepper.grid.diff_1d, u[:, None])
    _, res, pi = stepper._stress_terms(eps, potential._frobenius(eps))
    return res[:, 0], pi[0]


def k_sto_step(stepper, K, u, dW):
    """accumulate_K_sto on a block of one path, as run_path calls it."""
    return stepper.accumulate_K_sto(K[None], u[:, None], [dW])[0]


def dense_operator(stepper, fn):
    n = stepper.grid.n
    dim = 2 * n * n
    M = np.zeros((dim, dim))
    for c in range(dim):
        e = np.zeros(dim)
        e[c] = 1.0
        M[:, c] = fn(e.reshape(2, n, n)).ravel()
    return M


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0, T=1.0)
    # NaN fails no `dt <= 0` test and reached round(T / dt)
    for dt, T in ((float("nan"), 1.0), (0.1, float("nan"))):
        with pytest.raises(ValueError, match="must be positive"):
            SolverConfig(dt=dt, T=T)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.3, T=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, T=1.0, newton_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, T=1.0, newton_max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, T=1.0, newton_tol=float("nan"))
    # cg_tol >= 1 or NaN would stop CG at 0 iterations, which the Newton
    # loop reads as convergence at the predictor
    for cg_tol in (1.0, 2.0, float("nan"), -1e-3):
        with pytest.raises(ValueError, match="cg_tol"):
            SolverConfig(dt=0.1, T=1.0, cg_tol=cg_tol)
    assert SolverConfig(dt=0.1, T=1.0, cg_tol=0.0).cg_tol == 0.0
    # inf passed the positivity tests: T = inf raised OverflowError in
    # round(), dt = inf gave 0 steps, newton_tol = inf stopped every step
    # unconverged after one iteration; kappa_reg of NaN or <= 0 reached
    # the Hessian at kappa = 0, p < 2
    inf, nan = float("inf"), float("nan")
    for key, value in (("dt", inf), ("T", inf), ("newton_tol", inf), ("kappa_reg", inf),
                       ("kappa_reg", nan), ("kappa_reg", 0.0), ("kappa_reg", -1.0)):
        settings = {"dt": 0.1, "T": 1.0, key: value}
        with pytest.raises(ValueError, match=f"^{key} must be positive and finite"):
            SolverConfig(**settings)
    assert SolverConfig(dt=0.125, T=1.0).n_steps == 8


def test_zero_state_is_stationary(grid8):
    stepper = make_stepper(grid8, p=2.5, kappa=0.01)
    u1, rep = step_one(stepper, zeros(grid8, 2), None)
    assert np.all(u1 == 0.0)


def test_step_takes_blocks_only(grid8):
    # a one-path (2, n, n) velocity would otherwise step as a block of n
    stepper = make_stepper(grid8, p=2.5, kappa=0.01)
    with pytest.raises(ValueError, match="block"):
        stepper.step(zeros(grid8, 2), None)


def test_step_is_descent(grid8):
    # the step's objective dt J(v) + 1/2 ||v - u0||^2 is no larger at u1
    # than at its start u0
    stepper = make_stepper(grid8, p=3.0, kappa=0.0, dt=1e-2)
    u0 = initial_velocity(grid8, "curl", 1.0)
    u1, _ = step_one(stepper, u0, None)

    def objective(v):
        J = energy(stepper.params, sym_grad_values(grid8.diff_1d, v), grid8.cell_area)
        return 1e-2 * J + 0.5 * l2_inner(grid8, v - u0, v - u0)

    assert objective(u1) <= objective(u0)


def test_line_search_stall_raises(grid8):
    # a CG direction that no step length along it can descend: the
    # stalled line search must fail the step, not report convergence
    class UphillStepper(Stepper):
        def _cg_solve(self, a1, a2, unit, g, dt, floor, tol):
            return -1e20 * g, 0

    cfg = SolverConfig(dt=1e-2, T=8e-2)
    stepper = UphillStepper(grid8, PotentialParams(3.0, 0.0), cfg)
    u0 = initial_velocity(grid8, "curl", 1.0)
    with pytest.raises(StepError, match="line search stalled.*gradient norm"):
        step_one(stepper, u0, None)


def test_p2_step_matches_dense_oracle(grid8):
    # implicit Euler for the linear case: (I + dt P A P) u1 = P u0
    stepper = make_stepper(grid8, p=2.0, kappa=0.0, dt=1e-3, newton_tol=1e-26, cg_tol=1e-12)
    zero_eps = np.zeros((2, 2, 8, 8))
    coeffs = hessian_coeffs(stepper.params, zero_eps)
    A = dense_operator(stepper, lambda w: stepper._hessian_apply(*coeffs, w))
    P = dense_operator(stepper, stepper._project)
    M = np.eye(128) + 1e-3 * (P @ A @ P)
    u = initial_velocity(grid8, "curl", 1.0)
    for _ in range(10):
        u_next, _ = step_one(stepper, u, None)
        oracle = np.linalg.solve(M, P @ u.ravel())
        assert np.max(np.abs(u_next.ravel() - oracle)) < 1e-8
        u = u_next


def test_strong_residual_zero(grid8):
    stepper = make_stepper(grid8, p=2.5, kappa=0.01)
    assert l2_norm(grid8, residual_and_pressure(stepper, zeros(grid8, 2))[0]) == 0.0


def test_strong_residual_eigenmode_collinearity(grid8):
    # dense eigen-decomposition oracle for the p=2 projected operator
    stepper = make_stepper(grid8, p=2.0, kappa=0.0)
    zero_eps = np.zeros((2, 2, 8, 8))
    coeffs = hessian_coeffs(stepper.params, zero_eps)
    A = dense_operator(stepper, lambda w: stepper._hessian_apply(*coeffs, w))
    P = dense_operator(stepper, stepper._project)
    PAP = P @ A @ P
    PAP = 0.5 * (PAP + PAP.T)
    lam, vecs = np.linalg.eigh(PAP)
    idx = np.argmax(lam)  # well-separated top eigenpair
    mode = vecs[:, idx]
    res = residual_and_pressure(stepper, mode.reshape(2, 8, 8))[0]
    expect = -lam[idx] * mode
    defect = np.linalg.norm(res.ravel() - expect) / np.linalg.norm(expect)
    assert defect < 1e-6


def test_strong_residual_duality(grid16):
    stepper = make_stepper(grid16, p=2.5, kappa=0.01)
    rng = np.random.default_rng(0)
    u = rng.standard_normal((2, 16, 16))
    res = residual_and_pressure(stepper, u)[0]
    D = grid16.diff_1d
    stress = s_tensor(stepper.params, sym_grad_values(D, u))
    for _ in range(20):
        stream = np.zeros((16, 16))
        stream[2:-2, 2:-2] = rng.standard_normal((12, 12))
        xi = curl_values(D, stream)
        lhs = l2_inner(grid16, res, xi)
        rhs = -l2_inner(grid16, stress, grad_vec_values(D, xi))
        assert abs(lhs - rhs) <= 1e-8 * max(l2_norm(grid16, stress) * l2_norm(grid16, xi), 1.0)


def test_pressure_det_zero(grid8):
    stepper = make_stepper(grid8, p=2.5, kappa=0.01)
    out = residual_and_pressure(stepper, zeros(grid8, 2))[1]
    assert np.all(out == 0.0)


def test_pressure_det_defining_identity(grid16):
    # <pi, div xi> = <S(eps u), grad((I-P) xi)> for arbitrary test fields
    stepper = make_stepper(grid16, p=2.5, kappa=0.01)
    rng = np.random.default_rng(1)
    u = 0.5 * rng.standard_normal((2, 16, 16))
    pi = residual_and_pressure(stepper, u)[1]
    assert abs(pi.mean()) < 1e-12
    D = grid16.diff_1d
    stress = s_tensor(stepper.params, sym_grad_values(D, u))
    for _ in range(20):
        xi = rng.standard_normal((2, 16, 16))
        grad_part = xi - stepper._project(xi)
        lhs = l2_inner(grid16, pi, div_vec_values(D, xi))
        rhs = l2_inner(grid16, stress, grad_vec_values(D, grad_part))
        assert abs(lhs - rhs) <= 1e-7 * max(l2_norm(grid16, stress) * l2_norm(grid16, xi), 1.0)


def test_pressure_kernel_case(grid16):
    # a stress whose divergence is already divergence-free produces no
    # pressure: rows built so that div T = curl(psi) exactly
    stepper = make_stepper(grid16, p=2.5, kappa=0.01)
    rng = np.random.default_rng(5)
    psi = np.zeros((16, 16))
    psi[2:-2, 2:-2] = rng.standard_normal((12, 12))
    D = grid16.diff_1d
    T = np.zeros((2, 2, 16, 16))
    T[0, 1] = psi
    T[1, 0] = -psi
    div_t = div_tensor_values(D, T)
    assert l2_norm(grid16, div_vec_values(D, div_t)) < 1e-11
    grad_part = div_t - stepper._project(div_t)
    pi = BogovskiiOperator(grid16).adjoint_apply(VectorField(grid16, grad_part))
    assert lp_norm(pi, 2) < 1e-10 * max(np.abs(div_t).max(), 1.0)


def test_k_sto_divfree_flavor_stays_zero(grid16):
    spec = NoiseSpec(grid16, 8, flavor="divergence-free")
    stepper = make_stepper(grid16, p=2.5, kappa=0.01, spec=spec)
    rng = PathRng(0, 0)
    K = zeros(grid16)
    u = initial_velocity(grid16, "curl", 1.0)
    for _ in range(10):
        dW = rng.standard_normal(8) * np.sqrt(1e-3)
        K = k_sto_step(stepper, K, u, dW)
    assert np.max(np.abs(K)) < 1e-12


def test_k_sto_zero_increment_keeps_k(grid16):
    spec = NoiseSpec(grid16, 8, flavor="gradient")
    stepper = make_stepper(grid16, p=2.5, kappa=0.01, spec=spec)
    K = np.random.default_rng(2).standard_normal((16, 16))
    K -= K.mean()
    out = k_sto_step(stepper, K, zeros(grid16, 2), np.zeros(8))
    assert np.max(np.abs(out - K)) < 1e-14


def test_k_sto_single_gradient_mode_matches_composition_oracle(grid16):
    # oracle: K increment = -B*((I-P) lambda_1 psi_1) * dW_1 assembled
    # from the standalone projector and Bogovskii operators
    spec = NoiseSpec(grid16, 1, flavor="gradient")
    stepper = make_stepper(grid16, p=2.5, kappa=0.01, spec=spec)
    z = np.array([0.7])
    K1 = k_sto_step(stepper, zeros(grid16), zeros(grid16, 2), z)
    forcing = spec.lambdas[0] * spec.modes[0] * z[0]
    grad_part = forcing - stepper._project(forcing)
    oracle = -BogovskiiOperator(grid16).adjoint_apply(VectorField(grid16, grad_part)).values
    assert np.max(np.abs(K1 - oracle)) < 1e-10


@pytest.mark.parametrize("flavor", ["mixed", "gradient"])
def test_additive_k_sto_matches_closed_form(grid16, flavor):
    # oracle: K(t) = -sum_j lambda_j B*((I-P) psi_j) W_j(t), assembled
    # from a standalone projector and a fresh Bogovskii operator
    spec = NoiseSpec(grid16, 8, flavor=flavor)
    stepper = make_stepper(grid16, p=2.5, kappa=0.01, spec=spec)
    rng = PathRng(5, 2)
    K = zeros(grid16)
    u = initial_velocity(grid16, "curl", 1.0)
    W = np.zeros(8)
    for _ in range(32):
        dW = sample_increment(rng, 1e-3, 8)
        K = k_sto_step(stepper, K, u, dW)
        W += dW
    projector = HelmholtzProjector(grid16)
    bog = BogovskiiOperator(grid16)
    bstar = np.array([
        bog.adjoint_apply(VectorField(grid16, projector.project_values(psi)[1])).values
        for psi in spec.modes
    ])
    closed = -np.tensordot(spec.lambdas * W, bstar, axes=(0, 0))
    assert np.linalg.norm(K - closed) < 1e-12 * np.linalg.norm(closed)


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_pressures_equal_bogovskii_adjoint_oracle(n):
    # pi_det and one multiplicative K increment, which the stepper takes
    # from Helmholtz potentials, against -B*((I-P) .) from a standalone
    # projector and Bogovskii operator
    grid = Grid(n)
    spec = NoiseSpec(grid, 8, rho="inv_one_plus_s2", flavor="mixed")
    stepper = make_stepper(grid, p=3.0, kappa=0.01, spec=spec)
    projector = HelmholtzProjector(grid)
    bog = BogovskiiOperator(grid)

    def oracle(v):
        grad_part = projector.project_values(v)[1]
        return -bog.adjoint_apply(VectorField(grid, grad_part)).values

    def rel(a, b):
        return np.linalg.norm(a - b) / np.linalg.norm(b)

    rng = np.random.default_rng(n)
    u = rng.standard_normal((2, n, n))
    stress = s_tensor(stepper.params, sym_grad_values(grid.diff_1d, u))
    expected = oracle(div_tensor_values(grid.diff_1d, stress))
    assert rel(residual_and_pressure(stepper, u)[1], expected) < 1e-12
    dW = sample_increment(PathRng(n, 0), 1e-3, 8)
    K1 = k_sto_step(stepper, zeros(grid), u, dW)
    assert rel(K1, oracle(apply_G(spec, u, dW))) < 1e-12


@pytest.mark.parametrize("rho, per_step", [("one", 1), ("inv_one_plus_s2", 2)])
def test_run_path_noise_and_bogovskii_calls_per_step(grid8, monkeypatch, rho, per_step):
    spec = NoiseSpec(grid8, 4, rho=rho, flavor="gradient")
    stepper = make_stepper(grid8, p=2.5, kappa=0.01, dt=1e-3, T=8e-3, spec=spec)
    calls = {"apply_G": 0, "bstar": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(stepping, "apply_G", counted("apply_G", stepping.apply_G))
    monkeypatch.setattr(
        BogovskiiOperator, "adjoint_apply",
        counted("bstar", BogovskiiOperator.adjoint_apply),
    )
    traj = stepper.run_path(initial_velocity(grid8, "curl", 1.0), PathRng(1, 0))
    assert traj.completed
    n_steps = stepper.config.n_steps
    assert calls["apply_G"] == per_step * n_steps
    # pi_det and K come from Helmholtz potentials: no Bogovskii solve
    assert calls["bstar"] == 0


def test_run_path_zero_everything(grid8):
    stepper = make_stepper(grid8, p=2.0, kappa=0.0, dt=1e-2, T=8e-2)
    traj = stepper.run_path(zeros(grid8, 2), PathRng(0, 0))
    assert traj.completed
    assert np.all(traj.energy == 0.0)
    assert np.all(traj.velocity_l2 == 0.0)


def test_run_path_zero_noise_energy_monotone(grid8):
    stepper = make_stepper(grid8, p=2.0, kappa=0.0, dt=1e-2, T=8e-2)
    traj = stepper.run_path(initial_velocity(grid8, "curl", 1.0), PathRng(0, 0))
    assert np.all(np.diff(traj.energy) <= 0.0)


def test_run_path_p3_dissipation_and_residual_bound(grid16):
    # monitored run: J decreases, strong residual stays within its
    # initial value (times 1.01 slack)
    cfg = SolverConfig(dt=1e-3, T=5e-2)
    stepper = Stepper(grid16, PotentialParams(3.0, 0.0), cfg)
    traj = stepper.run_path(initial_velocity(grid16, "curl", 1.0), PathRng(0, 0))
    assert traj.completed
    assert np.all(np.diff(traj.energy) <= 0.0)
    assert np.max(traj.residual_l2) <= 1.01 * traj.residual_l2[0]


def test_run_path_divergence_free_preserved(grid16):
    spec = NoiseSpec(grid16, 8, flavor="mixed")
    stepper = make_stepper(grid16, p=2.5, kappa=0.01, dt=1e-3, T=16e-3, spec=spec)
    traj = stepper.run_path(zeros(grid16, 2), PathRng(3, 1))
    assert traj.completed
    # recompute divergence of the final state via a fresh short run
    u = zeros(grid16, 2)
    rng = PathRng(3, 1)
    for _ in range(16):
        dW = sample_increment(rng, 1e-3, 8)
        u, _ = step_one(stepper, u, dW)
    div = div_vec_values(grid16.diff_1d, u)
    assert l2_norm(grid16, div) <= 1e-10 * (1.0 + l2_norm(grid16, u))


def test_run_path_replay_determinism(grid8):
    spec = NoiseSpec(grid8, 4, flavor="mixed")
    stepper = make_stepper(grid8, p=2.5, kappa=0.01, dt=1e-3, T=8e-3, spec=spec)
    t1 = stepper.run_path(zeros(grid8, 2), PathRng(9, 4))
    t2 = stepper.run_path(zeros(grid8, 2), PathRng(9, 4))
    assert np.array_equal(t1.energy, t2.energy)
    assert np.array_equal(t1.k_sto_w12, t2.k_sto_w12)
    for q in t1.diffs:
        for m in t1.diffs[q]:
            assert np.array_equal(t1.diffs[q][m], t2.diffs[q][m])


def test_run_path_rejects_bad_initial(grid8):
    stepper = make_stepper(grid8)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        stepper.run_path(rng.standard_normal((2, 8, 8)), PathRng(0, 0))


def test_gradient_matches_finite_differences(grid16):
    # validates the first variation of the per-step objective
    spec = NoiseSpec(grid16, 8, flavor="mixed")
    stepper = make_stepper(grid16, p=2.5, kappa=0.01, dt=1e-2, spec=spec)
    rng = np.random.default_rng(4)
    u = initial_velocity(grid16, "curl", 0.5)
    r = u  # zero noise contribution: test the energy part
    dt = 1e-2

    def objective(v):
        diff = v - r
        eps = sym_grad_values(grid16.diff_1d, v)
        return dt * energy(stepper.params, eps, grid16.cell_area) + 0.5 * stepper._inner(diff, diff)

    v = u + 0.1 * stepper._project(rng.standard_normal((2, 16, 16)))
    grad_j = stepper._grad_energy(sym_grad_values(grid16.diff_1d, v))
    grad_full = dt * grad_j + (v - r)
    for _ in range(10):
        d = stepper._project(rng.standard_normal((2, 16, 16)))
        d /= np.sqrt(stepper._inner(d, d))
        eps_fd = 1e-6
        fd = (objective(v + eps_fd * d) - objective(v - eps_fd * d)) / (2 * eps_fd)
        exact = stepper._inner(grad_full, d)
        assert abs(fd - exact) <= 1e-5 * max(abs(exact), 1e-8)


@pytest.mark.parametrize("n, p, kappa, rho, u0_kind", [
    (16, 3.0, 0.0, "one", "curl"),
    (16, 2.5, 0.01, "inv_one_plus_s2", "curl"),
    (16, 1.5, 0.0, "one", "curl"),
    (8, 2.5, 0.01, "one", "zero"),
])
def test_step_evaluates_each_strain_and_V_once(monkeypatch, n, p, kappa, rho, u0_kind):
    # every Newton iterate carries its strain, its magnitude, J and V,
    # Newton starts at the predictor and record() takes the returned
    # strain, magnitude, J and V: across a whole noisy path no field
    # reaches sym_grad_values, v_tensor or energy twice, and no strain
    # has its magnitude taken twice.  _frobenius also takes record()'s
    # |S|, which hashes like a strain where S = eps bit for bit: at
    # p = 2, kappa = 0 (no case here) and on the zero strain of a path
    # from rest, so all-zero arguments are left out.  A lone path runs
    # the one-path loop, a block of three the batched one.
    grid = Grid(n)
    spec = NoiseSpec(grid, 8, rho=rho, flavor="mixed")
    stepper = make_stepper(grid, p=p, kappa=kappa, dt=2.0**-8, spec=spec)
    seen = {"sym_grad_values": [], "v_tensor": [], "energy": [], "_frobenius": []}

    def hashed(name, fn, arg):
        def wrapper(*args):
            if name != "_frobenius" or np.any(args[arg]):
                digest = hashlib.sha256(np.ascontiguousarray(args[arg]).tobytes()).digest()
                seen[name].append(digest)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(stepping, "sym_grad_values", hashed("sym_grad_values", sym_grad_values, 1))
    monkeypatch.setattr(potential, "v_tensor", hashed("v_tensor", potential.v_tensor, 1))
    monkeypatch.setattr(potential, "energy", hashed("energy", potential.energy, 1))
    monkeypatch.setattr(potential, "_frobenius", hashed("_frobenius", potential._frobenius, 0))
    u0 = initial_velocity(grid, u0_kind, 1.0)
    for rngs in ([PathRng(2, 0)], [PathRng(2, b) for b in range(3)]):
        for calls in seen.values():
            calls.clear()
        trajs = stepper.run_path(u0, rngs)
        assert all(traj.completed for traj in trajs)
        assert all(traj.newton_iterations.sum() > 0 for traj in trajs)
        assert seen["_frobenius"]
        for name, calls in seen.items():
            assert len(set(calls)) == len(calls), (len(rngs), name)


def _noisy_path_digest(n, rho):
    grid = Grid(n)
    spec = NoiseSpec(grid, 8, decay=2.0, rho=rho, flavor="mixed")
    stepper = make_stepper(grid, 2.5, 0.01, 2.0**-10, 32 * 2.0**-10, spec)
    traj = stepper.run_path(initial_velocity(grid, "curl", 1.0), PathRng(9, 1))
    assert traj.completed
    h = hashlib.sha256()
    for series in (traj.energy, traj.residual_l2):
        h.update(series.tobytes())
    for q in ("u", "V", "K"):
        for m in traj.diff_lags:
            h.update(traj.diffs[q][m].tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("n, rho, digest", [
    (8, "one",
     "89e41bea52e94bee331b71b01776ad17871e0ae9868d3d56671a88497d7abd3b"),
    (8, "inv_one_plus_s2",
     "1ed77e6d3c245760b634965a390781911fd45649ed84d618206af4eb17705403"),
    (16, "one",
     "9e0f4f3672def16f61616e16b0eff24ff583226273059902c9f1a4784628ee1e"),
    (16, "inv_one_plus_s2",
     "cd9dc44369d6cf42d9dccb011034764b209c9178c6cd078bd4ee5717e37f51b6"),
], ids=["8-one", "8-inv_one_plus_s2", "16-one", "16-inv_one_plus_s2"])
def test_noisy_run_path_bits_are_pinned(n, rho, digest):
    # sha256 of a 32-step noisy path's energy, residual and u/V/K lag
    # differences, pinned with the loose first CG solve and the round-off
    # rule: changes that claim bit-identity must keep every one of them
    assert _noisy_path_digest(n, rho) == digest


# Worst relative L^2 error per step against the tight solve over the 18
# cases of the test below, when Newton started at u_n: 6.34e-10 in the
# worst case, 1.54e-10 in the mean over cases.
COLD_START_WORST = 6.4e-10
COLD_START_MEAN = 1.6e-10
# The same with the loose first CG solve and the round-off rule, at
# FIRST_CG_TOL / 3, FIRST_CG_TOL and 3 FIRST_CG_TOL: at most 1.21e-11 in
# the worst case and 1.48e-12 in the mean (5.07e-10 and 9.19e-11 without
# the two rules).
ROUNDOFF_RULE_WORST = 2e-11
ROUNDOFF_RULE_MEAN = 2e-12


def _worst_step_errors():
    """Worst relative error per case of steps from the same u_n and dW
    against newton_tol = 1e-30, cg_tol = 1e-12; 16 steps from rest at the
    workloads' dt and tolerances, 18 cases."""
    dt, steps, modes = 2.0**-12, 16, 16
    noises = [("one", "mixed"), ("inv_one_plus_s2", "mixed"), ("one", "divergence-free")]
    worst = []
    for n in (8, 16):
        grid = Grid(n)
        for p, kappa in ((1.5, 0.0), (2.5, 0.01), (3.0, 0.0)):
            for rho, flavor in noises:
                spec = NoiseSpec(grid, modes, decay=2.0, rho=rho, flavor=flavor)
                stepper = make_stepper(grid, p, kappa, dt, dt * steps, spec, cg_tol=1e-10)
                tight = make_stepper(
                    grid, p, kappa, dt, dt * steps, spec, cg_tol=1e-12, newton_tol=1e-30
                )
                u, rng, err = zeros(grid, 2), PathRng(5, 0), 0.0
                for _ in range(steps):
                    dW = sample_increment(rng, dt, modes)
                    u_ref = step_one(tight, u, dW)[0]
                    u = step_one(stepper, u, dW)[0]
                    rel = np.sqrt(np.sum((u - u_ref) ** 2) / np.sum(u_ref**2))
                    err = max(err, rel)
                worst.append(err)
    return worst


def test_warm_started_step_matches_tight_minimiser():
    worst = _worst_step_errors()
    assert max(worst) <= COLD_START_WORST
    assert np.mean(worst) <= COLD_START_MEAN


@pytest.mark.parametrize("scale", [1 / 3, 1.0, 3.0], ids=["third", "one", "triple"])
def test_loose_first_solve_and_roundoff_rule_match_tight_minimiser(monkeypatch, scale):
    # the bounds hold for first-iteration forcings around the chosen one,
    # not only at the constant itself
    monkeypatch.setattr(stepping, "FIRST_CG_TOL", scale * stepping.FIRST_CG_TOL)
    worst = _worst_step_errors()
    assert max(worst) <= ROUNDOFF_RULE_WORST
    assert np.mean(worst) <= ROUNDOFF_RULE_MEAN


def test_p2_noiseless_step_takes_no_backtrack_and_matches_tight_minimiser():
    # without the two rules, p = 2 without noise at cg_tol = 1e-10
    # backtracked 0-3 times per step on round-off in the last Newton
    # iteration and ended up to 2.2e-11 off the tight step
    for n in (8, 16):
        grid = Grid(n)
        stepper = make_stepper(grid, p=2.0, kappa=0.0, dt=1e-2, cg_tol=1e-10)
        tight = make_stepper(grid, p=2.0, kappa=0.0, dt=1e-2, cg_tol=1e-12, newton_tol=1e-30)
        u = initial_velocity(grid, "curl", 1.0)
        for _ in range(8):
            u_ref = step_one(tight, u, None)[0]
            u, rep = step_one(stepper, u, None)
            assert rep.backtracks == 0
            rel = np.sqrt(np.sum((u - u_ref) ** 2) / np.sum(u_ref**2))
            assert rel <= 1e-12


def test_newton_iterations_per_step_from_predictor():
    # n = 16 additive mixed noise as in the everyday workload: Newton
    # started at u_n took about 3.0 iterations per step, and CG to
    # cg_tol in every iteration took 9.3 CG iterations per step
    grid = Grid(16)
    spec = NoiseSpec(grid, 16, decay=2.0, flavor="mixed")
    dt = 2.0**-12
    stepper = make_stepper(grid, 2.5, 0.01, dt, 64 * dt, spec, cg_tol=1e-10)
    traj = stepper.run_path(zeros(grid, 2), PathRng(1, 0))
    assert traj.completed
    assert traj.newton_iterations[1:].mean() <= 2.2
    assert traj.cg_iterations[1:].mean() <= 7.0


def test_noiseless_step_keeps_cold_start_bits():
    # without noise the predictor is u_n: a stepper with a noise spec
    # stepping with dW = None and a whole noiseless path keep the pinned
    # bits (sha256 of both, pinned with the loose first CG solve and the
    # round-off rule)
    expected = {
        (8, 1.5, 0.0): "300dd7ac30dc046027b4e50d6b76462009d8377721aa58ece102fb6a01977e34",
        (16, 2.5, 0.01): "64d5c7a2b2cd6701ebf842221f4adbaf072ec09cc39d99c8ca5fca9b83d9bdec",
        (16, 3.0, 0.0): "79c3dd7d5c33a6a77f8c073354f7cb51df274040975cced2fa9ee6a5ac4b9dcb",
    }
    dt = 2.0**-8
    for (n, p, kappa), digest in expected.items():
        grid = Grid(n)
        noisy = make_stepper(grid, p, kappa, dt, 4 * dt, NoiseSpec(grid, 4), cg_tol=1e-10)
        u = initial_velocity(grid, "curl", 1.0)
        h = hashlib.sha256()
        for _ in range(4):
            u = step_one(noisy, u, None)[0]
            h.update(u.tobytes())
        plain = make_stepper(grid, p, kappa, dt, 4 * dt, cg_tol=1e-10)
        traj = plain.run_path(initial_velocity(grid, "curl", 1.0), PathRng(0, 0))
        for series in (traj.energy, traj.residual_l2, traj.diffs["V"][1]):
            h.update(series.tobytes())
        assert h.hexdigest() == digest, (n, p, kappa)


def test_step_report_solver_telemetry(grid8):
    stepper = make_stepper(grid8, p=2.5, kappa=0.01)
    _, rep = step_one(stepper, zeros(grid8, 2), None)
    assert (rep.iterations, rep.cg_iterations, rep.backtracks) == (0, 0, 0)
    # p = 2 without noise is quadratic: the loose first CG solve leaves
    # FIRST_CG_TOL of the step, and the second, run down to its rounding
    # floor, lands on the minimiser
    for grid in (grid8, Grid(16)):
        stepper = make_stepper(grid, p=2.0, kappa=0.0, dt=1e-2, cg_tol=1e-14)
        u = initial_velocity(grid, "curl", 1.0)
        for _ in range(4):
            u, rep = step_one(stepper, u, None)
            assert (rep.iterations, rep.backtracks) == (2, 0)
            assert rep.cg_iterations > 0


def _direct_diffs(stepper, traj):
    """Lag differences of u and V recomputed from the stored snapshots."""
    snaps = dict(traj.snapshots)
    D, area = stepper.grid.diff_1d, stepper.grid.cell_area
    fields = {
        "u": snaps,
        "V": {k: v_tensor(stepper.params, sym_grad_values(D, u)) for k, u in snaps.items()},
    }
    return {
        q: {
            m: np.array([
                np.sqrt(area * np.sum((f[k + m] - f[k]) ** 2))
                for k in range(len(snaps) - m)
            ])
            for m in traj.diff_lags
        }
        for q, f in fields.items()
    }


@pytest.mark.parametrize("stop_at", [None, 5])
def test_run_path_diffs_match_snapshot_recomputation(grid8, stop_at):
    # the ring history must give every lag's difference series; a path
    # stopped by a failed step keeps recorded - m entries per lag
    class StopsAt(Stepper):
        steps = 0

        def step(self, u_n, dW):
            self.steps += 1
            if self.steps == stop_at:
                raise StepError("stopped")
            return super().step(u_n, dW)

    spec = NoiseSpec(grid8, 4, flavor="mixed")
    cfg = SolverConfig(dt=2.0**-8, T=2.0**-8 * 64, store_every=1)
    stepper = StopsAt(grid8, PotentialParams(2.5, 0.01), cfg, spec=spec)
    traj = stepper.run_path(initial_velocity(grid8, "curl", 1.0), PathRng(4, 0))
    recorded = 65 if stop_at is None else stop_at
    assert traj.completed == (stop_at is None)
    assert traj.diff_lags == [1, 2, 4, 8]
    assert len(traj.snapshots) == traj.times.size == recorded
    direct = _direct_diffs(stepper, traj)
    for m in traj.diff_lags:
        assert traj.diffs["K"][m].size == max(recorded - m, 0)
        for q in ("u", "V"):
            assert traj.diffs[q][m].size == max(recorded - m, 0)
            np.testing.assert_allclose(traj.diffs[q][m], direct[q][m], rtol=1e-12, atol=0.0)
    assert traj.v_increment.size == recorded
    assert traj.v_increment[0] == 0.0
    np.testing.assert_allclose(traj.v_increment[1:], direct["V"][1], rtol=1e-12, atol=0.0)


def _trajectory_arrays(traj):
    """Every array and flag of a trajectory, the snapshots and lag series included."""
    out = [
        traj.times, traj.energy, traj.residual_l2, traj.velocity_l2, traj.v_increment,
        traj.pressure_det_lp, traj.k_sto_w12, traj.newton_iterations, traj.cg_iterations,
        traj.backtracks, traj.roundoff_steps, np.array([traj.sup_stress_lpprime]),
    ]
    out += [traj.diffs[q][m] for q in ("u", "V", "K") for m in traj.diff_lags]
    out += [values for _, values in traj.snapshots]
    return out, (traj.error, traj.completed, [k for k, _ in traj.snapshots])


class FailsOnState(Stepper):
    """Raises StepError in every step that starts from the velocity `bad`
    in any member of its block; counts the steps."""

    bad = None
    calls = 0

    def step(self, u_n, dW):
        self.calls += 1
        if any(np.array_equal(u_n[:, b], self.bad) for b in range(u_n.shape[1])):
            raise StepError("stopped")
        return super().step(u_n, dW)


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("rho", ["one", "inv_one_plus_s2"])
def test_batched_run_path_is_bit_identical_to_single_paths(n, rho):
    # a block of B paths stepped in lockstep gives each path the bits of
    # its own run, also when path 1 fails at step 5 and leaves the batch
    _check_batched_bits(n, rho, 2.5, 0.01)


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("rho", ["one", "inv_one_plus_s2"])
@pytest.mark.parametrize("p, kappa", [(1.5, 0.0), (3.0, 0.0)])
def test_batched_run_path_bits_in_unshifted_hessian_branches(n, rho, p, kappa):
    # the same at kappa = 0: for p = 1.5 the Hessian's shift is floored
    # at kappa_reg, so its a2 is not S's factor, and for p = 3 phi'' is
    # taken without a shift
    _check_batched_bits(n, rho, p, kappa)


def _check_batched_bits(n, rho, p, kappa):
    """Blocks of 1, 2, 4 and 8 paths against single runs, with and
    without path 1 failing at step 5."""
    grid = Grid(n)
    spec = NoiseSpec(grid, 8, rho=rho, flavor="mixed")
    cfg = SolverConfig(dt=2.0**-10, T=32 * 2.0**-10, cg_tol=1e-10, store_every=8)
    params = PotentialParams(p, kappa)
    stepper = FailsOnState(grid, params, cfg, spec=spec)
    u0 = initial_velocity(grid, "curl", 1.0)
    rngs = lambda count: [PathRng(9, i) for i in range(count)]  # noqa: E731
    for bad in (None, 1):
        if bad is not None:
            probe = FailsOnState(grid, params,
                                 SolverConfig(dt=cfg.dt, T=cfg.T, cg_tol=1e-10, store_every=1),
                                 spec=spec)
            stepper.bad = probe.run_path(u0, PathRng(9, bad)).snapshots[4][1]
        singles = [_trajectory_arrays(stepper.run_path(u0, rng)) for rng in rngs(8)]
        assert [s[1][1] for s in singles] == [i != bad for i in range(8)]
        if bad is not None:
            assert singles[bad][1][0] == "step 5: stopped"
        for B in (1, 2, 4, 8):
            stepper.calls = 0
            trajs = stepper.run_path(u0, rngs(B))
            assert len(trajs) == B
            if bad is None:  # every block steps as a batch, and none was redone
                assert stepper.calls == 32
            for traj, (arrays, flags) in zip(trajs, singles):
                got, got_flags = _trajectory_arrays(traj)
                assert got_flags == flags
                assert len(got) == len(arrays)
                assert all(np.array_equal(a, b) for a, b in zip(got, arrays)), (B, bad)


def test_batched_step_report_totals_and_per_path_counts(grid8):
    # on a batch, iterations is the total Newton count and each path's
    # counts equal those of its own step
    spec = NoiseSpec(grid8, 4, flavor="mixed")
    stepper = make_stepper(grid8, p=2.5, kappa=0.01, dt=2.0**-8, spec=spec, cg_tol=1e-10)
    u0 = initial_velocity(grid8, "curl", 1.0)
    dWs = [sample_increment(PathRng(3, i), 2.0**-8, 4) for i in range(3)]
    u, rep = stepper.step(np.stack([u0] * 3, axis=1), dWs)
    assert isinstance(rep.iterations, int)
    assert rep.iterations == rep.path_iterations.sum()
    for b, dW in enumerate(dWs):
        u_b, rep_b = step_one(stepper, u0, dW)
        assert np.array_equal(u[:, b], u_b)
        assert rep_b.path_iterations == rep_b.iterations
        assert rep.path_iterations[b] == rep_b.iterations
        assert rep.cg_iterations[b] == rep_b.cg_iterations
        assert rep.J[b] == rep_b.J
        assert np.array_equal(rep.V[:, :, b], rep_b.V[:, :, 0])
    # a batch of one gets the bits and the scalar report of the one-path
    # loop, with the batch axis added to strain and V
    u_0, rep_0 = stepper._step_one(u0, dWs[0])
    u, rep = stepper.step(u0[:, None], dWs[:1])
    assert np.array_equal(u[:, 0], u_0)
    assert isinstance(rep.iterations, int) and rep.iterations == rep_0.iterations
    assert rep.path_iterations == rep_0.iterations
    for name in ("cg_iterations", "backtracks", "roundoff_steps", "J"):
        assert np.ndim(getattr(rep, name)) == 0, name
        assert getattr(rep, name) == getattr(rep_0, name), name
    assert rep.strain.shape == rep.V.shape == (2, 2, 1, 8, 8)
    assert np.array_equal(rep.strain[:, :, 0], rep_0.strain)
    assert np.array_equal(rep.V[:, :, 0], rep_0.V)
