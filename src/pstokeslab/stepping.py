"""Semi-implicit Euler-Maruyama stepping of the projected gradient flow.

One time step solves the convex minimisation

    u_{n+1} = argmin_{div_h v = 0}  dt * J(v) + 1/2 ||v - r||^2,
    r = u_n + P(G(u_n) dW),

with J the potential energy of the strain and P the Helmholtz-Leray
projection: the noise is evaluated explicitly at u_n, the nonlinear
diffusion implicitly.  The minimiser is found by damped Newton with a
projected conjugate-gradient inner solve, started at the explicit
predictor r: without noise r = u_n, and with noise r is already within
O(dt) of the minimiser, where u_n is O(sqrt(dt)) away.  Every Newton
iterate stays exactly divergence-free because r is and because gradients
and directions are projected.  The stopping quantity is the squared
distance between consecutive iterates measured through the monotonicity
tensor V, which is proportional to the remaining energy gap of the
strongly convex objective.  Each iterate carries its objective value,
its strain and its V: the line search's accepted candidate hands them
on, so within one step no strain and no V is evaluated twice.

Two rules keep the solver from work its stopping test cannot see.  The
first Newton iteration's CG stops at relative residual FIRST_CG_TOL, not
at cg_tol.  From the predictor the first Newton step never ended a step
of the benchmark workloads, and even an exact first step leaves an error
of about 7e-5 (n = 16) to 1.4e-3 (n = 32) of its length for the second
iteration to remove; a first solve to FIRST_CG_TOL leaves an error of
the same order, so a tighter one buys nothing.  Every later iteration
solves to cg_tol.  And when the predicted decrease -<g, delta> lies below
the objective's rounding level ROUNDOFF_RTOL |phi|, the Armijo test would
compare rounding noise and backtrack on it: the full Newton step is taken
without the test, and only if its objective does not exceed the step's
start value phi0, so that zero-noise steps stay exactly monotone.  Such a
step does not count as convergence: the V-distance test still decides.
Stopping there instead left steps up to 3.7e-9 off the tight solve;
taking the step, 1.1e-11.

Each step also records the strong residual P div S(strain), the
deterministic pressure, and the running time-integrated stochastic
pressure

    K_{n+1} = K_n - B*( (I - P) G(u_n) dW ),

with B* the Bogovskii adjoint, whose temporal regularity certifies the
negative-order regularity of the stochastic pressure.  No Bogovskii
solve is needed: grad_scalar = -div_vec^T holds exactly and div B = id
on mean-free scalars, so <B* grad q, g> = <grad q, B g> = -<q, g>, that
is B* grad q = -q for every mean-free q.  The Helmholtz projection
already splits (I - P) v = grad q_v with q_v its mean-free potential,
hence B*((I - P) v) = -q_v and

    pi_det = q_{div S},      K_{n+1} = K_n + q_{G(u_n) dW}.

Additive noise (rho = one) makes K linear in W: the stepper stores
k_j = lambda_j q_{psi_j} once and steps K_{n+1} = K_n + sum_j dW_j k_j.
Multiplicative noise projects G(u_n) dW once more for its potential.
The step report carries the strain, V and energy J of the returned
velocity, and `run_path` records from them, so no strain, V or J is
evaluated again there; as the step never evaluates the strain of u_n
itself, no strain, V or J of a noisy path is evaluated twice.  Lagged
differences come from one ring array per quantity holding the last
max(lag) + 1 states; each step takes the norms of all its lags in one
batched reduction per quantity.  The trajectory keeps the solver counts
of every step and the time spent stepping, recording and accumulating K.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import potential as pot
from .grid import (
    Grid,
    ScalarField,
    TensorField,
    VectorField,
    div_tensor_values,
    div_vec_values,
    lp_norm,
    sym_grad_values,
    w12_norm,
    w12_norm_values,
)
from .noise import NoiseSpec, PathRng, WienerIncrement, apply_G, sample_increment
from .projection import BogovskiiOperator, HelmholtzProjector
from .seminorms import dyadic_lags

__all__ = [
    "SolverConfig",
    "StepReport",
    "PathTrajectory",
    "StepError",
    "Stepper",
]

# Relative CG residual of the first Newton iteration (module docstring);
# every later iteration stops at SolverConfig.cg_tol.  Over [1e-4, 1e-3]
# the step error stayed at 1.2e-11 of the tight solve; 1e-3 took the
# fewest CG iterations at n = 32, and 1e-2 added Newton iterations.
FIRST_CG_TOL = 1e-3
# Rounding level of the objective, relative to |phi|.  Full Newton steps
# that failed the Armijo test on round-off rose above phi_v by up to
# 2 eps |phi|, and a full step lowers phi by about half the predicted
# decrease: below this level the test compares rounding noise.
ROUNDOFF_RTOL = 4.0 * np.finfo(float).eps


class StepError(RuntimeError):
    """Newton or line-search failure inside one time step."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    T: float
    newton_tol: float = 1e-14        # threshold on ||V(eps v+) - V(eps v)||^2
    newton_max_iter: int = 60
    kappa_reg: float = 1e-7          # Hessian floor for kappa = 0, p < 2
    store_every: int = 0             # full-snapshot stride; 0 = none
    cg_tol: float = 1e-6             # CG forcing of every Newton iteration after the
                                     # first (FIRST_CG_TOL); tighten for oracles
    cg_max_iter: int = 400

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.T <= 0.0:
            raise ValueError("T must be positive")
        steps = self.T / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(steps, 1.0):
            raise ValueError("T must be an integral multiple of dt")
        if self.newton_tol <= 0.0:
            raise ValueError("newton_tol must be positive")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))


@dataclass
class StepReport:
    iterations: int
    v_distance_sq: float
    grad_norm: float
    phi_initial: float              # objective at the start iterate r
    phi_final: float
    converged: bool
    cg_iterations: int              # summed over the Newton iterations
    backtracks: int                 # line-search halvings, summed likewise
    roundoff_steps: int             # full steps taken by the round-off rule
    # J, strain and V of the returned velocity, which run_path records
    J: float
    strain: np.ndarray = field(repr=False)
    V: np.ndarray = field(repr=False)


@dataclass
class PathTrajectory:
    """Scalar series and difference-norm series of one sample path."""

    times: np.ndarray
    energy: np.ndarray              # J(u(t_k))
    residual_l2: np.ndarray         # ||P div S(eps u)||_{L^2}
    velocity_l2: np.ndarray
    v_increment: np.ndarray         # ||V(eps u_k) - V(eps u_{k-1})||_{L^2}
    pressure_det_lp: np.ndarray     # ||pi_det||_{L^{p'}}
    k_sto_w12: np.ndarray           # ||K_sto||_{W^{1,2}}
    newton_iterations: np.ndarray
    cg_iterations: np.ndarray
    backtracks: np.ndarray
    roundoff_steps: np.ndarray
    diff_lags: list                 # dyadic lags in steps
    diffs: dict                     # quantity -> {lag: series of norms}
    phase_seconds: dict             # perf_counter seconds in step, record and K
    snapshots: list = field(default_factory=list)  # (k, velocity values)
    sup_stress_lpprime: float = 0.0  # max over recorded steps of ||S(eps u)||_{L^{p'}}
    error: str | None = None
    completed: bool = True


class Stepper:
    """Owns the operators for one (grid, potential, noise) configuration.

    Immutable after construction; one instance per worker is the
    intended concurrency pattern (paths are embarrassingly parallel).
    """

    def __init__(
        self,
        grid: Grid,
        params: pot.PotentialParams,
        config: SolverConfig,
        spec: NoiseSpec | None = None,
        projector: HelmholtzProjector | None = None,
        bogovskii: BogovskiiOperator | None = None,
    ):
        self.grid = grid
        self.params = params
        self.config = config
        self.spec = spec
        self.projector = projector or HelmholtzProjector(grid)
        # The stepper never calls B* (module docstring).  The keyword and
        # attribute remain for callers that build the operator for their
        # own independent checks of pi_det and K and hand it in here.
        self.bogovskii = bogovskii
        self._area = grid.cell_area
        self._D = grid.diff_1d
        # Hessian evaluation parameters; floored shift in the singular regime
        p, k = params.p, params.kappa
        if k == 0.0 and p < 2.0:
            self._hess_params = pot.PotentialParams(p, config.kappa_reg)
        else:
            self._hess_params = params
        self._k_modes = None  # k_j of additive noise, flattened (module docstring)
        if spec is not None and spec.mode_count > 0 and spec.rho == "one":
            self._k_modes = np.array([
                lam * self._grad_potential(psi)[1].ravel()
                for lam, psi in zip(spec.lambdas, spec.modes)
            ])

    # -- array-level building blocks -----------------------------------
    def _project(self, v):
        return self.projector.project_values(v)[0]

    def _grad_potential(self, v):
        """P v and the mean-free q with (I-P) v = grad q; B*((I-P) v) = -q."""
        div_free, _, q = self.projector.project_values(v)
        return div_free, q - q.mean()

    def _inner(self, a, b):
        return self._area * float(np.add.reduce(a * b, axis=None))

    def _grad_energy(self, eps):
        """Gradient of J in the weighted L^2 product at strain eps: -div S(eps)."""
        return -div_tensor_values(self._D, pot.s_tensor(self.params, eps))

    def _hessian_apply(self, a1, a2, unit, w):
        """-div( a1 (E:eps w) E + a2 eps w ), built in place."""
        epsw = sym_grad_values(self._D, w)
        tens = unit * epsw
        proj = np.add.reduce(tens, axis=(0, 1))
        proj *= a1
        np.multiply(unit, proj, out=tens)
        epsw *= a2
        tens += epsw
        out = div_tensor_values(self._D, tens)
        return np.negative(out, out=out)

    # -- public operations ---------------------------------------------
    def step(self, u_n: VectorField, dW: WienerIncrement | None):
        """One implicit step; returns (u_next, StepReport)."""
        cfg = self.config
        dt = cfg.dt
        u = u_n.values
        if dW is not None and self.spec is not None and self.spec.mode_count > 0:
            forcing = apply_G(self.spec, u_n, dW).values
            r = u + self._project(forcing)
        else:
            r = u

        def objective(v):
            """Objective value at v, the strain of v and its energy J."""
            diff = v - r
            eps = sym_grad_values(self._D, v)
            J = pot.energy(self.params, eps, self._area)
            return dt * J + 0.5 * self._inner(diff, diff), eps, J

        # start at the predictor; v carries phi_v, eps, J_v and, once it
        # has moved, V_v
        v = r.copy()
        phi0, eps, J_v = objective(v)
        phi_v = phi0
        V_v = None
        vdist = np.inf
        grad_norm = np.inf
        converged = False
        failure = f"Newton did not converge in {cfg.newton_max_iter} iterations"
        iterations = cg_iterations = backtracks = roundoff_steps = 0
        for it in range(cfg.newton_max_iter):
            g = self._project(dt * self._grad_energy(eps)) + (v - r)
            grad_norm = np.sqrt(self._inner(g, g))
            # rounding floor: below this scale no descent is representable
            field_scale = 1.0 + np.sqrt(self._inner(v, v))
            floor = 1e-14 * field_scale
            if grad_norm <= max(floor, 1e-14 * (1.0 + abs(phi_v))):
                converged = True
                break
            a1, a2, unit = pot.hessian_coeffs(self._hess_params, eps)

            forcing = max(FIRST_CG_TOL, cfg.cg_tol) if it == 0 else cfg.cg_tol
            delta, cg_its = self._cg_solve(a1, a2, unit, g, dt, floor, forcing)
            cg_iterations += cg_its
            predicted = -self._inner(g, delta)
            if predicted <= floor * grad_norm:
                converged = True
                break
            alpha = 1.0
            cand = v + delta
            phi_c, eps_c, J_c = objective(cand)
            if predicted <= ROUNDOFF_RTOL * abs(phi_v) and phi_c <= phi0:
                # the Armijo test would compare rounding noise (module
                # docstring): take the full step, never above phi0
                roundoff_steps += 1
            else:
                while not phi_c <= phi_v - 1e-4 * alpha * predicted:
                    alpha *= 0.5
                    backtracks += 1
                    if alpha <= 1e-14:
                        break
                    cand = v + alpha * delta
                    phi_c, eps_c, J_c = objective(cand)
                if alpha <= 1e-14:
                    failure = f"line search stalled in Newton iteration {it + 1}"
                    break
            if V_v is None:
                V_v = pot.v_tensor(self.params, eps)
            V_c = pot.v_tensor(self.params, eps_c)
            dv = V_c - V_v
            v, phi_v, eps, V_v, J_v = cand, phi_c, eps_c, V_c, J_c
            iterations = it + 1
            vdist = self._inner(dv, dv)
            if vdist <= cfg.newton_tol:
                converged = True
                break
        if V_v is None:
            V_v = pot.v_tensor(self.params, eps)
        report = StepReport(
            iterations=iterations,
            v_distance_sq=float(vdist if np.isfinite(vdist) else 0.0),
            grad_norm=float(grad_norm),
            phi_initial=float(phi0),
            phi_final=float(phi_v),
            converged=converged,
            cg_iterations=cg_iterations,
            backtracks=backtracks,
            roundoff_steps=roundoff_steps,
            J=J_v,
            strain=eps,
            V=V_v,
        )
        if not converged:
            raise StepError(
                f"{failure}; "
                f"last V-distance^2 = {vdist:.3e}, gradient norm = {grad_norm:.3e}",
                report,
            )
        return VectorField(self.grid, v), report

    def _cg_solve(self, a1, a2, unit, g, dt, floor, tol):
        """CG on  P(w + dt * Hess_J w) = -g  within the div-free subspace.

        Stops at relative residual tol; returns the direction and the
        number of CG iterations taken.

        The target residual never goes below the rounding floor of the
        operator application, directions whose curvature collapses
        (subspace pollution by round-off) abort the iteration, and the
        result is re-projected once.  The operator dominates the identity
        on the subspace, so these guards cannot mask a genuine failure.
        """
        def apply_op(w):
            hw = self._hessian_apply(a1, a2, unit, w)
            hw *= dt
            hw += w
            return self._project(hw)

        x = np.zeros_like(g)
        res = -g
        p_dir = res.copy()
        rs = self._inner(res, res)
        target = max(tol**2 * rs, floor**2)
        iterations = 0
        while iterations < self.config.cg_max_iter and rs > target:
            Ap = apply_op(p_dir)
            denom = self._inner(p_dir, Ap)
            if denom <= 1e-12 * self._inner(p_dir, p_dir):
                break
            iterations += 1
            alpha = rs / denom
            x += alpha * p_dir
            res -= alpha * Ap
            rs_new = self._inner(res, res)
            p_dir *= rs_new / rs
            p_dir += res
            rs = rs_new
        return self._project(x), iterations

    def _stress_terms(self, eps):
        """S(eps), the strong residual P div S and pi_det.

        pi_det = -B*((I-P) div S) is the mean-free Helmholtz potential of
        div S, which the projection for the residual returns anyway.
        """
        stress = pot.s_tensor(self.params, eps)
        res, pi = self._grad_potential(div_tensor_values(self._D, stress))
        return stress, res, pi

    def accumulate_K_sto(
        self, K_prev: ScalarField, u_n: VectorField, dW: WienerIncrement
    ) -> ScalarField:
        """K_next = K_prev - B*( (I-P) G(u_n) dW ); stays mean-free.

        The increment is the potential of the gradient part of G(u_n) dW
        (module docstring).
        """
        if self.spec is None or self.spec.mode_count == 0:
            return K_prev
        if self._k_modes is not None:
            # the one dot that tensordot(z, k_modes, 1) makes, without its wrapper
            incr = np.dot(dW.z.reshape(1, -1), self._k_modes).reshape(self.grid.n, self.grid.n)
        else:
            incr = self._grad_potential(apply_G(self.spec, u_n, dW).values)[1]
        return ScalarField(self.grid, K_prev.values + incr)

    def run_path(self, u0: VectorField, rng: PathRng) -> PathTrajectory:
        """Integrate one sample path and collect all monitored series.

        An exception raised while stepping or recording, the initial
        state's record included, ends this path only: the trajectory keeps
        the steps recorded so far, `completed` is False and `error` names
        the step and the exception.
        """
        cfg = self.config
        n_steps = cfg.n_steps
        lags = dyadic_lags(n_steps)
        depth = max(lags) + 1
        n = self.grid.n
        p = self.params.p
        p_conj = p / (p - 1.0)

        times = np.arange(n_steps + 1) * cfg.dt
        energy = np.zeros(n_steps + 1)
        res_l2 = np.zeros(n_steps + 1)
        u_l2 = np.zeros(n_steps + 1)
        pi_lp = np.zeros(n_steps + 1)
        k_w12 = np.zeros(n_steps + 1)
        newton_its = np.zeros(n_steps + 1)
        cg_its = np.zeros(n_steps + 1)
        backtracks = np.zeros(n_steps + 1)
        roundoff_steps = np.zeros(n_steps + 1)
        stress_lp = np.zeros(n_steps + 1)

        # state k sits at k % depth; the lag-m difference of step k is entry k - m
        rings = {
            "u": np.zeros((depth, 2, n, n)),
            "V": np.zeros((depth, 2, 2, n, n)),
            "K": np.zeros((depth, n, n)),
        }
        # row i holds the lag-lags[i] differences; step k writes entry k - lags[i]
        lag_steps = np.array(lags)
        diffs = {q: np.zeros((len(lags), n_steps + 1)) for q in rings}

        def record(k, u_vals, eps, Vt, J, K_field):
            stress, res, pi = self._stress_terms(eps)
            energy[k] = J
            res_l2[k] = np.sqrt(self._inner(res, res))
            u_l2[k] = np.sqrt(self._inner(u_vals, u_vals))
            pi_lp[k] = lp_norm(ScalarField(self.grid, pi), p_conj)
            k_w12[k] = w12_norm(K_field)
            stress_lp[k] = lp_norm(TensorField(self.grid, stress), p_conj)
            m = lag_steps[lag_steps <= k]
            rows = np.arange(m.size)
            for q, latest in (("u", u_vals), ("V", Vt), ("K", K_field.values)):
                rings[q][k % depth] = latest
                if not m.size:
                    continue
                d = latest - rings[q][(k - m) % depth]
                if q == "K":
                    diffs[q][rows, k - m] = w12_norm_values(self._D, self._area, d)
                else:
                    sq = np.add.reduce((d * d).reshape(m.size, -1), axis=1)
                    diffs[q][rows, k - m] = np.sqrt(self._area * sq)

        div_u0 = lp_norm(
            ScalarField(self.grid, div_vec_values(self._D, u0.values)), 2
        )
        if div_u0 > 1e-8 * (1.0 + lp_norm(u0, 2)):
            raise ValueError(f"initial velocity is not divergence-free: {div_u0:.3e}")
        if not np.all(np.isfinite(u0.values)):
            raise ValueError("initial velocity contains non-finite entries")

        u = VectorField(self.grid, u0.values.copy())
        K = self.grid.scalar()
        snapshots = []
        error = None
        recorded = 0
        clock = time.perf_counter
        phases = {"step": 0.0, "record": 0.0, "K": 0.0}
        modes = self.spec.mode_count if self.spec is not None else 0
        for k in range(n_steps + 1):
            dW = sample_increment(rng, cfg.dt, modes) if k and modes > 0 else None
            try:
                t0 = clock()
                if k == 0:
                    eps = sym_grad_values(self._D, u.values)
                    Vt = pot.v_tensor(self.params, eps)
                    J = pot.energy(self.params, eps, self._area)
                else:
                    if dW is not None:
                        K = self.accumulate_K_sto(K, u, dW)
                    t1 = clock()
                    phases["K"] += t1 - t0
                    u, rep = self.step(u, dW)
                    t0 = clock()
                    phases["step"] += t0 - t1
                    if not np.all(np.isfinite(u.values)):
                        error = f"step {k}: non-finite velocity"
                        break
                    newton_its[k] = rep.iterations
                    cg_its[k] = rep.cg_iterations
                    backtracks[k] = rep.backtracks
                    roundoff_steps[k] = rep.roundoff_steps
                    eps, Vt, J = rep.strain, rep.V, rep.J
                record(k, u.values, eps, Vt, J, K)
                phases["record"] += clock() - t0
            except Exception as exc:  # any failure ends this path only
                kind = "" if isinstance(exc, StepError) else f"{type(exc).__name__}: "
                error = f"step {k}: {kind}{exc}"
                break
            recorded = k + 1
            if cfg.store_every > 0 and k % cfg.store_every == 0:
                snapshots.append((k, u.values.copy()))
        trim = recorded
        return PathTrajectory(
            times=times[:trim],
            energy=energy[:trim],
            residual_l2=res_l2[:trim],
            velocity_l2=u_l2[:trim],
            # ||V(eps u_k) - V(eps u_{k-1})|| is the lag-1 difference of V
            v_increment=np.concatenate([[0.0], diffs["V"][0]])[:trim],
            pressure_det_lp=pi_lp[:trim],
            k_sto_w12=k_w12[:trim],
            newton_iterations=newton_its[:trim],
            cg_iterations=cg_its[:trim],
            backtracks=backtracks[:trim],
            roundoff_steps=roundoff_steps[:trim],
            diff_lags=lags,
            diffs={
                q: {m: diffs[q][i, : max(trim - m, 0)] for i, m in enumerate(lags)}
                for q in diffs
            },
            phase_seconds=phases,
            snapshots=snapshots,
            sup_stress_lpprime=float(stress_lp[:trim].max(initial=0.0)),
            error=error,
            completed=error is None,
        )
