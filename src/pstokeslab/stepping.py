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
its strain, the strain's nodewise magnitude t = |eps| and its V: the
line search's accepted candidate hands them on, so within one step no
strain, no magnitude and no V is evaluated twice.  t is taken where
the strain is formed and handed to the potential's kernels (energy, S,
V, the Hessian), and S's radial factor (kappa + t)^(p-2), formed once
per Newton iteration, is also the Hessian's a2 unless kappa_reg floors
the Hessian's shift.

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
The step report carries the strain, its magnitude, V and energy J of
the returned velocity, and `run_path` records from them, so no strain,
magnitude, V or J is evaluated again there; as the step never evaluates
the strain of u_n itself, none of them is evaluated twice on a noisy
path.  Lagged
differences come from one ring array per quantity holding the last
max(lag) + 1 states; each step takes the norms of all its lags in one
batched reduction per quantity.  The trajectory keeps the solver counts
of every step and the time spent stepping, recording and accumulating K.

Fields are plain arrays.  A block of B paths is stepped in lockstep: its
fields carry the component axes first and the batch axis next,
(2, B, n, n) for velocities, (2, 2, B, n, n) for strains and (B, n, n)
for scalars.  `step`, `accumulate_K_sto` and the record take such a
block, a lone path as a block of one, with one increment per path, and
`run_path` makes one of each call per time step.  Newton, CG and the
line search keep a path in the lockstep until its own loop would stop
it, and gather the others to go on, so every path takes its own
iterations and keeps the bits of its own run: the grid kernels, the
projection and phi's closed form act on each member as on one path;
inner products and norms sum each path over its own contiguous entries
of a batch-first copy; the per-path scalars (inner products, step
lengths, objective values, stop flags) are Python floats and bools in
lists, as in the one-path loop, and become arrays only to scale the
fields; phi's series is a Horner sum of one fixed degree per p, entry
by entry, so one call serves the whole batch; and the noise products
stay one dot per path, as a batched product would round differently.
A path that leaves the lockstep early has its fields stored into the
block's, which are the lockstep's own arrays until a first path leaves,
so a block whose paths stop together stores nothing.  A block takes
every time step, the initial state's record included, as one batch, of
one path too; `step` alone picks the loop and runs a batch of one in the
one-path loop on the path's (2, n, n) velocity, which lacks the per-path
bookkeeping and reports scalar counts.  A path fails in one way: a time
step that raises, where the record raises on a non-finite velocity
before it stores anything.  A time step of two or more paths that raises
is redone for each path as a batch of one, from the saved state with the
increments already drawn, so a path fails alone.  A block's paths share
its time in proportion to the steps they completed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import potential as pot
from .grid import Grid, div_tensor_values, div_vec_values, sym_grad_values, w12_norm_values
from .noise import NoiseSpec, apply_G, sample_increment
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
# Cap on the CG iterations of one Newton iteration's solve.
CG_MAX_ITER = 400
# Rounding level of the objective, relative to |phi|.  Full Newton steps
# that failed the Armijo test on round-off rose above phi_v by up to
# 2 eps |phi|, and a full step lowers phi by about half the predicted
# decrease: below this level the test compares rounding noise.
ROUNDOFF_RTOL = 4.0 * np.finfo(float).eps


class StepError(RuntimeError):
    """Newton or line-search failure inside one time step."""


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

    def __post_init__(self):
        # NaN fails every `> 0` test; inf passes it, but an infinite T
        # breaks round(), dt or newton_tol of inf end every step at once,
        # and the Hessian floors kappa with kappa_reg
        for key in ("dt", "T", "newton_tol", "kappa_reg"):
            value = getattr(self, key)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{key} must be positive and finite, got {value!r}")
        steps = self.T / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(steps, 1.0):
            raise ValueError("T must be an integral multiple of dt")
        if self.newton_max_iter < 1:
            raise ValueError("newton_max_iter must be positive")
        if not 0.0 <= self.cg_tol < 1.0:
            raise ValueError("cg_tol must lie in [0, 1)")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))


@dataclass
class StepReport:
    """What run_path records of one step: the solver counts, and J, strain
    and V of the returned velocity.

    A step returns its report only once it has converged; a step that
    does not converge raises StepError instead.  For a batch of B >= 2
    every field holds one entry per path, except `iterations`, which is
    the batch's total Newton iterations, so that summed over calls it
    counts Newton iterations per path-step as for one path;
    `path_iterations` holds each path's own count.  For one path every
    count is a scalar, and `path_iterations` equals `iterations`.  strain,
    strain_norm and V always carry the batch axis.
    """

    iterations: int
    cg_iterations: int              # summed over the Newton iterations
    backtracks: int                 # line-search halvings, summed likewise
    roundoff_steps: int             # full steps taken by the round-off rule
    J: float
    strain: np.ndarray = field(repr=False)
    strain_norm: np.ndarray = field(repr=False)  # nodewise |strain|
    V: np.ndarray = field(repr=False)
    path_iterations: np.ndarray | int


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
    # share of its block's time: its steps completed over the block's;
    # phase_seconds are already scaled by it
    time_share: float = 1.0


# axis orders that put the batch axis of a batched vector or tensor field
# first; a fixed transpose costs a fraction of np.moveaxis
_BATCH_FIRST = {3: (0, 1, 2), 4: (1, 0, 2, 3), 5: (2, 0, 1, 3, 4)}


def _batch_first(x):
    """View of a batched field with its batch axis (third from last) first."""
    return x.transpose(_BATCH_FIRST[x.ndim])


def _take(x, idx):
    """Members idx of a batched field; None takes all of them."""
    return x if idx is None else x[..., idx, :, :]


def _members(keep, *items):
    """The members where the bools keep hold, of per-path lists and
    batched fields."""
    sel = [j for j, k in enumerate(keep) if k]
    return [[x[j] for j in sel] if isinstance(x, list) else x[..., sel, :, :] for x in items]


def _leave(out, act, keep, *fields):
    """The block's fields out once the members of act where the bools keep
    are False have left the lockstep with fields as their final values.

    out is None until a first member leaves: the fields then still span
    the block and are returned as they are, so a block whose paths all
    leave at once copies nothing.  The members that stay go on in
    gathered copies, so nothing writes to out through them.
    """
    if out is None:
        return fields
    sel = [j for j, k in enumerate(keep) if not k]
    paths = [act[j] for j in sel]
    for o, x in zip(out, fields):
        o[..., paths, :, :] = x[..., sel, :, :]
    return out


class Stepper:
    """Owns the operators for one (grid, potential, noise) configuration.

    Immutable after construction; the runner builds one instance per
    block of paths (paths are embarrassingly parallel).
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
            q = self._grad_potential(spec.modes.swapaxes(0, 1))[1]
            self._k_modes = spec.lambdas[:, None] * q.reshape(spec.mode_count, -1)

    # -- building blocks ------------------------------------------------
    def _project(self, v):
        return self.projector.project_values(v)[0]

    def _grad_potential(self, v):
        """P v and the mean-free q with (I-P) v = grad q of each path of a
        batch v (2, B, n, n); B*((I-P) v) = -q, and each q has its own mean
        removed."""
        div_free, _, q = self.projector.project_values(v)
        means = np.add.reduce(q.reshape(len(q), -1), axis=1) / q[0].size
        return div_free, q - means[:, None, None]

    def _inner(self, a, b):
        return self._area * float(np.add.reduce(a * b, axis=None))

    def _inner_batch(self, a, b):
        """_inner per path of two batched fields, a list with the bits of _inner.

        Each path's products are summed over its own contiguous entries of
        a batch-first copy, as np.add.reduce(..., axis=None) sums them.
        """
        prod = _batch_first(a * b)
        return (self._area * np.add.reduce(prod.reshape(len(prod), -1), axis=1)).tolist()

    def _lp_norms(self, mags, r):
        """lp_norm per path of nodewise magnitudes (B, n, n), bit for bit.

        The root is taken per path on a float64 scalar, as lp_norm takes
        it: NumPy's array power may round differently.
        """
        sums = self._area * np.add.reduce((mags**r).reshape(len(mags), -1), axis=1)
        return np.array([s ** (1.0 / r) for s in sums])

    def _forcing(self, u, dW):
        """G(u_b) dW_b of each path of a batch: one apply_G per path."""
        out = np.empty_like(u)
        for b, inc in enumerate(dW):
            out[:, b] = apply_G(self.spec, u[:, b], inc)
        return out

    def _k_increment(self, dW):
        """Additive K increment sum_j dW_j k_j of one path's draws dW (J,).

        One dot per path, the one tensordot(dW, k_modes, 1) makes: a batched
        product would not give each path its bits.
        """
        n = self.grid.n
        return np.dot(dW.reshape(1, -1), self._k_modes).reshape(n, n)

    def _grad_energy(self, eps, factor=None):
        """Gradient of J in the weighted L^2 product at strain eps: -div S(eps);
        factor is S's radial factor at eps, where the caller has it."""
        return -div_tensor_values(self._D, pot.s_tensor(self.params, eps, factor))

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
    def step(self, u, dW):
        """One implicit step of a block u (2, B, n, n) with a sequence of B
        increments, each the (J,) array of one path's draws, or None;
        returns (u_next, StepReport), u_next shaped like u.

        Only B >= 2 runs _step_batch.  A block of one runs the one-path
        loop, as the batched loop's step phase took 17-18 % longer at
        B = 1 for n = 16 and 32, and gets its report with the batch axis
        added to strain, strain_norm and V.
        """
        if u.ndim != 4:
            raise ValueError(f"step takes a block (2, B, n, n), got shape {u.shape}")
        if u.shape[1] > 1:
            return self._step_batch(u, dW)
        v, rep = self._step_one(u[:, 0], None if dW is None else dW[0])
        rep.strain, rep.strain_norm, rep.V = (
            rep.strain[:, :, None], rep.strain_norm[None], rep.V[:, :, None])
        return v[:, None], rep

    def _step_one(self, u, dW):
        """step() on one path u (2, n, n): damped Newton with projected CG."""
        cfg = self.config
        dt = cfg.dt
        if dW is not None and self.spec is not None and self.spec.mode_count > 0:
            forcing = apply_G(self.spec, u, dW)
            r = u + self._project(forcing)
        else:
            r = u

        def objective(v):
            """Objective value at v, the strain of v, its magnitude and J."""
            diff = v - r
            eps = sym_grad_values(self._D, v)
            t = pot._frobenius(eps)
            J = pot.energy(self.params, eps, self._area, t)
            return dt * J + 0.5 * self._inner(diff, diff), eps, t, J

        # start at the predictor; v carries phi_v, eps, t = |eps|, J_v and,
        # once it has moved, V_v
        v = r.copy()
        phi0, eps, t, J_v = objective(v)
        phi_v = phi0
        V_v = None
        vdist = np.inf
        grad_norm = np.inf
        converged = False
        failure = f"Newton did not converge in {cfg.newton_max_iter} iterations"
        iterations = cg_iterations = backtracks = roundoff_steps = 0
        for it in range(cfg.newton_max_iter):
            factor = pot.s_factor(self.params, t)
            g = self._project(dt * self._grad_energy(eps, factor)) + (v - r)
            grad_norm = np.sqrt(self._inner(g, g))
            # rounding floor: below this scale no descent is representable
            field_scale = 1.0 + np.sqrt(self._inner(v, v))
            floor = 1e-14 * field_scale
            if grad_norm <= max(floor, 1e-14 * (1.0 + abs(phi_v))):
                converged = True
                break
            a1, a2, unit = pot.hessian_coeffs(
                self._hess_params, eps, t, factor if self._hess_params is self.params else None)

            forcing = max(FIRST_CG_TOL, cfg.cg_tol) if it == 0 else cfg.cg_tol
            delta, cg_its = self._cg_solve(a1, a2, unit, g, dt, floor, forcing)
            cg_iterations += cg_its
            predicted = -self._inner(g, delta)
            if predicted <= floor * grad_norm:
                converged = True
                break
            alpha = 1.0
            cand = v + delta
            phi_c, eps_c, t_c, J_c = objective(cand)
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
                    phi_c, eps_c, t_c, J_c = objective(cand)
                if alpha <= 1e-14:
                    failure = f"line search stalled in Newton iteration {it + 1}"
                    break
            if V_v is None:
                V_v = pot.v_tensor(self.params, eps, t)
            V_c = pot.v_tensor(self.params, eps_c, t_c)
            dv = V_c - V_v
            v, phi_v, eps, t, V_v, J_v = cand, phi_c, eps_c, t_c, V_c, J_c
            iterations = it + 1
            vdist = self._inner(dv, dv)
            if vdist <= cfg.newton_tol:
                converged = True
                break
        if not converged:
            raise StepError(
                f"{failure}; "
                f"last V-distance^2 = {vdist:.3e}, gradient norm = {grad_norm:.3e}"
            )
        if V_v is None:
            V_v = pot.v_tensor(self.params, eps, t)
        report = StepReport(
            iterations=iterations,
            cg_iterations=cg_iterations,
            backtracks=backtracks,
            roundoff_steps=roundoff_steps,
            J=J_v,
            strain=eps,
            strain_norm=t,
            V=V_v,
            path_iterations=iterations,
        )
        return v, report

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
        while iterations < CG_MAX_ITER and rs > target:
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

    def _step_batch(self, u, dW):
        """step() on a batch of B >= 2: Newton, CG and line search in lockstep.

        Every path takes the iterations of its own step() and gets its
        bits: the kernels act on each member as on one path, per-path
        scalars are Python floats as in the one-path loop, and a path
        leaves the lockstep where its own loop stops, with the others
        gathered to go on.  Raises StepError for the first path that fails.
        """
        cfg = self.config
        dt = cfg.dt
        B = u.shape[1]
        if dW is not None and self.spec is not None and self.spec.mode_count > 0:
            r = u + self._project(self._forcing(u, dW))
        else:
            r = u
        shared_a2 = self._hess_params is self.params

        def objective(v, r):
            """Objective values, strain, its magnitude and J of each member."""
            diff = v - r
            eps = sym_grad_values(self._D, v)
            t = pot._frobenius(eps)
            J = pot.energy(self.params, eps, self._area, t).tolist()
            half = self._inner_batch(diff, diff)
            return [dt * j + 0.5 * h for j, h in zip(J, half)], eps, t, J

        # the iterates v of the paths act, with their strain, its magnitude
        # and V, start at the predictor; lists over act are indexed by
        # position, those over the block (phi, J, the counts, vdist and
        # grad_norm) by path
        v = r.copy()
        phi0, eps, t, J = objective(v, r)
        V = pot.v_tensor(self.params, eps, t)
        phi = list(phi0)
        vdist, grad_norm = [np.inf] * B, [np.inf] * B
        iterations, cg_iterations, backtracks, roundoff_steps = ([0] * B for _ in range(4))
        act = list(range(B))
        out = None  # the block's (v, eps, t, V) once a path has left
        for it in range(cfg.newton_max_iter):
            factor = pot.s_factor(self.params, t)
            g = self._project(dt * self._grad_energy(eps, factor)) + (v - r)
            gg = self._inner_batch(g, g)
            # rounding floor: below this scale no descent is representable
            floor = [1e-14 * (1.0 + math.sqrt(x)) for x in self._inner_batch(v, v)]
            go = []
            for b, sq, f in zip(act, gg, floor):
                grad_norm[b] = x = math.sqrt(sq)
                go.append(not x <= max(f, 1e-14 * (1.0 + abs(phi[b]))))
            if not all(go):
                out = _leave(out, act, go, v, eps, t, V)
                if not any(go):
                    break
                act, v, r, eps, t, V, g, gg, factor, floor = _members(
                    go, act, v, r, eps, t, V, g, gg, factor, floor)
            a1, a2, unit = pot.hessian_coeffs(
                self._hess_params, eps, t, factor if shared_a2 else None)
            forcing = max(FIRST_CG_TOL, cfg.cg_tol) if it == 0 else cfg.cg_tol
            delta, cg_its = self._cg_solve_batch(a1, a2, unit, g, gg, dt, floor, forcing)
            predicted = [-x for x in self._inner_batch(g, delta)]
            go = []
            for b, c, pr, f in zip(act, cg_its, predicted, floor):
                cg_iterations[b] += c
                go.append(not pr <= f * grad_norm[b])
            if not all(go):
                out = _leave(out, act, go, v, eps, t, V)
                if not any(go):
                    break
                act, v, r, eps, t, V, delta, predicted = _members(
                    go, act, v, r, eps, t, V, delta, predicted)
            cand = v + delta
            phi_c, eps_c, t_c, J_c = objective(cand, r)
            alpha = [1.0] * len(act)
            search = []
            for j, b in enumerate(act):
                if predicted[j] <= ROUNDOFF_RTOL * abs(phi[b]) and phi_c[j] <= phi0[b]:
                    # the Armijo test would compare rounding noise (module
                    # docstring): take the full step, never above phi0
                    roundoff_steps[b] += 1
                    search.append(False)
                else:
                    search.append(not phi_c[j] <= phi[b] - 1e-4 * alpha[j] * predicted[j])
            while any(search):
                s = [j for j, on in enumerate(search) if on]
                for j in s:
                    alpha[j] *= 0.5
                    backtracks[act[j]] += 1
                    if alpha[j] <= 1e-14:
                        b = act[j]
                        raise StepError(
                            f"line search stalled in Newton iteration {it + 1}; last "
                            f"V-distance^2 = {vdist[b]:.3e}, gradient norm = {grad_norm[b]:.3e}")
                lengths = np.array([alpha[j] for j in s])[:, None, None]
                cand_s = v[:, s] + lengths * delta[:, s]
                phi_s, eps_s, t_s, J_s = objective(cand_s, r[:, s])
                cand[:, s], eps_c[:, :, s], t_c[s] = cand_s, eps_s, t_s
                for j, ph, Js in zip(s, phi_s, J_s):
                    phi_c[j], J_c[j] = ph, Js
                    search[j] = not ph <= phi[act[j]] - 1e-4 * alpha[j] * predicted[j]
            V_c = pot.v_tensor(self.params, eps_c, t_c)
            dv = V_c - V
            v, eps, t, V = cand, eps_c, t_c, V_c
            go = []
            for j, (b, d) in enumerate(zip(act, self._inner_batch(dv, dv))):
                phi[b], J[b], iterations[b], vdist[b] = phi_c[j], J_c[j], it + 1, d
                go.append(not d <= cfg.newton_tol)
            if not all(go):
                out = _leave(out, act, go, v, eps, t, V)
                if not any(go):
                    break
                act, v, r, eps, t, V = _members(go, act, v, r, eps, t, V)
        else:
            b = act[0]
            raise StepError(
                f"Newton did not converge in {cfg.newton_max_iter} iterations; last "
                f"V-distance^2 = {vdist[b]:.3e}, gradient norm = {grad_norm[b]:.3e}")
        v, eps, t, V = out
        report = StepReport(
            iterations=sum(iterations),
            cg_iterations=np.array(cg_iterations),
            backtracks=np.array(backtracks),
            roundoff_steps=np.array(roundoff_steps),
            J=np.array(J),
            strain=eps,
            strain_norm=t,
            V=V,
            path_iterations=np.array(iterations),
        )
        return v, report

    def _cg_solve_batch(self, a1, a2, unit, g, gg, dt, floor, tol):
        """_cg_solve on a batch, with <g, g> and floor lists per path: each
        path iterates and stops as in its own solve; the others go on
        gathered."""
        B = g.shape[1]
        x = np.zeros_like(g)
        res = -g
        p_dir = res.copy()
        rs = gg  # <-g, -g> is <g, g> bit for bit
        target = [max(tol**2 * s, f**2) for s, f in zip(rs, floor)]
        its = [0] * B
        act = list(range(B))
        out = None  # the block's (x,) once a path has left
        k = 0  # CG iterations of the paths act
        while True:
            go = [s > tg for s, tg in zip(rs, target)] if k < CG_MAX_ITER else [False] * len(act)
            if not all(go):
                for b in act:  # final for the paths that leave now
                    its[b] = k
                out = _leave(out, act, go, x)
                if not any(go):
                    break
                act, a1, a2, unit, x, res, p_dir, rs, target = _members(
                    go, act, a1, a2, unit, x, res, p_dir, rs, target)
            hw = self._hessian_apply(a1, a2, unit, p_dir)
            hw *= dt
            hw += p_dir
            Ap = self._project(hw)
            denom = self._inner_batch(p_dir, Ap)
            go = [not d <= 1e-12 * q for d, q in zip(denom, self._inner_batch(p_dir, p_dir))]
            if not all(go):
                for b in act:
                    its[b] = k
                out = _leave(out, act, go, x)
                if not any(go):
                    break
                act, a1, a2, unit, x, res, p_dir, rs, target, Ap, denom = _members(
                    go, act, a1, a2, unit, x, res, p_dir, rs, target, Ap, denom)
            k += 1
            alpha = np.array([s / d for s, d in zip(rs, denom)])[:, None, None]
            x += alpha * p_dir
            res -= alpha * Ap
            rs_new = self._inner_batch(res, res)
            p_dir *= np.array([s1 / s0 for s1, s0 in zip(rs_new, rs)])[:, None, None]
            p_dir += res
            rs = rs_new
        return self._project(out[0]), its

    def _stress_terms(self, eps, t):
        """S(eps), the strong residual P div S and pi_det; t is |eps|.

        pi_det = -B*((I-P) div S) is the mean-free Helmholtz potential of
        div S, which the projection for the residual returns anyway.
        """
        stress = pot.s_tensor(self.params, eps, pot.s_factor(self.params, t))
        res, pi = self._grad_potential(div_tensor_values(self._D, stress))
        return stress, res, pi

    def accumulate_K_sto(self, K_prev, u_n, dW):
        """K_next = K_prev - B*( (I-P) G(u_n) dW ); stays mean-free.

        The increment is the potential of the gradient part of G(u_n) dW
        (module docstring).  K_prev (B, n, n) and u_n (2, B, n, n) are a
        block of B paths, one path included, with a sequence of B
        increments; each path's increment is formed as for a block of one.
        """
        if self.spec is None or self.spec.mode_count == 0:
            return K_prev
        if self._k_modes is not None:
            incr = np.array([self._k_increment(inc) for inc in dW])
        else:
            incr = self._grad_potential(self._forcing(u_n, dW))[1]
        return K_prev + incr

    def run_path(self, u0, rng):
        """Integrate one sample path, or a block of paths in lockstep, from
        the velocity u0 (2, n, n).

        rng is one PathRng, which gives one PathTrajectory, or a sequence
        of them, which gives a list of trajectories in the same order.  A
        block of B paths, one path included, makes one batched step() and
        accumulate_K_sto() call and one batched record per time step, and
        each path gets the bits of its own run.  An exception raised while
        stepping or recording, the initial state's record and a
        non-finite velocity included, ends the failing path only: a time
        step of two or more paths that raises is redone for each path as a
        batch of one, from the saved state and with the increments
        already drawn.  A failed path's trajectory keeps the steps
        recorded so far, `completed` is False and `error` names the step
        and the exception.  An initial velocity that fails its checks
        raises ValueError.
        """
        block = isinstance(rng, (list, tuple))
        trajs = self._run_block(u0, list(rng) if block else [rng])
        return trajs if block else trajs[0]

    def _run_block(self, u0, rngs: list) -> list:
        cfg = self.config
        n_steps = cfg.n_steps
        lags = dyadic_lags(n_steps)
        depth = max(lags) + 1
        n = self.grid.n
        p = self.params.p
        p_conj = p / (p - 1.0)
        B = len(rngs)
        D, area = self._D, self._area

        div = div_vec_values(D, u0)
        div_u0 = np.sqrt(self._inner(div, div))
        if div_u0 > 1e-8 * (1.0 + np.sqrt(self._inner(u0, u0))):
            raise ValueError(f"initial velocity is not divergence-free: {div_u0:.3e}")
        if not np.all(np.isfinite(u0)):
            raise ValueError("initial velocity contains non-finite entries")

        # row b of each series is path b; entry k is step k
        energy, res_l2, u_l2, pi_lp, k_w12, stress_lp = np.zeros((6, B, n_steps + 1))
        newton_its, cg_its, backtracks, roundoff_steps = np.zeros((4, B, n_steps + 1))
        # state k of path b sits at [k % depth, b]; the lag-m difference of step k
        # is entry k - m
        rings = {
            "u": np.zeros((depth, B, 2, n, n)),
            "V": np.zeros((depth, B, 2, 2, n, n)),
            "K": np.zeros((depth, B, n, n)),
        }
        # [b, i] holds path b's lag-lags[i] differences
        lag_steps = np.array(lags)
        diffs = {q: np.zeros((B, len(lags), n_steps + 1)) for q in rings}
        # a whole block's lag differences of one quantity go here, not
        # into a fresh array per record: past glibc's default 128 KiB mmap
        # threshold that page-faults on every record (V's take 224 KiB at
        # B = 4, n = 16 and at B = 1, n = 32, 512 steps)
        gathered = {q: np.empty((len(lags),) + ring.shape[1:]) for q, ring in rings.items()}

        def record(k, idx, u_vals, eps, t, Vt, J, K_vals):
            """Record step k of the paths idx (None: all B) from their batched
            velocity, strain and its magnitude, V, energies and K; a
            velocity that is not finite raises StepError before anything
            is recorded."""
            if not np.isfinite(u_vals).all():
                raise StepError("non-finite velocity")
            stress, res, pi = self._stress_terms(eps, t)
            who = slice(None) if idx is None else idx
            energy[who, k] = J
            res_l2[who, k] = np.sqrt(self._inner_batch(res, res))
            u_l2[who, k] = np.sqrt(self._inner_batch(u_vals, u_vals))
            pi_lp[who, k] = self._lp_norms(np.abs(pi), p_conj)
            k_w12[who, k] = w12_norm_values(D, area, K_vals)
            stress_lp[who, k] = self._lp_norms(pot._frobenius(stress), p_conj)
            m = lag_steps[lag_steps <= k]
            dest = (slice(None) if idx is None else idx[:, None], np.arange(m.size), k - m)
            for q, latest in (("u", u_vals), ("V", Vt), ("K", K_vals)):
                slot = rings[q][k % depth]
                slot[who] = _batch_first(latest)
                if not m.size:
                    continue
                # the differences with the earlier states, row i for lag m[i]
                back = (k - m) % depth
                if idx is None:
                    d = gathered[q][: m.size]
                    for i, b in enumerate(back.tolist()):
                        np.subtract(slot, rings[q][b], out=d[i])
                else:
                    d = rings[q][back[:, None], idx]
                    np.subtract(slot[idx], d, out=d)
                if q == "K":
                    norms = w12_norm_values(D, area, d)
                else:
                    d *= d
                    sq = d.reshape(d.shape[:2] + (-1,))
                    norms = np.sqrt(area * np.add.reduce(sq, axis=-1))
                diffs[q][dest] = norms.T

        u = np.repeat(u0[:, None], B, axis=1)
        K = np.zeros((B, n, n))
        clock = time.perf_counter
        phases = {"step": 0.0, "record": 0.0, "K": 0.0}

        def batch_step(k, live, dW):
            """Time step k of the paths live as one batch; step 0 records
            the initial state."""
            idx = None if len(live) == B else np.array(live)
            who = slice(None) if idx is None else idx
            u_new, K_new = _take(u, idx), _take(K, idx)
            t0 = clock()
            if k == 0:
                eps = sym_grad_values(D, u_new)
                t = pot._frobenius(eps)
                Vt, J = pot.v_tensor(self.params, eps, t), pot.energy(self.params, eps, area, t)
            else:
                if dW is not None:
                    K_new = self.accumulate_K_sto(K_new, u_new, dW)
                t1 = clock()
                phases["K"] += t1 - t0
                u_new, rep = self.step(u_new, dW)
                t0 = clock()
                phases["step"] += t0 - t1
                eps, t, Vt, J = rep.strain, rep.strain_norm, rep.V, rep.J
                newton_its[who, k] = rep.path_iterations
                cg_its[who, k] = rep.cg_iterations
                backtracks[who, k] = rep.backtracks
                roundoff_steps[who, k] = rep.roundoff_steps
            record(k, idx, u_new, eps, t, Vt, J, K_new)
            u[:, who], K[who] = u_new, K_new
            phases["record"] += clock() - t0

        def failure(k, paths, dW):
            """batch_step(k, paths, dW); None, or the text of the exception it
            raised.  This is the one place a path fails: any exception ends
            these paths only."""
            try:
                batch_step(k, paths, dW)
            except Exception as exc:
                kind = "" if isinstance(exc, StepError) else f"{type(exc).__name__}: "
                return f"step {k}: {kind}{exc}"
            return None

        snapshots = [[] for _ in range(B)]
        errors = [None] * B
        recorded = np.zeros(B, dtype=int)
        modes = self.spec.mode_count if self.spec is not None else 0
        live = list(range(B))
        for k in range(n_steps + 1):
            if not live:
                break
            dW = [sample_increment(rngs[b], cfg.dt, modes) for b in live] if k and modes else None
            reason = failure(k, live, dW)
            if reason is not None and len(live) == 1:
                errors[live[0]] = reason
            elif reason is not None:
                # redo the step path by path from the saved state, so that
                # a path fails alone
                for j, b in enumerate(live):
                    errors[b] = failure(k, [b], None if dW is None else dW[j:j + 1])
            live = [b for b in live if errors[b] is None]
            recorded[live] = k + 1
            if cfg.store_every > 0 and k % cfg.store_every == 0:
                for b in live:
                    snapshots[b].append((k, u[:, b].copy()))

        times = np.arange(n_steps + 1) * cfg.dt
        steps = np.maximum(recorded - 1, 0)
        trajs = []
        for b in range(B):
            trim = recorded[b]
            share = float(steps[b] / steps.sum()) if steps.sum() else 1.0 / B
            trajs.append(PathTrajectory(
                times=times[:trim],
                energy=energy[b, :trim],
                residual_l2=res_l2[b, :trim],
                velocity_l2=u_l2[b, :trim],
                # ||V(eps u_k) - V(eps u_{k-1})|| is the lag-1 difference of V
                v_increment=np.concatenate([[0.0], diffs["V"][b, 0]])[:trim],
                pressure_det_lp=pi_lp[b, :trim],
                k_sto_w12=k_w12[b, :trim],
                newton_iterations=newton_its[b, :trim],
                cg_iterations=cg_its[b, :trim],
                backtracks=backtracks[b, :trim],
                roundoff_steps=roundoff_steps[b, :trim],
                diff_lags=lags,
                diffs={
                    q: {m: diffs[q][b, i, : max(trim - m, 0)] for i, m in enumerate(lags)}
                    for q in diffs
                },
                phase_seconds={name: secs * share for name, secs in phases.items()},
                snapshots=snapshots[b],
                sup_stress_lpprime=float(stress_lp[b, :trim].max(initial=0.0)),
                error=errors[b],
                completed=errors[b] is None,
                time_share=share,
            ))
        return trajs
