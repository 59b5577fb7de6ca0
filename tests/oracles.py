"""Reference implementations that only the tests call.

Each one checks the product from outside: the L^2 product of arrays on
a grid, the potential's derivatives
and sampled monotonicity constants, the Ito isometry of the noise, a
reader for the runner's field snapshots, a seminorm report straight from
stored difference series, and the Wiener study's refinement ratios.
The product code they exercise stays in src/.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from pstokeslab.grid import Grid, ScalarField, TensorField, VectorField, lp_norm
from pstokeslab.noise import NoiseSpec
from pstokeslab.potential import (
    PotentialParams,
    _check_nonnegative,
    _curvatures,
    _frobenius,
    _phi,
    _radial_scale,
    s_tensor,
    v_tensor,
)
from pstokeslab.seminorms import OrliczSpec, SeminormReport, seminorm_report, window_lags


# ---------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------

def l2_inner(grid: Grid, a, b) -> float:
    """Quadrature-weighted L^2 product of two arrays of one shape."""
    return float(grid.cell_area * np.sum(a * b))


def l2_norm(grid: Grid, values) -> float:
    """The program's L^2 norm (lp_norm) of an array of any component shape."""
    return lp_norm(ScalarField(grid, values), 2)


# ---------------------------------------------------------------------
# potential
# ---------------------------------------------------------------------

def phi_prime(params: PotentialParams, t):
    """Derivative phi'(t) = (kappa+t)^(p-2) t."""
    _check_nonnegative(t)
    t = np.asarray(t, dtype=float)
    out = _radial_scale(params, t, params.p - 2.0) * t
    return out if out.ndim else float(out)


def phi_second(params: PotentialParams, t):
    """Second derivative phi''(t) = (kappa+t)^(p-2) (1 + (p-2) t/(kappa+t)).

    Singular for kappa = 0, p < 2 at t = 0; that combination raises.
    """
    _check_nonnegative(t)
    t = np.asarray(t, dtype=float)
    if params.kappa == 0.0 and params.p < 2.0 and np.any(t == 0.0):
        raise ZeroDivisionError(
            "phi'' is singular at t = 0 for kappa = 0 and p < 2"
        )
    out = _curvatures(params, t)[1]
    return out if out.ndim else float(out)


def _tensor_dot(a, b):
    return np.sum(a * b, axis=(0, 1))


def _smallest_pow2_at_least(x: float) -> float:
    c = 1.0
    while c < x:
        c *= 2.0
    return c


@dataclass
class InequalityReport:
    """Sampled verification of the monotonicity inequalities."""

    params: PotentialParams
    n_samples: int
    ratio_min: float
    ratio_max: float
    n_degenerate: int
    young: dict = field(default_factory=dict)       # delta -> (C, min margin)
    shift_change: tuple = (np.nan, np.nan)          # (C, min margin) at delta=0.5
    norm_convention: str = "frobenius"


def inequality_report(
    params: PotentialParams, n_samples: int, rng_seed: int
) -> InequalityReport:
    """Sample random matrix pairs/triples and measure inequality constants.

    Reports the observed bracket of the ratio

        (S(P)-S(Q)):(P-Q) / |V(P)-V(Q)|^2

    over random 2x2 pairs spanning several magnitude decades, the smallest
    power-of-two constants C_delta for which the Young-type bound

        (S(P)-S(Q)):(R-Q) <= delta |V(P)-V(Q)|^2 + C_delta |V(R)-V(Q)|^2

    holds on every sampled triple (delta in {0.1, 0.5, 1}), and likewise
    the shift-change bound

        phi_{|P|}(t) <= C phi_{|Q|}(t) + 0.5 |V(P)-V(Q)|^2.

    Degenerate pairs (vanishing denominators) are excluded and counted.
    Brackets are measured, never asserted against theoretical constants.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    rng = np.random.default_rng(rng_seed)

    def sample_mats(count):
        mats = rng.standard_normal((count, 2, 2))
        scale = 10.0 ** rng.uniform(-2.0, 2.0, size=count)
        return np.moveaxis(mats * scale[:, None, None], 0, -1)

    P = sample_mats(n_samples)
    Q = sample_mats(n_samples)
    dS = s_tensor(params, P) - s_tensor(params, Q)
    dV = v_tensor(params, P) - v_tensor(params, Q)
    num = _tensor_dot(dS, P - Q)
    den = _tensor_dot(dV, dV)
    scale2 = _tensor_dot(P - Q, P - Q)
    keep = den > 1e-30 * np.maximum(scale2, 1e-300)
    n_deg = int(n_samples - keep.sum())
    ratios = num[keep] / den[keep]
    ratio_min = float(ratios.min()) if ratios.size else np.nan
    ratio_max = float(ratios.max()) if ratios.size else np.nan

    # Young-type inequality on fresh triples
    R = sample_mats(n_samples)
    a = den
    dVR = v_tensor(params, R) - v_tensor(params, Q)
    b = _tensor_dot(dVR, dVR)
    lhs = _tensor_dot(dS, R - Q)
    ok = b > 1e-30
    young = {}
    for delta in (0.1, 0.5, 1.0):
        need = (lhs[ok] - delta * a[ok]) / b[ok]
        c_delta = _smallest_pow2_at_least(max(float(need.max(initial=0.0)), 1.0))
        margin = delta * a[ok] + c_delta * b[ok] - lhs[ok]
        young[delta] = (c_delta, float(margin.min()))

    # change of shift at delta = 0.5
    t = np.abs(rng.standard_normal(n_samples)) * 10.0 ** rng.uniform(
        -2.0, 2.0, size=n_samples
    )
    shifts = params.kappa + np.concatenate([_frobenius(P), _frobenius(Q)])
    lhs_cs, rhs_q = np.split(_phi(params.p, shifts, np.concatenate([t, t])), 2)
    ok = rhs_q > 1e-300
    need = (lhs_cs[ok] - 0.5 * a[ok]) / rhs_q[ok]
    c_cs = _smallest_pow2_at_least(max(float(need.max(initial=0.0)), 1.0))
    margin = c_cs * rhs_q[ok] + 0.5 * a[ok] - lhs_cs[ok]
    shift_change = (c_cs, float(margin.min()))

    return InequalityReport(
        params=params,
        n_samples=n_samples,
        ratio_min=ratio_min,
        ratio_max=ratio_max,
        n_degenerate=n_deg,
        young=young,
        shift_change=shift_change,
    )


# ---------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------

def gram(spec: NoiseSpec) -> np.ndarray:
    """Gram matrix of the weighted modes lambda_j psi_j in L^2."""
    J = spec.mode_count
    flat = (spec.lambdas[:, None] * spec.modes.reshape(J, -1)) if J else np.zeros((0, 0))
    return spec.grid.cell_area * flat @ flat.T


@dataclass
class ItoIsometryReport:
    terminal_mean: float
    exact_second_moment: float
    stderr: float
    zscore: float
    sup_mean: float
    integral_value: float
    sup_to_integral: float


def ito_isometry_check(
    spec: NoiseSpec,
    u_frozen: np.ndarray,
    dt: float,
    steps: int,
    paths: int,
    rng_seed: int = 0,
) -> ItoIsometryReport:
    """Monte Carlo check of the stochastic-integral second-moment identity.

    Requires an additive coefficient (rho = one) so the integrand is
    frozen and E ||I_W(T)||^2 = T sum_j lambda_j^2 ||psi_j||^2 holds
    exactly.  Uses the Gram matrix of the weighted modes, so the L^2
    norms are evaluated without assembling fields per sample.
    """
    if spec.rho != "one":
        raise ValueError("isometry check requires the additive profile rho = one")
    gram_matrix = gram(spec)
    T = dt * steps
    exact = T * float(np.trace(gram_matrix))
    if spec.mode_count == 0:
        return ItoIsometryReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, np.nan)
    rng = np.random.default_rng(rng_seed)
    J = spec.mode_count
    sup_sq = np.zeros(paths)
    term_sq = np.zeros(paths)
    block = max(1, int(2e7 // (steps * J)))
    done = 0
    while done < paths:
        b = min(block, paths - done)
        incr = rng.standard_normal((b, steps, J)) * np.sqrt(dt)
        B = np.cumsum(incr, axis=1)  # (b, steps, J)
        quad = np.einsum("bsj,jk,bsk->bs", B, gram_matrix, B)
        sup_sq[done : done + b] = quad.max(axis=1)
        term_sq[done : done + b] = quad[:, -1]
        done += b
    term_mean = float(term_sq.mean())
    stderr = float(term_sq.std(ddof=1) / np.sqrt(paths)) if paths > 1 else 0.0
    z = (term_mean - exact) / stderr if stderr > 0 else 0.0
    integral = exact  # frozen integrand: integral of the HS norm is exact
    sup_mean = float(sup_sq.mean())
    ratio = sup_mean / integral if integral > 0 else np.nan
    return ItoIsometryReport(
        terminal_mean=term_mean,
        exact_second_moment=exact,
        stderr=stderr,
        zscore=float(z),
        sup_mean=sup_mean,
        integral_value=integral,
        sup_to_integral=ratio,
    )


# ---------------------------------------------------------------------
# runner outputs
# ---------------------------------------------------------------------

def load_field(grid: Grid, path):
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    data = np.atleast_2d(data)
    ncomp = int(data[:, 2].max()) + 1
    flat = np.zeros((ncomp, grid.n, grid.n))
    ii = data[:, 0].astype(int)
    jj = data[:, 1].astype(int)
    cc = data[:, 2].astype(int)
    flat[cc, ii, jj] = data[:, 3]
    if ncomp == 1:
        return ScalarField(grid, flat[0])
    if ncomp == 2:
        return VectorField(grid, flat)
    if ncomp == 4:
        return TensorField(grid, flat.reshape(2, 2, grid.n, grid.n))
    raise ValueError(f"unsupported component count {ncomp}")


def report_for_quantity(
    diffs: dict, dt: float, n_steps: int, alpha: float, spec: OrliczSpec
) -> SeminormReport:
    """Seminorm report from stored difference series (lags in the fit window)."""
    lags = window_lags(diffs, n_steps)
    return seminorm_report(((m, diffs[m]) for m in lags), dt, alpha, spec)


def wiener_refinement_ratios(rows, paths: int):
    """Median per-path ratios between consecutive 4x refinements."""
    by_path: dict = {}
    for index, dt, sup, quan in rows:
        by_path.setdefault(index, []).append((dt, sup, quan))
    per_level_sup: dict = {}
    per_level_quan: dict = {}
    for entries in by_path.values():
        entries.sort(reverse=True)  # coarse -> fine
        for level, ((_, s0, q0), (_, s1, q1)) in enumerate(zip(entries, entries[1:])):
            per_level_sup.setdefault(level, []).append(s1 / s0)
            per_level_quan.setdefault(level, []).append(q1 / q0)
    med_sup = [float(np.median(per_level_sup[k])) for k in sorted(per_level_sup)]
    med_quan = [float(np.median(per_level_quan[k])) for k in sorted(per_level_quan)]
    return med_sup, med_quan
