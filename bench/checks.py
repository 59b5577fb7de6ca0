"""Output checks made apart from the program.

Every check reads the files a run left on disk with its own parsers and
recomputes what it compares against with its own arithmetic: digests
with hashlib, norms and least-squares slopes with plain numpy, the
divergence with a stencil written here, Luxemburg norms with a
root-find written here.  The program's P and B* enter only as the
linear operators of an identity the check evaluates itself: the closed
form of K_sto (on the noise modes) and pi_det rebuilt from a stored
velocity snapshot.

A failed check raises CheckFailed with a message naming the file and
the numbers that disagree.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np
from scipy.optimize import brentq

from pstokeslab.grid import VectorField


class CheckFailed(AssertionError):
    """An output of the program disagrees with its independent recomputation."""


def _fail(msg: str):
    raise CheckFailed(msg)


# ---------------------------------------------------------------------
# readers and discrete calculus written for the checks
# ---------------------------------------------------------------------

def read_csv_rows(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_manifest(run_dir: str) -> dict:
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        return json.load(fh)


def read_diffs(path: str) -> dict:
    """(quantity, lag) -> values, in file order."""
    out: dict = {}
    for row in read_csv_rows(path):
        out.setdefault((row["quantity"], int(row["lag_steps"])), []).append(
            float(row["value"])
        )
    return {key: np.array(vals) for key, vals in out.items()}


def read_snapshot(path: str, n: int) -> np.ndarray:
    """Vector field (2, n, n) from the runner's "i,j,comp,value" CSV."""
    vals = np.full((2, n, n), np.nan)
    for row in read_csv_rows(path):
        vals[int(row["comp"]), int(row["i"]), int(row["j"])] = float(row["value"])
    if np.isnan(vals).any():
        _fail(f"{path}: snapshot does not cover the {n}x{n} grid")
    return vals


def central_difference(n: int) -> np.ndarray:
    """1-d central differences on cell centres, odd reflection at both walls."""
    h = 1.0 / n
    D = np.zeros((n, n))
    idx = np.arange(1, n - 1)
    D[idx, idx - 1] = -0.5
    D[idx, idx + 1] = 0.5
    D[0, 0] = D[0, 1] = 0.5          # ghost u(-1) = -u(0)
    D[n - 1, n - 1] = D[n - 1, n - 2] = -0.5
    return D / h


def w12_norm(q: np.ndarray) -> float:
    """(||q||^2 + ||grad q||^2)^(1/2) with the cell quadrature h^2."""
    n = q.shape[0]
    D = central_difference(n)
    gx, gy = D.T @ q, q @ D          # scalar gradient is -div^T
    return math.sqrt((np.sum(q * q) + np.sum(gx * gx) + np.sum(gy * gy)) / n**2)


def phi2_luxemburg(vals: np.ndarray, dt: float) -> float:
    """lambda with dt * sum expm1((x/lambda)^2) = 1 over the left Riemann samples.

    Solved in s = log(lambda) with brentq; the sum is evaluated as a
    shifted log-sum so no term overflows.
    """
    x = np.abs(np.asarray(vals, dtype=float)[:-1])
    xmax = float(x.max(initial=0.0))
    if xmax == 0.0:
        return 0.0

    def g(s):
        a = (x * math.exp(-s)) ** 2
        amax = float(a.max())
        return math.log(dt) + amax + math.log(np.sum(np.exp(a - amax) - math.exp(-amax)))

    # at lambda0 the largest sample alone brings the modular to one
    s0 = math.log(xmax) - 0.5 * math.log(math.log1p(1.0 / dt))
    lo, hi = s0 - 1e-3, s0 + 1.0
    while g(hi) > 0.0:
        hi += 1.0
    return math.exp(brentq(g, lo, hi, xtol=1e-15, rtol=1e-15, maxiter=500))


def ls_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y on x through numpy's polynomial fit."""
    return float(np.polynomial.polynomial.polyfit(x, y, 1)[1])


# ---------------------------------------------------------------------
# checks common to every workload
# ---------------------------------------------------------------------

def check_paths_ok(manifest: dict, paths: int) -> list:
    """Indices of the paths that finished; the manifest must list them all."""
    status = manifest["path_status"]
    if sorted(status, key=int) != [str(i) for i in range(paths)]:
        _fail(f"manifest lists paths {sorted(status, key=int)}, expected 0..{paths - 1}")
    return [int(i) for i, st in status.items() if st == "ok"]


ANALYSIS_OUTPUTS = ("norms_", "aggregate_norms.csv", "fits_")


def check_digests(run_dir: str, manifest: dict):
    """Every digest in the manifest matches the file; no run file is missing or extra.

    Files that norms/fit add after the run are not part of the manifest.
    """
    on_disk = sorted(
        name for name in os.listdir(run_dir)
        if name != "manifest.json" and not name.startswith(ANALYSIS_OUTPUTS)
    )
    listed = sorted(manifest["files"])
    if on_disk != listed:
        extra = sorted(set(on_disk) - set(listed))
        missing = sorted(set(listed) - set(on_disk))
        _fail(f"{run_dir}: files not in manifest {extra}, listed but absent {missing}")
    for name, digest in manifest["files"].items():
        with open(os.path.join(run_dir, name), "rb") as fh:
            actual = hashlib.sha256(fh.read()).hexdigest()
        if actual != digest:
            _fail(f"{name}: sha256 {actual} differs from manifest {digest}")


def check_series_set(run_dir: str, paths: int):
    """The path_*_series.csv files are exactly those of the manifest's paths."""
    found = sorted(
        name for name in os.listdir(run_dir)
        if name.startswith("path_") and name.endswith("_series.csv")
    )
    expected = [f"path_{i:04d}_series.csv" for i in range(paths)]
    if found != expected:
        _fail(f"{run_dir}: series files {found} != manifest paths {expected}")


# ---------------------------------------------------------------------
# mc_n16_additive
# ---------------------------------------------------------------------

def replay_wiener_endpoint(rng, steps: int, modes: int, dt: float) -> np.ndarray:
    """W(T) from the stepper's draw sequence: `steps` draws of `modes` normals."""
    return np.sum(rng.standard_normal((steps, modes)) * math.sqrt(dt), axis=0)


def check_k_sto_closed_form(run_dir, indices, w_end: dict, lambdas, bstar_modes,
                            rtol=1e-9):
    """Additive noise: K_sto(T) = -sum_j lambda_j B*((I-P) psi_j) W_j(T).

    `bstar_modes[j]` is B*((I-P) psi_j); `w_end[i]` the replayed W(T)
    of path i.  The last K_sto_w12 of each series must match.
    """
    for i in indices:
        K = -np.tensordot(lambdas * w_end[i], bstar_modes, axes=(0, 0))
        expected = w12_norm(K)
        rows = read_csv_rows(os.path.join(run_dir, f"path_{i:04d}_series.csv"))
        got = float(rows[-1]["K_sto_w12"])
        if abs(got - expected) > rtol * abs(expected):
            _fail(f"path {i}: final K_sto_w12 {got:.12e} != closed form {expected:.12e}")


def check_power2_norms(run_dir, indices, dt: float, n_steps: int, rtol=1e-9):
    """Every power(2) per-lag norm equals sqrt(dt sum v^2) of the diffs series.

    The sum is the left Riemann rule over the series' own window (the
    last sample is an endpoint).  Lags are the fit window 4..n_steps/8.
    """
    for i in indices:
        diffs = read_diffs(os.path.join(run_dir, f"path_{i:04d}_diffs.csv"))
        for quantity in ("u", "V", "K"):
            rows = [
                r for r in read_csv_rows(
                    os.path.join(run_dir, f"norms_{quantity}_path{i:04d}.csv"))
                if r["kind"] == "power(2)" and float(r["alpha"]) == 0.5
            ]
            lags = sorted(m for (q, m) in diffs if q == quantity and 4 <= m <= n_steps // 8)
            if len(rows) != len(lags):
                _fail(f"path {i} {quantity}: {len(rows)} power(2) rows, {len(lags)} lags")
            for row, m in zip(rows, lags):
                v = diffs[(quantity, m)]
                expected = math.sqrt(dt * float(np.sum(v[:-1] ** 2)))
                got = float(row["norm"])
                if abs(float(row["h"]) - m * dt) > 1e-12 * m * dt:
                    _fail(f"path {i} {quantity}: h {row['h']} != lag {m} * dt")
                if abs(got - expected) > rtol * max(abs(expected), 1e-300):
                    _fail(f"path {i} {quantity} lag {m}: power(2) norm {got:.12e} "
                          f"!= sqrt(dt sum v^2) {expected:.12e}")


def per_path_fits(run_dir, indices, dt: float, n_steps: int) -> dict:
    """(quantity, kind, path) -> slope refitted from the per-lag norms files."""
    T = n_steps * dt
    out = {}
    for i in indices:
        for quantity in ("u", "V", "K"):
            by_kind: dict = {}
            for r in read_csv_rows(os.path.join(run_dir, f"norms_{quantity}_path{i:04d}.csv")):
                by_kind.setdefault(r["kind"], []).append((float(r["h"]), float(r["norm"])))
            for kind, pts in by_kind.items():
                h = np.array([p[0] for p in pts])
                nv = np.array([p[1] for p in pts])
                keep = (nv > 0) & (h >= 4 * dt) & (h <= T / 8 + 1e-12)
                if keep.sum() < 4:
                    keep = nv > 0
                out[(quantity, kind, i)] = (
                    ls_slope(np.log2(h[keep]), np.log2(nv[keep])) if keep.sum() >= 2 else math.nan
                )
    return out


def check_fit_slopes(run_dir, refits: dict, atol=1e-7):
    """Every slope in fits_detail.csv equals the independent refit."""
    rows = read_csv_rows(os.path.join(run_dir, "fits_detail.csv"))
    if len(rows) != len(refits):
        _fail(f"fits_detail.csv has {len(rows)} rows, expected {len(refits)}")
    for r in rows:
        key = (r["quantity"], r["kind"], int(r["path"]))
        if key not in refits:
            _fail(f"fits_detail.csv row {key} has no refit")
        got, expected = float(r["slope"]), refits[key]
        if math.isnan(expected) != math.isnan(got) or abs(got - expected) > atol:
            _fail(f"fit {key}: slope {got:.10f} != refit {expected:.10f}")


def check_u_exponent(refits: dict, lo=0.25, hi=0.75) -> float:
    """Median velocity exponent (power(2), alpha 1/2) near the paper's 1/2."""
    slopes = [s for (q, kind, _), s in refits.items() if q == "u" and kind == "power(2)"]
    med = float(np.median(slopes))
    if not lo <= med <= hi:
        _fail(f"median u exponent {med:.3f} outside [{lo}, {hi}]")
    return med


# ---------------------------------------------------------------------
# pressure_n32_multiplicative
# ---------------------------------------------------------------------

def check_divergence_free(path: str, n: int, rtol=1e-10) -> float:
    """max |div u| <= rtol * max|u| / h on the stored snapshot."""
    u = read_snapshot(path, n)
    D = central_difference(n)
    div = D @ u[0] + u[1] @ D.T
    scale = float(np.abs(u).max()) * n
    rel = float(np.abs(div).max()) / scale if scale > 0 else 0.0
    if rel > rtol:
        _fail(f"{path}: relative divergence {rel:.3e} > {rtol:g}")
    return rel


def check_pi_det_final(snapshot: str, series: str, n: int, p: float, kappa: float,
                       projector, bogovskii, rtol=1e-8):
    """pi_det = -B*((I-P) div S(eps u)) recomputed at the stored final step.

    Strain, stress, tensor divergence and the L^{p'} norm use stencils
    written here; P and B* are the program's operators.  The result must
    match the last pi_det_lpprime of the series.
    """
    u = read_snapshot(snapshot, n)
    D = central_difference(n)
    g = [[D @ u[i], u[i] @ D.T] for i in range(2)]        # g[i][j] = d_j u_i
    off = 0.5 * (g[0][1] + g[1][0])
    eps = np.array([[g[0][0], off], [off, g[1][1]]])
    S = (kappa + np.sqrt(np.sum(eps**2, axis=(0, 1)))) ** (p - 2.0) * eps
    div_s = np.array([-(D.T @ S[i, 0]) - S[i, 1] @ D for i in range(2)])  # -grad^T
    grad_part = div_s - projector.project_values(div_s)[0]
    pi = -bogovskii.adjoint_apply(VectorField(projector.grid, grad_part)).values
    q = p / (p - 1.0)
    expected = float(np.sum(np.abs(pi) ** q) / n**2) ** (1.0 / q)
    got = float(read_csv_rows(series)[-1]["pi_det_lpprime"])
    if abs(got - expected) > rtol * expected:
        _fail(f"{series}: final pi_det_lpprime {got:.12e} != recomputed {expected:.12e}")


# ---------------------------------------------------------------------
# wiener_refinement
# ---------------------------------------------------------------------

def read_wiener_table(run_dir: str) -> list:
    return [
        (int(r["path"]), float(r["dt"]), float(r["phi2_sup"]), float(r["b22_quantity"]))
        for r in read_csv_rows(os.path.join(run_dir, "wiener_dichotomy.csv"))
    ]


def check_wiener_table(rows, paths: int, levels: int):
    """One row per (path, level), for exactly the manifest's paths."""
    count: dict = {}
    for index, *_ in rows:
        count[index] = count.get(index, 0) + 1
    if sorted(count) != list(range(paths)) or set(count.values()) != {levels}:
        _fail(f"wiener table covers paths {sorted(count)} with {sorted(set(count.values()))} "
              f"levels each; expected 0..{paths - 1} with {levels}")


def check_dichotomy(rows):
    """Median refinement ratios: phi2 sup in [0.7, 1.6], quadratic >= 1.15."""
    by_path: dict = {}
    for index, dt, sup, quan in rows:
        by_path.setdefault(index, []).append((dt, sup, quan))
    sup_r, quan_r = [], []
    for entries in by_path.values():
        entries.sort(reverse=True)
        sup_r.append([b[1] / a[1] for a, b in zip(entries, entries[1:])])
        quan_r.append([b[2] / a[2] for a, b in zip(entries, entries[1:])])
    med_sup = np.median(np.array(sup_r), axis=0)
    med_quan = np.median(np.array(quan_r), axis=0)
    if not (np.all(med_sup >= 0.7) and np.all(med_sup <= 1.6)):
        _fail(f"median phi2 sup refinement ratios {med_sup} outside [0.7, 1.6]")
    if not np.all(med_quan >= 1.15):
        _fail(f"median quadratic refinement ratios {med_quan} below 1.15")
    return med_sup, med_quan


def check_phi2_sups(rows, samples: dict, T: float, rtol=1e-8):
    """Table phi2_sup of sampled paths equals the sup over lags of h^-1/2 * root-find.

    `samples[i]` is path i's fine Brownian path; each level subsamples it
    and the lags are the dyadic 4..N/8 of the study.
    """
    table = {(index, dt): sup for index, dt, sup, _ in rows}
    n_fine = next(iter(samples.values())).size - 1
    for i, w_fine in samples.items():
        for (index, dt), sup in table.items():
            if index != i:
                continue
            N = int(round(T / dt))
            w = w_fine[:: n_fine // N]
            best, m = 0.0, 4
            while m <= N // 8 and m < w.size - 3:
                best = max(best, (m * dt) ** -0.5 * phi2_luxemburg(w[m:] - w[:-m], dt))
                m *= 2
            if abs(best - sup) > rtol * best:
                _fail(f"path {i} dt {dt:g}: table phi2 sup {sup:.12e} != root-find {best:.12e}")


def check_phi2_norms(pairs, rtol=1e-8):
    """(program norm, increments, dt) triples agree with the root-find."""
    for got, incr, dt in pairs:
        expected = phi2_luxemburg(incr, dt)
        if abs(got - expected) > rtol * expected:
            _fail(f"phi2 Luxemburg norm {got:.12e} != root-find {expected:.12e}")
