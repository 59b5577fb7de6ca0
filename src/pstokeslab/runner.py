"""Monte Carlo orchestration and CSV persistence.

Paths are embarrassingly parallel: each block of paths builds its own
stepper, each worker owns its output files (single writer per file), and
every path's randomness is a function of (master_seed, path_index)
alone, so outputs are independent of worker count and scheduling.  The
paths are split into one contiguous part per worker, and each part into
blocks of at most max(1, BATCH_CELLS // n^2) paths; a worker steps each
block in lockstep (stepping module docstring), which gives every path
the bits of its own run.  A path's `seconds` is its share of its block's
stepping time, in proportion to the steps it completed, plus its own
write time, so the seconds of all paths add up to the workers' busy
time.  An exception while a block is set up fails that block's paths and
no other.  The scalar Wiener study needs no stepper: it analyses its
paths on `workers` threads of the calling process, with the same table
for every worker count.  The manifest is written up front in pending
state and atomically finalised with content digests.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np

from .config import ExperimentConfig, RunManifest
from .grid import Grid, VectorField, save_field, sine_stream_curl
from .noise import NoiseSpec, PathRng
from .potential import PotentialParams
from .seminorms import OrliczSpec, dyadic_lags, lag_norms, report_from_norms, window_lags
from .stepping import SolverConfig, Stepper

__all__ = [
    "run_experiment",
    "initial_velocity",
    "series_path",
    "diffs_path",
    "SERIES_HEADER",
    "wiener_dichotomy_study",
]

SERIES_HEADER = "k,t,J,res_l2,u_l2,Vdiff_placeholder,pi_det_lpprime,K_sto_w12"
DIFFS_HEADER = "quantity,lag_steps,k,value"


def initial_velocity(grid: Grid, kind: str, scale: float) -> np.ndarray:
    """Divergence-free masked initial velocity (2, n, n): "zero" or "curl"."""
    if kind == "zero":
        return np.zeros((2, grid.n, grid.n))
    if kind != "curl":
        raise ValueError(f"unknown initial velocity kind {kind!r}")
    vals = sine_stream_curl(grid, 1, 1)
    norm = np.sqrt(grid.cell_area * np.sum(vals**2))
    return vals * (scale / norm)


def _build_stepper(cfg: ExperimentConfig) -> Stepper:
    """The stepper for cfg, built afresh for each block of paths.

    Building one takes milliseconds, and a block steps for seconds.
    Stepper is read from this module at call time, so a replaced
    `runner.Stepper` takes effect.
    """
    grid = Grid(cfg.grid_n)
    spec = NoiseSpec(
        grid, cfg.noise_modes, decay=cfg.noise_decay,
        rho=cfg.noise_rho, flavor=cfg.noise_flavor,
    ) if cfg.noise_modes > 0 else None
    solver = SolverConfig(
        dt=cfg.dt, T=cfg.T, newton_tol=cfg.newton_tol,
        newton_max_iter=cfg.newton_max_iter, kappa_reg=cfg.kappa_reg,
        store_every=cfg.store_every, cg_tol=cfg.cg_tol,
    )
    return Stepper(grid, PotentialParams(cfg.p, cfg.kappa), solver, spec=spec)


# Largest batch a worker steps in lockstep, in paths times grid cells: a
# block holds at most max(1, BATCH_CELLS // n^2) paths.  Speed-up per
# path-step over one path at a time (one process, BLAS at one thread,
# 256 steps of 16 additive modes from rest, p = 2.5; median of three):
#
#   B       2     4     8     16    32
#   n = 8   1.21  2.03  3.27  4.98  6.59
#   n = 16  1.12  1.64  2.29  2.90  3.45
#   n = 32  1.02  1.26  1.45  1.51  1.46
#   n = 64  0.97  0.99  0.92
#
# At n = 32 the gain flattens past B n^2 = 8192, and at n = 64 a batch is
# slower; 4096 stays until a benchmark workload runs larger blocks.
BATCH_CELLS = 4096


def path_blocks(paths: int, workers: int, n: int) -> list:
    """(first path, path count) of each block: the paths split into one
    contiguous part per worker, each part split evenly into batches of at
    most max(1, BATCH_CELLS // n^2) paths."""
    cap = max(1, BATCH_CELLS // (n * n))
    blocks = []
    for part in np.array_split(np.arange(paths), min(workers, paths)):
        for chunk in np.array_split(part, -(-part.size // cap)):
            blocks.append((int(chunk[0]), int(chunk.size)))
    return blocks


def series_path(run_dir: str, index: int) -> str:
    return os.path.join(run_dir, f"path_{index:04d}_series.csv")


def diffs_path(run_dir: str, index: int) -> str:
    return os.path.join(run_dir, f"path_{index:04d}_diffs.csv")


def snapshot_path(run_dir: str, index: int, k: int) -> str:
    return os.path.join(run_dir, f"path_{index:04d}_u_k{k:06d}.csv")


def _write_trajectory(run_dir: str, index: int, traj, grid: Grid):
    """The series and diffs CSVs and the snapshots of one path.

    Each file's rows are formatted from Python floats, which format as
    NumPy's float64 does, and joined into one string per series: about
    two thirds of the time of writing them row by row (11 -> 7.5 ms for
    a path of 512 steps).
    """
    columns = (traj.times, traj.energy, traj.residual_l2, traj.velocity_l2,
               traj.v_increment, traj.pressure_det_lp, traj.k_sto_w12)
    with open(series_path(run_dir, index), "w") as fh:
        fh.write(SERIES_HEADER + "\n")
        fh.write("".join([
            f"{k},{t:.10e},{J:.10e},{res:.10e},{u:.10e},{dv:.10e},{pi:.10e},{K:.10e}\n"
            for k, (t, J, res, u, dv, pi, K) in enumerate(zip(*[c.tolist() for c in columns]))
        ]))
    with open(diffs_path(run_dir, index), "w") as fh:
        fh.write(DIFFS_HEADER + "\n")
        for quantity in ("u", "V", "K"):
            for lag in traj.diff_lags:
                prefix = f"{quantity},{lag},"
                fh.write("".join([
                    f"{prefix}{k},{x:.10e}\n"
                    for k, x in enumerate(traj.diffs[quantity][lag].tolist())
                ]))
    for k, values in traj.snapshots:
        save_field(VectorField(grid, values), snapshot_path(run_dir, index, k))


def _per_step(counts, steps: int) -> float:
    """Mean of a per-step count over steps 1..steps; 0 without steps."""
    return float(counts[1:].sum() / steps) if steps else 0.0


def _path_summary(traj, dt: float, seconds: float, write_s: float, batch: int) -> dict:
    """Monitors, solver health and time shares of one path.

    seconds is the path's share of its block's stepping time plus its own
    write time, so the seconds of all paths add up to the workers' busy
    time.
    """
    steps = max(traj.times.size - 1, 0)
    phases = {f"{name}_s": secs for name, secs in traj.phase_seconds.items()}
    return {
        "sup_energy": float(traj.energy.max(initial=0.0)),
        "initial_energy": float(traj.energy[0]) if traj.energy.size else 0.0,
        "dissipation_integral": float(dt * np.sum(traj.residual_l2**2)),
        "sup_velocity_l2": float(traj.velocity_l2.max(initial=0.0)),
        "sup_stress_lpprime": traj.sup_stress_lpprime,
        "sup_pressure_det_lpprime": float(traj.pressure_det_lp.max(initial=0.0)),
        "sup_k_sto_w12": float(traj.k_sto_w12.max(initial=0.0)),
        "steps_completed": int(steps),
        "seconds": seconds,
        # solver health and throughput, per completed step
        "newton_per_step": _per_step(traj.newton_iterations, steps),
        "cg_per_step": _per_step(traj.cg_iterations, steps),
        "backtracks_per_step": _per_step(traj.backtracks, steps),
        "roundoff_per_step": _per_step(traj.roundoff_steps, steps),
        "ms_per_step": 1e3 * seconds / steps if steps else 0.0,
        **phases,
        "write_s": write_s,
        "batch_paths": batch,
    }


def _setup_failure_summary(batch: int) -> dict:
    """A path summary with zero in every field: the path never started."""
    zeros = (
        "sup_energy", "initial_energy", "dissipation_integral", "sup_velocity_l2",
        "sup_stress_lpprime", "sup_pressure_det_lpprime", "sup_k_sto_w12", "seconds",
        "newton_per_step", "cg_per_step", "backtracks_per_step", "roundoff_per_step",
        "ms_per_step", "step_s", "record_s", "K_s", "write_s",
    )
    return {**dict.fromkeys(zeros, 0.0), "steps_completed": 0, "batch_paths": batch}


def _path_worker(args):
    """One block of paths: set up, stepped in lockstep, then written path by path.

    args is (config dict, first path index, run directory, path count);
    returns (index, status, summary) per path in path order.  An
    exception while setting up, before the first step, fails every path
    of the block with a "setup:" status; the run goes on.
    """
    cfg_dict, first, run_dir, count = args
    cfg = ExperimentConfig(**cfg_dict)
    indices = range(first, first + count)
    try:
        stepper = _build_stepper(cfg)
        u0 = initial_velocity(stepper.grid, cfg.u0_kind, cfg.u0_scale)
        rngs = [PathRng(cfg.master_seed, index) for index in indices]
        started = time.perf_counter()
        trajs = stepper.run_path(u0, rngs)
    except Exception as exc:  # set-up failure: this block's paths only
        status = f"failed: setup: {type(exc).__name__}: {exc}"
        return [(index, status, _setup_failure_summary(count)) for index in indices]
    stepped = time.perf_counter() - started
    results = []
    for index, traj in zip(indices, trajs):
        status = "ok" if traj.completed else f"failed: {traj.error}"
        written = time.perf_counter()
        try:
            _write_trajectory(run_dir, index, traj, stepper.grid)
        except Exception as exc:  # a failed write ends this path only
            _remove_path_files(run_dir, index)
            status = f"failed: writing files: {type(exc).__name__}: {exc}"
        write_s = time.perf_counter() - written
        seconds = stepped * traj.time_share + write_s
        results.append((index, status, _path_summary(traj, cfg.dt, seconds, write_s, count)))
    return results


def _remove_path_files(run_dir: str, index: int):
    """Delete every file of one path, so no partial file reaches the manifest."""
    prefix = f"path_{index:04d}_"
    for name in os.listdir(run_dir):
        if name.startswith(prefix):
            os.remove(os.path.join(run_dir, name))


def _remove_run_outputs(run_dir: str):
    """Delete what an earlier run or its analysis wrote; other files stay."""
    for name in os.listdir(run_dir):
        if name.startswith(("path_", "norms_", "fits_")) or name in (
            "aggregate_norms.csv", WIENER_TABLE
        ):
            os.remove(os.path.join(run_dir, name))


def run_experiment(cfg: ExperimentConfig, run_dir: str | None = None) -> RunManifest:
    """Execute all paths of an experiment; returns the final manifest.

    A reused run directory first loses the files an earlier run owned,
    so the manifest and the analysis see this run's paths only.
    """
    cfg.validate()
    run_dir = run_dir or cfg.resolved_out_dir()
    os.makedirs(run_dir, exist_ok=True)
    _remove_run_outputs(run_dir)
    started = time.time()
    manifest = RunManifest(
        config={k: getattr(cfg, k) for k in cfg.__dataclass_fields__},
        created_unix=started,
        path_seeds=[[cfg.master_seed, i] for i in range(cfg.paths)],
        status="pending",
    )
    manifest.write(run_dir)

    with open(os.path.join(run_dir, "config.txt"), "w") as fh:
        fh.write(cfg.to_text())

    workers = cfg.workers or min(os.cpu_count() or 1, cfg.paths)
    if cfg.kind == "wiener_dichotomy":
        table = wiener_dichotomy_study(
            paths=cfg.paths,
            master_seed=cfg.master_seed,
            coarsest_exp=cfg.wiener_coarsest_exp,
            finest_exp=cfg.wiener_finest_exp,
            workers=workers,
        )
        _write_wiener_table(run_dir, table)
        manifest.path_status = {str(i): "ok" for i in range(cfg.paths)}
        manifest.finish(run_dir, started, "ok")
        return manifest

    cfg_dict = {k: getattr(cfg, k) for k in cfg.__dataclass_fields__}
    failures = 0
    if cfg.paths:
        jobs = [(cfg_dict, first, run_dir, count)
                for first, count in path_blocks(cfg.paths, workers, cfg.grid_n)]
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_path_worker, jobs))
        else:
            results = [_path_worker(job) for job in jobs]
        for index, status, summary in (row for block in results for row in block):
            manifest.path_status[str(index)] = status
            manifest.path_summary[str(index)] = summary
            if status != "ok":
                failures += 1
    manifest.finish(run_dir, started, "ok" if failures == 0 else f"{failures} paths failed")
    return manifest


# ---------------------------------------------------------------------
# scalar Wiener dichotomy study
# ---------------------------------------------------------------------

WIENER_TABLE = "wiener_dichotomy.csv"
WIENER_HEADER = "path,dt,phi2_sup,b22_quantity"


def wiener_dichotomy_study(
    paths: int = 64,
    master_seed: int = 0,
    coarsest_exp: int = 10,
    finest_exp: int = 16,
    workers: int = 1,
):
    """Per-path Nikolskii summaries of scalar Brownian paths on [0, 1] under
    refinement.

    One Brownian path is simulated at the finest resolution and analysed
    at every coarser dyadic subsampling, so refinement ratios compare the
    same underlying trajectory.  Reported per (path, dt): the
    exponential-scale sup-report (stable under refinement) and the
    squared 2,2-seminorm quadrature (divergent under refinement).  Each
    lag's increments are formed once, for both norms, and only one lag's
    are alive at a time.

    Paths are analysed on `workers` threads; NumPy releases the GIL on
    arrays of this size, and threads add far less memory than processes.
    A path's rows depend on (master_seed, path) alone and come back in
    path order, so the table is the same for every worker count.
    """
    T = 1.0
    exps = list(range(coarsest_exp, finest_exp + 1, 2))
    n_fine = 2**finest_exp
    specs = (OrliczSpec.phi2(), OrliczSpec.power(2))

    def path_rows(index):
        rng = PathRng(master_seed, index)
        incr = rng.standard_normal(n_fine) * np.sqrt(T / n_fine)
        w_fine = np.concatenate([[0.0], np.cumsum(incr)])
        rows = []
        for e in exps:
            w = w_fine[:: 2 ** (finest_exp - e)]
            lags = window_lags(dyadic_lags(2**e), 2**e)
            h_values, (phi2, l2) = lag_norms(
                ((m, w[m:] - w[:-m]) for m in lags), T / 2**e, specs
            )
            sup = report_from_norms(h_values, phi2, 0.5).sup_approx
            quantity = report_from_norms(h_values, l2, 0.5, fine_index=2.0).quantity_r
            rows.append((index, T / 2**e, sup, quantity))
        return rows

    with ThreadPoolExecutor(max_workers=max(1, min(workers, paths))) as pool:
        return [row for rows in pool.map(path_rows, range(paths)) for row in rows]


def _write_wiener_table(run_dir: str, rows):
    with open(os.path.join(run_dir, WIENER_TABLE), "w") as fh:
        fh.write(WIENER_HEADER + "\n")
        for index, dt, sup, quan in rows:
            fh.write(f"{index},{dt:.10e},{sup:.10e},{quan:.10e}\n")

