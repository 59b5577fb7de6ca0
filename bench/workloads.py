"""The three benchmark workloads, their rounds, metrics and checks.

A run of one workload sets up several times (setup_s is the median),
then repeats whole rounds until --seconds have passed.  A round runs
`run_experiment` into a fresh directory in a fresh interpreter, then
times several passes of the workload's analysis commands in another
fresh interpreter; the output checks follow in the benchmark process.  Every round of a run uses the same
inputs, so the first round gets the full independent checks and every
later one must reproduce its file digests exactly.

The program is driven through the entry points the CLI uses:
runner.run_experiment, analysis.norms_command and analysis.fit_command.
They are looked up as module attributes at call time so the traced run
can wrap them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import multiprocessing as mp
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor

import numpy as np

import pstokeslab
from pstokeslab import analysis, runner
from pstokeslab.config import ExperimentConfig
from pstokeslab.grid import Grid, VectorField
from pstokeslab.noise import NoiseSpec, PathRng
from pstokeslab.potential import PotentialParams
from pstokeslab.projection import BogovskiiOperator, HelmholtzProjector
from pstokeslab.seminorms import OrliczSpec, SampledPath, difference_path
from pstokeslab.stepping import SolverConfig, Stepper

import checks
import tracing

WORKERS = 2                 # the program's pool: nproc of the reference machine
# Timed analysis passes per untraced round, all in one fresh process.
# Only the first is cold; a cold pass alone spread too widely from run
# to run on the reference machine to carry the bound (see bench/README.md).
ANALYSIS_PASSES = 9

END_TO_END = {
    "setup_s": "s", "run_s": "s", "step_ms": "ms",
    "analyse_s": "s", "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "stepping.step_ms": "ms/call",
    "stepping.newton_per_step": "count",
    "stepping.ksto_ms": "ms/call",
    "stepping.record_ms": "ms/step",
    "projection.helmholtz_us": "us/call",
    "projection.helmholtz_per_step": "count",
    "projection.bogovskii_solve_ms": "ms/call",
    "projection.bogovskii_per_step": "count",
    "projection.bogovskii_factor_s": "s",
    "noise.apply_G_us": "us/call",
    "noise.apply_G_per_step": "count",
    "potential.phi_us": "us/call",
    "potential.phi_per_step": "count",
    "seminorms.luxemburg_phi2_ms": "ms/call",
    "seminorms.luxemburg_power_us": "us/call",
    "seminorms.modular_evals_per_norm": "count",
    "analysis.load_diffs_ms": "ms/call",
    "analysis.load_diffs_per_path": "count",
    "runner.path_s": "s",
    "runner.worker_idle_s": "s",
    "runner.output_mib": "MiB",
    "config.digest_ms": "ms/run",
    "trace.overhead_pct": "%",
}


# ---------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------

class Workload:
    """A named ExperimentConfig; the seed becomes its master_seed."""

    def __init__(self, name: str, setup_reps: int, **fields):
        self.name = name
        self.setup_reps = setup_reps
        self.fields = {"workers": WORKERS, **fields}

    def config(self, seed: int) -> ExperimentConfig:
        return ExperimentConfig(master_seed=seed, **self.fields).validate()


class PdeWorkload(Workload):
    """A p-Stokes Monte Carlo run followed by norms and fit."""

    specs = ("2", "4", "phi2")
    alphas = (0.5,)
    analysis_commands = 2

    def setup(self, cfg: ExperimentConfig, work_dir: str):
        """Builds the operators a worker builds; returns (seconds, stepper)."""
        t0 = time.perf_counter()
        grid = Grid(cfg.grid_n)
        spec = NoiseSpec(grid, cfg.noise_modes, decay=cfg.noise_decay,
                         rho=cfg.noise_rho, flavor=cfg.noise_flavor)
        solver = SolverConfig(
            dt=cfg.dt, T=cfg.T, newton_tol=cfg.newton_tol,
            newton_max_iter=cfg.newton_max_iter, kappa_reg=cfg.kappa_reg,
            store_every=cfg.store_every, cg_tol=cfg.cg_tol,
        )
        stepper = Stepper(grid, PotentialParams(cfg.p, cfg.kappa), solver, spec=spec,
                          projector=HelmholtzProjector(grid), bogovskii=BogovskiiOperator(grid))
        return time.perf_counter() - t0, stepper

    def prepare_checks(self, cfg, stepper) -> dict:
        return {}

    def check_files(self, run_dir, cfg):
        checks.check_series_set(run_dir, cfg.paths)

    def analyse(self, run_dir, cfg):
        """The CLI's norms and fit on the run just produced."""
        specs = [analysis.parse_orlicz(tok) for tok in self.specs]
        analysis.norms_command(run_dir, list(self.alphas), specs)
        analysis.fit_command(run_dir, list(self.alphas), specs)

    def step_ms(self, rnd) -> list:
        """Per-path wall time per completed step, one value per finished path."""
        return [
            1e3 * s["seconds"] / s["steps_completed"]
            for i, s in rnd.manifest["path_summary"].items()
            if int(i) in rnd.ok and s["steps_completed"] > 0
        ]

    def check_outputs(self, run_dir, cfg, manifest, ok, ctx):
        n_steps = int(round(cfg.T / cfg.dt))
        checks.check_power2_norms(run_dir, ok, cfg.dt, n_steps)
        refits = checks.per_path_fits(run_dir, ok, cfg.dt, n_steps)
        checks.check_fit_slopes(run_dir, refits)
        return refits


class AdditiveWorkload(PdeWorkload):
    """Additive noise: K_sto has a closed form in the endpoint W(T)."""

    def prepare_checks(self, cfg, stepper):
        spec, grid = stepper.spec, stepper.grid
        bstar = []
        for psi in spec.modes:
            grad_part = psi - stepper.projector.project_values(psi)[0]
            bstar.append(stepper.bogovskii.adjoint_apply(VectorField(grid, grad_part)).values)
        return {"lambdas": spec.lambdas, "bstar": np.array(bstar)}

    def check_outputs(self, run_dir, cfg, manifest, ok, ctx):
        refits = super().check_outputs(run_dir, cfg, manifest, ok, ctx)
        n_steps = int(round(cfg.T / cfg.dt))
        w_end = {
            i: checks.replay_wiener_endpoint(
                PathRng(cfg.master_seed, i), n_steps, cfg.noise_modes, cfg.dt)
            for i in ok
        }
        checks.check_k_sto_closed_form(run_dir, ok, w_end, ctx["lambdas"], ctx["bstar"])
        print(f"{self.name} median u exponent {checks.check_u_exponent(refits):.4f}", flush=True)


class PressureWorkload(PdeWorkload):
    """Multiplicative gradient noise; the final velocity snapshot is stored."""

    def prepare_checks(self, cfg, stepper):
        return {"projector": stepper.projector, "bogovskii": stepper.bogovskii}

    def check_outputs(self, run_dir, cfg, manifest, ok, ctx):
        super().check_outputs(run_dir, cfg, manifest, ok, ctx)
        n_steps = int(round(cfg.T / cfg.dt))
        for i in ok:
            snapshot = os.path.join(run_dir, f"path_{i:04d}_u_k{n_steps:06d}.csv")
            checks.check_divergence_free(snapshot, cfg.grid_n)
            checks.check_pi_det_final(
                snapshot, os.path.join(run_dir, f"path_{i:04d}_series.csv"),
                cfg.grid_n, cfg.p, cfg.kappa, ctx["projector"], ctx["bogovskii"])


def fine_brownian_path(cfg, index: int) -> np.ndarray:
    """Path `index` of the Wiener study at dt = 2^-finest, drawn as the study draws it."""
    n_fine = 2**cfg.wiener_finest_exp
    incr = PathRng(cfg.master_seed, index).standard_normal(n_fine) * np.sqrt(1.0 / n_fine)
    return np.concatenate([[0.0], np.cumsum(incr)])


# What the CLI's `run` does before run_experiment: import the program,
# load the config file and validate it.
CLI_STARTUP = """\
import sys, time
t0 = time.perf_counter()
from pstokeslab import cli
from pstokeslab.config import load_config
from pstokeslab.runner import run_experiment
load_config(sys.argv[1]).validate()
print(time.perf_counter() - t0)
"""


def cli_startup_s(cfg, work_dir: str) -> float:
    """CLI start-up for `run` with this config, timed inside a fresh interpreter."""
    path = os.path.join(work_dir, "startup.cfg")
    with open(path, "w") as fh:
        fh.write(cfg.to_text())
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(pstokeslab.__file__))}
    try:
        out = subprocess.run([sys.executable, "-c", CLI_STARTUP, path], env=env,
                             stdout=subprocess.PIPE, text=True, check=True).stdout
    finally:
        os.remove(path)
    return float(out.split()[-1])


class WienerWorkload(Workload):
    """Scalar Brownian paths analysed at dt = 2^-10 ... 2^-16."""

    analysis_commands = 1
    sampled_paths = (0, -1)     # first and last path get the root-find checks

    def setup(self, cfg, work_dir: str):
        """The study builds no operators: set-up is the CLI's start-up."""
        return cli_startup_s(cfg, work_dir), None

    def prepare_checks(self, cfg, _):
        """The sampled paths, replayed at the finest dt for the root-find checks."""
        keep = {i % cfg.paths for i in self.sampled_paths}
        return {"samples": {i: fine_brownian_path(cfg, i) for i in sorted(keep)}}

    def levels(self, cfg) -> int:
        return (cfg.wiener_finest_exp - cfg.wiener_coarsest_exp) // 2 + 1

    def check_files(self, run_dir, cfg):
        checks.check_wiener_table(checks.read_wiener_table(run_dir), cfg.paths, self.levels(cfg))

    def analyse(self, run_dir, cfg):
        """The CLI's report; norms and fit read per-path diffs, which the study does not write."""
        analysis.report_command(run_dir)

    def step_ms(self, rnd) -> list:
        """The serial study records no per-path time: run_s per path per fine step."""
        return [1e3 * rnd.run_s / rnd.cfg.paths / 2**rnd.cfg.wiener_finest_exp]

    def check_outputs(self, run_dir, cfg, manifest, ok, ctx):
        rows = checks.read_wiener_table(run_dir)
        checks.check_dichotomy(rows)
        checks.check_phi2_sups(rows, ctx["samples"], T=1.0)
        pairs = []
        for w_fine in ctx["samples"].values():
            for e in (cfg.wiener_coarsest_exp, cfg.wiener_finest_exp):
                w = w_fine[:: 2 ** (cfg.wiener_finest_exp - e)]
                path = SampledPath(w, 2.0**-e)
                for m in (4, 2 ** (e - 3)):
                    incr = difference_path(path, m)
                    pairs.append((analysis.luxemburg_norm(incr, OrliczSpec.phi2()),
                                  incr.values, incr.dt))
        checks.check_phi2_norms(pairs)


WORKLOADS = {
    "mc_n16_additive": AdditiveWorkload(
        "mc_n16_additive", setup_reps=15,
        kind="velocity_regularity", grid_n=16, p=2.5, kappa=0.01,
        dt=2.0**-12, T=0.125, paths=8, noise_modes=16, noise_decay=2.0,
        noise_rho="one", noise_flavor="mixed", u0_kind="zero",
    ),
    "pressure_n32_multiplicative": PressureWorkload(
        "pressure_n32_multiplicative", setup_reps=3,
        kind="pressure_regularity", grid_n=32, p=3.0, kappa=0.01,
        dt=2.0**-12, T=256 * 2.0**-12, paths=2, noise_modes=16, noise_decay=2.0,
        noise_rho="inv_one_plus_s2", noise_flavor="gradient", u0_kind="zero",
        store_every=256,
    ),
    "wiener_refinement": WienerWorkload(
        "wiener_refinement", setup_reps=9,
        kind="wiener_dichotomy", paths=16,
        wiener_coarsest_exp=10, wiener_finest_exp=16,
    ),
}


# ---------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------

@dataclasses.dataclass
class Round:
    cfg: ExperimentConfig
    run_s: float
    output_mib: float
    rss_mib: float
    spans: list | None
    counts: dict | None
    manifest: dict = None
    ok: list = None
    analyse_s: list = dataclasses.field(default_factory=list)


def _in_fresh_process(fn, *args):
    """fn(*args) in a fresh interpreter; returns its result."""
    with ProcessPoolExecutor(max_workers=1, mp_context=mp.get_context("spawn")) as pool:
        return pool.submit(fn, *args).result()


def _run_in_fresh_process(wl, cfg, run_dir: str, span_dir: str | None) -> Round:
    """The program's run, in a fresh interpreter like a CLI call.

    A fresh process per round keeps the benchmark's own set-up and
    checks from changing the state the program runs in (the C heap in
    particular: large temporaries are much cheaper once an earlier free
    has raised glibc's mmap threshold).
    """
    # a spawned child inherits "spawn" as its default; the CLI's pool
    # starts workers with the platform default
    mp.set_start_method(None, force=True)
    tracer = tracing.Tracer() if span_dir else None
    with tracing.installed(tracer, span_dir) if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        runner.run_experiment(cfg, run_dir)
        run_s = time.perf_counter() - t0
        output_mib = sum(
            os.path.getsize(os.path.join(run_dir, f)) for f in os.listdir(run_dir)
        ) / 2**20
        if tracer:
            # the layers the analysis commands reach
            wl.analyse(run_dir, cfg)
    # this process plus its largest (finished) pool worker; ru_maxrss of
    # this process would include the benchmark's RSS from before the exec
    with open("/proc/self/status") as fh:
        hwm_kib = next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))
    rss_kib = hwm_kib + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    spans, counts = tracing.collect(tracer, span_dir) if tracer else (None, None)
    return Round(cfg, run_s, output_mib, rss_kib / 1024.0, spans, counts)


def _analyse_in_fresh_process(wl, cfg, run_dir: str, passes: int) -> list:
    """Times each of `passes` passes of the workload's analysis commands."""
    times = []
    for _ in range(passes):
        t0 = time.perf_counter()
        wl.analyse(run_dir, cfg)
        times.append(time.perf_counter() - t0)
    return times


def run_round(wl, cfg, run_dir: str, ctx: dict, reference: dict | None,
              span_dir: str | None = None) -> Round:
    """One round in a fresh directory, then its checks.

    An untraced round times ANALYSIS_PASSES analysis passes; a traced
    round analyses once inside its run's process.

    With no reference the full independent checks run; otherwise the
    round must reproduce the reference file digests exactly.
    """
    if os.path.exists(run_dir):
        raise checks.CheckFailed(f"{run_dir} exists; every round needs a fresh directory")
    rnd = _in_fresh_process(_run_in_fresh_process, wl, cfg, run_dir, span_dir)
    if span_dir is None:
        rnd.analyse_s = _in_fresh_process(
            _analyse_in_fresh_process, wl, cfg, run_dir, ANALYSIS_PASSES)
    rnd.manifest = checks.read_manifest(run_dir)
    rnd.ok = checks.check_paths_ok(rnd.manifest, cfg.paths)
    checks.check_digests(run_dir, rnd.manifest)
    wl.check_files(run_dir, cfg)
    if reference is None:
        wl.check_outputs(run_dir, cfg, rnd.manifest, rnd.ok, ctx)
    elif rnd.manifest["files"] != reference:
        changed = sorted(k for k in set(reference) | set(rnd.manifest["files"])
                         if reference.get(k) != rnd.manifest["files"].get(k))
        raise checks.CheckFailed(f"{run_dir}: same inputs, different outputs {changed[:5]}")
    return rnd


class Run:
    """State of one benchmark invocation for one workload."""

    def __init__(self, name: str, seed: int, out_dir: str):
        self.wl = WORKLOADS[name]
        self.cfg = self.wl.config(seed)
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.ctx = None
        self.rounds = 0

    def setup(self, reps: int) -> float:
        times = []
        for _ in range(reps):
            seconds, built = self.wl.setup(self.cfg, self.out_dir)
            times.append(seconds)
        self.ctx = self.wl.prepare_checks(self.cfg, built)
        return statistics.median(times)

    def round(self, traced: bool = False) -> Round:
        tag = f"round-{self.rounds:02d}"
        self.rounds += 1
        run_dir = os.path.join(self.out_dir, tag)
        span_dir = os.path.join(self.out_dir, tag + "-spans") if traced else None
        if span_dir:
            os.makedirs(span_dir)
        rnd = run_round(self.wl, self.cfg, run_dir, self.ctx, self.reference, span_dir)
        if self.reference is None:
            self.reference = rnd.manifest["files"]
        passes = 1 if traced else ANALYSIS_PASSES
        self.attempted += self.cfg.paths + passes * self.wl.analysis_commands
        self.failed += self.cfg.paths - len(rnd.ok)
        shutil.rmtree(run_dir)
        if span_dir:
            shutil.rmtree(span_dir)
        return rnd

    def result(self, metrics: dict, units: dict) -> dict:
        return {
            "correct": True,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }


def measure(name: str, seed: int, seconds: float, out_dir: str) -> dict:
    """Untraced run: every end-to-end metric, medians over rounds."""
    run = Run(name, seed, out_dir)
    setup_s = run.setup(run.wl.setup_reps)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rnd = run.round()
        rounds.append(rnd)
        print(f"{name} round {len(rounds) - 1}: run_s {rnd.run_s:.4f} analyse_s "
              + " ".join(f"{x:.6f}" for x in rnd.analyse_s) + f" rss_mib {rnd.rss_mib:.1f} step_ms "
              + " ".join(f"{x:.3f}" for x in run.wl.step_ms(rnd)), flush=True)
    metrics = {
        "setup_s": setup_s,
        "run_s": statistics.median(r.run_s for r in rounds),
        "step_ms": statistics.median(x for r in rounds for x in run.wl.step_ms(r)),
        "analyse_s": statistics.median(x for r in rounds for x in r.analyse_s),
        "peak_rss_mib": statistics.median(r.rss_mib for r in rounds),
    }
    return run.result(metrics, END_TO_END)


def trace(name: str, seed: int, seconds: float, out_dir: str) -> dict:
    """Pairs of an untraced and a traced round: every per-layer metric.

    Writes the spans, counts and layer self times of the last traced
    round to out_dir/trace.json.
    """
    run = Run(name, seed, out_dir)
    run.setup(1)
    per_pair = []
    start = time.perf_counter()
    while not per_pair or time.perf_counter() - start < seconds:
        plain = run.round()
        traced = run.round(traced=True)
        layer = layer_metrics(traced)
        layer["trace.overhead_pct"] = 100.0 * (traced.run_s / plain.run_s - 1.0)
        per_pair.append(layer)
    metrics = {k: statistics.median(p[k] for p in per_pair) for k in PER_LAYER}
    with open(os.path.join(out_dir, "trace.json"), "w") as fh:
        json.dump({
            "workload": name, "seed": run.cfg.master_seed, "metrics": metrics,
            "self_s": tracing.self_times(traced.spans), "counts": dict(traced.counts),
            "spans": traced.spans,
        }, fh)
    return run.result(metrics, PER_LAYER)


def layer_metrics(rnd: Round) -> dict:
    spans, counts = rnd.spans, rnd.counts
    dur = defaultdict(list)
    for span_name, t0, t1, _, _ in spans:
        if t1 > 0.0:
            dur[span_name].append(t1 - t0)

    def mean(span_name, scale):
        d = dur.get(span_name)
        return scale * sum(d) / len(d) if d else 0.0

    def total(span_name):
        return sum(dur.get(span_name, ()))

    cfg = rnd.cfg
    summaries = rnd.manifest["path_summary"]
    steps = sum(s["steps_completed"] for s in summaries.values())

    def per_step(x):
        return x / steps if steps else 0.0

    workers = min(cfg.workers or os.cpu_count() or 1, cfg.paths)
    if summaries:
        path_s = statistics.median(s["seconds"] for s in summaries.values())
        busy = total("runner.path_worker")
    else:
        # serial Wiener study: a path runs from one PathRng to the next
        marks = sorted(t0 for span_name, t0, *_ in spans if span_name == "runner.path_mark")
        ends = marks[1:] + [max(t1 for span_name, _, t1, *_ in spans
                                if span_name == "runner.wiener_dichotomy_study")]
        intervals = [b - a for a, b in zip(marks, ends)]
        path_s = statistics.median(intervals)
        busy = sum(intervals)
        workers = cfg.workers
    n_phi2 = counts.get("seminorms.luxemburg.phi2", 0)
    return {
        "stepping.step_ms": mean("stepping.step", 1e3),
        "stepping.newton_per_step": per_step(counts.get("stepping.newton_iterations", 0)),
        "stepping.ksto_ms": mean("stepping.accumulate_K_sto", 1e3),
        "stepping.record_ms": 1e3 * per_step(
            total("stepping.run_path") - total("stepping.step")
            - total("stepping.accumulate_K_sto")),
        "projection.helmholtz_us": mean("projection.helmholtz", 1e6),
        "projection.helmholtz_per_step": per_step(counts.get("projection.helmholtz", 0)),
        "projection.bogovskii_solve_ms": mean("projection.bogovskii_solve", 1e3),
        "projection.bogovskii_per_step": per_step(counts.get("projection.bogovskii_solve", 0)),
        "projection.bogovskii_factor_s": mean("projection.bogovskii_factor", 1.0),
        "noise.apply_G_us": mean("noise.apply_G", 1e6),
        "noise.apply_G_per_step": per_step(counts.get("noise.apply_G", 0)),
        "potential.phi_us": mean("potential.phi", 1e6),
        "potential.phi_per_step": per_step(counts.get("potential.phi", 0)),
        "seminorms.luxemburg_phi2_ms": mean("seminorms.luxemburg.phi2", 1e3),
        "seminorms.luxemburg_power_us": mean("seminorms.luxemburg.power", 1e6),
        "seminorms.modular_evals_per_norm": (
            counts.get("seminorms.modular_evals", 0) / n_phi2 if n_phi2 else 0.0),
        "analysis.load_diffs_ms": mean("analysis.load_diffs", 1e3),
        "analysis.load_diffs_per_path": counts.get("analysis.load_diffs", 0) / cfg.paths,
        "runner.path_s": path_s,
        "runner.worker_idle_s": workers * rnd.run_s - busy,
        "runner.output_mib": rnd.output_mib,
        "config.digest_ms": mean("config.record_files", 1e3),
    }
