"""The benchmark's tracer must still see every seam it wraps.

bench/tracing.py counts calls by swapping module attributes and
subclassing the stepper and projector.  A refactor that routes around
one of those seams leaves the run correct but zeroes its per-layer
metric without a word; this test runs a tiny traced run and its norms
and fit, and fails then.  bench/ is only imported, never changed.
"""

import importlib.util
import os

import pytest

from pstokeslab import analysis
from pstokeslab.config import ExperimentConfig
from pstokeslab.seminorms import OrliczSpec
from pstokeslab.runner import run_experiment

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

SEAMS = (
    "stepping.step",
    "stepping.run_path",
    "stepping.accumulate_K_sto",
    "stepping.newton_iterations",
    "projection.helmholtz",
    "potential.phi",
    "noise.apply_G",
    "seminorms.luxemburg.power",
    "seminorms.luxemburg.phi2",
    "seminorms.modular_evals",
    "analysis.load_diffs",
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(BENCH, "tracing.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("rho, apply_g_per_step", [("one", 1), ("inv_one_plus_s2", 2)])
def test_traced_run_counts_every_seam(tmp_path, rho, apply_g_per_step):
    tracing = _load_tracing()
    steps = 32  # norms and fit need a lag in the window [4 dt, T/8]
    cfg = ExperimentConfig(
        grid_n=8, p=2.5, kappa=0.01, dt=2.0**-8, T=steps * 2.0**-8, paths=1,
        master_seed=3, noise_modes=4, noise_rho=rho, workers=1,
        out_dir=str(tmp_path / "run"),
    ).validate()
    span_dir = tmp_path / "spans"
    span_dir.mkdir()
    tracer = tracing.Tracer()
    specs = [OrliczSpec.power(2), OrliczSpec.phi2()]
    with tracing.installed(tracer, str(span_dir)):
        manifest = run_experiment(cfg)
        analysis.norms_command(cfg.out_dir, [0.5], specs)
        analysis.fit_command(cfg.out_dir, [0.5], specs)
    assert manifest.status == "ok"
    _, counts = tracing.collect(tracer, str(span_dir))
    missing = [name for name in SEAMS if counts.get(name, 0) == 0]
    assert not missing, f"seams no longer traced: {missing}"
    assert counts["stepping.run_path"] == 1
    assert counts["stepping.step"] == counts["stepping.accumulate_K_sto"] == steps
    assert counts["noise.apply_G"] == apply_g_per_step * steps
    assert counts["analysis.load_diffs"] == 2  # one path, read by norms and by fit


@pytest.mark.parametrize("rho, apply_g_per_step", [("one", 1), ("inv_one_plus_s2", 2)])
def test_traced_batched_run_counts_every_seam(tmp_path, rho, apply_g_per_step):
    # one worker steps its three paths as one block: one run_path, one
    # step and one K call per time step for the batch, the batch's total
    # Newton count per step, and one apply_G per path and use
    tracing = _load_tracing()
    steps, paths = 16, 3
    cfg = ExperimentConfig(
        grid_n=8, p=2.5, kappa=0.01, dt=2.0**-8, T=steps * 2.0**-8, paths=paths,
        master_seed=3, noise_modes=4, noise_rho=rho, workers=1,
        out_dir=str(tmp_path / "run"),
    ).validate()
    span_dir = tmp_path / "spans"
    span_dir.mkdir()
    tracer = tracing.Tracer()
    with tracing.installed(tracer, str(span_dir)):
        manifest = run_experiment(cfg)
    assert manifest.status == "ok"
    assert {s["batch_paths"] for s in manifest.path_summary.values()} == {paths}
    _, counts = tracing.collect(tracer, str(span_dir))
    assert counts["stepping.run_path"] == 1
    assert counts["stepping.step"] == counts["stepping.accumulate_K_sto"] == steps
    newton = sum(s["newton_per_step"] * s["steps_completed"]
                 for s in manifest.path_summary.values())
    assert counts["stepping.newton_iterations"] == round(newton) > 0
    assert counts["potential.phi"] > 0
    assert counts["noise.apply_G"] == paths * apply_g_per_step * steps
