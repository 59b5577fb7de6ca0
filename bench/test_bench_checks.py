"""Negative controls: each output check passes on a clean run and fails on
a deliberately corrupted copy of it.  Tiny grids keep this to seconds.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench_checks.py
"""

import json
import os
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from pstokeslab import analysis, runner  # noqa: E402

TINY = dict(grid_n=8, kappa=0.01, dt=2.0**-8, noise_modes=4, noise_decay=2.0, workers=1)


def _finish(wl, cfg, run_dir):
    runner.run_experiment(cfg, str(run_dir))
    wl.analyse(str(run_dir), cfg)
    return str(run_dir), checks.read_manifest(str(run_dir))


@pytest.fixture(scope="module")
def additive(tmp_path_factory):
    wl = workloads.AdditiveWorkload(
        "tiny_additive", setup_reps=1, kind="velocity_regularity", p=2.5,
        T=64 * 2.0**-8, paths=2, noise_rho="one", noise_flavor="mixed", **TINY)
    cfg = wl.config(3)
    ctx = wl.prepare_checks(cfg, wl.setup(cfg, None)[1])
    run_dir, manifest = _finish(wl, cfg, tmp_path_factory.mktemp("runs") / "additive")
    return wl, cfg, ctx, run_dir, manifest


@pytest.fixture(scope="module")
def pressure(tmp_path_factory):
    wl = workloads.PressureWorkload(
        "tiny_pressure", setup_reps=1, kind="pressure_regularity", p=3.0,
        T=32 * 2.0**-8, paths=1, noise_rho="inv_one_plus_s2",
        noise_flavor="gradient", store_every=32, **TINY)
    cfg = wl.config(4)
    ctx = wl.prepare_checks(cfg, wl.setup(cfg, None)[1])
    run_dir, manifest = _finish(wl, cfg, tmp_path_factory.mktemp("runs") / "pressure")
    return wl, cfg, ctx, run_dir, manifest


@pytest.fixture(scope="module")
def wiener(tmp_path_factory):
    wl = workloads.WienerWorkload(
        "tiny_wiener", setup_reps=1, kind="wiener_dichotomy", paths=2,
        wiener_coarsest_exp=6, wiener_finest_exp=8)
    cfg = wl.config(5)
    ctx = wl.prepare_checks(cfg, None)
    run_dir = tmp_path_factory.mktemp("runs") / "wiener"
    runner.run_experiment(cfg, str(run_dir))
    return wl, cfg, ctx, str(run_dir)


def _copy(run_dir, tmp_path):
    dst = tmp_path / "copy"
    shutil.copytree(run_dir, dst)
    return str(dst)


def _rewrite(path, edit):
    with open(path) as fh:
        lines = fh.read().splitlines()
    edit(lines)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _scale_field(line, column, factor):
    cells = line.split(",")
    cells[column] = f"{float(cells[column]) * factor:.10e}"
    return ",".join(cells)


def _additive_checks(wl, cfg, ctx, run_dir, manifest):
    ok = checks.check_paths_ok(manifest, cfg.paths)
    checks.check_series_set(run_dir, cfg.paths)
    n_steps = int(round(cfg.T / cfg.dt))
    checks.check_power2_norms(run_dir, ok, cfg.dt, n_steps)
    refits = checks.per_path_fits(run_dir, ok, cfg.dt, n_steps)
    checks.check_fit_slopes(run_dir, refits)
    w_end = {i: checks.replay_wiener_endpoint(
        runner.PathRng(cfg.master_seed, i), n_steps, cfg.noise_modes, cfg.dt) for i in ok}
    checks.check_k_sto_closed_form(run_dir, ok, w_end, ctx["lambdas"], ctx["bstar"])


def test_clean_outputs_pass_every_check(additive, pressure, wiener):
    _additive_checks(*additive)
    wl, cfg, ctx, run_dir, manifest = pressure
    ok = checks.check_paths_ok(manifest, cfg.paths)
    wl.check_outputs(run_dir, cfg, manifest, ok, ctx)
    wl, cfg, ctx, run_dir = wiener
    wl.check_files(run_dir, cfg)
    checks.check_phi2_sups(checks.read_wiener_table(run_dir), ctx["samples"], T=1.0)


def test_digest_check_runs_before_analysis(tmp_path):
    """Right after run_experiment every file matches its manifest digest."""
    wl = workloads.AdditiveWorkload(
        "tiny_digest", setup_reps=1, kind="velocity_regularity", p=2.5,
        T=16 * 2.0**-8, paths=1, noise_rho="one", noise_flavor="mixed", **TINY)
    cfg = wl.config(6)
    run_dir = str(tmp_path / "run")
    runner.run_experiment(cfg, run_dir)
    checks.check_digests(run_dir, checks.read_manifest(run_dir))
    with open(os.path.join(run_dir, "path_0000_diffs.csv"), "a") as fh:
        fh.write("u,1,999,0.0\n")
    with pytest.raises(checks.CheckFailed, match="sha256"):
        checks.check_digests(run_dir, checks.read_manifest(run_dir))


def test_perturbed_diffs_value_fails(additive, tmp_path):
    wl, cfg, ctx, run_dir, manifest = additive
    run_dir = _copy(run_dir, tmp_path)
    path = os.path.join(run_dir, "path_0001_diffs.csv")

    def edit(lines):
        i = next(k for k, ln in enumerate(lines) if ln.startswith("u,4,10,"))
        lines[i] = _scale_field(lines[i], 3, 1.0 + 1e-6)

    _rewrite(path, edit)
    n_steps = int(round(cfg.T / cfg.dt))
    with pytest.raises(checks.CheckFailed, match="power\\(2\\) norm"):
        checks.check_power2_norms(run_dir, [0, 1], cfg.dt, n_steps)


def test_altered_fit_slope_fails(additive, tmp_path):
    wl, cfg, ctx, run_dir, manifest = additive
    run_dir = _copy(run_dir, tmp_path)
    _rewrite(os.path.join(run_dir, "fits_detail.csv"),
             lambda lines: lines.__setitem__(1, _scale_field(lines[1], 4, 1.0 + 1e-5)))
    n_steps = int(round(cfg.T / cfg.dt))
    refits = checks.per_path_fits(run_dir, [0, 1], cfg.dt, n_steps)
    with pytest.raises(checks.CheckFailed, match="refit"):
        checks.check_fit_slopes(run_dir, refits)


def test_scaled_k_sto_row_fails(additive, tmp_path):
    wl, cfg, ctx, run_dir, manifest = additive
    run_dir = _copy(run_dir, tmp_path)
    _rewrite(os.path.join(run_dir, "path_0000_series.csv"),
             lambda lines: lines.__setitem__(-1, _scale_field(lines[-1], 7, 1.0 + 1e-7)))
    n_steps = int(round(cfg.T / cfg.dt))
    w_end = {i: checks.replay_wiener_endpoint(
        runner.PathRng(cfg.master_seed, i), n_steps, cfg.noise_modes, cfg.dt) for i in (0, 1)}
    with pytest.raises(checks.CheckFailed, match="closed form"):
        checks.check_k_sto_closed_form(run_dir, [0, 1], w_end, ctx["lambdas"], ctx["bstar"])


def test_non_solenoidal_snapshot_fails(pressure, tmp_path):
    wl, cfg, ctx, run_dir, manifest = pressure
    run_dir = _copy(run_dir, tmp_path)
    path = os.path.join(run_dir, "path_0000_u_k000032.csv")
    u = checks.read_snapshot(path, cfg.grid_n)
    assert np.abs(u).max() > 0.0
    # a gradient-free bump in one component only has nonzero divergence
    u[0, 3, 4] += 1e-6 * np.abs(u).max()
    with open(path, "w") as fh:
        fh.write("i,j,comp,value\n")
        for i in range(cfg.grid_n):
            for j in range(cfg.grid_n):
                for c in range(2):
                    fh.write(f"{i},{j},{c},{u[c, i, j]:.17g}\n")
    with pytest.raises(checks.CheckFailed, match="relative divergence"):
        checks.check_divergence_free(path, cfg.grid_n)


def test_altered_pi_det_fails(pressure, tmp_path):
    wl, cfg, ctx, run_dir, manifest = pressure
    run_dir = _copy(run_dir, tmp_path)
    series = os.path.join(run_dir, "path_0000_series.csv")
    _rewrite(series, lambda lines: lines.__setitem__(-1, _scale_field(lines[-1], 6, 1.0 + 1e-6)))
    with pytest.raises(checks.CheckFailed, match="recomputed"):
        checks.check_pi_det_final(
            os.path.join(run_dir, "path_0000_u_k000032.csv"), series, cfg.grid_n,
            cfg.p, cfg.kappa, ctx["projector"], ctx["bogovskii"])


def test_dropped_series_file_fails(additive, tmp_path):
    wl, cfg, ctx, run_dir, manifest = additive
    run_dir = _copy(run_dir, tmp_path)
    os.remove(os.path.join(run_dir, "path_0001_series.csv"))
    with pytest.raises(checks.CheckFailed, match="series files"):
        checks.check_series_set(run_dir, cfg.paths)


def test_stale_series_file_fails(additive, tmp_path):
    wl, cfg, ctx, run_dir, manifest = additive
    run_dir = _copy(run_dir, tmp_path)
    shutil.copy(os.path.join(run_dir, "path_0001_series.csv"),
                os.path.join(run_dir, "path_0002_series.csv"))
    with pytest.raises(checks.CheckFailed, match="series files"):
        checks.check_series_set(run_dir, cfg.paths)


def test_altered_wiener_sup_fails(wiener, tmp_path):
    wl, cfg, ctx, run_dir = wiener
    run_dir = _copy(run_dir, tmp_path)
    _rewrite(os.path.join(run_dir, "wiener_dichotomy.csv"),
             lambda lines: lines.__setitem__(1, _scale_field(lines[1], 2, 1.0 + 1e-6)))
    with pytest.raises(checks.CheckFailed, match="root-find"):
        checks.check_phi2_sups(checks.read_wiener_table(run_dir), ctx["samples"], T=1.0)


def test_dichotomy_check_rejects_flat_quadratic_ratios():
    rows = [(i, dt, 1.0, 1.0) for i in range(4) for dt in (2.0**-6, 2.0**-8)]
    with pytest.raises(checks.CheckFailed, match="quadratic"):
        checks.check_dichotomy(rows)


def test_phi2_root_find_matches_closed_form():
    # constant |x| = c on a unit window: dt*N*expm1((c/l)^2) = 1 -> l = c/sqrt(ln 2)
    dt = 1.0 / 64
    vals = np.full(65, 0.3)
    assert checks.phi2_luxemburg(vals, dt) == pytest.approx(0.3 / np.sqrt(np.log(2.0)), rel=1e-13)
    got = analysis.luxemburg_norm(analysis.SampledPath(vals, dt), analysis.OrliczSpec.phi2())
    checks.check_phi2_norms([(got, vals, dt)])
    with pytest.raises(checks.CheckFailed):
        checks.check_phi2_norms([(got * (1 + 1e-6), vals, dt)])


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    # the bounds the README gives: 0.25 for every time, 0.1 for peak RSS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds == {k: 0.1 if unit == "MiB" else 0.25
                      for k, unit in workloads.END_TO_END.items()}


def test_cli_startup_is_timed_in_a_fresh_interpreter(tmp_path):
    cfg = workloads.WORKLOADS["wiener_refinement"].config(1)
    assert 0.0 < workloads.cli_startup_s(cfg, str(tmp_path)) < 60.0
    assert os.listdir(tmp_path) == []
