import json
import os
from dataclasses import asdict

import numpy as np
import pytest

from pstokeslab.analysis import fit_command, norms_command, report_command
from pstokeslab.cli import main as cli_main
from pstokeslab.config import (
    ConfigError,
    ExperimentConfig,
    RunManifest,
    parse_config_text,
    sha256_file,
)
from pstokeslab.grid import Grid
from pstokeslab import runner, seminorms
from pstokeslab.noise import PathRng, sample_increment
from pstokeslab.runner import run_experiment
from pstokeslab.seminorms import OrliczSpec
from pstokeslab.stepping import StepError, Stepper


def small_config(out_dir, **overrides):
    base = dict(
        kind="velocity_regularity",
        grid_n=8,
        p=2.5,
        kappa=0.01,
        dt=2.0**-8,
        T=2.0**-8 * 64,
        paths=2,
        master_seed=7,
        noise_modes=4,
        noise_flavor="mixed",
        workers=1,
        out_dir=out_dir,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def run_files(run_dir):
    return {
        name: open(os.path.join(run_dir, name), "rb").read()
        for name in sorted(os.listdir(run_dir))
        if name.endswith(".csv")
    }


# ---------------------------------------------------------------- config

def test_parse_config_roundtrip():
    cfg = ExperimentConfig(kind="pressure_regularity", p=3.0, paths=5)
    back = parse_config_text(cfg.to_text())
    assert back == cfg


def test_parse_config_comments_and_errors():
    cfg = parse_config_text("# comment\np = 2.5  # inline\ngrid_n=16\n")
    assert cfg.p == 2.5 and cfg.grid_n == 16
    with pytest.raises(ConfigError):
        parse_config_text("nonsense\n")
    with pytest.raises(ConfigError):
        parse_config_text("unknown_key=1\n")
    with pytest.raises(ConfigError):
        parse_config_text("p=abc\n")
    # values that would fail only inside the workers
    for text in ("workers=-1\n", "newton_tol=0\n", "newton_max_iter=0\n",
                 "cg_tol=1\n", "cg_tol=2\n", "cg_tol=nan\n", "cg_tol=-1e-3\n",
                 "kappa_reg=0\n", "kappa_reg=nan\n", "u0_scale=inf\n",
                 "u0_scale=nan\n"):
        with pytest.raises(ConfigError, match=text.split("=")[0]):
            parse_config_text(text).validate()


def test_validation_rejects_non_finite_floats(tmp_path, capsys):
    # NaN passed every range test and inf most of them: p=inf ran on past
    # 120 s, newton_tol=inf stopped every step unconverged with status ok,
    # and dt=nan or T=inf raised from round() inside validate()
    keys = [key for key, value in asdict(ExperimentConfig()).items() if isinstance(value, float)]
    assert {"p", "kappa", "dt", "T", "noise_decay", "newton_tol", "u0_scale"} <= set(keys)
    for kind in ("velocity_regularity", "wiener_dichotomy"):
        for key in keys:
            for value in ("nan", "inf", "-inf"):
                with pytest.raises(ConfigError, match=f"^{key} must be finite$"):
                    parse_config_text(f"kind={kind}\n{key}={value}\n").validate()
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"grid_n=8\npaths=1\nworkers=1\np=inf\nout_dir={tmp_path / 'run'}\n")
    assert cli_main(["run", "--config", str(bad)]) == 1
    assert capsys.readouterr().err == "configuration error: p must be finite\n"
    assert not os.path.exists(tmp_path / "run")


def test_validation_rejects_bad_combinations():
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="bogus").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(grid_n=10).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(dt=0.3, T=1.0).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(noise_rho="bogus").validate()


def test_validation_rejects_configs_that_write_nothing_meaningful():
    # a Wiener level below 2^-5 has no lag in the fit window [4 dt, T/8]:
    # exponents 0 and -2 ended "ok" with dt = 4 > T and every norm 0
    for coarsest, finest in ((-2, 0), (4, 8), (4, 4)):
        cfg = ExperimentConfig(kind="wiener_dichotomy", paths=2,
                               wiener_coarsest_exp=coarsest, wiener_finest_exp=finest)
        with pytest.raises(ConfigError, match="wiener_coarsest_exp"):
            cfg.validate()
    ExperimentConfig(kind="wiener_dichotomy", paths=2,
                     wiener_coarsest_exp=5, wiener_finest_exp=7).validate()
    # a negative stride stored no snapshot without a word
    with pytest.raises(ConfigError, match="store_every"):
        ExperimentConfig(store_every=-3).validate()
    ExperimentConfig(store_every=0).validate()


def test_p_below_two_needs_flag():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(p=1.5).validate()
    assert "open problem" in str(err.value)
    ExperimentConfig(p=1.5, allow_p_below_two=True).validate()


# ---------------------------------------------------------------- runner
def test_initial_velocity_rejects_unknown_kind():
    # a library caller that skips ExperimentConfig.validate() gets an
    # error, not the curl field, for a kind other than "zero" or "curl"
    with pytest.raises(ValueError, match="bogus"):
        runner.initial_velocity(Grid(8), "bogus", 1.0)



def test_zero_paths_manifest_only(tmp_path):
    cfg = small_config(str(tmp_path / "run0"), paths=0)
    manifest = run_experiment(cfg)
    assert manifest.status == "ok"
    assert os.path.exists(RunManifest.manifest_path(cfg.out_dir))
    assert not [n for n in os.listdir(cfg.out_dir) if n.startswith("path_")]


def test_same_config_twice_byte_identical(tmp_path):
    cfg_a = small_config(str(tmp_path / "a"))
    cfg_b = small_config(str(tmp_path / "b"))
    run_experiment(cfg_a)
    run_experiment(cfg_b)
    files_a = run_files(cfg_a.out_dir)
    files_b = run_files(cfg_b.out_dir)
    assert files_a.keys() == files_b.keys()
    for name in files_a:
        assert files_a[name] == files_b[name], name


def test_output_independent_of_worker_count(tmp_path):
    cfg_a = small_config(str(tmp_path / "w1"), workers=1)
    cfg_b = small_config(str(tmp_path / "w2"), workers=2)
    run_experiment(cfg_a)
    run_experiment(cfg_b)
    files_a = run_files(cfg_a.out_dir)
    files_b = run_files(cfg_b.out_dir)
    for name in files_a:
        assert files_a[name] == files_b[name], name


def test_wiener_table_independent_of_worker_count(tmp_path):
    study = dict(paths=5, master_seed=3, coarsest_exp=8, finest_exp=12)
    serial = runner.wiener_dichotomy_study(**study, workers=1)
    assert runner.wiener_dichotomy_study(**study, workers=2) == serial
    tables = []
    for workers in (1, 2):
        cfg = small_config(
            str(tmp_path / f"w{workers}"), kind="wiener_dichotomy", paths=5,
            wiener_coarsest_exp=8, wiener_finest_exp=12, workers=workers,
        )
        assert run_experiment(cfg).status == "ok"
        tables.append(open(os.path.join(cfg.out_dir, runner.WIENER_TABLE), "rb").read())
    assert tables[0] == tables[1]


def test_manifest_lists_every_file_with_digest(tmp_path):
    cfg = small_config(str(tmp_path / "digests"))
    manifest = run_experiment(cfg)
    listed = set(manifest.files)
    on_disk = {
        n for n in os.listdir(cfg.out_dir) if n != "manifest.json"
    }
    assert listed == on_disk
    for name, digest in manifest.files.items():
        assert digest == sha256_file(os.path.join(cfg.out_dir, name))
    assert manifest.wall_clock_seconds > 0.0
    assert manifest.path_seeds == [[7, 0], [7, 1]]


def test_rerun_into_same_directory_drops_stale_outputs(tmp_path):
    # 8 paths and their norms, then 1 path into the same directory: the
    # manifest and norms see the 1-path run only, files the run does not
    # own stay, and the outputs equal those of a fresh directory
    run_dir = str(tmp_path / "reused")
    run_experiment(small_config(run_dir, paths=8))
    norms_command(run_dir, [0.5], [OrliczSpec.power(2)])
    with open(os.path.join(run_dir, "notes.txt"), "w") as fh:
        fh.write("kept\n")
    manifest = run_experiment(small_config(run_dir, paths=1))
    assert [n for n in manifest.files if n.endswith("_series.csv")] == ["path_0000_series.csv"]
    assert "notes.txt" in manifest.files
    fresh = str(tmp_path / "fresh")
    run_experiment(small_config(fresh, paths=1))
    assert run_files(run_dir) == run_files(fresh)
    rows = norms_command(run_dir, [0.5], [OrliczSpec.power(2)])
    assert rows and all(r.n_paths == 1 for r in rows)


@pytest.mark.parametrize("paths, workers, n, blocks", [
    (8, 2, 16, [(0, 4), (4, 4)]),
    (32, 2, 16, [(0, 16), (16, 16)]),
    (40, 1, 32, [(0, 4), (4, 4), (8, 4), (12, 4), (16, 4), (20, 4), (24, 4), (28, 4),
                 (32, 4), (36, 4)]),
    (5, 1, 32, [(0, 3), (3, 2)]),
    (3, 2, 64, [(0, 1), (1, 1), (2, 1)]),
    (3, 8, 8, [(0, 1), (1, 1), (2, 1)]),
])
def test_path_blocks_are_contiguous_and_capped(paths, workers, n, blocks):
    # one part per worker, each split evenly into batches of at most
    # BATCH_CELLS // n^2 paths
    assert runner.path_blocks(paths, workers, n) == blocks


def test_measured_budget_32_paths(tmp_path):
    # 32 paths, 2^10 steps on a 16^2 grid: wall clock recorded in the
    # manifest and far below the ten-minute budget
    cfg = ExperimentConfig(
        kind="velocity_regularity", grid_n=16, p=2.5, kappa=0.01,
        dt=2.0**-10, T=1.0, paths=32, master_seed=99, noise_modes=16,
        workers=0, out_dir=str(tmp_path / "budget"),
    )
    manifest = run_experiment(cfg)
    assert manifest.status == "ok"
    assert manifest.wall_clock_seconds < 600.0


def test_trajectory_series_header(tmp_path):
    cfg = small_config(str(tmp_path / "hdr"), paths=1)
    run_experiment(cfg)
    with open(os.path.join(cfg.out_dir, "path_0000_series.csv")) as fh:
        assert fh.readline().strip() == (
            "k,t,J,res_l2,u_l2,Vdiff_placeholder,pi_det_lpprime,K_sto_w12"
        )


# ---------------------------------------------------------------- analysis

@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("harness") / "run")
    cfg = small_config(out, paths=3, T=2.0**-8 * 256, dt=2.0**-8)
    run_experiment(cfg)
    return out


def test_norms_outputs_and_headers(finished_run):
    rows = norms_command(finished_run, [0.5], [OrliczSpec.power(2)])
    assert rows
    per_path = [n for n in os.listdir(finished_run) if n.startswith("norms_u_path")]
    assert len(per_path) == 3
    with open(os.path.join(finished_run, per_path[0])) as fh:
        assert fh.readline().strip() == "h,norm,alpha,kind,sup_term"
    with open(os.path.join(finished_run, "aggregate_norms.csv")) as fh:
        header = fh.readline().strip()
    assert header.startswith("quantity,alpha,kind,median_sup")


def test_aggregate_median_matches_scripted_oracle(finished_run):
    # independent script over the same CSVs: recompute each path's sup
    # and compare the aggregate median
    rows = norms_command(finished_run, [0.5], [OrliczSpec.power(2)])
    target = {(r.quantity, r.kind): r.median_sup for r in rows}
    sups = {}
    for name in sorted(os.listdir(finished_run)):
        if not name.startswith("norms_") or "path" not in name:
            continue
        quantity = name.split("_")[1]
        with open(os.path.join(finished_run, name)) as fh:
            fh.readline()
            best = {}
            for line in fh:
                h, norm, alpha, kind, sup_term = line.strip().split(",")
                if kind == "power(2)":
                    best[kind] = max(best.get(kind, 0.0), float(sup_term))
        for kind, val in best.items():
            sups.setdefault((quantity, kind), []).append(val)
    for key, vals in sups.items():
        # stored CSVs carry 11 significant digits
        assert target[key] == pytest.approx(float(np.median(vals)), rel=1e-9)


def test_fit_summary_header(finished_run):
    fit_command(finished_run, alphas=[0.5], specs=[OrliczSpec.power(2)])
    files = [n for n in os.listdir(finished_run) if n.startswith("fits_") and "detail" not in n]
    assert files
    with open(os.path.join(finished_run, files[0])) as fh:
        assert fh.readline().strip() == "alpha,slope,half_width,h_min,h_max"


def test_fit_median_matches_scripted_slope_oracle(finished_run):
    # scripted oracle: re-fit each path's log-log slope from the norms
    # CSVs and compare the across-path median with the fit summary
    norms_command(finished_run, [0.5], [OrliczSpec.power(2)])
    summaries = fit_command(finished_run, alphas=[0.5], specs=[OrliczSpec.power(2)])
    per_path = {}
    for name in sorted(os.listdir(finished_run)):
        if not (name.startswith("norms_u_path") and name.endswith(".csv")):
            continue
        hs, norms = [], []
        with open(os.path.join(finished_run, name)) as fh:
            fh.readline()
            for line in fh:
                h, norm, alpha, kind, _ = line.strip().split(",")
                if kind == "power(2)" and float(norm) > 0.0:
                    hs.append(float(h))
                    norms.append(float(norm))
        x = np.log2(hs)
        y = np.log2(norms)
        slope = float(np.sum((x - x.mean()) * (y - y.mean())) / np.sum((x - x.mean()) ** 2))
        per_path[name] = slope
    oracle_median = float(np.median(list(per_path.values())))
    got = summaries[("u", "power(2)", 0.5)].slope
    assert got == pytest.approx(oracle_median, rel=1e-6)


def test_load_diffs_matches_line_parser(finished_run):
    # reference: the row-by-row parser, which needs no block order
    from pstokeslab.analysis import load_diffs
    from pstokeslab.runner import diffs_path

    for index in range(3):
        rows = {}
        with open(diffs_path(finished_run, index)) as fh:
            fh.readline()
            for line in fh:
                q, lag, _k, value = line.rstrip("\n").split(",")
                rows.setdefault((q, int(lag)), []).append(float(value))
        got = load_diffs(finished_run, index)
        assert sorted((q, lag) for q in got for lag in got[q]) == sorted(rows)
        for (q, lag), values in rows.items():
            expected = np.asarray(values)
            assert got[q][lag].dtype == expected.dtype
            assert got[q][lag].tobytes() == expected.tobytes()


@pytest.mark.parametrize("body", [
    "u,4,0,1.0\nu,8,0,2.0\nu,4,1,3.0\n",   # (u, 4) split in two blocks
    "u,4,0,1.0\nu,4,1\n",                   # truncated last row
    "u,4,0,1.0\nX,4,0,2.0\n",               # quantity other than u, V, K
])
def test_load_diffs_rejects_malformed_files(tmp_path, body):
    from pstokeslab.analysis import load_diffs
    from pstokeslab.runner import diffs_path

    with open(diffs_path(str(tmp_path), 0), "w") as fh:
        fh.write("quantity,lag_steps,k,value\n" + body)
    with pytest.raises(ValueError):
        load_diffs(str(tmp_path), 0)


def test_fit_writes_one_summary_row_per_alpha(finished_run):
    summaries = fit_command(finished_run, alphas=[0.25, 0.5], specs=[OrliczSpec.power(2)])
    with open(os.path.join(finished_run, "fits_u_power2.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "alpha,slope,half_width,h_min,h_max"
    assert [line.split(",")[0] for line in lines[1:]] == ["0.25", "0.5"]
    for line in lines[1:]:
        alpha = float(line.split(",")[0])
        assert float(line.split(",")[1]) == pytest.approx(
            summaries[("u", "power(2)", alpha)].slope, rel=1e-9
        )


def test_each_luxemburg_norm_is_taken_once_for_all_alphas(finished_run, monkeypatch):
    # 3 paths x 3 quantities x 1 spec x 4 window lags (4..32 of 256 steps):
    # the norms do not depend on alpha, so two alphas take 36 norms, not 72
    calls = []
    norm = seminorms.luxemburg_norm
    monkeypatch.setattr(seminorms, "luxemburg_norm", lambda *a: calls.append(1) or norm(*a))
    for command in (norms_command, fit_command):
        calls.clear()
        command(finished_run, [0.25, 0.5], [OrliczSpec.power(2)])
        assert len(calls) == 36, command.__name__


def _append_unknown_quantity(run_dir):
    with open(os.path.join(run_dir, "path_0000_diffs.csv"), "a") as fh:
        fh.write("X,1,0,1.0\n")


def _edit_manifest(edit):
    def corrupt(run_dir):
        path = RunManifest.manifest_path(run_dir)
        with open(path) as fh:
            data = json.load(fh)
        edit(data)
        with open(path, "w") as fh:
            json.dump(data, fh)
    return corrupt


@pytest.mark.parametrize("command, corrupt", [
    ("norms", _append_unknown_quantity),
    ("norms", _edit_manifest(lambda data: data.update(stray=1))),
    ("fit", _edit_manifest(lambda data: data["config"].pop("dt"))),
    ("report", _edit_manifest(lambda data: data["path_summary"]["0"].pop("sup_energy"))),
], ids=["unknown-quantity", "unknown-manifest-key", "config-without-dt", "summary-without-sup_energy"])
def test_cli_malformed_run_files_are_runtime_errors(finished_run, tmp_path, capsys, command, corrupt):
    # exit status 2 with one "runtime error:" line naming the file, not a traceback
    import shutil

    run_dir = str(tmp_path / "run")
    shutil.copytree(finished_run, run_dir)
    corrupt(run_dir)
    capsys.readouterr()
    assert cli_main([command, "--dir", run_dir]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("runtime error: ") and run_dir in err[0]


@pytest.mark.parametrize("command", ["norms", "fit"])
@pytest.mark.parametrize("option, value", [
    ("--orlicz", "inf"), ("--orlicz", "nan"), ("--orlicz", "nq:nan"), ("--orlicz", "nq:inf"),
    ("--alpha", "nan"), ("--alpha", "5"), ("--alpha", "-1"),
    ("--alpha", "0"), ("--alpha", "1"), ("--alpha", "0.5,inf"),
])
def test_cli_rejects_scales_and_alphas_that_make_garbage(finished_run, capsys, command,
                                                         option, value):
    # --orlicz inf gave every norm 1, nan gave NaN everywhere, and alphas
    # outside (0, 1) gave NaN or meaningless sups, all with exit 0
    capsys.readouterr()
    assert cli_main([command, "--dir", finished_run, option, value]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("argument error: ")


def test_report_digest(finished_run):
    text = report_command(finished_run)
    assert "energy monitor" in text
    assert "status: ok" in text


def increment_owners(cfg):
    """(path, step) of every Wiener increment a run of cfg draws, keyed by
    its bytes: each path draws one increment per step from its own stream."""
    owners = {}
    for index in range(cfg.paths):
        rng = PathRng(cfg.master_seed, index)
        for k in range(1, int(round(cfg.T / cfg.dt)) + 1):
            owners[sample_increment(rng, cfg.dt, cfg.noise_modes).tobytes()] = (index, k)
    return owners


def served(owners, dW):
    """(path, step) pairs that one step() call serves: runner steps a block
    of paths as one batch with a list of increments, and redoes a batch
    that raised one path at a time."""
    return [owners[inc.tobytes()] for inc in (dW if isinstance(dW, list) else [dW])]


def per_path(rep, name):
    """One StepReport count per path served, for a batch or a single path."""
    return np.atleast_1d(getattr(rep, "path_iterations" if name == "iterations" else name))


def test_failed_paths_stay_out_of_aggregates(tmp_path, monkeypatch, capsys):
    # path 1 stops at step 5 and keeps its truncated files; the reports,
    # medians and fits are those of paths 0 and 2 alone
    out = str(tmp_path / "one_failed")
    cfg = small_config(out, paths=3)
    owners = increment_owners(cfg)

    class StopsPathOne(Stepper):
        def step(self, u_n, dW):
            if (1, 5) in served(owners, dW):
                raise StepError("stopped")
            return super().step(u_n, dW)

    monkeypatch.setattr(runner, "Stepper", StopsPathOne)
    manifest = run_experiment(cfg)
    assert manifest.path_status["1"].startswith("failed: step 5")
    assert os.path.exists(os.path.join(out, "path_0001_series.csv"))
    rows = norms_command(out, [0.5], [OrliczSpec.power(2)])
    assert rows and all(r.n_paths == 2 for r in rows)
    assert not any("path0001" in name for name in os.listdir(out))
    fit_command(out, alphas=[0.5], specs=[OrliczSpec.power(2)])
    with open(os.path.join(out, "fits_detail.csv")) as fh:
        next(fh)
        assert {line.split(",")[2] for line in fh} == {"0", "2"}
    # the CLI prints the excluded count next to the medians
    capsys.readouterr()
    for command in ("norms", "fit"):
        assert cli_main([command, "--dir", out]) == 0
        *medians, excluded = capsys.readouterr().out.splitlines()
        assert medians and excluded == "failed paths excluded from the medians: 1 (1)"
    # with no completed path left there is nothing to analyse
    manifest.path_status.update({"0": "failed: step 3", "2": "failed: step 3"})
    manifest.write(out)
    with pytest.raises(FileNotFoundError):
        norms_command(out, [0.5], [OrliczSpec.power(2)])


def test_path_summary_solver_health_and_report(tmp_path, monkeypatch):
    # per-step means of the StepReport counts, throughput and phase
    # times per path; report prints them and each failed path's reason
    out = str(tmp_path / "health")
    cfg = small_config(out, paths=3, p=2.0, kappa=0.0)
    owners = increment_owners(cfg)
    sums = {index: [0, 0, 0] for index in range(3)}

    class CountsReports(Stepper):
        def step(self, u_n, dW):
            paths = served(owners, dW)
            if (1, 5) in paths:
                raise StepError("stopped")
            u, rep = super().step(u_n, dW)
            for i, name in enumerate(("iterations", "cg_iterations", "backtracks")):
                for (path, _), count in zip(paths, per_path(rep, name)):
                    sums[path][i] += count
            return u, rep

    monkeypatch.setattr(runner, "Stepper", CountsReports)
    manifest = run_experiment(cfg)
    for index, summary in manifest.path_summary.items():
        steps = summary["steps_completed"]
        assert steps == (4 if index == "1" else 64)
        keys = ("newton_per_step", "cg_per_step", "backtracks_per_step")
        for key, total in zip(keys, sums[int(index)]):
            assert summary[key] == total / steps, (index, key)
        assert summary["cg_per_step"] > 0.0
        assert summary["ms_per_step"] == pytest.approx(1e3 * summary["seconds"] / steps)
        phases = [summary[f"{name}_s"] for name in ("step", "record", "K", "write")]
        assert all(t > 0.0 for t in phases)
        assert sum(phases) <= summary["seconds"]
        assert summary["batch_paths"] == 3
    lines = report_command(out).splitlines()
    solver = [ln for ln in lines if ln.startswith("solver: ")]
    assert len(solver) == 1 and "ms per step over 132 steps" in solver[0]
    # one worker steps the three paths as one batch; each path's seconds
    # are its share of the batch's time
    assert solver[0].endswith("; batches of 3 paths")
    assert "failed path 1: step 5: stopped" in lines


def test_roundoff_steps_reach_path_summary_and_report(tmp_path, monkeypatch):
    # the steps the round-off rule took without the Armijo test, per path
    # and per step in the trajectory, summed into path_summary and report
    out = str(tmp_path / "roundoff")
    cfg = small_config(out, paths=2)
    owners = increment_owners(cfg)
    sums = {0: 0, 1: 0}

    class CountsRoundoff(Stepper):
        def run_path(self, u0, rngs):
            trajs = super().run_path(u0, rngs)
            for rng, traj in zip(rngs, trajs):
                assert traj.roundoff_steps[1:].sum() == sums[rng.path_index]
            return trajs

        def step(self, u_n, dW):
            u, rep = super().step(u_n, dW)
            for (path, _), count in zip(served(owners, dW), per_path(rep, "roundoff_steps")):
                sums[path] += count
            return u, rep

    monkeypatch.setattr(runner, "Stepper", CountsRoundoff)
    manifest = run_experiment(cfg)
    assert all(total > 0 for total in sums.values())
    for index, summary in manifest.path_summary.items():
        assert summary["roundoff_per_step"] == sums[int(index)] / 64
    mean = sum(sums.values()) / 128
    solver = [ln for ln in report_command(out).splitlines() if ln.startswith("solver: ")]
    assert len(solver) == 1 and f"{mean:.3f} round-off steps per step" in solver[0]


def test_path_exception_other_than_step_error_fails_that_path_only(tmp_path, monkeypatch):
    # a ValueError inside path 1's step (as potential.energy raises on a
    # non-finite candidate) fails that path alone; the run finishes
    out = str(tmp_path / "value_error")
    cfg = small_config(out, paths=3)
    owners = increment_owners(cfg)

    class RaisesOnPathOne(Stepper):
        def step(self, u_n, dW):
            if (1, 3) in served(owners, dW):
                raise ValueError("non-finite candidate")
            return super().step(u_n, dW)

    monkeypatch.setattr(runner, "Stepper", RaisesOnPathOne)
    manifest = run_experiment(cfg)
    assert manifest.status == "1 paths failed"
    assert manifest.path_status["0"] == manifest.path_status["2"] == "ok"
    assert manifest.path_status["1"] == "failed: step 3: ValueError: non-finite candidate"
    with open(os.path.join(out, "path_0001_series.csv")) as fh:
        assert len(fh.readlines()) == 1 + 3  # header and steps 0..2


def test_non_finite_velocity_fails_that_path_only(tmp_path, monkeypatch):
    # path 1's step 3 hands back a NaN velocity inside the 3-path block:
    # record() rejects it, the step is redone path by path, path 1 fails
    # alone and the other paths keep the bytes of a clean run
    clean = str(tmp_path / "clean")
    run_experiment(small_config(clean, paths=3))
    out = str(tmp_path / "nan")
    cfg = small_config(out, paths=3)
    owners = increment_owners(cfg)
    batches = []

    class NanOnPathOne(Stepper):
        def step(self, u_n, dW):
            u_next, rep = super().step(u_n, dW)
            paths = served(owners, dW)
            batches.append(len(paths))
            for b, owner in enumerate(paths):
                if owner == (1, 3):
                    u_next[:, b] = np.nan
            return u_next, rep

    monkeypatch.setattr(runner, "Stepper", NanOnPathOne)
    manifest = run_experiment(cfg)
    assert batches[:7] == [3, 3, 3, 1, 1, 1, 2]  # steps 1-3, step 3 redone, step 4
    assert manifest.status == "1 paths failed"
    assert manifest.path_status["0"] == manifest.path_status["2"] == "ok"
    assert manifest.path_status["1"] == "failed: step 3: non-finite velocity"
    assert manifest.path_summary["1"]["steps_completed"] == 2
    with open(os.path.join(out, "path_0001_series.csv")) as fh:
        assert len(fh.readlines()) == 1 + 3  # header and steps 0..2
    clean_files, files = run_files(clean), run_files(out)
    for name in clean_files:
        if not name.startswith("path_0001"):
            assert files[name] == clean_files[name], name


def test_exception_while_recording_fails_that_path_only(tmp_path, monkeypatch):
    # record() of step 3 raises in path 1 (its fourth stress evaluation,
    # after steps 0..2); the trajectory keeps steps 0..2, the run finishes
    out = str(tmp_path / "record_error")
    cfg = small_config(out, paths=3)
    owners = increment_owners(cfg)

    class RecordFailsOnPathOne(Stepper):
        # the paths of the latest step, which the next record() records
        latest = ()

        def step(self, u_n, dW):
            self.latest = served(owners, dW)
            return super().step(u_n, dW)

        def _stress_terms(self, eps, t):
            if (1, 3) in self.latest:
                raise FloatingPointError("overflow in the stress")
            return super()._stress_terms(eps, t)

    monkeypatch.setattr(runner, "Stepper", RecordFailsOnPathOne)
    manifest = run_experiment(cfg)
    assert manifest.status == "1 paths failed"
    assert manifest.path_status["0"] == manifest.path_status["2"] == "ok"
    assert manifest.path_status["1"] == "failed: step 3: FloatingPointError: overflow in the stress"
    assert manifest.path_summary["1"]["steps_completed"] == 2
    with open(os.path.join(out, "path_0001_series.csv")) as fh:
        assert len(fh.readlines()) == 1 + 3  # header and steps 0..2
    with open(os.path.join(out, "path_0000_series.csv")) as fh:
        assert len(fh.readlines()) == 1 + 65


def test_exception_while_recording_the_initial_state_fails_that_path_only(
    tmp_path, monkeypatch
):
    # record() of step 0 raises in path 1 (its first stress evaluation):
    # that path records nothing and fails alone, the run finishes
    class InitialRecordFails(Stepper):
        def run_path(self, u0, rngs):
            # the initial state is recorded once for the whole block and,
            # as that raises, once per path in block order
            self.order = [None] + [rng.path_index for rng in rngs]
            return super().run_path(u0, rngs)

        def _stress_terms(self, eps, t):
            if self.order and self.order.pop(0) in (None, 1):
                raise FloatingPointError("overflow in the stress")
            return super()._stress_terms(eps, t)

    monkeypatch.setattr(runner, "Stepper", InitialRecordFails)
    out = str(tmp_path / "initial_record_error")
    manifest = run_experiment(small_config(out, paths=3))
    assert manifest.status == "1 paths failed"
    assert manifest.path_status["0"] == manifest.path_status["2"] == "ok"
    assert manifest.path_status["1"] == "failed: step 0: FloatingPointError: overflow in the stress"
    summary = manifest.path_summary["1"]
    assert summary["steps_completed"] == 0
    assert summary["newton_per_step"] == summary["ms_per_step"] == 0.0
    with open(os.path.join(out, "path_0001_series.csv")) as fh:
        assert len(fh.readlines()) == 1  # header only
    assert "failed path 1: step 0: FloatingPointError: overflow in the stress" in (
        report_command(out).splitlines()
    )


def test_setup_exception_fails_only_its_blocks_paths(tmp_path, monkeypatch):
    # an exception before the first step (stepper, initial velocity,
    # random streams) fails every path of its block with a "setup:"
    # status; the run finishes and its manifest lists the other blocks'
    # files
    def broken_velocity(grid, kind, scale):
        raise FloatingPointError("overflow in the initial velocity")

    monkeypatch.setattr(runner, "initial_velocity", broken_velocity)
    out = str(tmp_path / "setup_error")
    manifest = run_experiment(small_config(out, paths=3))
    assert manifest.status == "3 paths failed"
    assert set(manifest.path_status.values()) == {
        "failed: setup: FloatingPointError: overflow in the initial velocity"
    }
    assert all(s["steps_completed"] == 0 for s in manifest.path_summary.values())
    assert not [name for name in os.listdir(out) if name.startswith("path_")]
    assert "failed path 2: setup: FloatingPointError: overflow in the initial velocity" in (
        report_command(out).splitlines()
    )

    # two workers step the blocks [0, 1] and [2, 3]; path 1's stream fails
    monkeypatch.undo()
    path_rng = runner.PathRng

    def stream(master_seed, path_index=0):
        if path_index == 1:
            raise FloatingPointError("no stream")
        return path_rng(master_seed, path_index)

    monkeypatch.setattr(runner, "PathRng", stream)
    out = str(tmp_path / "block_setup_error")
    manifest = run_experiment(small_config(out, paths=4, workers=2))
    assert manifest.status == "2 paths failed"
    assert manifest.path_status == {
        "0": "failed: setup: FloatingPointError: no stream",
        "1": "failed: setup: FloatingPointError: no stream",
        "2": "ok",
        "3": "ok",
    }
    assert sorted({name[:9] for name in manifest.files if name.startswith("path_")}) == [
        "path_0002", "path_0003"
    ]
    rows = norms_command(out, [0.5], [OrliczSpec.power(2)])
    assert rows and all(r.n_paths == 2 for r in rows)


def test_exception_while_writing_fails_that_path_only(tmp_path, monkeypatch):
    # path 1's diffs file cannot be opened after its series file was
    # written: the path fails alone and leaves no partial file behind
    diffs_path = runner.diffs_path

    def unwritable_for_path_one(run_dir, index):
        if index == 1:
            return os.path.join(run_dir, "missing_dir", "diffs.csv")
        return diffs_path(run_dir, index)

    monkeypatch.setattr(runner, "diffs_path", unwritable_for_path_one)
    out = str(tmp_path / "write_error")
    manifest = run_experiment(small_config(out, paths=3))
    assert manifest.status == "1 paths failed"
    assert manifest.path_status["0"] == manifest.path_status["2"] == "ok"
    assert manifest.path_status["1"].startswith("failed: writing files: FileNotFoundError")
    assert manifest.path_summary["1"]["steps_completed"] == 64
    assert not [name for name in os.listdir(out) if name.startswith("path_0001_")]
    assert not [name for name in manifest.files if name.startswith("path_0001_")]
    assert "path_0000_diffs.csv" in manifest.files and "path_0002_series.csv" in manifest.files
    rows = norms_command(out, [0.5], [OrliczSpec.power(2)])
    assert rows and all(r.n_paths == 2 for r in rows)


def test_norms_missing_dir(tmp_path):
    with pytest.raises(FileNotFoundError):
        norms_command(str(tmp_path / "nothing"), [0.5], [OrliczSpec.power(2)])


def test_zero_noise_zero_initial_run_has_zero_seminorms(tmp_path):
    cfg = small_config(
        str(tmp_path / "quiet"), paths=1, noise_modes=0, u0_kind="zero",
        T=2.0**-8 * 64,
    )
    run_experiment(cfg)
    rows = norms_command(cfg.out_dir, [0.5], [OrliczSpec.power(2)])
    assert rows
    for r in rows:
        assert r.median_sup == 0.0


# ---------------------------------------------------------------- snapshots

def test_diff_series_agrees_with_snapshot_recomputation(tmp_path):
    # the streamed difference-norm series must match differences taken
    # on stored full snapshots followed by the spatial reduction
    from oracles import l2_norm, load_field
    from pstokeslab.grid import Grid

    out = str(tmp_path / "snap")
    cfg = small_config(out, paths=1, store_every=1, T=2.0**-8 * 32)
    run_experiment(cfg)
    grid = Grid(cfg.grid_n)
    snaps = {}
    for name in os.listdir(out):
        if "_u_k" in name:
            k = int(name.split("_u_k")[1].split(".")[0])
            snaps[k] = load_field(grid, os.path.join(out, name))
    assert len(snaps) == 33
    from pstokeslab.analysis import load_diffs

    diffs = load_diffs(out, 0)
    for m, series in diffs["u"].items():
        for k in range(len(series)):
            direct = l2_norm(grid, snaps[k + m].values - snaps[k].values)
            assert series[k] == pytest.approx(direct, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------- CLI

def test_cli_run_and_exit_codes(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "kind=velocity_regularity\ngrid_n=8\np=2.5\nkappa=0.01\n"
        f"dt={2.0**-8!r}\nT={2.0**-8 * 32!r}\npaths=1\nmaster_seed=1\n"
        f"noise_modes=4\nworkers=1\nout_dir={tmp_path / 'cli_run'}\n"
    )
    assert cli_main(["run", "--config", str(cfg_file)]) == 0
    assert cli_main(["norms", "--dir", str(tmp_path / "cli_run"),
                     "--alpha", "0.5", "--orlicz", "2"]) == 0
    assert cli_main(["fit", "--dir", str(tmp_path / "cli_run")]) == 0
    assert cli_main(["report", "--dir", str(tmp_path / "cli_run")]) == 0

    bad = tmp_path / "bad.cfg"
    bad.write_text("p=1.2\n")
    assert cli_main(["run", "--config", str(bad)]) == 1
    bad.write_text("workers=-1\n")
    assert cli_main(["run", "--config", str(bad)]) == 1
    # rejected before any path starts, not failed in every path (status 2)
    small = f"grid_n=8\npaths=1\nT={2.0**-8 * 4!r}\ndt={2.0**-8!r}\n"
    for extra in ("p=1.5\nkappa=0\nallow_p_below_two=true\nkappa_reg=-1\n",
                  "u0_kind=curl\nu0_scale=nan\n"):
        bad.write_text(small + extra + f"out_dir={tmp_path / 'bad_run'}\n")
        assert cli_main(["run", "--config", str(bad)]) == 1
    assert cli_main(["run", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert cli_main(["norms", "--dir", str(tmp_path / "void"),
                     "--alpha", "0.5", "--orlicz", "2"]) == 2

    # malformed run files are runtime errors, not tracebacks (status 1)
    diffs = tmp_path / "cli_run" / "path_0000_diffs.csv"
    diffs.write_text(diffs.read_text().rstrip("\n").rsplit(",", 1)[0] + "\n")
    assert cli_main(["norms", "--dir", str(tmp_path / "cli_run")]) == 2
    assert cli_main(["fit", "--dir", str(tmp_path / "cli_run")]) == 2
    (tmp_path / "cli_run" / "manifest.json").write_text("{not json")
    for command in ("norms", "fit", "report"):
        assert cli_main([command, "--dir", str(tmp_path / "cli_run")]) == 2


def test_cli_norms_and_fit_need_32_steps(tmp_path, capsys):
    # below 32 steps the fit window [4 dt, T/8] holds no stored lag, and a
    # fit over every lag gave a two-point slope with a zero half width
    for steps, code in ((16, 2), (32, 0)):
        run_dir = str(tmp_path / f"steps{steps}")
        run_experiment(small_config(run_dir, paths=1, T=2.0**-8 * steps))
        for command in ("norms", "fit"):
            assert cli_main([command, "--dir", run_dir]) == code
            err = capsys.readouterr().err
            if code:
                assert err.startswith("runtime error:") and f"{steps} steps" in err
                assert "[4 dt, T/8]" in err
    assert not [n for n in os.listdir(tmp_path / "steps16") if n.startswith(("norms_", "fits_"))]


def test_selftest_is_a_command_not_a_run_kind():
    with pytest.raises(ConfigError, match="unknown experiment kind 'selftest'"):
        ExperimentConfig(kind="selftest").validate()


def test_cli_selftest_exit_codes(monkeypatch):
    assert cli_main(["selftest"]) == 0
    # negative control: a gradient off in one entry breaks grad/div adjointness
    import pstokeslab.selftest as selftest

    exact = selftest.grad_scalar_values

    def perturbed(D, q):
        out = exact(D, q)
        out[0, 3, 5] += 1e-3
        return out

    monkeypatch.setattr(selftest, "grad_scalar_values", perturbed)
    assert cli_main(["selftest"]) == 3


def test_selftest_deterministic_output(capsys):
    cli_main(["selftest"])
    first = capsys.readouterr().out
    cli_main(["selftest"])
    second = capsys.readouterr().out
    assert first == second


def test_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("PSTOKESLAB_OUT", str(tmp_path / "root"))
    cfg = ExperimentConfig(out_dir="sub")
    assert cfg.resolved_out_dir() == str(tmp_path / "root" / "sub")


def test_manifest_roundtrip(tmp_path):
    cfg = small_config(str(tmp_path / "mf"), paths=0)
    run_experiment(cfg)
    manifest = RunManifest.read(cfg.out_dir)
    assert manifest.config["kind"] == "velocity_regularity"
    with open(RunManifest.manifest_path(cfg.out_dir)) as fh:
        json.load(fh)  # valid JSON
