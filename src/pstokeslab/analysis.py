"""Offline seminorm analysis and aggregation over a finished run.

Reads the per-path difference-norm series written by the runner, applies
the Orlicz-in-time machinery per lag, and aggregates medians/quartiles
across paths.  Report CSVs carry the columns "h,norm,alpha,kind,sup_term";
fit summaries carry "alpha,slope,half_width,h_min,h_max".
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .config import RunManifest
from .runner import diffs_path
from .seminorms import (
    FitResult,
    OrliczSpec,
    fit_exponent,
    lag_norms,
    report_from_norms,
    window_lags,
)
# Not called here: the benchmark's tracer saves and restores
# analysis.luxemburg_norm, and its checks call
# analysis.luxemburg_norm(analysis.SampledPath(...), analysis.OrliczSpec...).
from .seminorms import SampledPath, luxemburg_norm  # noqa: F401

__all__ = [
    "load_diffs",
    "path_indices",
    "failed_path_indices",
    "parse_orlicz",
    "norms_command",
    "fit_command",
    "report_command",
    "AggregateRow",
]

QUANTITIES = ("u", "V", "K")


def path_indices(run_dir: str):
    out = []
    for name in sorted(os.listdir(run_dir)):
        if name.startswith("path_") and name.endswith("_series.csv"):
            out.append(int(name.split("_")[1]))
    return out


def failed_path_indices(run_dir: str, manifest: RunManifest) -> list:
    """Paths with files in run_dir whose manifest status is not "ok"."""
    return [i for i in path_indices(run_dir) if manifest.path_status.get(str(i)) != "ok"]


def load_diffs(run_dir: str, index: int) -> dict:
    """quantity -> {lag: difference-norm series}.

    The runner writes each (quantity, lag) series as one contiguous block
    of rows, so the file is split once and its value column converted in
    one call; each series is a slice of that column.
    """
    path = diffs_path(run_dir, index)
    out: dict = {q: {} for q in QUANTITIES}
    with open(path) as fh:
        fh.readline()  # header
        text = fh.read().strip()
    if not text:
        return out
    cells = text.replace("\n", ",").split(",")
    if len(cells) % 4:
        raise ValueError(f"{path}: rows must have 4 cells")
    quantity = np.array(cells[0::4])
    lag = np.array(cells[1::4])
    values = np.array(cells[3::4], dtype=float)
    starts = np.flatnonzero((quantity[1:] != quantity[:-1]) | (lag[1:] != lag[:-1])) + 1
    bounds = [0, *starts.tolist(), values.size]
    for a, b in zip(bounds[:-1], bounds[1:]):
        if quantity[a] not in out:
            raise ValueError(f"{path}: unknown quantity {quantity[a]!r}")
        series = out[str(quantity[a])]
        if int(lag[a]) in series:
            raise ValueError(f"{path}: rows of ({quantity[a]}, {lag[a]}) are not contiguous")
        series[int(lag[a])] = values[a:b]
    return out


def parse_orlicz(token: str) -> OrliczSpec:
    token = token.strip().lower()
    if token == "phi2":
        return OrliczSpec.phi2()
    if token.startswith("nq:"):
        return OrliczSpec.nq(float(token[3:]))
    return OrliczSpec.power(float(token))


@dataclass
class AggregateRow:
    quantity: str
    alpha: float
    kind: str
    median_sup: float
    q1_sup: float
    q3_sup: float
    median_slope: float
    q1_slope: float
    q3_slope: float
    n_paths: int


def _path_fits(run_dir: str, alphas, specs):
    """Per path and quantity: (spec, alpha, report, fit) for every pair.

    Yields (index, quantity, results) in path order; the loop shared by
    norms_command and fit_command.  Each spec's Luxemburg norms are taken
    once and weighed with every alpha.  Paths whose manifest status is
    not "ok" are truncated and stay out of the reports and medians.
    """
    manifest = RunManifest.read(run_dir)
    dt = float(manifest.config["dt"])
    n_steps = int(round(float(manifest.config["T"]) / dt))
    failed = set(failed_path_indices(run_dir, manifest))
    indices = [i for i in path_indices(run_dir) if i not in failed]
    if not indices:
        raise FileNotFoundError(f"no trajectory files of completed paths in {run_dir}")
    for index in indices:
        diffs = load_diffs(run_dir, index)
        for quantity in QUANTITIES:
            if not diffs[quantity]:
                continue
            series = diffs[quantity]
            lags = window_lags(series, n_steps)
            h_values, table = lag_norms(((m, series[m]) for m in lags), dt, specs)
            results = []
            for spec, norms in zip(specs, table):
                for alpha in alphas:
                    rep = report_from_norms(h_values, norms, alpha, spec)
                    results.append((spec, alpha, rep, fit_exponent(rep)))
            yield index, quantity, results


def norms_command(run_dir: str, alphas, specs) -> list:
    """Per-path seminorm reports plus across-path aggregation.

    Writes norms_<quantity>_path<idx>.csv per path and aggregate_norms.csv;
    returns the aggregate rows.
    """
    sups: dict = {}
    slopes: dict = {}
    for index, quantity, results in _path_fits(run_dir, alphas, specs):
        rows = []
        for spec, alpha, rep, fit in results:
            key = (quantity, alpha, spec.label)
            sups.setdefault(key, []).append(rep.sup_approx)
            slopes.setdefault(key, []).append(fit.slope)
            for h, nv, st in zip(rep.h_values, rep.norms, rep.sup_terms):
                rows.append(f"{h:.10e},{nv:.10e},{alpha:g},{spec.label},{st:.10e}")
        out = os.path.join(run_dir, f"norms_{quantity}_path{index:04d}.csv")
        with open(out, "w") as fh:
            fh.write("h,norm,alpha,kind,sup_term\n")
            fh.write("\n".join(rows) + "\n")

    agg_rows = []
    for (quantity, alpha, kind), sup_list in sorted(sups.items()):
        sl = np.asarray(slopes[(quantity, alpha, kind)], dtype=float)
        sl = sl[np.isfinite(sl)]
        sup_arr = np.asarray(sup_list)
        agg_rows.append(
            AggregateRow(
                quantity=quantity,
                alpha=alpha,
                kind=kind,
                median_sup=float(np.median(sup_arr)),
                q1_sup=float(np.percentile(sup_arr, 25)),
                q3_sup=float(np.percentile(sup_arr, 75)),
                median_slope=float(np.median(sl)) if sl.size else float("nan"),
                q1_slope=float(np.percentile(sl, 25)) if sl.size else float("nan"),
                q3_slope=float(np.percentile(sl, 75)) if sl.size else float("nan"),
                n_paths=len(sup_list),
            )
        )
    with open(os.path.join(run_dir, "aggregate_norms.csv"), "w") as fh:
        fh.write(
            "quantity,alpha,kind,median_sup,q1_sup,q3_sup,"
            "median_slope,q1_slope,q3_slope,n_paths\n"
        )
        for r in agg_rows:
            fh.write(
                f"{r.quantity},{r.alpha:g},{r.kind},{r.median_sup:.10e},"
                f"{r.q1_sup:.10e},{r.q3_sup:.10e},{r.median_slope:.10e},"
                f"{r.q1_slope:.10e},{r.q3_slope:.10e},{r.n_paths}\n"
            )
    return agg_rows


def fit_command(run_dir: str, alphas=(0.5,), specs=(OrliczSpec.power(2),)) -> dict:
    """Median fitted exponents per quantity/kind; writes the fit summary CSV.

    The pinned summary columns are alpha,slope,half_width,h_min,h_max with
    the across-path median per alpha; per-path details go to
    fits_detail.csv.
    """
    detail_rows = []
    per_key: dict = {}
    for index, quantity, results in _path_fits(run_dir, alphas, specs):
        for spec, alpha, _rep, fit in results:
            detail_rows.append((quantity, spec.label, index, alpha, fit))
            per_key.setdefault((quantity, spec.label, alpha), []).append(fit)
    summaries = {}
    rows: dict = {}  # (quantity, kind) -> one summary row per alpha
    for (quantity, kind, alpha), fits in sorted(per_key.items()):
        good = [f for f in fits if not f.degenerate]
        if good:
            med = FitResult(
                slope=float(np.median([f.slope for f in good])),
                half_width=float(np.median([f.half_width for f in good])),
                h_min=float(np.median([f.h_min for f in good])),
                h_max=float(np.median([f.h_max for f in good])),
                n_points=good[0].n_points,
            )
        else:
            med = FitResult(float("nan"), float("nan"), float("nan"), float("nan"), 0, True)
        summaries[(quantity, kind, alpha)] = med
        rows.setdefault((quantity, kind), []).append(
            f"{alpha:g},{med.slope:.10e},{med.half_width:.10e},"
            f"{med.h_min:.10e},{med.h_max:.10e}\n"
        )
    for (quantity, kind), lines in rows.items():
        name = f"fits_{quantity}_{kind.replace('(', '').replace(')', '').replace(':', '')}.csv"
        with open(os.path.join(run_dir, name), "w") as fh:
            fh.write("alpha,slope,half_width,h_min,h_max\n")
            fh.writelines(lines)
    with open(os.path.join(run_dir, "fits_detail.csv"), "w") as fh:
        fh.write("quantity,kind,path,alpha,slope,half_width,h_min,h_max\n")
        for quantity, kind, index, alpha, fit in detail_rows:
            fh.write(
                f"{quantity},{kind},{index},{alpha:g},{fit.slope:.10e},"
                f"{fit.half_width:.10e},{fit.h_min:.10e},{fit.h_max:.10e}\n"
            )
    return summaries


def report_command(run_dir: str) -> str:
    """Human-readable digest of a finished run."""
    manifest = RunManifest.read(run_dir)
    lines = [f"run directory: {run_dir}"]
    lines.append(f"status: {manifest.status}")
    lines.append(f"kind: {manifest.config.get('kind')}")
    lines.append(
        "grid {grid_n}  p={p}  kappa={kappa}  dt={dt}  T={T}  paths={paths}".format(
            **{k: manifest.config.get(k) for k in ("grid_n", "p", "kappa", "dt", "T", "paths")}
        )
    )
    lines.append(f"wall clock: {manifest.wall_clock_seconds:.1f} s")
    summaries = list(manifest.path_summary.values())
    if summaries:
        sup = [s["sup_energy"] for s in summaries]
        dis = [s["dissipation_integral"] for s in summaries]
        j0 = [s["initial_energy"] for s in summaries]
        lines.append(
            f"energy monitor: max sup_J = {max(sup):.6g}, "
            f"max dissipation integral = {max(dis):.6g}, "
            f"bound 1e3*(J0+1) = {1e3 * (max(j0) + 1.0):.6g}"
        )
        if all("roundoff_per_step" in s for s in summaries):  # older runs lack them
            lines.append(_solver_line(summaries))
    agg = os.path.join(run_dir, "aggregate_norms.csv")
    if os.path.exists(agg):
        lines.append("aggregate seminorms:")
        with open(agg) as fh:
            lines.extend("  " + ln.rstrip("\n") for ln in fh)
    for idx, st in manifest.path_status.items():
        if st != "ok":
            lines.append(f"failed path {idx}: {st.removeprefix('failed: ')}")
    return "\n".join(lines)


def _solver_line(summaries) -> str:
    """Step-weighted solver means, throughput, phase times and batch sizes
    over all paths."""
    steps = sum(s["steps_completed"] for s in summaries)
    per_step = {
        key: sum(s[key] * s["steps_completed"] for s in summaries) / max(steps, 1)
        for key in ("newton_per_step", "cg_per_step", "backtracks_per_step", "roundoff_per_step")
    }
    phases = ", ".join(
        f"{name} {sum(s[f'{name}_s'] for s in summaries):.3g} s"
        for name in ("step", "record", "K", "write")
    )
    ms = 1e3 * sum(s["seconds"] for s in summaries) / max(steps, 1)
    # a path's seconds are its share of its batch's time (README)
    batches = sorted({s["batch_paths"] for s in summaries if "batch_paths" in s})
    batched = f"; batches of {', '.join(map(str, batches))} paths" if batches else ""
    return (
        f"solver: {per_step['newton_per_step']:.3f} Newton, "
        f"{per_step['cg_per_step']:.3f} CG, "
        f"{per_step['backtracks_per_step']:.3f} backtracks, "
        f"{per_step['roundoff_per_step']:.3f} round-off steps per step; "
        f"{ms:.3g} ms per step over {steps} steps ({phases}){batched}"
    )
