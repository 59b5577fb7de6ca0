"""Spans and counts around the program's public callables, from outside it.

`installed(tracer, out_dir)` swaps module attributes of the program for
wrappers and puts them back on exit; nothing under src/ changes.  The
traced stepper gets its projector and Bogovskii operator through
Stepper's own `projector=` / `bogovskii=` arguments.

Pool workers are forked from the benchmark process while the wrappers
are installed, so they inherit them.  Each worker writes the spans of
every path it ran to `out_dir` before returning the path's result; the
parent reads those files after the run.  A span is
(name, start, end, parent index, pid) with perf_counter clocks, which
are one system-wide monotonic clock on Linux.
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
import time
from collections import Counter

from pstokeslab import analysis, potential, runner, seminorms, stepping
from pstokeslab.config import RunManifest
from pstokeslab.projection import BogovskiiOperator, HelmholtzProjector
from pstokeslab.seminorms import OrliczSpec
from pstokeslab.stepping import Stepper

class Tracer:
    """In-memory spans and counters of one process."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, os.getpid()])
        self.counts[name] += 1
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


# The tracer and output directory of this process while wrappers are
# installed; forked pool workers inherit both.
_ACTIVE: dict = {}


def _tracer() -> Tracer:
    return _ACTIVE["tracer"]


class TracedHelmholtz(HelmholtzProjector):
    def project_values(self, v):
        with _tracer().span("projection.helmholtz"):
            return super().project_values(v)


class TracedBogovskii(BogovskiiOperator):
    def __init__(self, grid, *args, **kwargs):
        with _tracer().span("projection.bogovskii_factor"):
            super().__init__(grid, *args, **kwargs)

    def adjoint_apply(self, v):
        with _tracer().span("projection.bogovskii_solve"):
            return super().adjoint_apply(v)


class TracedStepper(Stepper):
    def step(self, u_n, dW):
        tr = _tracer()
        with tr.span("stepping.step"):
            u, report = super().step(u_n, dW)
        tr.counts["stepping.newton_iterations"] += report.iterations
        return u, report

    def accumulate_K_sto(self, K_prev, u_n, dW):
        with _tracer().span("stepping.accumulate_K_sto"):
            return super().accumulate_K_sto(K_prev, u_n, dW)

    def run_path(self, u0, rng):
        with _tracer().span("stepping.run_path"):
            return super().run_path(u0, rng)


def _traced_stepper(grid, params, config, spec=None):
    """Stand-in for runner.Stepper: hands traced operators to the stepper."""
    with _tracer().span("runner.stepper_setup"):
        return TracedStepper(
            grid, params, config, spec=spec,
            projector=TracedHelmholtz(grid), bogovskii=TracedBogovskii(grid),
        )


class TracedManifest(RunManifest):
    def record_files(self, run_dir):
        with _tracer().span("config.record_files"):
            return super().record_files(run_dir)


# The program's callables as imported, before any wrapper is installed.
_luxemburg_norm = seminorms.luxemburg_norm
_evaluate = OrliczSpec.evaluate
_PathRng = runner.PathRng
_path_worker = runner._path_worker


def _traced_luxemburg(path, spec):
    with _tracer().span(f"seminorms.luxemburg.{spec.kind}"):
        return _luxemburg_norm(path, spec)


def _traced_evaluate(self, t):
    tr = _tracer()
    if tr.current() == "seminorms.luxemburg.phi2":
        tr.counts["seminorms.modular_evals"] += 1
    return _evaluate(self, t)


def _traced_path_rng(master_seed, path_index=0):
    """Marks the start of a path in the serial Wiener study."""
    tr = _tracer()
    tr.spans.append(["runner.path_mark", time.perf_counter(), 0.0, -1, os.getpid()])
    return _PathRng(master_seed, path_index)


def _traced_path_worker(args):
    """Pool entry point: one path, then its spans go to a file."""
    tr = _tracer()
    tr.reset()
    with tr.span("runner.path_worker"):
        result = _path_worker(args)
    tr.dump(os.path.join(_ACTIVE["out_dir"], f"worker-{os.getpid()}-path{args[1]:04d}.json"))
    tr.reset()
    return result


# (owner, attribute, replacement); replacements that need the tracer
# instance are built in installed().
_PATCHES = [
    (runner, "Stepper", _traced_stepper),
    (runner, "RunManifest", TracedManifest),
    (runner, "PathRng", _traced_path_rng),
    (runner, "_path_worker", _traced_path_worker),
    (analysis, "luxemburg_norm", _traced_luxemburg),
    (seminorms, "luxemburg_norm", _traced_luxemburg),
    (OrliczSpec, "evaluate", _traced_evaluate),
]


@contextlib.contextmanager
def installed(tracer: Tracer, out_dir: str):
    """Wrap the program's public callables for the duration of the block."""
    patches = _PATCHES + [
        (stepping, "apply_G", tracer.wrap("noise.apply_G", stepping.apply_G)),
        (potential, "phi", tracer.wrap("potential.phi", potential.phi)),
        (analysis, "load_diffs", tracer.wrap("analysis.load_diffs", analysis.load_diffs)),
        (runner, "wiener_dichotomy_study",
         tracer.wrap("runner.wiener_dichotomy_study", runner.wiener_dichotomy_study)),
        (analysis, "norms_command", tracer.wrap("analysis.norms_command", analysis.norms_command)),
        (analysis, "fit_command", tracer.wrap("analysis.fit_command", analysis.fit_command)),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    _ACTIVE.update(tracer=tracer, out_dir=out_dir)
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in saved:
            setattr(owner, attr, old)
        _ACTIVE.clear()


def collect(tracer: Tracer, out_dir: str) -> tuple:
    """Spans and counts of this process plus every worker file in out_dir."""
    spans = [list(s) for s in tracer.spans]
    counts = Counter(tracer.counts)
    for path in sorted(glob.glob(os.path.join(out_dir, "worker-*.json"))):
        with open(path) as fh:
            data = json.load(fh)
        base = len(spans)
        for name, t0, t1, parent, pid in data["spans"]:
            spans.append([name, t0, t1, parent + base if parent >= 0 else -1, pid])
        counts.update(data["counts"])
    return spans, counts


def self_times(spans) -> dict:
    """Layer (span-name prefix) -> seconds in its spans not covered by child spans."""
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: Counter = Counter()
    for (name, t0, t1, _, _), inner in zip(spans, child_time):
        if t1 > 0.0:
            out[name.split(".")[0]] += (t1 - t0) - inner
    return dict(out)
