"""Experiment configuration and run manifest.

Configs are flat key=value text files ('#' starts a comment), chosen so
manifests stay diff-friendly and need no parser dependency.  The
manifest is written before any path executes and atomically replaced at
completion; it lists every output file with a content digest.

The PDE kinds velocity_regularity, vgrad_regularity and
pressure_regularity run identical code: kind labels the run and names
its default directory.  wiener_dichotomy analyses its scalar paths on
`workers` threads in the calling process.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field

from . import __version__
from .noise import FLAVORS, RHO_PROFILES

__all__ = [
    "ExperimentConfig",
    "RunManifest",
    "ConfigError",
    "parse_config_text",
    "load_config",
    "output_root",
    "OUTPUT_ROOT_ENV",
]

OUTPUT_ROOT_ENV = "PSTOKESLAB_OUT"

KINDS = (
    "velocity_regularity",
    "vgrad_regularity",
    "pressure_regularity",
    "wiener_dichotomy",
)


# The smallest wiener_coarsest_exp whose level has a lag in the fit
# window [4 dt, T/8]: at dt = 2^-e that needs 4 <= 2^(e-3).
WIENER_COARSEST_MIN = 5


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def output_root() -> str:
    return os.environ.get(OUTPUT_ROOT_ENV, os.path.join(os.getcwd(), "runs"))


@dataclass
class ExperimentConfig:
    kind: str = "velocity_regularity"
    grid_n: int = 16
    p: float = 2.5
    kappa: float = 0.01
    dt: float = 2.0**-10
    T: float = 1.0
    paths: int = 8
    master_seed: int = 0
    store_every: int = 0
    out_dir: str = ""
    noise_modes: int = 16
    noise_decay: float = 2.0
    noise_rho: str = "one"
    noise_flavor: str = "mixed"
    newton_tol: float = 1e-14
    newton_max_iter: int = 60
    kappa_reg: float = 1e-7
    cg_tol: float = 1e-10
    workers: int = 0
    allow_p_below_two: bool = False
    u0_kind: str = "zero"          # zero | curl
    u0_scale: float = 1.0
    # wiener_dichotomy only: dt = 2^-e for e in coarsest..finest step 2
    wiener_coarsest_exp: int = 10
    wiener_finest_exp: int = 16

    def validate(self):
        # the range checks below assume finite values: a NaN slips past
        # every `if x < bound` check, and a T / dt of inf or NaN breaks round()
        errors = [
            f"{key} must be finite"
            for key, value in asdict(self).items()
            if isinstance(value, float) and not math.isfinite(value)
        ]
        if errors:
            raise ConfigError("; ".join(errors))
        if self.kind not in KINDS:
            errors.append(f"unknown experiment kind {self.kind!r}")
        if self.workers < 0:
            errors.append("workers must be nonnegative")
        if self.kind == "wiener_dichotomy":
            if self.wiener_finest_exp < self.wiener_coarsest_exp:
                errors.append("wiener_finest_exp must be >= wiener_coarsest_exp")
            if (self.wiener_finest_exp - self.wiener_coarsest_exp) % 2 != 0:
                errors.append("wiener exponent range must step by 2 (4x refinement)")
            if self.wiener_coarsest_exp < WIENER_COARSEST_MIN:
                errors.append(
                    f"wiener_coarsest_exp must be >= {WIENER_COARSEST_MIN}: coarser levels "
                    "have no lag in the fit window [4 dt, T/8]"
                )
            if self.paths < 1:
                errors.append("paths must be positive")
        else:
            if self.grid_n < 4 or (self.grid_n & (self.grid_n - 1)) != 0:
                errors.append(f"grid_n must be a power of two >= 4, got {self.grid_n}")
            if not self.p > 1.0:
                errors.append(f"p must exceed 1, got {self.p}")
            if self.p < 2.0 and not self.allow_p_below_two:
                errors.append(
                    "p < 2 needs allow_p_below_two=true: strong-mode diagnostics "
                    "in the shear-thinning regime are experimental (existence of "
                    "strong solutions there is an open problem) and the Hessian "
                    "is regularised by kappa_reg"
                )
            if self.kappa < 0.0:
                errors.append("kappa must be nonnegative")
            if self.dt <= 0.0 or self.T <= 0.0:
                errors.append("dt and T must be positive")
            else:
                steps = self.T / self.dt
                if abs(steps - round(steps)) > 1e-9 * max(steps, 1.0):
                    errors.append("T must be an integral multiple of dt")
            if self.paths < 0:
                errors.append("paths must be nonnegative")
            if self.store_every < 0:
                errors.append("store_every must be nonnegative (0 stores no snapshot)")
            if not self.newton_tol > 0.0:
                errors.append("newton_tol must be positive")
            if self.newton_max_iter < 1:
                errors.append("newton_max_iter must be positive")
            if not 0.0 <= self.cg_tol < 1.0:
                errors.append(f"cg_tol must lie in [0, 1), got {self.cg_tol}")
            if not self.kappa_reg > 0.0:
                errors.append("kappa_reg must be positive")
            if self.noise_modes < 0:
                errors.append("noise_modes must be nonnegative")
            if self.noise_decay <= 1.0:
                errors.append("noise_decay must exceed 1")
            if self.noise_rho not in RHO_PROFILES:
                errors.append(f"unknown noise_rho {self.noise_rho!r}")
            if self.noise_flavor not in FLAVORS:
                errors.append(f"unknown noise_flavor {self.noise_flavor!r}")
            if self.u0_kind not in ("zero", "curl"):
                errors.append(f"unknown u0_kind {self.u0_kind!r}")
        if errors:
            raise ConfigError("; ".join(errors))
        return self

    def resolved_out_dir(self) -> str:
        if self.out_dir:
            if os.path.isabs(self.out_dir):
                return self.out_dir
            return os.path.join(output_root(), self.out_dir)
        name = f"{self.kind}_n{self.grid_n}_seed{self.master_seed}"
        return os.path.join(output_root(), name)

    def to_text(self) -> str:
        lines = [f"{k}={_fmt(v)}" for k, v in asdict(self).items()]
        return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


_BOOLS = {"true": True, "false": False, "1": True, "0": False,
          "yes": True, "no": False}


def parse_config_text(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    fields = {f: type(getattr(cfg, f)) for f in cfg.__dataclass_fields__}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in fields:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        typ = fields[key]
        try:
            if typ is bool:
                values[key] = _BOOLS[val.lower()]
            elif typ is int:
                values[key] = int(val)
            elif typ is float:
                values[key] = float(val)
            else:
                values[key] = val
        except (KeyError, ValueError):
            raise ConfigError(
                f"line {lineno}: cannot parse {val!r} as {typ.__name__} for {key!r}"
            ) from None
    return ExperimentConfig(**values)


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config_text(fh.read())


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class RunManifest:
    config: dict
    code_version: str = __version__
    created_unix: float = 0.0
    wall_clock_seconds: float = 0.0
    path_seeds: list = field(default_factory=list)   # (master_seed, path_index)
    path_status: dict = field(default_factory=dict)  # index -> status string
    path_summary: dict = field(default_factory=dict) # index -> monitor stats
    files: dict = field(default_factory=dict)        # name -> sha256
    status: str = "pending"

    @staticmethod
    def manifest_path(run_dir: str) -> str:
        return os.path.join(run_dir, "manifest.json")

    def write(self, run_dir: str):
        """Atomic write: temp file then rename."""
        os.makedirs(run_dir, exist_ok=True)
        target = self.manifest_path(run_dir)
        tmp = target + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(asdict(self), fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, target)

    @classmethod
    def read(cls, run_dir: str) -> "RunManifest":
        """Load a manifest; a malformed one raises ValueError naming the file.

        Besides the fields, the entries that norms, fit and report read
        must be there: dt and T in the config, and the energy monitor in
        every path summary.
        """
        path = cls.manifest_path(run_dir)
        with open(path) as fh:
            data = json.load(fh)
        try:
            manifest = cls(**data)
        except TypeError as exc:  # unknown or missing top-level keys
            raise ValueError(f"{path}: {exc}") from None
        missing = [f"config.{k}" for k in ("dt", "T") if k not in manifest.config]
        missing += [
            f"path_summary.{index}.{k}"
            for index, summary in manifest.path_summary.items()
            for k in ("sup_energy", "initial_energy", "dissipation_integral")
            if k not in summary
        ]
        if missing:
            raise ValueError(f"{path}: missing {', '.join(missing)}")
        return manifest

    def record_files(self, run_dir: str):
        """Digest every non-manifest file in the run directory."""
        self.files = {}
        for name in sorted(os.listdir(run_dir)):
            if name == "manifest.json" or name.endswith(".tmp"):
                continue
            self.files[name] = sha256_file(os.path.join(run_dir, name))

    def finish(self, run_dir: str, started: float, status: str):
        self.wall_clock_seconds = time.time() - started
        self.status = status
        self.record_files(run_dir)
        self.write(run_dir)
