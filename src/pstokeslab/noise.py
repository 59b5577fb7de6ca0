"""Truncated cylindrical Wiener forcing and its Nemytskii coefficient.

The driving noise is W = sum_j psi_j lambda_j beta^j with independent
scalar Brownian motions beta^j, mode shapes psi_j built from sine
products that vanish on the boundary ring, and decay lambda_j = j^-a.
The coefficient acts pointwise (Nemytskii): g_j(x, u) = lambda_j
psi_j(x) rho(|u(x)|) with a bounded Lipschitz profile rho.  One Euler
increment of W is a plain (J,) array of the draws
dW_j = beta^j(t + dt) - beta^j(t) ~ N(0, dt).

Mode flavours let experiments steer where the forcing lives:

  * "divergence-free": psi_j = curl of a masked stream function, hence
    exactly divergence-free (the gradient part of the forcing vanishes
    and the accumulated stochastic pressure stays at zero),
  * "gradient": psi_j is a masked scalar gradient, maximising the
    gradient part of the forcing,
  * "mixed": plain masked sine products carrying both parts.

Randomness comes from a counter-based Philox generator keyed per
(master_seed, path_index), so path streams are independent and replay is
bit-exact regardless of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, grad_scalar_values, magnitude, sine_stream_curl

__all__ = [
    "NoiseSpec",
    "PathRng",
    "sample_increment",
    "apply_G",
    "RHO_PROFILES",
    "FLAVORS",
]

RHO_PROFILES = ("one", "inv_one_plus_s2")
FLAVORS = ("mixed", "divergence-free", "gradient")


class PathRng:
    """Counter-based per-path random stream.

    Streams for distinct (master_seed, path_index) are statistically
    independent (Philox keyed via SeedSequence spawn keys) and replay is
    bit-exact.
    """

    def __init__(self, master_seed: int, path_index: int = 0):
        self.master_seed = int(master_seed)
        self.path_index = int(path_index)
        ss = np.random.SeedSequence(self.master_seed, spawn_key=(self.path_index,))
        self._gen = np.random.Generator(np.random.Philox(ss))

    def standard_normal(self, shape):
        return self._gen.standard_normal(shape)


def _mode_indices(count: int):
    """Sine index pairs (m1, m2, comp) ordered by frequency."""
    if count <= 0:
        return []
    pairs = []
    m_max = int(np.ceil(np.sqrt(count))) + 2
    for m1 in range(1, m_max + 1):
        for m2 in range(1, m_max + 1):
            pairs.append((m1 * m1 + m2 * m2, m1, m2))
    pairs.sort()
    out = []
    for _, m1, m2 in pairs:
        for comp in (0, 1):
            out.append((m1, m2, comp))
            if len(out) == count:
                return out
    return out


@dataclass(eq=False)
class NoiseSpec:
    """Immutable description of the stochastic forcing."""

    grid: Grid
    mode_count: int
    decay: float = 2.0
    rho: str = "one"
    flavor: str = "mixed"
    lambdas: np.ndarray = field(init=False, repr=False)
    modes: np.ndarray = field(init=False, repr=False)  # (J, 2, n, n)

    def __post_init__(self):
        if self.decay <= 1.0:
            raise ValueError("decay exponent must exceed 1 (square-summable)")
        if self.rho not in RHO_PROFILES:
            raise ValueError(f"unknown rho profile {self.rho!r}")
        if self.flavor not in FLAVORS:
            raise ValueError(f"unknown mode flavor {self.flavor!r}")
        if self.mode_count < 0:
            raise ValueError("mode_count must be nonnegative")
        self.lambdas, self.modes = self._build_modes()

    def _build_modes(self):
        n = self.grid.n
        D = self.grid.diff_1d
        X, Y = self.grid.x, self.grid.y
        lambdas = np.array(
            [j ** (-self.decay) for j in range(1, self.mode_count + 1)]
        )
        modes = np.zeros((self.mode_count, 2, n, n))
        for k, (m1, m2, comp) in enumerate(_mode_indices(self.mode_count)):
            if self.flavor == "divergence-free":
                psi = sine_stream_curl(self.grid, m1, m2)
            elif self.flavor == "gradient":
                q = np.cos(np.pi * m1 * X) * np.cos(np.pi * m2 * Y)
                psi = grad_scalar_values(D, q)
                psi[:, self.grid.boundary_mask] = 0.0
            else:
                shape = np.sin(np.pi * m1 * X) * np.sin(np.pi * m2 * Y) * self.grid.interior_mask
                psi = np.zeros((2, n, n))
                psi[comp] = shape
            norm = np.sqrt(self.grid.cell_area * np.sum(psi**2))
            if norm > 0.0:
                psi = psi / norm
            modes[k] = psi
        return lambdas, modes


def sample_increment(rng: PathRng, dt: float, mode_count: int) -> np.ndarray:
    """One Euler step of the truncated Wiener process: the (J,) array of
    J = mode_count independent N(0, dt) draws, deterministic given the
    stream state."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    return rng.standard_normal(mode_count) * np.sqrt(dt)


def apply_G(spec: NoiseSpec, u: np.ndarray, dW: np.ndarray) -> np.ndarray:
    """Forcing increment sum_j lambda_j rho(|u|) psi_j dW_j of the velocity
    u (2, n, n) and the increment dW (J,), nodewise: rho = 1 for "one",
    which skips the product, and 1 / (1 + |u|^2) for "inv_one_plus_s2"."""
    if len(dW) != spec.mode_count:
        raise ValueError("increment size does not match mode count")
    if spec.mode_count == 0:
        return np.zeros_like(u)
    coeff = spec.lambdas * dW
    # the one dot that tensordot(coeff, modes, 1) makes, without its wrapper
    modes = spec.modes
    out = np.dot(coeff.reshape(1, -1), modes.reshape(len(modes), -1)).reshape(modes.shape[1:])
    if spec.rho != "one":
        out = out * (1.0 / (1.0 + magnitude(u) ** 2))[None, :, :]
    return out
