"""Uniform cell-centred grid on the unit square and discrete calculus.

Nodes sit at cell centres ((i+1/2)h, (j+1/2)h), i,j = 0..n-1, h = 1/n, so
the flat quadrature weight h^2 integrates constants exactly.  Velocity
fields carry a homogeneous Dirichlet condition at the physical walls; it
enters the difference stencils through ghost nodes obtained by odd
reflection about the wall, u(-1) = -u(0).

All first-order operators derive from one 1-d matrix D (central
differences with the odd-reflection closure).  Adjoint pairs are built by
definition:

    grad_scalar_values := -div_vec_values^T    (scalar gradient)
    div_tensor_values  := -grad_vec_values^T   (row-wise tensor divergence)

so the discrete integration-by-parts identities hold to machine
precision, which the projection and pressure machinery relies on.

Every operator is one kernel on plain arrays, `*_values(D, ...)`.  The
field classes only pair an array with its grid, for the functions that
need both: `lp_norm`, `save_field` and the Bogovskii operator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "ScalarField",
    "VectorField",
    "TensorField",
    "div_vec_values",
    "grad_scalar_values",
    "grad_vec_values",
    "sym_grad_values",
    "div_tensor_values",
    "curl_values",
    "magnitude",
    "lp_norm",
    "w12_norm_values",
    "sine_stream_curl",
    "save_field",
]


def _difference_matrix(n: int, h: float) -> np.ndarray:
    """Central differences with odd-reflection ghosts (zero wall trace)."""
    D = np.zeros((n, n))
    for k in range(1, n - 1):
        D[k, k - 1] = -0.5
        D[k, k + 1] = 0.5
    D[0, 0] = 0.5
    D[0, 1] = 0.5
    D[n - 1, n - 1] = -0.5
    D[n - 1, n - 2] = -0.5
    return D / h


class Grid:
    """Dyadic n x n cell-centred grid on the unit square."""

    def __init__(self, n: int):
        if n < 4 or (n & (n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 4, got {n}")
        self.n = int(n)
        self.diff_1d = _difference_matrix(self.n, self.h)
        mask = np.zeros((n, n), dtype=bool)
        mask[0, :] = mask[-1, :] = mask[:, 0] = mask[:, -1] = True
        self.boundary_mask = mask
        self.interior_mask = ~mask
        x = (np.arange(n) + 0.5) * self.h
        self.x, self.y = np.meshgrid(x, x, indexing="ij")

    @property
    def h(self) -> float:
        # derived, never stored independently
        return 1.0 / self.n

    @property
    def cell_area(self) -> float:
        return self.h * self.h

    def __eq__(self, other):
        return isinstance(other, Grid) and other.n == self.n

    def __hash__(self):
        return hash(("Grid", self.n))

    def __repr__(self):
        return f"Grid(n={self.n})"


@dataclass
class _Field:
    """A plain (grid, values) pair; the operators act on the values."""

    grid: Grid
    values: np.ndarray


class ScalarField(_Field):
    pass


class VectorField(_Field):
    pass


class TensorField(_Field):
    pass


# ---------------------------------------------------------------------
# array kernels, the one implementation of each operator.  d/dx is
# D @ q and d/dy is q @ D.T; each kernel applies them to the whole stacked
# component axis at once, which matmul treats as a batch of n x n
# products, so the result equals the per-component formulas bit for bit.
# Products are written with out= into one result allocated per call;
# no kernel keeps a buffer between calls, because callers hold on to
# the arrays they get (the stepper's report and its lag history).
# ---------------------------------------------------------------------

def div_vec_values(D, v):
    out = D @ v[0]
    out += v[1] @ D.T
    return out


def grad_scalar_values(D, q):
    # negative transpose of div_vec
    out = np.empty((2,) + q.shape)
    np.matmul(D.T, q, out=out[0])
    np.matmul(q, D, out=out[1])
    return np.negative(out, out=out)


def grad_vec_values(D, v):
    """(grad v)[i, j] = d_j v_i for the stacked components v[i]."""
    out = np.empty((v.shape[0], 2) + v.shape[1:])
    np.matmul(D, v, out=out[:, 0])
    np.matmul(v, D.T, out=out[:, 1])
    return out


def sym_grad_values(D, v):
    e = grad_vec_values(D, v)
    off = e[0, 1]
    off += e[1, 0]
    off *= 0.5
    e[1, 0] = off
    return e


def div_tensor_values(D, T):
    # negative transpose of grad_vec, acting row-wise: -(a + b) = -a - b exactly
    out = D.T @ T[:, 0]
    out += T[:, 1] @ D
    return np.negative(out, out=out)


def curl_values(D, phi):
    """(d_y phi, -d_x phi); exactly divergence-free since d_x and d_y commute."""
    return np.stack([phi @ D.T, -(D @ phi)])


def magnitude(values: np.ndarray) -> np.ndarray:
    """Nodewise Euclidean/Frobenius magnitude over component axes."""
    if values.ndim == 2:
        return np.abs(values)
    comp_axes = tuple(range(values.ndim - 2))
    return np.sqrt(np.add.reduce(values**2, axis=comp_axes))


# ---------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------

def lp_norm(f: _Field, r: float) -> float:
    """Quadrature-weighted L^r norm, (h^2 sum |.|^r)^(1/r); max for r=inf."""
    if r < 1.0:
        raise ValueError("exponent must satisfy r >= 1")
    mags = magnitude(f.values)
    if np.isinf(r):
        return float(mags.max(initial=0.0))
    return float((f.grid.cell_area * np.add.reduce(mags**r, axis=None)) ** (1.0 / r))


def w12_norm_values(D, area, q):
    """Discrete W^{1,2} norms (||q||^2 + ||grad q||^2)^(1/2) of the scalar
    fields q[..., :, :].

    Leading axes are a batch; the gradient is grad_scalar_values', whose
    sign the squares drop.
    """
    gx = D.T @ q
    gy = q @ D
    # q*q + gx*gx + gy*gy, summed in that order, in place
    gx *= gx
    gy *= gy
    sq = q * q
    sq += gx
    sq += gy
    return np.sqrt(area * np.sum(sq, axis=(-2, -1)))


def sine_stream_curl(grid: Grid, m1: int, m2: int) -> np.ndarray:
    """Curl of the stream function sin(pi m1 x') sin(pi m2 y').

    x', y' rescale the nodes inside the two outer rings to (0, 1) and the
    stream function is zero on both rings, so the curl is exactly
    divergence-free and vanishes on the boundary mask.
    """
    n = grid.n
    stream = np.zeros((n, n))
    xi = (np.arange(2, n - 2) - 1.5) / (n - 4)
    XX, YY = np.meshgrid(xi, xi, indexing="ij")
    stream[2:-2, 2:-2] = np.sin(np.pi * m1 * XX) * np.sin(np.pi * m2 * YY)
    return curl_values(grid.diff_1d, stream)


# ---------------------------------------------------------------------
# serialization: flat CSV, row-major, header "i,j,comp,value"
# ---------------------------------------------------------------------

def save_field(f: _Field, path):
    values = f.values
    n = f.grid.n
    ncomp = int(np.prod(values.shape[:-2], dtype=int))
    flat = values.reshape(ncomp, n, n)
    # rows in (i, j, comp) order, formatted from Python floats in one join
    rows = zip(itertools.product(range(n), range(n), range(ncomp)),
               flat.transpose(1, 2, 0).ravel().tolist())
    with open(path, "w") as fh:
        fh.write("i,j,comp,value\n")
        fh.write("".join([f"{i},{j},{c},{x:.17g}\n" for (i, j, c), x in rows]))
