"""Discrete Helmholtz-Leray projection and Bogovskii operator.

The Helmholtz potential G_v solves the weak Neumann problem
(grad G, grad xi) = (v, grad xi) with zero-mean gauge, which with the
adjoint-pair operators becomes the linear system

    (A G + G A) = -div v,      A = D D^T,

solved exactly by diagonalising A once per grid (fast diagonalisation).
The projected field v - grad G is divergence-free and orthogonal to the
gradient part to machine precision.

The Bogovskii operator returns the minimal-gradient-energy right inverse
of the divergence: minimise ||grad w||^2 subject to div w = g, realised
as a KKT saddle system.  Two kernels need a gauge:

  * multipliers are defined up to constants (ker of the scalar gradient),
  * per-component checkerboard fields (-1)^(i+j) carry zero gradient
    energy and are divergence-free, so the minimiser is defined up to
    them.

Both are removed by bordering the saddle matrix with three sparse rows
and columns, C^T w = 0 for the checkerboards and z^T mu = 0 for the
multiplier constant (Benzi, Golub and Liesen, Acta Numerica 2005):

    [[H, B^T, C, 0], [B, 0, 0, z], [C^T, 0, 0, 0], [0, z^T, 0, 0]].

The bordered matrix is factorised once per grid (sparse LU) and reused.
scipy is imported when the first operator is built, so importing the
package loads none of it.

The projection acts on plain arrays: `project_values` is its one entry
point, and batch axes pass through it.  The Bogovskii operator takes and
returns fields.  The stepper does not call B*: the scalar gradient is
minus the transposed divergence and div B = id on mean-free scalars, so
B* grad q = -q and its pressures are Helmholtz potentials.  The operator is the reference against which the selftest,
the tests and the benchmark's output checks confirm that identity and
recompute both pressures.
"""

from __future__ import annotations

import numpy as np

from .grid import (
    Grid,
    ScalarField,
    VectorField,
    div_vec_values,
    grad_scalar_values,
    lp_norm,
)

__all__ = [
    "HelmholtzProjector",
    "BogovskiiOperator",
    "SolverError",
    "MeanFreeError",
]


class SolverError(RuntimeError):
    """A linear solve failed to meet its residual tolerance."""


class MeanFreeError(ValueError):
    """Input to the Bogovskii operator is not discretely mean-free."""


class HelmholtzProjector:
    """L^2-orthogonal splitting into divergence-free and gradient parts."""

    def __init__(self, grid: Grid):
        self.grid = grid
        A = grid.diff_1d @ grid.diff_1d.T
        lam, U = np.linalg.eigh(A)
        lam[0] = 0.0  # constant mode, exact kernel
        self._U = U
        den = lam[:, None] + lam[None, :]
        den[0, 0] = 1.0
        self._den = den

    def solve_neumann(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (A G + G A) = rhs with zero-mean gauge; rhs mean-free.

        Leading axes of rhs are a batch of independent right-hand sides.
        """
        U = self._U
        c = U.T @ rhs @ U
        c /= self._den
        c[..., 0, 0] = 0.0
        return U @ c @ U.T

    def project_values(self, v: np.ndarray):
        """(P v, (I-P) v, potential) of v, shaped (2, ...) with any batch
        axes between the component axis and the grid axes."""
        D = self.grid.diff_1d
        G = self.solve_neumann(-div_vec_values(D, v))
        v_grad = grad_scalar_values(D, G)
        return v - v_grad, v_grad, G


class BogovskiiOperator:
    """Minimal-gradient-norm right inverse of the discrete divergence.

    The zero-trace condition at the physical walls is encoded by the
    odd-reflection stencils in both the objective and the constraint;
    the removed checkerboard component is the only gauge freedom.
    """

    def __init__(self, grid: Grid):
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        self.grid = grid
        n = grid.n
        Ds = sp.csr_matrix(grid.diff_1d)
        eye = sp.identity(n, format="csr")
        DX = sp.kron(Ds, eye)
        DY = sp.kron(eye, Ds)
        Atil = DX.T @ DX + DY.T @ DY
        H = sp.block_diag([Atil, Atil])
        B = sp.hstack([DX, DY])
        cb = ((-1.0) ** np.add.outer(np.arange(n), np.arange(n))).ravel() / n  # unit norm
        C = sp.block_diag([cb[:, None], cb[:, None]], format="csr")
        z = sp.csr_matrix(np.full((n * n, 1), 1.0 / n))
        kkt = sp.bmat([
            [H, B.T, C, None],
            [B, None, None, z],
            [C.T, None, None, None],
            [None, z.T, None, None],
        ]).tocsc()
        self._lu = spla.splu(kkt)
        self._nv = 2 * n * n

    def _solve(self, rhs_v: np.ndarray, rhs_g: np.ndarray):
        rhs = np.concatenate([rhs_v.ravel(), rhs_g.ravel(), np.zeros(3)])
        sol = self._lu.solve(rhs)
        n = self.grid.n
        return sol[: self._nv].reshape(2, n, n), sol[self._nv : -3].reshape(n, n)

    def apply(self, g: ScalarField) -> VectorField:
        """Field w with div w = g, zero wall trace, minimal gradient energy."""
        if g.grid != self.grid:
            raise ValueError("field lives on a different grid")
        norm_g = lp_norm(g, 2)
        mean_g = abs(float(g.values.mean()))
        if mean_g > 1e-12 * max(norm_g, 1e-300):
            raise MeanFreeError(
                f"input must be mean-free: |mean| = {mean_g:.3e}, norm = {norm_g:.3e}"
            )
        w, _ = self._solve(np.zeros(self._nv), g.values)
        res = lp_norm(
            ScalarField(self.grid, div_vec_values(self.grid.diff_1d, w) - g.values), 2
        )
        if res > 1e-8 * max(norm_g, 1.0):
            raise SolverError(f"divergence residual {res:.3e} exceeds tolerance")
        return VectorField(self.grid, w)

    def adjoint_apply(self, v: VectorField) -> ScalarField:
        """Adjoint: mean-free scalar with <B* v, g> = <v, B g> for all g."""
        if v.grid != self.grid:
            raise ValueError("field lives on a different grid")
        _, mu = self._solve(v.values, np.zeros(self.grid.n**2))
        mu = mu - mu.mean()
        return ScalarField(self.grid, mu)
